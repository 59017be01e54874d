"""Checkpoint and served-answer bits of a dxtraj tree, as one JSON table.

Usage:

    python tools/bits.py [TREE] > bits.json

TREE is the root of a dxtraj checkout (default: the checkout holding this
script); its src/ and perfbench/ are imported. The table maps each row to
the sha256 of the checkpoint file that training writes, or of the answers
that predict_topk serves from that model (a JSON list, probabilities
written exactly):

  <kind>/<config>           every cell kind under each config of CONFIGS,
                            trained on a 60-patient synth cohort;
  <kind>/<config>/predict   the full ranking for each patient of that
                            cohort, from its admissions but the last;
  <kind>/mixed              every cell kind under the plain config, with
                            batches of 4, trained on that cohort with every
                            patient but every fifth cut to two admissions:
                            some batches have one step, read no state and
                            form no U gradient, and others do;
  <kind>/mixed/predict      its full rankings, as for <kind>/<config>;
  perfbench/<name>          each perfbench workload's train() at seed 1;
  perfbench/<name>/predict  the top-K answers for each held-out patient of
                            that workload, from its admissions but the
                            last, as perfbench serves them.

BLAS runs on one thread. Two trees run on the same host give the same
table exactly when they train and serve the same bits; the hashes are not
meant to hold across hosts or BLAS builds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ALL_EXTRAS = {"adm_type": True, "duration": True, "interval": True}
CONFIGS = {
    "plain": {},
    "layers2": {"layers": 2},
    "embedding": {"embedding_dim": 8},
    "dropout": {"dropout_rate": 0.3},
    "input_noise": {"input_noise_std": 0.1},
    "extras": {"extra_features": ALL_EXTRAS},
    "all": {"layers": 2, "embedding_dim": 8, "dropout_rate": 0.3,
            "input_noise_std": 0.1, "extra_features": ALL_EXTRAS},
}
# shared by every synth row: several ragged batches, a few epochs
BASE = {"seed": 1, "hidden_size": 16, "max_epochs": 3, "batch_size": 16}
MIXED_BATCH = 4
PERFBENCH_SEED = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    root = Path(parser.parse_args(argv).tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from dxtraj.cells import CELL_KINDS
    from dxtraj.checkpoint import save_checkpoint
    from dxtraj.ehr_data import (CodeVocabulary, PatientRecord,
                                 build_vocabulary, split_batches)
    from dxtraj.network import predict_topk
    from dxtraj.synth import SynthSpec, generate_cohort
    from dxtraj.training import TrainConfig, split, train
    import workload

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"

        def digest(model):
            save_checkpoint(model, path)
            return hashlib.sha256(path.read_bytes()).hexdigest()

        def served(model, patients, k=None):
            vocab = CodeVocabulary(model.vocab_labels)
            answers = [predict_topk(model, PatientRecord(p.patient_id,
                                                         p.admissions[:-1]),
                                    vocab, k or len(vocab))
                       for p in patients if len(p.admissions) > 1]
            return hashlib.sha256(json.dumps(answers).encode()).hexdigest()

        cohort = generate_cohort(SynthSpec(n_patients=60, vocab_size=40,
                                           n_states=5, noise_rate=0.2,
                                           seed=7))
        for kind in CELL_KINDS:
            for name, overrides in CONFIGS.items():
                config = TrainConfig.from_dict(
                    {**BASE, "cell_kind": kind, **overrides})
                model = train(cohort, config)[0]
                table[f"{kind}/{name}"] = digest(model)
                table[f"{kind}/{name}/predict"] = served(model, cohort)
        mixed = [p if i % 5 == 0 else PatientRecord(p.patient_id,
                                                     p.admissions[:2])
                 for i, p in enumerate(cohort)]
        # both kinds of batch must occur in train()'s training split
        config = TrainConfig.from_dict({**BASE, "batch_size": MIXED_BATCH})
        part = split(mixed, config)[0]
        steps = {len(b.mask) > 1 for b in split_batches(
            part, build_vocabulary(mixed), batch_size=MIXED_BATCH)}
        assert steps == {False, True}, steps
        for kind in CELL_KINDS:
            config = TrainConfig.from_dict(
                {**BASE, "batch_size": MIXED_BATCH, "cell_kind": kind})
            model = train(mixed, config)[0]
            table[f"{kind}/mixed"] = digest(model)
            table[f"{kind}/mixed/predict"] = served(model, mixed)
        for name, w in workload.WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            files = workload.write_inputs(w, PERFBENCH_SEED, workdir)
            ready = workload.setup(w, files)
            model = workload.train_once(w, ready.cohort).model
            table[f"perfbench/{name}"] = digest(model)
            table[f"perfbench/{name}/predict"] = served(model, ready.held_out,
                                                        workload.K)
    json.dump(table, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
