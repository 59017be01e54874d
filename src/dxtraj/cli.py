"""Command-line entry point.

Subcommands: prepare, synth, train, evaluate, predict, gradcheck, compare.
Exit codes: 0 success, 2 input error, 3 divergence, 4 vocabulary error,
5 gradcheck failure. The commands raise and main() alone maps the errors to
exit codes: every command exits 2 with "error: <message>" on stderr for an
unreadable or unwritable path and for malformed input, 4 for a code outside
the model's vocabulary and 3 when training diverges. Any other exception is
a fault of the program and keeps its traceback. A command checks every file
it will write (dxtraj.files.check_writable) before it loads or trains
anything, and writes each one atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

# One BLAS thread unless the caller chose otherwise: training runs its own
# second thread (network.run_pair), BLAS threads beside it slow it down, and
# the trained weights depend on the BLAS thread count. numpy reads these
# once, when first imported, so they are set before the imports below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import ehr_data, evaluation, synth
from .cells import CELL_KINDS
from .checkpoint import load_checkpoint, save_checkpoint
from .ehr_data import CodeVocabulary, VocabularyError
from .files import atomic_write_text, check_writable
from .gradcheck import full_network_gradcheck
from .network import predict_topk
from .training import TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_VOCAB = 4
EXIT_GRADCHECK = 5

QUIET = False


def log(msg):
    if not QUIET:
        print(msg, file=sys.stderr)


def cmd_prepare(args) -> int:
    check_writable(args.output, args.report)
    ccs = ehr_data.load_ccs_map(args.ccs)
    raw = ehr_data.load_patients(args.input)
    report = ehr_data.FilterReport()
    mapped = [ehr_data.map_icd_to_ccs(p, ccs, report) for p in raw]
    cohort, filt = ehr_data.filter_cohort(mapped)
    filt.unknown_icd_codes = report.unknown_icd_codes
    ehr_data.save_patients(cohort, args.output)
    if args.report:
        atomic_write_text(args.report, json.dumps(asdict(filt), indent=2) + "\n")
    log(f"prepared {len(cohort)} patients "
        f"({filt.patients_too_few_admissions} removed)")
    return EXIT_OK


def cmd_synth(args) -> int:
    check_writable(args.output, args.ccs_out)
    spec = synth.SynthSpec(
        n_patients=args.patients, vocab_size=args.vocab_size,
        n_states=args.states, noise_rate=args.noise_rate, seed=args.seed)
    cohort = synth.generate_cohort(spec)
    # emit the consumable JSONL format: integer codes as strings
    as_strings = [
        ehr_data.PatientRecord(p.patient_id, [
            ehr_data.Admission(a.timestamp, {str(c) for c in a.codes},
                               a.adm_type, a.duration)
            for a in p.admissions
        ])
        for p in cohort
    ]
    ehr_data.save_patients(as_strings, args.output)
    if args.ccs_out:
        ccs = synth.identity_ccs_map(spec)
        lines = ["icd9,ccs_label,description"]
        for icd in sorted(ccs.mapping):
            lines.append(f"{icd},{ccs.mapping[icd]},{ccs.labels[icd]}")
        atomic_write_text(args.ccs_out, "\n".join(lines) + "\n")
    log(f"generated {len(cohort)} synthetic patients")
    k = min(30, spec.vocab_size)
    log(f"oracle recall@{k} ceiling: {synth.oracle_recall(spec, cohort, k):.3f}")
    return EXIT_OK


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a syntax error, or bytes that are not text
            raise ValueError(f"{path}: invalid JSON ({exc})") from None


def _load_config(args):
    values = {}
    if args.config:
        values = _load_json(args.config)
        if type(values) is not dict:
            raise ValueError(f"{args.config}: expected a JSON object")
    for flag in ("seed", "max_epochs", "hidden_size", "cell_kind",
                 "batch_size", "patience_epochs"):
        v = getattr(args, flag, None)
        if v is not None:
            values[flag] = v
    return TrainConfig.from_dict(values)


def cmd_train(args) -> int:
    check_writable(args.model, args.report)
    cohort = ehr_data.load_patients(args.cohort)
    model, report = train(cohort, _load_config(args))
    save_checkpoint(model, args.model)
    if args.report:
        atomic_write_text(args.report,
                          json.dumps(asdict(report), indent=2) + "\n")
    log(f"trained {report.iterations} epochs "
        f"(best {report.best_epoch}), recall {report.recall}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.model)
    patients = ehr_data.load_patients(args.cohort)
    vocab = CodeVocabulary(model.vocab_labels)
    results = evaluation.evaluate_model(model, patients, vocab,
                                        ks=tuple(args.k))
    out = {str(k): r.mean for k, r in results.items()}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    patients = ehr_data.load_patients(args.history)
    if not patients:
        raise ValueError(f"{args.history}: empty history file")
    vocab = CodeVocabulary(model.vocab_labels)
    descriptions = {}
    if args.ccs:
        descriptions = ehr_data.load_ccs_map(args.ccs).labels
    out = []
    for patient in patients:
        if not patient.admissions:
            raise ValueError(f"{args.history}: patient "
                             f"{patient.patient_id!r} has no admissions")
        out.append({"patient_id": patient.patient_id, "predictions": [
            {
                "code": vocab.labels[i],
                "description": descriptions.get(vocab.labels[i],
                                                str(vocab.labels[i])),
                "probability": p,
            }
            for i, p in predict_topk(model, patient, vocab, args.k)
        ]})
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    for flag in ("codes", "hidden", "patients", "steps"):
        value = getattr(args, flag)
        if value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    if not 0 <= args.tolerance < float("inf"):  # nan fails this too
        raise ValueError("--tolerance must be a finite number >= 0, got "
                         f"{args.tolerance}")
    n_failing = 0
    worst = (0.0, "")
    for kind in CELL_KINDS:
        errors = full_network_gradcheck(
            kind, n_codes=args.codes, hidden=args.hidden,
            n_patients=args.patients, n_steps=args.steps, seed=args.seed)
        name = max(errors, key=errors.get)
        failing = [n for n, err in errors.items() if err > args.tolerance]
        log(f"{kind:12s} max relative error {errors[name]:.3e} ({name})"
            + (f"; failing: {', '.join(failing)}" if failing else ""))
        worst = max(worst, (errors[name], f"{kind} {name}"))
        n_failing += len(failing)
    print(f"max relative error: {worst[0]:.3e} ({worst[1]})")
    if n_failing:
        log(f"gradcheck FAILED: {n_failing} parameter(s) above "
            f"{args.tolerance:g}")
        return EXIT_GRADCHECK
    log("gradcheck passed")
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    check_writable(args.output + ".csv", args.output + ".json")
    cohort = ehr_data.load_patients(args.cohort)
    grid_spec = _load_json(args.grid)
    if (type(grid_spec) is not list or not grid_spec
            or any(type(s) is not dict for s in grid_spec)):
        raise ValueError(
            f"{args.grid}: expected a non-empty JSON list of objects")
    seeds = [args.seed + i for i in range(args.seeds)]
    rows = evaluation.run_comparison(cohort, grid_spec, seeds)
    atomic_write_text(args.output + ".csv", evaluation.grid_to_csv(rows))
    atomic_write_text(args.output + ".json",
                      json.dumps(evaluation.grid_to_json(rows), indent=2) + "\n")
    ok = sum(1 for r in rows if not r.failed)
    log(f"{ok}/{len(rows)} grid cells succeeded")
    if not ok:
        raise ValueError(f"every grid cell failed (errors in "
                         f"{args.output}.json)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dxtraj",
        description="Next-admission diagnosis prediction toolkit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="map ICD-9 to CCS and filter a cohort")
    p.add_argument("--input", required=True)
    p.add_argument("--ccs", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--patients", type=int, default=1000)
    p.add_argument("--vocab-size", type=int, default=271)
    p.add_argument("--states", type=int, default=10)
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--ccs-out", help="write a matching identity CCS map")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model on a prepared cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--config", help="JSON file of TrainConfig fields")
    p.add_argument("--model", required=True)
    p.add_argument("--report")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--hidden-size", type=int, dest="hidden_size")
    p.add_argument("--cell-kind", choices=CELL_KINDS, dest="cell_kind")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--patience", type=int, dest="patience_epochs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="Recall@k of a checkpoint on a cohort")
    p.add_argument("--model", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--k", type=int, nargs="+", default=[10, 20, 30])
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="rank next-admission codes for each "
                                       "patient of a history file")
    p.add_argument("--model", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--ccs", help="CCS map supplying human-readable descriptions")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--codes", type=int, default=5)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--patients", type=int, default=2)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("compare", help="run a train/evaluate comparison grid")
    p.add_argument("--cohort", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--output", required=True,
                   help="output path stem (.csv and .json are appended)")
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    global QUIET
    args = build_parser().parse_args(argv)
    QUIET = args.quiet
    try:
        return args.fn(args)
    except VocabularyError as exc:  # a ValueError, so it comes first
        message, code = f"error: {exc}", EXIT_VOCAB
    except TrainingDivergedError as exc:
        message, code = f"training diverged: {exc}", EXIT_DIVERGED
    except (OSError, ValueError) as exc:
        message, code = f"error: {exc}", EXIT_INPUT
    # printed under --quiet too: it is the reason for the exit code
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
