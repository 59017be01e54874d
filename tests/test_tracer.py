"""The per-layer tracer of the benchmark (perfbench/tracer.py) against the
library: every name it hooks exists, and the cells it counts are the cells
the batches hold."""

import importlib.util
from pathlib import Path

from dxtraj import network
from dxtraj.ehr_data import ExtraFeatures, build_vocabulary
from dxtraj.synth import SynthSpec, generate_cohort
from dxtraj.training import TrainConfig, split, train

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def steps(patients):
    return sum(len(p.admissions) - 1 for p in patients)


def test_tracer_hooks_exist_and_count_the_valid_cells():
    tracer = load_tracer()
    cohort = generate_cohort(SynthSpec(n_patients=30, vocab_size=20,
                                       n_states=3, seed=2))
    config = TrainConfig(seed=3, max_epochs=1, batch_size=8,
                         extra_features=ExtraFeatures(True, True, True))
    with tracer.Tracer() as t:
        model, _ = train(cohort, config)
        network.predict_topk(model, cohort[0], build_vocabulary(cohort), 5)
    assert t.absent == []
    # train() encodes each split once: the training batches and the one
    # validation batch, which gives both the losses and the recall
    train_split, test_split, _ = split(cohort, config)
    assert t.cells_valid == steps(train_split) + steps(test_split)
    metrics = t.metrics()
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["ehr_data.cells_valid"][0] == t.cells_valid
    assert metrics["network.gemm_gflop"][0] > 0
    _, calls = t.totals()
    assert calls["ehr_data.history_tensor"] == 1
    assert network.forward.__name__ == "forward"  # hooks uninstalled
