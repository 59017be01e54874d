"""Self-checks of the dxtraj benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The repeat checks run train_short with fewer rounds and requests than the
benchmark; the file takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracer  # noqa: E402
import workload  # noqa: E402
from dxtraj import ehr_data, network, training  # noqa: E402
from dxtraj.numerics import SeededRng  # noqa: E402

COUNTS = ("ehr_data.cells_scanned", "ehr_data.cells_valid", "cells.step_calls",
          "network.gemm_gflop", "training.updates")

SMALL = {
    "train_short": replace(workload.WORKLOADS["train_short"], setups=1,
                           min_rounds=1, requests=50, warmup_trains=0),
}


def _run(w, tmp_path, name, traced):
    workdir = tmp_path / name
    workdir.mkdir()
    files = workload.write_inputs(w, 7, workdir)
    if traced:
        return workload.run_traced(w, files, workdir)
    return workload.run_untraced(w, files, 0.0)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_and_quality_repeat(name, tmp_path):
    w = SMALL[name]
    first = _run(w, tmp_path, "a", traced=True)
    second = _run(w, tmp_path, "b", traced=True)
    untraced = _run(w, tmp_path, "c", traced=False)
    for run in (first, second, untraced):
        assert run.outcome.errors == []
    for name in COUNTS:
        assert first.metrics[name][0] > 0
        assert first.metrics[name] == second.metrics[name]
    assert first.quality == second.quality == untraced.quality
    assert set(first.metrics) == set(tracer.LAYER_METRICS) | {
        "trace.overhead_frac"}


def test_tracer_restores_the_library():
    originals = {(m, a): getattr(m, a) for m, a, _ in tracer.HOOKS}
    with tracer.Tracer():
        assert network.forward is not originals[(network, "forward")]
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_missing_hook_marks_metrics_absent(monkeypatch):
    monkeypatch.delattr(network, "_scan_direction")
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["dxtraj.network._scan_direction"]
    metrics = t.metrics()
    for name in ("network.scan_fwd_s", "network.scan_bwd_s", "network.head_s"):
        assert name not in metrics
    assert "network.bptt_fwd_s" in metrics
    assert not hasattr(network, "_scan_direction")


def test_gemm_flops_counts_mgru_products():
    # one step, one patient, input 3, hidden 2, 4 codes, one layer:
    # per direction (3 + 2) * 2 * 2 gates; head 2 * 2 * 2 + 2 * 4
    fwd = tracer.gemm_flops("mgru", 1, 1, 3, 2, 4, 1, backward=False)
    assert fwd == 2.0 * (2 * 20 + 16)
    assert tracer.gemm_flops("mgru", 1, 1, 3, 2, 4, 1, backward=True) == 2 * fwd


def test_cohort_depends_on_seed_but_not_its_shape():
    a = workload.synth_cohort(1, 300, 0.35)
    b = workload.synth_cohort(2, 300, 0.35)
    assert [len(p.admissions) for p in a] == [len(p.admissions) for p in b]
    assert [p.admissions[0].codes for p in a] != [p.admissions[0].codes for p in b]
    again = workload.synth_cohort(1, 300, 0.35)
    assert [(p.patient_id, [x.codes for x in p.admissions]) for p in a] == \
        [(p.patient_id, [x.codes for x in p.admissions]) for p in again]


def test_record_matches_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads((BENCH_DIR / "workloads.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert set(names) == set(workload.WORKLOADS) == set(record["workloads"])
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = {n: u for n, (u, _) in tracer.LAYER_METRICS.items()}
    expected["trace.overhead_frac"] = "frac"
    assert per_layer == expected
    assert set(record["layer_map"]) == set(per_layer)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for targets in record["layer_map"].values():
        for target in targets:
            assert target["metric"] in e2e
            assert target["workload"] in names


def test_reanchor_counts_reproduce():
    """Cells of the train_long training split, as recorded."""
    recorded = json.loads((BENCH_DIR / "workloads.json").read_text())["reanchor"]
    w = workload.WORKLOADS["train_long"]
    cohort = workload.synth_cohort(1, w.patients, w.geometric_p)
    train_split, _ = training.split_patients(cohort, 0.9,
                                             SeededRng(workload.TRAIN_SEED))
    vocab = ehr_data.build_vocabulary(cohort)
    batches = ehr_data.split_batches(train_split, vocab, None, w.batch_size)
    scanned = sum(b.mask.size for b in batches)
    valid = int(sum(b.mask.sum() for b in batches))
    assert (scanned, valid) == (recorded["cells_scanned"], recorded["cells_valid"])
    assert round(1 - valid / scanned, 4) == recorded["padding_frac"]


def test_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.*"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
