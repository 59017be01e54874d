"""End-to-end acceptance gate. Each test exercises one release criterion at
its fixed tolerance and prints a pass/fail line (visible with pytest -s or in
captured output)."""

import time
from dataclasses import asdict

import numpy as np
import pytest

from dxtraj import cells, network
from dxtraj.cells import CELL_KINDS
from dxtraj.checkpoint import save_checkpoint
from dxtraj.cli import main as cli_main
from dxtraj.ehr_data import BatchTensor, build_vocabulary
from dxtraj.evaluation import evaluate_model, random_baseline, recall_at_k
from dxtraj.gradcheck import full_network_gradcheck, random_batch
from dxtraj.numerics import SeededRng
from dxtraj.synth import SynthSpec, generate_cohort, oracle_recall
from dxtraj.training import TrainConfig, cross_entropy_loss, split_patients, train


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = {}
    for kind in CELL_KINDS:
        worst[kind] = max(full_network_gradcheck(
            kind, n_codes=5, hidden=4, n_patients=2, n_steps=3).values())
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("gradient correctness (rel err <= 1e-4, < 30 s)",
           max(worst.values()) <= 1e-4 and elapsed < 30.0,
           f"{detail}; {elapsed:.1f}s")


def test_02_softmax_normalization_100_passes():
    worst = 0.0
    for seed in range(100):
        rng = SeededRng(seed)
        model = network.init_model("mgru", 6, 5, rng=rng)
        for k, v in model.flat().items():
            v[...] = v + rng.normal(0.3, v.shape)
        batch = random_batch(6, 3, 4, rng)
        yhat = network.forward(batch, model)["yhat_rows"]
        assert len(yhat) == batch.mask.sum()
        sums = yhat.sum(axis=-1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    report("softmax rows sum to 1 +/- 1e-9 over 100 passes", worst <= 1e-9,
           f"worst deviation {worst:.2e}")


def test_03_masking_invariance():
    rng = SeededRng(5)
    model = network.init_model("mgru", 5, 4, rng=rng)
    for k, v in model.flat().items():
        v[...] = v + rng.normal(0.3, v.shape)
    batch = random_batch(5, 2, 3, rng, lengths=(3, 3))
    # an all-padding patient adds no row: only the mask widens
    padded = BatchTensor(batch.code_rows, batch.extra_rows, batch.target_rows,
                         np.concatenate([batch.mask, np.zeros((3, 1))], axis=1))
    tr_a = network.forward(batch, model)
    tr_b = network.forward(padded, model)
    dl = abs(cross_entropy_loss(batch.target_rows, tr_a["yhat_rows"])
             - cross_entropy_loss(padded.target_rows, tr_b["yhat_rows"]))
    g_a = network.backward(tr_a, batch, model)
    g_b = network.backward(tr_b, padded, model)
    dg = max(float(np.abs(g_a[k] - g_b[k]).max()) for k in g_a)
    report("masking invariance (<= 1e-12)", dl <= 1e-12 and dg <= 1e-12,
           f"loss delta {dl:.2e}, grad delta {dg:.2e}")


def test_04_mgru_step_scalar_oracle():
    # hand evaluation: f = sigma(0.2), candidate = tanh(0.2),
    # h = (1-f)*0.4 + f*candidate = 0.2885901 (exact to 7 digits)
    params = {
        "Wf": np.array([[1.0]]), "Uf": np.array([[0.0]]), "bf": np.zeros(1),
        "Wh": np.array([[1.0]]), "Uh": np.array([[0.0]]), "bh": np.zeros(1),
    }
    xw = cells.project_inputs("mgru", np.array([[0.2]]), params)
    state, _ = cells.step("mgru", xw, {"h": np.array([[0.4]])}, params)
    h = float(state["h"][0, 0])
    report("minimal-GRU scalar step oracle (+/- 1e-6)",
           abs(h - 0.2885901) <= 1e-6, f"h = {h:.7f}")


def test_05_param_count_ordering():
    d = n = 271
    c = {k: cells.param_count(k, d, n) for k in CELL_KINDS}
    ok = c["jordan"] < c["mgru"] < c["gru"] < c["lstm"] <= c["lstm_google"]
    report("parameter-count ordering at 271x271", ok,
           ", ".join(f"{k}={v}" for k, v in sorted(c.items(), key=lambda x: x[1])))


def test_06_random_baseline_271():
    cohort = generate_cohort(SynthSpec(
        n_patients=400, vocab_size=271, n_states=20, noise_rate=0.3, seed=4))
    vocab = build_vocabulary(cohort)
    assert len(vocab) == 271
    res = random_baseline(cohort, vocab, SeededRng(9), ks=(10,))[10]
    se = float(np.std(res.values) / np.sqrt(len(res.values)))
    expected = 10.0 / 271.0
    report("uniform-score Recall@10 within 3 SE of 10/271",
           abs(res.mean - expected) <= 3 * se,
           f"mean {res.mean:.4f}, expected {expected:.4f}, se {se:.4f}")


def test_07_memorization():
    t0 = time.perf_counter()
    cohort = generate_cohort(SynthSpec(
        n_patients=10, vocab_size=80, n_states=4, noise_rate=0.0, seed=7))
    vocab = build_vocabulary(cohort)
    cfg = TrainConfig(seed=1, max_epochs=200, patience_epochs=200)
    model, rep = train(cohort, cfg)
    res = evaluate_model(model, cohort, vocab, ks=(30,))[30]
    elapsed = time.perf_counter() - t0
    report("memorization of 10 planted patients (< 2 min, <= 200 epochs)",
           res.mean == 1.0 and rep.iterations <= 200 and elapsed < 120.0,
           f"recall@30 {res.mean:.3f} after {rep.iterations} epochs, "
           f"{elapsed:.1f}s")


def test_08_learnability_generalization():
    t0 = time.perf_counter()
    spec = SynthSpec(n_patients=2000, vocab_size=271, n_states=12,
                     noise_rate=0.2, seed=11)
    cohort = generate_cohort(spec)
    vocab = build_vocabulary(cohort)
    assert len(vocab) == 271
    ceiling = oracle_recall(spec, cohort, 30)
    cfg = TrainConfig(seed=3, max_epochs=100, patience_epochs=10,
                      batch_size=256)
    model, rep = train(cohort, cfg)
    held_out = rep.recall[30]
    _, test_split = split_patients(cohort, 0.9, SeededRng(cfg.seed))
    rand = random_baseline(test_split, vocab, SeededRng(5), ks=(30,))[30].mean
    elapsed = time.perf_counter() - t0
    report("held-out recall >= 5x random and >= 80% of oracle ceiling (< 15 min)",
           held_out >= 5 * rand and held_out >= 0.8 * ceiling
           and elapsed < 900.0,
           f"recall@30 {held_out:.3f}, random {rand:.3f}, "
           f"ceiling {ceiling:.3f}, {elapsed:.0f}s")


def test_09_early_stopping_patience():
    cohort = generate_cohort(SynthSpec(
        n_patients=10, vocab_size=40, n_states=4, seed=7))
    cfg = TrainConfig(seed=0, max_epochs=100)  # default patience 10
    _, rep = train(cohort, cfg, validation_loss_hook=lambda epoch: 1.0)
    report("constant validation loss stops after patience+1 epochs",
           rep.iterations == cfg.patience_epochs + 1 == 11,
           f"stopped after {rep.iterations} epochs")


def test_10_determinism_byte_identical(tmp_path):
    cohort = generate_cohort(SynthSpec(
        n_patients=12, vocab_size=30, n_states=3, seed=2))
    cfg = TrainConfig(seed=7, max_epochs=5, patience_epochs=10)
    paths = []
    reports = []
    for name in ("a", "b"):
        model, rep = train(cohort, cfg)
        p = tmp_path / f"{name}.ckpt"
        save_checkpoint(model, p)
        paths.append(p)
        d = asdict(rep)
        d.pop("wall_time_s")  # wall time is the one nondeterministic field
        reports.append(d)
    report("same seed, byte-identical checkpoints and reports",
           paths[0].read_bytes() == paths[1].read_bytes()
           and reports[0] == reports[1])


def test_11_ccs_mapping_roundtrip(tmp_path, capsys):
    import json

    ccs = tmp_path / "map.csv"
    ccs.write_text("icd9,ccs_label,description\n"
                   "01000,1,Tuberculosis\n01001,1,Tuberculosis\n"
                   "01002,1,Tuberculosis\n0600,7,Polio\n")
    inp = tmp_path / "patients.jsonl"
    inp.write_text(json.dumps({
        "patient_id": "p1",
        "admissions": [
            {"timestamp": 10, "icd9": ["01000", "01001", "01002"],
             "type": "emergency", "duration_hours": 24.0},
            {"timestamp": 500, "icd9": ["0600"], "type": "urgent",
             "duration_hours": 10.0},
        ]}) + "\n")
    out = tmp_path / "cohort.jsonl"
    code = cli_main(["--quiet", "prepare", "--input", str(inp), "--ccs",
                     str(ccs), "--output", str(out)])
    capsys.readouterr()
    cohort = json.loads(out.read_text().splitlines()[0])
    collapsed = cohort["admissions"][0]["icd9"]
    report("Tuberculosis ICD rows collapse to CCS set {1} through prepare",
           code == 0 and collapsed == ["1"],
           f"admission 0 codes -> {collapsed}")


def test_12_recall_oracle_equivalence():
    def brute_force(yhat, targets, k):
        order = sorted(range(len(yhat)), key=lambda i: (-yhat[i], i))
        return len(set(order[:k]) & set(targets)) / len(set(targets))

    rng = SeededRng(123)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 40))
        yhat = np.round(rng.uniform(n), 2)
        n_t = int(rng.integers(1, n + 1))
        targets = set(int(i) for i in rng.choice(n, size=n_t, replace=False))
        k = int(rng.integers(1, n + 1))
        if recall_at_k(yhat, targets, k) != brute_force(list(yhat), targets, k):
            mismatches += 1
    report("recall@k equals brute-force oracle on 10^4 random triples",
           mismatches == 0, f"{mismatches} mismatches")
