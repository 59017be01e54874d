import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dxtraj import evaluation, network, training
from dxtraj.ehr_data import (Admission, CodeVocabulary, ExtraFeatures,
                             PatientRecord, build_batch, build_vocabulary)
from dxtraj.evaluation import (
    grid_to_csv,
    random_baseline,
    recall_at_k,
    run_comparison,
    evaluate_model,
    top_k_hits,
)
from dxtraj.numerics import SeededRng
from dxtraj.synth import SynthSpec, generate_cohort
from dxtraj.training import TrainConfig, split, train
from padded import pad


def brute_force_recall(yhat, targets, k):
    """Independent oracle: sort (score desc, index asc) with plain Python."""
    order = sorted(range(len(yhat)), key=lambda i: (-yhat[i], i))
    top = set(order[:k])
    return len(top & set(targets)) / len(set(targets))


def test_recall_examples():
    y = np.linspace(1.0, 0.1, 20)
    assert recall_at_k(y, {1, 2, 3}, 10) == 1.0
    yhat = np.zeros(10)
    yhat[[1, 9]] = [0.9, 0.8]
    assert recall_at_k(yhat, {1, 2, 3, 4}, 2) == 0.25


def test_recall_errors():
    with pytest.raises(ValueError):
        recall_at_k(np.ones(5), set(), 2)
    with pytest.raises(ValueError):
        recall_at_k(np.ones(5), {1}, 6)


def test_recall_full_k_is_one():
    rng = SeededRng(0)
    y = rng.uniform(17)
    assert recall_at_k(y, {0, 5, 16}, 17) == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_recall_monotone_in_k(seed):
    rng = SeededRng(seed)
    y = rng.uniform(12)
    targets = set(int(i) for i in rng.choice(12, size=4, replace=False))
    values = [recall_at_k(y, targets, k) for k in range(1, 13)]
    assert values == sorted(values)
    assert values[-1] == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_recall_rank_invariance(seed):
    rng = SeededRng(seed)
    y = rng.uniform(9) + 0.1
    targets = {1, 4}
    for k in (1, 3, 9):
        assert recall_at_k(y, targets, k) == recall_at_k(y ** 2, targets, k)


def test_recall_matches_brute_force_oracle():
    rng = SeededRng(42)
    for _ in range(2000):
        n = int(rng.integers(2, 30))
        yhat = np.round(rng.uniform(n), 2)  # rounding forces tie cases
        n_t = int(rng.integers(1, n + 1))
        targets = set(int(i) for i in rng.choice(n, size=n_t, replace=False))
        k = int(rng.integers(1, n + 1))
        assert recall_at_k(yhat, targets, k) == \
            brute_force_recall(list(yhat), targets, k)


def test_random_baseline_uniform_expectation():
    # mean Recall@k of uniform scores approaches k / |D|
    cohort = generate_cohort(SynthSpec(n_patients=400, vocab_size=271,
                                       n_states=8, seed=3))
    vocab = build_vocabulary(cohort)
    res = random_baseline(cohort, vocab, SeededRng(9), ks=(10,))
    n = len(res[10].values)
    expected = 10.0 / len(vocab)
    se = np.std(res[10].values) / np.sqrt(n)
    assert abs(res[10].mean - expected) <= 3 * se + 1e-3


@pytest.mark.parametrize("noise_rate", [0.0, 0.3])
def test_random_baseline_equals_one_draw_per_transition(noise_rate):
    """The loop random_baseline replaced: one draw of |D| scores per
    transition, patient by patient, ranked by a sort."""
    cohort = generate_cohort(SynthSpec(n_patients=40, vocab_size=30,
                                       n_states=4, noise_rate=noise_rate,
                                       seed=8))
    vocab = build_vocabulary(cohort)
    ks = (1, 10, len(vocab))
    rng = SeededRng(9)
    reference = {k: [] for k in ks}
    for p in cohort:
        for i in range(len(p.admissions) - 1):
            scores = list(rng.uniform(len(vocab)))
            target = {vocab.index[c] for c in p.admissions[i + 1].codes}
            for k in ks:
                reference[k].append(brute_force_recall(scores, target, k))
    res = random_baseline(cohort, vocab, SeededRng(9), ks=ks)
    for k in ks:
        assert res[k].values == reference[k]
        assert res[k].mean == float(np.mean(reference[k]))


def test_evaluate_model_counts_one_sample_per_transition():
    cohort = generate_cohort(SynthSpec(n_patients=6, vocab_size=30,
                                       n_states=3, seed=1))
    vocab = build_vocabulary(cohort)
    cfg = TrainConfig(seed=0, max_epochs=2)
    model, _ = train(cohort, cfg)
    res = evaluate_model(model, cohort, vocab, ks=(10,))
    n_transitions = sum(len(p.admissions) - 1 for p in cohort)
    assert len(res[10].values) == n_transitions
    assert res[10].mean == pytest.approx(np.mean(res[10].values))


def test_evaluate_model_single_transition():
    cohort = generate_cohort(SynthSpec(n_patients=6, vocab_size=30,
                                       n_states=3, seed=1))
    single = [p for p in cohort if len(p.admissions) == 2][:1]
    assert single
    vocab = build_vocabulary(cohort)
    model, _ = train(cohort, TrainConfig(seed=0, max_epochs=1))
    res = evaluate_model(model, single, vocab, ks=(10,))
    assert res[10].mean == res[10].values[0]


def per_row_recall(model, patients, vocab, k):
    """Reference: recall_at_k on each valid (step, patient) cell in turn."""
    batch = build_batch(patients, vocab, model.extras, model.duration_max,
                        model.interval_max)
    yhat = pad(batch.mask, network.forward(batch, model)["yhat_rows"])
    targets = pad(batch.mask, batch.target_rows)
    return [recall_at_k(yhat[t, h], set(np.flatnonzero(targets[t, h])), k)
            for t, h in np.ndindex(batch.mask.shape)
            if batch.mask[t, h]]


@pytest.mark.parametrize("tied", [False, True])
def test_evaluate_model_matches_per_row_recall(tied):
    cohort = generate_cohort(SynthSpec(n_patients=12, vocab_size=30,
                                       n_states=3, seed=4))
    vocab = build_vocabulary(cohort)
    model = network.init_model("mgru", len(vocab), 6, rng=SeededRng(2))
    if tied:  # uniform scores: every rank is decided by the tie-break
        model.Wout[...] = 0.0
    ks = (1, 5, len(vocab))
    res = evaluate_model(model, cohort, vocab, ks=ks)
    for k in ks:
        ref = per_row_recall(model, cohort, vocab, k)
        assert res[k].values == ref
        assert res[k].mean == float(np.mean(ref))


def test_evaluate_model_normalises_as_serving(monkeypatch):
    """With both stored constants at 0 the extras stay 0 in evaluation, as
    they do in build_history_tensor, instead of being taken from the
    evaluation cohort."""
    vocab = CodeVocabulary(["0", "1", "2"])
    patient = PatientRecord("e", [Admission(100, {"0"}, "urgent", 4.0),
                                  Admission(130, {"1"}, None, 8.0),
                                  Admission(400, {"2"}, "newborn", 2.0)])
    model = network.init_model("mgru", 3, 4, extras=ExtraFeatures(True, True,
                                                                  True),
                               rng=SeededRng(2))
    assert model.duration_max == model.interval_max == 0.0
    encoded = []

    def recording_build_batch(*args, **kwargs):
        encoded.append(build_batch(*args, **kwargs))
        return encoded[-1]

    monkeypatch.setattr(evaluation, "build_batch", recording_build_batch)
    evaluation.evaluate_model(model, [patient], vocab, ks=(1,))
    history = network.build_history_tensor(patient, model, vocab)
    np.testing.assert_array_equal(encoded[0].code_rows,
                                  history.code_rows[:-1])
    np.testing.assert_array_equal(encoded[0].extra_rows,
                                  history.extra_rows[:-1])
    np.testing.assert_array_equal(encoded[0].target_rows,
                                  history.target_rows[:-1])


def argsort_hits(yhat, targets, k):
    """Hits of each row's top k by one stable argsort of every row, as
    evaluate_model ranked before: the reference for top_k_hits."""
    order = np.argsort(-yhat, axis=1, kind="stable")
    return np.take_along_axis(targets, order[:, :k], axis=1).cumsum(axis=1)[:, -1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(
    # few distinct values, so most rows tie across the k-th place
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)),
               elements=st.sampled_from([0.0, 0.05, 0.25, 0.5])),
    st.integers(1, d), st.randoms())))
def test_top_k_hits_equals_stable_argsort_with_ties(case):
    yhat, k, rnd = case
    targets = np.array([[rnd.random() < 0.4 for _ in row] for row in yhat],
                       dtype=np.float64).reshape(yhat.shape)
    np.testing.assert_array_equal(top_k_hits(yhat, targets, k),
                                  argsort_hits(yhat, targets, k))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12).flatmap(lambda d: st.tuples(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)),
               elements=st.sampled_from([0.0, 0.05, 0.25, 0.5])),
    st.randoms())))
def test_recall_of_one_byte_targets_equals_float_targets(case):
    yhat, rnd = case
    targets = np.zeros(yhat.shape, dtype=np.uint8)
    for row in targets:
        row[rnd.randrange(len(row))] = 1
        row[[rnd.random() < 0.4 for _ in row]] = 1
    ks = range(1, yhat.shape[1] + 1)
    one_byte = evaluation.recall_rows(yhat, targets, ks)
    floats = evaluation.recall_rows(yhat, targets.astype(np.float64), ks)
    for k in ks:
        assert np.array(one_byte[k].values).tobytes() == \
            np.array(floats[k].values).tobytes()
        assert one_byte[k].mean == floats[k].mean


def test_perfect_memorizer_reaches_one():
    cohort = generate_cohort(SynthSpec(n_patients=10, vocab_size=40,
                                       n_states=4, noise_rate=0.0, seed=7))
    vocab = build_vocabulary(cohort)
    cfg = TrainConfig(seed=1, max_epochs=200, patience_epochs=200)
    model, _ = train(cohort, cfg)
    res = evaluate_model(model, cohort, vocab, ks=(30,))
    assert res[30].mean == 1.0


def test_run_comparison_single_config_and_failure_isolation():
    cohort = generate_cohort(SynthSpec(n_patients=12, vocab_size=25,
                                       n_states=3, seed=5))
    grid = [
        {"label": "mgru", "cell_kind": "mgru", "max_epochs": 2},
        {"label": "broken", "cell_kind": "no-such-cell", "max_epochs": 1},
        {"label": "random", "random_baseline": True},
    ]
    rows = run_comparison(cohort, grid, seeds=[0])
    assert not rows[0].failed and rows[0].recall
    assert rows[1].failed and "no-such-cell" in rows[1].error
    assert not rows[2].failed
    assert rows[2].iterations == 1.0

    direct_model, direct_report = train(
        cohort, TrainConfig(seed=0, cell_kind="mgru", max_epochs=2))
    for k, v in rows[0].recall.items():
        assert v == pytest.approx(direct_report.recall[k])

    csv = grid_to_csv(rows)
    assert csv.splitlines()[0].startswith("label,recall@")
    assert "broken" in csv


def test_run_comparison_raises_a_program_fault(monkeypatch):
    # only bad input and divergence make a failed row; a fault in the
    # program must not pass as one
    cohort = generate_cohort(SynthSpec(n_patients=12, vocab_size=25,
                                       n_states=3, seed=5))

    def faulty_train(*args, **kwargs):
        raise TypeError("a fault")

    monkeypatch.setattr(training, "train", faulty_train)
    with pytest.raises(TypeError, match="a fault"):
        run_comparison(cohort, [{"label": "m", "max_epochs": 1}], seeds=[0])


def test_random_row_scores_the_held_out_patients_of_train(monkeypatch):
    cohort = generate_cohort(SynthSpec(n_patients=20, vocab_size=25,
                                       n_states=3, seed=5))
    scored, held_out = [], []

    def recording_baseline(patients, *args, **kwargs):
        scored.append([p.patient_id for p in patients])
        return random_baseline(patients, *args, **kwargs)

    def recording_split(*args):
        sides = split(*args)
        held_out.append([p.patient_id for p in sides[1]])
        return sides

    monkeypatch.setattr(evaluation, "random_baseline", recording_baseline)
    monkeypatch.setattr(training, "split", recording_split)
    rows = run_comparison(cohort, [
        {"label": "random", "random_baseline": True, "split_fraction": 0.6},
        {"label": "m", "split_fraction": 0.6, "max_epochs": 1,
         "hidden_size": 4},
    ], seeds=[7])
    assert not any(r.failed for r in rows)
    # the last split is train()'s, under the trained row's config
    assert len(scored) == 1 and len(scored[0]) == 8
    assert scored[0] == held_out[-1]


@pytest.mark.parametrize("spec, message", [
    ({"split_fracton": 0.6}, "unknown TrainConfig field"),
    ({"split_fraction": "0.6"}, "split_fraction must be float"),
    ({"split_fraction": 1.0}, "split_fraction must be in"),
])
def test_random_row_rejects_a_bad_config(spec, message):
    cohort = generate_cohort(SynthSpec(n_patients=10, vocab_size=20,
                                       n_states=3, seed=2))
    row, = run_comparison(cohort, [{"random_baseline": True, **spec}],
                          seeds=[0])
    assert row.failed and message in row.error


def test_run_comparison_deterministic():
    cohort = generate_cohort(SynthSpec(n_patients=10, vocab_size=20,
                                       n_states=3, seed=2))
    grid = [{"label": "m", "cell_kind": "mgru", "max_epochs": 2}]
    r1 = run_comparison(cohort, grid, seeds=[0, 1])
    r2 = run_comparison(cohort, grid, seeds=[0, 1])
    assert r1[0].recall == r2[0].recall
    assert r1[0].iterations == r2[0].iterations


def test_random_baseline_row_near_chance():
    # noise makes every one of the 271 codes appear in the cohort
    cohort = generate_cohort(SynthSpec(n_patients=300, vocab_size=271,
                                       n_states=20, noise_rate=0.3, seed=4))
    _, test, _ = split(cohort, TrainConfig(seed=0))
    vocab = build_vocabulary(cohort)
    assert len(vocab) == 271
    res = random_baseline(test, vocab, SeededRng(1), ks=(10,))
    values = res[10].values
    se = np.std(values) / np.sqrt(len(values))
    assert abs(res[10].mean - 10 / 271) <= 3 * se + 2e-3
