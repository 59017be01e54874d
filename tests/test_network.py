import copy
import os

import numpy as np
import numpy.testing as npt
import pytest

from dxtraj import network
from dxtraj.cells import CELL_KINDS
from dxtraj.ehr_data import (Admission, BatchTensor, CodeVocabulary,
                             ExtraFeatures, PatientRecord)
from dxtraj.gradcheck import full_network_gradcheck, random_batch
from dxtraj.numerics import SeededRng


def small_model(seed=0, n_codes=5, hidden=4, kind="mgru", **kw):
    rng = SeededRng(seed)
    model = network.init_model(kind, n_codes, hidden, rng=rng, **kw)
    for k, v in model.flat().items():
        v[...] = v + rng.normal(0.3, v.shape)
    return model


def top_rows(trace):
    """(hf, hb): the top-layer h rows of each flow, in forward row order,
    from the layer rows that forward() keeps."""
    (layout_f, rows_f, _), (layout_b, rows_b, _) = trace["flows"]
    assert layout_f.src is None
    hf = rows_f[-1]["h"][:-1]
    hb = np.empty_like(hf)
    hb[layout_b.src] = rows_b[-1]["h"][:-1]
    return hf, hb


def test_softmax_rows_sum_to_one_at_unmasked_steps():
    rng = SeededRng(1)
    model = small_model()
    batch = random_batch(5, 3, 4, rng)
    trace = network.forward(batch, model)
    assert len(trace["yhat_rows"]) == batch.mask.sum()
    npt.assert_allclose(trace["yhat_rows"].sum(axis=-1), 1.0, atol=1e-9)


def test_identity_zero_joint_wiring():
    # Vfwd = I, Vbwd = 0, b_joint = 0 and non-negative fwd states make the
    # joint output equal the forward hidden state exactly
    model = small_model(seed=3)
    model.Vfwd[...] = np.eye(model.hidden)
    model.Vbwd[...] = 0.0
    model.b_joint[...] = 0.0
    batch = random_batch(5, 2, 3, SeededRng(5), ragged=False)
    trace = network.forward(batch, model)
    hf = np.abs(top_rows(trace)[0])  # force non-negative per the premise
    j = network.lrelu(hf @ model.Vfwd + model.b_joint, float(model.alpha_j))
    npt.assert_array_equal(j, hf)


def test_single_step_degenerate_sequence():
    model = small_model()
    batch = random_batch(5, 1, 1, SeededRng(2), ragged=False)
    trace = network.forward(batch, model)
    assert trace["yhat_rows"].shape == (1, 5)
    npt.assert_allclose(trace["yhat_rows"].sum(), 1.0, atol=1e-9)


def test_future_admission_influences_early_output():
    # backward flow: changing admission 2 changes the prediction at step 0
    model = small_model(seed=7)
    batch = random_batch(5, 1, 3, SeededRng(11), ragged=False)
    base = network.forward(batch, model)["yhat_rows"][0].copy()
    x2 = batch.x
    x2[2, 0] = 1.0 - x2[2, 0]
    altered = BatchTensor.from_padded(x2, batch.mask, batch.targets,
                                      batch.patient_ids)
    changed = network.forward(altered, model)["yhat_rows"][0]
    assert np.abs(changed - base).max() > 0


def test_zero_mask_gives_zero_gradients():
    model = small_model()
    batch = random_batch(5, 2, 3, SeededRng(0), ragged=False)
    empty = BatchTensor.from_padded(np.zeros_like(batch.x),
                                    np.zeros_like(batch.mask),
                                    np.zeros_like(batch.targets),
                                    batch.patient_ids)
    trace = network.forward(empty, model)
    grads = network.backward(trace, empty, model)
    assert all(not g.any() for g in grads.values())


def test_masking_invariance_padding_patient():
    from dxtraj.training import cross_entropy_loss

    model = small_model(seed=5)
    batch = random_batch(5, 2, 3, SeededRng(9), ragged=False)
    padded = BatchTensor.from_padded(
        np.concatenate([batch.x, np.zeros((3, 1, 5))], axis=1),
        np.concatenate([batch.mask, np.zeros((3, 1))], axis=1),
        np.concatenate([batch.targets, np.zeros((3, 1, 5))], axis=1),
        batch.patient_ids + ["pad"])

    tr_a = network.forward(batch, model)
    tr_b = network.forward(padded, model)
    loss_a = cross_entropy_loss(batch.target_rows, tr_a["yhat_rows"])
    loss_b = cross_entropy_loss(padded.target_rows, tr_b["yhat_rows"])
    assert abs(loss_a - loss_b) <= 1e-12

    g_a = network.backward(tr_a, batch, model)
    g_b = network.backward(tr_b, padded, model)
    for k in g_a:
        assert np.abs(g_a[k] - g_b[k]).max() <= 1e-12


def test_reversal_consistency_vbwd_zero():
    # with the backward flow cut out of the joint layer the model equals a
    # unidirectional forward network
    model = small_model(seed=13)
    model.Vbwd[...] = 0.0
    batch = random_batch(5, 2, 3, SeededRng(3))
    trace = network.forward(batch, model)

    uni = small_model(seed=13)
    uni.Vbwd[...] = 0.0
    for p in uni.bwd:
        for k in p:
            p[k][...] = 0.0  # different bwd params must not matter
    trace_uni = network.forward(batch, uni)
    npt.assert_allclose(trace_uni["yhat_rows"], trace["yhat_rows"],
                        atol=1e-12)


def test_patient_duplication_doubles_gradients():
    model = small_model(seed=17)
    batch = random_batch(5, 1, 3, SeededRng(21), ragged=False)
    double = BatchTensor.from_padded(
        np.concatenate([batch.x, batch.x], axis=1),
        np.concatenate([batch.mask, batch.mask], axis=1),
        np.concatenate([batch.targets, batch.targets], axis=1),
        ["a", "b"])
    g1 = network.backward(network.forward(batch, model), batch, model)
    g2 = network.backward(network.forward(double, model), double, model)
    # loss is averaged over unmasked steps, so the mean loss is unchanged and
    # gradients are identical; the total (sum) gradient doubles
    for k in g1:
        npt.assert_allclose(g2[k], g1[k], atol=1e-12)
    n1 = batch.mask.sum()
    n2 = double.mask.sum()
    for k in g1:
        npt.assert_allclose(g2[k] * n2, 2.0 * (g1[k] * n1), atol=1e-10)


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_full_gradient_check_all_kinds(kind):
    errors = full_network_gradcheck(kind, n_codes=5, hidden=4, n_patients=2,
                                    n_steps=3)
    assert max(errors.values()) <= 1e-4, f"{kind}: {errors}"


def worst_error(**kw):
    return max(full_network_gradcheck(**kw).values())


def test_full_gradient_check_stacked_and_embedded():
    assert worst_error(cell_kind="mgru", layers=2) <= 1e-4
    assert worst_error(cell_kind="mgru", embed_dim=3) <= 1e-4
    assert worst_error(cell_kind="gru", embed_dim=3) <= 1e-4  # DoctorAI combo
    assert worst_error(cell_kind="mgru", n_steps=1) <= 1e-4


ALL_EXTRAS = ExtraFeatures(True, True, True)


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("extras, dropout_rate", [
    (ALL_EXTRAS, 0.0), (None, 0.3), (ALL_EXTRAS, 0.3)])
def test_full_gradient_check_extras_and_dropout(kind, extras, dropout_rate):
    errors = full_network_gradcheck(kind, n_codes=5, hidden=4, n_patients=2,
                                    n_steps=3, extras=extras,
                                    dropout_rate=dropout_rate)
    assert max(errors.values()) <= 1e-4, f"{kind}: {errors}"


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_full_gradient_check_everything_on(kind):
    # stacked, embedded and ragged, with extras and a fixed dropout mask
    errors = full_network_gradcheck(kind, n_codes=5, hidden=4, n_patients=4,
                                    n_steps=3, layers=2, embed_dim=3,
                                    lengths=(2, 0, 3, 1), extras=ALL_EXTRAS,
                                    dropout_rate=0.3)
    assert max(errors.values()) <= 1e-4, f"{kind}: {errors}"


def test_gradcheck_with_extras_and_dropout_names_a_corrupted_parameter():
    # negative control under a fixed dropout mask: only the perturbed
    # slope fails
    errors = full_network_gradcheck("mgru", extras=ALL_EXTRAS,
                                    dropout_rate=0.5, corrupt="alpha_j")
    assert [n for n, err in errors.items() if err > 1e-4] == ["alpha_j"]


@pytest.mark.parametrize("name", ["fwd1.Uf", "bwd0.Wh", "E", "alpha_o"])
def test_full_gradient_check_names_corrupted_parameter(name):
    # negative control: a perturbed analytic gradient fails, and only the
    # parameter it belongs to is reported
    errors = full_network_gradcheck("mgru", layers=2, embed_dim=3,
                                    corrupt=name)
    assert set(errors) == set(small_model(layers=2, embed_dim=3).flat())
    assert errors[name] > 1e-4
    assert [n for n, err in errors.items() if err > 1e-4] == [name]


# ---------------------------------------------------------------------------
# packed layout: only valid cells are computed

def _loss_grads_yhat(batch, model):
    """Loss, gradients, and yhat padded to the batch's (T, P) grid."""
    from dxtraj.training import cross_entropy_loss

    trace = network.forward(batch, model)
    loss = cross_entropy_loss(batch.target_rows, trace["yhat_rows"])
    return (loss, network.backward(trace, batch, model),
            batch.pad(trace["yhat_rows"]))


def _assert_same(a, b, tol=1e-12):
    assert abs(a[0] - b[0]) <= tol
    for k in a[1]:
        assert np.abs(a[1][k] - b[1][k]).max() <= tol, k


def _ragged_batch(seed):
    # patients of 3, 0, 2 and 1 steps, listed out of length order
    return random_batch(5, 4, 3, SeededRng(seed), lengths=(3, 0, 2, 1))


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_trailing_padding_steps_change_nothing(kind):
    model = small_model(seed=19, kind=kind, layers=2, embed_dim=3)
    batch = _ragged_batch(23)
    pad = np.zeros((2,) + batch.x.shape[1:])
    longer = BatchTensor.from_padded(
        np.concatenate([batch.x, pad]),
        np.concatenate([batch.mask, np.zeros((2, 4))]),
        np.concatenate([batch.targets, pad]),
        batch.patient_ids)
    a = _loss_grads_yhat(batch, model)
    b = _loss_grads_yhat(longer, model)
    _assert_same(a, b)
    valid = batch.mask == 1
    assert np.abs(a[2][valid] - b[2][:3][valid]).max() <= 1e-12


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_patient_order_within_batch_changes_nothing(kind):
    model = small_model(seed=29, kind=kind, layers=2, embed_dim=3)
    batch = _ragged_batch(31)
    perm = [2, 0, 3, 1]
    shuffled = BatchTensor.from_padded(
        batch.x[:, perm], batch.mask[:, perm], batch.targets[:, perm],
        [batch.patient_ids[i] for i in perm])
    a = _loss_grads_yhat(batch, model)
    b = _loss_grads_yhat(shuffled, model)
    _assert_same(a, b)
    valid = shuffled.mask == 1
    assert np.abs(a[2][:, perm][valid] - b[2][valid]).max() <= 1e-12


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_masked_middle_step_carries_state(kind):
    # a patient inactive at step 1 (with garbage input there) equals the
    # same patient with that step removed
    model = small_model(seed=47, kind=kind, layers=2, embed_dim=3)
    rng = SeededRng(53)
    full = random_batch(5, 2, 3, rng, ragged=False)
    x, mask, targets = full.x, full.mask.copy(), full.targets
    mask[1, 0] = 0.0
    x[1, 0] = 1.0
    targets[1, 0] = 0.0
    gap = BatchTensor.from_padded(x, mask, targets, full.patient_ids)
    x, mask, targets = x.copy(), mask.copy(), targets.copy()
    for arr in (x, mask, targets):
        arr[1:, 0] = np.concatenate([arr[2:, 0], np.zeros_like(arr[:1, 0])])
    closed = BatchTensor.from_padded(x, mask, targets, full.patient_ids)
    a = _loss_grads_yhat(gap, model)
    b = _loss_grads_yhat(closed, model)
    _assert_same(a, b)
    npt.assert_allclose(a[2][[0, 2], 0], b[2][[0, 1], 0], rtol=0, atol=1e-12)


def test_padded_cells_get_zero_yhat():
    model = small_model(seed=37)
    batch = _ragged_batch(41)
    yhat = batch.pad(network.forward(batch, model)["yhat_rows"])
    assert not yhat[batch.mask == 0].any()


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_full_gradient_check_ragged_lengths(kind):
    # distinct lengths 0..T, so every step has a different set of patients
    errors = full_network_gradcheck(kind, n_codes=5, hidden=4, n_patients=4,
                                    n_steps=3, layers=2, embed_dim=3,
                                    lengths=(2, 0, 3, 1))
    assert max(errors.values()) <= 1e-4, f"{kind}: {errors}"


def _pack_by_walk(valid):
    """_pack's layout by walking the patients of each step in turn: each
    active cell takes the next row and reads the last row its patient took
    (n_valid before the first)."""
    n_valid = int(valid.sum())
    latest = [n_valid] * valid.shape[1]
    steps, row = [], 0
    for t in range(valid.shape[0]):
        lo, prev = row, []
        for p in np.flatnonzero(valid[t]):
            prev.append(latest[p])
            latest[p] = row
            row += 1
        if prev:
            steps.append((lo, row, prev))
    return steps


PACK_MASKS = {
    "holes": [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "empty-first-and-last-steps": [[0, 0, 0], [1, 0, 1], [1, 0, 0],
                                   [0, 0, 0]],
    "all-padding-patient": [[1, 0, 1], [1, 0, 0], [0, 0, 1]],
    "late-starts": [[0, 1, 0], [0, 1, 1], [1, 1, 1]],
    "one-cell": [[0, 0], [0, 1]],
    "empty": [[0, 0], [0, 0]],
    **{f"random-{seed}": (SeededRng(seed).uniform((7, 9)) < 0.5).tolist()
       for seed in range(4)},
}


@pytest.mark.parametrize("mask", PACK_MASKS.values(), ids=PACK_MASKS.keys())
@pytest.mark.parametrize("reverse", [False, True])
def test_pack_equals_a_per_patient_walk(mask, reverse):
    valid = np.array(mask, dtype=bool)
    if reverse:  # as the backward flow packs it
        valid = valid[::-1]
    got, want = network._pack(valid), _pack_by_walk(valid)
    assert [s[:2] for s in got] == [s[:2] for s in want]
    if got:
        assert got[0][2] is None
        assert want[0][2] == [int(valid.sum())] * (want[0][1] - want[0][0])
    for (_, _, prev), (_, _, expected) in zip(got[1:], want[1:]):
        assert prev.dtype == np.intp and prev.tolist() == expected
    # the backward flow's row i stands for the forward row of its cell
    fwd, bwd = network._layouts(valid)
    n_steps = len(valid)
    cells_f = [(t, p) for t in range(n_steps) for p in np.flatnonzero(valid[t])]
    cells_b = [(n_steps - 1 - t, p) for t in range(n_steps)
               for p in np.flatnonzero(valid[::-1][t])]
    assert fwd.src is None and bwd.src.dtype == np.intp
    assert bwd.src.tolist() == [cells_f.index(c) for c in cells_b]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_history_layouts_are_the_one_patient_layouts(n):
    # predict_topk's hand-built layouts are those of _layouts, with the
    # backward flow's cut to its first step
    def rows(steps):  # a prev slice or index array as the rows it names
        return [(lo, hi, None if prev is None
                 else np.arange(n + 1)[prev].tolist())
                for lo, hi, prev in steps]

    got = network._history_layouts(n)
    want = network._layouts(np.ones((n, 1), dtype=bool))
    assert rows(got[0].steps) == rows(want[0].steps)
    assert rows(got[1].steps) == rows(want[1].steps[:1])
    assert got[0].src is None and want[0].src is None
    assert got[1].src.tolist() == want[1].src.tolist()


# ---------------------------------------------------------------------------
# the two flows on two threads, and the parameter arena

@pytest.mark.parametrize("kind", CELL_KINDS)
def test_concurrent_flows_equal_serial_scans_and_repeat(kind):
    model = small_model(seed=61, kind=kind, layers=2, embed_dim=3)
    batch = _ragged_batch(67)
    trace = network.forward(batch, model)
    inp = network._embed(model, batch)[0]
    for side, (layout, rows, _), params in zip("fb", trace["flows"],
                                               (model.fwd, model.bwd)):
        # every state array of each layer
        layers = network._scan_direction(inp, layout, params, kind,
                                         model.hidden)[0]
        assert len(rows) == len(layers) == 2
        for got, want in zip(rows, layers):
            assert got.keys() == want.keys()
            for k in want:
                npt.assert_array_equal(got[k], want[k], err_msg=side + k)
    first = network.backward(trace, batch, model)
    for _ in range(20):
        again = network.backward(network.forward(batch, model), batch, model)
        for k, g in first.items():
            npt.assert_array_equal(again[k], g, err_msg=k)


def test_concurrent_callers_share_the_worker(monkeypatch):
    # more calling threads than cores, switching often: each caller's
    # gradients still equal a lone call's bit for bit
    import sys
    import threading

    model = small_model(seed=71, layers=2, embed_dim=3)
    batch = _ragged_batch(73)
    expected = network.backward(network.forward(batch, model), batch, model)
    results = []

    def caller():
        for _ in range(5):
            results.append(network.backward(network.forward(batch, model),
                                            batch, model))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 20
    for grads in results:
        for k, g in expected.items():
            npt.assert_array_equal(grads[k], g, err_msg=k)


def test_run_pair_waits_for_both_and_raises():
    import threading
    import time

    done = threading.Event()

    def slow():
        time.sleep(0.05)
        done.set()

    def fail():
        raise KeyError("here")

    with pytest.raises(KeyError):
        network.run_pair(fail, slow)
    assert done.is_set()
    with pytest.raises(ZeroDivisionError):
        network.run_pair(lambda: 1, lambda: 1 / 0)
    assert network.run_pair(lambda: 1, lambda: 2) == (1, 2)


def test_run_pair_called_on_the_worker_runs_inline():
    # a run_pair reached from the worker would otherwise queue behind itself
    import threading

    order, result = [], []

    def there():
        return network.run_pair(lambda: order.append("here") or 1,
                                lambda: order.append("there") or 2)

    caller = threading.Thread(
        target=lambda: result.append(network.run_pair(lambda: 0, there)))
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert result == [(0, (1, 2))]
    assert order == ["here", "there"]


def _pair_in_child():
    os._exit(0 if network.run_pair(lambda: 1, lambda: 2) == (1, 2) else 1)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_forked_child_starts_its_own_worker():
    import multiprocessing

    network.run_pair(lambda: None, lambda: None)  # the parent's worker runs
    child = multiprocessing.get_context("fork").Process(target=_pair_in_child)
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_backward_writes_every_element_of_the_given_vector():
    # backward() never reads grad: from a vector of nan it gives the bits of
    # a fresh call, and the reference that adds into zeros; a parameter that
    # no row reaches is written zeros: the U<g> of a batch in which no step
    # reads a state, and every array of a batch without rows
    for kind in CELL_KINDS:
        model = small_model(seed=79, kind=kind, layers=2, embed_dim=3,
                            extras=ALL_EXTRAS)
        batch = random_batch(5, 4, 3, SeededRng(83), extras=ALL_EXTRAS,
                             lengths=(3, 0, 2, 1))
        trace = network.forward(batch, model)
        fresh = network.backward(trace, batch, model)
        grad = np.full_like(model.theta, np.nan)
        grads = network.backward(trace, batch, model, grad)
        assert list(grads) == list(model.flat())
        for k, g in grads.items():
            assert np.shares_memory(g, grad)
            assert g.tobytes() == fresh[k].tobytes(), (kind, k)
        npt.assert_array_equal(grad, serial_backward(trace, batch, model),
                               err_msg=kind)

        one_step = random_batch(5, 4, 1, SeededRng(89), extras=ALL_EXTRAS)
        empty = random_batch(5, 2, 2, SeededRng(97), extras=ALL_EXTRAS,
                             lengths=(0, 0))
        for batch in (one_step, empty):
            trace = network.forward(batch, model)
            grad = np.full_like(model.theta, np.nan)
            grads = network.backward(trace, batch, model, grad)
            if batch is one_step:
                npt.assert_array_equal(
                    grad, serial_backward(trace, batch, model), err_msg=kind)
            for k, g in grads.items():
                if batch is empty or k.split(".")[-1].startswith("U"):
                    assert not g.any(), (kind, k)


def test_flat_views_are_the_model():
    model = small_model(seed=89, layers=2, embed_dim=3)
    batch = _ragged_batch(97)
    before = network.forward(batch, model)["yhat_rows"]
    flat = model.flat()
    assert sum(v.size for v in flat.values()) == model.theta.size
    names = sorted(flat)
    starts = [model.layout[n][0] for n in names]
    assert starts == sorted(starts)  # theta is in sorted-name order
    for v in flat.values():
        assert np.shares_memory(v, model.theta)
    assert np.shares_memory(model.fwd[1]["Uh"], model.theta)
    flat["Vbwd"][...] += 0.5
    npt.assert_array_equal(model.Vbwd, flat["Vbwd"])
    assert np.abs(network.forward(batch, model)["yhat_rows"] - before).max() > 0


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("layers, embed_dim, extras", [
    (1, None, ExtraFeatures()), (2, 3, ExtraFeatures(True, True, True)),
    (3, None, ExtraFeatures(duration=True)),
])
def test_param_count_is_the_size_of_theta(kind, layers, embed_dim, extras):
    structure = dict(layers=layers, extras=extras, embed_dim=embed_dim)
    assert network.param_count(kind, 7, 5, **structure) == \
        network.init_model(kind, 7, 5, **structure).theta.size


# ---------------------------------------------------------------------------
# prediction

def history(n):
    return PatientRecord("h", [
        Admission(100 * i, {str(i % 3)}, duration=1.0) for i in range(n)])


def test_predict_topk_full_permutation():
    vocab = CodeVocabulary(["0", "1", "2"])
    model = small_model(n_codes=3, hidden=3)
    model.vocab_labels = vocab.labels
    ranked = network.predict_topk(model, history(2), vocab, k=3)
    assert sorted(i for i, _ in ranked) == [0, 1, 2]


def test_predict_topk_uniform_tie_break():
    vocab = CodeVocabulary(["0", "1", "2", "3"])
    model = network.init_model("mgru", 4, 3, rng=SeededRng(0))
    model.Wout[...] = 0.0
    model.b_out[...] = 0.0
    ranked = network.predict_topk(model, history(2), vocab, k=2)
    assert [i for i, _ in ranked] == [0, 1]
    assert ranked[0][1] == pytest.approx(0.25)


def test_rank_codes_sort_and_monotone_invariance():
    y = np.array([0.1, 0.4, 0.2, 0.3])
    assert list(network.rank_codes(y)[:2]) == [1, 3]
    npt.assert_array_equal(network.rank_codes(y), network.rank_codes(y ** 3))
    npt.assert_array_equal(network.rank_codes(y),
                           network.rank_codes(np.log(y)))


def test_predict_topk_k_out_of_range():
    vocab = CodeVocabulary(["0", "1", "2"])
    model = small_model(n_codes=3, hidden=3)
    with pytest.raises(ValueError):
        network.predict_topk(model, history(2), vocab, k=4)
    with pytest.raises(ValueError):
        network.predict_topk(model, history(2), vocab, k=0)


def test_forward_feature_width_mismatch():
    model = small_model()
    batch = random_batch(7, 2, 2, SeededRng(0))
    with pytest.raises(ValueError, match="feature width"):
        network.forward(batch, model)


def old_history_rows(patient, model, vocab):
    """The history encoder as it was, one multi_hot per admission: the
    reference for build_history_tensor."""
    from dxtraj.ehr_data import ADMISSION_TYPES

    d, ex = len(vocab), model.extras
    x = np.zeros((len(patient.admissions), d + ex.width))
    for i, adm in enumerate(patient.admissions):
        for c in adm.codes:
            x[i, vocab.index[c]] = 1.0
        col = d
        if ex.adm_type:
            if adm.adm_type in ADMISSION_TYPES:
                x[i, col + ADMISSION_TYPES.index(adm.adm_type)] = 1.0
            col += 4
        if ex.duration:
            if adm.duration is not None and model.duration_max > 0:
                x[i, col] = adm.duration / model.duration_max
            col += 1
        if ex.interval:
            ivl = 0.0 if i == 0 else float(
                adm.timestamp - patient.admissions[i - 1].timestamp)
            if model.interval_max > 0:
                x[i, col] = ivl / model.interval_max
            col += 1
    return x


@pytest.mark.parametrize("constants", [(0.0, 0.0), (7.5, 250.0)])
@pytest.mark.parametrize("extras", [ExtraFeatures(),
                                    ExtraFeatures(True, True, True)])
def test_history_rows_equal_the_encoder_rows(extras, constants):
    from dxtraj.ehr_data import build_batch

    vocab = CodeVocabulary(["0", "1", "2"])
    patient = PatientRecord("h", [
        Admission(100, {"0", "2"}, "urgent", 4.0),
        Admission(130, {"1"}, None, None),
        Admission(400, {"2"}, "newborn", 11.0)])
    model = small_model(n_codes=3, hidden=3, extras=extras)
    model.duration_max, model.interval_max = constants
    history = network.build_history_tensor(patient, model, vocab)
    npt.assert_array_equal(history.input_rows(),
                           old_history_rows(patient, model, vocab))
    npt.assert_array_equal(history.mask, np.ones((3, 1)))
    # the steps with a target are encoded as evaluation encodes them
    batch = build_batch([patient], vocab, extras, *constants)
    npt.assert_array_equal(history.code_rows[:-1], batch.code_rows)
    npt.assert_array_equal(history.extra_rows[:-1], batch.extra_rows)
    npt.assert_array_equal(history.target_rows[:-1], batch.target_rows)
    assert not history.target_rows[-1].any()


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 4, 63, 64, 631])
def test_predict_topk_equals_forward_last_step(kind, n):
    # sizes at which a one-row product can round differently from a
    # many-row one, and the head's rows inline (63) or by halves (64, 631)
    vocab = CodeVocabulary([str(i) for i in range(40)])
    model = small_model(seed=43, n_codes=40, hidden=32, kind=kind, layers=2,
                        embed_dim=24)
    batch = network.build_history_tensor(history(n), model, vocab)
    probs = network.forward(batch, model)["yhat_rows"][-1]
    expected = [(int(i), float(probs[i])) for i in network.rank_codes(probs)[:5]]
    assert network.predict_topk(model, history(n), vocab, k=5) == expected


def poisoned(model, stacks):
    """A deep copy of model with every recurrent matrix U* of the given
    stacks ("fwd", "bwd") set to nan: a result that reads one is nan."""
    model = copy.deepcopy(model)
    for stack in stacks:
        for params in getattr(model, stack):
            for k in params:
                if k.startswith("U"):
                    params[k][...] = np.nan
    return model


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_predict_topk_reads_no_recurrent_matrix_of_a_zero_state(kind):
    # the backward flow serves from its first step, which starts from the
    # zero state, and so does the forward flow for a one-admission history
    vocab = CodeVocabulary([str(i) for i in range(40)])
    model = small_model(seed=47, n_codes=40, hidden=32, kind=kind, layers=2,
                        embed_dim=24)
    expected = {n: network.predict_topk(model, history(n), vocab, k=5)
                for n in (1, 2, 4)}
    no_bwd_u = poisoned(model, ["bwd"])
    for n in (1, 2, 4):
        assert network.predict_topk(no_bwd_u, history(n), vocab, k=5) \
            == expected[n]
    no_u = poisoned(model, ["fwd", "bwd"])
    assert network.predict_topk(no_u, history(1), vocab, k=5) == expected[1]
    if kind != "feedforward":  # the poison shows once a state is carried
        probs = [p for _, p in network.predict_topk(no_u, history(2), vocab,
                                                    k=5)]
        assert np.isnan(probs).all()


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_one_step_batch_reads_no_recurrent_matrix(kind):
    # every patient has 2 admissions, so each flow runs one step, from the
    # zero state: a nan in every U* reaches neither loss nor gradient
    model = small_model(seed=53, n_codes=6, hidden=5, kind=kind, layers=2,
                        embed_dim=3)
    batch = random_batch(6, 4, 1, SeededRng(59))
    trace = network.forward(batch, model)
    grads = network.backward(trace, batch, model)
    no_u = poisoned(model, ["fwd", "bwd"])
    trace_p = network.forward(batch, no_u)
    grads_p = network.backward(trace_p, batch, no_u)
    assert trace["yhat_rows"].tobytes() == trace_p["yhat_rows"].tobytes()
    for name, g in grads_p.items():
        assert np.isfinite(g).all(), name
        npt.assert_array_equal(g, grads[name], err_msg=name)
        if name.split(".")[-1].startswith("U"):
            assert not g.any(), name


# ---------------------------------------------------------------------------
# the head on two threads

def serial_head(hf, hb, model, dropout):
    """The joint and output layers on one thread, as one formula per layer:
    the reference for the head split between two threads."""
    j_pre = hf @ model.Vfwd + hb @ model.Vbwd + model.b_joint
    hj = np.where(j_pre >= 0, j_pre, float(model.alpha_j) * j_pre)
    if dropout is not None:
        hj = hj * dropout
    out_pre = hj @ model.Wout + model.b_out
    act = np.where(out_pre >= 0, out_pre, float(model.alpha_o) * out_pre)
    e = np.exp(act - np.max(act, axis=-1, keepdims=True))
    return j_pre, hj, out_pre, e / np.sum(e, axis=-1, keepdims=True)


def serial_backward(trace, batch, model, inp=None):
    """The gradient vector with the head's backward on one thread and the
    flows' backpropagation called one after the other, from inp, the
    layer-0 input rows in forward order (those of network._embed when
    None)."""
    grad = np.zeros_like(model.theta)
    grads = model.views(grad)
    n_valid = batch.mask.sum()
    yhat = trace["yhat_rows"]
    targets = batch.target_rows
    yc = np.clip(yhat, network.LOSS_EPS, 1.0 - network.LOSS_EPS)
    inside = (yhat > network.LOSS_EPS) & (yhat < 1.0 - network.LOSS_EPS)
    d_yhat = -(targets / yc - (1.0 - targets) / (1.0 - yc)) / n_valid
    d_yhat = np.where(inside, d_yhat, 0.0)
    dot = np.sum(d_yhat * yhat, axis=-1, keepdims=True)
    d_out_act = yhat * (d_yhat - dot)
    out_pre = trace["out_pre"]
    d_out_pre = d_out_act * np.where(out_pre >= 0, 1.0, float(model.alpha_o))
    grads["alpha_o"] += np.sum(d_out_act * np.where(out_pre < 0, out_pre, 0.0))
    j_pre = trace["j_pre"]
    hj = np.where(j_pre >= 0, j_pre, float(model.alpha_j) * j_pre)
    if trace["dropout"] is not None:
        hj = hj * trace["dropout"]
    grads["Wout"] += hj.T @ d_out_pre
    grads["b_out"] += d_out_pre.sum(axis=0)
    d_hj = d_out_pre @ model.Wout.T
    if trace["dropout"] is not None:
        d_hj = d_hj * trace["dropout"]
    d_j_pre = d_hj * np.where(j_pre >= 0, 1.0, float(model.alpha_j))
    grads["alpha_j"] += np.sum(d_hj * np.where(j_pre < 0, j_pre, 0.0))
    hf, hb = top_rows(trace)
    grads["Vfwd"] += hf.T @ d_j_pre
    grads["Vbwd"] += hb.T @ d_j_pre
    grads["b_joint"] += d_j_pre.sum(axis=0)
    d_hf = d_j_pre @ model.Vfwd.T
    d_hb = d_j_pre @ model.Vbwd.T
    if inp is None:
        inp = network._embed(model, batch, trace["code_noise"])[0]
    rev = trace["flows"][1][0].src
    embedded = model.E is not None
    d_inp = {}
    for d_top, side, params, (layout, rows, traces) in (
            (d_hf, "f", model.fwd, trace["flows"][0]),
            (d_hb[rev], "b", model.bwd, trace["flows"][1])):
        d_inp[side] = network._bptt_direction(
            lambda: d_top, layout, rows, traces, params, model.cell_kind,
            grads, "fwd" if side == "f" else "bwd", embedded, lambda: inp)
    if embedded:
        d_inp["f"][rev] += d_inp["b"]
        codes_t = trace["codes"].T.astype(np.float64, copy=False)
        grads["E"] += codes_t @ d_inp["f"][:, :model.embed_dim]
    return grad


def rows_batch(n, n_codes, rng):
    """A ragged batch with exactly n valid rows: patients of 3 steps, one
    shorter patient for the remainder, and one all-padding patient."""
    lengths = [3] * (n // 3) + ([n % 3] if n % 3 else []) + [0]
    return random_batch(n_codes, len(lengths), 3, rng, lengths=lengths)


@pytest.mark.parametrize("kind", ["mgru", "lstm_google"])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("n", [1, 63, 64, 631])
def test_head_on_two_threads_equals_serial_head(kind, dropout, n):
    # 63 rows run inline, 64 and more by halves on the two threads
    model = small_model(seed=101, n_codes=271, hidden=271, kind=kind)
    rng = SeededRng(n)
    batch = rows_batch(n, 271, rng)
    mask = None
    if dropout:
        mask = (rng.uniform(batch.x.shape[:2] + (271,)) < 0.7) / 0.7
    trace = network.forward(batch, model, dropout_mask=mask)
    assert len(trace["yhat_rows"]) == n
    expected = serial_head(*top_rows(trace), model,
                           None if mask is None else mask[trace["valid"]])
    # the trace keeps no hj: out_pre and the Wout gradient check it
    for name, want in zip(("j_pre", "out_pre", "yhat_rows"),
                          expected[:1] + expected[2:]):
        npt.assert_array_equal(trace[name], want, err_msg=name)
    grad = np.zeros_like(model.theta)
    network.backward(trace, batch, model, grad)
    npt.assert_array_equal(grad, serial_backward(trace, batch, model))


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("embed_dim", [None, 3])
def test_backward_from_rebuilt_layer0_rows_equals_kept_rows(kind, embed_dim):
    # backward() builds the layer-0 rows again from the batch and the
    # trace's code_noise; a reference given the rows that forward() read
    # gets the same gradient vector, bit for bit
    model = small_model(seed=131, kind=kind, layers=2, embed_dim=embed_dim,
                        extras=ALL_EXTRAS)
    batch = random_batch(5, 4, 3, SeededRng(137), extras=ALL_EXTRAS,
                         lengths=(3, 0, 2, 1))
    rng = SeededRng(139)
    noise = rng.normal(0.1, (int(batch.mask.sum()), 5))
    dropout = (rng.uniform((3, 4, 4)) < 0.7) / 0.7
    codes = batch.code_rows + noise
    if embed_dim:
        codes = codes @ model.E
    inp = np.concatenate([codes, batch.extra_rows], axis=1)
    trace = network.forward(batch, model, dropout_mask=dropout,
                            code_noise=noise)
    layout_f, rows_f = trace["flows"][0][:2]
    want_f = network._scan_direction(inp, layout_f, model.fwd, kind,
                                     model.hidden)[0]
    for got, want in zip(rows_f, want_f):  # the rows forward() read
        npt.assert_array_equal(got["h"], want["h"])
    grad = np.zeros_like(model.theta)
    network.backward(trace, batch, model, grad)
    npt.assert_array_equal(grad, serial_backward(trace, batch, model, inp))


@pytest.mark.parametrize("layers", [1, 2])
def test_lstm_google_with_identity_projection_is_lstm(layers):
    # lstm_google is lstm plus the recurrent projection h = m @ Wproj: with
    # Wproj = I and the same W, U and b, both kinds give the same states,
    # predictions and gradients, bit for bit
    google = small_model(seed=31, kind="lstm_google", layers=layers,
                         embed_dim=3)
    lstm = network.init_model("lstm", 5, 4, layers=layers, embed_dim=3)
    shared = lstm.flat()
    for name, v in google.flat().items():
        if name.endswith(".Wproj"):
            v[...] = np.eye(4)
        else:
            shared[name][...] = v
    assert len(google.flat()) - len(shared) == 2 * layers
    batch = random_batch(5, 4, 3, SeededRng(37))
    tr_g, tr_l = network.forward(batch, google), network.forward(batch, lstm)
    assert tr_g["yhat_rows"].tobytes() == tr_l["yhat_rows"].tobytes()
    for side, flow_g, flow_l in zip("fb", tr_g["flows"], tr_l["flows"]):
        # every layer's h and c rows
        assert len(flow_g[1]) == len(flow_l[1]) == layers
        for a, b in zip(flow_g[1], flow_l[1]):
            assert a.keys() == b.keys() == {"h", "c"}
            for k in a:
                assert a[k].tobytes() == b[k].tobytes(), side + k
    g_g = network.backward(tr_g, batch, google)
    for name, g in network.backward(tr_l, batch, lstm).items():
        assert g.tobytes() == g_g[name].tobytes(), name


# ---------------------------------------------------------------------------
# what backward() holds and writes

@pytest.mark.parametrize("kind", CELL_KINDS)
def test_step_traces_hold_no_copy_of_the_previous_state(kind, monkeypatch):
    # a flow's states are kept once, in its layers' rows: a step's trace
    # holds no array equal, bit for bit, to the previous state it was given
    # (the rows gathered by the layout), and each backward step gets the
    # state its step took, gathered from those rows again
    from dxtraj import cells

    took = {}  # id of a step's trace -> (the trace, the state it took)
    given = []  # (trace, state) of each backward step
    step, step_backward = cells.step, cells.step_backward

    def recording_step(kind, xw, state, params):
        new, trace = step(kind, xw, state, params)
        took[id(trace)] = trace, state
        return new, trace

    def recording_backward(kind, trace, state, d_state, params):
        given.append((trace, state))
        return step_backward(kind, trace, state, d_state, params)

    monkeypatch.setattr(cells, "step", recording_step)
    monkeypatch.setattr(cells, "step_backward", recording_backward)
    model = small_model(seed=151, kind=kind, layers=2)
    batch = random_batch(5, 4, 4, SeededRng(157), lengths=(4, 0, 3, 2))
    trace = network.forward(batch, model)
    # 4 steps per layer in each flow, of 2 layers; the first has no state,
    # nor has any step of feedforward, which reads none: neither the scan
    # nor (below) BPTT gathers one for it
    later = [(tr, state) for tr, state in took.values() if state is not None]
    assert len(took) == 2 * 2 * 4
    assert len(later) == (2 * 2 * 3 if kind != "feedforward" else 0)
    for tr, state in later:
        for k, v in state.items():
            for name, a in tr.items():
                assert a.tobytes() != v.tobytes(), (k, name)
    assert not {"lower_f", "lower_b", "hf", "hb"} & set(trace)

    network.backward(trace, batch, model)
    assert len(given) == len(took)
    for tr, state in given:
        _, want = took[id(tr)]
        assert (state is None) == (want is None)
        for k, v in (want or {}).items():
            assert state[k].tobytes() == v.tobytes(), k


@pytest.mark.parametrize("kind", ["mgru", "gru"])
def test_backward_leaves_the_trace_unchanged(kind):
    model = small_model(seed=79, kind=kind, layers=2, embed_dim=3)
    batch = _ragged_batch(83)
    trace = network.forward(batch, model,
                            dropout_mask=np.full((3, 4, 4), 1.25))
    arrays = []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (list, tuple)):
            for v in value:
                collect(v)
        elif isinstance(value, dict):
            for v in value.values():
                collect(v)

    collect(trace)
    before = [a.copy() for a in arrays]
    first = network.backward(trace, batch, model)
    for a, b in zip(arrays, before):
        npt.assert_array_equal(a, b)
    again = network.backward(trace, batch, model)
    for k, g in first.items():
        npt.assert_array_equal(again[k], g, err_msg=k)


def test_backward_frees_the_head_buffers_before_bptt(monkeypatch):
    # d_out_pre and the alpha_o summands are (rows, |D|) each; with |D|
    # much wider than hidden, neither may still be held when BPTT starts
    import tracemalloc

    n_codes = 400
    model = small_model(seed=89, n_codes=n_codes, hidden=4)
    batch = random_batch(n_codes, 20, 3, SeededRng(97), ragged=False)
    trace = network.forward(batch, model)
    grad = np.zeros_like(model.theta)
    head_buffer = 60 * n_codes * 8
    held = []
    original = network._bptt_direction

    def recording(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return original(*args, **kwargs)

    monkeypatch.setattr(network, "_bptt_direction", recording)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        # on the worker, where run_pair runs inline: on two threads one flow
        # may reach the end of its BPTT, where it builds its (rows, |D|)
        # layer-0 rows, before the other flow starts
        network.run_pair(lambda: None,
                         lambda: network.backward(trace, batch, model, grad))
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    assert max(held) < head_buffer, held


def _memory_around_bptt(monkeypatch, model, batch, code_noise=None):
    """(the trace, the bytes it holds, the most bytes held beyond it at the
    start of a BPTT step), from tracemalloc started before forward().
    backward() runs on the worker, where run_pair runs inline, so that the
    two flows' BPTT run one after the other and the peak is repeatable."""
    import tracemalloc

    from dxtraj import cells

    grad = np.zeros_like(model.theta)
    held = []
    original = cells.step_backward

    def recording(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return original(*args, **kwargs)

    monkeypatch.setattr(cells, "step_backward", recording)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = network.forward(batch, model, code_noise=code_noise)
        trace_bytes = tracemalloc.get_traced_memory()[0] - start
        network.run_pair(lambda: None,
                         lambda: network.backward(trace, batch, model, grad))
    finally:
        tracemalloc.stop()
    return trace, trace_bytes, max(held) - trace_bytes


def test_neither_trace_nor_bptt_holds_the_layer0_rows(monkeypatch):
    # the float64 layer-0 rows are (rows, |D|): with |D| much wider than
    # hidden they, out_pre and yhat_rows dominate. The trace keeps the
    # last two and the caller's code_noise, and backward() builds the rows
    # again after the step loops, so they are held nowhere in between
    n_codes = 400
    model = small_model(seed=103, n_codes=n_codes, hidden=4)
    batch = random_batch(n_codes, 20, 3, SeededRng(107), ragged=False)
    noise = SeededRng(109).normal(0.1, (60, n_codes))
    wide = 60 * n_codes * 8
    trace, trace_bytes, beyond = _memory_around_bptt(monkeypatch, model,
                                                     batch, noise)
    assert "hj" not in trace
    assert trace["code_noise"] is noise
    assert 2 * wide <= trace_bytes < 2.5 * wide, trace_bytes
    assert beyond < 0.5 * wide, beyond


def test_bptt_holds_each_top_gradient_once(monkeypatch):
    # with hidden much wider than |D|, the (rows, hidden) arrays dominate.
    # In the first flow's step loop BPTT holds four of them: the other
    # flow's top gradient, d_rows, and d_pre of mgru's two gates. A second
    # copy of the top gradient, or d_j_pre, would be a fifth
    hidden, n_rows = 64, 1200
    model = small_model(seed=113, n_codes=5, hidden=hidden)
    batch = random_batch(5, 20, 60, SeededRng(127), ragged=False)
    one = n_rows * hidden * 8
    trace, _, beyond = _memory_around_bptt(monkeypatch, model, batch)
    assert "hj" not in trace
    assert 3.9 * one < beyond < 4.5 * one, beyond / one
