import numpy as np
import numpy.testing as npt
import pytest

from dxtraj import network
from dxtraj.cells import CELL_KINDS
from dxtraj.ehr_data import Admission, BatchTensor, CodeVocabulary, PatientRecord
from dxtraj.gradcheck import full_network_gradcheck, random_batch
from dxtraj.numerics import SeededRng


def small_model(seed=0, n_codes=5, hidden=4, kind="mgru", **kw):
    rng = SeededRng(seed)
    model = network.init_model(kind, n_codes, hidden, rng=rng, **kw)
    for k, v in model.flat().items():
        v[...] = v + rng.normal(0.3, v.shape)
    return model


def test_softmax_rows_sum_to_one_at_unmasked_steps():
    rng = SeededRng(1)
    model = small_model()
    batch = random_batch(5, 3, 4, rng)
    trace = network.forward(batch, model)
    sums = trace["yhat"].sum(axis=-1)
    npt.assert_allclose(sums[batch.mask == 1], 1.0, atol=1e-9)


def test_identity_zero_joint_wiring():
    # Vfwd = I, Vbwd = 0, b_joint = 0 and non-negative fwd states make the
    # joint output equal the forward hidden state exactly
    model = small_model(seed=3)
    model.Vfwd[...] = np.eye(model.hidden)
    model.Vbwd[...] = 0.0
    model.b_joint[...] = 0.0
    batch = random_batch(5, 2, 3, SeededRng(5), ragged=False)
    trace = network.forward(batch, model)
    hf = np.abs(trace["hf"])  # force non-negative per the wiring premise
    j = network.lrelu(hf @ model.Vfwd + model.b_joint, float(model.alpha_j))
    npt.assert_array_equal(j, hf)


def test_single_step_degenerate_sequence():
    model = small_model()
    batch = random_batch(5, 1, 1, SeededRng(2), ragged=False)
    trace = network.forward(batch, model)
    assert trace["yhat"].shape == (1, 1, 5)
    npt.assert_allclose(trace["yhat"].sum(), 1.0, atol=1e-9)


def test_future_admission_influences_early_output():
    # backward flow: changing admission 2 changes the prediction at step 0
    model = small_model(seed=7)
    batch = random_batch(5, 1, 3, SeededRng(11), ragged=False)
    base = network.forward(batch, model)["yhat"][0, 0].copy()
    x2 = batch.x.copy()
    x2[2, 0] = 1.0 - x2[2, 0]
    altered = BatchTensor(x=x2, mask=batch.mask, targets=batch.targets,
                          patient_ids=batch.patient_ids)
    changed = network.forward(altered, model)["yhat"][0, 0]
    assert np.abs(changed - base).max() > 0


def test_zero_mask_gives_zero_gradients():
    model = small_model()
    batch = random_batch(5, 2, 3, SeededRng(0), ragged=False)
    empty = BatchTensor(x=np.zeros_like(batch.x),
                        mask=np.zeros_like(batch.mask),
                        targets=np.zeros_like(batch.targets),
                        patient_ids=batch.patient_ids)
    trace = network.forward(empty, model)
    grads = network.backward(trace, empty, model)
    assert all(not g.any() for g in grads.values())


def test_masking_invariance_padding_patient():
    from dxtraj.training import cross_entropy_loss

    model = small_model(seed=5)
    batch = random_batch(5, 2, 3, SeededRng(9), ragged=False)
    padded = BatchTensor(
        x=np.concatenate([batch.x, np.zeros((3, 1, 5))], axis=1),
        mask=np.concatenate([batch.mask, np.zeros((3, 1))], axis=1),
        targets=np.concatenate([batch.targets, np.zeros((3, 1, 5))], axis=1),
        patient_ids=batch.patient_ids + ["pad"])

    tr_a = network.forward(batch, model)
    tr_b = network.forward(padded, model)
    loss_a = cross_entropy_loss(batch.targets, tr_a["yhat"], batch.mask)
    loss_b = cross_entropy_loss(padded.targets, tr_b["yhat"], padded.mask)
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

    uni = model.copy()
    for p_dst, p_src in zip(uni.bwd, model.bwd):
        for k in p_dst:
            p_dst[k][...] = 0.0  # different bwd params must not matter
    trace_uni = network.forward(batch, uni)
    npt.assert_allclose(trace_uni["yhat"], trace["yhat"], atol=1e-12)


def test_patient_duplication_doubles_gradients():
    model = small_model(seed=17)
    batch = random_batch(5, 1, 3, SeededRng(21), ragged=False)
    double = BatchTensor(
        x=np.concatenate([batch.x, batch.x], axis=1),
        mask=np.concatenate([batch.mask, batch.mask], axis=1),
        targets=np.concatenate([batch.targets, batch.targets], axis=1),
        patient_ids=["a", "b"])
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
    err = full_network_gradcheck(kind, n_codes=5, hidden=4, n_patients=2,
                                 n_steps=3)
    assert err <= 1e-4, f"{kind}: {err}"


def test_full_gradient_check_stacked_and_embedded():
    assert full_network_gradcheck("mgru", layers=2) <= 1e-4
    assert full_network_gradcheck("mgru", embed_dim=3) <= 1e-4
    assert full_network_gradcheck("gru", embed_dim=3) <= 1e-4  # DoctorAI combo
    assert full_network_gradcheck("mgru", n_steps=1) <= 1e-4


# ---------------------------------------------------------------------------
# packed layout: only valid cells are computed

def _loss_grads_yhat(batch, model):
    from dxtraj.training import cross_entropy_loss

    trace = network.forward(batch, model)
    loss = cross_entropy_loss(batch.targets, trace["yhat"], batch.mask)
    return loss, network.backward(trace, batch, model), trace["yhat"]


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
    longer = BatchTensor(
        x=np.concatenate([batch.x, pad]),
        mask=np.concatenate([batch.mask, np.zeros((2, 4))]),
        targets=np.concatenate([batch.targets, pad]),
        patient_ids=batch.patient_ids)
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
    shuffled = BatchTensor(x=batch.x[:, perm], mask=batch.mask[:, perm],
                           targets=batch.targets[:, perm],
                           patient_ids=[batch.patient_ids[i] for i in perm])
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
    gap = random_batch(5, 2, 3, rng, ragged=False)
    gap.mask[1, 0] = 0.0
    gap.x[1, 0] = 1.0
    gap.targets[1, 0] = 0.0
    closed = BatchTensor(x=gap.x.copy(), mask=gap.mask.copy(),
                         targets=gap.targets.copy(),
                         patient_ids=gap.patient_ids)
    for arr in (closed.x, closed.mask, closed.targets):
        arr[1:, 0] = np.concatenate([arr[2:, 0], np.zeros_like(arr[:1, 0])])
    a = _loss_grads_yhat(gap, model)
    b = _loss_grads_yhat(closed, model)
    _assert_same(a, b)
    npt.assert_allclose(a[2][[0, 2], 0], b[2][[0, 1], 0], rtol=0, atol=1e-12)


def test_padded_cells_get_zero_yhat():
    model = small_model(seed=37)
    batch = _ragged_batch(41)
    yhat = network.forward(batch, model)["yhat"]
    assert not yhat[batch.mask == 0].any()


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_full_gradient_check_ragged_lengths(kind):
    # distinct lengths 0..T, so every step has a different set of patients
    err = full_network_gradcheck(kind, n_codes=5, hidden=4, n_patients=4,
                                 n_steps=3, layers=2, embed_dim=3,
                                 lengths=(2, 0, 3, 1))
    assert err <= 1e-4, f"{kind}: {err}"


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


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_predict_topk_equals_forward_last_step(kind, n):
    # sizes at which a one-row product can round differently from a
    # many-row one
    vocab = CodeVocabulary([str(i) for i in range(40)])
    model = small_model(seed=43, n_codes=40, hidden=32, kind=kind, layers=2,
                        embed_dim=24)
    batch = network.build_history_tensor(history(n), model, vocab)
    probs = network.forward(batch, model)["yhat"][-1, 0]
    expected = [(int(i), float(probs[i])) for i in network.rank_codes(probs)[:5]]
    assert network.predict_topk(model, history(n), vocab, k=5) == expected
