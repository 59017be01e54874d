import numpy as np
import numpy.testing as npt
import pytest

from dxtraj import network, training
from dxtraj.ehr_data import BatchTensor, ExtraFeatures
from dxtraj.gradcheck import random_batch
from dxtraj.network import LOSS_EPS
from dxtraj.numerics import SeededRng
from dxtraj.synth import SynthSpec, generate_cohort
from dxtraj.training import (
    AdadeltaState,
    TrainConfig,
    TrainingDivergedError,
    adadelta_update,
    clip_gradients,
    cross_entropy_loss,
    l2_penalty,
    split_patients,
    train,
)


def planted_cohort(n=10, vocab=40, seed=7):
    return generate_cohort(SynthSpec(
        n_patients=n, vocab_size=vocab, n_states=4, noise_rate=0.0, seed=seed))


# ---------------------------------------------------------------------------
# loss

def test_cross_entropy_uniform_example():
    y = np.array([[[1.0, 0, 0, 0]]])
    yhat = np.full((1, 1, 4), 0.25)
    mask = np.ones((1, 1))
    assert cross_entropy_loss(y, yhat, mask) == pytest.approx(2.24934, abs=1e-4)


def test_cross_entropy_perfect_prediction_near_zero():
    y = np.array([[[1.0, 0.0, 1.0]]])
    yhat = np.where(y == 1.0, 1.0 - 1e-9, 1e-9)
    loss = cross_entropy_loss(y, yhat, np.ones((1, 1)))
    assert 0.0 <= loss < 1e-6


def test_cross_entropy_zero_mask():
    assert cross_entropy_loss(np.ones((2, 1, 3)), np.full((2, 1, 3), 0.5),
                              np.zeros((2, 1))) == 0.0


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.ones((1, 1, 3)), np.ones((1, 1, 4)),
                           np.ones((1, 1)))


def test_cross_entropy_masked_steps_contribute_nothing():
    rng = SeededRng(0)
    y = (rng.uniform((3, 2, 4)) < 0.5) * 1.0
    yhat = rng.uniform((3, 2, 4)) * 0.98 + 0.01
    mask = np.ones((3, 2))
    mask[2, 1] = 0.0
    garbled = yhat.copy()
    garbled[2, 1] = 0.123
    assert cross_entropy_loss(y, yhat, mask) == \
        cross_entropy_loss(y, garbled, mask)


def old_cross_entropy_loss(targets, yhat, mask):
    # the formula over every padded cell, as it was before the loss was
    # evaluated on the valid rows only
    yc = np.clip(yhat, LOSS_EPS, 1.0 - LOSS_EPS)
    per_step = np.sum(
        targets * np.log(yc) + (1.0 - targets) * np.log(1.0 - yc), axis=-1)
    return float(-np.sum(per_step * mask) / mask.sum())


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_on_valid_rows_equals_padded_formula(seed):
    rng = SeededRng(seed)
    model = network.init_model("mgru", 7, 5, rng=rng)
    batch = random_batch(7, 5, 6, rng, lengths=(6, 0, 3, 1, 5))
    yhat = network.forward(batch, model)["yhat"]
    assert cross_entropy_loss(batch.targets, yhat, batch.mask) == \
        old_cross_entropy_loss(batch.targets, yhat, batch.mask)


# ---------------------------------------------------------------------------
# clipping / optimizer

def test_clip_scales_above_norm():
    grads = {"a": np.array([6.0, 8.0])}  # norm 10
    out = clip_gradients(grads, 5.0)
    npt.assert_allclose(out["a"], [3.0, 4.0])


def test_clip_no_change_below_norm():
    grads = {"a": np.array([3.0]), "b": np.zeros(2)}
    out = clip_gradients(grads, 5.0)
    npt.assert_array_equal(out["a"], [3.0])
    out = clip_gradients({"a": np.zeros(3)}, 5.0)
    npt.assert_array_equal(out["a"], np.zeros(3))


def small_model():
    return network.init_model("mgru", 4, 3, rng=SeededRng(0))


def test_adadelta_zero_gradient_no_step():
    model = small_model()
    before = {k: v.copy() for k, v in model.flat().items()}
    state = AdadeltaState(model)
    adadelta_update(model, np.zeros_like(model.theta), state, 0.95, 1e-6)
    for k, v in model.flat().items():
        npt.assert_array_equal(v, before[k])


def test_adadelta_first_step_formula():
    model = small_model()
    rho, eps = 0.95, 1e-6
    g = np.full_like(model.theta, 0.5)
    before = {k: v.copy() for k, v in model.flat().items()}
    adadelta_update(model, g, AdadeltaState(model), rho, eps)
    expected_step = -np.sqrt(eps) / np.sqrt((1 - rho) * 0.25 + eps) * 0.5
    for k, v in model.flat().items():
        npt.assert_allclose(v - before[k], expected_step, rtol=1e-12)


def test_adadelta_step_opposes_gradient():
    model = small_model()
    rng = SeededRng(5)
    grad = np.zeros_like(model.theta)
    g = model.views(grad)
    for k, v in g.items():
        v[...] = rng.normal(1.0, v.shape)
    before = {k: v.copy() for k, v in model.flat().items()}
    adadelta_update(model, grad, AdadeltaState(model), 0.95, 1e-6)
    for k, v in model.flat().items():
        step = v - before[k]
        nz = g[k] != 0
        assert (np.sign(step[nz]) == -np.sign(g[k][nz])).all()


# The per-array update of ADADELTA, L2 and clipping, on dicts of fresh
# arrays: the reference the in-place passes over blocks must match bit for bit.

def reference_l2(model, grads, coeff):
    if coeff == 0.0:
        return
    for k, v in model.flat().items():
        if training._l2_applies(k):
            grads[k] = grads[k] + 2.0 * coeff * v


def reference_norm(grads):
    return np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def reference_clip(grads, clip_norm):
    total = reference_norm(grads)
    if total > clip_norm:
        scale = clip_norm / total
        return {k: g * scale for k, g in grads.items()}
    return grads


def reference_adadelta(model, grads, g_acc, dx_acc, rho, eps):
    arrays = model.flat()
    for k, g in grads.items():
        g_acc[k] = rho * g_acc[k] + (1.0 - rho) * g * g
        step = -np.sqrt(dx_acc[k] + eps) / np.sqrt(g_acc[k] + eps) * g
        dx_acc[k] = rho * dx_acc[k] + (1.0 - rho) * step * step
        arrays[k][...] = arrays[k] + step


def update_model(kind, seed):
    rng = SeededRng(seed)
    model = network.init_model(kind, 6, 5, layers=2, embed_dim=3, rng=rng)
    for v in model.flat().values():
        v[...] = v + rng.normal(0.3, v.shape)
    return model


@pytest.mark.parametrize("block", [7, training.BLOCK])
@pytest.mark.parametrize("l2_coeff", [0.0, 1e-2])
@pytest.mark.parametrize("clip_norm", [1e-3, 1e3])
@pytest.mark.parametrize("kind", ["mgru", "lstm_google"])
def test_arena_update_equals_per_array_formulas(kind, clip_norm, l2_coeff,
                                                block, monkeypatch):
    # 5 updates through _epoch_pass against the per-array formulas; a 7-element
    # block makes blocks cross array borders and both halves hold many
    monkeypatch.setattr(training, "BLOCK", block)
    config = TrainConfig(clip_norm=clip_norm, l2_coeff=l2_coeff)
    batches = [random_batch(6, 4, 3, SeededRng(60 + i), lengths=(3, 0, 2, 1))
               for i in range(5)]
    model = update_model(kind, seed=59)
    ref = update_model(kind, seed=59)
    g_acc = {k: np.zeros_like(v) for k, v in ref.flat().items()}
    dx_acc = {k: np.zeros_like(v) for k, v in ref.flat().items()}
    state = AdadeltaState(model)
    for batch in batches:
        training._epoch_pass([batch], model, config, SeededRng(0),
                             update_state=state)
        trace = network.forward(batch, ref)
        grads = {k: g.copy()
                 for k, g in network.backward(trace, batch, ref).items()}
        reference_l2(ref, grads, l2_coeff)
        assert (reference_norm(grads) > clip_norm) == (clip_norm < 1.0)
        grads = reference_clip(grads, clip_norm)
        reference_adadelta(ref, grads, g_acc, dx_acc, config.adadelta_rho,
                           config.adadelta_eps)
        npt.assert_array_equal(model.theta, ref.theta)
    for k, v in model.views(state.g_acc).items():
        npt.assert_array_equal(v, g_acc[k])
    for k, v in model.views(state.dx_acc).items():
        npt.assert_array_equal(v, dx_acc[k])


def test_clip_gradients_scales_views_in_place():
    model = small_model()
    grad = np.ones_like(model.theta)
    grads = model.views(grad)
    out = clip_gradients(grads, 1.0)
    assert out is grads
    npt.assert_allclose(np.linalg.norm(grad), 1.0, rtol=1e-12)


def test_descent_sanity_one_step_reduces_batch_loss():
    model = small_model()
    rng = SeededRng(3)
    for k, v in model.flat().items():
        v[...] = v + rng.normal(0.2, v.shape)
    batch = random_batch(4, 2, 3, rng)
    trace = network.forward(batch, model)
    loss0 = cross_entropy_loss(batch.targets, trace["yhat"], batch.mask)
    grads = network.backward(trace, batch, model)
    arrays = model.flat()
    for k in arrays:
        arrays[k][...] = arrays[k] - 1e-3 * grads[k]
    loss1 = cross_entropy_loss(
        batch.targets, network.forward(batch, model)["yhat"], batch.mask)
    assert loss1 < loss0


# ---------------------------------------------------------------------------
# regularization / embedding

def test_l2_penalty_recomputation_excludes_biases_and_slopes():
    model = small_model()
    rng = SeededRng(1)
    for k, v in model.flat().items():
        v[...] = rng.normal(1.0, v.shape)
    coeff = 1e-4
    expected = coeff * sum(
        float(np.sum(v * v)) for k, v in model.flat().items()
        if not (k.split(".")[-1].startswith("b")
                or k.split(".")[-1].startswith("alpha")))
    assert l2_penalty(model, coeff) == pytest.approx(expected, rel=1e-12)
    names = {k.split(".")[-1] for k in model.flat()}
    assert {"bf", "bh", "b_joint", "b_out", "alpha_j", "alpha_o"} <= names


def embed_input(x, E, extras=ExtraFeatures()):
    """The layer-0 input of the one (step, patient) cell of x, as
    network.forward() computes it for a model with embedding E."""
    n_codes, dim = E.shape
    model = network.init_model("mgru", n_codes, 3, extras=extras,
                               embed_dim=dim, rng=SeededRng(0))
    model.E[...] = E
    batch = BatchTensor(x=x, mask=np.ones((1, 1)),
                        targets=np.zeros((1, 1, n_codes)), patient_ids=["p"])
    return network.forward(batch, model)["inputs_f"][0][0]


def test_embed_input():
    E = SeededRng(2).normal(1.0, (4, 3))
    one_hot = np.zeros((1, 1, 4))
    one_hot[0, 0, 2] = 1.0
    npt.assert_allclose(embed_input(one_hot, E), E[2])
    two_hot = one_hot.copy()
    two_hot[0, 0, 0] = 1.0
    npt.assert_allclose(embed_input(two_hot, E), E[0] + E[2])
    npt.assert_allclose(embed_input(two_hot, np.eye(4)), two_hot[0, 0])


def test_embed_input_keeps_extras():
    E = np.eye(2)
    x = np.array([[[1.0, 0.0, 0.7]]])  # 2 code slots + 1 extra
    out = embed_input(x, E, ExtraFeatures(duration=True))
    npt.assert_allclose(out, [1.0, 0.0, 0.7])


# ---------------------------------------------------------------------------
# split / config

def test_split_is_patient_level_disjoint():
    cohort = planted_cohort(n=20)
    train_p, test_p = split_patients(cohort, 0.9, SeededRng(4))
    ids_train = {p.patient_id for p in train_p}
    ids_test = {p.patient_id for p in test_p}
    assert not ids_train & ids_test
    assert len(ids_train) + len(ids_test) == 20
    assert len(ids_train) == 18


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(split_fraction=1.5)
    with pytest.raises(ValueError):
        TrainConfig(patience_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)


def test_config_roundtrip():
    cfg = TrainConfig(seed=9, extra_features=ExtraFeatures(duration=True))
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg


# ---------------------------------------------------------------------------
# training loop

def test_patience_constant_validation_loss():
    cohort = planted_cohort()
    cfg = TrainConfig(seed=0, patience_epochs=10, max_epochs=100)
    _, report = train(cohort, cfg, validation_loss_hook=lambda epoch: 1.0)
    assert report.iterations == cfg.patience_epochs + 1
    assert report.best_epoch == 1


def test_train_deterministic_per_seed():
    cohort = planted_cohort()
    cfg = TrainConfig(seed=5, max_epochs=5, patience_epochs=10)
    m1, r1 = train(cohort, cfg)
    m2, r2 = train(cohort, cfg)
    for k, v in m1.flat().items():
        npt.assert_array_equal(v, m2.flat()[k])
    assert r1.train_loss == r2.train_loss
    assert r1.val_loss == r2.val_loss
    assert r1.recall == r2.recall


def test_train_deterministic_with_noise_and_dropout():
    cohort = planted_cohort()
    cfg = TrainConfig(seed=5, max_epochs=3, patience_epochs=10,
                      dropout_rate=0.2, input_noise_std=0.05)
    _, r1 = train(cohort, cfg)
    _, r2 = train(cohort, cfg)
    assert r1.train_loss == r2.train_loss


def test_train_loss_decreases_and_memorizes():
    cohort = planted_cohort()
    cfg = TrainConfig(seed=1, max_epochs=50, patience_epochs=50)
    model, report = train(cohort, cfg)
    assert report.train_loss[-1] < report.train_loss[0]


def test_train_returns_best_epoch_parameters():
    cohort = planted_cohort()
    losses = [5.0, 3.0, 4.0, 4.0, 4.0]
    cfg = TrainConfig(seed=0, max_epochs=5, patience_epochs=3)
    _, report = train(cohort, cfg,
                      validation_loss_hook=lambda e: losses[e - 1])
    assert report.best_epoch == 2
    assert report.iterations == 5  # patience exhausted after epochs 3-5


def test_train_too_small_cohort():
    with pytest.raises(ValueError):
        train(planted_cohort(n=1), TrainConfig())


def test_train_max_epochs_bound():
    cohort = planted_cohort()
    cfg = TrainConfig(seed=0, max_epochs=1)
    _, report = train(cohort, cfg)
    assert report.iterations == 1
    assert len(report.train_loss) == 1


def test_divergence_detected():
    cohort = planted_cohort()
    cfg = TrainConfig(seed=0, max_epochs=3)
    with pytest.raises(TrainingDivergedError):
        train(cohort, cfg, validation_loss_hook=lambda e: float("nan"))
