from dataclasses import asdict, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxtraj import network, training
from dxtraj.cells import CELL_KINDS
from dxtraj.checkpoint import save_checkpoint
from dxtraj.ehr_data import (BatchTensor, ExtraFeatures, PatientRecord,
                             build_batch, build_vocabulary, feature_constants)
from dxtraj.evaluation import evaluate_model
from dxtraj.gradcheck import random_batch
from dxtraj.network import LOSS_EPS
from dxtraj.numerics import SeededRng, finite_diff_grad, max_relative_error
from dxtraj.synth import SynthSpec, generate_cohort
from dxtraj.training import (
    AdadeltaState,
    TrainConfig,
    TrainingDivergedError,
    adadelta_update,
    clip_gradients,
    cross_entropy_loss,
    fit,
    split,
    split_patients,
    train,
)
from padded import pack, pad


def planted_cohort(n=10, vocab=40, seed=7):
    return generate_cohort(SynthSpec(
        n_patients=n, vocab_size=vocab, n_states=4, noise_rate=0.0, seed=seed))


# ---------------------------------------------------------------------------
# loss

def test_cross_entropy_uniform_example():
    y = np.array([[1.0, 0, 0, 0]])
    yhat = np.full((1, 4), 0.25)
    assert cross_entropy_loss(y, yhat) == pytest.approx(2.24934, abs=1e-4)


def test_cross_entropy_perfect_prediction_near_zero():
    y = np.array([[1.0, 0.0, 1.0]])
    yhat = np.where(y == 1.0, 1.0 - 1e-9, 1e-9)
    loss = cross_entropy_loss(y, yhat)
    assert 0.0 <= loss < 1e-6


def test_cross_entropy_zero_mask():
    assert cross_entropy_loss(np.ones((0, 3)), np.full((0, 3), 0.5)) == 0.0


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.ones((1, 3)), np.ones((1, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        cross_entropy_loss(np.ones((2, 3)), np.ones((1, 3)))


def test_cross_entropy_masked_steps_contribute_nothing():
    # a padded cell has no row, so its value cannot reach the loss
    rng = SeededRng(0)
    y = (rng.uniform((3, 2, 4)) < 0.5) * 1.0
    yhat = rng.uniform((3, 2, 4)) * 0.98 + 0.01
    mask = np.ones((3, 2))
    mask[2, 1] = 0.0
    garbled = yhat.copy()
    garbled[2, 1] = 0.123
    valid = mask != 0
    loss = cross_entropy_loss(y[valid], yhat[valid])
    assert loss == row_cross_entropy(y[valid], garbled[valid])
    assert loss == pytest.approx(padded_cross_entropy(y, garbled, mask),
                                 rel=1e-14, abs=0)


def row_cross_entropy(targets, yhat):
    # the loss's formula in one pass over every row
    yc = np.clip(yhat, LOSS_EPS, 1.0 - LOSS_EPS)
    per_row = np.sum(
        targets * np.log(yc) + (1.0 - targets) * np.log(1.0 - yc), axis=-1)
    return float(-np.sum(per_row) / len(per_row))


def padded_cross_entropy(targets, yhat, mask):
    # the masked mean over every padded cell, as the loss was computed before
    # it reduced over the packed rows; the two agree up to rounding
    yc = np.clip(yhat, LOSS_EPS, 1.0 - LOSS_EPS)
    per_step = np.sum(
        targets * np.log(yc) + (1.0 - targets) * np.log(1.0 - yc), axis=-1)
    return float(-np.sum(per_step * mask) / mask.sum())


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_on_valid_rows_equals_padded_formula(seed):
    rng = SeededRng(seed)
    model = network.init_model("mgru", 7, 5, rng=rng)
    batch = random_batch(7, 5, 6, rng, lengths=(6, 0, 3, 1, 5))
    yhat = network.forward(batch, model)["yhat_rows"]
    loss = cross_entropy_loss(batch.target_rows, yhat)
    assert loss == row_cross_entropy(batch.target_rows, yhat)
    assert loss == pytest.approx(
        padded_cross_entropy(pad(batch.mask, batch.target_rows),
                             pad(batch.mask, yhat), batch.mask),
        rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [1, 63, 64, 631])
def test_cross_entropy_by_halves_equals_padded_formula(n):
    # 63 rows run inline, 64 and more by halves on the two threads
    rng = SeededRng(n)
    lengths = [3] * (n // 3) + ([n % 3] if n % 3 else []) + [0]
    batch = random_batch(90, len(lengths), 3, rng, lengths=lengths)
    model = network.init_model("mgru", 90, 64, rng=rng)
    yhat = network.forward(batch, model)["yhat_rows"]
    assert batch.mask.sum() == n
    loss = cross_entropy_loss(batch.target_rows, yhat)
    assert loss == row_cross_entropy(batch.target_rows, yhat)
    assert loss == pytest.approx(
        padded_cross_entropy(pad(batch.mask, batch.target_rows),
                             pad(batch.mask, yhat), batch.mask),
        rel=1e-14, abs=0)


def test_appending_padding_steps_leaves_the_loss_bit_identical():
    # the loss reduces over the packed rows only, so the grid's shape cannot
    # move its last bits; a reduction over the (T, P) grid moved them in 9
    # of these 40 cases
    for seed in range(40):
        rng = SeededRng(seed)
        kind = CELL_KINDS[seed % len(CELL_KINDS)]
        model = network.init_model(kind, 6, 5, layers=1 + seed % 2, rng=rng)
        model.theta[...] += rng.normal(0.3, model.theta.shape)
        batch = random_batch(6, 4, 3, rng, lengths=(3, 1, 2, 3))
        extra = 1 + seed % 5
        # padding steps add no row: only the mask grows
        padded = BatchTensor(
            batch.code_rows, batch.extra_rows, batch.target_rows,
            np.concatenate([batch.mask, np.zeros((extra, 4))]))
        losses = [cross_entropy_loss(b.target_rows,
                                     network.forward(b, model)["yhat_rows"])
                  for b in (batch, padded)]
        assert losses[0] == losses[1], (seed, kind)


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
    # 10 updates through _epoch_pass against the per-array formulas; a
    # 7-element block makes blocks cross array borders and both halves hold
    # many. Every other batch has one step, which reads no state, so no U<g>
    # gradient is formed: one left over from the update before would show,
    # as the reference starts each gradient from zeros
    monkeypatch.setattr(training, "BLOCK", block)
    config = TrainConfig(clip_norm=clip_norm, l2_coeff=l2_coeff)
    batches = [random_batch(6, 4, 3, SeededRng(seed + i), lengths=lengths)
               for i in range(5)
               for seed, lengths in ((60, (3, 0, 2, 1)), (70, (1, 0, 1, 1)))]
    model = update_model(kind, seed=59)
    ref = update_model(kind, seed=59)
    g_acc = {k: np.zeros_like(v) for k, v in ref.flat().items()}
    dx_acc = {k: np.zeros_like(v) for k, v in ref.flat().items()}
    state = AdadeltaState(model)
    for batch in batches:
        training._epoch_pass([batch], model, config, SeededRng(0),
                             update_state=state)
        trace = network.forward(batch, ref)
        grads = {k: g.copy() for k, g in network.backward(
            trace, batch, ref, np.zeros_like(ref.theta)).items()}
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
    loss0 = cross_entropy_loss(batch.target_rows, trace["yhat_rows"])
    grads = network.backward(trace, batch, model)
    arrays = model.flat()
    for k in arrays:
        arrays[k][...] = arrays[k] - 1e-3 * grads[k]
    loss1 = cross_entropy_loss(
        batch.target_rows, network.forward(batch, model)["yhat_rows"])
    assert loss1 < loss0


# ---------------------------------------------------------------------------
# regularization / embedding

# the parameters the L2 term leaves out, named one by one: biases and LReLU
# slopes
NO_L2 = {"fwd0.bf", "fwd0.bh", "fwd1.bf", "fwd1.bh", "bwd0.bf", "bwd0.bh",
         "bwd1.bf", "bwd1.bh", "b_joint", "b_out", "alpha_j", "alpha_o"}


@pytest.mark.parametrize("block", [7, 32768])
def test_add_l2_grads_is_the_gradient_of_the_weight_penalty(block,
                                                            monkeypatch):
    monkeypatch.setattr(training, "BLOCK", block)
    model = network.init_model("mgru", 4, 3, layers=2, embed_dim=2,
                               rng=SeededRng(0))
    assert NO_L2 < set(model.layout)
    model.theta[...] = SeededRng(1).normal(1.0, model.theta.shape)
    coeff = 0.3

    def penalty(theta):
        return coeff * sum(float(np.sum(v * v))
                           for name, v in model.views(theta).items()
                           if name not in NO_L2)

    state = AdadeltaState(model)
    training._add_l2_grads(model, state, coeff)
    numeric = finite_diff_grad(penalty, model.theta.copy())
    npt.assert_allclose(state.grad, numeric, rtol=1e-6, atol=1e-8)
    for name, g in model.views(state.grad).items():
        assert g.any() != (name in NO_L2), name


def test_l2_gradient_along_the_update_path():
    # finite differences of loss + l2_coeff * sum ||W||^2 against the gradient
    # an update applies: network.backward, then _add_l2_grads; 2 layers and
    # an embedding put the term on E, U* and V*, and on no bias or slope
    model = network.init_model("mgru", 4, 3, layers=2, embed_dim=2,
                               rng=SeededRng(0))
    model.theta[...] += SeededRng(1).normal(0.3, model.theta.shape)
    batch = random_batch(4, 3, 3, SeededRng(2))
    coeff = 0.05
    assert NO_L2 < set(model.layout)
    assert {"E", "fwd1.Uf", "bwd0.Uh", "Vfwd", "Vbwd"} <= \
        set(model.layout) - NO_L2

    def objective(theta):
        model.theta[...] = theta
        yhat = network.forward(batch, model)["yhat_rows"]
        return cross_entropy_loss(batch.target_rows, yhat) + coeff * sum(
            float(np.sum(v * v)) for name, v in model.flat().items()
            if name not in NO_L2)

    theta0 = model.theta.copy()
    numeric = model.views(finite_diff_grad(objective, theta0))
    model.theta[...] = theta0
    state = AdadeltaState(model)
    network.backward(network.forward(batch, model), batch, model, state.grad)
    training._add_l2_grads(model, state, coeff)
    for name, g in model.views(state.grad).items():
        assert max_relative_error(g, numeric[name]) < 1e-4, name


def embed_input(x, E, extras=ExtraFeatures()):
    """The layer-0 input of the one (step, patient) cell of x, as
    network._embed builds it for a model with embedding E."""
    n_codes, dim = E.shape
    model = network.init_model("mgru", n_codes, 3, extras=extras,
                               embed_dim=dim, rng=SeededRng(0))
    model.E[...] = E
    batch = pack(x, np.ones((1, 1)), np.zeros((1, 1, n_codes)))
    return network._embed(model, batch)[0][0]


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


@pytest.mark.parametrize("seed", [0, 1, 3, 11])
@pytest.mark.parametrize("fraction", [0.5, 0.6, 0.9])
def test_split_draws_the_sides_of_split_patients(seed, fraction):
    # the benchmark and the acceptance test find train()'s held-out
    # patients by this replay of its first draw
    cohort = planted_cohort(n=20)
    train_p, test_p, _ = split(
        cohort, TrainConfig(seed=seed, split_fraction=fraction))
    assert (train_p, test_p) == split_patients(cohort, fraction,
                                               SeededRng(seed))


def test_train_is_split_then_fit(tmp_path):
    # dropout and input noise draw from the generator that split() hands on
    cohort = planted_cohort(n=30)
    config = TrainConfig(seed=5, max_epochs=3, batch_size=8,
                         dropout_rate=0.3, input_noise_std=0.1,
                         extra_features=ALL_EXTRAS)
    runs = [train(cohort, config), fit(*split(cohort, config), config)]
    blobs, reports = [], []
    for i, (model, report) in enumerate(runs):
        save_checkpoint(model, tmp_path / f"{i}.ckpt")
        blobs.append((tmp_path / f"{i}.ckpt").read_bytes())
        reports.append(replace(report, wall_time_s=0.0))
    assert blobs[0] == blobs[1]
    assert reports[0] == reports[1]
    assert reports[0].iterations == 3


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(split_fraction=1.5)
    with pytest.raises(ValueError):
        TrainConfig(patience_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -1), ("max_epochs", 0),
    ("hidden_size", 0), ("layers", 0), ("embedding_dim", 0),
    ("dropout_rate", 1.0), ("dropout_rate", -0.1), ("input_noise_std", -0.5),
    # optimizer settings that cannot train: rho = 1 never forgets the first
    # squared gradients, eps <= 0 divides by zero or negates a step
    ("adadelta_rho", 1.0), ("adadelta_rho", 1.5), ("adadelta_rho", -0.1),
    ("adadelta_eps", 0.0), ("adadelta_eps", -1.0), ("l2_coeff", -5.0),
    ("clip_norm", float("nan")), ("adadelta_eps", float("nan")),
    ("l2_coeff", float("nan")), ("adadelta_rho", float("nan")),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_config_accepts_the_range_bounds():
    TrainConfig(batch_size=1, max_epochs=1, hidden_size=1, layers=1,
                embedding_dim=1, dropout_rate=0.0, input_noise_std=0.0,
                adadelta_rho=0.0, adadelta_eps=5e-324, l2_coeff=0.0)


def test_config_roundtrip():
    cfg = TrainConfig(seed=9, extra_features=ExtraFeatures(duration=True))
    again = TrainConfig.from_dict(asdict(cfg))
    assert again == cfg


@pytest.mark.parametrize("values, message", [
    ({"epochs": 5}, "unknown TrainConfig field"),
    ({"max_epochs": "5"}, "max_epochs must be int"),
    ({"max_epochs": 5.0}, "max_epochs must be int"),
    ({"seed": True}, "seed must be int"),
    ({"hidden_size": [4]}, "hidden_size must be int"),
    ({"clip_norm": None}, "clip_norm must be float"),
    ({"cell_kind": 3}, "cell_kind must be str"),
    ({"extra_features": 5}, "extra_features must be ExtraFeatures"),
    ({"extra_features": {"duration": 1}}, "extra features must be booleans"),
    ({"extra_features": {"weight": True}}, "extra features must be booleans"),
])
def test_config_from_dict_rejects_unknown_and_mistyped_fields(values,
                                                              message):
    # a --config file reaches from_dict: a bad field is input, not a fault
    with pytest.raises(ValueError, match=message):
        TrainConfig.from_dict(values)


def test_config_from_dict_takes_json_numbers():
    cfg = TrainConfig.from_dict({"clip_norm": 2, "hidden_size": None,
                                 "extra_features": {"duration": True}})
    assert cfg == TrainConfig(clip_norm=2.0,
                              extra_features=ExtraFeatures(duration=True))


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


@pytest.mark.parametrize("side", [0, 1])
def test_an_admission_without_codes_stops_train_before_any_epoch(
        monkeypatch, side):
    # an admission after a patient's first is a target: one without codes
    # raises, naming the patient and the admission, before the first
    # epoch, on the training side of the split (0) and on the other (1)
    cohort = planted_cohort(n=20)
    config = TrainConfig(seed=3, max_epochs=2)
    sides = split(cohort, config)
    patient = next(p for p in sides[side] if len(p.admissions) >= 3)
    emptied = PatientRecord(patient.patient_id, [
        replace(a, codes=set()) if i == 2 else a
        for i, a in enumerate(patient.admissions)])
    passes = []
    monkeypatch.setattr(training, "_epoch_pass",
                        lambda *args, **kwargs: passes.append(1))
    with pytest.raises(ValueError, match=rf"^patient {patient.patient_id}: "
                                         r"admission 2 has no codes"):
        train([emptied if p is patient else p for p in cohort], config)
    assert passes == []


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


# ---------------------------------------------------------------------------
# one encode per split, with the training split's feature constants

ALL_EXTRAS = ExtraFeatures(True, True, True)


def train_recording_batches(monkeypatch, cohort, config):
    """train() with its split_batches calls recorded: returns the model, the
    report and the batch list of each call, in call order."""
    calls = []
    original = training.split_batches

    def recording(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    with monkeypatch.context() as patch:
        patch.setattr(training, "split_batches", recording)
        model, report = train(cohort, config)
    return model, report, calls


def batch_bytes(batch):
    return (batch.code_rows.tobytes(), batch.extra_rows.tobytes(),
            batch.target_rows.tobytes(), batch.mask.tobytes())


def test_train_encodes_each_split_once(monkeypatch):
    cohort = planted_cohort(n=30)
    config = TrainConfig(seed=2, max_epochs=2, batch_size=4,
                         extra_features=ALL_EXTRAS)
    _, _, calls = train_recording_batches(monkeypatch, cohort, config)
    train_p, test_p, _ = split(cohort, config)
    training_batches, (validation_batch,) = calls
    assert [b.mask.shape[1] for b in training_batches] == [4] * 6 + [3]
    # the validation split as one batch, with the training split's constants
    expected = build_batch(test_p, build_vocabulary(cohort), ALL_EXTRAS,
                           *feature_constants(train_p, ALL_EXTRAS))
    assert batch_bytes(validation_batch) == batch_bytes(expected)


def test_validation_patients_leave_the_training_batches_unchanged(
        monkeypatch):
    cohort = planted_cohort(n=30)
    config = TrainConfig(seed=2, max_epochs=1, batch_size=4,
                         extra_features=ALL_EXTRAS)
    _, test_p, _ = split(cohort, config)
    # longer than any duration and interval of the cohort
    held_out = test_p[0]
    altered = PatientRecord(held_out.patient_id, [
        replace(a, timestamp=a.timestamp + i * 10**9, duration=1e6 + i)
        for i, a in enumerate(held_out.admissions)])
    runs = [train_recording_batches(monkeypatch, c, config)
            for c in (cohort, [altered if p is held_out else p
                               for p in cohort])]
    (model, _, (batches, val)), (model2, _, (batches2, val2)) = runs
    assert [batch_bytes(b) for b in batches] == \
        [batch_bytes(b) for b in batches2]
    assert (model.duration_max, model.interval_max) == \
        (model2.duration_max, model2.interval_max)
    assert batch_bytes(val[0]) != batch_bytes(val2[0])


def rows_by_patient(batch):
    """The batch's input rows, patient by patient, each in step order."""
    x = pad(batch.mask, batch.input_rows())
    return x.transpose(1, 0, 2)[batch.mask.T]


def test_training_batches_are_normalised_as_the_whole_split(monkeypatch):
    cohort = planted_cohort(n=30)
    config = TrainConfig(seed=2, max_epochs=1, batch_size=4,
                         extra_features=ALL_EXTRAS)
    model, _, (batches, _) = train_recording_batches(monkeypatch, cohort,
                                                     config)
    train_p, _, _ = split(cohort, config)
    constants = feature_constants(train_p, ALL_EXTRAS)
    assert (model.duration_max, model.interval_max) == constants
    whole = build_batch(train_p, build_vocabulary(cohort), ALL_EXTRAS,
                        *constants)
    d = model.n_codes
    npt.assert_array_equal(
        np.concatenate([rows_by_patient(b) for b in batches])[:, d:],
        rows_by_patient(whole)[:, d:])


def test_train_recall_equals_evaluate_model_on_the_validation_split():
    cohort = planted_cohort(n=30)
    config = TrainConfig(seed=2, max_epochs=2, batch_size=4,
                         extra_features=ALL_EXTRAS)
    model, report = train(cohort, config)
    _, test_p, _ = split(cohort, config)
    result = evaluate_model(model, test_p, build_vocabulary(cohort))
    assert report.recall == {k: r.mean for k, r in result.items()}


def test_train_recall_leaves_out_k_beyond_the_vocabulary():
    _, report = train(planted_cohort(n=10, vocab=15),
                      TrainConfig(seed=0, max_epochs=1))
    assert list(report.recall) == [10]


def loss_and_grad(model, batch):
    trace = network.forward(batch, model)
    loss = cross_entropy_loss(batch.target_rows, trace["yhat_rows"])
    grad = np.zeros_like(model.theta)
    network.backward(trace, batch, model, grad)
    return loss, grad


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
           st.integers(0, 10**6), st.permutations(range(n)))),
       st.sampled_from(CELL_KINDS), st.integers(1, 2),
       st.builds(ExtraFeatures, st.booleans(), st.booleans(), st.booleans()))
def test_loss_and_gradients_do_not_depend_on_patient_order(
        seed_order, kind, layers, extras):
    seed, order = seed_order
    cohort = generate_cohort(SynthSpec(
        n_patients=len(order), vocab_size=12, mean_codes_per_admission=3,
        n_states=3, noise_rate=0.2, seed=seed))
    vocab = build_vocabulary(cohort)
    constants = feature_constants(cohort, extras)
    model = network.init_model(kind, len(vocab), 5, layers=layers,
                               extras=extras, rng=SeededRng(seed))
    loss, grad = loss_and_grad(
        model, build_batch(cohort, vocab, extras, *constants))
    loss2, grad2 = loss_and_grad(
        model, build_batch([cohort[i] for i in order], vocab, extras,
                           *constants))
    assert loss2 == pytest.approx(loss, rel=1e-12)
    npt.assert_allclose(grad2, grad, rtol=1e-12,
                        atol=1e-12 * np.abs(grad).max())


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("layers", [1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
       extras=st.builds(ExtraFeatures, st.booleans(), st.booleans(),
                        st.booleans()),
       pad_steps=st.integers(1, 5))
def test_trailing_padding_steps_leave_gradients_bit_identical(
        kind, layers, seed, n, extras, pad_steps):
    """Steps at which no patient is active add no packed row, so every
    gradient keeps its bits. The loss is one reduction over the padded
    (T, P) grid, so the longer grid may regroup its additions: it moves
    by rounding only."""
    cohort = generate_cohort(SynthSpec(
        n_patients=n, vocab_size=12, mean_codes_per_admission=3,
        n_states=3, noise_rate=0.2, seed=seed))
    vocab = build_vocabulary(cohort)
    batch = build_batch(cohort, vocab, extras,
                        *feature_constants(cohort, extras))
    longer = replace(
        batch, mask=np.concatenate([batch.mask, np.zeros((pad_steps, n))]))
    model = network.init_model(kind, len(vocab), 5, layers=layers,
                               extras=extras, rng=SeededRng(seed))
    loss, grad = loss_and_grad(model, batch)
    loss2, grad2 = loss_and_grad(model, longer)
    assert grad2.tobytes() == grad.tobytes()
    # all summands share a sign: each order of summation is within
    # (cells - 1) * eps of the exact sum
    assert abs(loss2 - loss) <= 2 * longer.mask.size * 2.0**-52 * abs(loss)


def test_train_with_one_byte_targets_equals_float_targets(monkeypatch):
    cohort = planted_cohort(n=30)
    config = TrainConfig(seed=2, max_epochs=3, batch_size=4,
                         extra_features=ALL_EXTRAS, dropout_rate=0.2,
                         input_noise_std=0.05)
    model, report, calls = train_recording_batches(monkeypatch, cohort,
                                                   config)
    assert all(b.target_rows.dtype == np.uint8 for c in calls for b in c)
    original = training.split_batches

    def float_targets(*args, **kwargs):
        return [replace(b, target_rows=b.target_rows.astype(np.float64))
                for b in original(*args, **kwargs)]

    monkeypatch.setattr(training, "split_batches", float_targets)
    model2, report2 = train(cohort, config)
    assert model2.theta.tobytes() == model.theta.tobytes()
    assert report2.train_loss == report.train_loss
    assert report2.val_loss == report.val_loss
    assert report2.recall == report.recall


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(CELL_KINDS), layers=st.integers(1, 2),
       seed=st.integers(0, 10**6), n=st.integers(1, 5),
       extras=st.builds(ExtraFeatures, st.booleans(), st.booleans(),
                        st.booleans()),
       embed=st.booleans(), noise=st.booleans())
def test_one_byte_code_rows_give_the_bits_of_float_code_rows(
        kind, layers, seed, n, extras, embed, noise):
    """The network reads uint8 code slots as float64 (through input_rows()
    or the embedding product), so a forward, backward and training pass
    (dropout on, input noise on or off) give the bits of the same batch
    with float64 code slots."""
    cohort = generate_cohort(SynthSpec(
        n_patients=n, vocab_size=12, mean_codes_per_admission=3,
        n_states=3, noise_rate=0.2, seed=seed))
    vocab = build_vocabulary(cohort)
    batch = build_batch(cohort, vocab, extras,
                        *feature_constants(cohort, extras))
    n_valid = int(batch.mask.sum())
    assert batch.code_rows.dtype == np.uint8
    assert batch.code_rows.nbytes == n_valid * len(vocab)
    floats = replace(batch, code_rows=batch.code_rows.astype(np.float64))
    config = TrainConfig(seed=seed, dropout_rate=0.2,
                         input_noise_std=0.1 if noise else 0.0)

    def run(b):
        model = network.init_model(kind, len(vocab), 5, layers=layers,
                                   extras=extras,
                                   embed_dim=3 if embed else None,
                                   rng=SeededRng(seed))
        loss, grad = loss_and_grad(model, b)
        state = AdadeltaState(model)
        pass_loss = training._epoch_pass([b], model, config,
                                         SeededRng(seed + 1), state)
        return loss, grad.tobytes(), pass_loss, model.theta.tobytes()

    assert run(batch) == run(floats)

