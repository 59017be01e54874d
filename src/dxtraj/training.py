"""Loss, ADADELTA with gradient clipping, regularization, and the epoch loop
with patient-level 90/10 split and patience-based early stopping.

An update works on flat vectors laid out like the model's parameter vector
(ModelParams.theta): network.backward() writes every element of one
gradient vector, which is never zero-filled, and the L2 term and ADADELTA
(Zeiler 2012) run in place over cache-sized blocks of these vectors, with a
small scratch buffer for each of the two threads that run them: the calling
thread takes the first half of the blocks and the worker thread
(network.run_pair) the second. Clipping splits the parameter arrays in two
halves by size the same way: each thread forms the sums of squares of its
arrays, and rescales them, while the caller adds the per-array sums in the
order of the arrays. Every element's arithmetic is that of the per-array
formulas, so the trained weights do not depend on the blocking or on the
threads. The loss likewise computes its per-row sums by halves of the rows
on the two threads, and their mean as one reduction over the whole array: a
reduction split between threads would add in another order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import network
from .ehr_data import (ExtraFeatures, build_vocabulary, feature_constants,
                       split_batches)
from .evaluation import batch_recall
from .network import LOSS_EPS, ModelParams
from .numerics import SeededRng


class TrainingDivergedError(RuntimeError):
    pass


# JSON types that TrainConfig.from_dict accepts for each annotation; bool is
# not an int here
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "None": (type(None),), "ExtraFeatures": (dict,)}


@dataclass
class TrainConfig:
    seed: int = 0
    split_fraction: float = 0.9
    patience_epochs: int = 10
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    clip_norm: float = 5.0
    l2_coeff: float = 1e-4
    dropout_rate: float = 0.0
    input_noise_std: float = 0.0
    max_epochs: int = 500
    hidden_size: int | None = None  # None -> |D|
    cell_kind: str = "mgru"
    layers: int = 1
    extra_features: ExtraFeatures = field(default_factory=ExtraFeatures)
    embedding_dim: int | None = None
    batch_size: int | None = None  # None -> whole split as one batch

    def __post_init__(self):
        for name in ("patience_epochs", "max_epochs", "layers", "hidden_size",
                     "embedding_dim", "batch_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        # each check is written so that nan fails it
        for name, ok, rule in (
                ("split_fraction", 0 < self.split_fraction < 1, "in (0, 1)"),
                ("clip_norm", self.clip_norm > 0, "> 0"),
                ("adadelta_eps", self.adadelta_eps > 0, "> 0"),
                ("l2_coeff", self.l2_coeff >= 0, ">= 0"),
                ("input_noise_std", self.input_noise_std >= 0, ">= 0"),
                ("dropout_rate", 0 <= self.dropout_rate < 1, "in [0, 1)"),
                ("adadelta_rho", 0 <= self.adadelta_rho < 1, "in [0, 1)")):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """A config from JSON values (a --config file, a grid row). An
        unknown field or a value of the wrong type raises ValueError."""
        d = dict(d)
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(str(name) for name in d if name not in types)
        if unknown:
            raise ValueError(f"unknown TrainConfig field(s): "
                             f"{', '.join(unknown)}")
        for name, value in d.items():
            allowed = sum((_JSON_TYPES[t] for t in types[name].split(" | ")),
                          ())
            if type(value) not in allowed:
                raise ValueError(f"{name} must be {types[name]}, "
                                 f"got {value!r}")
        if "extra_features" in d:
            d["extra_features"] = ExtraFeatures.from_dict(d["extra_features"])
        return cls(**d)


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)    # per epoch
    val_loss: list = field(default_factory=list)      # per epoch
    iterations: int = 0                               # epochs until stop
    best_epoch: int = 0
    recall: dict = field(default_factory=dict)        # k -> mean recall (test)
    wall_time_s: float = 0.0


def cross_entropy_loss(targets, yhat) -> float:
    """Negated multi-label cross entropy, summed over codes and averaged over
    rows. Probabilities are clamped to [eps, 1-eps].

    targets and yhat are the rows of the valid cells, packed like
    BatchTensor's rows. Their sums run by halves of the rows on the two
    threads (network.run_by_halves); the mean is one reduction over the
    per-row sums, so padded cells never enter it."""
    if yhat.shape != targets.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {targets.shape}")
    if len(yhat) == 0:
        return 0.0
    sums = np.empty(len(yhat))

    def rows(r):
        y, yc = targets[r], np.clip(yhat[r], LOSS_EPS, 1.0 - LOSS_EPS)
        sums[r] = np.sum(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc),
                         axis=-1)

    network.run_by_halves(len(sums), rows)
    return float(-np.sum(sums) / len(sums))


def _sums_of_squares(arrays, scratch) -> list:
    """float(np.sum(g * g)) of each array, with g * g written to a view of
    scratch in the array's shape: numpy sums it as it sums g * g."""
    return [float(np.sum(np.multiply(g, g,
                                     out=scratch[:g.size].reshape(g.shape))))
            for g in arrays]


def clip_gradients(grads: dict, clip_norm: float) -> dict:
    """Global-norm clipping, in place: if ||g||_2 > clip_norm, every entry
    is rescaled. The squared norm adds the arrays' own sums of squares in
    the order of the mapping. The arrays (C-ordered, as model.views gives
    them) are split in two halves by size: the calling thread forms the
    sums of the first and rescales it, the worker thread (network.run_pair)
    the second. Returns grads."""
    arrays = list(grads.values())
    sizes = np.cumsum([0] + [g.size for g in arrays])
    cut = int(np.searchsorted(sizes, sizes[-1] / 2))
    first, second = arrays[:cut], arrays[cut:]
    # one buffer, as large as the largest array of each half, allocated by
    # this thread and freed on return: scratch that the worker allocated
    # itself put train_short's peak RSS in its upper mode (98 against 92 MB)
    # in 19 of 28 benchmark runs, this buffer in 3 of 19, serial clipping
    # with a temporary per array in 20 of 42
    split = max((g.size for g in first), default=0)
    scratch = np.empty(split + max((g.size for g in second), default=0))
    mine, theirs = network.run_pair(
        lambda: _sums_of_squares(first, scratch[:split]),
        lambda: _sums_of_squares(second, scratch[split:]))
    total = np.sqrt(sum(mine + theirs))
    if total > clip_norm:
        scale = clip_norm / total

        def rescale(part):
            for g in part:
                g *= scale

        network.run_pair(lambda: rescale(first), lambda: rescale(second))
    return grads


# Elements per block of the in-place passes (256 KB of float64 per array).
# An ADADELTA block makes about 15 ufunc calls: on a 2-core EPYC VM, 16384
# took 1.68 ms and 32768 1.52 ms per update of an 809k-element model, while
# the scratch buffers stay at 1 MB in all.
BLOCK = 32768


class AdadeltaState:
    """What a training update writes besides the model: the gradient vector
    that network.backward() writes and ADADELTA's running averages of the
    squared gradients and steps, all laid out like model.theta, plus one
    pair of block-sized scratch buffers for each half of the blocks.

    The blocks cover theta in order, hold at most BLOCK elements, and never
    mix arrays that take the L2 term with arrays that do not. halves splits
    them at half of theta's size: the calling thread runs the first, the
    worker thread the second.
    """

    def __init__(self, model: ModelParams):
        self.grad = np.zeros_like(model.theta)
        self.g_acc = np.zeros_like(model.theta)
        self.dx_acc = np.zeros_like(model.theta)
        segments = []  # [start, stop, l2] runs of arrays with the same l2
        for name, (lo, hi, _) in sorted(model.layout.items(),
                                        key=lambda item: item[1][0]):
            l2 = _l2_applies(name)
            if segments and segments[-1][2] == l2:
                segments[-1][1] = hi
            else:
                segments.append([lo, hi, l2])
        blocks = [(lo, min(lo + BLOCK, stop), l2)
                  for start, stop, l2 in segments
                  for lo in range(start, stop, BLOCK)]
        half = next((i for i, (lo, _, _) in enumerate(blocks)
                     if 2 * lo >= model.theta.size), len(blocks))
        self.halves = (blocks[:half], blocks[half:])
        self.scratch = (np.empty((2, BLOCK)), np.empty((2, BLOCK)))


def _over_halves(state: AdadeltaState, run) -> None:
    """run(blocks, scratch) over the first half of the blocks on this thread
    and over the second half on the worker thread."""
    (first, second), (mine, theirs) = state.halves, state.scratch
    network.run_pair(lambda: run(first, mine), lambda: run(second, theirs))


def adadelta_update(model: ModelParams, grad: np.ndarray,
                    state: AdadeltaState, rho: float, eps: float) -> None:
    """Standard ADADELTA update of model.theta by grad (a vector laid out
    like it), in place:

        g_acc  = rho * g_acc + (1 - rho) * g * g
        step   = -sqrt(dx_acc + eps) / sqrt(g_acc + eps) * g
        dx_acc = rho * dx_acc + (1 - rho) * step * step
        theta  = theta + step

    evaluated block by block as u = -step, which has the same magnitude.
    """
    theta, g_acc, dx_acc = model.theta, state.g_acc, state.dx_acc
    c = 1.0 - rho

    def run(blocks, scratch):
        for lo, hi, _ in blocks:
            g, ga, dxa = grad[lo:hi], g_acc[lo:hi], dx_acc[lo:hi]
            a, b = scratch[0, :hi - lo], scratch[1, :hi - lo]
            np.multiply(g, c, out=a)
            a *= g
            ga *= rho
            ga += a
            np.add(dxa, eps, out=a)
            np.sqrt(a, out=a)
            np.add(ga, eps, out=b)
            np.sqrt(b, out=b)
            a /= b
            a *= g                     # a = u = -step
            np.multiply(a, c, out=b)
            b *= a
            dxa *= rho
            dxa += b
            theta[lo:hi] -= a

    _over_halves(state, run)


def _l2_applies(key: str) -> bool:
    name = key.split(".")[-1]
    return not (name.startswith("b") or name.startswith("alpha"))


def _add_l2_grads(model: ModelParams, state: AdadeltaState,
                  coeff: float) -> None:
    """state.grad += 2 * coeff * theta over the weight matrices, in place."""
    if coeff == 0.0:
        return
    theta, grad = model.theta, state.grad
    c2 = 2.0 * coeff

    def run(blocks, scratch):
        for lo, hi, l2 in blocks:
            if l2:
                a = scratch[0, :hi - lo]
                np.multiply(theta[lo:hi], c2, out=a)
                grad[lo:hi] += a

    _over_halves(state, run)


def split_patients(patients, fraction: float, rng: SeededRng):
    """Patient-level shuffled split; no patient appears on both sides."""
    order = rng.permutation(len(patients))
    n_train = int(round(len(patients) * fraction))
    n_train = min(max(n_train, 1), len(patients) - 1)
    train = [patients[i] for i in order[:n_train]]
    test = [patients[i] for i in order[n_train:]]
    return train, test


def _epoch_pass(batches, model, config, rng, update_state=None):
    """One pass over the batches. With update_state given, performs training
    updates; otherwise evaluates loss only."""
    total_loss = 0.0
    total_weight = 0.0
    for batch in batches:
        # each draw covers the whole (T, P, ·) grid, padded cells included,
        # so that the seeded stream, and with it the trained weights, do not
        # depend on how cells are stored; it is cut to the valid rows at once
        dropout = code_noise = None
        if update_state is not None and config.input_noise_std > 0:
            code_noise = rng.normal(
                config.input_noise_std,
                batch.mask.shape + (model.n_codes,))[batch.mask]
        if update_state is not None and config.dropout_rate > 0:
            keep = 1.0 - config.dropout_rate
            dropout = (rng.uniform(batch.mask.shape + (model.hidden,))
                       [batch.mask] < keep) / keep
        trace = network.forward(batch, model, dropout, code_noise)
        loss = cross_entropy_loss(batch.target_rows, trace["yhat_rows"])
        if not np.isfinite(loss):
            raise TrainingDivergedError("non-finite training loss")
        w = batch.mask.sum()
        total_loss += loss * w
        total_weight += w
        if update_state is not None:
            grads = network.backward(trace, batch, model, update_state.grad)
            _add_l2_grads(model, update_state, config.l2_coeff)
            clip_gradients(grads, config.clip_norm)
            adadelta_update(model, update_state.grad, update_state,
                            config.adadelta_rho, config.adadelta_eps)
    return total_loss / total_weight if total_weight else 0.0


def train(cohort, config: TrainConfig,
          validation_loss_hook=None) -> tuple:
    """Train on a filtered cohort. Returns (best-epoch model, TrainReport).
    Each split is encoded once, with the training split's feature constants;
    batch_size splits the training split only.

    validation_loss_hook, when given, replaces the computed validation loss
    (test hook for exercising the stopping rule).
    """
    if len(cohort) < 2:
        raise ValueError("cohort must contain at least 2 patients")
    t0 = time.perf_counter()
    rng = SeededRng(config.seed)
    vocab = build_vocabulary(cohort)
    hidden = config.hidden_size or len(vocab)

    train_pat, test_pat = split_patients(cohort, config.split_fraction, rng)
    constants = feature_constants(train_pat, config.extra_features)
    train_batches = split_batches(train_pat, vocab, config.extra_features,
                                  config.batch_size, *constants)
    test_batches = split_batches(test_pat, vocab, config.extra_features,
                                 None, *constants)

    model = network.init_model(
        config.cell_kind, len(vocab), hidden, layers=config.layers,
        extras=config.extra_features, embed_dim=config.embedding_dim,
        rng=rng.spawn(1))
    model.vocab_labels = list(vocab.labels)
    model.duration_max, model.interval_max = constants

    state = AdadeltaState(model)
    report = TrainReport()
    best_val = np.inf
    best = model.theta.copy()
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        train_loss = _epoch_pass(train_batches, model, config, rng,
                                 update_state=state)
        if validation_loss_hook is not None:
            val_loss = float(validation_loss_hook(epoch))
        else:
            val_loss = _epoch_pass(test_batches, model, config, rng)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError("non-finite validation loss")
        report.train_loss.append(train_loss)
        report.val_loss.append(val_loss)
        report.iterations = epoch
        if val_loss < best_val:
            best_val = val_loss
            report.best_epoch = epoch
            np.copyto(best, model.theta)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience_epochs:
                break

    model.theta[...] = best
    ks = [k for k in (10, 20, 30) if k <= len(vocab)]
    result = batch_recall(model, test_batches[0], ks)
    report.recall = {k: r.mean for k, r in result.items()}
    report.wall_time_s = time.perf_counter() - t0
    return model, report
