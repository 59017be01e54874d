"""Loss, ADADELTA with gradient clipping, regularization, and the epoch loop
with patient-level 90/10 split and patience-based early stopping.

An update works on flat vectors laid out like the model's parameter vector
(ModelParams.theta): network.backward() adds into one gradient vector, which
is zeroed once per update, and the L2 term, the clipping rescale and
ADADELTA (Zeiler 2012) run in place over cache-sized blocks of these
vectors, with a small scratch buffer for each of the two threads that run
them: the calling thread takes the first half of the blocks and the worker
thread (network.run_pair) the second. Every element's arithmetic is that of
the per-array formulas, so the trained weights do not depend on the blocking
or on the threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import network
from .ehr_data import ExtraFeatures, build_vocabulary, split_batches
from .network import LOSS_EPS, ModelParams
from .numerics import SeededRng


class TrainingDivergedError(RuntimeError):
    pass


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
        if not (0.0 < self.split_fraction < 1.0):
            raise ValueError("split_fraction must be in (0, 1)")
        if self.patience_epochs < 1:
            raise ValueError("patience_epochs must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["extra_features"] = self.extra_features.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "extra_features" in d and isinstance(d["extra_features"], dict):
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

    def to_dict(self) -> dict:
        return {
            "train_loss": self.train_loss,
            "val_loss": self.val_loss,
            "iterations": self.iterations,
            "best_epoch": self.best_epoch,
            "recall": self.recall,
            "wall_time_s": self.wall_time_s,
        }


def cross_entropy_loss(targets, yhat, mask) -> float:
    """Negated multi-label cross entropy, summed over codes and averaged over
    unmasked steps. Probabilities are clamped to [eps, 1-eps]. Only the rows
    of unmasked steps are evaluated."""
    if yhat.shape != targets.shape:
        raise ValueError(f"shape mismatch: {yhat.shape} vs {targets.shape}")
    n_valid = mask.sum()
    if n_valid == 0:
        return 0.0
    valid = mask != 0
    y = targets[valid]
    yc = np.clip(yhat[valid], LOSS_EPS, 1.0 - LOSS_EPS)
    per_step = np.zeros(mask.shape)
    per_step[valid] = np.sum(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc),
                             axis=-1)
    return float(-np.sum(per_step * mask) / n_valid)


def clip_gradients(grads: dict, clip_norm: float) -> dict:
    """Global-norm clipping, in place: if ||g||_2 > clip_norm, every entry
    is rescaled. The squared norm sums the arrays' own sums in the order of
    the mapping. Returns grads."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > clip_norm:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale
    return grads


# Elements per block of the in-place passes (256 KB of float64 per array).
# An ADADELTA block makes about 15 ufunc calls: on a 2-core EPYC VM, 16384
# took 1.68 ms and 32768 1.52 ms per update of an 809k-element model, while
# the scratch buffers stay at 1 MB in all.
BLOCK = 32768


class AdadeltaState:
    """What a training update writes besides the model: the gradient vector
    that network.backward() adds into and ADADELTA's running averages of the
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


def l2_penalty(model: ModelParams, coeff: float) -> float:
    """coeff * sum of squared weight-matrix entries; biases and LReLU slopes
    are excluded."""
    total = 0.0
    for k, v in model.flat().items():
        if _l2_applies(k):
            total += float(np.sum(v * v))
    return coeff * total


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
        x = batch.x
        dropout_mask = None
        if update_state is not None and config.input_noise_std > 0:
            noisy = x.copy()
            d = model.n_codes
            noisy[:, :, :d] += rng.normal(config.input_noise_std,
                                          x[:, :, :d].shape)
            batch = _with_x(batch, noisy)
        if update_state is not None and config.dropout_rate > 0:
            keep = 1.0 - config.dropout_rate
            dropout_mask = (rng.uniform((batch.x.shape[0], batch.x.shape[1],
                                         model.hidden)) < keep) / keep
        trace = network.forward(batch, model, dropout_mask=dropout_mask)
        loss = cross_entropy_loss(batch.targets, trace["yhat"], batch.mask)
        if not np.isfinite(loss):
            raise TrainingDivergedError("non-finite training loss")
        w = batch.mask.sum()
        total_loss += loss * w
        total_weight += w
        if update_state is not None:
            update_state.grad.fill(0.0)
            grads = network.backward(trace, batch, model, update_state.grad)
            _add_l2_grads(model, update_state, config.l2_coeff)
            clip_gradients(grads, config.clip_norm)
            adadelta_update(model, update_state.grad, update_state,
                            config.adadelta_rho, config.adadelta_eps)
    return total_loss / total_weight if total_weight else 0.0


def _with_x(batch, x):
    from dataclasses import replace
    return replace(batch, x=x)


def train(cohort, config: TrainConfig,
          validation_loss_hook=None) -> tuple:
    """Train on a filtered cohort. Returns (best-epoch model, TrainReport).

    validation_loss_hook, when given, replaces the computed validation loss
    (test hook for exercising the stopping rule).
    """
    from .evaluation import evaluate_model

    if len(cohort) < 2:
        raise ValueError("cohort must contain at least 2 patients")
    t0 = time.perf_counter()
    rng = SeededRng(config.seed)
    vocab = build_vocabulary(cohort)
    hidden = config.hidden_size or len(vocab)

    train_pat, test_pat = split_patients(cohort, config.split_fraction, rng)
    train_batches = split_batches(train_pat, vocab, config.extra_features,
                                  config.batch_size)
    test_batches = split_batches(test_pat, vocab, config.extra_features,
                                 config.batch_size)

    model = network.init_model(
        config.cell_kind, len(vocab), hidden, layers=config.layers,
        extras=config.extra_features, embed_dim=config.embedding_dim,
        rng=rng.spawn(1))
    model.vocab_labels = list(vocab.labels)
    model.duration_max = max((b.duration_max for b in train_batches), default=0.0)
    model.interval_max = max((b.interval_max for b in train_batches), default=0.0)

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
    result = evaluate_model(model, test_pat, vocab, ks=(10, 20, 30))
    report.recall = {k: r.mean for k, r in result.items()}
    report.wall_time_s = time.perf_counter() - t0
    return model, report
