"""Dense numeric primitives: activations, initializers, and a finite-difference oracle.

Everything here is a pure function over float64 numpy arrays. Randomness is
always funneled through an explicit SeededRng so results are reproducible
across runs and platforms.
"""

from __future__ import annotations

import numpy as np


class SeededRng:
    """Deterministic random source. Same seed, same draw sequence."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, std: float, shape) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, seq, size=None, replace=True):
        return self._gen.choice(seq, size=size, replace=replace)

    def binomial(self, n: int, p: float) -> int:
        return int(self._gen.binomial(n, p))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, key: int) -> "SeededRng":
        """Child rng deterministically derived from (seed, key)."""
        return SeededRng((self.seed * 1_000_003 + key) % (2**63))


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    With e = exp(-|x|), it is 1 / (1 + e) for x >= 0 and e / (e + 1)
    otherwise, so exp never overflows; nan stays nan.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def lrelu(x, slope: float, out=None):
    """Leaky ReLU: x for x >= 0, slope * x otherwise; written into out, which
    must not overlap x, when given."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    np.multiply(x, slope, out=out)
    np.copyto(out, x, where=x >= 0)
    return out


def softmax_rows(x, out=None):
    """Row-wise softmax with max-subtraction stabilization; written into out,
    which may be x, when given."""
    x = np.asarray(x, dtype=np.float64)
    out = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


def init_gaussian(rows: int, cols: int, rng: SeededRng | None) -> np.ndarray:
    """Zero-mean Gaussian with std sqrt(2 / (rows + cols)); zeros, with no
    draw, when rng is None."""
    if rng is None:
        return np.zeros((rows, cols))
    std = np.sqrt(2.0 / (rows + cols))
    return rng.normal(std, (rows, cols))


def finite_diff_grad(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = eps
        fp = f(theta + step)
        fm = f(theta - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(
                f"non-finite objective at coordinate {i}: f+={fp}, f-={fm}"
            )
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max over coordinates of |a - n| / max(|a|, |n|, 1e-6).

    The 1e-6 floor keeps central-difference round-off (absolute noise around
    1e-11 for unit-scale objectives) from dominating coordinates whose true
    gradient is effectively zero.
    """
    a = np.asarray(analytic).ravel()
    n = np.asarray(numeric).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
