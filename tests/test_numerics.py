import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dxtraj.numerics import (
    SeededRng,
    finite_diff_grad,
    init_gaussian,
    init_identity,
    lrelu,
    sigmoid,
    softmax_rows,
    tanh_act,
)

finite_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(max_dims=2, max_side=6),
    elements=st.floats(-1e6, 1e6))


def test_sigmoid_examples():
    assert sigmoid(np.array(0.0)) == 0.5
    assert abs(sigmoid(np.array(50.0)) - 1.0) < 1e-9
    # closed form: e^x / (e^x + 1) at x = ln 3 is 3/4
    npt.assert_allclose(sigmoid(np.array(np.log(3.0))), 0.75, atol=1e-12)


def masked_sigmoid(x):
    # the formula with boolean masks that sigmoid() replaced
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (ex + 1.0)
    return out


def test_sigmoid_equals_masked_formula():
    x = SeededRng(7).normal(3.0, (630, 271))
    npt.assert_array_equal(sigmoid(x), masked_sigmoid(x))
    special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
                        5e-324, -5e-324, 36.0, -36.0, 710.0, -745.0])
    out = sigmoid(special)
    npt.assert_array_equal(out, masked_sigmoid(special))
    assert np.isnan(out[6]) and out[4] == 1.0 and out[5] == 0.0
    assert sigmoid(np.array(-0.0)) == 0.5 and sigmoid(np.array(-0.0)).shape == ()


@given(finite_arrays)
def test_sigmoid_equals_masked_formula_anywhere(x):
    npt.assert_array_equal(sigmoid(x), masked_sigmoid(x))


@given(finite_arrays)
def test_sigmoid_symmetry(x):
    npt.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def test_tanh_examples():
    assert tanh_act(np.array(0.0)) == 0.0
    npt.assert_allclose(tanh_act(np.array(1.0)), 0.761594, atol=1e-6)


@given(finite_arrays)
def test_tanh_odd(x):
    npt.assert_allclose(tanh_act(x), -tanh_act(-x), atol=1e-12)


def test_lrelu():
    assert lrelu(np.array(-2.0), 0.1) == pytest.approx(-0.2)
    assert lrelu(np.array(3.0), 0.7) == 3.0
    assert lrelu(np.array(0.0), 0.01) == 0.0


def test_softmax_examples():
    npt.assert_allclose(softmax_rows(np.zeros((1, 3))), np.full((1, 3), 1 / 3))
    npt.assert_allclose(
        softmax_rows(np.array([[1.0, 2.0, 3.0]])),
        [[0.0900, 0.2447, 0.6652]], atol=1e-4)


@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-1e3, 1e3)),
       st.floats(-700, 700))
def test_softmax_shift_invariance_and_rows(x, shift):
    out = softmax_rows(x)
    npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert (out >= 0).all()
    npt.assert_allclose(softmax_rows(x + shift), out, atol=1e-9)


def test_softmax_extreme_logits_stay_finite():
    out = softmax_rows(np.array([[1e3, -1e3, 0.0], [1e-3, 2e-3, 800.0]]))
    assert np.isfinite(out).all()
    npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


def test_init_gaussian_deterministic():
    a = init_gaussian(7, 5, SeededRng(42))
    b = init_gaussian(7, 5, SeededRng(42))
    assert (a == b).all()
    assert init_gaussian(1, 1, SeededRng(0)).shape == (1, 1)


def test_init_gaussian_scale():
    m = init_gaussian(271, 271, SeededRng(3))
    expected = np.sqrt(2.0 / 542.0)
    assert abs(m.std() - expected) / expected < 0.10
    assert abs(m.mean()) < 0.01


def test_init_identity():
    npt.assert_array_equal(init_identity(3), np.diag([1.0, 1.0, 1.0]))
    m = SeededRng(1).normal(1.0, (3, 3))
    npt.assert_array_equal(init_identity(3) @ m, m)
    assert np.trace(init_identity(5)) == 5.0


def test_finite_diff_quadratic():
    g = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), 1e-5)
    npt.assert_allclose(g, [6.0], atol=1e-6)


def test_finite_diff_constant_and_bilinear():
    npt.assert_array_equal(
        finite_diff_grad(lambda t: 1.0, np.zeros(4)), np.zeros(4))
    g = finite_diff_grad(lambda t: float(t[0] * t[1]), np.array([2.0, 5.0]))
    npt.assert_allclose(g, [5.0, 2.0], atol=1e-6)


def test_finite_diff_reports_nonfinite():
    with pytest.raises(FloatingPointError):
        finite_diff_grad(lambda t: float("nan"), np.array([0.0]))


@settings(max_examples=25)
@given(finite_arrays)
def test_no_nan_inf_for_bounded_inputs(x):
    for out in (sigmoid(x), tanh_act(x), lrelu(x, 0.01)):
        assert np.isfinite(out).all()
