import numpy as np
import numpy.testing as npt
import pytest

from dxtraj import cells
from dxtraj.cells import CELL_KINDS
from dxtraj.numerics import SeededRng, finite_diff_grad, max_relative_error

MGRU_SCALAR = 0.2885901  # sigma(0.2)=0.549834, tanh(0.2)=0.197375, update by hand


def scalar_mgru_params():
    return {
        "Wf": np.array([[1.0]]), "Uf": np.array([[0.0]]), "bf": np.zeros(1),
        "Wh": np.array([[1.0]]), "Uh": np.array([[0.0]]), "bh": np.zeros(1),
    }


def mgru(x, h_prev, params):
    """One minimal-GRU step on raw inputs x."""
    xw = cells.project_inputs("mgru", x, params)
    return cells.step("mgru", xw, {"h": h_prev}, params)


def test_mgru_scalar_oracle():
    state, _ = mgru(np.array([[0.2]]), np.array([[0.4]]), scalar_mgru_params())
    assert abs(state["h"][0, 0] - MGRU_SCALAR) < 1e-6


def test_mgru_zero_params():
    zero = {k: np.zeros_like(v) for k, v in scalar_mgru_params().items()}
    v = np.array([[0.8, -0.3]])
    zero2 = {k: np.zeros((2, 2)) if v_.ndim == 2 else np.zeros(2)
             for k, v_ in cells.init_params("mgru", 2, 2, SeededRng(0)).items()}
    state, _ = mgru(np.zeros((1, 2)), v, zero2)
    # all-zero weights: f = 0.5 everywhere, candidate = 0, h = 0.5 * h_prev
    npt.assert_allclose(state["h"], 0.5 * v)
    state, _ = mgru(np.array([[0.0]]), np.array([[0.0]]), zero)
    npt.assert_allclose(state["h"], 0.0)


def test_mgru_convex_combination():
    rng = SeededRng(4)
    p = cells.init_params("mgru", 3, 3, rng)
    x = rng.normal(1.0, (5, 3))
    h_prev = rng.normal(1.0, (5, 3))
    state, tr = mgru(x, h_prev, p)
    lo = np.minimum(h_prev, tr["hc"])
    hi = np.maximum(h_prev, tr["hc"])
    assert (state["h"] >= lo - 1e-12).all() and (state["h"] <= hi + 1e-12).all()


def test_mgru_forced_gate_limits():
    # f == 1 returns the candidate exactly; f == 0 returns h_prev exactly
    rng = SeededRng(9)
    p = cells.init_params("mgru", 2, 2, rng)
    x = rng.normal(1.0, (3, 2))
    h_prev = rng.normal(1.0, (3, 2))
    for forced, expect_candidate in ((1.0, True), (0.0, False)):
        _, tr = mgru(x, h_prev, p)
        f = np.full_like(tr["f"], forced)
        h = (1 - f) * h_prev + f * tr["hc"]
        npt.assert_array_equal(h, tr["hc"] if expect_candidate else h_prev)


def test_backward_zero_and_linearity():
    rng = SeededRng(2)
    p = cells.init_params("mgru", 3, 4, rng)
    x = rng.normal(1.0, (2, 3))
    h_prev = rng.normal(1.0, (2, 4))
    _, tr = mgru(x, h_prev, p)
    state = {"h": h_prev}  # the state the step took
    d_pre, dprev, grads = cells.step_backward(
        "mgru", tr, state, {"h": np.zeros((2, 4))}, p)
    assert not d_pre.any() and not dprev["h"].any()
    assert all(not g.any() for g in grads.values())

    d = rng.normal(1.0, (2, 4))
    d1, dp1, g1 = cells.step_backward("mgru", tr, state, {"h": d}, p)
    d2, dp2, g2 = cells.step_backward("mgru", tr, state, {"h": 2.0 * d}, p)
    npt.assert_allclose(d2, 2.0 * d1, atol=1e-12)
    npt.assert_allclose(dp2["h"], 2.0 * dp1["h"], atol=1e-12)
    for k in g1:
        npt.assert_allclose(g2[k], 2.0 * g1[k], atol=1e-12)


def _flat_check(objective, arrays, analytic):
    """Max relative error between the analytic gradients and central finite
    differences of objective over the named arrays."""
    names = sorted(arrays)
    sizes = [arrays[n].size for n in names]
    offsets = np.cumsum([0] + sizes)
    theta0 = np.concatenate([arrays[n].ravel() for n in names])

    def unpack(theta):
        return {n: theta[lo:hi].reshape(arrays[n].shape)
                for n, lo, hi in zip(names, offsets[:-1], offsets[1:])}

    numeric = finite_diff_grad(lambda th: objective(unpack(th)), theta0, 1e-5)
    flat = np.concatenate([analytic[n].ravel() for n in names])
    assert flat.size == theta0.size
    return max_relative_error(flat, numeric)


def _step_gradcheck(kind, in_size, hid, n_pat, seed, zero_state=False):
    """Finite-difference check of a single step over its projected inputs xw,
    the biases added to them, its state and the parameters a step reads;
    the scalar loss is a fixed random projection of every state array.
    With zero_state the step starts from the state None, which has no
    coordinates, and every U<g> must get a zero gradient."""
    rng = SeededRng(seed)
    params = cells.init_params(kind, in_size, hid, rng)
    for v in params.values():
        v += rng.normal(0.4, v.shape)
    x = rng.normal(1.0, (n_pat, in_size))
    xw = cells.project_inputs(kind, x, params)
    state0 = cells.init_state(kind, n_pat, hid)
    for v in state0.values():
        v += rng.normal(0.7, v.shape)
    weights = {k: rng.normal(1.0, (n_pat, hid)) for k in state0}
    if zero_state:
        state0 = {}
    biases = sorted(k for k in params if k.startswith("b"))
    step_params = [k for k in params if not k.startswith(("W", "b"))]
    step_params += ["Wproj"] if "Wproj" in params else []

    arrays = {"xw": xw, **{f"state.{k}": v for k, v in state0.items()},
              **{k: params[k] for k in biases + step_params}}

    def objective(a):
        p = {**params, **{k: a[k] for k in biases + step_params}}
        # the biases enter through the projected inputs: shift xw by the
        # change of project_inputs at x = 0
        zero = np.zeros_like(x)
        xw_b = a["xw"] + (cells.project_inputs(kind, zero, p)
                          - cells.project_inputs(kind, zero, params))
        st = {k: a[f"state.{k}"] for k in state0} or None
        new_state, _ = cells.step(kind, xw_b, st, p)
        return float(sum(np.sum(weights[k] * new_state[k]) for k in new_state))

    _, trace = cells.step(kind, xw, state0 or None, params)
    d_state = dict(weights)
    d_pre, d_prev, grads = cells.step_backward(kind, trace, state0 or None,
                                               d_state, params)
    _, in_grads = cells.input_backward(kind, x, d_pre, params, need_dx=False)
    if d_prev is None:  # no gradient flows to the previous state
        d_prev = {k: np.zeros_like(v) for k, v in state0.items()}
    analytic = {"xw": d_pre, **{f"state.{k}": v for k, v in d_prev.items()},
                **{k: grads.get(k, in_grads.get(k, np.zeros_like(params[k])))
                   for k in biases + step_params}}
    return _flat_check(objective, arrays, analytic)


def _input_terms_gradcheck(kind, in_size, hid, n_rows, seed):
    """Finite-difference check of project_inputs/input_backward over x and
    every W and b; the loss is a fixed random projection of xw."""
    rng = SeededRng(seed)
    params = cells.init_params(kind, in_size, hid, rng)
    for v in params.values():
        v += rng.normal(0.4, v.shape)
    x = rng.normal(1.0, (n_rows, in_size))
    inputs = [k for k in params if k.startswith(("W", "b")) and k != "Wproj"]
    weight = rng.normal(1.0, cells.project_inputs(kind, x, params).shape)

    def objective(a):
        p = {**params, **{k: a[k] for k in inputs}}
        return float(np.sum(weight * cells.project_inputs(kind, a["x"], p)))

    dx, grads = cells.input_backward(kind, x, weight, params)
    arrays = {"x": x, **{k: params[k] for k in inputs}}
    return _flat_check(objective, arrays, {"x": dx, **grads})


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("dims", [(2, 3, 2), (5, 4, 3), (1, 1, 1)])
def test_step_gradients_match_finite_differences(kind, dims):
    in_size, hid, n_pat = dims
    for zero_state in (False, True):
        err = _step_gradcheck(kind, in_size, hid, n_pat,
                              seed=hash(dims) % 1000, zero_state=zero_state)
        assert err <= 1e-4, f"{kind} {dims} {zero_state=}: rel err {err}"


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("dims", [(2, 3, 2), (5, 4, 3), (1, 1, 1)])
def test_input_term_gradients_match_finite_differences(kind, dims):
    in_size, hid, n_rows = dims
    err = _input_terms_gradcheck(kind, in_size, hid, n_rows,
                                 seed=hash(dims) % 1000)
    assert err <= 1e-4, f"{kind} {dims}: rel err {err}"


def test_feedforward_zero_params():
    p = {"W": np.zeros((3, 2)), "b": np.zeros(2)}
    xw = cells.project_inputs("feedforward", np.ones((4, 3)), p)
    state, _ = cells.step("feedforward", xw, {"h": np.zeros((4, 2))}, p)
    npt.assert_array_equal(state["h"], 0.0)


def test_param_count_formulas():
    d, n = 7, 5
    block = d * n + n * n + n
    assert cells.param_count("mgru", d, n) == 2 * block
    assert cells.param_count("gru", d, n) == 3 * block
    assert cells.param_count("lstm", d, n) == 4 * block
    assert cells.param_count("lstm_google", d, n) == 4 * block + n * n
    assert cells.param_count("jordan", d, n) == block
    assert cells.param_count("mgru", 1, 1) == 6


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_param_count_matches_actual_arrays(kind):
    params = cells.init_params(kind, 6, 4, SeededRng(0))
    assert sum(v.size for v in params.values()) == cells.param_count(kind, 6, 4)


def test_param_count_ordering():
    d = n = 271
    counts = {k: cells.param_count(k, d, n) for k in CELL_KINDS}
    assert counts["jordan"] < counts["mgru"] < counts["gru"] \
        < counts["lstm"] <= counts["lstm_google"]


def test_shape_mismatch_raises():
    p = cells.init_params("mgru", 3, 4, SeededRng(0))
    with pytest.raises(ValueError):
        cells.step("mgru", np.zeros((2, 5)), {"h": np.zeros((2, 4))}, p)
    with pytest.raises(ValueError):
        cells.step("mgru", np.zeros((2, 3)), {"h": np.zeros((3, 4))}, p)
    for kind in CELL_KINDS:  # the zero state has no width to compare with
        p = cells.init_params(kind, 3, 4, SeededRng(0))
        with pytest.raises(ValueError, match="input width"):
            cells.step(kind, np.zeros((2, 5)), None, p)


def test_step_deterministic():
    rng = SeededRng(8)
    p = cells.init_params("gru", 3, 3, rng)
    xw = cells.project_inputs("gru", rng.normal(1.0, (2, 3)), p)
    s = {"h": rng.normal(1.0, (2, 3))}
    a, _ = cells.step("gru", xw, s, p)
    b, _ = cells.step("gru", xw, s, p)
    npt.assert_array_equal(a["h"], b["h"])


@pytest.mark.parametrize("kind, keys", [
    ("mgru", {"f", "hc"}),              # no fh = f * h_prev
    ("gru", {"z", "r", "hc"}),          # no rh = r * h_prev
    ("lstm", {"i", "f", "o", "g", "tc"}),
    ("lstm_google", {"i", "f", "o", "g", "tc", "m"}),
    ("jordan", {"h"}),
    ("feedforward", {"h"}),
])
def test_step_trace_keeps_no_recomputable_product(kind, keys):
    # a trace holds what the cell computed and no state: the backward step
    # takes the state and recomputes the gated state from it. From the zero
    # state gru forms no reset gate and lstm no forget gate
    rng = SeededRng(9)
    p = cells.init_params(kind, 3, 4, rng)
    xw = cells.project_inputs(kind, rng.normal(1.0, (2, 3)), p)
    state = {k: rng.normal(1.0, (2, 4)) for k in cells.init_state(kind, 2, 4)}
    _, trace = cells.step(kind, xw, state, p)
    assert set(trace) == keys
    _, trace = cells.step(kind, xw, None, p)
    assert set(trace) == keys - ({"r"} if kind == "gru" else
                                 {"f"} if kind.startswith("lstm") else set())


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_zero_state_step_equals_a_step_from_init_state(kind):
    rng = SeededRng(13)
    p = cells.init_params(kind, 5, 6, rng)
    for v in p.values():
        v += rng.normal(0.4, v.shape)
    xw = cells.project_inputs(kind, rng.normal(1.0, (3, 5)), p)
    state = cells.init_state(kind, 3, 6)
    new0, tr0 = cells.step(kind, xw, None, p)
    new, tr = cells.step(kind, xw, state, p)
    assert set(new0) == set(new)
    for k in new:
        assert new0[k].tobytes() == new[k].tobytes(), k
    for t in (tr0, tr):
        assert not {"h_prev", "c_prev", "s_prev"} & set(t)

    # each backward step takes the state its step took
    d_state = {k: rng.normal(1.0, (3, 6)) for k in new}
    d_pre0, d_prev0, grads0 = cells.step_backward(kind, tr0, None, d_state, p)
    d_pre, d_prev, grads = cells.step_backward(kind, tr, state, d_state, p)
    # equal values of finite floats are equal bits, but for the sign of a
    # zero: gru's r and lstm's f multiply the zero state only, and their
    # blocks of d_pre are +0 here and signed zeros from init_state
    npt.assert_array_equal(d_pre0, d_pre)
    assert d_prev0 is None
    assert set(grads0) == ({"Wproj"} if "Wproj" in p else set())
    for k, g in grads0.items():
        assert g.tobytes() == grads[k].tobytes(), k


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("zero_state", [True, False])
def test_steps_never_write_their_arguments(kind, zero_state):
    # the network passes views of its packed state rows, so a step and its
    # backward step must take every argument read-only; the backward step
    # gets the same read-only state as the step
    rng = SeededRng(17)
    p = cells.init_params(kind, 5, 6, rng)
    for v in p.values():
        v += rng.normal(0.4, v.shape)
    xw = cells.project_inputs(kind, rng.normal(1.0, (3, 5)), p)
    names = cells.init_state(kind, 3, 6)
    state = None if zero_state else {k: rng.normal(0.7, (3, 6))
                                     for k in names}
    d_state = {k: rng.normal(1.0, (3, 6)) for k in names}
    args = [xw, *p.values(), *(state or {}).values(), *d_state.values()]
    for a in args:
        a.flags.writeable = False
    _, trace = cells.step(kind, xw, state, p)
    for a in trace.values():
        a.flags.writeable = False
    cells.step_backward(kind, trace, state, d_state, p)
