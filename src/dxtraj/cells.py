"""Recurrent and feed-forward cell kinds with single-step forward/backward.

Data orientation: rows are patients, columns are features. Gate g of a cell
has an input matrix W<g>, a bias b<g> and, in the recurrent kinds, a
recurrent matrix U<g>. The input term x @ W<g> + b<g> does not depend on the
state, so it is computed for all rows of a sequence at once, outside the time
loop (Appleyard et al. 2016); a step adds only the recurrent term:

    pre<g> = xw[:, block g] + h @ U<g>

Each kind is one entry of the table _CELLS (its gates, step functions, state
arrays and optional matrices), and these functions take the kind first:

    init_params(in_size, hid, rng)  -> dict of named arrays
    init_state(n_rows, hid)         -> dict of state arrays ("h" always present)
    is_recurrent()                  -> whether step reads its state
    project_inputs(x, params)       -> xw, the input terms of every gate,
                                       one column block per gate
    step(xw, state or None, params) -> (new_state, trace)
    step_backward(trace, state or None, d_state, params)
                                    -> (d_pre, d_state_prev or None, d_params)
    input_backward(x, d_pre, params, need_dx) -> (dx or None, d_params)

A step's trace holds only what the cell computed (gates, candidate, lstm's
tc and m), never a state array: the network keeps each state once, in its
packed rows, and step_backward takes the state that step took, gathered
again. No function writes its arguments (xw, state, trace, d_state, params).

state None is the zero state of a flow's first step, in step and in
step_backward alike. Such a step builds its gates from xw alone: it forms
no h @ U<g> nor any gated product of the state, all of them exact zeros. A
gate that multiplies only the state (gru's r, lstm's f) is not formed, and
its block of d_pre is zero. Adding an exact zero leaves a nonzero value as
it is, so the result equals that of a step from init_state() except, at
most, in the sign of an exact zero.

step_backward returns d_pre, the gradient with respect to a step's stacked
input terms (same layout as xw), the gradient with respect to the previous
state, and the gradients of the parameters a step reads: U<g>, and Wproj
for lstm_google. From the state None it returns None for the previous
state's gradient and no U<g> gradient; feedforward, which carries no state,
returns None at every step. input_backward turns the d_pre rows of a whole
sequence into the W<g> and b<g> gradients with one GEMM and, when asked,
into the gradient with respect to x.

The backward passes are hand-derived and are checked against central finite
differences in the test suite.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .numerics import SeededRng, init_gaussian, sigmoid

CELL_KINDS = ("mgru", "gru", "lstm", "lstm_google", "jordan", "feedforward")


# ---------------------------------------------------------------------------
# parameter construction

def init_params(kind: str, in_size: int, hid: int, rng: SeededRng) -> dict:
    """Per gate, in the cell's gate order: a Gaussian input matrix W<g>, an
    identity recurrent matrix U<g> (recurrent kinds) and a zero bias b<g>;
    then an identity Wproj for lstm_google."""
    cell = _cell(kind)
    p = {}
    for g in cell.gates:
        p["W" + g] = init_gaussian(in_size, hid, rng)
        if cell.recurrent:
            p["U" + g] = np.eye(hid)
        p["b" + g] = np.zeros(hid)
    if cell.proj:
        p["Wproj"] = np.eye(hid)
    return p


def param_count(kind: str, in_size: int, hid: int) -> int:
    """Exact number of trainable scalars for one cell."""
    cell = _cell(kind)
    per_gate = in_size * hid + cell.recurrent * hid * hid + hid
    return len(cell.gates) * per_gate + cell.proj * hid * hid


def init_state(kind: str, n_rows: int, hid: int) -> dict:
    return {k: np.zeros((n_rows, hid)) for k in _cell(kind).state}


def is_recurrent(kind: str) -> bool:
    """Whether a step of this kind reads its previous state; one that does
    not (feedforward) is always given the state None."""
    return _cell(kind).recurrent


# ---------------------------------------------------------------------------
# input terms, hoisted out of the time loop

def project_inputs(kind: str, x: np.ndarray, params: dict) -> np.ndarray:
    """x @ W<g> + b<g> for every gate g, stacked by columns: the xw that
    step() takes, for any number of rows."""
    gates = _cell(kind).gates
    w0 = params["W" + gates[0]]
    if x.shape[1] != w0.shape[0]:
        raise ValueError(
            f"input width {x.shape[1]} does not match weight rows {w0.shape[0]}")
    hid = w0.shape[1]
    xw = np.empty((x.shape[0], len(gates) * hid))
    for i, g in enumerate(gates):
        block = xw[:, i * hid:(i + 1) * hid]
        np.matmul(x, params["W" + g], out=block)
        block += params["b" + g]
    return xw


def input_backward(kind: str, x: np.ndarray, d_pre: np.ndarray, params: dict,
                   need_dx: bool = True):
    """W<g> and b<g> gradients from the inputs x and the stacked d_pre rows
    of the same steps; dx = sum over g of d_pre[:, block g] @ W<g>.T, or None
    when need_dx is false."""
    gates = _cell(kind).gates
    hid = d_pre.shape[1] // len(gates)
    d_w = x.T @ d_pre
    d_b = d_pre.sum(axis=0)
    grads = {}
    dx = None
    for i, g in enumerate(gates):
        cols = slice(i * hid, (i + 1) * hid)
        grads["W" + g] = d_w[:, cols]
        grads["b" + g] = d_b[cols]
        if need_dx:
            term = d_pre[:, cols] @ params["W" + g].T
            if dx is None:
                dx = term
            else:
                dx += term
    return dx, grads


# ---------------------------------------------------------------------------
# steps

def step(kind: str, xw: np.ndarray, state: dict | None, params: dict):
    cell = _cell(kind)
    hid = params["b" + cell.gates[0]].shape[0]
    if xw.shape[1] != len(cell.gates) * hid:
        raise ValueError(
            f"input width {xw.shape[1]} does not match {len(cell.gates)} "
            f"gate(s) of width {hid}")
    if state is not None and xw.shape[0] != state["h"].shape[0]:
        raise ValueError(
            f"batch size mismatch: xw has {xw.shape[0]} rows, h_prev has "
            f"{state['h'].shape[0]}")
    return cell.step(xw, state, params)


def step_backward(kind: str, trace: dict, state: dict | None, d_state: dict,
                  params: dict):
    return _cell(kind).backward(trace, state, d_state, params)


def _mgru_step(xw, state, p):
    hid = xw.shape[1] // 2
    if state is None:
        f = sigmoid(xw[:, :hid])
        hc = np.tanh(xw[:, hid:])
        return {"h": f * hc}, {"f": f, "hc": hc}
    h_prev = state["h"]
    f = sigmoid(xw[:, :hid] + h_prev @ p["Uf"])
    hc = np.tanh(xw[:, hid:] + (f * h_prev) @ p["Uh"])
    h = (1.0 - f) * h_prev + f * hc
    # f * h_prev is recomputed by the backward step, with the same bits
    return {"h": h}, {"f": f, "hc": hc}


def _mgru_backward(tr, state, d_state, p):
    f, hc = tr["f"], tr["hc"]
    d_h = d_state["h"]
    d_hc = d_h * f
    d_ah = d_hc * (1.0 - hc * hc)
    if state is None:
        d_af = d_h * hc * f * (1.0 - f)
        return np.concatenate([d_af, d_ah], axis=1), None, {}
    h_prev = state["h"]
    d_fh = d_ah @ p["Uh"].T
    d_f = d_h * (hc - h_prev) + d_fh * h_prev
    d_af = d_f * f * (1.0 - f)
    d_h_prev = d_h * (1.0 - f) + d_fh * f + d_af @ p["Uf"].T
    grads = {"Uf": h_prev.T @ d_af, "Uh": (f * h_prev).T @ d_ah}
    return np.concatenate([d_af, d_ah], axis=1), {"h": d_h_prev}, grads


def _gru_step(xw, state, p):
    hid = xw.shape[1] // 3
    if state is None:  # the reset gate r multiplies the zero state only
        z = sigmoid(xw[:, :hid])
        hc = np.tanh(xw[:, 2 * hid:])
        return {"h": z * hc}, {"z": z, "hc": hc}
    h_prev = state["h"]
    z = sigmoid(xw[:, :hid] + h_prev @ p["Uz"])
    r = sigmoid(xw[:, hid:2 * hid] + h_prev @ p["Ur"])
    hc = np.tanh(xw[:, 2 * hid:] + (r * h_prev) @ p["Uh"])
    h = (1.0 - z) * h_prev + z * hc
    # r * h_prev is recomputed by the backward step, with the same bits
    return {"h": h}, {"z": z, "r": r, "hc": hc}


def _gru_backward(tr, state, d_state, p):
    z, hc = tr["z"], tr["hc"]
    d_h = d_state["h"]
    d_hc = d_h * z
    d_ah = d_hc * (1.0 - hc * hc)
    if state is None:
        d_az = d_h * hc * z * (1.0 - z)
        return (np.concatenate([d_az, np.zeros_like(d_az), d_ah], axis=1),
                None, {})
    h_prev, r = state["h"], tr["r"]
    d_rh = d_ah @ p["Uh"].T
    d_z = d_h * (hc - h_prev)
    d_az = d_z * z * (1.0 - z)
    d_r = d_rh * h_prev
    d_ar = d_r * r * (1.0 - r)
    d_h_prev = d_h * (1.0 - z) + d_rh * r + d_az @ p["Uz"].T + d_ar @ p["Ur"].T
    grads = {"Uz": h_prev.T @ d_az, "Ur": h_prev.T @ d_ar,
             "Uh": (r * h_prev).T @ d_ah}
    return np.concatenate([d_az, d_ar, d_ah], axis=1), {"h": d_h_prev}, grads


def _lstm_step(xw, state, p):
    """LSTM step. With a recurrent projection Wproj (lstm_google, Sak et al.
    2014) the exposed state is h = m @ Wproj, m = o * tanh(c) being the
    plain LSTM's output, and it is h that drives the gates. From the zero
    state the forget gate multiplies c_prev = 0 only, so it is not formed."""
    hid = xw.shape[1] // 4
    if state is None:
        i = sigmoid(xw[:, :hid])
        o = sigmoid(xw[:, 2 * hid:3 * hid])
        g = np.tanh(xw[:, 3 * hid:])
        c = i * g
        trace = {"i": i, "o": o, "g": g}
    else:
        h_prev, c_prev = state["h"], state["c"]
        i = sigmoid(xw[:, :hid] + h_prev @ p["Ui"])
        f = sigmoid(xw[:, hid:2 * hid] + h_prev @ p["Uf"])
        o = sigmoid(xw[:, 2 * hid:3 * hid] + h_prev @ p["Uo"])
        g = np.tanh(xw[:, 3 * hid:] + h_prev @ p["Ug"])
        c = f * c_prev + i * g
        trace = {"i": i, "f": f, "o": o, "g": g}
    tc = trace["tc"] = np.tanh(c)
    h = o * tc
    if "Wproj" in p:
        trace["m"] = h
        h = h @ p["Wproj"]
    return {"h": h, "c": c}, trace


def _lstm_backward(tr, state, d_state, p):
    i, o, g, tc = tr["i"], tr["o"], tr["g"], tr["tc"]
    d_h = d_state["h"]
    d_m = d_h @ p["Wproj"].T if "m" in tr else d_h
    d_c = d_state["c"] + d_m * o * (1.0 - tc * tc)
    d_ai = d_c * g * i * (1.0 - i)
    d_ao = d_m * tc * o * (1.0 - o)
    d_ag = d_c * i * (1.0 - g * g)
    if state is not None:
        h_prev, f = state["h"], tr["f"]
        d_af = d_c * state["c"] * f * (1.0 - f)
        d_prev = {"h": d_ai @ p["Ui"].T + d_af @ p["Uf"].T + d_ao @ p["Uo"].T
                  + d_ag @ p["Ug"].T, "c": d_c * f}
        grads = {"Ui": h_prev.T @ d_ai, "Uf": h_prev.T @ d_af,
                 "Uo": h_prev.T @ d_ao, "Ug": h_prev.T @ d_ag}
    else:
        d_af, d_prev, grads = np.zeros_like(d_ai), None, {}
    if "m" in tr:
        grads["Wproj"] = tr["m"].T @ d_h
    return np.concatenate([d_ai, d_af, d_ao, d_ag], axis=1), d_prev, grads


def _tanh_step(xw, state, p):
    """One tanh layer: feedforward, which reads no state, or jordan, the
    classical output-feedback recurrence, whose state fed back is the
    cell's previous output activation (U in the params)."""
    h = np.tanh(xw if state is None or "U" not in p
                else xw + state["h"] @ p["U"])
    return {"h": h}, {"h": h}


def _tanh_backward(tr, state, d_state, p):
    d_a = d_state["h"] * (1.0 - tr["h"] * tr["h"])
    if state is None or "U" not in p:
        return d_a, None, {}
    return d_a, {"h": d_a @ p["U"].T}, {"U": state["h"].T @ d_a}


class _Cell(NamedTuple):
    gates: tuple             # gate suffixes, in the column order of xw
    step: Callable
    backward: Callable
    recurrent: bool = True   # a U<g> per gate
    state: tuple = ("h",)    # names of the state arrays
    proj: bool = False       # a recurrent projection Wproj


_CELLS = {
    "mgru": _Cell(("f", "h"), _mgru_step, _mgru_backward),
    "gru": _Cell(("z", "r", "h"), _gru_step, _gru_backward),
    "lstm": _Cell(("i", "f", "o", "g"), _lstm_step, _lstm_backward,
                  state=("h", "c")),
    "lstm_google": _Cell(("i", "f", "o", "g"), _lstm_step, _lstm_backward,
                         state=("h", "c"), proj=True),
    "jordan": _Cell(("",), _tanh_step, _tanh_backward),
    "feedforward": _Cell(("",), _tanh_step, _tanh_backward, recurrent=False),
}


def _cell(kind: str):
    try:
        return _CELLS[kind]
    except KeyError:
        raise ValueError(f"unknown cell kind: {kind}") from None
