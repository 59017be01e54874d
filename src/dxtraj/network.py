"""Bidirectional recurrent architecture over the admission axis.

Two directional flows (stacks of identical cells) scan the admission sequence
in opposite temporal orders. At every step t their states are combined by a
joint layer

    h_joint = LReLU(h_fwd @ Vfwd + h_bwd @ Vbwd + b_joint, alpha_j)

and fed to the output layer

    yhat = softmax(LReLU(h_joint @ Wout + b_out, alpha_o))

over the code slots. Both LReLU slopes are trainable scalars. The backward
pass (full backpropagation through time, including the slopes and the optional
embedding) is hand-derived and verified against finite differences.

Packed layout: a batch is padded to (T, P) cells, and only the cells with
mask 1 are computed. Their rows are packed time-major, x[mask], so the rows of
step t are the patients flatnonzero(mask[t]) in order. A flow keeps its state
as a (P, hidden) array; each step gathers the rows of its active patients,
advances them and scatters them back, so an inactive patient carries its
state. The backward flow packs mask[::-1] the same way, and one index array
maps its rows to forward order. A layer's input terms x @ W + b are computed
for all of its rows before the time loop (cells.project_inputs), and its W
and b gradients after BPTT (cells.input_backward), so stacked layers run one
after the other. The joint and output layers run on the packed rows only;
forward() scatters yhat back to (T, P, |D|), with zeros at padded cells.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import cells
from .ehr_data import BatchTensor, ExtraFeatures, PatientRecord, CodeVocabulary, multi_hot
from .numerics import SeededRng, init_gaussian, init_identity, lrelu, softmax_rows

LOSS_EPS = 1e-8


# the head's trainable arrays, in flat() order after the two stacks
_HEAD = ("Vfwd", "Vbwd", "b_joint", "alpha_j", "Wout", "b_out", "alpha_o", "E")


@dataclass
class ModelParams:
    """Full trainable parameter set plus the structural metadata needed to
    rebuild it from a checkpoint.

    Every trainable array is a view into one float64 vector, theta, which
    lays the arrays out in sorted-name order (the checkpoint's order), so a
    whole model is copied, saved or loaded as one vector. Gradients and
    optimizer state use vectors with the same layout; views() names their
    parts."""
    cell_kind: str
    n_codes: int
    hidden: int
    layers: int
    extras: ExtraFeatures
    fwd: list            # per-layer dicts of cell parameters
    bwd: list
    Vfwd: np.ndarray     # (hid, hid)
    Vbwd: np.ndarray
    b_joint: np.ndarray  # (hid,)
    alpha_j: np.ndarray  # scalar, shape ()
    Wout: np.ndarray     # (hid, n_codes)
    b_out: np.ndarray    # (n_codes,)
    alpha_o: np.ndarray
    E: np.ndarray | None = None  # (n_codes, embed_dim) when embedding enabled
    duration_max: float = 0.0
    interval_max: float = 0.0
    vocab_labels: list = field(default_factory=list)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    # name -> (start, stop, shape) of each array in theta, in flat() order
    layout: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Copy the arrays given into theta and keep views of it instead."""
        cell_slots = [(f"{prefix}{l}.{k}", p, k)
                      for prefix, stack in (("fwd", self.fwd), ("bwd", self.bwd))
                      for l, p in enumerate(stack) for k in p]
        arrays = {name: p[k] for name, p, k in cell_slots}
        arrays.update((name, getattr(self, name)) for name in _HEAD
                      if getattr(self, name) is not None)
        start = {}
        size = 0
        for name in sorted(arrays):
            start[name] = size
            size += arrays[name].size
        self.layout = {name: (start[name], start[name] + a.size, a.shape)
                       for name, a in arrays.items()}
        self.theta = np.empty(size)
        views = self.flat()
        for name, a in arrays.items():
            views[name][...] = a
        for name, p, k in cell_slots:
            p[k] = views[name]
        for name in _HEAD:
            if name in views:
                setattr(self, name, views[name])

    @property
    def embed_dim(self) -> int:
        return 0 if self.E is None else self.E.shape[1]

    @property
    def input_width(self) -> int:
        base = self.embed_dim if self.E is not None else self.n_codes
        return base + self.extras.width

    def views(self, vec: np.ndarray) -> dict:
        """Name -> array view of the part of vec, a vector laid out like
        theta, that holds each parameter; in flat() order."""
        return {name: vec[lo:hi].reshape(shape)
                for name, (lo, hi, shape) in self.layout.items()}

    def flat(self) -> dict:
        """Name -> array view of every trainable parameter: the stacks layer
        by layer (fwd, then bwd), then the joint and output layers, then E.
        Mutating the arrays mutates the model."""
        return self.views(self.theta)


def init_model(cell_kind: str, n_codes: int, hidden: int, layers: int = 1,
               extras: ExtraFeatures | None = None, embed_dim: int | None = None,
               rng: SeededRng | None = None) -> ModelParams:
    """Weights: Gaussian for rectangular matrices, identity for square ones,
    zeros for biases, 0.01 for both LReLU slopes."""
    extras = extras or ExtraFeatures()
    rng = rng or SeededRng(0)
    E = init_gaussian(n_codes, embed_dim, rng) if embed_dim else None
    in0 = (embed_dim if embed_dim else n_codes) + extras.width
    fwd = [cells.init_params(cell_kind, in0 if l == 0 else hidden, hidden, rng)
           for l in range(layers)]
    bwd = [cells.init_params(cell_kind, in0 if l == 0 else hidden, hidden, rng)
           for l in range(layers)]
    return ModelParams(
        cell_kind=cell_kind, n_codes=n_codes, hidden=hidden, layers=layers,
        extras=extras, fwd=fwd, bwd=bwd,
        Vfwd=init_identity(hidden), Vbwd=init_identity(hidden),
        b_joint=np.zeros(hidden), alpha_j=np.array(0.01),
        Wout=init_gaussian(hidden, n_codes, rng), b_out=np.zeros(n_codes),
        alpha_o=np.array(0.01), E=E,
    )


# ---------------------------------------------------------------------------
# the worker thread

_worker = None
_worker_lock = threading.Lock()


def _forget_worker():
    global _worker
    _worker = None


# a forked child has no worker thread; it starts its own on first use
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def run_pair(here, there):
    """Call there() on the worker thread while here() runs on the calling
    thread, and return (here(), there()).

    The worker is one persistent thread, started on first use. Both calls
    have finished when run_pair returns or raises; an exception of either is
    raised, here()'s first. The two calls must not write the same arrays,
    and there() must not call run_pair itself. numpy ufuncs and BLAS release
    the interpreter lock, so two array-bound calls overlap on two cores.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="dxtraj-worker")
        future = _worker.submit(there)
    try:
        mine = here()
    except BaseException:
        wait([future])
        raise
    return mine, future.result()


# ---------------------------------------------------------------------------
# forward

def _pack(valid):
    """Layout of the packed rows of a (T, P) boolean mask: (P, steps), with
    one (lo, hi, rows) per step that has an active patient. Rows lo:hi belong
    to that step; rows holds the indices of its patients, or is None when
    every patient is active."""
    n_pat = valid.shape[1]
    steps = []
    lo = 0
    for t, n in enumerate(valid.sum(axis=1).tolist()):
        if n:
            rows = None if n == n_pat else np.flatnonzero(valid[t])
            steps.append((lo, lo + n, rows))
            lo += n
    return n_pat, steps


def _embed(model, x_rows):
    """Layer-0 input rows: the code slots replaced by their embedding when
    the model has one, extras kept."""
    if model.E is None:
        return x_rows
    d = model.n_codes
    return np.concatenate([x_rows[:, :d] @ model.E, x_rows[:, d:]], axis=1)


def _scan_direction(inp, layout, layer_params, cell_kind, hidden):
    """Run a stack of cells, one layer after the other, over the packed input
    rows of one direction (layout from _pack). Rows that no step of the
    layout covers get h = 0.

    Returns (top-layer h per row, per-layer input rows, per-layer step
    traces).
    """
    n_pat, steps = layout
    inputs, traces = [], []
    h_rows = inp
    for params in layer_params:
        inputs.append(h_rows)
        xw = cells.project_inputs(cell_kind, h_rows, params)
        h_rows = np.zeros((len(xw), hidden))  # rows no step covers stay 0
        state = cells.init_state(cell_kind, n_pat, hidden)
        owned = True  # no trace holds the state arrays, so they may be written
        layer_traces = []
        for lo, hi, rows in steps:
            if rows is None:
                state, tr = cells.step(cell_kind, xw[lo:hi], state, params)
                new = state
                owned = False
            else:
                new, tr = cells.step(cell_kind, xw[lo:hi],
                                     {k: v[rows] for k, v in state.items()},
                                     params)
                if not owned:
                    state = {k: v.copy() for k, v in state.items()}
                    owned = True
                for k, v in new.items():
                    state[k][rows] = v
            h_rows[lo:hi] = new["h"]
            layer_traces.append(tr)
        traces.append(layer_traces)
    return h_rows, inputs, traces


def _head(hf, hb, model, dropout=None):
    """Joint and output layers over rows; returns (j_pre, hj, out_pre, yhat)."""
    j_pre = hf @ model.Vfwd + hb @ model.Vbwd + model.b_joint
    hj = lrelu(j_pre, float(model.alpha_j))
    if dropout is not None:
        hj = hj * dropout
    out_pre = hj @ model.Wout + model.b_out
    yhat = softmax_rows(lrelu(out_pre, float(model.alpha_o)))
    return j_pre, hj, out_pre, yhat


def forward(batch: BatchTensor, model: ModelParams, dropout_mask=None) -> dict:
    """Full forward pass over the valid cells of a batch; the returned trace
    holds every intermediate needed by backward(). trace["yhat"] is
    (T, P, |D|) with zero rows at padded cells; trace["yhat_rows"] holds the
    valid rows, packed. dropout_mask, when given, is (T, P, hidden) and
    multiplies the joint-layer output (inverted-dropout convention, already
    scaled)."""
    x, mask = batch.x, batch.mask
    d = model.n_codes
    if x.shape[2] != d + model.extras.width:
        raise ValueError(
            f"batch feature width {x.shape[2]} does not match model "
            f"({d} codes + {model.extras.width} extras)")

    valid = mask != 0
    n_valid = int(valid.sum())
    pos = np.zeros(valid.shape, dtype=np.intp)
    pos[valid] = np.arange(n_valid)
    # rev[i] is the forward-order row of row i of the backward flow, whose
    # rows are packed from the step-reversed mask
    rev = pos[::-1][valid[::-1]]
    layout_f, layout_b = _pack(valid), _pack(valid[::-1])

    x_rows = x[valid]
    inp = _embed(model, x_rows)
    inp_rev = inp[rev]
    kind, hidden = model.cell_kind, model.hidden
    # the backward flow scans on the worker thread; hb[i] summarizes
    # admissions t..T-1 of the patient of row i
    (hf, in_f, tr_f), (hb_rev, in_b, tr_b) = run_pair(
        lambda: _scan_direction(inp, layout_f, model.fwd, kind, hidden),
        lambda: _scan_direction(inp_rev, layout_b, model.bwd, kind, hidden))
    hb = np.empty_like(hb_rev)
    hb[rev] = hb_rev

    dropout = None if dropout_mask is None else dropout_mask[valid]
    j_pre, hj, out_pre, yhat_rows = _head(hf, hb, model, dropout)
    yhat = np.zeros(mask.shape + (d,))
    yhat[valid] = yhat_rows

    return {
        "valid": valid, "rev": rev, "x_rows": x_rows,
        "layout_f": layout_f, "layout_b": layout_b,
        "inputs_f": in_f, "inputs_b": in_b, "traces_f": tr_f, "traces_b": tr_b,
        "hf": hf, "hb": hb, "j_pre": j_pre, "hj": hj, "out_pre": out_pre,
        "dropout": dropout, "yhat_rows": yhat_rows, "yhat": yhat,
    }


# ---------------------------------------------------------------------------
# backward

def _bptt_direction(d_top, layout, inputs, traces, layer_params, cell_kind,
                    grads, prefix, need_d_inp):
    """Backprop one directional stack over its packed rows, top layer first.
    d_top is the gradient flowing into the top layer's h at every row.
    Returns the gradient wrt the layer-0 input rows, or None when
    need_d_inp is false."""
    n_pat, steps = layout
    d_h = d_top
    for l in range(len(layer_params) - 1, -1, -1):
        params = layer_params[l]
        carry = cells.init_state(cell_kind, n_pat, d_h.shape[1])
        d_pre = None
        for (lo, hi, rows), tr in zip(reversed(steps), reversed(traces[l])):
            if rows is None:
                d_state = dict(carry)
                d_state["h"] = carry["h"] + d_h[lo:hi]
            else:
                d_state = {k: v[rows] for k, v in carry.items()}
                d_state["h"] += d_h[lo:hi]
            d_step, d_prev, d_params = cells.step_backward(
                cell_kind, tr, d_state, params)
            if d_pre is None:
                d_pre = np.empty((len(d_h), d_step.shape[1]))
            d_pre[lo:hi] = d_step
            for k, g in d_params.items():
                grads[f"{prefix}{l}.{k}"] += g
            if rows is None:
                carry = d_prev
            else:
                for k, v in d_prev.items():
                    carry[k][rows] = v
        d_h, d_params = cells.input_backward(
            cell_kind, inputs[l], d_pre, params, need_dx=l > 0 or need_d_inp)
        for k, g in d_params.items():
            grads[f"{prefix}{l}.{k}"] += g
    return d_h


def backward(trace: dict, batch: BatchTensor, model: ModelParams,
             grad: np.ndarray | None = None) -> dict:
    """Gradients of the masked-mean negated cross-entropy loss (see
    training.cross_entropy_loss) with respect to every parameter.

    The gradients are added to grad, a vector laid out like model.theta
    (zeros when None), and returned as model.views(grad). The two flows
    backpropagate concurrently, the backward flow on the worker thread; they
    write disjoint parts of grad.
    """
    if grad is None:
        grad = np.zeros_like(model.theta)
    grads = model.views(grad)
    n_valid = batch.mask.sum()
    if n_valid == 0:
        return grads

    yhat = trace["yhat_rows"]
    targets = batch.targets[trace["valid"]]
    yc = np.clip(yhat, LOSS_EPS, 1.0 - LOSS_EPS)
    inside = (yhat > LOSS_EPS) & (yhat < 1.0 - LOSS_EPS)
    d_yhat = -(targets / yc - (1.0 - targets) / (1.0 - yc)) / n_valid
    d_yhat = np.where(inside, d_yhat, 0.0)

    # softmax rows: d_z = y * (g - <g, y>)
    dot = np.sum(d_yhat * yhat, axis=-1, keepdims=True)
    d_out_act = yhat * (d_yhat - dot)

    out_pre = trace["out_pre"]
    alpha_o = float(model.alpha_o)
    d_out_pre = d_out_act * np.where(out_pre >= 0, 1.0, alpha_o)
    grads["alpha_o"] += np.sum(d_out_act * np.where(out_pre < 0, out_pre, 0.0))

    grads["Wout"] += trace["hj"].T @ d_out_pre
    grads["b_out"] += d_out_pre.sum(axis=0)
    d_hj = d_out_pre @ model.Wout.T

    if trace["dropout"] is not None:
        d_hj = d_hj * trace["dropout"]

    j_pre = trace["j_pre"]
    alpha_j = float(model.alpha_j)
    d_j_pre = d_hj * np.where(j_pre >= 0, 1.0, alpha_j)
    grads["alpha_j"] += np.sum(d_hj * np.where(j_pre < 0, j_pre, 0.0))

    grads["Vfwd"] += trace["hf"].T @ d_j_pre
    grads["Vbwd"] += trace["hb"].T @ d_j_pre
    grads["b_joint"] += d_j_pre.sum(axis=0)
    d_hf = d_j_pre @ model.Vfwd.T
    d_hb = d_j_pre @ model.Vbwd.T

    d_hb_rev = d_hb[trace["rev"]]
    kind = model.cell_kind
    embedded = model.E is not None
    d_inp, d_inp_rev = run_pair(
        lambda: _bptt_direction(d_hf, trace["layout_f"], trace["inputs_f"],
                                trace["traces_f"], model.fwd, kind, grads,
                                "fwd", embedded),
        lambda: _bptt_direction(d_hb_rev, trace["layout_b"],
                                trace["inputs_b"], trace["traces_b"],
                                model.bwd, kind, grads, "bwd", embedded))
    if embedded:
        d_inp[trace["rev"]] += d_inp_rev
        e = model.embed_dim
        grads["E"] += trace["x_rows"][:, :model.n_codes].T @ d_inp[:, :e]

    return grads


# ---------------------------------------------------------------------------
# prediction

def build_history_tensor(patient: PatientRecord, model: ModelParams,
                         vocab: CodeVocabulary) -> BatchTensor:
    """Single-patient tensor using every admission as an input step (no
    targets); normalization constants come from the trained model."""
    m = len(patient.admissions)
    d = len(vocab)
    ex = model.extras
    x = np.zeros((m, 1, d + ex.width))
    for i, adm in enumerate(patient.admissions):
        x[i, 0, :d] = multi_hot(adm.codes, vocab)
        col = d
        if ex.adm_type:
            from .ehr_data import ADMISSION_TYPES
            if adm.adm_type in ADMISSION_TYPES:
                x[i, 0, col + ADMISSION_TYPES.index(adm.adm_type)] = 1.0
            col += 4
        if ex.duration:
            if adm.duration is not None and model.duration_max > 0:
                x[i, 0, col] = adm.duration / model.duration_max
            col += 1
        if ex.interval:
            ivl = 0.0 if i == 0 else float(
                adm.timestamp - patient.admissions[i - 1].timestamp)
            if model.interval_max > 0:
                x[i, 0, col] = ivl / model.interval_max
            col += 1
    mask = np.ones((m, 1))
    return BatchTensor(x=x, mask=mask, targets=np.zeros((m, 1, d)),
                       patient_ids=[patient.patient_id],
                       duration_max=model.duration_max,
                       interval_max=model.interval_max)


def rank_codes(yhat_row: np.ndarray) -> np.ndarray:
    """Indices by descending probability; ties broken by ascending index."""
    return np.lexsort((np.arange(yhat_row.size), -yhat_row))


def predict_topk(model: ModelParams, history: PatientRecord,
                 vocab: CodeVocabulary, k: int) -> list:
    """Top-k (code index, probability) for the admission after the history.

    Only the last step is read, and the backward flow's state there has seen
    the last admission only, so its time loop runs over that one admission.
    The products over rows keep the shapes forward() gives them, because a
    BLAS result for one row can change in the last bit with the number of
    rows: the answer equals forward()'s last row exactly.
    """
    if not history.admissions:
        raise ValueError("empty admission history")
    if not (1 <= k <= len(vocab)):
        raise ValueError(f"k={k} out of range [1, {len(vocab)}]")
    batch = build_history_tensor(history, model, vocab)
    inp = _embed(model, batch.x[:, 0])
    # one patient, active at every step
    steps = [(t, t + 1, None) for t in range(len(inp))]
    hf = _scan_direction(inp, (1, steps), model.fwd, model.cell_kind,
                         model.hidden)[0]
    # a contiguous copy, laid out as forward()'s inp[rev]
    hb_rev = _scan_direction(inp[::-1].copy(), (1, steps[:1]), model.bwd,
                             model.cell_kind, model.hidden)[0]
    hb = np.zeros_like(hf)
    hb[-1] = hb_rev[0]
    probs = _head(hf, hb, model)[3][-1]
    order = rank_codes(probs)[:k]
    return [(int(i), float(probs[i])) for i in order]
