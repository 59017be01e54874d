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

Packed layout: a batch stores only the (T, P) cells that its boolean mask
marks valid, their rows packed time-major (BatchTensor): the rows of step t
are the patients flatnonzero(mask[t]) in order. Each flow has a Layout
(_layouts): its steps, and src, the forward-order row that each of its rows
stands for. The forward flow packs the mask and the backward flow
mask[::-1], the same way (_pack); each gathers its layer-0 input rows at src
and scatters its top rows back to forward order. A flow keeps no per-patient
state: each layer writes its states to its rows, plus a last row that holds
the zero state, and a step reads its previous states from the rows that its
layout names: those of its patients' latest earlier cells, or the zero row.
BPTT gathers them again, and adds the step's previous-state gradient to the
rows of its gradient. The first step of every layer, and every step of a
kind that reads no state (cells.is_recurrent), pass the state None to
cells.step: such a step forms no recurrent product, and in BPTT it ends the
carry. A layer's input terms x @ W + b are computed for all of its rows
before the time loop (cells.project_inputs), and its W and b gradients after
BPTT (cells.input_backward), so stacked layers run one after the other.

Two threads: forward() and backward() run each phase as one function per
flow, the forward flow's on the calling thread and the backward flow's on
one worker thread (run_pair). Each flow ends (forward) or starts (backward)
with its own products of the joint layer: h @ V, and in backward() its V
gradient and the gradient into its top layer. The row-wise work of the head
(the joint and output LReLUs, dropout, softmax, the loss gradient, and the
summands of the slope gradients) runs by halves of the rows, one half on
each thread (run_by_halves). hj @ Wout and d_out_pre @ Wout.T stay on the
caller; in backward() the Wout, b_out and alpha_o gradients run on the
worker beside the latter. A product is never split by rows: with this BLAS,
a row of a matrix product can change in the last bit with the number of
rows in the call, so every product keeps its full shape and every reduction
runs over the whole array, and the trained weights do not depend on the
threads.

Memory: the trace of forward() holds what backward() cannot rebuild
cheaply: each flow's layout, its layers' state rows, the only copy of its
states, and its step traces, which hold no state; j_pre, out_pre and
yhat_rows, and, by reference, the caller's dropout and code_noise rows
(with an embedding, also the code rows that E multiplies). backward()
rebuilds, by the same ops and so with the same bits, each step's previous
state, the top rows in forward order, hj = LReLU(j_pre) times dropout for
the Wout gradient, and each flow's float64 layer-0 input rows (_embed,
gathered at src) just before its layer-0 input_backward, once that layer's
d_rows are released. It holds the head's gradient buffers (d_out_pre and
the summands of the slope gradients) only until d_j_pre is formed and the
slope gradients are summed, and d_j_pre only until both flows have taken
their top-layer gradients, each of which BPTT then holds once, in d_rows.
It reads the trace and never writes it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cells
from .ehr_data import (BatchTensor, CodeVocabulary, ExtraFeatures,
                       PatientRecord, build_batch)
from .numerics import SeededRng, init_gaussian, lrelu, softmax_rows

LOSS_EPS = 1e-8

# The largest parameter vector the library builds: 2**31 bytes, about 330
# times the acceptance-size model. Training holds five vectors of its size
# (theta, the gradient, ADADELTA's two accumulators, the best epoch's copy),
# so a larger model cannot train in the memory of one machine; init_model
# refuses it before it allocates anything.
MAX_THETA_BYTES = 2**31


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
    zeros for biases, 0.01 for both LReLU slopes. With rng None nothing is
    drawn and the Gaussian matrices are zeros: the structure of a model whose
    values are about to be overwritten (checkpoint loading). A model whose
    theta would exceed MAX_THETA_BYTES is a ValueError."""
    n_bytes = 8 * param_count(cell_kind, n_codes, hidden, layers, extras,
                              embed_dim)
    if n_bytes > MAX_THETA_BYTES:
        raise ValueError(f"a {cell_kind} model of hidden size {hidden}, "
                         f"{layers} layer(s) and {n_codes} codes needs "
                         f"{n_bytes} bytes of weights, above the limit of "
                         f"{MAX_THETA_BYTES}")
    extras = extras or ExtraFeatures()
    E = init_gaussian(n_codes, embed_dim, rng) if embed_dim else None
    in0 = (embed_dim if embed_dim else n_codes) + extras.width
    fwd = [cells.init_params(cell_kind, in0 if l == 0 else hidden, hidden, rng)
           for l in range(layers)]
    bwd = [cells.init_params(cell_kind, in0 if l == 0 else hidden, hidden, rng)
           for l in range(layers)]
    return ModelParams(
        cell_kind=cell_kind, n_codes=n_codes, hidden=hidden, layers=layers,
        extras=extras, fwd=fwd, bwd=bwd,
        Vfwd=np.eye(hidden), Vbwd=np.eye(hidden),
        b_joint=np.zeros(hidden), alpha_j=np.array(0.01),
        Wout=init_gaussian(hidden, n_codes, rng), b_out=np.zeros(n_codes),
        alpha_o=np.array(0.01), E=E,
    )


def param_count(cell_kind: str, n_codes: int, hidden: int, layers: int = 1,
                extras: ExtraFeatures | None = None,
                embed_dim: int | None = None) -> int:
    """Size of the theta of init_model(...) with these arguments, computed
    without building the model, in time that does not grow with layers."""
    extras = extras or ExtraFeatures()
    in0 = (embed_dim if embed_dim else n_codes) + extras.width
    # per flow: layer 0 reads the input, the layers - 1 above it the states
    flows = 2 * (cells.param_count(cell_kind, in0, hidden) + (layers - 1)
                 * cells.param_count(cell_kind, hidden, hidden))
    head = 2 * hidden * hidden + hidden + 1 + hidden * n_codes + n_codes + 1
    return (n_codes * embed_dim if embed_dim else 0) + flows + head


# ---------------------------------------------------------------------------
# the worker thread

_worker = None
_worker_ident = None  # thread id of the worker, once it has started
_worker_lock = threading.Lock()


def _forget_worker():
    global _worker, _worker_ident
    _worker = _worker_ident = None


def _mark_worker():
    global _worker_ident
    _worker_ident = threading.get_ident()


# a forked child has no worker thread; it starts its own on first use
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def run_pair(here, there):
    """Call there() on the worker thread while here() runs on the calling
    thread, and return (here(), there()).

    The worker is one persistent thread, started on first use. Both calls
    have finished when run_pair returns or raises; an exception of either is
    raised, here()'s first. The two calls must not write the same arrays.
    Called on the worker itself (from inside a there()), run_pair runs
    here() and then there() inline, since a task queued behind the running
    one would never start. numpy ufuncs and BLAS release the interpreter
    lock, so two array-bound calls overlap on two cores.
    """
    global _worker
    if threading.get_ident() == _worker_ident:
        return here(), there()
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="dxtraj-worker",
                                         initializer=_mark_worker)
        future = _worker.submit(there)
    try:
        mine = here()
    except BaseException:
        wait([future])
        raise
    return mine, future.result()


# Rows from which the head's row-wise work is split between the two threads.
# A forward, loss and backward of a one-step batch (mgru, |D| = hidden = 271,
# 1 BLAS thread, 2-core EPYC VM, medians of 150) took 1.47 ms inline and
# 1.56 ms split at 32 rows, 3.92 and 3.90 ms at 64, 11.8 and 10.7 ms at 256.
HEAD_SPLIT_ROWS = 64


def run_by_halves(n, work):
    """work(rows), rows a slice of 0:n: the first half of the rows on this
    thread and the second on the worker, or all n rows in one call on this
    thread when n < HEAD_SPLIT_ROWS. For row-wise work (elementwise
    arithmetic and reductions along a row) both give the same bits. Products
    are never split this way: with this BLAS a row of a matrix product can
    change in the last bit with the number of rows in the call."""
    if n < HEAD_SPLIT_ROWS:
        work(slice(0, n))
    else:
        half = n // 2
        run_pair(lambda: work(slice(0, half)), lambda: work(slice(half, n)))


# ---------------------------------------------------------------------------
# forward

class Layout(NamedTuple):
    """The rows of one flow: steps holds a (lo, hi, prev) per step (_pack);
    src[i] is the forward-order row (the batch's) that row i of the flow
    stands for, and None means the flow's rows are in forward order."""
    steps: list
    src: np.ndarray | None


# the model's two stacks, forward flow first: ModelParams.fwd and .bwd,
# their joint matrices "V" + name, and the prefix of their gradient names
FLOWS = ("fwd", "bwd")


def _pack(valid):
    """Steps of the packed rows of a (T, P) boolean mask: one (lo, hi, prev)
    per step that has an active patient. Rows lo:hi belong to that step.
    prev[i] is the row of the latest earlier cell of the patient of row
    lo + i, or n_valid, the zero state's row, when there is none; prev is
    None at the first step, where every row starts from the zero state."""
    n_valid = int(valid.sum())
    row = np.full(valid.shape, -1, dtype=np.intp)
    row[valid] = np.arange(n_valid)
    # rows grow with t, so a running maximum is each patient's latest row
    latest = np.maximum.accumulate(row, axis=0)
    latest[latest < 0] = n_valid
    steps = []
    lo = 0
    for t, n in enumerate(valid.sum(axis=1).tolist()):
        if n:
            prev = latest[t - 1][valid[t]] if steps else None
            steps.append((lo, lo + n, prev))
            lo += n
    return steps


def _layouts(valid):
    """The forward flow's Layout of a (T, P) mask, and the backward flow's."""
    row = np.zeros(valid.shape, dtype=np.intp)
    row[valid] = np.arange(int(valid.sum()))
    return (Layout(_pack(valid), None),
            Layout(_pack(valid[::-1]), row[::-1][valid[::-1]]))


def _history_layouts(n):
    """_layouts of one patient active at all n steps, built by hand, with
    the backward flow's cut to its first step: at the last step, the only
    one predict_topk reads, that flow has seen the last admission only."""
    steps = [(0, 1, None)] + [(t, t + 1, slice(t - 1, t))
                              for t in range(1, n)]
    return Layout(steps, None), Layout(steps[:1], np.arange(n)[::-1])


def _gather(rows, src):
    """rows (in forward order) laid out as a flow's rows."""
    return rows if src is None else rows[src]


def _scatter(flow_rows, src):
    """A flow's rows laid out in forward order."""
    if src is None:
        return flow_rows
    rows = np.empty_like(flow_rows)
    rows[src] = flow_rows
    return rows


def _run_pair_of_flows(fn, *per_flow):
    """run_pair(lambda: fn(*firsts), lambda: fn(*seconds)), given sequences
    of one item per flow, forward flow first."""
    first, second = zip(*per_flow)
    return run_pair(lambda: fn(*first), lambda: fn(*second))


def _embed(model, batch, code_noise=None):
    """(inp, codes): the float64 layer-0 input rows of a batch, and the
    code rows that E multiplies, which the E gradient reads. Without an
    embedding inp is batch.input_rows(code_noise) and codes is None; with
    one, the code slots plus code_noise are replaced by their product with
    E and the extras kept."""
    if model.E is None:
        return batch.input_rows(code_noise), None
    codes = (batch.code_rows if code_noise is None
             else code_noise + batch.code_rows)
    return (np.concatenate([codes @ model.E, batch.extra_rows], axis=1),
            codes)


def _scan_direction(inp, layout, layer_params, cell_kind, hidden):
    """Run a stack of cells, one layer after the other, over one flow's
    rows; layer 0 reads inp, the input rows in forward order, at layout.src.
    Each step reads its previous state from the rows of the layer that
    earlier steps wrote. Rows that no step covers get h = 0. Returns
    (per-layer state rows, per-layer step traces). A layer's rows, (n + 1,
    hidden) per state array, end in a zero-state row; its h rows but that
    one are the input of the layer above."""
    layer_rows, traces = [], []
    h_rows = _gather(inp, layout.src)
    recurrent = cells.is_recurrent(cell_kind)
    for params in layer_params:
        xw = cells.project_inputs(cell_kind, h_rows, params)
        rows = cells.init_state(cell_kind, len(xw) + 1, hidden)
        layer_traces = []
        for lo, hi, prev in layout.steps:
            state = (None if prev is None or not recurrent
                     else {k: v[prev] for k, v in rows.items()})
            new, tr = cells.step(cell_kind, xw[lo:hi], state, params)
            for k, v in new.items():
                rows[k][lo:hi] = v
            layer_traces.append(tr)
        layer_rows.append(rows)
        traces.append(layer_traces)
        h_rows = rows["h"][:-1]
    return layer_rows, traces


def _flow(model, name, inp, layout):
    """Scan the flow of stack name (in FLOWS) over inp: returns (its joint
    term, its top h rows in forward order @ V; its layer rows; its traces)."""
    rows, traces = _scan_direction(inp, layout, getattr(model, name),
                                   model.cell_kind, model.hidden)
    return (_scatter(rows[-1]["h"][:-1], layout.src)
            @ getattr(model, "V" + name), rows, traces)


def _head(jf, jb, model, dropout=None):
    """Joint and output layers over rows, from each flow's joint term,
    jf = hf @ Vfwd and jb = hb @ Vbwd; returns (j_pre, out_pre, yhat).

    The row-wise work runs by halves (run_by_halves); hj @ Wout is one
    product on this thread. The returned j_pre is jf, summed in place."""
    alpha_j, alpha_o = float(model.alpha_j), float(model.alpha_o)
    hj = np.empty_like(jf)
    yhat = np.empty((len(jf), model.n_codes))

    def joint(r):
        j = jf[r]
        j += jb[r]
        j += model.b_joint
        h = lrelu(j, alpha_j, out=hj[r])
        if dropout is not None:
            h *= dropout[r]

    def output(r):
        o = out_pre[r]
        o += model.b_out
        softmax_rows(lrelu(o, alpha_o, out=yhat[r]), out=yhat[r])

    run_by_halves(len(jf), joint)
    out_pre = hj @ model.Wout
    run_by_halves(len(jf), output)
    return jf, out_pre, yhat


def forward(batch: BatchTensor, model: ModelParams, dropout=None,
            code_noise=None) -> dict:
    """Full forward pass over the valid cells of a batch; the returned trace
    holds what backward() reads. trace["yhat_rows"] holds the predictions of
    the valid cells, packed like the batch's rows. So are dropout (n_valid,
    hidden), which multiplies the joint-layer output (inverted dropout,
    already scaled), and code_noise (n_valid, |D|), which is added to the
    code slots (input noise); the trace keeps both, not the layer-0 rows."""
    d, width = model.n_codes, model.extras.width
    if (batch.code_rows.shape[1], batch.extra_rows.shape[1]) != (d, width):
        raise ValueError(
            f"batch feature width {batch.code_rows.shape[1]} codes + "
            f"{batch.extra_rows.shape[1]} extras does not match model "
            f"({d} codes + {width} extras)")

    layouts = _layouts(batch.mask)
    inp, codes = _embed(model, batch, code_noise)

    # each flow up to its own term of the joint layer, the backward flow on
    # the worker thread
    scans = _run_pair_of_flows(
        lambda name, layout: _flow(model, name, inp, layout), FLOWS, layouts)
    inp = None  # not in the trace: backward() builds it again
    j_pre, out_pre, yhat_rows = _head(scans[0][0], scans[1][0], model, dropout)

    return {
        "codes": codes, "code_noise": code_noise,
        "flows": [(layout, rows, traces)
                  for layout, (_, rows, traces) in zip(layouts, scans)],
        "j_pre": j_pre, "out_pre": out_pre,
        "dropout": dropout, "yhat_rows": yhat_rows,
    }


# ---------------------------------------------------------------------------
# backward

def _put(grads, layer, d_params, written):
    """Write each gradient g of d_params to grads[layer + k] if k is not in
    written yet, and add it after: the first contribution is assigned."""
    for k, g in d_params.items():
        view = grads[layer + k]
        if k in written:
            view += g
        else:
            view[...] = g
            written.add(k)


def _bptt_direction(take_d_top, layout, layer_rows, traces, layer_params,
                    cell_kind, grads, prefix, need_d_inp, layer0_rows):
    """Backprop one directional stack over its packed rows, top layer first.
    take_d_top() hands over the gradient flowing into the top layer's h at
    every row; it is held only in d_rows from then on. Each step's backward
    takes the state its step took, gathered again from layer_rows (from
    _scan_direction, as are the traces), which also hold the input of layers
    1 and up; layer0_rows() builds the input rows in forward order, gathered
    at layout.src, once layer 0's d_rows are released. Writes the gradient
    of every parameter of the stack into grads: a parameter's first
    contribution is assigned and later ones are added, and one that no step
    forms (the U<g> of a flow in which no step reads a state) is zeroed.
    Returns the gradient wrt the gathered rows, or None when need_d_inp is
    false."""
    d_h = take_d_top()
    n, hidden = d_h.shape
    recurrent = cells.is_recurrent(cell_kind)
    for l in range(len(layer_params) - 1, -1, -1):
        params, rows = layer_params[l], layer_rows[l]
        layer = f"{prefix}{l}."
        written = set()  # the keys of params that hold a contribution
        # the gradient wrt every state row; the zero state's row takes the
        # gradients of first cells, and nothing reads it
        d_rows = cells.init_state(cell_kind, n + 1, hidden)
        d_rows["h"][:-1] = d_h
        # names are rebound, not deleted: the next layer binds them again
        d_h = d_pre = None
        for (lo, hi, prev), tr in zip(reversed(layout.steps),
                                      reversed(traces[l])):
            state = (None if prev is None or not recurrent
                     else {k: v[prev] for k, v in rows.items()})
            d_step, d_prev, d_params = cells.step_backward(
                cell_kind, tr, state,
                {k: v[lo:hi] for k, v in d_rows.items()}, params)
            if d_pre is None:
                d_pre = np.empty((n, d_step.shape[1]))
            d_pre[lo:hi] = d_step
            _put(grads, layer, d_params, written)
            if d_prev is not None:  # None: a zero state, or feedforward's
                for k, v in d_prev.items():
                    d_rows[k][prev] += v
        d_rows = None  # released before layer0_rows() builds its rows
        d_h, d_params = cells.input_backward(
            cell_kind, layer_rows[l - 1]["h"][:-1] if l
            else _gather(layer0_rows(), layout.src),
            d_pre, params, need_dx=l > 0 or need_d_inp)
        _put(grads, layer, d_params, written)
        for k in params.keys() - written:
            grads[layer + k].fill(0.0)
    return d_h


def backward(trace: dict, batch: BatchTensor, model: ModelParams,
             grad: np.ndarray | None = None) -> dict:
    """Gradients of the row-mean negated cross-entropy loss (see
    training.cross_entropy_loss) with respect to every parameter.

    The gradients are written to grad, a vector laid out like model.theta
    (a new one when None), whose values before the call are never read, and
    returned as model.views(grad). Every element is written: the products
    go straight into their views, and a parameter that no row reaches (every
    one, in a batch without rows) gets zeros. The two flows backpropagate
    concurrently, the backward flow on the worker thread; they write
    disjoint parts of grad.
    """
    if grad is None:
        grad = np.empty_like(model.theta)
    grads = model.views(grad)
    yhat, out_pre, j_pre = trace["yhat_rows"], trace["out_pre"], trace["j_pre"]
    n = len(yhat)
    if n == 0:
        grad.fill(0.0)
        return grads

    targets = batch.target_rows
    dropout = trace["dropout"]
    alpha_j, alpha_o = float(model.alpha_j), float(model.alpha_o)
    # d_out_pre rows, then d_j_pre rows; *_terms hold the summands of the
    # slope gradients, summed whole afterwards. j_terms holds hj first, as
    # _head formed it (elementwise, so the same bits by rows), for the Wout
    # gradient
    d_out_pre, o_terms = np.empty_like(yhat), np.empty_like(yhat)
    j_terms = np.empty_like(j_pre)

    def output_rows(r):
        y, t = yhat[r], targets[r]
        yc = np.clip(y, LOSS_EPS, 1.0 - LOSS_EPS)
        inside = (y > LOSS_EPS) & (y < 1.0 - LOSS_EPS)
        d_yhat = -(t / yc - (1.0 - t) / (1.0 - yc)) / n
        d_yhat = np.where(inside, d_yhat, 0.0)
        # softmax rows: d_z = y * (g - <g, y>)
        dot = np.sum(d_yhat * y, axis=-1, keepdims=True)
        d_out_act = y * (d_yhat - dot)
        o = out_pre[r]
        np.multiply(d_out_act, np.where(o < 0, o, 0.0), out=o_terms[r])
        np.multiply(d_out_act, np.where(o >= 0, 1.0, alpha_o),
                    out=d_out_pre[r])
        hj = lrelu(j_pre[r], alpha_j, out=j_terms[r])
        if dropout is not None:
            hj *= dropout[r]

    def output_grads():
        np.matmul(j_terms.T, d_out_pre, out=grads["Wout"])
        grads["b_out"][...] = d_out_pre.sum(axis=0)
        grads["alpha_o"][...] = np.sum(o_terms)

    def joint_rows(r):
        d, j = d_j_pre[r], j_pre[r]  # d holds d_hj until the last line
        if dropout is not None:
            d *= dropout[r]
        np.multiply(d, np.where(j < 0, j, 0.0), out=j_terms[r])
        d *= np.where(j >= 0, 1.0, alpha_j)

    run_by_halves(n, output_rows)
    d_j_pre, _ = run_pair(lambda: d_out_pre @ model.Wout.T, output_grads)
    del d_out_pre, o_terms
    run_by_halves(n, joint_rows)
    grads["alpha_j"][...] = np.sum(j_terms)
    del j_terms  # of the head's buffers, only d_j_pre is still needed
    grads["b_joint"][...] = d_j_pre.sum(axis=0)

    # each flow's joint-layer gradient and the gradient into its top layer,
    # the backward flow's on the worker thread; then d_j_pre goes, and each
    # BPTT takes its top gradient out of tops
    def top(name, flow):
        layout, rows, _ = flow
        h = _scatter(rows[-1]["h"][:-1], layout.src)
        np.matmul(h.T, d_j_pre, out=grads["V" + name])
        return _gather(d_j_pre @ getattr(model, "V" + name).T, layout.src)

    tops = dict(zip(FLOWS, _run_pair_of_flows(top, FLOWS, trace["flows"])))
    d_j_pre = None
    embedded = model.E is not None

    def bptt(name, flow):
        return _bptt_direction(
            lambda: tops.pop(name), *flow, getattr(model, name),
            model.cell_kind, grads, name, embedded,
            lambda: _embed(model, batch, trace["code_noise"])[0])

    d_inp, d_src = _run_pair_of_flows(bptt, FLOWS, trace["flows"])
    if embedded:
        np.add.at(d_inp, trace["flows"][1][0].src, d_src)
        # cast keeping the transposed layout, so BLAS takes the product
        # as it takes it for float64 code slots
        codes_t = trace["codes"].T.astype(np.float64, copy=False)
        np.matmul(codes_t, d_inp[:, :model.embed_dim], out=grads["E"])

    return grads


# ---------------------------------------------------------------------------
# prediction

def build_history_tensor(patient: PatientRecord, model: ModelParams,
                         vocab: CodeVocabulary) -> BatchTensor:
    """Single-patient batch using every admission as an input step;
    normalization constants come from the trained model."""
    return build_batch([patient], vocab, model.extras, model.duration_max,
                       model.interval_max, every_admission=True)


def rank_codes(yhat_row: np.ndarray) -> np.ndarray:
    """Indices by descending probability; ties broken by ascending index."""
    return np.lexsort((np.arange(yhat_row.size), -yhat_row))


def predict_topk(model: ModelParams, history: PatientRecord,
                 vocab: CodeVocabulary, k: int) -> list:
    """Top-k (code index, probability) for the admission after the history.

    Only the last step is read, where the backward flow has seen the last
    admission only: its layout has one step, which reads no recurrent
    matrix (_history_layouts). The products over rows keep the shapes
    forward() gives them, because a BLAS result for one row can change in
    the last bit with the number of rows: the answer equals forward()'s
    last row exactly.
    """
    if not history.admissions:
        raise ValueError("empty admission history")
    if not (1 <= k <= len(vocab)):
        raise ValueError(f"k={k} out of range [1, {len(vocab)}]")
    inp, _ = _embed(model, build_history_tensor(history, model, vocab))
    jf, jb = (_flow(model, name, inp, layout)[0]
              for name, layout in zip(FLOWS, _history_layouts(len(inp))))
    probs = _head(jf, jb, model)[2][-1]
    return [(int(i), float(probs[i])) for i in rank_codes(probs)[:k]]
