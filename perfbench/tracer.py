"""Per-layer tracing for the dxtraj benchmark, from outside the library.

The tracer replaces module attributes of dxtraj with thin wrappers that time
each call and pass its arguments and result through unchanged, so traced
arithmetic is identical to untraced arithmetic. Callers inside dxtraj look
these names up at call time, so the wrappers see every call. A wrapper is
installed only on the name where it is looked up (for example
``dxtraj.training.split_batches``, not ``dxtraj.ehr_data.split_batches``).

Each call records a span: name, start, end and the index of the enclosing
span. Spans stay in memory until ``write_spans``. A hooked name that no
longer exists is recorded as absent; the metrics that depend on it are left
out of ``metrics()`` instead of failing the run.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import defaultdict

from dxtraj import cells, checkpoint, ehr_data, evaluation, network, training

# (module, attribute, span name). Several attributes may share a span name.
HOOKS = [
    (ehr_data, "load_patients", "ehr_data.load"),
    (ehr_data, "load_ccs_map", "ehr_data.prepare"),
    (ehr_data, "map_icd_to_ccs", "ehr_data.prepare"),
    (ehr_data, "filter_cohort", "ehr_data.prepare"),
    (training, "split_batches", "ehr_data.batch"),
    (evaluation, "build_batch", "ehr_data.batch"),
    (network, "build_history_tensor", "ehr_data.history_tensor"),
    (cells, "step", "cells.step"),
    (cells, "step_backward", "cells.backward"),
    (network, "forward", "network.forward"),
    (network, "backward", "network.backward"),
    (network, "_scan_direction", "network.scan"),
    (network, "_bptt_direction", "network.bptt"),
    (training, "adadelta_update", "training.adadelta"),
    (training, "clip_gradients", "training.clip"),
    (training, "cross_entropy_loss", "training.loss"),
    (evaluation, "evaluate_model", "evaluation.evaluate"),
    (evaluation, "recall_at_k", "evaluation.recall"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
]

# Per-layer metric -> (unit, hooked span names it needs).
LAYER_METRICS = {
    "ehr_data.load_s": ("s", ["ehr_data.load"]),
    "ehr_data.prepare_s": ("s", ["ehr_data.prepare"]),
    "ehr_data.batch_s": ("s", ["ehr_data.batch"]),
    "ehr_data.cells_scanned": ("count", ["ehr_data.batch"]),
    "ehr_data.cells_valid": ("count", ["ehr_data.batch"]),
    "ehr_data.padding_frac": ("frac", ["ehr_data.batch"]),
    "ehr_data.history_tensor_s": ("s", ["ehr_data.history_tensor"]),
    "cells.step_s": ("s", ["cells.step"]),
    "cells.step_calls": ("count", ["cells.step"]),
    "cells.backward_s": ("s", ["cells.backward"]),
    "cells.backward_calls": ("count", ["cells.backward"]),
    "network.forward_s": ("s", ["network.forward"]),
    "network.forward_calls": ("count", ["network.forward"]),
    "network.backward_s": ("s", ["network.backward"]),
    "network.scan_fwd_s": ("s", ["network.scan"]),
    "network.scan_bwd_s": ("s", ["network.scan"]),
    "network.bptt_fwd_s": ("s", ["network.bptt"]),
    "network.bptt_bwd_s": ("s", ["network.bptt"]),
    "network.head_s": ("s", ["network.forward", "network.scan"]),
    "network.head_grad_s": ("s", ["network.backward", "network.bptt"]),
    "network.gemm_gflop": ("GFLOP", ["network.forward", "network.backward"]),
    "training.adadelta_s": ("s", ["training.adadelta"]),
    "training.clip_s": ("s", ["training.clip"]),
    "training.updates": ("count", ["training.adadelta"]),
    "training.loss_s": ("s", ["training.loss"]),
    "training.clip_fired_frac": ("frac", ["training.clip"]),
    "training.grad_norm_p50": ("norm", ["training.clip"]),
    "evaluation.evaluate_s": ("s", ["evaluation.evaluate"]),
    "evaluation.recall_s": ("s", ["evaluation.recall"]),
    "evaluation.recall_calls": ("count", ["evaluation.recall"]),
    "checkpoint.save_s": ("s", ["checkpoint.save"]),
    "checkpoint.load_s": ("s", ["checkpoint.load"]),
    "checkpoint.bytes": ("bytes", ["checkpoint.save"]),
}

# Weight blocks (x @ W and h @ U pairs) per cell kind; feedforward has no
# recurrent matrix.
_GATE_BLOCKS = {"mgru": 2, "gru": 3, "lstm": 4, "lstm_google": 4,
                "jordan": 1, "feedforward": 1}


def gemm_flops(kind, n_steps, n_pat, in_width, hidden, n_codes, layers,
               backward):
    """Matmul flops of one network.forward (or network.backward) call over a
    padded (n_steps, n_pat) batch, counting 2 flops per multiply-add.

    Every scanned cell is counted, padded or not, because the scan runs its
    GEMMs over whole batch rows.
    """
    cells_ = n_steps * n_pat
    gates = _GATE_BLOCKS[kind]
    rec = 0 if kind == "feedforward" else 1
    per_cell = 0
    for layer in range(layers):
        width = in_width if layer == 0 else hidden
        # forward: x @ W and h @ U per gate; backward: dx, dh, dW and dU
        per_cell += gates * (width + rec * hidden) * hidden
    if kind == "lstm_google":
        per_cell += layers * hidden * hidden
    head = 2 * hidden * hidden + hidden * n_codes  # joint layer and output
    mults = 2 * cells_ * per_cell + cells_ * head   # both directions
    if backward:
        mults *= 2  # an input and a weight gradient per forward product
    return 2.0 * mults


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []
        self.absent = []
        self.cells_scanned = 0
        self.cells_valid = 0
        self.gflop = 0.0
        self.grad_norms = []
        self.clip_fired = 0
        self.checkpoint_bytes = 0
        self._direction = {}  # span name -> calls since the enclosing call
        # counters taken at the hooked boundaries, by span name
        self._before = {"training.clip": self._grad_norm}
        self._after = {"ehr_data.batch": self._count_cells,
                       "network.forward": self._forward_flops,
                       "network.backward": self._backward_flops,
                       "checkpoint.save": self._checkpoint_size}

    # -- installation -------------------------------------------------------

    def install(self):
        for module, attr, name in HOOKS:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._patches.append((module, attr, original))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, original, name):
        before = self._before.get(name)
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = self._stack[-1] if self._stack else -1
            span = [self._span_name(name), time.perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _span_name(self, name):
        """Directional helpers are called forward flow first, then backward
        flow, within each network.forward / network.backward call."""
        if name in ("network.scan", "network.bptt"):
            n = self._direction.get(name, 0)
            self._direction[name] = n + 1
            return name + ("_fwd" if n % 2 == 0 else "_bwd")
        if name == "network.forward":
            self._direction["network.scan"] = 0
        elif name == "network.backward":
            self._direction["network.bptt"] = 0
        return name

    # -- counters taken at the hooked boundaries ----------------------------

    def _count_cells(self, args, result):
        for batch in (result if isinstance(result, list) else [result]):
            self.cells_scanned += int(batch.mask.size)
            self.cells_valid += int(batch.mask.sum())

    def _add_flops(self, batch, model, backward):
        n_steps, n_pat, _ = batch.x.shape
        self.gflop += gemm_flops(model.cell_kind, n_steps, n_pat,
                                 model.input_width, model.hidden,
                                 model.n_codes, model.layers, backward) / 1e9

    def _forward_flops(self, args, result):
        self._add_flops(args[0], args[1], backward=False)

    def _backward_flops(self, args, result):
        self._add_flops(args[1], args[2], backward=True)

    def _grad_norm(self, args):
        """Pre-clip global norm; computed before the span starts, so it is
        not part of training.clip_s."""
        grads, clip_norm = args[0], args[1]
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        self.grad_norms.append(norm)
        self.clip_fired += norm > clip_norm

    def _checkpoint_size(self, args, result):
        self.checkpoint_bytes += os.path.getsize(args[1])

    # -- results ------------------------------------------------------------

    def totals(self):
        seconds = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; metrics whose hooks
        are absent are left out."""
        sec, calls = self.totals()
        absent_spans = {name for module, attr, name in HOOKS
                        if f"{module.__name__}.{attr}" in self.absent}
        scanned = self.cells_scanned
        values = {
            "ehr_data.load_s": sec["ehr_data.load"],
            "ehr_data.prepare_s": sec["ehr_data.prepare"],
            "ehr_data.batch_s": sec["ehr_data.batch"],
            "ehr_data.cells_scanned": scanned,
            "ehr_data.cells_valid": self.cells_valid,
            "ehr_data.padding_frac":
                1.0 - self.cells_valid / scanned if scanned else 0.0,
            "ehr_data.history_tensor_s": sec["ehr_data.history_tensor"],
            "cells.step_s": sec["cells.step"],
            "cells.step_calls": calls["cells.step"],
            "cells.backward_s": sec["cells.backward"],
            "cells.backward_calls": calls["cells.backward"],
            "network.forward_s": sec["network.forward"],
            "network.forward_calls": calls["network.forward"],
            "network.backward_s": sec["network.backward"],
            "network.scan_fwd_s": sec["network.scan_fwd"],
            "network.scan_bwd_s": sec["network.scan_bwd"],
            "network.bptt_fwd_s": sec["network.bptt_fwd"],
            "network.bptt_bwd_s": sec["network.bptt_bwd"],
            "network.head_s": sec["network.forward"]
                - sec["network.scan_fwd"] - sec["network.scan_bwd"],
            "network.head_grad_s": sec["network.backward"]
                - sec["network.bptt_fwd"] - sec["network.bptt_bwd"],
            "network.gemm_gflop": self.gflop,
            "training.adadelta_s": sec["training.adadelta"],
            "training.clip_s": sec["training.clip"],
            "training.updates": calls["training.adadelta"],
            "training.loss_s": sec["training.loss"],
            "training.clip_fired_frac":
                self.clip_fired / len(self.grad_norms) if self.grad_norms else 0.0,
            "training.grad_norm_p50":
                statistics.median(self.grad_norms) if self.grad_norms else 0.0,
            "evaluation.evaluate_s": sec["evaluation.evaluate"],
            "evaluation.recall_s": sec["evaluation.recall"],
            "evaluation.recall_calls": calls["evaluation.recall"],
            "checkpoint.save_s": sec["checkpoint.save"],
            "checkpoint.load_s": sec["checkpoint.load"],
            "checkpoint.bytes": self.checkpoint_bytes,
        }
        return {
            name: (values[name], unit)
            for name, (unit, needs) in LAYER_METRICS.items()
            if not absent_spans.intersection(needs)
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
