"""Test-side padding: a batch's packed rows laid out on its (T, P) grid of
(step, patient) cells, and padded arrays packed back into a batch. The
library holds packed rows only; the tests that edit a batch cell by cell,
and the reference formulas written over the grid, go through here."""

import numpy as np

from dxtraj.ehr_data import BatchTensor


def pad(mask, rows):
    """Packed rows (n_valid, ...) on the grid of mask, zeros at the cells
    that it leaves out."""
    out = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
    out[mask] = rows
    return out


def pack(x, mask, targets):
    """The batch of padded (T, P, ·) inputs and targets; what they hold at
    the cells that mask leaves out is dropped. The first |D| slots of x,
    |D| being the width of targets, are the code slots."""
    valid = np.asarray(mask, dtype=bool)
    rows, d = x[valid], targets.shape[-1]
    return BatchTensor(rows[:, :d], rows[:, d:], targets[valid], valid)


def unpack(batch):
    """(x, mask, targets): the batch's float64 inputs and its targets on
    its grid, and a copy of its mask; pack() gives the batch back."""
    return (pad(batch.mask, batch.input_rows()), batch.mask.copy(),
            pad(batch.mask, batch.target_rows))
