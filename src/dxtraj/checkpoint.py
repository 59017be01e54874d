"""Deterministic model checkpoint format.

Layout: magic line, JSON header line (metadata + ordered array index), then
the concatenated little-endian float64 array bytes. The byte stream is a pure
function of the model contents, so identical models produce identical files.
The arrays are written in sorted-name order, which is the layout of the
model's parameter vector (ModelParams.theta): the payload is that vector's
bytes, and loading copies it back in one piece.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .ehr_data import ExtraFeatures
from .network import ModelParams, init_model
from .numerics import SeededRng

MAGIC = b"DXTRAJ-CKPT"
VERSION = 1


def _array_index(model: ModelParams) -> list:
    """Name and shape of every array, in sorted-name (payload) order."""
    arrays = model.flat()
    return [{"name": n, "shape": list(arrays[n].shape)} for n in sorted(arrays)]


def save_checkpoint(model: ModelParams, path) -> None:
    header = {
        "version": VERSION,
        "cell_kind": model.cell_kind,
        "n_codes": model.n_codes,
        "hidden": model.hidden,
        "layers": model.layers,
        "extras": model.extras.to_dict(),
        "embed_dim": model.embed_dim,
        "duration_max": model.duration_max,
        "interval_max": model.interval_max,
        "vocab_labels": model.vocab_labels,
        "arrays": _array_index(model),
    }
    payload = model.theta.astype("<f8", copy=False).tobytes()
    blob = MAGIC + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    atomic_write_bytes(path, blob)


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        header = json.loads(fh.readline())
        if header["version"] != VERSION:
            raise ValueError(f"{path}: unsupported version {header['version']}")
        payload = fh.read()

    model = init_model(
        header["cell_kind"], header["n_codes"], header["hidden"],
        layers=header["layers"],
        extras=ExtraFeatures.from_dict(header["extras"]),
        embed_dim=header["embed_dim"] or None,
        rng=SeededRng(0),
    )
    model.duration_max = header["duration_max"]
    model.interval_max = header["interval_max"]
    model.vocab_labels = header["vocab_labels"]

    if header["arrays"] != _array_index(model):
        raise ValueError(f"{path}: array index does not match the model")
    if len(payload) != model.theta.size * 8:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, "
                         f"expected {model.theta.size * 8}")
    model.theta[...] = np.frombuffer(payload, dtype="<f8")
    return model


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write to a temp file in the same directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())
