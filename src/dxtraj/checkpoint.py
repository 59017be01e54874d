"""Deterministic model checkpoint format.

Layout: magic line, JSON header line (metadata + ordered array index), then
the concatenated little-endian float64 array bytes. The byte stream is a pure
function of the model contents, so identical models produce identical files.
The arrays are written in sorted-name order, which is the layout of the
model's parameter vector (ModelParams.theta): the payload is that vector's
bytes, and loading reads it straight into the vector of a model built
without drawing weights.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields

import numpy as np

from .cells import CELL_KINDS
from .ehr_data import ExtraFeatures
from .files import atomic_write_bytes
from .network import ModelParams, init_model, param_count

MAGIC = b"DXTRAJ-CKPT"
VERSION = 1
HEADER_FIELDS = ("version", "cell_kind", "n_codes", "hidden", "layers",
                 "extras", "embed_dim", "duration_max", "interval_max",
                 "vocab_labels", "arrays")

_FLAGS = sorted(f.name for f in fields(ExtraFeatures))


def _count(low):
    # JSON integers only: bool is not an int here
    return lambda v, header: type(v) is int and v >= low


def _size(v, header):
    return type(v) in (int, float) and math.isfinite(v) and v >= 0


# field -> (check of its value, what it must hold), in HEADER_FIELDS order;
# version and arrays are checked on their own
_FIELD_CHECKS = {
    "cell_kind": (lambda v, header: type(v) is str and v in CELL_KINDS,
                  "one of " + ", ".join(CELL_KINDS)),
    "n_codes": (_count(1), "an integer >= 1"),
    "hidden": (_count(1), "an integer >= 1"),
    "layers": (_count(1), "an integer >= 1"),
    "extras": (lambda v, header: type(v) is dict and sorted(v) == _FLAGS
               and all(type(flag) is bool for flag in v.values()),
               "an object of the booleans " + ", ".join(_FLAGS)),
    "embed_dim": (_count(0), "an integer >= 0"),
    "duration_max": (_size, "a finite number >= 0"),
    "interval_max": (_size, "a finite number >= 0"),
    "vocab_labels": (lambda v, header: type(v) is list
                     and len(v) == header["n_codes"]
                     and all(type(label) is str for label in v),
                     "a list of n_codes strings"),
}


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
        "extras": asdict(model.extras),
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
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: header is not JSON ({exc})") from None
        if type(header) is not dict:
            raise ValueError(f"{path}: header is not a JSON object")
        missing = [name for name in HEADER_FIELDS if name not in header]
        if missing:
            raise ValueError(f"{path}: header lacks {', '.join(missing)}")
        if header["version"] != VERSION:
            raise ValueError(f"{path}: unsupported version {header['version']}")
        for name, (valid, expected) in _FIELD_CHECKS.items():
            if not valid(header[name], header):
                raise ValueError(f"{path}: header field {name}: expected "
                                 f"{expected}")
        structure = dict(
            cell_kind=header["cell_kind"], n_codes=header["n_codes"],
            hidden=header["hidden"], layers=header["layers"],
            extras=ExtraFeatures.from_dict(header["extras"]),
            embed_dim=header["embed_dim"] or None)
        # the payload size is checked before the model is built, so that a
        # header cannot ask for more memory than the file holds
        n_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = 8 * param_count(**structure)
        if n_bytes != expected:
            raise ValueError(f"{path}: payload holds {n_bytes} bytes, "
                             f"expected {expected}")
        # the structure only: no weights are drawn, the payload fills theta
        model = init_model(**structure)
        if header["arrays"] != _array_index(model):
            raise ValueError(f"{path}: array index does not match the model")
        fh.readinto(model.theta)
    if not np.little_endian:
        model.theta.byteswap(inplace=True)
    # a corrupted or diverged file would serve NaN probabilities
    if not np.isfinite(model.theta).all():
        raise ValueError(f"{path}: the weights hold a non-finite value")
    model.duration_max = header["duration_max"]
    model.interval_max = header["interval_max"]
    model.vocab_labels = header["vocab_labels"]
    return model
