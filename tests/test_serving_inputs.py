"""Malformed serving inputs end in a clean exit, never a traceback.

A property test: one tiny model is trained once per module, then a history
file, the checkpoint's header or its payload is mutated and `dxtraj
predict` and `dxtraj evaluate` run on them in-process, or the CCS map is
mutated and `dxtraj prepare` runs on it. Every run must exit 0, 2 (bad
input) or, predict and evaluate only, 4 (a code outside the vocabulary),
and a nonzero exit must say why on a stderr line that starts with
"error:". On exit 0, predict and evaluate must print strict JSON: no NaN
or infinity. Any other exception fails the test.
"""

import contextlib
import copy
import io
import json
import math
import string
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dxtraj.cli import main

# any JSON value, non-finite numbers and huge integers included
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.sampled_from([10 ** 400, -10 ** 400]) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
# what a few of the payload's float64s are overwritten with
WEIGHTS = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 1e300,
                           -1e300, 1e20, -1e20])


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(directory, history file lines, checkpoint magic, header, payload,
    CCS map lines) of a model trained for one epoch on a small synth
    cohort, with every extra input on, and of the cohort's CCS map."""
    tmp = tmp_path_factory.mktemp("serving")
    cohort = tmp / "cohort.jsonl"
    config = tmp / "config.json"
    config.write_text(json.dumps({"hidden_size": 4, "extra_features": {
        "adm_type": True, "duration": True, "interval": True}}))
    for argv in (["synth", "--patients", "12", "--vocab-size", "12",
                  "--states", "3", "--seed", "5", "--output", str(cohort),
                  "--ccs-out", str(tmp / "ccs.csv")],
                 ["train", "--cohort", str(cohort), "--config", str(config),
                  "--model", str(tmp / "model.ckpt"), "--max-epochs", "1"]):
        assert main(["--quiet", *argv]) == 0
    lines = cohort.read_text().splitlines()[:4]
    magic, header, payload = (tmp / "model.ckpt").read_bytes().split(b"\n", 2)
    ccs = (tmp / "ccs.csv").read_text().splitlines()
    return tmp, lines, magic, json.loads(header), payload, ccs


def mutate(data, value):
    """value, a parsed JSON document, with one change at a place drawn from
    data: a value replaced, an item or key removed, or a key added."""
    keys = list(value) if isinstance(value, dict) else range(
        len(value) if isinstance(value, list) else 0)
    action = data.draw(st.sampled_from(
        ["replace"] + (["descend"] * 4 + ["remove"] if keys else [])
        + (["add"] if isinstance(value, dict) else [])))
    if action == "replace":
        return data.draw(JSON)
    value = copy.copy(value)
    key = data.draw(st.sampled_from(list(keys))) if keys else None
    if action == "descend":
        value[key] = mutate(data, value[key])
    elif action == "remove":
        del value[key]
    else:
        value[data.draw(st.text(max_size=6))] = data.draw(JSON)
    return value


def splice(data, blob, end):
    """blob with a span that starts before end replaced by random bytes,
    most often printable ones."""
    at = data.draw(st.integers(0, end))
    cut = data.draw(st.integers(0, 8))
    new = data.draw(st.text(string.printable, max_size=8).map(str.encode)
                    | st.binary(max_size=8))
    return blob[:at] + new + blob[at + cut:]


def overwrite(data, payload):
    """payload, float64s, with one to three of them replaced by WEIGHTS."""
    blob = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 3))):
        at = 8 * data.draw(st.integers(0, len(blob) // 8 - 1))
        blob[at:at + 8] = struct.pack("<d", data.draw(WEIGHTS))
    return bytes(blob)


def strict_json(text):
    """json.loads(text), raising on NaN and infinities."""
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--quiet", *argv])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=240, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_history_or_header_exits_cleanly(served, data):
    tmp, lines, magic, header, payload, ccs_lines = served
    history, model = tmp / "history.jsonl", tmp / "mutated.ckpt"
    ccs = tmp / "mutated.csv"
    text = "\n".join(lines) + "\n"
    ccs_text = "\n".join(ccs_lines) + "\n"
    blob_header = json.dumps(header).encode()
    target = data.draw(st.sampled_from(
        ["history", "history", "history bytes", "header field",
         "header field", "header", "header bytes", "payload", "payload",
         "payload tail", "ccs", "ccs bytes"]))
    if target == "history":
        i = data.draw(st.integers(0, len(lines) - 1))
        record = mutate(data, json.loads(lines[i]))
        text = "\n".join(lines[:i] + [json.dumps(record)] + lines[i + 1:])
    elif target == "history bytes":
        text = splice(data, text.encode(), len(text)).decode("latin-1")
    elif target == "header field":  # one field's value replaced
        field = data.draw(st.sampled_from(sorted(header)))
        blob_header = json.dumps({**header, field: data.draw(JSON)}).encode()
    elif target == "header":
        blob_header = json.dumps(mutate(data, header)).encode()
    elif target == "payload":
        payload = overwrite(data, payload)
    elif target == "payload tail":
        payload = payload[:-data.draw(st.integers(1, 12))]
    elif target == "ccs":  # one line replaced by a row of printable cells
        i = data.draw(st.integers(0, len(ccs_lines) - 1))
        row = data.draw(st.lists(st.text(string.printable, max_size=6),
                                 max_size=4))
        ccs_text = "\n".join(ccs_lines[:i] + [",".join(row)]
                             + ccs_lines[i + 1:])
    elif target == "ccs bytes":
        ccs_text = splice(data, ccs_text.encode(),
                          len(ccs_text)).decode("latin-1")
    blob = b"\n".join([magic, blob_header, payload])
    if target == "header bytes":
        blob = splice(data, blob, len(magic) + len(blob_header) + 2)
    history.write_text(text, encoding="latin-1")
    model.write_bytes(blob)
    ccs.write_text(ccs_text, encoding="latin-1")
    if target.startswith("ccs"):
        runs = [(["prepare", "--input", str(history), "--ccs", str(ccs),
                  "--output", str(tmp / "prepared.jsonl")], (0, 2))]
    else:
        runs = [(["predict", "--model", str(model), "--history",
                  str(history), "--k", "5"], (0, 2, 4)),
                (["evaluate", "--model", str(model), "--cohort",
                  str(history), "--k", "5"], (0, 2, 4))]
    for argv, allowed in runs:
        code, out, err = run(*argv)
        assert code in allowed, (argv[0], code, err)
        if code:
            assert any(line.startswith("error:")
                       for line in err.splitlines()), (argv[0], err)
        elif argv[0] != "prepare":
            strict_json(out)
