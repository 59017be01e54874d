"""Malformed serving inputs end in a clean exit, never a traceback.

A property test: one tiny model is trained once per module, then a history
file or the checkpoint's header is mutated and `dxtraj predict` and
`dxtraj evaluate` run on them in-process. Every run must exit 0, 2 (bad
input) or 4 (a code outside the vocabulary), and a nonzero exit must say
why on a stderr line that starts with "error:". Any other exception fails
the test.
"""

import contextlib
import copy
import io
import json
import string

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


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(directory, history file lines, checkpoint magic, header, payload)
    of a model trained for one epoch on a small synth cohort, with every
    extra input on."""
    tmp = tmp_path_factory.mktemp("serving")
    cohort = tmp / "cohort.jsonl"
    config = tmp / "config.json"
    config.write_text(json.dumps({"hidden_size": 4, "extra_features": {
        "adm_type": True, "duration": True, "interval": True}}))
    for argv in (["synth", "--patients", "12", "--vocab-size", "12",
                  "--states", "3", "--seed", "5", "--output", str(cohort)],
                 ["train", "--cohort", str(cohort), "--config", str(config),
                  "--model", str(tmp / "model.ckpt"), "--max-epochs", "1"]):
        assert main(["--quiet", *argv]) == 0
    lines = cohort.read_text().splitlines()[:4]
    magic, header, payload = (tmp / "model.ckpt").read_bytes().split(b"\n", 2)
    return tmp, lines, magic, json.loads(header), payload


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


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["--quiet", *argv])
    return code, err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_history_or_header_exits_cleanly(served, data):
    tmp, lines, magic, header, payload = served
    history, model = tmp / "history.jsonl", tmp / "mutated.ckpt"
    text = "\n".join(lines) + "\n"
    blob_header = json.dumps(header).encode()
    target = data.draw(st.sampled_from(
        ["history", "history", "history bytes", "header field",
         "header field", "header", "header bytes"]))
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
    blob = b"\n".join([magic, blob_header, payload])
    if target == "header bytes":
        blob = splice(data, blob, len(magic) + len(blob_header) + 2)
    history.write_text(text, encoding="latin-1")
    model.write_bytes(blob)
    for argv in (["predict", "--model", str(model), "--history", str(history),
                  "--k", "5"],
                 ["evaluate", "--model", str(model), "--cohort", str(history),
                  "--k", "5"]):
        code, err = run(*argv)
        assert code in (0, 2, 4), (argv[0], code, err)
        if code:
            assert any(line.startswith("error:")
                       for line in err.splitlines()), (argv[0], err)
