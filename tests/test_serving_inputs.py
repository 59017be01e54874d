"""Malformed inputs end in a clean exit, never a traceback.

Two property tests share one tiny model, trained once per module, and its
cohort. In the first, a history file, the checkpoint's header or its
payload is mutated and `dxtraj predict` and `dxtraj evaluate` run on them
in-process, or the CCS map is mutated and `dxtraj prepare` runs on it.
Every run must exit 0, 2 (bad input) or, predict and evaluate only, 4 (a
code outside the vocabulary), and a nonzero exit must say why on a stderr
line that starts with "error:". On exit 0, predict and evaluate must print
strict JSON: no NaN or infinity. In the second, the cohort file is mutated
under `train` and `prepare`, a `--config` file under `train`, a grid under
`compare`, or the numeric flags of a command are set; every run trains at
most one epoch. It must exit 0, 2, 3 (diverged), 4 or 5 (gradcheck
failed), and on 2, 3 or 4 a stderr line must start with "error:" or
"training diverged:". Any other exception fails either test.
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


def json_values(integers):
    """Any JSON value, non-finite numbers included, whose integers are
    drawn from integers."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats()
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6)


# any JSON value, huge integers included
JSON = json_values(st.integers(-2 ** 70, 2 ** 70)
                   | st.sampled_from([10 ** 400, -10 ** 400]))
# a value of a config or grid field, with integers up to 1: a size has no
# upper bound yet, and a large layer or node count builds a model until
# memory runs out; and max_epochs stays at most 1
FIELD = json_values(st.integers(-3, 1))
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


def mutate(data, value, values=JSON):
    """value, a parsed JSON document, with one change at a place drawn from
    data: a value replaced, an item or key removed, or a key added; a new
    value is drawn from values."""
    keys = list(value) if isinstance(value, dict) else range(
        len(value) if isinstance(value, list) else 0)
    action = data.draw(st.sampled_from(
        ["replace"] + (["descend"] * 4 + ["remove"] if keys else [])
        + (["add"] if isinstance(value, dict) else [])))
    if action == "replace":
        return data.draw(values)
    value = copy.copy(value)
    key = data.draw(st.sampled_from(list(keys))) if keys else None
    if action == "descend":
        value[key] = mutate(data, value[key], values)
    elif action == "remove":
        del value[key]
    else:
        value[data.draw(st.text(max_size=6))] = data.draw(values)
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


SEEDS = st.integers(-2 ** 70, 2 ** 70)
# each command's numeric flags and what they are set to; sizes stay small,
# for the reason given at FIELD and because gradcheck's time grows fast
SIZES = st.integers(-2, 1)
FLAGS = {
    "train": {"--seed": SEEDS, "--max-epochs": SIZES,
              "--hidden-size": st.integers(-2, 3),
              "--batch-size": st.integers(-2, 3),
              "--patience": st.integers(-2, 3)},
    "evaluate": {"--k": SEEDS},
    "predict": {"--k": SEEDS},
    "gradcheck": {"--codes": SIZES, "--hidden": SIZES, "--patients": SIZES,
                  "--steps": SIZES, "--seed": SEEDS,
                  "--tolerance": st.floats()},
    "synth": {"--patients": st.integers(-2, 12),
              "--vocab-size": st.integers(-2, 12),
              "--states": st.integers(-2, 4), "--noise-rate": st.floats(),
              "--seed": SEEDS},
    "compare": {"--seeds": st.integers(-2, 3), "--seed": SEEDS},
}
GRID = [{"hidden_size": 4, "max_epochs": 1, "label": "mgru"},
        {"random_baseline": True}]


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_training_inputs_exit_cleanly(served, data):
    tmp = served[0]
    cohort, config, grid = (tmp / "input.jsonl", tmp / "input-config.json",
                            tmp / "input-grid.json")
    texts = {"cohort": (tmp / "cohort.jsonl").read_text(),
             "config": (tmp / "config.json").read_text(),
             "grid": json.dumps(GRID)}
    target = data.draw(st.sampled_from(
        ["cohort", "cohort admission", "cohort admission", "cohort bytes",
         "config", "config", "config bytes", "grid", "grid", "grid bytes",
         "flags", "flags", "flags"]))
    name = target.split()[0]
    if target == "cohort":
        lines = texts["cohort"].splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        record = mutate(data, json.loads(lines[i]))
        texts["cohort"] = "\n".join(
            lines[:i] + [json.dumps(record)] + lines[i + 1:])
    elif target == "cohort admission":  # one admission of one record
        lines = texts["cohort"].splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[i])
        j = data.draw(st.integers(0, len(record["admissions"]) - 1))
        record["admissions"][j] = mutate(data, record["admissions"][j])
        texts["cohort"] = "\n".join(
            lines[:i] + [json.dumps(record)] + lines[i + 1:])
    elif target in ("config", "grid"):
        texts[name] = json.dumps(mutate(data, json.loads(texts[name]), FIELD))
    elif target != "flags":
        texts[name] = splice(data, texts[name].encode(),
                             len(texts[name])).decode("latin-1")
    for path, key in ((cohort, "cohort"), (config, "config"), (grid, "grid")):
        path.write_text(texts[key], encoding="latin-1")
    base = {
        "train": ["train", "--cohort", str(cohort), "--config", str(config),
                  "--model", str(tmp / "trained.ckpt"), "--max-epochs", "1"],
        "prepare": ["prepare", "--input", str(cohort), "--ccs",
                    str(tmp / "ccs.csv"), "--output",
                    str(tmp / "prepared.jsonl")],
        "evaluate": ["evaluate", "--model", str(tmp / "model.ckpt"),
                     "--cohort", str(cohort), "--k", "5"],
        "predict": ["predict", "--model", str(tmp / "model.ckpt"),
                    "--history", str(cohort), "--k", "5"],
        "gradcheck": ["gradcheck", "--codes", "1", "--hidden", "1",
                      "--patients", "1", "--steps", "1"],
        "synth": ["synth", "--patients", "12", "--vocab-size", "12",
                  "--states", "3", "--output", str(tmp / "synth.jsonl")],
        "compare": ["compare", "--cohort", str(cohort), "--grid", str(grid),
                    "--seeds", "1", "--output", str(tmp / "compared")],
    }
    if target == "flags":
        command = data.draw(st.sampled_from(sorted(FLAGS)))
        flags = data.draw(st.fixed_dictionaries({}, optional=FLAGS[command]))
        runs = [base[command] + [f"{f}={v}" for f, v in flags.items()]]
    else:
        runs = [base[c] for c in {"cohort": ["train", "prepare"],
                                  "config": ["train"],
                                  "grid": ["compare"]}[name]]
    for argv in runs:
        code, _, err = run(*argv)
        assert code in (0, 2, 3, 4, 5), (argv, code, err)
        if code in (2, 3, 4):
            assert any(line.startswith(("error:", "training diverged:"))
                       for line in err.splitlines()), (argv, err)
