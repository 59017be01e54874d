import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dxtraj import training
from dxtraj.cells import CELL_KINDS
from dxtraj.cli import main
from dxtraj.checkpoint import load_checkpoint
from dxtraj.ehr_data import CodeVocabulary, load_patients, save_patients
from dxtraj.network import predict_topk
from dxtraj.synth import SynthSpec, generate_cohort, oracle_recall
from dxtraj.training import TrainConfig


def run(capsys, *argv):
    code = main(["--quiet", *argv])
    captured = capsys.readouterr()
    return code, captured.out


TABLE1_MAP = (
    "icd9,ccs_label,description\n"
    "01000,1,Tuberculosis\n"
    "01001,1,Tuberculosis\n"
    "01002,1,Tuberculosis\n"
    "0600,7,Polio\n"
)


def write_patient_file(path, patients):
    with open(path, "w") as fh:
        for p in patients:
            fh.write(json.dumps(p) + "\n")


def two_admission_patient(pid="p1", codes0=("01000", "01001"), codes1=("0600",)):
    return {
        "patient_id": pid,
        "admissions": [
            {"timestamp": 100, "icd9": list(codes0), "type": "emergency",
             "duration_hours": 24.0},
            {"timestamp": 2000, "icd9": list(codes1), "type": "urgent",
             "duration_hours": 12.0},
        ],
    }


# ---------------------------------------------------------------------------
# prepare

def test_prepare_table1_mapping(tmp_path, capsys):
    ccs = tmp_path / "map.csv"
    ccs.write_text(TABLE1_MAP)
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, [two_admission_patient()])
    out = tmp_path / "cohort.jsonl"
    report = tmp_path / "report.json"
    code, _ = run(capsys, "prepare", "--input", str(inp), "--ccs", str(ccs),
                  "--output", str(out), "--report", str(report))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    cohort = json.loads(lines[0])
    # tuberculosis codes collapse many-to-one into CCS set {1}
    assert cohort["admissions"][0]["icd9"] == ["1"]
    assert cohort["admissions"][1]["icd9"] == ["7"]
    assert json.loads(report.read_text())["patients_too_few_admissions"] == 0


def test_prepare_all_single_admission_patients_removed(tmp_path, capsys):
    ccs = tmp_path / "map.csv"
    ccs.write_text(TABLE1_MAP)
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, [{
        "patient_id": "solo",
        "admissions": [{"timestamp": 1, "icd9": ["01000"], "type": None,
                        "duration_hours": 1.0}],
    }])
    out = tmp_path / "cohort.jsonl"
    report = tmp_path / "report.json"
    code, _ = run(capsys, "prepare", "--input", str(inp), "--ccs", str(ccs),
                  "--output", str(out), "--report", str(report))
    assert code == 0
    assert out.read_text() == ""
    assert json.loads(report.read_text())["patients_too_few_admissions"] == 1


RAW_COHORT = [
    # unsorted timestamps, an unknown code, an admission with no known code
    {"patient_id": "a", "admissions": [
        {"timestamp": 300, "icd9": ["0600", "9999"], "type": "urgent",
         "duration_hours": 5.5},
        {"timestamp": 100, "icd9": ["01001", "0600", "01000"],
         "type": "emergency", "duration_hours": 24.0},
        {"timestamp": 200, "icd9": ["V000"], "type": None,
         "duration_hours": None}]},
    # an integer id, a negative duration, an admission both empty and
    # negative (counted as empty) and an integer duration
    {"patient_id": 7, "admissions": [
        {"timestamp": 90, "icd9": ["0600", "01000"], "type": "urgent",
         "duration_hours": 0},
        {"timestamp": 10, "icd9": ["0600"], "type": "newborn",
         "duration_hours": -1.0},
        {"timestamp": 50, "icd9": ["01002"], "type": "elective",
         "duration_hours": 2},
        {"timestamp": 70, "icd9": ["XXXX"], "type": None,
         "duration_hours": -3.0}]},
    # left with one admission
    {"patient_id": "solo", "admissions": [
        {"timestamp": 5, "icd9": ["0600"], "type": None, "duration_hours": 1.0},
        {"timestamp": 1, "icd9": ["ZZZ"], "type": None, "duration_hours": 1.0}]},
]

PREPARED_COHORT = (
    '{"patient_id": "a", "admissions": [{"timestamp": 100, "icd9": ["1", "7"],'
    ' "type": "emergency", "duration_hours": 24.0}, {"timestamp": 300, "icd9":'
    ' ["7"], "type": "urgent", "duration_hours": 5.5}]}\n'
    '{"patient_id": "7", "admissions": [{"timestamp": 50, "icd9": ["1"],'
    ' "type": "elective", "duration_hours": 2}, {"timestamp": 90, "icd9":'
    ' ["1", "7"], "type": "urgent", "duration_hours": 0}]}\n')

PREPARE_REPORT = (
    '{\n  "admissions_empty_codes": 3,\n  "admissions_negative_duration": 1,\n'
    '  "patients_too_few_admissions": 1,\n  "unknown_icd_codes": 4\n}\n')


def test_prepare_output_and_report_bytes(tmp_path, capsys):
    ccs = tmp_path / "map.csv"
    ccs.write_text(TABLE1_MAP)
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, RAW_COHORT)
    out = tmp_path / "cohort.jsonl"
    report = tmp_path / "report.json"
    code, _ = run(capsys, "prepare", "--input", str(inp), "--ccs", str(ccs),
                  "--output", str(out), "--report", str(report))
    assert code == 0
    assert out.read_text() == PREPARED_COHORT
    assert report.read_text() == PREPARE_REPORT


def test_prepare_missing_map_exit_2(tmp_path, capsys):
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, [two_admission_patient()])
    code, _ = run(capsys, "prepare", "--input", str(inp),
                  "--ccs", str(tmp_path / "missing.csv"),
                  "--output", str(tmp_path / "out.jsonl"))
    assert code == 2


@pytest.mark.parametrize("text", ["", "icd9,ccs_label,description\n",
                                  "\n\n"],
                         ids=["empty", "header-only", "blank-lines"])
def test_prepare_map_without_rows_exit_2(tmp_path, capsys, text):
    ccs = tmp_path / "map.csv"
    ccs.write_text(text)
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, [two_admission_patient()])
    out, report = tmp_path / "out.jsonl", tmp_path / "report.json"
    code = main(["--quiet", "prepare", "--input", str(inp), "--ccs",
                 str(ccs), "--output", str(out), "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {ccs}: no mapping rows\n"
    assert not out.exists() and not report.exists()


def test_predict_map_without_rows_exit_2(tmp_path, capsys):
    cohort, model = trained_model(tmp_path, capsys)
    ccs = tmp_path / "header.csv"
    ccs.write_text("icd9,ccs_label,description\n")
    code = main(["--quiet", "predict", "--model", str(model), "--history",
                 str(cohort), "--k", "4", "--ccs", str(ccs)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {ccs}: no mapping rows\n"


@pytest.mark.parametrize("command", ["prepare", "train"])
@pytest.mark.parametrize("field, value", [("timestamp", None),
                                          ("duration_hours", float("nan"))])
def test_malformed_record_exit_2(tmp_path, capsys, command, field, value):
    # a missing timestamp or a NaN duration on line 2 is named, not a traceback
    record = two_admission_patient()
    if value is None:
        del record["admissions"][1][field]
    else:
        record["admissions"][1][field] = value
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, [two_admission_patient("p0"), record])
    ccs = tmp_path / "map.csv"
    ccs.write_text(TABLE1_MAP)
    args = {"prepare": ["--input", str(inp), "--ccs", str(ccs), "--output",
                        str(tmp_path / "out.jsonl")],
            "train": ["--cohort", str(inp), "--model", str(tmp_path / "m.ckpt")]}
    code = main([command, *args[command]])
    assert code == 2
    assert "patients.jsonl:2: admissions[1]." in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth / train / evaluate / predict pipeline

def synth_cohort(tmp_path, capsys, n=12, vocab=25, noise="0.0", seed="3"):
    cohort = tmp_path / "cohort.jsonl"
    ccs = tmp_path / "identity.csv"
    code, _ = run(capsys, "synth", "--patients", str(n), "--vocab-size",
                  str(vocab), "--states", "3", "--noise-rate", noise,
                  "--seed", seed, "--output", str(cohort),
                  "--ccs-out", str(ccs))
    assert code == 0
    return cohort, ccs


def test_pipeline_train_evaluate_predict(tmp_path, capsys):
    cohort, ccs = synth_cohort(tmp_path, capsys)
    model = tmp_path / "model.ckpt"
    report = tmp_path / "train.json"
    code, _ = run(capsys, "train", "--cohort", str(cohort), "--model",
                  str(model), "--report", str(report), "--seed", "1",
                  "--max-epochs", "30", "--patience", "30")
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["iterations"] == len(rep["train_loss"]) <= 30
    assert min(rep["val_loss"][:rep["best_epoch"]]) >= rep["val_loss"][rep["best_epoch"] - 1]

    code, out = run(capsys, "evaluate", "--model", str(model), "--cohort",
                    str(cohort), "--k", "10", "20")
    assert code == 0
    scores = json.loads(out)
    assert set(scores) == {"10", "20"}
    assert scores["10"] <= scores["20"]

    ckpt = load_checkpoint(model)
    k = len(ckpt.vocab_labels)
    code, out = run(capsys, "predict", "--model", str(model), "--history",
                    str(cohort), "--k", str(k), "--ccs", str(ccs))
    assert code == 0
    answers = json.loads(out)
    assert len(answers) == 12
    ranked = answers[0]["predictions"]
    assert len(ranked) == k
    probs = [r["probability"] for r in ranked]
    assert probs == sorted(probs, reverse=True)
    assert abs(sum(probs) - 1.0) < 1e-9
    assert ranked[0]["description"].startswith("synthetic condition")


def test_train_same_seed_byte_identical_checkpoint(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    m1, m2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    for m in (m1, m2):
        code, _ = run(capsys, "train", "--cohort", str(cohort), "--model",
                      str(m), "--seed", "7", "--max-epochs", "5")
        assert code == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_train_max_epochs_one_row(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    report = tmp_path / "r.json"
    code, _ = run(capsys, "train", "--cohort", str(cohort), "--model",
                  str(tmp_path / "m.ckpt"), "--report", str(report),
                  "--max-epochs", "1")
    assert code == 0
    assert len(json.loads(report.read_text())["train_loss"]) == 1


def test_evaluate_single_admission_patient_exit_2(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    model = tmp_path / "m.ckpt"
    code, _ = run(capsys, "train", "--cohort", str(cohort), "--model",
                  str(model), "--max-epochs", "1")
    assert code == 0
    label = load_checkpoint(model).vocab_labels[0]
    short = tmp_path / "short.jsonl"
    write_patient_file(short, [{
        "patient_id": "x",
        "admissions": [{"timestamp": 5, "icd9": [label], "type": None,
                        "duration_hours": 1.0}],
    }])
    code = main(["evaluate", "--model", str(model), "--cohort", str(short)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_admission_without_codes_exit_2(tmp_path, capsys):
    # an unprepared cohort with an emptied admission after a first one
    cohort, _ = synth_cohort(tmp_path, capsys, n=20)
    records = [json.loads(line) for line in cohort.read_text().splitlines()]
    record = next(r for r in records if len(r["admissions"]) >= 3)
    record["admissions"][2]["icd9"] = []
    write_patient_file(cohort, records)
    model = tmp_path / "m.ckpt"
    code = main(["--quiet", "train", "--cohort", str(cohort), "--model",
                 str(model), "--max-epochs", "30"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: patient {record['patient_id']}: admission 2 has no codes "
        f"to predict (dxtraj prepare would drop it)\n")
    assert not model.exists()


def test_relative_paths_are_used_as_given(tmp_path, capsys, monkeypatch):
    # a file in DXTRAJ_DATA_DIR is not found by a relative path elsewhere
    data = tmp_path / "data"
    data.mkdir()
    write_patient_file(data / "cohort.jsonl", [two_admission_patient("p1"),
                                               two_admission_patient("p2")])
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("DXTRAJ_DATA_DIR", str(data))
    monkeypatch.chdir(work)
    code = main(["train", "--cohort", "cohort.jsonl", "--model", "m.ckpt",
                 "--max-epochs", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "cohort.jsonl" in err
    assert not (work / "m.ckpt").exists()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_import_pins_blas_threads_unless_set():
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["OMP_NUM_THREADS"] = "3"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = ("import os, sys, dxtraj.cli\n"
              "print(*(os.environ.get(v) for v in sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", script, *BLAS_VARS],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out.split() == ["1", "3", "1"]


def test_predict_unknown_code_exit_4(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    model = tmp_path / "m.ckpt"
    code, _ = run(capsys, "train", "--cohort", str(cohort), "--model",
                  str(model), "--max-epochs", "1")
    assert code == 0
    history = tmp_path / "history.jsonl"
    write_patient_file(history, [{
        "patient_id": "x",
        "admissions": [{"timestamp": 5, "icd9": ["not-a-code"], "type": None,
                        "duration_hours": 1.0}],
    }])
    code, _ = run(capsys, "predict", "--model", str(model), "--history",
                  str(history), "--k", "5")
    assert code == 4


def test_predict_answers_every_patient_in_file_order(tmp_path, capsys):
    cohort, model = trained_model(tmp_path, capsys)
    patients = load_patients(cohort)[::-1][:5]
    history = tmp_path / "history.jsonl"
    save_patients(patients, history)
    code, out = run(capsys, "predict", "--model", str(model), "--history",
                    str(history), "--k", "4")
    assert code == 0
    answers = json.loads(out)
    assert [a["patient_id"] for a in answers] == \
        [p.patient_id for p in patients]
    ckpt = load_checkpoint(model)
    vocab = CodeVocabulary(ckpt.vocab_labels)
    for answer, patient in zip(answers, patients):
        assert [(r["code"], r["probability"]) for r in answer["predictions"]] \
            == [(vocab.labels[i], p)
                for i, p in predict_topk(ckpt, patient, vocab, 4)]
        assert all(r["description"] == r["code"]
                   for r in answer["predictions"])


def test_predict_patient_without_admissions_exit_2(tmp_path, capsys):
    cohort, model = trained_model(tmp_path, capsys)
    history = tmp_path / "history.jsonl"
    history.write_text(cohort.read_text().splitlines()[0] + "\n"
                       + json.dumps({"patient_id": "nobody",
                                     "admissions": []}) + "\n")
    code = main(["--quiet", "predict", "--model", str(model), "--history",
                 str(history), "--k", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        f"error: {history}: patient 'nobody' has no admissions\n"


@pytest.mark.parametrize("command", ["prepare", "train", "predict"])
def test_repeated_patient_id_exit_2(tmp_path, capsys, command):
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, [two_admission_patient("p1"),
                             two_admission_patient("p2"),
                             two_admission_patient("p1")])
    ccs = tmp_path / "map.csv"
    ccs.write_text(TABLE1_MAP)
    args = {"prepare": ["--input", str(inp), "--ccs", str(ccs), "--output",
                        str(tmp_path / "out.jsonl")],
            "train": ["--cohort", str(inp), "--model", str(tmp_path / "m.ckpt")],
            "predict": ["--model", str(trained_model(tmp_path, capsys)[1]),
                        "--history", str(inp)]}
    code = main(["--quiet", command, *args[command]])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {inp}:3: duplicate patient_id 'p1' (first on line 1)\n")


# ---------------------------------------------------------------------------
# gradcheck

@pytest.mark.parametrize("argv, field", [
    (["--batch-size", "-1"], "batch_size"),
    (["--batch-size", "0"], "batch_size"),
    (["--max-epochs", "0"], "max_epochs"),
    (["--hidden-size", "0"], "hidden_size"),
    ({"layers": 0}, "layers"),
    ({"dropout_rate": 1.0}, "dropout_rate"),
    ({"adadelta_rho": 1.0}, "adadelta_rho"),
    ({"adadelta_rho": 1.5}, "adadelta_rho"),
    ({"adadelta_eps": 0}, "adadelta_eps"),
    ({"adadelta_eps": -1}, "adadelta_eps"),
    ({"l2_coeff": -5}, "l2_coeff"),
])
def test_train_out_of_range_config_exit_2(tmp_path, capsys, argv, field):
    cohort, _ = synth_cohort(tmp_path, capsys)
    if isinstance(argv, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv))
        argv = ["--config", str(config)]
    model = tmp_path / "m.ckpt"
    code = main(["train", "--cohort", str(cohort), "--model", str(model),
                 *argv])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not model.exists()


def trained_model(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    model = tmp_path / "m.ckpt"
    code, _ = run(capsys, "train", "--cohort", str(cohort), "--model",
                  str(model), "--max-epochs", "1")
    assert code == 0
    return cohort, model


@pytest.mark.parametrize("command, header", [
    ("evaluate", b"{}"), ("evaluate", b"[1]"),
    ("predict", b"{}"), ("predict", b"[1]"),
])
def test_malformed_checkpoint_header_exit_2(tmp_path, capsys, command,
                                            header):
    cohort, model = trained_model(tmp_path, capsys)
    magic, _, payload = model.read_bytes().split(b"\n", 2)
    model.write_bytes(b"\n".join([magic, header, payload]))
    data = "--cohort" if command == "evaluate" else "--history"
    code = main([command, "--model", str(model), data, str(cohort)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {model}: header ")


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("field, value", [("extras", 5), ("hidden", "4")])
def test_checkpoint_header_field_of_the_wrong_type_exit_2(
        tmp_path, capsys, command, field, value):
    cohort, model = trained_model(tmp_path, capsys)
    magic, header, payload = model.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    header[field] = value
    model.write_bytes(b"\n".join([magic, json.dumps(header).encode(),
                                  payload]))
    data = "--cohort" if command == "evaluate" else "--history"
    code = main([command, "--model", str(model), data, str(cohort)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {model}: header field {field}: expected")


@pytest.mark.parametrize("ks", [["0", "5"], ["5", "500"], ["-1"]])
def test_evaluate_k_out_of_range_exit_2(tmp_path, capsys, ks):
    cohort, model = trained_model(tmp_path, capsys)
    code = main(["evaluate", "--model", str(model), "--cohort", str(cohort),
                 "--k", *ks])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: k=")
    assert captured.out == ""


def test_evaluate_k_up_to_the_vocabulary(tmp_path, capsys):
    cohort, model = trained_model(tmp_path, capsys)
    n_codes = str(len(load_checkpoint(model).vocab_labels))
    code, out = run(capsys, "evaluate", "--model", str(model), "--cohort",
                    str(cohort), "--k", "1", n_codes)
    assert code == 0
    assert json.loads(out)[n_codes] == 1.0


def test_gradcheck_passes(capsys):
    code, out = run(capsys, "gradcheck")
    assert code == 0
    assert "max relative error" in out


def test_gradcheck_failure_exit_5(capsys):
    # an impossible tolerance forces the failure path
    code, _ = run(capsys, "gradcheck", "--tolerance", "0")
    assert code == 5


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-4"])
def test_gradcheck_rejects_a_tolerance_it_cannot_test(capsys, tolerance):
    # no error is above nan or inf, so either would pass any gradient
    code = main(["gradcheck", f"--tolerance={tolerance}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --tolerance must be ")
    assert captured.out == ""


def test_train_config_syntax_error_names_the_file(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    config = tmp_path / "config.json"
    config.write_text('{"max_epochs": 1,\n bad}')
    code = main(["train", "--cohort", str(cohort), "--config", str(config),
                 "--model", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {config}: invalid JSON (Expecting ")
    assert not (tmp_path / "m.ckpt").exists()


def test_compare_grid_syntax_error_names_the_file(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    grid = tmp_path / "grid.json"
    grid.write_text('[{"cell_kind": "mgru",}]')
    code = main(["compare", "--cohort", str(cohort), "--grid", str(grid),
                 "--seeds", "1", "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {grid}: invalid JSON (Expecting ")
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# one error policy: main() maps malformed input and bad paths to exit 2

BAD_INPUT = {
    "synth-noise-rate": ["synth", "--noise-rate", "1.5",
                         "--output", "{tmp}/c.jsonl"],
    "synth-states": ["synth", "--states", "0", "--output", "{tmp}/c.jsonl"],
    "synth-vocab-size": ["synth", "--vocab-size", "0",
                         "--output", "{tmp}/c.jsonl"],
    "synth-patients-0": ["synth", "--patients", "0",
                         "--output", "{tmp}/c.jsonl"],
    "synth-patients-negative": ["synth", "--patients", "-3",
                                "--output", "{tmp}/c.jsonl"],
    "synth-output-dir": ["synth", "--patients", "3", "--vocab-size", "10",
                         "--output", "{tmp}/missing/c.jsonl"],
    "train-model-dir": ["train", "--cohort", "{cohort}", "--max-epochs", "1",
                        "--model", "{tmp}/missing/m.ckpt"],
    "train-config-unknown-field": ["train", "--cohort", "{cohort}",
                                   "--config", "{file:{\"epochs\": 1}}",
                                   "--model", "{tmp}/m.ckpt"],
    "train-config-mistyped": ["train", "--cohort", "{cohort}",
                              "--config", "{file:{\"max_epochs\": \"1\"}}",
                              "--model", "{tmp}/m.ckpt"],
    "train-config-not-an-object": ["train", "--cohort", "{cohort}",
                                   "--config", "{file:[1]}",
                                   "--model", "{tmp}/m.ckpt"],
    "predict-empty-history": ["predict", "--model", "{model}",
                              "--history", "{file:}"],
    "compare-output-dir": ["compare", "--cohort", "{cohort}",
                           "--grid", "{grid}", "--seeds", "1",
                           "--output", "{tmp}/missing/g"],
    "gradcheck-codes": ["gradcheck", "--codes", "0"],
    "gradcheck-hidden": ["gradcheck", "--hidden", "0"],
    "gradcheck-patients": ["gradcheck", "--patients", "0"],
    "gradcheck-steps": ["gradcheck", "--steps", "0"],
}


def fill(tmp_path, capsys, arg):
    """An argument of BAD_INPUT with its placeholder made real."""
    if arg.startswith("{file:"):  # a file holding the text after the colon
        path = tmp_path / "given.json"
        path.write_text(arg[len("{file:"):-1])
        return str(path)
    if arg == "{cohort}":
        return str(synth_cohort(tmp_path, capsys)[0])
    if arg == "{model}":
        return str(trained_model(tmp_path, capsys)[1])
    if arg == "{grid}":
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([{"random_baseline": True}]))
        return str(path)
    return arg.format(tmp=tmp_path)


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_2_with_a_message(tmp_path, capsys, argv):
    argv = [fill(tmp_path, capsys, arg) for arg in argv]
    # --quiet silences progress, not the reason for the exit code
    code = main(["--quiet", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_bad_input_exits_2_without_a_traceback_in_a_process():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "dxtraj.cli", "gradcheck", "--codes", "0"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "error: --codes must be at least 1, got 0\n"


# outputs are checked before the work that produces them

UNWRITABLE = {
    "train-model": ["train", "--cohort", "{cohort}", "--max-epochs", "1",
                    "--model", "/nonexistent/m.ckpt"],
    "train-report": ["train", "--cohort", "{cohort}", "--max-epochs", "1",
                     "--model", "{tmp}/m.ckpt",
                     "--report", "/nonexistent/r.json"],
    "compare-output": ["compare", "--cohort", "{cohort}", "--grid",
                       "{file:[{\"cell_kind\": \"mgru\", \"max_epochs\": 1}]}",
                       "--seeds", "1", "--output", "/nonexistent/g"],
    "compare-output-is-a-directory": [
        "compare", "--cohort", "{cohort}", "--grid",
        "{file:[{\"cell_kind\": \"mgru\", \"max_epochs\": 1}]}",
        "--seeds", "1", "--output", "{tmp}/dir"],
}


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_exits_2_before_any_epoch(tmp_path, capsys,
                                                    monkeypatch, argv):
    (tmp_path / "dir.json").mkdir()
    argv = [fill(tmp_path, capsys, arg) for arg in argv]
    passes = []
    original = training._epoch_pass

    def counting(*args, **kwargs):
        passes.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "_epoch_pass", counting)
    code = main(["--quiet", *argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert passes == []
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flag", ["--output", "--report"])
def test_prepare_writes_nothing_when_an_output_is_unwritable(tmp_path, capsys,
                                                             flag):
    ccs = tmp_path / "map.csv"
    ccs.write_text(TABLE1_MAP)
    inp = tmp_path / "patients.jsonl"
    write_patient_file(inp, [two_admission_patient()])
    outputs = {"--output": str(tmp_path / "cohort.jsonl"),
               "--report": str(tmp_path / "report.json")}
    outputs[flag] = str(tmp_path / "missing" / "out")
    code, _ = run(capsys, "prepare", "--input", str(inp), "--ccs", str(ccs),
                  *(x for item in outputs.items() for x in item))
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["map.csv", "patients.jsonl"]


def test_synth_writes_nothing_when_the_map_is_unwritable(tmp_path, capsys):
    code, _ = run(capsys, "synth", "--patients", "3", "--vocab-size", "10",
                  "--output", str(tmp_path / "c.jsonl"),
                  "--ccs-out", str(tmp_path / "missing" / "ccs.csv"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# compare

def test_compare_grid(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"label": "mgru-1", "cell_kind": "mgru", "max_epochs": 2},
        {"label": "random", "random_baseline": True},
    ]))
    out_stem = str(tmp_path / "grid-out")
    code, _ = run(capsys, "compare", "--cohort", str(cohort), "--grid",
                  str(grid), "--seeds", "2", "--output", out_stem)
    assert code == 0
    rows = json.loads((tmp_path / "grid-out.json").read_text())
    assert {r["label"] for r in rows} == {"mgru-1", "random"}
    random_row = next(r for r in rows if r["label"] == "random")
    assert random_row["iterations"] == 1.0
    csv_text = (tmp_path / "grid-out.csv").read_text()
    assert csv_text.splitlines()[0].startswith("label,")

    # repeat run: metric columns identical (wall time varies)
    code, _ = run(capsys, "compare", "--cohort", str(cohort), "--grid",
                  str(grid), "--seeds", "2", "--output",
                  str(tmp_path / "again"))
    assert code == 0
    rows2 = json.loads((tmp_path / "again.json").read_text())
    for a, b in zip(rows, rows2):
        assert a["recall"] == b["recall"]
        assert a["iterations"] == b["iterations"]


@pytest.mark.parametrize("grid", [[5], {"a": 1}, [{"label": "m"}, "x"], []])
def test_compare_grid_not_a_list_of_objects_exit_2(tmp_path, capsys, grid):
    cohort, _ = synth_cohort(tmp_path, capsys)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code = main(["compare", "--cohort", str(cohort), "--grid", str(path),
                 "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "grid.json" in err
    assert not (tmp_path / "out.json").exists()


def test_compare_without_seeds_exit_2(tmp_path, capsys):
    # no seed would average nothing and write a row of NaN
    cohort, _ = synth_cohort(tmp_path, capsys)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"label": "r", "random_baseline": True}]))
    code = main(["compare", "--cohort", str(cohort), "--grid", str(path),
                 "--seeds", "0", "--output", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_compare_numeric_label_is_written_as_text(tmp_path, capsys):
    cohort, _ = synth_cohort(tmp_path, capsys)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"label": 5, "random_baseline": True}]))
    code, _ = run(capsys, "compare", "--cohort", str(cohort), "--grid",
                  str(path), "--seeds", "1", "--output", str(tmp_path / "o"))
    assert code == 0
    assert (tmp_path / "o.csv").read_text().splitlines()[1].startswith("5,")


GRIDS = Path(__file__).resolve().parent.parent / "grids"


@pytest.mark.parametrize("path", sorted(GRIDS.glob("*.json")),
                         ids=lambda path: path.name)
def test_committed_grids_are_train_configs(path):
    grid = json.loads(path.read_text())
    assert grid[-1] == {"label": "random", "random_baseline": True}
    for row in grid[:-1]:
        row = dict(row)
        del row["label"]
        TrainConfig.from_dict(row)


def test_cell_grid_names_every_cell_kind():
    grid = json.loads((GRIDS / "cell_comparison.json").read_text())
    assert {row.get("cell_kind") for row in grid} >= set(CELL_KINDS)


def test_synth_logs_the_oracle_ceiling(tmp_path, capsys):
    spec = SynthSpec(n_patients=20, vocab_size=25, n_states=3, seed=4)
    code = main(["synth", "--patients", "20", "--vocab-size", "25",
                 "--states", "3", "--seed", "4", "--output",
                 str(tmp_path / "cohort.jsonl")])
    ceiling = oracle_recall(spec, generate_cohort(spec), 25)
    assert code == 0
    assert f"oracle recall@25 ceiling: {ceiling:.3f}" in capsys.readouterr().err
