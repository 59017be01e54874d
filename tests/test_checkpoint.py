import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxtraj import network
from dxtraj.cells import CELL_KINDS
from dxtraj.checkpoint import HEADER_FIELDS, load_checkpoint, save_checkpoint
from dxtraj.cli import main
from dxtraj.ehr_data import (Admission, CodeVocabulary, ExtraFeatures,
                             PatientRecord, save_patients)
from dxtraj.gradcheck import random_batch
from dxtraj.numerics import SeededRng


def make_model():
    model = network.init_model(
        "mgru", 6, 4, layers=2,
        extras=ExtraFeatures(duration=True), rng=SeededRng(3))
    for k, v in model.flat().items():
        v[...] = v + SeededRng(hash(k) % 997).normal(0.2, v.shape)
    model.duration_max = 37.5
    model.vocab_labels = [str(i) for i in range(6)]
    return model


def test_roundtrip_identical_arrays_and_meta(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.cell_kind == "mgru"
    assert loaded.layers == 2
    assert loaded.extras == model.extras
    assert loaded.duration_max == 37.5
    assert loaded.vocab_labels == model.vocab_labels
    for k, v in model.flat().items():
        npt.assert_array_equal(loaded.flat()[k], v)


def test_roundtrip_restores_into_the_arena(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    npt.assert_array_equal(loaded.theta, model.theta)
    # the payload is theta's bytes, after the two header lines
    assert path.read_bytes().split(b"\n", 2)[2] == model.theta.tobytes()
    for v in loaded.flat().values():
        assert np.shares_memory(v, loaded.theta)
    assert np.shares_memory(loaded.bwd[1]["Wf"], loaded.theta)
    loaded.flat()["Wout"][...] = 0.0
    assert not loaded.Wout.any()


def test_rejects_mismatched_index_and_payload(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(path)
    path.write_bytes(blob.replace(b'"Wout"', b'"Wfoo"', 1))
    with pytest.raises(ValueError, match="array index"):
        load_checkpoint(path)


def test_oversized_header_is_rejected_before_allocating(tmp_path):
    # a small file whose header asks for hidden 1500 (about 200 MB of theta)
    # fails on its payload size before any model is built
    model = network.init_model("mgru", 3, 2)
    model.vocab_labels = ["a", "b", "c"]
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    header["hidden"] = 1500
    path.write_bytes(b"\n".join([magic, json.dumps(header).encode(),
                                 payload]))
    assert path.stat().st_size < 2048
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="payload holds"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_header_with_countless_layers_fails_on_its_payload_size(tmp_path):
    # the expected size is counted in closed form, not layer by layer
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    header["layers"] = 10**21
    path.write_bytes(b"\n".join([magic, json.dumps(header).encode(),
                                 payload]))
    with pytest.raises(ValueError, match="payload holds"):
        load_checkpoint(path)


def with_header(path, header: bytes):
    """Replace the header line of the checkpoint at path."""
    magic, _, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join([magic, header, payload]))


def test_saved_header_holds_the_checked_fields(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    header = json.loads(path.read_bytes().split(b"\n", 2)[1])
    assert sorted(header) == sorted(HEADER_FIELDS)


@pytest.mark.parametrize("header, problem", [
    (b"[1]", "header is not a JSON object"),
    (b'"text"', "header is not a JSON object"),
    (b"{}", "header lacks version, cell_kind, n_codes"),
    (b'{"version', "m.ckpt: header is not JSON"),
])
def test_rejects_a_malformed_header(tmp_path, header, problem):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    with_header(path, header)
    with pytest.raises(ValueError, match=problem):
        load_checkpoint(path)


@pytest.mark.parametrize("field", HEADER_FIELDS)
def test_rejects_a_header_without_a_field(tmp_path, field):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    header = json.loads(path.read_bytes().split(b"\n", 2)[1])
    del header[field]
    with_header(path, json.dumps(header).encode())
    with pytest.raises(ValueError, match=f"header lacks {field}$"):
        load_checkpoint(path)


NOT_A_FLAGS_OBJECT = [5, [True, False, False], {"adm_type": True},
                      {"adm_type": 1, "duration": True, "interval": False},
                      {"adm_type": True, "duration": True, "interval": False,
                       "embed": True}]


@pytest.mark.parametrize("field, value", [
    ("cell_kind", "rnn"), ("cell_kind", 3), ("cell_kind", ["mgru"]),
    ("n_codes", 0), ("n_codes", "6"), ("n_codes", 6.0), ("n_codes", True),
    ("hidden", "4"), ("hidden", 0), ("hidden", False), ("hidden", None),
    ("layers", 0), ("layers", 2.0), ("layers", -1),
    *[("extras", v) for v in NOT_A_FLAGS_OBJECT],
    ("embed_dim", -1), ("embed_dim", None), ("embed_dim", True),
    ("duration_max", -1.0), ("duration_max", "37.5"), ("duration_max", None),
    ("duration_max", True), ("duration_max", float("nan")),
    ("duration_max", float("inf")),
    ("interval_max", -0.5), ("interval_max", "1"), ("interval_max", [1.0]),
    ("vocab_labels", ["0", "1"]), ("vocab_labels", list(range(6))),
    ("vocab_labels", "012345"), ("vocab_labels", None),
])
def test_rejects_a_header_field_of_the_wrong_type_or_range(tmp_path, field,
                                                           value):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    header = json.loads(path.read_bytes().split(b"\n", 2)[1])
    header[field] = value
    with_header(path, json.dumps(header).encode())
    with pytest.raises(ValueError, match=f"header field {field}: expected"):
        load_checkpoint(path)


def test_accepts_integral_maxima_and_no_embedding(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    header = json.loads(path.read_bytes().split(b"\n", 2)[1])
    header.update(duration_max=37, interval_max=0, embed_dim=0)
    with_header(path, json.dumps(header).encode())
    loaded = load_checkpoint(path)
    assert (loaded.duration_max, loaded.interval_max) == (37, 0)


def test_roundtrip_identical_outputs(tmp_path):
    model = make_model()
    batch = random_batch(6, 2, 3, SeededRng(0),
                         extras=ExtraFeatures(duration=True))
    before = network.forward(batch, model)["yhat_rows"]
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    after = network.forward(batch, load_checkpoint(path))["yhat_rows"]
    npt.assert_array_equal(before, after)


def test_save_is_byte_deterministic(tmp_path):
    model = make_model()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_save_byte_identical(tmp_path):
    model = make_model()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"nope\n{}\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(bad)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    model = make_model()
    save_checkpoint(model, tmp_path / "m.ckpt")
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
    assert leftovers == []


def test_save_into_a_missing_directory_names_the_path(tmp_path):
    path = tmp_path / "missing" / "m.ckpt"
    with pytest.raises(FileNotFoundError, match="m.ckpt'$"):
        save_checkpoint(make_model(), path)


def test_rejects_trailing_payload_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(), path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(path)


@pytest.mark.parametrize("poison", ["nan payload", "one inf"])
def test_rejects_non_finite_weights(tmp_path, capsys, poison):
    # a corrupted or diverged checkpoint: load names the file, and predict
    # and evaluate exit 2 where they would print NaN or a recall of 0
    model = network.init_model("mgru", 3, 2, rng=SeededRng(5))
    model.vocab_labels = ["a", "b", "c"]
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    weights = np.frombuffer(payload, dtype="<f8").copy()
    if poison == "nan payload":
        weights[:] = np.nan
    else:
        weights[len(weights) // 2] = np.inf
    assert len(weights.tobytes()) == len(payload)
    path.write_bytes(b"\n".join([magic, header, weights.tobytes()]))
    with pytest.raises(ValueError, match="m.ckpt: the weights hold a "
                                         "non-finite value"):
        load_checkpoint(path)
    cohort = tmp_path / "cohort.jsonl"
    save_patients([PatientRecord(f"p{i}", [Admission(10, {"a", "b"}),
                                           Admission(20, {"c"})])
                   for i in range(2)], cohort)
    for argv in (["predict", "--history", str(cohort), "--k", "2"],
                 ["evaluate", "--cohort", str(cohort), "--k", "2"]):
        assert main(["--quiet", *argv, "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "non-finite" in \
            captured.err


def test_load_draws_no_weights(tmp_path, monkeypatch):
    # the loaded model is built without the Gaussian draws of init_model
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(SeededRng, "normal", no_draws)
    npt.assert_array_equal(load_checkpoint(path).theta, model.theta)


def test_init_model_without_rng_has_the_seeded_structure():
    seeded = network.init_model("lstm_google", 6, 4, layers=2, embed_dim=3,
                                extras=ExtraFeatures(adm_type=True),
                                rng=SeededRng(5))
    bare = network.init_model("lstm_google", 6, 4, layers=2, embed_dim=3,
                              extras=ExtraFeatures(adm_type=True))
    assert bare.layout == seeded.layout
    assert not bare.Wout.any() and not bare.E.any()
    npt.assert_array_equal(bare.fwd[1]["Ui"], np.eye(4))


labels = st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=7,
                  unique=True)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CELL_KINDS), layers=st.integers(1, 2),
       extras=st.builds(ExtraFeatures, st.booleans(), st.booleans(),
                        st.booleans()),
       embed_dim=st.one_of(st.none(), st.integers(1, 3)),
       vocab_labels=labels,
       maxima=st.tuples(st.one_of(st.just(0.0), st.floats(1.0, 1e6)),
                        st.one_of(st.just(0), st.floats(1.0, 1e9))),
       seed=st.integers(0, 2**31))
def test_checkpoint_round_trip_property(kind, layers, extras, embed_dim,
                                        vocab_labels, maxima, seed):
    rng = SeededRng(seed)
    model = network.init_model(kind, len(vocab_labels), 3, layers=layers,
                               extras=extras, embed_dim=embed_dim, rng=rng)
    model.theta[...] += rng.normal(0.3, model.theta.shape)
    model.duration_max, model.interval_max = maxima
    model.vocab_labels = vocab_labels
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        again = Path(tmp) / "again.ckpt"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()
    assert loaded.theta.tobytes() == model.theta.tobytes()
    assert loaded.layout == model.layout
    for name in ("cell_kind", "n_codes", "hidden", "layers", "extras",
                 "embed_dim", "duration_max", "interval_max",
                 "vocab_labels"):
        assert getattr(loaded, name) == getattr(model, name), name
    vocab = CodeVocabulary(vocab_labels)
    history = PatientRecord("p", [
        Admission(1000 + 50 * i, {vocab_labels[i % len(vocab_labels)]},
                  "emergency", 12.0 * i) for i in range(3)])
    k = len(vocab_labels)
    assert network.predict_topk(loaded, history, vocab, k) == \
        network.predict_topk(model, history, vocab, k)
