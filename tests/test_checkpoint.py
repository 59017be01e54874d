import numpy as np
import numpy.testing as npt
import pytest

from dxtraj import network
from dxtraj.checkpoint import load_checkpoint, save_checkpoint
from dxtraj.ehr_data import ExtraFeatures
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


def test_roundtrip_identical_outputs(tmp_path):
    model = make_model()
    batch = random_batch(6, 2, 3, SeededRng(0),
                         extras=ExtraFeatures(duration=True))
    before = network.forward(batch, model)["yhat"]
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    after = network.forward(batch, load_checkpoint(path))["yhat"]
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
