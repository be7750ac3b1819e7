"""Checkpoint container: layout, round trips, byte determinism."""

import numpy as np
import pytest

from flowmaplab.io import MAGIC, load_checkpoint, save_checkpoint


def _tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layer0.W": rng.normal(size=(4, 3)),
        "layer0.b": rng.normal(size=(3,)),
        "scalar": np.asarray(rng.normal()),
    }


def test_roundtrip_exact(tmp_path):
    path = tmp_path / "m.ckpt"
    tensors = _tensors()
    meta = {"depth": 2, "task": "gaussian2d"}
    save_checkpoint(path, tensors, meta)
    back, meta_back = load_checkpoint(path)
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], np.asarray(tensors[k], dtype=np.float64))
        assert back[k].shape == np.asarray(tensors[k]).shape
    assert meta_back["depth"] == "2"
    assert meta_back["task"] == "gaussian2d"


def test_magic_prefix(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _tensors(), {})
    assert path.read_bytes().startswith(MAGIC)


def test_byte_determinism_independent_of_insert_order(tmp_path):
    t1 = _tensors(1)
    t2 = dict(reversed(list(t1.items())))
    m1 = {"a": 1, "b": 2}
    m2 = {"b": 2, "a": 1}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, t1, m1)
    save_checkpoint(p2, t2, m2)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_dim_tensor(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, {"x": np.asarray(3.5)}, {})
    back, _ = load_checkpoint(path)
    assert back["x"].shape == ()
    assert back["x"] == 3.5


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _saved(tmp_path, name="m.ckpt"):
    path = tmp_path / name
    save_checkpoint(path, _tensors(), {"depth": 2, "task": "gaussian2d"})
    return path


def test_resave_is_byte_identical(tmp_path):
    path = _saved(tmp_path)
    tensors, meta = load_checkpoint(path)
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, tensors, meta)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("cut", [3, 8])
def test_rejects_truncated_payload(tmp_path, cut):
    # the last tensor in sorted order is "scalar"
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match=r"m\.ckpt: truncated checkpoint, tensor 'scalar'"):
        load_checkpoint(path)


def test_rejects_truncated_header(tmp_path):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.index(b"tensor layer0.b") + 10])
    with pytest.raises(ValueError, match=r"m\.ckpt: truncated checkpoint, tensor header"):
        load_checkpoint(path)


def test_rejects_trailing_bytes(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match=r"m\.ckpt: 8 trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("meta", [{"note": "a\nb"}, {"a\nb": 1}, {"a=b": 1}])
def test_save_refuses_unreadable_metadata(tmp_path, meta):
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="cannot be stored"):
        save_checkpoint(path, _tensors(), meta)
    assert not path.exists()


@pytest.mark.parametrize("name", ["", "a b", "a\nb"])
def test_save_refuses_unreadable_tensor_name(tmp_path, name):
    with pytest.raises(ValueError, match="cannot be stored"):
        save_checkpoint(tmp_path / "m.ckpt", {name: np.zeros(2)}, {})
