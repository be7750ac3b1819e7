"""Checkpoint container: layout, round trips, byte determinism."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


# -- corrupt files: refused with a ValueError naming the file, never another error

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _refused(path) -> str:
    """Load ``path``, which must fail with a ValueError naming it."""
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: "), err.value
    return str(err.value)


def _preamble_end(raw: bytes) -> int:
    """Offset of the first payload byte: past the first tensor header."""
    return raw.index(b"\n", raw.index(b"\ntensor ") + 1) + 1


def test_refuses_every_truncation(tmp_path):
    raw = _saved(tmp_path).read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        _refused(cut)


@FUZZ
@given(junk=st.binary(min_size=1, max_size=64), prefix=st.booleans())
def test_refuses_junk_prefix_or_suffix(tmp_path, junk, prefix):
    raw = _saved(tmp_path).read_bytes()
    path = tmp_path / "junk.ckpt"
    path.write_bytes(junk + raw if prefix else raw + junk)
    _refused(path)


@FUZZ
@given(data=st.data())
def test_preamble_byte_flips_load_or_are_refused(tmp_path, data):
    # a flip that keeps the preamble well-formed (a metadata digit, a letter of
    # a tensor name) is a different valid file; any other must be refused
    raw = bytearray(_saved(tmp_path).read_bytes())
    at = data.draw(st.integers(0, _preamble_end(raw) - 1), label="offset")
    raw[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path = tmp_path / "flip.ckpt"
    path.write_bytes(bytes(raw))
    if at < len(MAGIC) or raw[at] >= 0x80:
        _refused(path)
    else:
        try:
            load_checkpoint(path)
        except ValueError:
            _refused(path)


@pytest.mark.parametrize("version", [b"0", b"2", b"10"])
def test_refuses_other_format_versions(tmp_path, version):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes().replace(MAGIC, b"FLOWMAPCKPT" + version + b"\n", 1))
    assert f"checkpoint format version {version.decode()} is not supported" in _refused(path)


def test_refuses_duplicate_metadata_key(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"task=gaussian2d\n", b"depth=3\n"))
    assert "metadata key 'depth' appears twice" in _refused(path)


@pytest.mark.parametrize("dims", ["99999999999999999999", ",".join(["1"] * 70)])
def test_refuses_impossible_shapes(tmp_path, dims):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"x": np.zeros(1)}, {})
    path.write_bytes(path.read_bytes().replace(b"tensor x 1\n", f"tensor x {dims}\n".encode()))
    _refused(path)
