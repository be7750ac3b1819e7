"""Checkpoint container: named float64 tensors plus a metadata record.

Layout: an ASCII preamble (magic, metadata key=value lines, per-tensor
headers) interleaved with raw little-endian float64 payloads.  Tensors are
written in sorted-name order so identical states produce identical bytes.
A file that does not parse exactly, to its last byte, is refused.
"""

from __future__ import annotations

import io
import math
import re
from pathlib import Path

import numpy as np

MAGIC = b"FLOWMAPCKPT1\n"


def _check_writable(tensors: dict, metadata: dict) -> None:
    """Refuse names and values that would not read back as written."""
    for key, value in metadata.items():
        key, value = str(key), str(value)
        if "\n" in key or "\n" in value or "=" in key or not (key + value).isascii():
            raise ValueError(f"metadata {key!r}={value!r} cannot be stored: keys and "
                             "values must be ASCII without newlines, keys without '='")
    for name in map(str, tensors):
        if not name.isascii() or len(name.split()) != 1:
            raise ValueError(f"tensor name {name!r} cannot be stored: it must be a "
                             "non-empty ASCII word")


def save_checkpoint(path, tensors: dict, metadata: dict) -> None:
    _check_writable(tensors, metadata)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"meta {len(metadata)}\n".encode("ascii"))
        for key in sorted(metadata):
            fh.write(f"{key}={metadata[key]}\n".encode("ascii"))
        fh.write(f"tensors {len(tensors)}\n".encode("ascii"))
        for name in sorted(tensors):
            # note: ascontiguousarray would promote 0-d arrays to 1-d
            arr = np.asarray(tensors[name], dtype=np.float64)
            dims = ",".join(str(n) for n in arr.shape) if arr.ndim else "-"
            fh.write(f"tensor {name} {dims}\n".encode("ascii"))
            fh.write(arr.astype("<f8").tobytes())


def _line(fh, path, what: str) -> str:
    raw = fh.readline()
    if not raw.endswith(b"\n"):
        raise ValueError(f"{path}: truncated checkpoint, {what} is cut off")
    try:
        return raw[:-1].decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: malformed checkpoint {what}: not ASCII") from None


def _count(fh, path, keyword: str) -> int:
    fields = _line(fh, path, f"{keyword} header").split(" ")
    if len(fields) != 2 or fields[0] != keyword or not fields[1].isdigit():
        raise ValueError(f"{path}: malformed checkpoint {keyword} header {fields!r}")
    return int(fields[1])


def _shape(dims: str) -> tuple | None:
    if dims == "-":
        return ()
    parts = dims.split(",")
    return tuple(int(p) for p in parts) if all(p.isdigit() for p in parts) else None


def load_checkpoint(path):
    # parsed in memory, so a corrupt shape cannot make read() allocate its size
    blob = Path(path).read_bytes()
    fh = io.BytesIO(blob)
    magic = fh.readline()
    if magic != MAGIC:
        version = re.fullmatch(rb"FLOWMAPCKPT(\d+)\n", magic)
        if version:
            raise ValueError(f"{path}: checkpoint format version "
                             f"{version[1].decode()} is not supported, only version 1")
        raise ValueError(f"{path}: not a checkpoint file")
    metadata = {}
    for _ in range(_count(fh, path, "meta")):
        key, sep, val = _line(fh, path, "metadata line").partition("=")
        if not sep:
            raise ValueError(f"{path}: malformed checkpoint metadata line {key!r}")
        if key in metadata:
            raise ValueError(f"{path}: metadata key {key!r} appears twice")
        metadata[key] = val
    tensors = {}
    for _ in range(_count(fh, path, "tensors")):
        header = _line(fh, path, "tensor header")
        fields = header.split(" ")
        shape = _shape(fields[2]) if len(fields) == 3 and fields[0] == "tensor" else None
        if shape is None:
            raise ValueError(f"{path}: malformed checkpoint tensor header {header!r}")
        name = fields[1]
        if name in tensors:
            raise ValueError(f"{path}: tensor {name!r} appears twice")
        want, left = 8 * math.prod(shape), len(blob) - fh.tell()
        if want > left:
            raise ValueError(f"{path}: truncated checkpoint, tensor {name!r} has "
                             f"{left} of {want} payload bytes")
        try:
            tensors[name] = np.frombuffer(fh.read(want), dtype="<f8").reshape(shape).copy()
        except ValueError as err:  # more dimensions than numpy supports
            raise ValueError(f"{path}: malformed checkpoint tensor header "
                             f"{header!r}: {err}") from None
    trailing = len(fh.read())
    if trailing:
        raise ValueError(f"{path}: {trailing} trailing bytes after the last tensor")
    return tensors, metadata
