"""Single-file tensor container: JSON header + raw little-endian f32 payload.

Byte layout (documented here and in the README):

    bytes 0..7    header length N as little-endian uint64
    bytes 8..8+N  UTF-8 JSON object:
                      {"meta": {...arbitrary JSON metadata...},
                       "tensors": {name: {"dtype": "f32",
                                          "shape": [d0, d1, ...],
                                          "offset": byte offset into payload}}}
    bytes 8+N..   payload: tensors in ascending name order, each stored
                  row-major (C order) little-endian float32, no padding

Writing is fully deterministic: JSON keys are sorted, payload order is the
sorted tensor-name order, and offsets are derived from shapes alone.  Two
calls with equal contents produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError

_MAGIC_DTYPE = "f32"


def _payload_layout(tensors: dict[str, np.ndarray]) -> dict[str, int]:
    offsets: dict[str, int] = {}
    cursor = 0
    for name in sorted(tensors):
        offsets[name] = cursor
        cursor += tensors[name].size * 4
    return offsets


def serialize(tensors: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Serialize named tensors plus a metadata dict into container bytes."""
    arrays = {}
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype="<f4", order="C")  # keeps a 0-d tensor 0-d
        if not np.all(np.isfinite(a)):
            raise NumericError(f"tensor {name!r} contains non-finite values")
        arrays[name] = a
    offsets = _payload_layout(arrays)
    header = {
        "meta": meta if meta is not None else {},
        "tensors": {
            name: {"dtype": _MAGIC_DTYPE, "shape": list(a.shape), "offset": offsets[name]}
            for name, a in arrays.items()
        },
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # memoryviews of the contiguous arrays: join copies each payload once
    parts = [struct.pack("<Q", len(header_bytes)), header_bytes]
    parts.extend(memoryview(arrays[name]) for name in sorted(arrays))
    return b"".join(parts)


def deserialize(blob: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`serialize`: (tensors, meta); malformed input raises InputError.

    Every header entry is checked.  The tensors are read-only views into
    ``blob`` that keep it alive: a loader takes the ones it keeps through
    :func:`take_tensors`, which checks and copies them, and no others.
    """
    if len(blob) < 8:
        raise InputError("container too short for header length field")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if 8 + header_len > len(blob):
        raise InputError(f"header of {header_len} bytes runs past the end of the container")
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except ValueError as exc:
        raise InputError(f"container header is not valid JSON: {exc}") from None
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), dict)
            and isinstance(header.get("meta", {}), dict)):
        raise InputError("container header lacks a tensors table or meta object")
    # tensors are views into ``blob``; the payload is never copied here
    payload_start = 8 + header_len
    payload_len = len(blob) - payload_start
    tensors: dict[str, np.ndarray] = {}
    for name, desc in header["tensors"].items():
        if not isinstance(desc, dict) or desc.get("dtype") != _MAGIC_DTYPE:
            raise InputError(f"unsupported dtype for tensor {name!r}")
        shape, start = desc.get("shape"), desc.get("offset")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
                and type(start) is int and start >= 0):
            raise InputError(f"tensor {name!r} has a malformed shape or offset")
        count = math.prod(shape)
        if start + count * 4 > payload_len:
            raise InputError(f"payload truncated for tensor {name!r}")
        tensors[name] = np.frombuffer(blob, dtype="<f4", count=count,
                                      offset=payload_start + start).reshape(shape)
    return tensors, header.get("meta", {})


def take(entries: dict, names, what: str) -> list:
    """The values of ``names`` in ``entries``; a missing name raises InputError."""
    for name in names:
        if name not in entries:
            raise InputError(f"{what} lacks {name!r}")
    return [entries[name] for name in names]


def take_tensors(tensors: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]],
                 what: str) -> list[np.ndarray]:
    """Writable copies, in ``shapes`` order, of the :func:`deserialize` tensors
    that ``shapes`` names; the one check of a loaded tensor.  A missing name
    (all are looked up first) or a shape other than ``shapes[name]`` raises
    InputError, a non-finite value NumericError."""
    arrays = take(tensors, shapes, what)
    for (name, shape), arr in zip(shapes.items(), arrays):
        if arr.shape != shape:
            raise InputError(f"{name}: expected shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"{name}: contains non-finite values")
    return [arr.copy() for arr in arrays]


def save(path: str | Path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    Path(path).write_bytes(serialize(tensors, meta))


def load(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    return deserialize(Path(path).read_bytes())
