"""Bit-exact tensor file format.

Layout: magic bytes ``DFLT``, u8 version=1, u8 dtype (0=f32, 1=f64),
u8 ndim, then ndim little-endian u32 extents, then the row-major payload
in little-endian IEEE-754.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"DFLT"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_tensor(path, tensor) -> None:
    """Write a tensor (or array) to ``path`` in DFLT format."""
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(f"DFLT stores float32/float64 only, got {arr.dtype}")
    # NumPy caps ndim at 64, so it always fits the u8 field.
    header = MAGIC + struct.pack("<BBB", VERSION, _DTYPE_CODES[arr.dtype], arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False)
    Path(path).write_bytes(header + payload.tobytes())


def load_tensor(path) -> Tensor:
    """Read a DFLT file back into a Tensor, bit-exactly."""
    raw = Path(path).read_bytes()
    if len(raw) < 7 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a DFLT tensor file (bad magic)")
    version, dtype_code, ndim = struct.unpack("<BBB", raw[4:7])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported DFLT version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise ValueError(f"{path}: unknown dtype code {dtype_code}")
    offset = 7 + 4 * ndim
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated DFLT header")
    shape = struct.unpack(f"<{ndim}I", raw[7:offset]) if ndim else ()
    dtype = _CODE_DTYPES[dtype_code]
    count = int(np.prod(shape)) if ndim else 1
    expected = offset + count * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: payload length {len(raw) - offset} != expected {count * dtype.itemsize}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
    return Tensor(data.astype(dtype.newbyteorder("="), copy=True))
