"""Tensor files: a name -> tensor mapping as one NumPy ``.npz`` archive of float32 or
float64 ``.npy`` members, which round-trips bit-exactly.  Each member's zip CRC-32
rejects a flipped byte in it; a flipped byte in the archive's end record can hide
whole members instead, so a reader checks the names it needs, as ``network.Model`` does.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .tensor import Tensor


def save_tensors(path, mapping) -> None:
    """Write ``mapping``, name -> Tensor or float array, to ``path`` as one npz file."""
    arrays = {}
    for name, value in mapping.items():
        arr = np.asarray(value)  # a Tensor's __array__ returns its data uncopied
        if arr.size == 0 or arr.dtype != np.float32 and arr.dtype != np.float64:
            raise ValueError(f"{path}: tensor {name!r} must be a non-empty float32 or float64 "
                             f"array, got {arr.dtype} of shape {arr.shape}")
        arrays[name] = arr
    with open(path, "wb") as fh:  # a path np.savez gets itself would gain a ".npz" suffix
        np.savez(fh, **arrays)


def load_tensors(path) -> dict[str, Tensor]:
    """Read a ``save_tensors`` file back into name -> Tensor, bit-exactly, never unpickling.
    A truncated or corrupt file, a pickle, a plain ``.npy`` or a member that is not a
    float32 or float64 Tensor raises ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with archive:
                arrays = {name: archive[name] for name in archive.files}
            for name, arr in arrays.items():
                if not (isinstance(arr, np.ndarray) and arr.dtype.kind == "f"
                        and arr.dtype.itemsize in (4, 8)):
                    raise ValueError(f"member {name!r} is not float32 or float64, got "
                                     f"{getattr(arr, 'dtype', type(arr).__name__)}")
            return {name: Tensor(arr) for name, arr in arrays.items()}
        # A corrupt zip can also raise EOFError or RuntimeError (NotImplementedError).
        except (OSError, EOFError, RuntimeError, ValueError, zipfile.BadZipFile) as e:
            raise ValueError(f"{path}: {e}") from e
