"""Tensor files: a name -> tensor mapping as one NumPy ``.npz`` archive of float32 or
float64 ``.npy`` members, which round-trips bit-exactly.  Each member's zip CRC-32
rejects a flipped byte in it; a flipped byte in the archive's end record can hide
whole members instead, so a reader checks the names it needs, as ``network.Model`` does.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .tensor import Tensor


def _member(path, name, value) -> Tensor:
    try:
        return Tensor(value)
    except ValueError as e:
        raise ValueError(f"{path}: member {name!r}: {e}") from e


def save_tensors(path, mapping) -> None:
    """Write ``mapping``, name -> Tensor or float32/float64 array, to ``path`` as one
    npz file of native arrays; a value ``Tensor`` rejects raises before any write."""
    arrays = {name: _member(path, name, value).data for name, value in mapping.items()}
    with open(path, "wb") as fh:  # a path np.savez gets itself would gain a ".npz" suffix
        np.savez(fh, **arrays)


def load_tensors(path) -> dict[str, Tensor]:
    """Read a ``save_tensors`` file back into name -> Tensor, bit-exactly, never unpickling.
    A truncated or corrupt file, a pickle, a plain ``.npy`` or a member that ``Tensor``
    rejects (one not float32 or float64, say) raises ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with archive:
                arrays = {name: archive[name] for name in archive.files}
        # A corrupt zip can also raise EOFError or RuntimeError (NotImplementedError).
        except (OSError, EOFError, RuntimeError, ValueError, zipfile.BadZipFile) as e:
            raise ValueError(f"{path}: {e}") from e
    return {name: _member(path, name, arr) for name, arr in arrays.items()}
