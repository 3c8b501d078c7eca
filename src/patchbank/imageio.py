"""Binary PPM (P6) and PGM (P5) image I/O, maxval 255."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np


# Whitespace and '#' comments to skip, then one token (empty at the end).
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _read(path, magic: bytes, channels: int) -> np.ndarray:
    """The (channels, H, W) pixels of a binary Netpbm file as float64 in [0, 1]."""
    raw = Path(path).read_bytes()
    if raw[:2] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} image, got {raw[:2]!r}")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        match = _TOKEN.match(raw, pos)
        token, pos = match[1], match.end()
        if not token:
            raise ValueError(f"{path}: header ends before the {name}")
        # Netpbm allows ASCII decimal digits only; int() would also take "+1"
        # and "1_0".  A minus sign is let through to the range checks below.
        if not token.removeprefix(b"-").isdigit():
            raise ValueError(f"{path}: header {name} {token!r} is not an integer")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image width and height must be >= 1, got {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    # Exactly one whitespace byte separates the header from the payload.
    expected = width * height * channels
    payload = raw[pos + 1 : pos + 1 + expected]
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} pixel bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return pixels.transpose(2, 0, 1).astype(np.float64) / 255.0


def _encode(path, magic: str, image: np.ndarray, normalize: bool = False) -> bytes:
    """The file that holds (H, W, channels) values in [0, 1], clipped, as maxval-255
    bytes after a ``magic`` header; ``normalize`` first min-max scales the values to
    [0, 1].  ``path`` only names the file in errors."""
    # The u8 cast would write NaN as 0 and inf as 255 without an error.
    if not np.isfinite(image).all():
        raise ValueError(f"{path}: image has NaN or inf values")
    if normalize:
        lo, hi = float(image.min()), float(image.max())
        # A range wider than the largest float would scale every value to NaN.
        if not math.isfinite(hi - lo):
            raise ValueError(f"{path}: value range [{lo}, {hi}] is too wide to normalize")
        image = (image - lo) / (hi - lo) if hi > lo else np.zeros_like(image)
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape[:2]
    return f"{magic}\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def load_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM into a (3, H, W) float64 array scaled to [0, 1]."""
    return _read(path, b"P6", 3)


def ppm_bytes(path, image: np.ndarray) -> bytes:
    """The bytes ``save_ppm(path, image)`` writes, after the same checks; none written."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"{path}: expected a (3, H, W) image, got shape {image.shape}")
    return _encode(path, "P6", image.transpose(1, 2, 0))


def save_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) array with values in [0, 1] as binary P6 PPM."""
    Path(path).write_bytes(ppm_bytes(path, image))


def load_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into an (H, W) float64 array scaled to [0, 1]."""
    return _read(path, b"P5", 1)[0]


def save_pgm(path, image: np.ndarray, normalize: bool = False) -> None:
    """Write an (H, W) array as binary P5 PGM.

    With ``normalize`` the value range is min-max scaled to [0, 255];
    otherwise values are taken as [0, 1] and clipped.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected an (H, W) image, got shape {image.shape}")
    Path(path).write_bytes(_encode(path, "P5", image[:, :, None], normalize))
