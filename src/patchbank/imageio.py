"""Binary PPM (P6) and PGM (P5) image I/O, maxval 255."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments, then read one token (empty at the end).
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _parse_header(raw: bytes, magic: bytes, path) -> tuple[int, int, int]:
    if raw[:2] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} image, got {raw[:2]!r}")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_token(raw, pos)
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
    return width, height, pos + 1


def _check_finite(path, image: np.ndarray) -> None:
    # The u8 cast would write NaN as 0 and inf as 255 without an error.
    if not np.isfinite(image).all():
        raise ValueError(f"{path}: image has NaN or inf values")


def load_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM into a (3, H, W) float64 array scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    width, height, offset = _parse_header(raw, b"P6", path)
    expected = width * height * 3
    payload = raw[offset : offset + expected]
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} pixel bytes, got {len(payload)}")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return img.transpose(2, 0, 1).astype(np.float64) / 255.0


def save_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) array with values in [0, 1] as binary P6 PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a (3, H, W) image, got shape {image.shape}")
    _check_finite(path, image)
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape[1:]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.transpose(1, 2, 0).tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into an (H, W) float64 array scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    width, height, offset = _parse_header(raw, b"P5", path)
    expected = width * height
    payload = raw[offset : offset + expected]
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} pixel bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).astype(np.float64) / 255.0


def save_pgm(path, image: np.ndarray, normalize: bool = False) -> None:
    """Write an (H, W) array as binary P5 PGM.

    With ``normalize`` the value range is min-max scaled to [0, 255];
    otherwise values are taken as [0, 1] and clipped.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected an (H, W) image, got shape {image.shape}")
    _check_finite(path, image)
    if normalize:
        lo, hi = float(image.min()), float(image.max())
        image = (image - lo) / (hi - lo) if hi > lo else np.zeros_like(image)
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
