"""DFLT tensor files and PPM/PGM image round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbank.imageio import load_pgm, load_ppm, save_pgm, save_ppm
from patchbank.tensor import Tensor
from patchbank.tensorio import load_tensor, save_tensor


class TestDFLT:
    def test_known_bytes_layout(self, tmp_path):
        path = tmp_path / "t.dflt"
        save_tensor(path, Tensor(np.array([[1.5]], dtype=np.float64)))
        expected = (b"DFLT" + bytes([1, 1, 2]) + struct.pack("<II", 1, 1)
                    + struct.pack("<d", 1.5))
        assert path.read_bytes() == expected

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 3, 4))
        path = tmp_path / "t.dflt"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.data.tobytes() == arr.tobytes()
        assert back.shape == (2, 3, 4)

    def test_f32_round_trip(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((5,)).astype(np.float32)
        path = tmp_path / "t.dflt"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == np.float32
        assert back.data.tobytes() == arr.tobytes()

    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "s.dflt"
        save_tensor(path, Tensor(np.float64(2.25)))
        back = load_tensor(path)
        assert back.shape == ()
        assert back.item() == 2.25

    def test_malformed_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dflt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="bad magic"):
            load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.dflt"
        save_tensor(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_tensor(path)

    def test_integer_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="float32/float64"):
            save_tensor(tmp_path / "t.dflt", np.arange(4))

    @pytest.mark.parametrize("raw,message", [
        (b"DFLT" + bytes([2, 1, 0]) + bytes(8), "unsupported DFLT version 2"),
        (b"DFLT" + bytes([1, 7, 0]) + bytes(8), "unknown dtype code 7"),
        (b"DFLT" + bytes([1, 1, 2]) + bytes(4), "truncated DFLT header"),
    ], ids=["version", "dtype-code", "header"])
    def test_malformed_header_rejected(self, tmp_path, raw, message):
        path = tmp_path / "t.dflt"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=rf"t\.dflt: {message}"):
            load_tensor(path)

    @given(st.lists(st.integers(1, 5), min_size=0, max_size=4),
           st.sampled_from([np.float32, np.float64]),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_ndim_and_extents_preserved(self, shape, dtype, pyrng):
        import tempfile
        from pathlib import Path

        arr = np.random.default_rng(pyrng.randrange(2**32)).standard_normal(shape).astype(dtype)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.dflt"
            save_tensor(path, arr)
            back = load_tensor(path)
        assert back.shape == tuple(shape)
        assert back.dtype == dtype
        assert back.data.tobytes() == arr.tobytes()


class TestPPM:
    def test_hand_decoded_2x2(self, tmp_path):
        # 2x2 P6 with known bytes: pixels row-major, RGB interleaved.
        payload = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 10, 20, 30])
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + payload)
        img = load_ppm(path)
        assert img.shape == (3, 2, 2)
        np.testing.assert_allclose(img[:, 0, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(img[:, 0, 1], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(img[:, 1, 0], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(img[:, 1, 1], [10 / 255, 20 / 255, 30 / 255])

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x80\x80\x80")
        img = load_ppm(path)
        assert img.shape == (3, 1, 1)

    def test_round_trip_u8_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) / 255.0
        path = tmp_path / "t.ppm"
        save_ppm(path, img)
        np.testing.assert_allclose(load_ppm(path), img, atol=1e-12)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="expected P6"):
            load_ppm(path)

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            load_ppm(path)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="pixel bytes"):
            load_ppm(path)

    @pytest.mark.parametrize("extents", [b"0 2", b"2 0", b"-2 2"])
    def test_empty_or_negative_extent_rejected(self, tmp_path, extents):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n" + extents + b"\n255\n" + bytes(12))
        with pytest.raises(ValueError, match=r"t\.ppm: image width and height must be >= 1"):
            load_ppm(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, bad):
        img = np.full((3, 2, 2), 0.5)
        img[1, 0, 1] = bad
        path = tmp_path / "t.ppm"
        with pytest.raises(ValueError, match="NaN or inf"):
            save_ppm(path, img)
        assert not path.exists()


class TestPGM:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(4, 6)).astype(np.float64) / 255.0
        path = tmp_path / "t.pgm"
        save_pgm(path, img)
        np.testing.assert_allclose(load_pgm(path), img, atol=1e-12)

    def test_normalized_write(self, tmp_path):
        img = np.array([[0.0, 50.0], [100.0, 25.0]])
        path = tmp_path / "t.pgm"
        save_pgm(path, img, normalize=True)
        back = load_pgm(path)
        assert back[0, 0] == 0.0
        assert back[1, 0] == 1.0

    @pytest.mark.parametrize("extents", [b"0 2", b"2 0", b"-2 2"])
    def test_empty_or_negative_extent_rejected(self, tmp_path, extents):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n" + extents + b"\n255\n" + bytes(4))
        with pytest.raises(ValueError, match=r"t\.pgm: image width and height must be >= 1"):
            load_pgm(path)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, bad, normalize):
        # Normalized, one NaN made hi > lo False and the whole image black.
        img = np.array([[0.0, 50.0], [100.0, bad]])
        path = tmp_path / "t.pgm"
        with pytest.raises(ValueError, match="NaN or inf"):
            save_pgm(path, img, normalize=normalize)
        assert not path.exists()


def _written(path, raw):
    path.write_bytes(raw)
    return path


@pytest.mark.parametrize("call,message", [
    (lambda d: load_ppm(_written(d / "t.ppm", b"P6\nab 2\n255\n" + bytes(12))),
     r"t\.ppm: header width b'ab' is not an integer"),
    (lambda d: load_pgm(_written(d / "t.pgm", b"P5\nab 2\n255\n" + bytes(4))),
     r"t\.pgm: header width b'ab' is not an integer"),
    (lambda d: load_ppm(_written(d / "t.ppm", b"P6\n2 2.0\n255\n" + bytes(12))),
     r"t\.ppm: header height b'2\.0' is not an integer"),
    (lambda d: load_pgm(_written(d / "t.pgm", b"P5\n2 2\nff\n" + bytes(4))),
     r"t\.pgm: header maxval b'ff' is not an integer"),
    (lambda d: load_ppm(_written(d / "t.ppm", b"P6\n2 2\n")), r"t\.ppm: header ends before the maxval"),
    (lambda d: load_pgm(_written(d / "t.pgm", b"P5 # 2 2 255")), r"t\.pgm: header ends before the width"),
    (lambda d: load_pgm(_written(d / "t.pgm", b"P5\n2 2\n255\n\x00")),
     r"t\.pgm: expected 4 pixel bytes, got 1"),
    (lambda d: save_ppm(d / "t.ppm", np.zeros((1, 2, 2))), r"expected a \(3, H, W\) image"),
    (lambda d: save_pgm(d / "t.pgm", np.zeros((1, 2, 2))), r"expected an \(H, W\) image"),
], ids=["ppm-width", "pgm-width", "ppm-height", "pgm-maxval", "ppm-short-header",
        "pgm-comment-only-header", "pgm-short-payload", "ppm-write-shape", "pgm-write-shape"])
def test_bad_image_rejected(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
