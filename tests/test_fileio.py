"""Tensor files (npz archives) and PPM/PGM image round trips."""

import io
import pickle
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbank import imageio
from patchbank.imageio import load_pgm, load_ppm, save_pgm, save_ppm
from patchbank.tensor import Tensor
from patchbank.tensorio import load_tensors, save_tensors


def _npy(arr) -> bytes:
    """``arr`` as the bytes of one ``.npy`` file."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr))
    return buf.getvalue()


def _npz(**members) -> bytes:
    """A zip archive of raw ``<name>.npy`` members, each with a valid CRC-32."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        for name, raw in members.items():
            archive.writestr(f"{name}.npy", raw)
    return buf.getvalue()


def _object_npz() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, w=np.array([None, 1.0], dtype=object))
    return buf.getvalue()


ONES = _npy(np.ones(3))


class TestDFLT:
    """``tensorio`` files: one npz archive holding a name -> tensor mapping."""

    def test_known_bytes_layout(self, tmp_path):
        # A plain npz: one stored .npy member per name, readable without tensorio.
        path = tmp_path / "t.npz"
        save_tensors(path, {"w": Tensor(np.array([[1.5]])), "b": np.float32(-2.0)})
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["w.npy", "b.npy"]
            assert archive.read("w.npy") == _npy(np.array([[1.5]]))
            assert archive.read("b.npy") == _npy(np.float32(-2.0))
        with np.load(path, allow_pickle=False) as plain:
            assert plain["w"].tolist() == [[1.5]] and plain["b"].dtype == np.float32

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"a.weight": rng.standard_normal((2, 3, 4)), "bias": rng.standard_normal(5)}
        path = tmp_path / "t.npz"
        save_tensors(path, arrays)
        back = load_tensors(path)
        assert list(back) == ["a.weight", "bias"]
        for name, arr in arrays.items():
            assert isinstance(back[name], Tensor) and back[name].shape == arr.shape
            assert back[name].data.tobytes() == arr.tobytes()

    def test_f32_round_trip(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((5,)).astype(np.float32)
        path = tmp_path / "t.npz"
        save_tensors(path, {"x": arr})
        back = load_tensors(path)["x"]
        assert back.dtype == np.float32
        assert back.data.tobytes() == arr.tobytes()

    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "s.npz"
        save_tensors(path, {"s": Tensor(np.float64(2.25))})
        back = load_tensors(path)["s"]
        assert back.shape == ()
        assert back.item() == 2.25

    def test_malformed_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match=r"bad\.npz: "):
            load_tensors(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.npz"
        save_tensors(path, {"w": np.ones((4, 4)), "b": np.ones(4, np.float32)})
        raw = path.read_bytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(ValueError, match=r"t\.npz: "):
                load_tensors(path)

    def test_integer_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"t\.npz: tensor 'i' must be a non-empty float32 or "
                                             r"float64 array, got int64 of shape \(4,\)"):
            save_tensors(tmp_path / "t.npz", {"w": np.ones(2), "i": np.arange(4)})
        with pytest.raises(ValueError, match=r"tensor 'e' must be a non-empty .*got float64 of "
                                             r"shape \(2, 0\)"):
            save_tensors(tmp_path / "t.npz", {"e": np.ones((2, 0))})
        assert not (tmp_path / "t.npz").exists()
        path = tmp_path / "i.npz"
        path.write_bytes(_npz(w=_npy(np.ones(2)), i=_npy(np.arange(4))))
        with pytest.raises(ValueError, match=r"i\.npz: member 'i' is not float32 or float64, "
                                             r"got int64"):
            load_tensors(path)

    @pytest.mark.parametrize("raw,message", [
        (_npz(w=ONES[:6] + bytes([9]) + ONES[7:]), r"format version .*not \(9, 0\)"),
        (_npz(w=_npy(np.ones(2, np.complex128))),
         "member 'w' is not float32 or float64, got complex128"),
        (_npz(w=ONES[:20]), "EOF: reading array header"),
        (_npz(w=ONES[:-8]), "EOF: reading array data"),
        (_npz(w=_npy(np.ones(2, np.float16))), "member 'w' is not float32 or float64, got float16"),
        (_npz(w=_npy(np.zeros((2, 0)))), r"tensor extents must all be >= 1, got shape \(2, 0\)"),
        (_npz(w=b"not an array"), "member 'w' is not float32 or float64, got bytes"),
        (_object_npz(), "Object arrays cannot be loaded when allow_pickle=False"),
        (pickle.dumps({"w": np.ones(3)}), "pickled"),
        (ONES, "not an npz archive"),
        (b"", "No data left in file"),
    ], ids=["version", "dtype-code", "header", "payload", "float16", "empty-member",
            "not-npy-member", "object-member", "pickle", "npy", "empty-file"])
    def test_malformed_header_rejected(self, tmp_path, raw, message):
        path = tmp_path / "t.npz"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=rf"t\.npz: .*{message}"):
            load_tensors(path)

    def test_flipped_byte_rejected_or_drops_whole_members(self, tmp_path):
        """The CRC-32 rejects a flip inside any member; a flip in the zip's own
        records is rejected too or, in the archive's end record, hides whole
        members, but never changes a loaded value."""
        arrays = {"w": np.random.default_rng(2).random((3, 3)), "b": np.ones(2, np.float32)}
        path = tmp_path / "t.npz"
        save_tensors(path, arrays)
        raw = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            members = set()
            for info in archive.infolist():
                name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26:
                                                               info.header_offset + 30])
                start = info.header_offset + 30 + name_len + extra_len
                members.update(range(start, start + info.compress_size))
        hidden = set()
        for i in range(len(raw)):
            path.write_bytes(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1:])
            try:
                back = load_tensors(path)
            except ValueError as e:
                assert str(e).startswith(f"{path}: ")
                continue
            assert i not in members and set(back) <= set(arrays)
            assert all(back[k].data.tobytes() == arrays[k].tobytes() for k in back)
            if set(back) != set(arrays):
                hidden.add(i)
        assert len(members) > 200 and 0 < len(hidden) < 10

    def test_byte_swapped_member_loads_at_its_width(self, tmp_path):
        path = tmp_path / "t.npz"
        path.write_bytes(_npz(w=_npy(np.array([1.5, -2.0], ">f4")),
                              d=_npy(np.arange(3, dtype=">f8"))))
        back = load_tensors(path)
        assert back["w"].dtype == np.float32 and back["w"].data.tolist() == [1.5, -2.0]
        assert back["d"].dtype == np.float64 and back["d"].data.tolist() == [0.0, 1.0, 2.0]

    @given(st.lists(st.integers(1, 5), min_size=0, max_size=4),
           st.sampled_from([np.float32, np.float64]),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_ndim_and_extents_preserved(self, shape, dtype, pyrng):
        import tempfile
        from pathlib import Path

        arr = np.random.default_rng(pyrng.randrange(2**32)).standard_normal(shape).astype(dtype)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.npz"
            save_tensors(path, {"t": arr})
            back = load_tensors(path)["t"]
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


@pytest.mark.parametrize("raw,message", [
    (b"P5\n1_0 1\n255\n" + bytes(10), r"t\.img: header width b'1_0' is not an integer"),
    (b"P5\n+0_1 1\n255\n" + bytes(1), r"t\.img: header width b'\+0_1' is not an integer"),
    (b"P5\n1 +2\n255\n" + bytes(2), r"t\.img: header height b'\+2' is not an integer"),
    (b"P5\n1 1\n+255\n" + bytes(1), r"t\.img: header maxval b'\+255' is not an integer"),
    (b"P5\n1 1\n2_55\n" + bytes(1), r"t\.img: header maxval b'2_55' is not an integer"),
], ids=["underscore-width", "plus-underscore-width", "plus-height", "plus-maxval",
        "underscore-maxval"])
def test_non_decimal_header_token_rejected(tmp_path, raw, message):
    # Netpbm header fields are ASCII decimal digits; int() would also take
    # a sign and digit-group underscores.
    with pytest.raises(ValueError, match=message):
        load_pgm(_written(tmp_path / "t.img", raw))


def _read_token_reference(data: bytes, pos: int) -> tuple[bytes, int]:
    """The byte loop the header regex replaced: skip whitespace and '#'
    comments, then read one token (empty at the end)."""
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


_HEADER_BYTES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"0", b"7", b"-", b"+",
                 b"_", b"\x00", b"\x85", b"\xa0", b"\xff"]


@given(st.lists(st.sampled_from(_HEADER_BYTES), max_size=24), st.integers(0, 24))
@settings(max_examples=500, deadline=None)
def test_header_token_matches_byte_loop(parts, pos):
    raw = b"".join(parts)
    pos = min(pos, len(raw))
    match = imageio._TOKEN.match(raw, pos)
    assert (match[1], match.end()) == _read_token_reference(raw, pos)
