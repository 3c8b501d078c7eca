"""Synthetic dataset generation and folder ingestion."""

import colorsys

import numpy as np
import pytest

from patchbank.boxes import Box
from patchbank.data import (
    BACKGROUND_AMPLITUDE,
    DISTRACTORS,
    NEUTRAL_SIGNATURE,
    NOISE,
    TINT_STRENGTH,
    PatchSignature,
    Sample,
    SynthSpec,
    _place,
    _sample_rng,
    default_signatures,
    generate,
    load_folder,
    render_patch,
    save_dataset,
)
from patchbank.imageio import save_ppm


# ---------------------------------------------------------------- references


def render_patch_reference(sig, size, phase=0.0):
    """``render_patch`` as it was before it dropped ``np.mgrid``."""
    ys, xs = np.mgrid[0:size, 0:size]
    wave = np.sin(2 * np.pi * (np.cos(sig.angle) * xs + np.sin(sig.angle) * ys) / sig.period
                  + phase)
    mask = (wave >= 0).astype(np.float64)
    color = np.asarray(sig.color).reshape(3, 1, 1)
    bright = 0.5 + 0.5 * sig.contrast
    dark = 0.5 - 0.45 * sig.contrast
    return dark + (bright - dark) * mask[None] * color


def render_sample_reference(spec, signatures, split, index, label):
    """One sample as the generator made it before it built per-call tables.

    Everything is recomputed per sample: the interpolation indices, four
    gathers of the grid, ``np.repeat`` of the grey base and every stamp.
    The generator under test must give the same bytes.
    """
    rng = _sample_rng(spec, split, index)
    s = spec.image_size
    grid = rng.random((5, 5))
    coords = np.linspace(0, 4, s)
    i0 = np.clip(coords.astype(int), 0, 3)
    frac = coords - i0
    i1 = np.minimum(i0 + 1, 4)
    g00, g10 = grid[i0][:, i0], grid[i1][:, i0]
    g01, g11 = grid[i0][:, i1], grid[i1][:, i1]
    fy, fx = frac[:, None], frac[None, :]
    fieldmap = (g00 * (1 - fy) * (1 - fx) + g10 * fy * (1 - fx)
                + g01 * (1 - fy) * fx + g11 * fy * fx)
    image = np.repeat((0.45 + BACKGROUND_AMPLITUDE * (fieldmap - 0.5))[None], 3, axis=0)

    tint_label = label
    if rng.random() >= spec.cue_reliability and spec.classes > 1:
        others = [c for c in range(spec.classes) if c != label]
        tint_label = int(rng.choice(others))
    tint = spec.tint_color(tint_label).reshape(3, 1, 1)
    image += TINT_STRENGTH * (tint - 0.5)

    p = spec.patch_size
    for _ in range(DISTRACTORS):
        sig = PatchSignature(
            color=colorsys.hsv_to_rgb(rng.random(), 0.95, 1.0),
            angle=float(rng.random() * np.pi),
            period=float(rng.uniform(2.5, 4.0)),
            contrast=spec.patch_contrast,
        )
        dt = int(rng.integers(0, s - p + 1))
        dl = int(rng.integers(0, s - p + 1))
        image[:, dt : dt + p, dl : dl + p] = render_patch_reference(
            sig, p, phase=float(rng.random() * 6.28))

    top, left = _place(rng, spec)
    sig = signatures[label]
    if rng.random() < spec.neutral_patch_rate:
        sig = NEUTRAL_SIGNATURE
    image[:, top : top + p, left : left + p] = render_patch_reference(sig, p)

    image += rng.normal(0.0, NOISE, size=image.shape)
    np.clip(image, 0.0, 1.0, out=image)
    return Sample(image=image, label=label,
                  truth_box=Box(float(top), float(left), float(top + p), float(left + p)))


def generate_reference(spec):
    signatures = default_signatures(spec.classes, spec.patch_contrast)
    out = {}
    for split, per_class in (("train", spec.per_class_train), ("test", spec.per_class_test)):
        labels = [c for c in range(spec.classes) for _ in range(per_class)]
        out[split] = [render_sample_reference(spec, signatures, split, i, label)
                      for i, label in enumerate(labels)]
    return out["train"], out["test"]


BOXED = "path,label,top,left,bottom,right\n"


def boxed(image, label):
    """A sample whose truth box is the top-left pixel."""
    return Sample(image, label, Box(0.0, 0.0, 1.0, 1.0))


def small_spec(**overrides):
    base = dict(classes=3, per_class_train=4, per_class_test=2, image_size=24,
                patch_size=8, seed=0)
    base.update(overrides)
    return SynthSpec(**base)


class TestGenerate:
    def test_counts_and_class_balance(self):
        spec = small_spec()
        train, test = generate(spec)
        assert len(train) == 12 and len(test) == 6
        for split, per in ((train, 4), (test, 2)):
            for c in range(3):
                assert sum(1 for s in split if s.label == c) == per

    def test_same_seed_is_byte_identical(self):
        spec = small_spec(seed=7)
        a_train, a_test = generate(spec)
        b_train, b_test = generate(spec)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.image.tobytes() == b.image.tobytes()
            assert a.label == b.label
            assert a.truth_box == b.truth_box

    def test_different_seed_differs(self):
        a, _ = generate(small_spec(seed=1))
        b, _ = generate(small_spec(seed=2))
        assert any(x.image.tobytes() != y.image.tobytes() for x, y in zip(a, b))

    def test_pixels_in_unit_interval(self):
        train, test = generate(small_spec(seed=5))
        for s in train + test:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_truth_boxes_inside_image(self):
        spec = small_spec(seed=6)
        train, test = generate(spec)
        for s in train + test:
            b = s.truth_box
            assert 0 <= b.top and b.bottom <= spec.image_size
            assert 0 <= b.left and b.right <= spec.image_size
            assert b.height == spec.patch_size and b.width == spec.patch_size

    def test_signatures_pairwise_distinct(self):
        sigs = default_signatures(8, 1.0)
        assert len(set(sigs)) == 8

    def test_patch_too_large_rejected(self):
        with pytest.raises(ValueError, match="patch_size"):
            small_spec(patch_size=24)

    def test_render_patch_shape_and_range(self):
        sigs = default_signatures(4, 1.0)
        stamp = render_patch(sigs[0], 12)
        assert stamp.shape == (3, 12, 12)
        assert stamp.min() >= 0.0 and stamp.max() <= 1.0

    @pytest.mark.parametrize("size", [1, 7, 12])
    @pytest.mark.parametrize("phase", [0.0, 0.5, 3.1, 6.27])
    def test_render_patch_matches_reference(self, size, phase):
        sigs = default_signatures(6, 0.5) + (NEUTRAL_SIGNATURE, PatchSignature(
            color=(0.2, 0.9, 0.4), angle=2.9, period=2.5, contrast=1.0))
        for sig in sigs:
            assert (render_patch(sig, size, phase).tobytes()
                    == render_patch_reference(sig, size, phase).tobytes())

    # Together these reach every branch of the generator: neutral patch
    # never and always, tint always wrong and always right, odd sizes, a
    # one-pixel patch, 1 and 200 classes.
    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(neutral_patch_rate=1.0, cue_reliability=0.0, patch_contrast=0.5),
        dict(neutral_patch_rate=0.0, cue_reliability=1.0, patch_contrast=0.5),
        dict(image_size=31, patch_size=9, seed=3),
        dict(image_size=17, patch_size=1),
        dict(classes=1, per_class_train=5, cue_reliability=0.0),
        dict(classes=200, per_class_train=1, per_class_test=0, image_size=16, patch_size=5),
    ], ids=["default", "neutral-wrong-tint", "true-tint",
            "odd-sizes", "patch-1", "one-class", "200-classes"])
    def test_generate_matches_reference(self, overrides):
        spec = small_spec(**overrides)
        got, want = generate(spec), generate_reference(spec)
        for got_split, want_split in zip(got, want):
            assert len(got_split) == len(want_split)
            for a, b in zip(got_split, want_split):
                assert a.image.dtype == b.image.dtype and a.image.shape == b.image.shape
                assert a.image.tobytes() == b.image.tobytes()
                assert a.label == b.label and a.truth_box == b.truth_box


class TestFolders:
    def test_round_trip_save_load(self, tmp_path):
        spec = small_spec(seed=8)
        train, test = generate(spec)
        save_dataset(tmp_path, train, test)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test", "test.csv", "train",
                                                              "train.csv"]
        back = load_folder(tmp_path / "train.csv")
        assert len(back) == len(train)
        for orig, loaded in zip(train, back):
            assert loaded.label == orig.label
            assert loaded.truth_box == orig.truth_box
            # PPM quantizes to u8; round trip is exact at that resolution.
            np.testing.assert_allclose(loaded.image, np.rint(orig.image * 255) / 255,
                                       atol=1e-12)

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "m.csv").write_text(BOXED)
        assert load_folder(tmp_path / "m.csv") == []
        # save_dataset writes a header-only manifest for an empty split.
        save_dataset(tmp_path, [boxed(np.zeros((3, 4, 4)), 0)], [])
        assert (tmp_path / "test.csv").read_text() == BOXED
        assert load_folder(tmp_path / "test.csv") == []

    def test_manifest_without_header_rejected(self, tmp_path):
        # A truncated write leaves 0 bytes, which must not load as an empty split.
        (tmp_path / "m.csv").write_bytes(b"")
        with pytest.raises(ValueError, match=r"m\.csv: empty manifest, expected header "
                                             r"'path,label,top,left,bottom,right'$"):
            load_folder(tmp_path / "m.csv")

    def test_blank_rows_skipped(self, tmp_path):
        save_ppm(tmp_path / "i.ppm", np.zeros((3, 2, 2)))
        (tmp_path / "m.csv").write_text(BOXED + "\ni.ppm,1,0,0,1.5,2\n\n")
        loaded = load_folder(tmp_path / "m.csv")
        assert [s.label for s in loaded] == [1]
        assert loaded[0].truth_box == Box(0.0, 0.0, 1.5, 2.0)

    def test_row_count_matches_samples(self, tmp_path):
        train, test = generate(small_spec(seed=9))
        save_dataset(tmp_path, train, test)
        lines = (tmp_path / "test.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + len(test)

    def test_images_of_two_sizes_rejected(self, tmp_path):
        save_ppm(tmp_path / "a.ppm", np.zeros((3, 2, 2)))
        save_ppm(tmp_path / "b.ppm", np.zeros((3, 3, 3)))
        (tmp_path / "m.csv").write_text(BOXED + "a.ppm,0,0,0,1,1\nb.ppm,1,0,0,1,1\n")
        with pytest.raises(ValueError,
                           match=r"m\.csv, row 3, path 'b\.ppm': image is 3x3, the first is 2x2"):
            load_folder(tmp_path / "m.csv")

    @pytest.mark.parametrize("test,message", [
        ([boxed(np.zeros((3, 4, 4)), 0), boxed(np.zeros((3, 5, 5)), 1)],
         r"test sample 1: image shape \(3, 5, 5\), the first is \(3, 4, 4\)"),
        ([boxed(np.zeros((3, 4, 4)), -1)], "test sample 0 label must be >= 0, got -1"),
        ([boxed(np.zeros((3, 4, 4)), 1.5)], "test sample 0 label must be an integer, got 1.5"),
        ([boxed(np.zeros((3, 4, 4)), True)], "test sample 0 label must be an integer, got True"),
        ([boxed(np.zeros((3, 4, 4)), 0), boxed(np.full((3, 4, 4), np.nan), 1)],
         r"test/00001\.ppm: image has NaN or inf values"),
        ([boxed(np.full((3, 4, 4), np.inf), 0)], r"test/00000\.ppm: image has NaN or inf values"),
        ([boxed(np.zeros((1, 4, 4)), 0)],
         r"test/00000\.ppm: expected a \(3, H, W\) image, got shape \(1, 4, 4\)"),
        ([boxed(np.zeros((3, 4, 4)), 0), Sample(np.zeros((3, 4, 4)), 1, None)],
         "test sample 1: truth box must be a Box, got None"),
        ([boxed(np.zeros((3, 4, 4)), 0), Sample(np.zeros((3, 4, 4)), 1, (1.0, 2.0, 3.0, 4.0))],
         r"test sample 1: truth box must be a Box, got \(1\.0, 2\.0, 3\.0, 4\.0\)"),
    ], ids=["two-sizes", "negative-label", "float-label", "bool-label", "nan-image",
            "inf-image", "one-channel", "no-box", "tuple-box"])
    def test_save_rejects_what_load_would_refuse(self, tmp_path, test, message):
        # load_folder would refuse each of these splits, so save_dataset refuses it first.
        train = [boxed(np.zeros((3, 6, 6)), 0)]
        with pytest.raises(ValueError, match=message):
            save_dataset(tmp_path / "out", train, test)
        assert not (tmp_path / "out").exists()  # checked before any file is written

    def test_splits_may_differ_in_size(self, tmp_path):
        # load_folder reads one manifest at a time, so only a split's own images must agree.
        save_dataset(tmp_path, [boxed(np.zeros((3, 4, 4)), 0)], [boxed(np.zeros((3, 5, 5)), 1)])
        assert load_folder(tmp_path / "test.csv")[0].image.shape == (3, 5, 5)

    def test_unreadable_file_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text(BOXED + "missing.ppm,0,0,0,1,1\n")
        with pytest.raises(OSError):
            load_folder(tmp_path / "m.csv")

    def test_negative_label_rejected(self, tmp_path):
        save_ppm(tmp_path / "i.ppm", np.zeros((3, 2, 2)))
        (tmp_path / "m.csv").write_text(BOXED + "i.ppm,-1,0,0,1,1\n")
        with pytest.raises(ValueError, match="negative label"):
            load_folder(tmp_path / "m.csv")

    @pytest.mark.parametrize("row,message", [
        ("i.ppm", r"expected 'path,label,top,left,bottom,right', got \['i\.ppm'\]"),
        ("i.ppm,0", r"expected 'path,label,top,left,bottom,right', got \['i\.ppm', '0'\]"),
        ("i.ppm,1.5,0,0,1,1", "label '1.5' is not an integer"),
        ("i.ppm,,0,0,1,1", "label '' is not an integer"),
    ], ids=["path-only", "cut-after-label", "float-label", "empty-label"])
    def test_malformed_row_rejected(self, tmp_path, row, message):
        save_ppm(tmp_path / "i.ppm", np.zeros((3, 2, 2)))
        (tmp_path / "m.csv").write_text(f"{BOXED}i.ppm,0,0,0,1,1\n{row}\n")
        # The message names the manifest, the row and the path.
        with pytest.raises(ValueError, match=rf"m\.csv, row 3, path 'i\.ppm': {message}"):
            load_folder(tmp_path / "m.csv")


def _manifest(directory, text):
    path = directory / "m.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call,message", [
    (lambda d: small_spec(cue_reliability=1.5), r"cue_reliability must lie in \[0, 1\], got 1\.5"),
    (lambda d: small_spec(neutral_patch_rate=-0.2),
     r"neutral_patch_rate must lie in \[0, 1\], got -0\.2"),
    (lambda d: small_spec(classes=0), "classes must be >= 1, got 0"),
    (lambda d: small_spec(per_class_train=-2), "per_class_train must be >= 0, got -2"),
    (lambda d: small_spec(per_class_test=-1), "per_class_test must be >= 0, got -1"),
    (lambda d: small_spec(patch_size=0), "patch_size must be >= 1, got 0"),
    # check_real's general rejections (NaN, inf, None, bool, str, huge int) go
    # through the remaining float fields; the ids keep the names of the
    # fixed settings these rows were first written against.
    (lambda d: small_spec(cue_reliability=float("nan")), "cue_reliability must be finite, got nan"),
    (lambda d: small_spec(neutral_patch_rate=float("nan")),
     "neutral_patch_rate must be finite, got nan"),
    (lambda d: small_spec(neutral_patch_rate=float("inf")),
     "neutral_patch_rate must be finite, got inf"),
    (lambda d: small_spec(patch_contrast=float("-inf")),
     "patch_contrast must be finite, got -inf"),
    (lambda d: small_spec(classes=2.5), "classes must be an integer, got 2.5"),
    (lambda d: small_spec(classes=True), "classes must be an integer, got True"),
    (lambda d: small_spec(per_class_train=1.5), "per_class_train must be an integer, got 1.5"),
    (lambda d: small_spec(per_class_test=0.5), "per_class_test must be an integer, got 0.5"),
    (lambda d: small_spec(image_size=24.5), "image_size must be an integer, got 24.5"),
    (lambda d: small_spec(patch_size=8.5), "patch_size must be an integer, got 8.5"),
    (lambda d: small_spec(seed=True), "seed must be an integer, got True"),
    (lambda d: small_spec(seed=-1), "seed must be >= 0, got -1"),
    (lambda d: small_spec(patch_contrast=None), "patch_contrast must be a real number, got None"),
    (lambda d: small_spec(cue_reliability=True), "cue_reliability must be a real number, got True"),
    (lambda d: small_spec(patch_contrast="0.2"),
     "patch_contrast must be a real number, got '0.2'"),
    (lambda d: load_folder(_manifest(d, "file,class,top,left,bottom,right\ni.ppm,0,0,0,1,1\n")),
     r"m\.csv: expected header 'path,label,top,left,bottom,right', "
     r"got \['file', 'class', 'top', 'left', 'bottom', 'right'\]"),
    (lambda d: load_folder(_manifest(d, "path,label,top\ni.ppm,0,1\n")),
     r"m\.csv: expected header 'path,label,top,left,bottom,right', "
     r"got \['path', 'label', 'top'\]"),
    (lambda d: load_folder(_manifest(d, "path,label\ni.ppm,0\n")),
     r"m\.csv: expected header 'path,label,top,left,bottom,right', got \['path', 'label'\]"),
    (lambda d: load_folder(_manifest(d, BOXED + "i.ppm,0,1,2,3\n")),
     r"m\.csv, row 2, path 'i\.ppm': expected 'path,label,top,left,bottom,right', "
     r"got \['i\.ppm', '0', '1', '2', '3'\]"),
    (lambda d: load_folder(_manifest(d, BOXED + "i.ppm,0,1,2,3,4,5\n")),
     r"row 2, path 'i\.ppm': expected 'path,label,top,left,bottom,right', "
     r"got \['i\.ppm', '0', '1', '2', '3', '4', '5'\]"),
    (lambda d: load_folder(_manifest(d, BOXED + "i.ppm,0,a,0,1,1\n")),
     r"row 2, path 'i\.ppm': box \['a', '0', '1', '1'\]: could not convert string to float"),
    (lambda d: load_folder(_manifest(d, BOXED + "i.ppm,0,nan,0,1,1\n")),
     r"row 2, path 'i\.ppm': box \['nan', '0', '1', '1'\]: top must be finite, got nan"),
    (lambda d: load_folder(_manifest(d, BOXED + "i.ppm,0,2,0,1,1\n")),
     r"row 2, path 'i\.ppm': box \['2', '0', '1', '1'\]: degenerate box"),
    (lambda d: load_folder(_manifest(d, BOXED + "i.ppm,0,0,,1,1\n")),
     r"row 2, path 'i\.ppm': box \['0', '', '1', '1'\]: could not convert string to float"),
    # math.isfinite raised a bare OverflowError on an int too large for a float.
    (lambda d: small_spec(patch_contrast=10**400),
     "patch_contrast must be finite, got an int too large"),
], ids=["cue-reliability-above", "neutral-rate-below",
        "no-classes", "negative-train-count", "negative-test-count", "empty-patch",
        "nan-noise", "nan-background", "inf-tint", "inf-contrast",
        "float-classes", "bool-classes",
        "float-train-count", "float-test-count", "float-image-size", "float-patch-size",
        "bool-seed", "negative-seed", "none-noise", "bool-noise",
        "string-tint", "manifest-header", "manifest-box-header", "two-column-header",
        "box-three-fields", "box-five-fields", "box-not-a-number", "box-nan", "box-degenerate",
        "box-empty-field", "huge-int-noise"])
def test_bad_input_rejected(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
