"""Synthetic dataset generation and folder ingestion."""

import numpy as np
import pytest

from patchbank.data import (
    Sample,
    SynthSpec,
    default_signatures,
    generate,
    load_folder,
    render_patch,
    save_dataset,
)
from patchbank.imageio import save_ppm


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

    def test_degenerate_spec_identical_within_class(self):
        spec = small_spec(jitter=0.0, noise=0.0, background_amplitude=0.0,
                          distractors=0, neutral_patch_rate=0.0, cue_reliability=1.0)
        train, _ = generate(spec)
        for c in range(3):
            images = [s.image.tobytes() for s in train if s.label == c]
            assert len(set(images)) == 1

    def test_pixels_in_unit_interval(self):
        train, test = generate(small_spec(seed=5, noise=0.1))
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


class TestFolders:
    def test_round_trip_save_load(self, tmp_path):
        spec = small_spec(seed=8)
        train, test = generate(spec)
        save_dataset(tmp_path, train, test)
        back = load_folder(tmp_path / "train.csv", spec.image_size)
        assert len(back) == len(train)
        for orig, loaded in zip(train, back):
            assert loaded.label == orig.label
            # PPM quantizes to u8; round trip is exact at that resolution.
            np.testing.assert_allclose(loaded.image, np.rint(orig.image * 255) / 255,
                                       atol=1e-12)

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "m.csv").write_text("path,label\n")
        assert load_folder(tmp_path / "m.csv", 16) == []

    def test_row_count_matches_samples(self, tmp_path):
        train, test = generate(small_spec(seed=9))
        save_dataset(tmp_path, train, test)
        lines = (tmp_path / "test.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + len(test)

    def test_resize_nearest(self, tmp_path):
        img = np.zeros((3, 2, 2))
        img[:, 0, 0] = 1.0
        save_ppm(tmp_path / "i.ppm", img)
        (tmp_path / "m.csv").write_text("path,label\ni.ppm,0\n")
        loaded = load_folder(tmp_path / "m.csv", 4)[0]
        assert loaded.image.shape == (3, 4, 4)
        np.testing.assert_array_equal(loaded.image[:, :2, :2], np.ones((3, 2, 2)))

    def test_unreadable_file_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text("path,label\nmissing.ppm,0\n")
        with pytest.raises(OSError):
            load_folder(tmp_path / "m.csv", 16)

    def test_negative_label_rejected(self, tmp_path):
        save_ppm(tmp_path / "i.ppm", np.zeros((3, 2, 2)))
        (tmp_path / "m.csv").write_text("path,label\ni.ppm,-1\n")
        with pytest.raises(ValueError, match="negative label"):
            load_folder(tmp_path / "m.csv", 16)

    @pytest.mark.parametrize("row,message", [("i.ppm", "expected 'path,label'"),
                                             ("i.ppm,1.5", "label '1.5' is not an integer"),
                                             ("i.ppm,", "label '' is not an integer")])
    def test_malformed_row_rejected(self, tmp_path, row, message):
        save_ppm(tmp_path / "i.ppm", np.zeros((3, 2, 2)))
        (tmp_path / "m.csv").write_text(f"path,label\ni.ppm,0\n{row}\n")
        # The message names the manifest, the row and the path.
        with pytest.raises(ValueError, match=rf"m\.csv, row 3, path 'i\.ppm': {message}"):
            load_folder(tmp_path / "m.csv", 16)


def _manifest(directory, text):
    path = directory / "m.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call,message", [
    (lambda d: small_spec(jitter=-0.1), r"jitter must lie in \[0, 1\]"),
    (lambda d: small_spec(jitter=1.5), r"jitter must lie in \[0, 1\]"),
    (lambda d: load_folder(_manifest(d, "file,class\ni.ppm,0\n"), 16),
     r"m\.csv: expected 'path,label' header, got \['file', 'class'\]"),
], ids=["jitter-below", "jitter-above", "manifest-header"])
def test_bad_input_rejected(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
