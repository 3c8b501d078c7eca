"""Synthetic fine-grained datasets with planted discriminative patches.

Each image is a shared-family low-frequency background plus a small
class-specific striped patch at a jittered location, plus distractor
patches drawn from the same visual family with random (class-uninformative)
parameters.  Global appearance carries only a weak cue: the background is
tinted toward the label's tint color with probability ``cue_reliability``
and toward a random other class otherwise.  The planted patch rectangle is
recorded per sample as ground truth for localization oracles; it is never
an input to training.
"""

from __future__ import annotations

import colorsys
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import Box
from .checks import check_int, check_real
from .imageio import load_ppm, save_ppm


@dataclass(frozen=True)
class PatchSignature:
    """Color/texture parameters of one striped patch."""

    color: tuple[float, float, float]
    angle: float          # stripe direction, radians
    period: float         # stripe width in pixels
    contrast: float = 1.0


def default_signatures(classes: int, patch_contrast: float) -> tuple[PatchSignature, ...]:
    """Distinct per-class signatures; class pairs (2j, 2j+1) share a color
    and differ only in stripe angle, so patch evidence alone confuses them
    a little while the global tint separates them."""
    sigs = []
    n_colors = max(1, (classes + 1) // 2)
    for c in range(classes):
        hue = (c // 2) / n_colors
        color = colorsys.hsv_to_rgb(hue, 0.95, 1.0)
        angle = np.pi / 4 if c % 2 else 0.0
        angle += (c // 2) * np.pi / 16  # decorrelate angles across pairs
        sigs.append(PatchSignature(color=color, angle=float(angle), period=3.0,
                                   contrast=patch_contrast))
    return tuple(sigs)


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 8
    per_class_train: int = 40
    per_class_test: int = 20
    image_size: int = 64
    patch_size: int = 12
    jitter: float = 1.0              # 0 = fixed central placement, 1 = anywhere
    noise: float = 0.02              # per-pixel gaussian sigma
    cue_reliability: float = 0.75    # probability the tint matches the label
    tint_strength: float = 0.18
    background_amplitude: float = 0.22
    distractors: int = 3
    neutral_patch_rate: float = 0.15  # probability the class patch is replaced
    patch_contrast: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, least, most in (("jitter", 0, 1), ("noise", 0, None), ("cue_reliability", 0, 1),
                                  ("tint_strength", None, None),
                                  ("background_amplitude", None, None),
                                  ("neutral_patch_rate", 0, 1), ("patch_contrast", None, None)):
            check_real(name, getattr(self, name), least, most)
        for name, least in (("classes", 1), ("per_class_train", 0), ("per_class_test", 0),
                            ("image_size", 2), ("patch_size", 1), ("distractors", 0), ("seed", 0)):
            check_int(name, getattr(self, name), least)
        if self.patch_size >= self.image_size:
            raise ValueError("patch_size must be smaller than image_size")

    def tint_color(self, label: int) -> np.ndarray:
        hue = (label + 0.5) / self.classes
        return np.asarray(colorsys.hsv_to_rgb(hue, 0.6, 1.0))


@dataclass
class Sample:
    image: np.ndarray              # (3, S, S) float64 in [0, 1]
    label: int
    truth_box: Box | None = None   # planted patch rectangle; oracle metadata only


NEUTRAL_SIGNATURE = PatchSignature(color=(0.7, 0.7, 0.7), angle=np.pi / 3, period=3.0)


def render_patch(sig: PatchSignature, size: int, phase: float = 0.0) -> np.ndarray:
    """A (3, size, size) striped stamp: bright color stripes on a dark base."""
    ramp = np.arange(size)
    wave = np.sin(2 * np.pi * (np.cos(sig.angle) * ramp + np.sin(sig.angle) * ramp[:, None])
                  / sig.period + phase)
    mask = (wave >= 0).astype(np.float64)
    color = np.asarray(sig.color).reshape(3, 1, 1)
    bright = 0.5 + 0.5 * sig.contrast
    dark = 0.5 - 0.45 * sig.contrast
    return dark + (bright - dark) * mask[None] * color


def _sample_rng(spec: SynthSpec, split: str, index: int) -> np.random.Generator:
    split_id = {"train": 0, "test": 1}[split]
    return np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(split_id, index))
    )


def _place(rng: np.random.Generator, spec: SynthSpec) -> tuple[int, int]:
    top_max = spec.image_size - spec.patch_size
    center = top_max // 2
    u, v = rng.random(2)
    top = int(round(center + spec.jitter * (u * top_max - center)))
    left = int(round(center + spec.jitter * (v * top_max - center)))
    return min(max(top, 0), top_max), min(max(left, 0), top_max)


@dataclass(frozen=True)
class _Tables:
    """What every sample of one spec shares; ``generate`` builds it once per call.

    The background is a bilinear upsampling of a 5x5 grid.  Pixel (y, x)
    blends grid rows ``i0[y]`` (weight ``1 - frac[y]``) and ``i1[y]``
    (weight ``frac[y]``), and the same columns of x.  ``rows`` and
    ``row_weights`` stack the two row choices, (2, S) and (2, S, 1);
    ``cols`` and ``col_weights`` put the two column choices side by side,
    (2S,).
    """

    signatures: tuple[PatchSignature, ...]
    rows: np.ndarray
    row_weights: np.ndarray
    cols: np.ndarray
    col_weights: np.ndarray
    neutral_stamp: np.ndarray     # render_patch(NEUTRAL_SIGNATURE, patch_size)

    @classmethod
    def build(cls, spec: SynthSpec) -> "_Tables":
        coords = np.linspace(0, 4, spec.image_size)
        i0 = np.clip(coords.astype(int), 0, 3)
        frac = coords - i0
        i1 = np.minimum(i0 + 1, 4)
        return cls(signatures=default_signatures(spec.classes, spec.patch_contrast),
                   rows=np.stack([i0, i1]), row_weights=np.stack([1 - frac, frac])[:, :, None],
                   cols=np.concatenate([i0, i1]), col_weights=np.concatenate([1 - frac, frac]),
                   neutral_stamp=render_patch(NEUTRAL_SIGNATURE, spec.patch_size))


def _background(grid: np.ndarray, tables: _Tables, amplitude: float) -> np.ndarray:
    """The (S, S) grey field ``0.45 + amplitude * (fieldmap - 0.5)``, where

        fieldmap = g00 * (1 - fy) * (1 - fx) + g10 * fy * (1 - fx)
                   + g01 * (1 - fy) * fx + g11 * fy * fx

    and ``gab = grid[ia][:, ib]``.  Each term multiplies its grid value by
    the row weight, then by the column weight, and the terms are summed
    left to right, so the bytes are those of the formula as written.  The
    row weight is applied before the column gather, on (2, S, 5) values.
    """
    s = tables.rows.shape[1]
    terms = (grid[tables.rows] * tables.row_weights)[:, :, tables.cols]   # (2, S, 2S)
    terms *= tables.col_weights
    field = terms[0, :, :s] + terms[1, :, :s]
    field += terms[0, :, s:]
    field += terms[1, :, s:]
    field -= 0.5
    field *= amplitude
    field += 0.45
    return field


def _render_sample(spec: SynthSpec, tables: _Tables, split: str, index: int,
                   label: int) -> Sample:
    """Sample ``index`` of ``split``, drawn from its own seeded stream.

    The order of the RNG calls is part of the seed contract: the 5x5 grid,
    the tint draw (and the wrong tint class, if drawn), then per distractor
    its hue, angle, period, top, left and phase, then the placement, the
    neutral-patch draw and last the noise.  Changing it changes every image.
    """
    rng = _sample_rng(spec, split, index)
    s = spec.image_size

    # Shared-family background: a low-frequency field, equally likely for
    # every class, tinted toward a (possibly corrupted) class color.
    field = _background(rng.random((5, 5)), tables, spec.background_amplitude)

    tint_label = label
    if rng.random() >= spec.cue_reliability and spec.classes > 1:
        others = [c for c in range(spec.classes) if c != label]
        tint_label = int(rng.choice(others))
    tint = spec.tint_color(tint_label).reshape(3, 1, 1)
    # Into a fresh buffer: returning ``field + tint`` instead left the heap
    # pinned after the images were freed, +5.8 MiB peak RSS on bank_init.
    image = np.empty((3, s, s))
    np.add(field, spec.tint_strength * (tint - 0.5), out=image)

    # Distractors: same visual family, random class-uninformative parameters.
    p = spec.patch_size
    for _ in range(spec.distractors):
        sig = PatchSignature(
            color=colorsys.hsv_to_rgb(rng.random(), 0.95, 1.0),
            angle=float(rng.random() * np.pi),
            period=float(rng.uniform(2.5, 4.0)),
            contrast=spec.patch_contrast,
        )
        dt = int(rng.integers(0, s - p + 1))
        dl = int(rng.integers(0, s - p + 1))
        image[:, dt : dt + p, dl : dl + p] = render_patch(sig, p, phase=float(rng.random() * 6.28))

    # The class patch is drawn last so it is never occluded.
    top, left = _place(rng, spec)
    if rng.random() < spec.neutral_patch_rate:
        image[:, top : top + p, left : left + p] = tables.neutral_stamp
    else:
        image[:, top : top + p, left : left + p] = render_patch(tables.signatures[label], p)

    if spec.noise > 0:
        image += rng.normal(0.0, spec.noise, size=image.shape)
    np.clip(image, 0.0, 1.0, out=image)
    return Sample(image=image, label=label,
                  truth_box=Box(float(top), float(left), float(top + p), float(left + p)))


def generate(spec: SynthSpec) -> tuple[list[Sample], list[Sample]]:
    """Deterministic train/test splits, class-major; each sample is seeded
    independently from (seed, split, index).

    The tables every sample shares (class signatures, background
    interpolation indices and weights, the neutral stamp) are built once
    per call and passed down; nothing is cached between calls.  A sample's
    bytes depend on the order of its RNG calls (see ``_render_sample``).
    """
    jobs = {"train": spec.per_class_train, "test": spec.per_class_test}
    tables = _Tables.build(spec)
    out: dict[str, list[Sample]] = {}
    for split, per_class in jobs.items():
        labels = [c for c in range(spec.classes) for _ in range(per_class)]
        out[split] = [_render_sample(spec, tables, split, i, label)
                      for i, label in enumerate(labels)]
    return out["train"], out["test"]


# ----------------------------------------------------------------- folders


_MANIFEST_HEADER = ["path", "label", "top", "left", "bottom", "right"]


def save_dataset(out_dir, train: list[Sample], test: list[Sample]) -> None:
    """Write PPM images and one `path,label,top,left,bottom,right` CSV manifest per
    split; a sample without a truth box leaves its four box fields empty."""
    out_dir = Path(out_dir)
    for split, samples in (("train", train), ("test", test)):
        (out_dir / split).mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{split}.csv", "w", newline="") as mf:
            writer = csv.writer(mf, lineterminator="\n")
            writer.writerow(_MANIFEST_HEADER)
            for i, sample in enumerate(samples):
                rel = f"{split}/{i:05d}.ppm"
                save_ppm(out_dir / rel, sample.image)
                b = sample.truth_box
                box = ["", "", "", ""] if b is None else [b.top, b.left, b.bottom, b.right]
                writer.writerow([rel, sample.label, *box])


def load_folder(manifest_path, image_size: int) -> list[Sample]:
    """Load a `path,label` CSV manifest of P6 PPM images.

    Images are nearest-neighbor resized to ``image_size`` and scaled to
    [0, 1].  Paths are taken relative to the manifest location.  Under the
    `path,label,top,left,bottom,right` header that ``save_dataset`` writes,
    each row's box is its ``truth_box``, None where the four fields are empty.
    """
    check_int("image_size", image_size, 1)
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    samples = []
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and header not in (_MANIFEST_HEADER[:2], _MANIFEST_HEADER):
            raise ValueError(f"{manifest_path}: expected 'path,label' header, got {header}")
        for row in reader:
            if not row:
                continue
            path = row[0]
            where = f"{manifest_path}, row {reader.line_num}, path {path!r}"
            if len(row) < 2:
                raise ValueError(f"{where}: expected 'path,label', got {row}")
            try:
                label = int(row[1])
            except ValueError:
                raise ValueError(f"{where}: label {row[1]!r} is not an integer") from None
            if label < 0:
                raise ValueError(f"{where}: negative label {label}")
            box = None
            if len(header) > 2 and any(row[2:]):
                try:
                    box = Box(*map(float, row[2:]))
                except (TypeError, ValueError) as e:  # TypeError: not four fields
                    raise ValueError(f"{where}: box {row[2:]}: {e}") from None
            img = load_ppm(root / path)
            samples.append(Sample(_resize_nearest(img, image_size), label, box))
    return samples


def _resize_nearest(image: np.ndarray, size: int) -> np.ndarray:
    h, w = image.shape[1:]
    if (h, w) == (size, size):
        return image
    ri = np.minimum((np.arange(size) * h) // size, h - 1)
    ci = np.minimum((np.arange(size) * w) // size, w - 1)
    return image[:, ri][:, :, ci]
