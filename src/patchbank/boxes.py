"""Axis-aligned boxes, IoU, and greedy non-maximum suppression."""

from __future__ import annotations

from dataclasses import dataclass

from .checks import check_int, check_real


@dataclass(frozen=True)
class Box:
    """Half-open rectangle [top, bottom) x [left, right) in pixel coordinates."""

    top: float
    left: float
    bottom: float
    right: float

    def __post_init__(self):
        # NaN compares false both ways, so the degenerate check alone passes it.
        for name in ("top", "left", "bottom", "right"):
            check_real(name, getattr(self, name))
        if self.bottom < self.top or self.right < self.left:
            raise ValueError(f"degenerate box: {self}")

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def area(self) -> float:
        return self.height * self.width

    def intersection(self, other: "Box") -> float:
        h = min(self.bottom, other.bottom) - max(self.top, other.top)
        w = min(self.right, other.right) - max(self.left, other.left)
        return max(0.0, h) * max(0.0, w)

    def iou(self, other: "Box") -> float:
        inter = self.intersection(other)
        union = self.area + other.area - inter
        return inter / union if union > 0 else 0.0

    def clipped(self, height: float, width: float) -> "Box":
        # min() with a NaN bound keeps the coordinate, so a NaN would clip nothing.
        check_real("height", height)
        check_real("width", width)
        return Box(
            max(0.0, min(self.top, height)),
            max(0.0, min(self.left, width)),
            max(0.0, min(self.bottom, height)),
            max(0.0, min(self.right, width)),
        )


def nms_select(candidates, iou_threshold: float, max_keep: int):
    """Greedy descending-energy selection of patch candidates.

    A candidate is suppressed iff its box IoU with an already-kept box
    exceeds ``iou_threshold``.  At most ``max_keep`` are kept; the result
    is ordered by descending energy.  Ties in energy are broken by
    (image_id, location) so the selection is order-independent.  Every
    energy must be finite: a NaN has no place in that order.
    """
    check_real("iou_threshold", iou_threshold, 0, 1)
    check_int("max_keep", max_keep, 1)
    candidates = list(candidates)
    for cand in candidates:
        try:
            check_real("candidate energy", cand.energy)
        except ValueError as e:
            raise ValueError(f"{e}: {cand}") from None
    ordered = sorted(candidates, key=lambda c: (-c.energy, c.image_id, c.location))
    kept = []
    kept_boxes = []    # (top, left, bottom, right, area) of each kept box
    for cand in ordered:
        if len(kept) == max_keep:
            break
        b = cand.box
        top, left, bottom, right = b.top, b.left, b.bottom, b.right
        area = (bottom - top) * (right - left)
        # Box.iou inlined, the same float operations in the same order.
        for k_top, k_left, k_bottom, k_right, k_area in kept_boxes:
            inter = (max(0.0, min(bottom, k_bottom) - max(top, k_top))
                     * max(0.0, min(right, k_right) - max(left, k_left)))
            union = area + k_area - inter
            if (inter / union if union > 0 else 0.0) > iou_threshold:
                break
        else:
            kept.append(cand)
            kept_boxes.append((top, left, bottom, right, area))
    return kept
