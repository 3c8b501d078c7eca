"""Box IoU and greedy non-maximum suppression."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbank.boxes import Box, nms_select

coords = st.floats(0.0, 64.0, allow_nan=False, allow_subnormal=False)


@st.composite
def boxes(draw):
    top, bottom = sorted((draw(coords), draw(coords)))
    left, right = sorted((draw(coords), draw(coords)))
    return Box(top, left, bottom, right)


@dataclass(frozen=True)
class Candidate:
    energy: float
    image_id: int
    location: tuple[int, int]
    box: Box


@st.composite
def candidate_lists(draw):
    n = draw(st.integers(0, 12))
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 5)),
                         min_size=n, max_size=n, unique=True))
    # Few distinct energies, so the (image_id, location) tie-break is exercised.
    return [Candidate(float(draw(st.integers(0, 4))), i, (h, w), draw(boxes()))
            for i, h, w in keys]


def test_iou_known_values():
    a = Box(0, 0, 2, 2)
    assert a.iou(a) == 1.0
    assert a.iou(Box(0, 1, 2, 3)) == pytest.approx(1 / 3)
    assert a.iou(Box(5, 5, 6, 6)) == 0.0


@given(boxes(), boxes())
@settings(max_examples=200, deadline=None)
def test_iou_is_symmetric_and_in_unit_interval(a, b):
    assert a.iou(b) == b.iou(a)
    assert 0.0 <= a.iou(b) <= 1.0


@given(candidate_lists(), st.floats(0.0, 1.0), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_nms_select_contract(cands, threshold, max_keep, pyrng):
    kept = nms_select(cands, threshold, max_keep)
    assert len(kept) <= max_keep
    if len(kept) < max_keep:  # greedy: every dropped candidate overlaps a kept one
        for c in cands:
            assert c in kept or any(c.box.iou(k.box) > threshold for k in kept)
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            assert a.box.iou(b.box) <= threshold
    assert [c.energy for c in kept] == sorted((c.energy for c in kept), reverse=True)
    shuffled = list(cands)
    random.Random(pyrng.random()).shuffle(shuffled)
    assert nms_select(shuffled, threshold, max_keep) == kept


def test_nms_bad_arguments_rejected():
    with pytest.raises(ValueError, match="iou_threshold"):
        nms_select([], 1.5, 1)
    with pytest.raises(ValueError, match="max_keep"):
        nms_select([], 0.5, 0)


@pytest.mark.parametrize("corners", [(2.0, 0.0, 1.0, 3.0), (0.0, 2.0, 3.0, 1.0)],
                         ids=["bottom-above-top", "right-left-of-left"])
def test_degenerate_box_rejected(corners):
    with pytest.raises(ValueError, match="degenerate box"):
        Box(*corners)
