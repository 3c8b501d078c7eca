"""Box IoU and greedy non-maximum suppression."""

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbank.boxes import Box, nms_select

# An int too large for a float: math.isfinite raised a bare OverflowError on it.
HUGE = 10**400


def rejection(bad):
    """The end of ``check_real``'s message for one of these tests' bad values."""
    if isinstance(bad, (bool, str)):
        return f"a real number, got {bad!r}"
    return "finite, got an int too large for a float" if bad is HUGE else f"finite, got {bad!r}"

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


def nms_select_reference(candidates, iou_threshold, max_keep):
    """``nms_select`` as it was before it inlined the IoU: one ``Box.iou``
    call per (candidate, kept) pair."""
    ordered = sorted(candidates, key=lambda c: (-c.energy, c.image_id, c.location))
    kept = []
    for cand in ordered:
        if len(kept) == max_keep:
            break
        if all(cand.box.iou(k.box) <= iou_threshold for k in kept):
            kept.append(cand)
    return kept


small_coords = st.integers(0, 6).map(float)


@st.composite
def grid_boxes(draw):
    """Integer corners: duplicates, zero-area boxes and exact IoU ties are common."""
    top, bottom = sorted((draw(small_coords), draw(small_coords)))
    left, right = sorted((draw(small_coords), draw(small_coords)))
    return Box(top, left, bottom, right)


@st.composite
def nms_cases(draw):
    pool = draw(st.lists(st.one_of(grid_boxes(), boxes()), min_size=1, max_size=6))
    n = draw(st.integers(0, 14))
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 5)),
                         min_size=n, max_size=n, unique=True))
    cands = [Candidate(float(draw(st.integers(0, 4))), i, (h, w), draw(st.sampled_from(pool)))
             for i, h, w in keys]
    # A threshold equal to some pair's IoU puts decisions exactly on the boundary.
    ious = sorted({a.iou(b) for a in pool for b in pool})
    threshold = draw(st.one_of(st.sampled_from(ious), st.floats(0.0, 1.0)))
    return cands, threshold, draw(st.integers(1, 6))


def assert_same_selection(got, want):
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


@given(nms_cases())
@settings(max_examples=100, deadline=None)
def test_nms_select_matches_reference(case):
    cands, threshold, max_keep = case
    assert_same_selection(nms_select(cands, threshold, max_keep),
                          nms_select_reference(cands, threshold, max_keep))


SQUARE = Box(0, 0, 2, 2)
# IoU 0.07512832477834815, and one ulp more if the union is summed as
# a + (b - inter) instead of (a + b) - inter.
FLOAT_PAIR = (Box(1.9, 3.6, 7.7, 6.4), Box(0.6, 4.1, 2.6, 7.5))


@pytest.mark.parametrize("first,second,threshold,kept", [
    (SQUARE, Box(0, 1, 2, 3), 1 / 3, 2),            # IoU exactly the threshold: kept
    (SQUARE, Box(0, 1, 2, 3), 0.33, 1),             # just above it: suppressed
    (*FLOAT_PAIR, FLOAT_PAIR[1].iou(FLOAT_PAIR[0]), 2),
    (SQUARE, Box(0, 0, 2, 2), 1.0, 2),              # a duplicate, IoU 1 <= 1
    (SQUARE, Box(0, 0, 2, 2), 0.99, 1),
    (SQUARE, Box(1, 1, 1, 3), 0.0, 2),              # zero area: no overlap
    (Box(3, 3, 3, 3), Box(3, 3, 3, 3), 0.0, 2),     # union 0, so IoU 0
], ids=["iou-equals-threshold", "iou-above-threshold", "float-iou-equals-threshold",
        "duplicate-kept", "duplicate-suppressed", "zero-area", "union-zero"])
def test_nms_select_boundary_cases(first, second, threshold, kept):
    cands = [Candidate(2.0, 0, (0, 0), first), Candidate(1.0, 1, (0, 0), second)]
    got = nms_select(cands, threshold, 4)
    assert_same_selection(got, nms_select_reference(cands, threshold, 4))
    assert len(got) == kept


def test_nms_bad_arguments_rejected():
    with pytest.raises(ValueError, match="iou_threshold"):
        nms_select([], 1.5, 1)
    with pytest.raises(ValueError, match="max_keep"):
        nms_select([], 0.5, 0)
    # True passed as 1.0, and "0.3" raised a bare TypeError from the range check.
    with pytest.raises(ValueError, match="iou_threshold must be a real number, got True"):
        nms_select([], True, 5)
    with pytest.raises(ValueError, match="iou_threshold must be a real number, got '0.3'"):
        nms_select([], "0.3", 5)
    with pytest.raises(ValueError, match=r"iou_threshold must lie in \[0, 1\], got -0.1"):
        nms_select([], -0.1, 5)
    with pytest.raises(ValueError, match="iou_threshold must be finite, got an int too large"):
        nms_select([], HUGE, 5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True, "2",
                                 pytest.param(HUGE, id="huge-int")])
def test_nms_non_finite_energy_rejected(bad):
    # A NaN has no place in the energy order: unchecked, these three overlapping
    # candidates would keep (0, 0), (0, 1) or (0, 2) by the order given.  True
    # passed as 1.0, and "2" raised a bare TypeError from the sort.
    cands = [Candidate(e, 0, (0, i), SQUARE) for i, e in enumerate([1.0, bad, 2.0])]
    message = rejection(bad)
    for order in itertools.permutations(cands):
        with pytest.raises(ValueError, match=rf"candidate energy must be {message}: "
                                             rf".*location=\(0, 1\)"):
            nms_select(list(order), 0.3, 4)


@pytest.mark.parametrize("max_keep", [2.5, True, 2.0])
def test_nms_max_keep_must_be_an_integer(max_keep):
    # Four disjoint boxes: a cap that len(kept) never equals would keep all four.
    cands = [Candidate(float(i), i, (0, 0), Box(0, 3 * i, 2, 3 * i + 2)) for i in range(4)]
    assert len(nms_select(cands, 0.5, 2)) == 2
    with pytest.raises(ValueError, match=f"max_keep must be an integer, got {max_keep}"):
        nms_select(cands, 0.5, max_keep)


def test_clipped_keeps_each_side_inside_the_image():
    assert Box(-2.0, 3.0, 5.0, 12.0).clipped(4.0, 10.0) == Box(0.0, 3.0, 4.0, 10.0)
    # A box wholly past the image edge clips to an empty one on that edge.
    assert Box(6.0, -3.0, 7.0, -1.0).clipped(4.0, 10.0) == Box(4.0, 0.0, 4.0, 0.0)


@pytest.mark.parametrize("side", ["height", "width"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True,
                                 pytest.param(HUGE, id="huge-int")])
def test_clipped_bad_bound_rejected(side, bad):
    # min() with a NaN bound keeps the coordinate: clipped(nan, 5) left the box unclipped.
    bounds = {"height": 10.0, "width": 5.0, side: bad}
    with pytest.raises(ValueError, match=f"{side} must be {rejection(bad)}"):
        Box(0, 0, 10, 10).clipped(**bounds)


@pytest.mark.parametrize("corners", [(2.0, 0.0, 1.0, 3.0), (0.0, 2.0, 3.0, 1.0)],
                         ids=["bottom-above-top", "right-left-of-left"])
def test_degenerate_box_rejected(corners):
    with pytest.raises(ValueError, match="degenerate box"):
        Box(*corners)


@pytest.mark.parametrize("corner", range(4))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True, "0",
                                 pytest.param(HUGE, id="huge-int")])
def test_non_finite_box_rejected(corner, bad):
    # Box(nan, 0, 1, 1) passed the degenerate check and had IoU 0 with itself;
    # Box(True, 0, 1, 1) passed as 1.0, and Box("0", 0, 1, 1) raised a bare TypeError.
    corners = [0.0, 0.0, 1.0, 1.0]
    corners[corner] = bad
    name = ("top", "left", "bottom", "right")[corner]
    with pytest.raises(ValueError, match=f"{name} must be {rejection(bad)}"):
        Box(*corners)
