"""Path factorizations and partition decompositions used by the bijection."""

import time

import pytest

import motzkin_ncl.bijection
from motzkin_ncl import gen_ncl, parse_partition, partition_to_path, validate_large
from motzkin_ncl.decompose import (
    arc_reachable,
    component_ends,
    factor_components,
    outer_decompose,
    restrict_partition,
    split_axis_l3,
)


def components(text):
    """factor_components on a whole word, as slices of it.  The word is
    validated first, as the forward map does: ``component_ends`` assumes
    a large word and does not check it."""
    ranges = factor_components(component_ends(validate_large(text).text), 0, len(text))
    return tuple(text[a:b] for a, b in ranges)


def segments(text):
    """split_axis_l3 on a whole Motzkin word, as slices of it: the word
    is read as the interior of ``U text x``, as the forward map reads it."""
    word = "U" + text + "x"
    ranges = split_axis_l3(word, component_ends(word), 1, len(word) - 1)
    return tuple(word[a:b] for a, b in ranges)


class TestFactorComponents:
    def test_axis_levels_and_one_elevated(self):
        assert components("abUx") == ("a", "b", "Ux")

    def test_worked_example_splits_in_two(self):
        assert components("UbxUbUxcUycy") == ("Ubx", "UbUxcUycy")

    def test_empty_path_has_no_components(self):
        assert components("") == ()

    def test_inner_may_touch_its_own_baseline(self):
        # the l3 steps sit at height 1, the component's own baseline
        assert components("UcUxcy") == ("UcUxcy",)

    def test_concat_inverts_factor(self):
        for text in ("", "a", "UxbUcy", "UbxUbUxcUycy"):
            assert "".join(components(text)) == text

    def test_rejects_non_large_words(self):
        with pytest.raises(ValueError):
            components("c")
        for text in ("x", "xU", "aUUx", "Uxx"):
            with pytest.raises(ValueError):
                components(text)


class TestElevate:
    def test_wraps_inner_path(self):
        # an up step, any Motzkin interior and a down step stay one component
        for inner in ("", "c", "bUxcUyc"):
            for down in "xy":
                word = "U" + inner + down
                assert components(word) == (word,)


class TestAxisSplit:
    def test_splits_at_every_baseline_l3(self):
        assert segments("bUxcUyc") == ("bUx", "Uy", "")

    def test_no_l3_gives_one_segment(self):
        assert segments("") == ("",)

    def test_lone_l3_gives_two_empty_segments(self):
        assert segments("c") == ("", "")

    def test_elevated_l3_does_not_split(self):
        assert segments("Ucx") == ("Ucx",)

    def test_segments_are_large(self):
        for segment in segments("UcxcaUcy"):
            validate_large(segment)


def arcs_of(text):
    """A partition given as text: its arcs sorted as (left, -right) pairs,
    as φ⁻¹ sorts them, and its size."""
    p = parse_partition(text)
    return keyed(p), p.n


def keyed(p):
    return sorted((a, -b) for a, b in p.arcs)


def cut(arcs, lo, hi):
    """outer_decompose on [lo, hi], from restrict_partition's index."""
    return outer_decompose(arcs, restrict_partition(arcs, lo, hi), lo, hi)


def _inside(arcs, lo, hi):
    """The arcs of a keyed list that lie inside [lo, hi], in order."""
    return [(a, b) for a, b in arcs if lo <= a and -b <= hi]


def _cut_at_uncovered(arcs, lo, hi):
    """outer_decompose by its definition: the ranges between the vertices
    of [lo, hi] lying strictly inside no arc inside [lo, hi]."""
    inside = _inside(arcs, lo, hi)
    points = [v for v in range(lo, hi + 1) if not any(a < v < -b for a, b in inside)]
    return list(zip(points, points[1:]))


def _ranges_cut(p):
    """The vertex ranges that φ⁻¹ cuts while it reads p."""
    ranges = []
    restrict = motzkin_ncl.bijection.restrict_partition

    def recording(arcs, lo, hi):
        ranges.append((lo, hi))
        return restrict(arcs, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(motzkin_ncl.bijection, "restrict_partition", recording)
        partition_to_path(p)
    return ranges


class TestRestrict:
    def test_keeps_inside_arcs_and_relabels(self):
        # the index skips the outer arc (4, 13) that leaves vertex 4, and
        # the arcs inside follow it, in the partition's own vertex numbers
        arcs, _ = arcs_of("{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}")
        i = restrict_partition(arcs, 4, 12)
        assert arcs[i:] == [(5, -7), (5, -6), (8, -11), (8, -10), (11, -12)]

    def test_single_vertex_window(self):
        arcs, _ = arcs_of("{1,2}")
        assert restrict_partition(arcs, 2, 2) == 1
        assert outer_decompose(arcs, 1, 2, 2) == []


class TestSortedSlices:
    # both cuts against their definitions on every range that φ⁻¹ cuts:
    # the arcs inside the range follow the index of restrict_partition in
    # one run, and outer_decompose cuts at the uncovered vertices
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_partition_against_filter_then_shift(self, n):
        for p in gen_ncl(n):
            arcs = keyed(p)
            before = dict(p.__dict__)
            ranges = _ranges_cut(p)
            assert p.__dict__ == before  # the caller's object is left alone
            assert ranges[0] == (1, n)
            for lo, hi in ranges:
                inside = _inside(arcs, lo, hi)
                i = restrict_partition(arcs, lo, hi)
                assert arcs[i : i + len(inside)] == inside
                assert cut(arcs, lo, hi) == _cut_at_uncovered(arcs, lo, hi)


class TestOuterDecompose:
    def test_arc_free_partition_is_one_component(self):
        assert cut([], 1, 2) == [(1, 2)]

    def test_worked_example_outer_points(self):
        # split points 1, 4 and 13: components on 1..4 and 4..13
        arcs, n = arcs_of("{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}")
        assert cut(arcs, 1, n) == [(1, 4), (4, 13)]

    def test_axis_chain_cuts_at_every_link(self):
        arcs, n = arcs_of("{1,2}{2,3}")
        assert cut(arcs, 1, n) == [(1, 2), (2, 3)]

    def test_covered_chain_stays_in_one_component(self):
        # the outer arc (1,4) shields the chain 1-2-3 from being cut
        arcs, n = arcs_of("{1,2,4}{2,3}")
        assert cut(arcs, 1, n) == [(1, 4)]

    def test_single_vertex_has_no_components(self):
        assert cut([], 1, 1) == []

    @pytest.mark.parametrize("n", range(1, 8))
    def test_splits_at_the_vertices_inside_no_arc(self, n):
        # the arcs inside any range of a valid partition are noncrossing,
        # so the cut holds on every range, not only those φ⁻¹ cuts
        for p in gen_ncl(n):
            arcs = keyed(p)
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    assert cut(arcs, lo, hi) == _cut_at_uncovered(arcs, lo, hi)

    def test_deep_nesting_is_linear(self):
        # every level of a nest of 20 000 arcs is one component, found by
        # one bisection: a cut that scans the arcs inside each level would
        # read 2 * 10^8 of them
        n = 40_000
        arcs = [(i, -(n + 1 - i)) for i in range(1, n // 2 + 1)]
        started = time.perf_counter()
        for lo in range(1, n // 2 + 1):
            assert cut(arcs, lo, n + 1 - lo) == [(lo, n + 1 - lo)]
        assert time.perf_counter() - started < 5.0


class TestArcReachable:
    def test_reflexive(self):
        p = parse_partition("{1}{2}")
        assert arc_reachable(p, 1, 1)

    def test_follows_shared_vertices(self):
        p = parse_partition("{1,2}{2,3}")
        assert arc_reachable(p, 1, 3)

    def test_nesting_alone_does_not_connect(self):
        p = parse_partition("{1,4}{2,3}")
        assert not arc_reachable(p, 1, 3)
        assert arc_reachable(p, 1, 4)

    def test_undirected(self):
        p = parse_partition("{1,2}{2,3}")
        assert arc_reachable(p, 3, 1)
