"""Path factorizations and partition decompositions used by the bijection."""

import time

import pytest
from hypothesis import given, strategies as st

from motzkin_ncl import Arc, LinkedPartition, gen_ncl, parse_partition, validate_large
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
    """The sorted arcs of a partition given as text, and its size."""
    p = parse_partition(text)
    return sorted(p.arcs), p.n


class TestRestrict:
    def test_keeps_inside_arcs_and_relabels(self):
        # the arcs keep the partition's own vertex numbers
        arcs, _ = arcs_of("{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}")
        assert restrict_partition(arcs, 5, 12) == [
            Arc(5, 6), Arc(5, 7), Arc(8, 10), Arc(8, 11), Arc(11, 12)
        ]

    def test_single_vertex_window(self):
        arcs, _ = arcs_of("{1,2}")
        assert restrict_partition(arcs, 2, 2) == []


def _filter_by_window(arcs, lo, hi):
    """restrict_partition by its definition: the arcs inside [lo, hi]."""
    return sorted(arc for arc in arcs if lo <= arc[0] and arc[1] <= hi)


def _cut_at_uncovered(arcs, lo, hi):
    """outer_decompose by its definition: the windows between the
    vertices of [lo, hi] lying strictly inside no arc."""
    points = [v for v in range(lo, hi + 1) if not any(a < v < b for a, b in arcs)]
    return [
        (a, b, _filter_by_window(arcs, a, b)) for a, b in zip(points, points[1:])
    ]


def _check_sorted_slices(p):
    """Both cuts against their definitions on p, for every window, then
    again on every piece they returned, which feeds its sorted sub-list
    to the next call as φ⁻¹ does."""
    arcs = sorted(p.arcs)
    pieces = outer_decompose(arcs, 1, p.n)
    assert pieces == _cut_at_uncovered(arcs, 1, p.n)
    for lo in range(1, p.n + 1):
        for hi in range(lo, p.n + 1):
            inside = restrict_partition(arcs, lo, hi)
            assert inside == _filter_by_window(arcs, lo, hi)
            pieces.append((lo, hi, inside))
    for lo, hi, inside in pieces:
        assert outer_decompose(inside, lo, hi) == _cut_at_uncovered(inside, lo, hi)
        for a in range(lo, hi + 1):
            for b in range(a, hi + 1):
                assert restrict_partition(inside, a, b) == _filter_by_window(arcs, a, b)


@st.composite
def arc_sets(draw):
    """Any in-range arc set on 2..10 vertices: crossing arcs and shared
    left ends included, built through the public constructor."""
    n = draw(st.integers(2, 10))
    arcs = st.integers(1, n - 1).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a + 1, n))
    )
    return LinkedPartition(n, draw(st.sets(arcs, max_size=12)))


class TestSortedSlices:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_partition_against_filter_then_shift(self, n):
        for p in gen_ncl(n):
            before = dict(p.__dict__)
            _check_sorted_slices(p)
            assert p.__dict__ == before  # the caller's object is left alone

    @given(arc_sets())
    def test_any_arc_set_against_filter_then_shift(self, p):
        before = dict(p.__dict__)
        _check_sorted_slices(p)
        assert p.__dict__ == before


class TestOuterDecompose:
    def test_arc_free_partition_is_one_component(self):
        assert outer_decompose([], 1, 2) == [(1, 2, [])]

    def test_worked_example_outer_points(self):
        # split points 1, 4 and 13: components on 1..4 and 4..13
        arcs, n = arcs_of("{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}")
        (a, b, first), (c, d, second) = outer_decompose(arcs, 1, n)
        assert (a, b, c, d) == (1, 4, 4, 13)
        assert first == [Arc(1, 3), Arc(1, 4)]
        assert len(second) == 6 and Arc(4, 13) in second

    def test_axis_chain_cuts_at_every_link(self):
        arcs, n = arcs_of("{1,2}{2,3}")
        assert outer_decompose(arcs, 1, n) == [(1, 2, [Arc(1, 2)]), (2, 3, [Arc(2, 3)])]

    def test_covered_chain_stays_in_one_component(self):
        # the outer arc (1,4) shields the chain 1-2-3 from being cut
        arcs, n = arcs_of("{1,2,4}{2,3}")
        assert outer_decompose(arcs, 1, n) == [
            (1, 4, [Arc(1, 2), Arc(1, 4), Arc(2, 3)])
        ]

    def test_single_vertex_has_no_components(self):
        assert outer_decompose([], 1, 1) == []

    @pytest.mark.parametrize("n", range(1, 8))
    def test_splits_at_the_vertices_inside_no_arc(self, n):
        for p in gen_ncl(n):
            arcs = sorted(p.arcs)
            points = [
                v
                for v in range(1, n + 1)
                if not any(a < v < b for a, b in p.arcs)
            ]
            expected = [
                (lo, hi, restrict_partition(arcs, lo, hi))
                for lo, hi in zip(points, points[1:])
            ]
            assert outer_decompose(arcs, 1, n) == expected

    def test_deep_nesting_is_linear(self):
        n = 40_000
        arcs = [Arc(i, n + 1 - i) for i in range(1, n // 2 + 1)]
        started = time.perf_counter()
        (only,) = outer_decompose(arcs, 1, n)
        assert time.perf_counter() - started < 5.0
        assert only == (1, n, arcs)


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
