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
    """factor_components on a whole large word, as slices of it."""
    ranges = factor_components(component_ends(text), 0, len(text))
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
            component_ends("c")
        for text in ("x", "xU", "aUUx", "Uxx"):
            with pytest.raises(ValueError):
                component_ends(text)


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


class TestRestrict:
    def test_keeps_inside_arcs_and_relabels(self):
        p = parse_partition("{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}")
        q = restrict_partition(p, 5, 12)
        assert q.n == 8
        assert q.arcs == frozenset(
            {Arc(1, 2), Arc(1, 3), Arc(4, 6), Arc(4, 7), Arc(7, 8)}
        )

    def test_single_vertex_window(self):
        p = parse_partition("{1,2}")
        q = restrict_partition(p, 2, 2)
        assert q.n == 1 and q.arcs == frozenset()


def _filter_then_shift(p, lo, hi):
    """restrict_partition by its definition: the arcs inside [lo, hi],
    shifted down to start at 1."""
    inside = [(a - lo + 1, b - lo + 1) for a, b in p.arcs if lo <= a and b <= hi]
    return LinkedPartition(hi - lo + 1, inside)


def _cut_at_uncovered(p):
    """outer_decompose by its definition: the windows between the
    vertices lying strictly inside no arc."""
    points = [v for v in range(1, p.n + 1) if not any(a < v < b for a, b in p.arcs)]
    return tuple(_filter_then_shift(p, lo, hi) for lo, hi in zip(points, points[1:]))


def _check_sorted_slices(p, depth=2):
    """Both helpers against their definitions on p, for every window,
    then again on every partition they returned, which hands them its
    kept sorted arcs instead of a fresh sort."""
    built = list(outer_decompose(p))
    assert tuple(built) == _cut_at_uncovered(p)
    for lo in range(1, p.n + 1):
        for hi in range(lo, p.n + 1):
            built.append(restrict_partition(p, lo, hi))
            assert built[-1] == _filter_then_shift(p, lo, hi)
    for q in built:
        assert q.__dict__["_sorted"] == sorted(q.arcs)
        if depth > 1:
            _check_sorted_slices(q, depth - 1)


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
            _check_sorted_slices(p)
            assert "_sorted" not in p.__dict__  # the caller's object is left alone

    @given(arc_sets())
    def test_any_arc_set_against_filter_then_shift(self, p):
        _check_sorted_slices(p)
        assert "_sorted" not in p.__dict__


class TestOuterDecompose:
    def test_arc_free_partition_is_one_component(self):
        (only,) = outer_decompose(parse_partition("{1}{2}"))
        assert only.n == 2 and not only.arcs

    def test_worked_example_outer_points(self):
        # split points 1, 4 and 13: components on 1..4 and 4..13
        p = parse_partition("{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}")
        first, second = outer_decompose(p)
        assert first.n == 4
        assert first.arcs == frozenset({Arc(1, 3), Arc(1, 4)})
        assert second.n == 10 and Arc(1, 10) in second.arcs

    def test_axis_chain_cuts_at_every_link(self):
        first, second = outer_decompose(parse_partition("{1,2}{2,3}"))
        assert first.n == second.n == 2
        assert first.arcs == second.arcs == frozenset({Arc(1, 2)})

    def test_covered_chain_stays_in_one_component(self):
        # the outer arc (1,4) shields the chain 1-2-3 from being cut
        (only,) = outer_decompose(parse_partition("{1,2,4}{2,3}"))
        assert only.n == 4
        assert only.arcs == frozenset({Arc(1, 2), Arc(1, 4), Arc(2, 3)})

    def test_single_vertex_has_no_components(self):
        assert outer_decompose(parse_partition("{1}")) == ()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_splits_at_the_vertices_inside_no_arc(self, n):
        for p in gen_ncl(n):
            points = [
                v
                for v in range(1, n + 1)
                if not any(a < v < b for a, b in p.arcs)
            ]
            expected = tuple(
                restrict_partition(p, lo, hi) for lo, hi in zip(points, points[1:])
            )
            assert outer_decompose(p) == expected

    def test_deep_nesting_is_linear(self):
        n = 40_000
        p = LinkedPartition(n, [(i, n + 1 - i) for i in range(1, n // 2 + 1)])
        started = time.perf_counter()
        (only,) = outer_decompose(p)
        assert time.perf_counter() - started < 5.0
        assert only == p


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
