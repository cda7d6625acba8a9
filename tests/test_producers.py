"""Producers that skip the public constructors' checks emit valid objects.

The generators, the doubling pair and the inverse bijection build their
path objects without walking them, because their words are valid by
construction.  Likewise the partition producers (the parser, the forward
bijection and the partition generator) hand over arcs that are in range
by construction, without normalising them; the partition cuts that the
inverse bijection reads build no partition, and hand over an index into
a partition's own sorted arcs and vertex ranges.  Nothing downstream
checks those objects again, so here every object is rebuilt through its
public, checking constructor, and every index and range a cut hands
over is checked against its window.
"""

import pytest

from motzkin_ncl import (
    Arc,
    LargeMotzkinPath,
    LinkedPartition,
    MotzkinPath,
    SchroderPath,
    double,
    gen_large,
    gen_motzkin32,
    gen_ncl,
    gen_schroder,
    parse_partition,
    partition_to_path,
    path_to_partition,
    project,
    render_partition,
)
from motzkin_ncl.decompose import outer_decompose, restrict_partition


def assert_rebuilds(obj, cls, *args):
    assert type(obj) is cls
    assert cls(obj.text, *args) == obj


def assert_partition_rebuilds(q):
    # equality alone would accept plain tuples and mutable sets
    assert type(q) is LinkedPartition and type(q.arcs) is frozenset
    for arc in q.arcs:
        assert type(arc) is Arc and 1 <= arc.left < arc.right <= q.n
    assert LinkedPartition(q.n, q.arcs) == q


@pytest.mark.parametrize("n", range(8))
def test_motzkin_generators(n):
    for q in gen_motzkin32(n):
        assert_rebuilds(q, MotzkinPath)
    for p in gen_large(n):
        assert_rebuilds(p, LargeMotzkinPath)


@pytest.mark.parametrize("variant", ["large", "little"])
@pytest.mark.parametrize("n", range(7))
def test_schroder_generator(n, variant):
    for s in gen_schroder(n, variant):
        assert_rebuilds(s, SchroderPath, variant)


@pytest.mark.parametrize("n", range(8))
def test_doubling_pair(n):
    for q in gen_motzkin32(n):
        for bit in (0, 1):
            assert_rebuilds(double(q, bit), LargeMotzkinPath)
    for p in gen_large(n):
        if p.text:  # the empty path has no preimage
            assert_rebuilds(project(p)[0], MotzkinPath)


@pytest.mark.parametrize("n", range(1, 8))
def test_inverse_bijection(n):
    for q in gen_ncl(n):
        assert_rebuilds(partition_to_path(q), LargeMotzkinPath)


def assert_tiles(pieces, lo, hi):
    # int vertex ranges, laid end to end from lo to hi
    assert type(pieces) is list
    ends = [lo]
    for first, last in pieces:
        assert type(first) is int and type(last) is int and first < last
        assert first == ends[-1]
        ends.append(last)
    assert ends[-1] == hi


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_generator_and_decompositions(n):
    for q in gen_ncl(n):
        assert_partition_rebuilds(q)
        arcs = sorted((a, -b) for a, b in q.arcs)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                i = restrict_partition(arcs, lo, hi)
                assert type(i) is int and 0 <= i <= len(arcs)
                assert_tiles(outer_decompose(arcs, i, lo, hi), lo, hi)


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_generator_text(n):
    # the generator hands each partition its text instead of rendering it
    for q in gen_ncl(n):
        assert render_partition(q) == render_partition(LinkedPartition(q.n, q.arcs))


@pytest.mark.parametrize("n", range(8))
def test_forward_bijection_and_parser(n):
    for p in gen_large(n):
        q = path_to_partition(p)
        assert_partition_rebuilds(q)
        assert_partition_rebuilds(parse_partition(render_partition(q)))
