"""Producers that skip the public constructors' checks emit valid objects.

The generators, the doubling pair and the inverse bijection build their
path objects without walking them, because their words are valid by
construction.  Likewise the partition producers (the parser, the forward
bijection and the partition generator) hand over arcs that are in range
by construction, without normalising them, as the ascending (left, -right)
pairs that a partition stores; the partition cuts that the
inverse bijection reads build no partition, and hand over an index into
a partition's own sorted arcs and vertex ranges.  Nothing downstream
checks those objects again, so here every object is rebuilt through its
public, checking constructor, and every index and range a cut hands
over is checked against its window.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from test_bijection import large_words
from test_structures import block_texts


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


def assert_stored_alike(p, q):
    # equal objects and hashes, each holding only n, its pairs and maybe
    # its text, the pairs strictly ascending, plain and in range
    assert p == q and hash(p) == hash(q)
    for r in (p, q):
        assert set(vars(r)) <= {"n", "_pairs", "_text"}
        pairs = r._pairs
        assert type(pairs) is tuple and {type(pair) for pair in pairs} <= {tuple}
        assert all(1 <= a < -b <= r.n for a, b in pairs)
        assert all(x < y for x, y in zip(pairs, pairs[1:]))


def _shuffled(text, permute):
    """Block text with its blocks, and the labels in each, reordered by
    ``permute``, which returns a permutation of the list it is given."""
    blocks = [permute(block.split(",")) for block in text[1:-1].split("}{")]
    return "".join("{" + ",".join(block) + "}" for block in permute(blocks))


def assert_producers_agree(word, permute):
    p = path_to_partition(word)
    assert_stored_alike(p, parse_partition(_shuffled(str(p), permute)))
    assert_stored_alike(p, LinkedPartition(p.n, p.arcs))


class TestCanonicalPairs:
    # φ, the reader, the public constructor and the generator store the
    # same (n, pairs) for the same partition, so they compare and hash alike
    @given(large_words(max_len=40), st.data())
    def test_large_words_up_to_length_40(self, word, data):
        assert_producers_agree(word, lambda items: data.draw(st.permutations(items)))

    @pytest.mark.parametrize("k", [1, 40, 300])
    @pytest.mark.parametrize("shape", ["nest", "chain"])
    def test_nests_and_chains(self, shape, k):
        word = "U" * k + "x" * k if shape == "nest" else "Ucx" * k
        rng = random.Random(k)
        assert_producers_agree(word, lambda items: rng.sample(items, len(items)))

    @given(block_texts())
    def test_parsed_block_texts(self, text):
        try:
            p = parse_partition(text)
        except ValueError:
            return
        assert_stored_alike(p, LinkedPartition(p.n, p.arcs))
        assert_stored_alike(p, parse_partition(str(p)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_generated_partitions(self, n):
        for q in gen_ncl(n):
            assert_stored_alike(q, parse_partition(str(q)))
