"""Producers that skip the path constructors' checks emit valid paths.

The generators, the doubling pair and the inverse bijection build their
path objects without walking them, because their words are valid by
construction.  Nothing downstream checks those objects again, so here
every one is rebuilt through its public, checking constructor.
"""

import pytest

from motzkin_ncl import (
    LargeMotzkinPath,
    MotzkinPath,
    SchroderPath,
    double,
    gen_large,
    gen_motzkin32,
    gen_ncl,
    gen_schroder,
    partition_to_path,
    project,
)


def assert_rebuilds(obj, cls, *args):
    assert type(obj) is cls
    assert cls(obj.text, *args) == obj


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
