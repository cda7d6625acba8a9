"""The usage examples embedded in docstrings must keep working."""

import doctest

import motzkin_ncl.bijection
import motzkin_ncl.counting
import motzkin_ncl.decompose
import motzkin_ncl.doubling
import motzkin_ncl.enumerate
import motzkin_ncl.structures
import pytest

MODULES = [
    motzkin_ncl.structures,
    motzkin_ncl.decompose,
    motzkin_ncl.bijection,
    motzkin_ncl.doubling,
    motzkin_ncl.counting,
    motzkin_ncl.enumerate,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0
    # at least the documented modules carry examples worth running
    if module in (
        motzkin_ncl.structures,
        motzkin_ncl.decompose,
        motzkin_ncl.enumerate,
    ):
        assert attempted > 0
