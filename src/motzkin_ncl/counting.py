"""Exact counting sequences, as arbitrary-precision integers.

The five sequences:

* m: (3,2)-Motzkin paths by length.
* L: large (3,2)-Motzkin paths by length.
* S: large Schroeder paths by half-length.
* s: little Schroeder paths by half-length.
* f: noncrossing linked partitions by ground-set size, starting at 1.

Numerically L(n) = S(n) = 2 s(n) = 2 m(n-1) for n >= 1, and
f(n+1) = L(n), so one sequence determines all five tables.  They are
built from the holonomic (P-recursive) recurrence of the large
Schroeder numbers (OEIS A006318),

  (n+1) S(n) = 3(2n-1) S(n-1) - (n-2) S(n-2),  S(0) = 1,  S(1) = 2,

in O(N) big-integer steps, every division checked to be exact.

:func:`verify_identities` checks those identities against a second,
independent derivation: the convolution recurrences

  m(0) = 1,  m(n) = 3 m(n-1) + 2 sum_{j} m(j) m(n-2-j),
  L(0) = 1,  L(n) = 2 L(n-1) + 2 sum_{j} m(j) L(n-2-j),
  S(0) = 1,  S(n) = S(n-1) + sum_{k} S(k) S(n-1-k),

which come from the functional equations M = 1 + 3x M + 2x^2 M^2,
L = 1 + 2x L + 2x^2 M L and S = 1 + x S + x S^2 of the generating
functions, checked against their closed forms in the test suite.  They
cost O(N^2) big-integer products, so only the check uses them.  Each
inner sum is one C-level dot product, and the symmetric sums m m and
S S multiply each unordered pair once, so checking to N costs about
N^2/4 products each for m and S and N^2/2 for L, whose m L is not
symmetric.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, NamedTuple

from .structures import _Frozen


class SequenceTable(_Frozen):
    """A finite prefix of one counting sequence.

    ``values[i]`` holds the term of index ``offset + i``; every sequence
    here starts at 0 except f, which starts at 1.  ``recurrence`` records
    how the numbers were produced.
    """

    _fields = ("name", "offset", "values", "recurrence")

    def __init__(self, name: str, offset: int, values: tuple, recurrence: str) -> None:
        self.__dict__.update(zip(self._fields, (name, offset, values, recurrence)))

    @property
    def max_index(self) -> int:
        return self.offset + len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not self.offset <= n <= self.max_index:
            raise IndexError(f"{self.name}({n}) outside the computed range")
        return self.values[n - self.offset]

    def items(self) -> Iterator[tuple[int, int]]:
        for i, value in enumerate(self.values):
            yield self.offset + i, value


def _require_count(n: int, minimum: int = 0) -> None:
    if n < minimum:
        raise ValueError(f"need an index of at least {minimum}, got {n}")


_HOLONOMIC = "(n+1) S(n) = 3(2n-1) S(n-1) - (n-2) S(n-2), S(0) = 1, S(1) = 2"


def _schroder_values(upto: int) -> list[int]:
    """S(0)..S(upto) by the holonomic recurrence; a division that leaves
    a remainder means the build is inconsistent and raises."""
    values = [1, 2][: upto + 1]
    for n in range(2, upto + 1):
        value, rest = divmod(
            3 * (2 * n - 1) * values[n - 1] - (n - 2) * values[n - 2], n + 1
        )
        if rest:
            raise ArithmeticError(f"S({n}) is not an integer; recurrence broken")
        values.append(value)
    return values


def _halves(large: list[int]) -> list[int]:
    """S(n) / 2 for 1 <= n < len(large), each halving checked to be exact."""
    out = []
    for n in range(1, len(large)):
        half, rest = divmod(large[n], 2)
        if rest:
            raise ArithmeticError(f"S({n}) is odd; halving identity broken")
        out.append(half)
    return out


def motzkin32_numbers(upto: int) -> SequenceTable:
    """m(0)..m(upto), counting (3,2)-Motzkin paths by length."""
    _require_count(upto)
    return SequenceTable(
        "m",
        0,
        tuple(_halves(_schroder_values(upto + 1))),
        f"m(n) = S(n+1) / 2, {_HOLONOMIC}",
    )


def large_motzkin_numbers(upto: int) -> SequenceTable:
    """L(0)..L(upto), counting large (3,2)-Motzkin paths by length."""
    _require_count(upto)
    return SequenceTable(
        "L", 0, tuple(_schroder_values(upto)), f"L(n) = S(n), {_HOLONOMIC}"
    )


def schroder_numbers(upto: int) -> tuple[SequenceTable, SequenceTable]:
    """Large and little Schroeder numbers S(0)..S(upto), s(0)..s(upto).

    The little numbers halve the large ones exactly; a remainder would
    mean the build is inconsistent and raises.
    """
    _require_count(upto)
    large = _schroder_values(upto)
    big = SequenceTable("S", 0, tuple(large), _HOLONOMIC)
    small = SequenceTable(
        "s",
        0,
        (1, *_halves(large)),
        f"s(n) = S(n) / 2 for n >= 1, s(0) = 1, {_HOLONOMIC}",
    )
    return big, small


def ncl_counts(upto: int) -> SequenceTable:
    """f(1)..f(upto), counting noncrossing linked partitions of {1..n}."""
    _require_count(upto, minimum=1)
    return SequenceTable(
        "f",
        1,
        tuple(_schroder_values(upto - 1)),
        f"f(n+1) = L(n) = S(n), f(1) = 1, {_HOLONOMIC}",
    )


# ---------------------------------------------------------------------------
# the independent side of the identity check: convolution recurrences


def _square_sum(a: list[int], t: int) -> int:
    """sum_{j<t} a[j] a[t-1-j], with each unordered pair multiplied once:
    the off-diagonal half as one C-level dot product, doubled, plus the
    middle square when t is odd."""
    half = t // 2
    total = 2 * sum(map(mul, a[:half], reversed(a[t - half : t])))
    if t % 2:
        total += a[half] * a[half]
    return total


def _motzkin32_convolution(upto: int) -> list[int]:
    values = [1]
    for n in range(1, upto + 1):
        values.append(3 * values[n - 1] + 2 * _square_sum(values, n - 1))
    return values


def _large_convolution(upto: int, m: list[int]) -> list[int]:
    """L(0)..L(upto) from m(0)..m(upto - 2)."""
    values = [1]
    for n in range(1, upto + 1):
        tail = sum(map(mul, m[: n - 1], reversed(values[: n - 1])))
        values.append(2 * values[n - 1] + 2 * tail)
    return values


def _schroder_convolution(upto: int) -> list[int]:
    values = [1]
    for n in range(1, upto + 1):
        values.append(values[n - 1] + _square_sum(values, n))
    return values


class IdentityCheck(NamedTuple):
    name: str
    holds: bool
    first_failure: int | None = None


class IdentityReport(NamedTuple):
    max_index: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)


def verify_identities(upto: int) -> IdentityReport:
    """Check the cross-family identities for every 1 <= n <= upto:
    L(n) = 2 m(n-1),  L(n) = S(n),  S(n) = 2 s(n),  s(n) = m(n-1).

    Each identity compares two separate derivations, so no check can
    hold by construction.  L(n) = 2 m(n-1) sets the m and L convolutions
    against each other; the other three set the published tables (the
    holonomic S and its halves s) against the convolutions.
    """
    _require_count(upto, minimum=1)
    m = _motzkin32_convolution(upto - 1)
    large = _large_convolution(upto, m)
    big = _schroder_convolution(upto)
    holonomic, little = schroder_numbers(upto)

    def first_break(predicate) -> int | None:
        for n in range(1, upto + 1):
            if not predicate(n):
                return n
        return None

    pairs = (
        ("L(n) = 2 m(n-1)", lambda n: large[n] == 2 * m[n - 1]),
        ("L(n) = S(n)", lambda n: large[n] == holonomic[n]),
        ("S(n) = 2 s(n)", lambda n: big[n] == 2 * little[n]),
        ("s(n) = m(n-1)", lambda n: little[n] == m[n - 1]),
    )
    checks = []
    for name, predicate in pairs:
        failure = first_break(predicate)
        checks.append(IdentityCheck(name, failure is None, failure))
    return IdentityReport(upto, tuple(checks))
