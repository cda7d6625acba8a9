"""Exhaustive generators, used as independent oracles for the counting
tables and the bijections.

All four path families come from one lexicographic depth-first walk.
The families differ only in how far each letter moves the height, how
many x-units it spans (``F`` spans two, every other letter one), and
which letter, if any, the axis bars (``c`` for large Motzkin paths,
``F`` for little Schroeder paths).  One feasibility rule covers them
all: at height h with r units left, letter ch extends the prefix to a
complete path exactly when

    0 <= h + delta(ch) <= r - width(ch)

and ch is not the barred letter at h = 0.  The walk only extends
feasible prefixes, so it never backtracks out of a dead end; trying the
letters in sorted order makes each stream lazy and sorted by text.

>>> [p.text for p in gen_schroder(2, "little")]
['UDUD', 'UFD', 'UUDD']

The partition stream walks arc placements depth first on an explicit
stack, left endpoints in increasing order, so each finished arc set is
yielded once, by the loop itself; it sorts the results into canonical
text order and never consults the bijection.  No vertex is the right
end of two arcs.  Earlier arcs start left of v, so a new arc (v, e)
crosses one exactly when it is open over v (a < v < b) and ends before
e; those arcs nest, so e stops at the right end of the innermost one,
found once per vertex.
"""

from __future__ import annotations

from typing import Iterator

from .structures import (
    Arc,
    LargeMotzkinPath,
    LinkedPartition,
    MotzkinPath,
    SchroderPath,
    _DELTA,
    _SCHRODER_DELTA,
    _schroder_barred,
    _unchecked,
    render_partition,
)


def _words(
    units: int,
    delta: dict[str, int],
    width: dict[str, int],
    barred: str | None = None,
) -> Iterator[str]:
    """Words over ``delta``'s letters spanning ``units`` x-units that stay
    weakly above the axis, end on it, and never take ``barred`` on it;
    smallest text first, by the feasibility rule in the module docstring.
    """
    if units == 0:
        yield ""
        return
    letters = sorted(delta)
    options: dict[tuple[int, int], tuple[tuple[str, int, int], ...]] = {}

    def steps_from(h: int, r: int) -> tuple[tuple[str, int, int], ...]:
        """The feasible letters at height h with r units left, each with
        the height and units left after it."""
        key = (h, r)
        found = options.get(key)
        if found is None:
            found = options[key] = tuple(
                (ch, h + delta[ch], r - width[ch])
                for ch in letters
                if 0 <= h + delta[ch] <= r - width[ch]
                and not (h == 0 and ch == barred)
            )
        return found

    chars: list[str] = []
    stack = [iter(steps_from(0, units))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if chars:
                chars.pop()
            continue
        ch, h, r = step
        if r == 0:
            yield "".join(chars) + ch
            continue
        chars.append(ch)
        stack.append(iter(steps_from(h, r)))


_MOTZKIN_UNITS = dict.fromkeys(_DELTA, 1)
_SCHRODER_UNITS = {"U": 1, "F": 2, "D": 1}


def gen_motzkin32(n: int) -> Iterator[MotzkinPath]:
    """All (3,2)-Motzkin paths of length n, in text order."""
    if n < 0:
        raise ValueError("path length cannot be negative")
    for word in _words(n, _DELTA, _MOTZKIN_UNITS):
        yield _unchecked(MotzkinPath, text=word)


def gen_large(n: int) -> Iterator[LargeMotzkinPath]:
    """All large (3,2)-Motzkin paths of length n, in text order."""
    if n < 0:
        raise ValueError("path length cannot be negative")
    for word in _words(n, _DELTA, _MOTZKIN_UNITS, barred="c"):
        yield _unchecked(LargeMotzkinPath, text=word)


def gen_schroder(n: int, variant: str = "large") -> Iterator[SchroderPath]:
    """All Schroeder paths of half-length n, in text order."""
    if n < 0:
        raise ValueError("half-length cannot be negative")
    barred = _schroder_barred(variant)
    for word in _words(2 * n, _SCHRODER_DELTA, _SCHRODER_UNITS, barred):
        yield _unchecked(SchroderPath, text=word, variant=variant)


def _ncl_arc_sets(n: int) -> Iterator[frozenset[Arc]]:
    """Depth first over vertices: each vertex picks its outgoing arcs,
    ascending, subject to in-degree one and noncrossing.  A state is
    (vertex v, last end taken from v, bound on v's ends, arcs so far,
    bitmask of the vertices that are already right ends)."""
    stack = [(1, 1, n, (), 0)]
    while stack:
        v, last, bound, arcs, taken = stack.pop()
        if v == n:
            yield frozenset(arcs)
        else:  # stop at v; the innermost arc open over v + 1 bounds its ends
            inner = min((b for _, b in arcs if b > v + 1), default=n)
            stack.append((v + 1, v + 1, inner, arcs, taken))
        for e in range(last + 1, bound + 1):
            if not taken >> e & 1:
                stack.append((v, e, bound, arcs + (Arc(v, e),), taken | 1 << e))


def gen_ncl(n: int) -> Iterator[LinkedPartition]:
    """All noncrossing linked partitions of {1..n}, in canonical text
    order.  Built directly from arc diagrams, independent of the path
    bijection."""
    if n < 1:
        raise ValueError("partitions need at least one vertex")
    found = [_unchecked(LinkedPartition, n=n, arcs=arcs) for arcs in _ncl_arc_sets(n)]
    found.sort(key=render_partition)  # each partition keeps its text
    yield from found

