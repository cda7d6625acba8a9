"""Exhaustive generators, used as independent oracles for the counting
tables and the bijections.

Path streams run a lexicographic depth-first search over feasible
prefixes, so they are lazy and already sorted by text.  The partition
stream backtracks over arc placements (left endpoints in increasing
order, pruning on in-degree and crossings) and sorts the results into
canonical text order; it never consults the bijection.
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
    render_partition,
)


def _motzkin_words(length: int, axis_l3: bool) -> Iterator[str]:
    """All (3,2)-Motzkin words of the given length, smallest text first.

    From height h with r steps left, a prefix completes exactly when the
    next height stays within the remaining steps; trying the letters in
    alphabetical order makes the whole walk lexicographic.
    """
    if length == 0:
        yield ""
        return
    options: dict[tuple[int, int], tuple[str, ...]] = {}

    def steps_from(h: int, r: int) -> tuple[str, ...]:
        key = (h, r)
        found = options.get(key)
        if found is None:
            out = []
            if h + 1 <= r - 1:
                out.append("U")
            if h <= r - 1:
                out.extend("ab")
                if axis_l3 or h > 0:
                    out.append("c")
            if h >= 1:
                out.extend("xy")
            found = options[key] = tuple(out)
        return found

    chars: list[str] = []
    heights = [0]
    stack = [iter(steps_from(0, length))]
    while stack:
        ch = next(stack[-1], None)
        if ch is None:
            stack.pop()
            if chars:
                chars.pop()
                heights.pop()
            continue
        if len(chars) + 1 == length:
            yield "".join(chars) + ch
            continue
        h = heights[-1] + _DELTA[ch]
        chars.append(ch)
        heights.append(h)
        stack.append(iter(steps_from(h, length - len(chars))))


def gen_motzkin32(n: int) -> Iterator[MotzkinPath]:
    """All (3,2)-Motzkin paths of length n, in text order."""
    if n < 0:
        raise ValueError("path length cannot be negative")
    for word in _motzkin_words(n, axis_l3=True):
        yield MotzkinPath(word)


def gen_large(n: int) -> Iterator[LargeMotzkinPath]:
    """All large (3,2)-Motzkin paths of length n, in text order."""
    if n < 0:
        raise ValueError("path length cannot be negative")
    for word in _motzkin_words(n, axis_l3=False):
        yield LargeMotzkinPath(word)


def _ncl_arc_sets(n: int) -> Iterator[frozenset[Arc]]:
    """Backtrack over vertices: each vertex picks its outgoing arcs,
    ascending, subject to in-degree one and noncrossing."""
    arcs: list[Arc] = []
    taken = [False] * (n + 1)  # taken[v]: v already a right endpoint

    def place(v: int) -> Iterator[frozenset[Arc]]:
        if v > n:
            yield frozenset(arcs)
            return
        yield from place(v + 1)  # no outgoing arcs at v
        yield from grow(v, v)

    def grow(v: int, last: int) -> Iterator[frozenset[Arc]]:
        for e in range(last + 1, n + 1):
            if taken[e]:
                continue
            # earlier arcs all start at or left of v, so only one
            # crossing pattern is possible
            if any(a < v < b < e for a, b in arcs):
                continue
            arcs.append(Arc(v, e))
            taken[e] = True
            yield from place(v + 1)
            yield from grow(v, e)
            arcs.pop()
            taken[e] = False

    yield from place(1)


def gen_ncl(n: int) -> Iterator[LinkedPartition]:
    """All noncrossing linked partitions of {1..n}, in canonical text
    order.  Built directly from arc diagrams, independent of the path
    bijection."""
    if n < 1:
        raise ValueError("partitions need at least one vertex")
    found = [LinkedPartition(n, arcs) for arcs in _ncl_arc_sets(n)]
    found.sort(key=render_partition)
    yield from found


_SCHRODER_UNITS = {"U": 1, "F": 2, "D": 1}


def _schroder_words(units: int, axis_level: bool) -> Iterator[str]:
    """Schroeder words spanning the given number of x-units, in text
    order (D < F < U)."""
    if units == 0:
        yield ""
        return
    options: dict[tuple[int, int], tuple[str, ...]] = {}

    def steps_from(h: int, r: int) -> tuple[str, ...]:
        key = (h, r)
        found = options.get(key)
        if found is None:
            out = []
            if h >= 1:
                out.append("D")
            if h <= r - 2 and (axis_level or h > 0):
                out.append("F")
            if h + 1 <= r - 1:
                out.append("U")
            found = options[key] = tuple(out)
        return found

    chars: list[str] = []
    state = [(0, units)]  # (height, units remaining) before each position
    stack = [iter(steps_from(0, units))]
    while stack:
        ch = next(stack[-1], None)
        if ch is None:
            stack.pop()
            if chars:
                chars.pop()
                state.pop()
            continue
        h, r = state[-1]
        h += _SCHRODER_DELTA[ch]
        r -= _SCHRODER_UNITS[ch]
        if r == 0:
            yield "".join(chars) + ch
            continue
        chars.append(ch)
        state.append((h, r))
        stack.append(iter(steps_from(h, r)))


def gen_schroder(n: int, variant: str = "large") -> Iterator[SchroderPath]:
    """All Schroeder paths of half-length n, in text order."""
    if n < 0:
        raise ValueError("half-length cannot be negative")
    if variant not in ("large", "little"):
        raise ValueError(f"unknown variant {variant!r}")
    for word in _schroder_words(2 * n, axis_level=variant == "large"):
        yield SchroderPath(word, variant)
