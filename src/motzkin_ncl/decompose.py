"""Structural decompositions used by the bijections, on text words and
arc sets.

A large path factors uniquely at its returns to the axis into
*components*: the single axis-level steps ``a``/``b`` and elevated words
``U..x`` / ``U..y`` that stay strictly above the axis in between.  The
interior of an elevated word, read at its own baseline, splits at its
axis-level color-3 steps into large segments.  On the partition side,
the mirror notion is the outer decomposition at vertices that sit
strictly inside no arc.

The helpers expect valid input; the public maps in
:mod:`motzkin_ncl.bijection` validate before they call them.  Only
:func:`factor_components` still rejects a word that is not large, as it
can check that at the axis returns alone.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

from .structures import (
    _DELTA,
    Arc,
    AxisL3,
    LinkedPartition,
    NegativeHeight,
    NonzeroFinalHeight,
    _new_arc,
    _unchecked,
)


def factor_components(text: str) -> tuple[str, ...]:
    """Cut a large word at its returns to the axis.

    Only the axis returns are checked, so a word that is not large still
    raises a :class:`~motzkin_ncl.structures.PathError` at no cost per step.

    >>> factor_components("abUxUcUyx")
    ('a', 'b', 'Ux', 'UcUyx')
    >>> factor_components("c")
    Traceback (most recent call last):
    ...
    motzkin_ncl.structures.AxisL3: level color 3 on the axis at step 0
    """
    out = []
    start = 0
    h = 0
    for i, ch in enumerate(text):
        h += _DELTA[ch]
        if h == 0:
            if i == start:
                if ch == "c":
                    raise AxisL3(i)
            elif text[start] != "U":
                # the piece left the axis downwards
                raise NegativeHeight(start)
            out.append(text[start : i + 1])
            start = i + 1
    if start != len(text):
        raise NonzeroFinalHeight(h)
    return tuple(out)


def split_axis_l3(text: str) -> tuple[str, ...]:
    """Split a valid Motzkin word at every axis-level color-3 step.

    A word with no such step yields itself as the single segment; a word
    with k-1 of them yields k segments, each large by construction.

    >>> split_axis_l3("bUxcUyc")
    ('bUx', 'Uy', '')
    """
    pieces = []
    start = 0
    h = 0
    for i, ch in enumerate(text):
        if ch == "c" and h == 0:
            pieces.append(text[start:i])
            start = i + 1
        h += _DELTA[ch]
    pieces.append(text[start:])
    return tuple(pieces)


# ---------------------------------------------------------------------------
# partition side


def restrict_partition(p: LinkedPartition, lo: int, hi: int) -> LinkedPartition:
    """Arcs lying inside [lo, hi], relabeled to 1..hi-lo+1; needs lo <= hi.
    Bisects the sorted arcs to those starting in [lo, hi): O(log A) plus
    their number for A arcs, on a partition that this module built."""
    arcs = _sorted_arcs(p)
    first = bisect_left(arcs, (lo,))
    last = bisect_left(arcs, (hi,), first)
    return _relabeled([arc for arc in arcs[first:last] if arc[1] <= hi], lo, hi)


def outer_decompose(p: LinkedPartition) -> tuple[LinkedPartition, ...]:
    """Cut a valid partition at its uncovered vertices.

    The split points are the vertices lying strictly inside no arc (1
    and n always qualify).  Component i is the restriction to the closed
    interval between the i-th and (i+1)-th split point, relabeled to
    start at 1, so consecutive components share one vertex.  Every arc
    fits inside one such interval, so the components carry all arcs.
    Runs in O(n + A) for n vertices and A arcs on a partition that this
    module built, and in O(n + A log A) on any other.
    """
    # an arc starting at a covers no vertex up to a, so in left-end order
    # a closes the component before it exactly when no arc seen so far
    # reaches past a; every vertex from that reach up to a is a split
    # point too, and each gap between two of them is an arcless component;
    # a last pseudo-arc (n, n) closes the open component and the gaps to n
    arcs = _sorted_arcs(p)
    components = []
    start = reach = 1  # reach == start: no component is open
    first = 0  # the open component's first arc
    for i, (a, b) in enumerate(chain(arcs, [(p.n, p.n)])):
        if a >= reach:
            if reach == start + 1:  # a lone arc (start, start+1)
                components.append(_STEP)
            elif reach > start:
                components.append(_relabeled(arcs[first:i], start, reach))
            components += [_GAP] * (a - reach)
            start, first = a, i
        if b > reach:
            reach = b
    return tuple(components)


def _sorted_arcs(p: LinkedPartition) -> list[Arc]:
    """The arcs of ``p`` by (left, right): kept as ``_sorted`` on each
    partition that this module builds, sorted afresh for any other."""
    arcs = p.__dict__.get("_sorted")
    return sorted(p.arcs) if arcs is None else arcs


def _relabeled(arcs: list[Arc], lo: int, hi: int) -> LinkedPartition:
    """The partition on 1..hi-lo+1 of arcs that lie inside [lo, hi],
    given sorted, which it keeps as ``_sorted``."""
    if lo > 1:
        shift = lo - 1
        arcs = [_new_arc((a - shift, b - shift)) for a, b in arcs]
    return _unchecked(
        LinkedPartition, n=hi - lo + 1, arcs=frozenset(arcs), _sorted=arcs
    )


# the two-vertex components {1}{2} and {1,2}, shared
_GAP = _unchecked(LinkedPartition, n=2, arcs=frozenset(), _sorted=[])
_STEP = _relabeled([Arc(1, 2)], 1, 2)


def arc_reachable(p: LinkedPartition, a: int, b: int) -> bool:
    """Whether a chain of arcs links vertex a to vertex b (reflexively)."""
    if a == b:
        return True
    adjacency: dict[int, list[int]] = {}
    for u, v in p.arcs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    frontier = [a]
    seen = {a}
    while frontier:
        current = frontier.pop()
        for nxt in adjacency.get(current, ()):
            if nxt == b:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False
