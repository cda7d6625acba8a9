"""Structural decompositions used by the bijections, on text words and
arc sets.

A large path factors uniquely at its returns to the axis into
*components*: the single axis-level steps ``a``/``b`` and elevated words
``U..x`` / ``U..y`` that stay strictly above the axis in between.  The
interior of an elevated word, read at its own baseline, splits at its
axis-level color-3 steps into large segments.  On the partition side,
the mirror notion is the outer decomposition at vertices that sit
strictly inside no arc.

On the path side one stack pass, :func:`component_ends`, tabulates
where the component starting at each step ends; the cuts then take an
index range of the one word and jump through that table, so a cut costs
O(pieces), not O(length).

The helpers expect valid input; the public maps in
:mod:`motzkin_ncl.bijection` validate before they call them.  Only
:func:`component_ends` still rejects a word that is not large, as its
stack pass checks that at no extra cost.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

from .structures import (
    Arc,
    AxisL3,
    LinkedPartition,
    NegativeHeight,
    NonzeroFinalHeight,
    _new_arc,
    _unchecked,
)


def component_ends(text: str) -> list[int]:
    """For each step of a large word, the index just past the component
    that starts there: one past the matching down step for ``U``, and the
    next index for any other step.

    One stack pass, which also rejects a word that is not large with the
    :class:`~motzkin_ncl.structures.PathError` that names its first fault.

    >>> component_ends("aUcUyx")
    [1, 6, 3, 5, 5, 6]
    >>> component_ends("c")
    Traceback (most recent call last):
    ...
    motzkin_ncl.structures.AxisL3: level color 3 on the axis at step 0
    """
    ends = list(range(1, len(text) + 1))
    opened = []  # the up steps not yet closed
    for i, ch in enumerate(text):
        if ch == "U":
            opened.append(i)
        elif ch == "x" or ch == "y":
            if not opened:
                raise NegativeHeight(i)
            ends[opened.pop()] = i + 1
        elif ch == "c" and not opened:
            raise AxisL3(i)
    if opened:
        raise NonzeroFinalHeight(len(opened))
    return ends


def factor_components(ends: list[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """Cut the large word on [lo, hi) at its returns to its baseline.

    Returns the index ranges of its components, jumping through the
    :func:`component_ends` table from each one's start to its end.

    >>> factor_components(component_ends("abUxUcUyx"), 0, 9)
    [(0, 1), (1, 2), (2, 4), (4, 9)]
    """
    pieces = []
    while lo < hi:
        end = ends[lo]
        pieces.append((lo, end))
        lo = end
    return pieces


def split_axis_l3(
    text: str, ends: list[int], lo: int, hi: int
) -> list[tuple[int, int]]:
    """Split the Motzkin word on [lo, hi) at its baseline color-3 steps.

    Returns the index ranges of its segments, each large by construction:
    one range for no such step, and k for k-1 of them.  It reads the
    first letter of each piece and jumps through ``ends`` to the next.

    >>> word = "UbUxcUycx"  # the interior of one component
    >>> split_axis_l3(word, component_ends(word), 1, 8)
    [(1, 4), (5, 7), (8, 8)]
    """
    pieces = []
    start = lo
    while lo < hi:
        if text[lo] == "c":
            pieces.append((start, lo))
            start = lo + 1
        lo = ends[lo]
    pieces.append((start, hi))
    return pieces


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
