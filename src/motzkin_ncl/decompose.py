"""Structural decompositions used by the bijections, on text words and
arc lists.

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
O(pieces), not O(length).  On the partition side the cuts take a vertex
range [lo, hi] and the sorted arcs inside it, in the partition's own
vertex numbers, and hand back sorted sub-lists of those arcs.

The helpers expect valid input; the public maps in
:mod:`motzkin_ncl.bijection` validate before they call them.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

from .structures import Arc, LinkedPartition


def component_ends(text: str) -> list[int]:
    """For each step of a large word, the index just past the component
    that starts there: one past the matching down step for ``U``, and the
    next index for any other step.  One stack pass.

    >>> component_ends("aUcUyx")
    [1, 6, 3, 5, 5, 6]
    """
    ends = list(range(1, len(text) + 1))
    opened = []  # the up steps not yet closed
    for i, ch in enumerate(text):
        if ch == "U":
            opened.append(i)
        elif ch == "x" or ch == "y":
            ends[opened.pop()] = i + 1
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


def restrict_partition(arcs: list[Arc], lo: int, hi: int) -> list[Arc]:
    """The arcs of the sorted list ``arcs`` that lie inside [lo, hi], in
    order.  Bisects to those starting in [lo, hi): O(log A) plus their
    number for A arcs.

    >>> restrict_partition([(1, 3), (2, 3), (2, 5), (3, 4)], 2, 4)
    [(2, 3), (3, 4)]
    """
    first = bisect_left(arcs, (lo,))
    last = bisect_left(arcs, (hi,), first)
    return [arc for arc in arcs[first:last] if arc[1] <= hi]


def outer_decompose(
    arcs: list[Arc], lo: int, hi: int
) -> list[tuple[int, int, list[Arc]]]:
    """Cut a valid partition on [lo, hi], given as its sorted arcs, at its
    uncovered vertices.

    The split points are the vertices lying strictly inside no arc (lo
    and hi always qualify).  Each component is the closed interval
    between two consecutive split points, returned as its first vertex,
    its last vertex and the sorted arcs inside it, so consecutive
    components share one vertex.  Every arc fits inside one such
    interval, so the components carry all arcs.  One pass: O(n + A) for
    n vertices and A arcs.

    >>> outer_decompose([(1, 3), (2, 3), (3, 4)], 1, 5)
    [(1, 3, [(1, 3), (2, 3)]), (3, 4, [(3, 4)]), (4, 5, [])]
    """
    # an arc starting at a covers no vertex up to a, so in left-end order
    # a closes the component before it exactly when no arc seen so far
    # reaches past a; every vertex from that reach up to a is a split
    # point too, and each gap between two of them is an arcless component;
    # a last pseudo-arc (hi, hi) closes the open component and the gaps to hi
    components = []
    start = reach = lo  # reach == start: no component is open
    first = 0  # the open component's first arc
    for i, (a, b) in enumerate(chain(arcs, [(hi, hi)])):
        if a >= reach:
            if reach > start:
                components.append((start, reach, arcs[first:i]))
            for v in range(reach, a):
                components.append((v, v + 1, []))
            start, first = a, i
        if b > reach:
            reach = b
    return components


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
