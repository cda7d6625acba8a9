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
O(pieces), not O(length).  On the partition side the cuts take a
vertex range [lo, hi], in the partition's own vertex numbers, and the
one list of its arcs sorted as (left, -right) pairs, so each vertex's
longest arc comes first; they bisect that list and jump from component
to component along those arcs, so a cut costs O(pieces log A) for A
arcs, and they hand back an index and vertex ranges, never arcs.

The helpers expect valid input; the public maps in
:mod:`motzkin_ncl.bijection` validate before they call them.
"""

from __future__ import annotations

from bisect import bisect_left

from .structures import LinkedPartition


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


def restrict_partition(arcs: list[tuple[int, int]], lo: int, hi: int) -> int:
    """The index in ``arcs``, a partition's arcs sorted as (left, -right)
    pairs, of the first arc inside [lo, hi]: one bisection.

    In that order each vertex's longest arc comes first, so the index
    skips lo's arcs that end past hi, such as the arcs that leave a
    segment of a component at its first vertex.

    >>> arcs = [(1, -4), (1, -2), (2, -3)]  # {1,2,4}{2,3}
    >>> restrict_partition(arcs, 1, 3)
    1
    """
    return bisect_left(arcs, (lo, -hi))


def outer_decompose(
    arcs: list[tuple[int, int]], i: int, lo: int, hi: int
) -> list[tuple[int, int]]:
    """Cut a valid partition on [lo, hi] at its uncovered vertices.

    ``arcs`` holds the partition's arcs sorted as (left, -right) pairs,
    and ``i`` is :func:`restrict_partition`'s index for [lo, hi], where
    the first component starts.  The split points are the vertices lying
    strictly inside no arc within [lo, hi] (lo and hi always qualify).
    Each component is the closed interval between two consecutive split
    points, returned as its first and last vertex, so consecutive
    components share one vertex.  On valid input a component ends where
    the longest arc from its first vertex ends, or one vertex on if that
    vertex has no arc inside [lo, hi], so the cut jumps from component
    to component with one bisection for each after the first:
    O(c log A) for c components and A arcs.

    >>> arcs = [(1, -4), (1, -2), (2, -3)]  # {1,2,4}{2,3}
    >>> outer_decompose(arcs, restrict_partition(arcs, 1, 3), 1, 3)
    [(1, 2), (2, 3)]
    >>> outer_decompose(arcs, restrict_partition(arcs, 1, 4), 1, 4)
    [(1, 4)]
    >>> all(outer_decompose(arcs, restrict_partition(arcs, v, v), v, v) == []
    ...     for v in range(1, 5))  # a one-vertex range has no component
    True
    """
    components = []
    while lo < hi:
        end = -arcs[i][1] if i < len(arcs) and arcs[i][0] == lo else lo + 1
        components.append((lo, end))
        lo = end
        if lo < hi:
            i = bisect_left(arcs, (lo, -hi), i)
    return components


def arc_reachable(p: LinkedPartition, a: int, b: int) -> bool:
    """Whether a chain of arcs links vertex a to vertex b (reflexively)."""
    if a == b:
        return True
    adjacency: dict[int, list[int]] = {}
    for u, v in p._pairs:  # v is minus the right end
        adjacency.setdefault(u, []).append(-v)
        adjacency.setdefault(-v, []).append(u)
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
