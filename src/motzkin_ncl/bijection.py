"""The bijection between large (3,2)-Motzkin paths of length n and
noncrossing linked partitions of {1..n+1}.

Both directions work on text words and validate their input once: the
forward map then recurses on slices of the word, and the inverse
assembles the word from the components of its partition.  Every
partition built on the way is in range by construction, so it skips the
public constructor's normalisation.  Input nested past the recursion
limit raises ValueError.

Forward direction, component by component.  An axis level step of color
1 becomes the two-vertex block {1,2}; color 2 becomes two singletons.
An elevated component of length p maps to a partition of p+1 vertices
according to its closing color and to whether its interior carries
axis-level color-3 steps:

* closing color 1, plain interior: the interior's partition sits on
  vertices 1..p-1 and vertex 1 hooks both p and p+1;
* closing color 1, split interior: each segment's partition gets one
  extra arc tying its first vertex to the vertex just past its last,
  the pieces are chained end to end across 1..p, and vertex 1 hooks
  p+1;
* closing color 2, plain interior: as the first case but vertex p stays
  arc-free, only p+1 is hooked;
* closing color 2, split interior: the first segment's partition sits
  at 1..t+1 unchained, the remaining segments chain across t+2..p, and
  vertex 1 hooks p+1.

Component images then merge at shared endpoints, last vertex to first
vertex.  The inverse reads a valid partition back: cut at uncovered
vertices, and inside each component either peel the outer arc directly
(plain cases, told apart by whether vertex q hangs on an arc) or walk
backwards from vertex q along incoming arcs to recover the chain, whose
stops cut the support into the segments.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .decompose import (
    arc_reachable,
    factor_components,
    outer_decompose,
    restrict_partition,
    split_axis_l3,
)
from .structures import (
    Arc,
    LargeMotzkinPath,
    LinkedPartition,
    _unchecked,
    parse_partition,
    validate_large,
    validate_ncl,
)


_TOO_DEEP = "input nests too deeply for the recursive maps"


class StructureError(ValueError):
    """A component shape that no case of the correspondence produces.

    Unreachable for valid input; raising instead of guessing keeps a
    broken build loudly broken.
    """


class CaseTag(Enum):
    LEVEL1 = "level1"
    LEVEL2 = "level2"
    UD1_PLAIN = "ud1-plain"
    UD1_CHAIN = "ud1-chain"
    UD2_PLAIN = "ud2-plain"
    UD2_CHAIN = "ud2-chain"


def concat_merge(parts: Sequence[LinkedPartition]) -> LinkedPartition:
    """Glue partitions left to right, merging last vertex with first.

    Sizes q_i + 1 combine to 1 + sum(q_i); arcs shift accordingly.
    """
    if not parts:
        raise ValueError("concat_merge needs at least one part")
    arcs = set(parts[0].arcs)
    offset = parts[0].n - 1
    for part in parts[1:]:
        arcs.update(Arc(a + offset, b + offset) for a, b in part.arcs)
        offset += part.n - 1
    return _unchecked(LinkedPartition, n=offset + 1, arcs=frozenset(arcs))


def path_to_partition(path: LargeMotzkinPath | str) -> LinkedPartition:
    """Map a large path of length n to its partition of {1..n+1}."""
    try:
        return _word_partition(validate_large(path).text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def _word_partition(word: str) -> LinkedPartition:
    components = factor_components(word)
    if not components:
        return _unchecked(LinkedPartition, n=1, arcs=frozenset())
    return concat_merge([_component_partition(c) for c in components])


def _component_partition(component: str) -> LinkedPartition:
    if component == "a":
        return _unchecked(LinkedPartition, n=2, arcs=frozenset({Arc(1, 2)}))
    if component == "b":
        return _unchecked(LinkedPartition, n=2, arcs=frozenset())
    segments = split_axis_l3(component[1:-1])
    p = len(component)
    if component[-1] == "x":
        if len(segments) == 1:
            interior = _word_partition(segments[0])  # on 1..p-1
            arcs = interior.arcs | {Arc(1, p), Arc(1, p + 1)}
        else:
            chained = concat_merge([_tied_segment(s) for s in segments])  # on 1..p
            arcs = chained.arcs | {Arc(1, p + 1)}
    elif len(segments) == 1:
        interior = _word_partition(segments[0])  # on 1..p-1, p stays free
        arcs = interior.arcs | {Arc(1, p + 1)}
    else:
        head = _word_partition(segments[0])  # on 1..t1+1
        tail = concat_merge([_tied_segment(s) for s in segments[1:]])
        shift = head.n  # tail occupies t1+2..p, one past the head
        arcs = set(head.arcs)
        arcs.update(Arc(a + shift, b + shift) for a, b in tail.arcs)
        arcs.add(Arc(1, p + 1))
    return _unchecked(LinkedPartition, n=p + 1, arcs=frozenset(arcs))


def _tied_segment(segment: str) -> LinkedPartition:
    """A segment's partition plus the arc tying vertex 1 one past its end."""
    base = _word_partition(segment)
    end = base.n + 1
    return _unchecked(LinkedPartition, n=end, arcs=base.arcs | {Arc(1, end)})


def classify_component(component: LinkedPartition) -> CaseTag:
    """Which forward case produced this outer-decomposition component."""
    q = component.n - 1
    if q < 1:
        raise StructureError("a component spans at least two vertices")
    arcs = component.arcs
    if q == 1:
        return CaseTag.LEVEL1 if Arc(1, 2) in arcs else CaseTag.LEVEL2
    if Arc(1, q + 1) not in arcs:
        raise StructureError("component lacks its outer arc")
    if Arc(1, q) in arcs:
        return CaseTag.UD1_PLAIN
    if arc_reachable(component, 1, q):
        return CaseTag.UD1_CHAIN
    if not any(q in arc for arc in arcs):
        return CaseTag.UD2_PLAIN
    return CaseTag.UD2_CHAIN


def partition_to_path(p: LinkedPartition | str) -> LargeMotzkinPath:
    """Inverse map; the input must be a valid noncrossing linked partition."""
    if isinstance(p, str):
        p = parse_partition(p)
    validate_ncl(p)
    try:
        return _unchecked(LargeMotzkinPath, text=_partition_word(p))
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def _partition_word(p: LinkedPartition) -> str:
    return "".join(_component_word(c) for c in outer_decompose(p))


def _component_word(component: LinkedPartition) -> str:
    tag = classify_component(component)
    q = component.n - 1
    if tag is CaseTag.LEVEL1:
        return "a"
    if tag is CaseTag.LEVEL2:
        return "b"
    if tag is CaseTag.UD1_PLAIN:
        return "U" + _interior_word(component, 1, q - 1) + "x"
    if tag is CaseTag.UD2_PLAIN:
        return "U" + _interior_word(component, 1, q - 1) + "y"

    # chain cases: walk back from q along incoming arcs; the stops are the
    # chain vertices, and each gap between consecutive stops holds one
    # segment's partition
    incoming = {b: a for a, b in component.arcs}
    stops = [q]
    while stops[-1] in incoming:
        stops.append(incoming[stops[-1]])
    stops.reverse()
    segments = [
        _interior_word(component, stops[i], stops[i + 1] - 1)
        for i in range(len(stops) - 1)
    ]
    if tag is CaseTag.UD1_CHAIN:
        if stops[0] != 1:
            raise StructureError("chain reachable from 1 must walk back to 1")
        return "U" + "c".join(segments) + "x"
    if stops[0] == 1:
        raise StructureError("chain unreachable from 1 walked back to 1")
    lead = _interior_word(component, 1, stops[0] - 1)
    return "U" + "c".join([lead, *segments]) + "y"


def _interior_word(component: LinkedPartition, lo: int, hi: int) -> str:
    return _partition_word(restrict_partition(component, lo, hi))
