"""The bijection between large (3,2)-Motzkin paths of length n and
noncrossing linked partitions of {1..n+1}.

Both directions work on text words and validate their input once: the
forward map then tabulates where each component ends in one pass,
recurses on index ranges of the one word, jumping from piece to piece,
and lays its arcs out as ascending (left, -right) pairs, so it runs in
linear time and sorts no arc; input nested past the recursion limit
raises ValueError.  The inverse reads such a list, each vertex's longest
arc first, as a partition stores its arcs or as block text lists them,
off one work stack of vertex ranges in the partition's own vertex
numbers, each with its level h, and writes the letter that starts at
vertex v at index v - 1 + h: the rule the forward map lays its arcs out
by, where the step at index t, at height h, starts at vertex t + 1 - h.
It neither recurses nor builds a partition, and reads any depth in
O(n log n).  Each map builds only its result, in range by construction,
so it skips the public constructor's checks.

Forward direction, on arcs (min B, v), one per non-minimal element v of
a block B.  A word's arcs are its components' arcs laid end to end,
each component's last vertex the next one's first.  An axis level step
of color 1 becomes the arc (1, 2); color 2 becomes no arc.  An elevated
component ``U w x`` or ``U w y`` of length p lives on 1..p+1 by one
rule: the segments of w, cut at its axis-level color-3 steps, are laid
end to end from vertex 1, each tied by an arc from its first vertex to
the vertex just past its last; closing color 2 leaves the first segment
untied; and vertex 1 hooks p+1.

The inverse reads the same rule backwards.  A valid partition is cut at
its uncovered vertices into components.  A two-vertex component is
``a`` if it has its arc and ``b`` if not.  Any other component, on
lo..hi, walks back from hi-1 along incoming arcs until it reaches lo or
a vertex with none: the stops, with lo in front, cut lo..hi-1 into
segments, each read back as a partition word (one vertex is the empty
word); the segments joined by ``c``, inside ``U`` and a closing ``x`` if
the walk reached lo and ``y`` if not, give the component's word.
:func:`classify_component` still names the rule's four outcomes
(closing color, one segment or several) as :class:`CaseTag` values, but
neither map uses it.
"""

from __future__ import annotations

from enum import Enum

from .decompose import (
    arc_reachable,
    component_ends,
    factor_components,
    outer_decompose,
    restrict_partition,
    split_axis_l3,
)
from .structures import (
    LargeMotzkinPath,
    LinkedPartition,
    _checked_arcs,
    _checked_text,
    _unchecked,
    validate_large,
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


def path_to_partition(path: LargeMotzkinPath | str) -> LinkedPartition:
    """Map a large path of length n to its partition of {1..n+1}."""
    word = validate_large(path).text
    return _unchecked(LinkedPartition, n=len(word) + 1, _pairs=tuple(_phi_arcs(word)))


def _phi_arcs(word: str) -> list[tuple[int, int]]:
    """The arcs of the valid large word's image, ascending (left, -right) pairs."""
    pairs: list[tuple[int, int]] = []
    try:
        _word_arcs(word, component_ends(word), 0, len(word), 0, pairs)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    return pairs


def _word_arcs(
    word: str, ends: list[int], lo: int, hi: int, h: int, arcs: list[tuple[int, int]]
) -> None:
    """Append the arcs of the image of word[lo:hi], a large word at height
    h, where the step at index t starts at vertex t + 1 - h."""
    # a comprehension run for its calls, not a loop: its frame keeps φ at
    # three frames per nesting level before Python 3.12, where README's
    # depth table has it
    pieces = factor_components(ends, lo, hi)
    [_component_arcs(word, ends, a, b, h, arcs) for a, b in pieces]


def _component_arcs(
    word: str, ends: list[int], lo: int, hi: int, h: int, arcs: list[tuple[int, int]]
) -> None:
    """Append the arcs of the image of the component word[lo:hi] at height
    h, each segment's tie before the arcs inside it, as they ascend."""
    first, step = lo + 1 - h, word[lo]
    if step == "a":
        arcs.append((first, -first - 1))
    elif step == "U":
        arcs.append((first, h - hi - 1))
        tie = word[hi - 1] == "x"  # closing color 2 leaves the first segment untied
        for a, b in split_axis_l3(word, ends, lo + 1, hi - 1):
            if tie:
                arcs.append((a - h, h - b - 1))
            if a < b:
                _word_arcs(word, ends, a, b, h + 1, arcs)
            tie = True


def classify_component(component: LinkedPartition) -> CaseTag:
    """Which forward case produced this outer-decomposition component."""
    q = component.n - 1
    if q < 1:
        raise StructureError("a component spans at least two vertices")
    arcs = component._pairs  # (left, -right)
    if q == 1:
        return CaseTag.LEVEL1 if (1, -2) in arcs else CaseTag.LEVEL2
    if (1, -q - 1) not in arcs:
        raise StructureError("component lacks its outer arc")
    if (1, -q) in arcs:
        return CaseTag.UD1_PLAIN
    if arc_reachable(component, 1, q):
        return CaseTag.UD1_CHAIN
    if not any(q in (a, -b) for a, b in arcs):
        return CaseTag.UD2_PLAIN
    return CaseTag.UD2_CHAIN


def partition_to_path(p: LinkedPartition | str) -> LargeMotzkinPath:
    """Inverse map; the input must be a valid noncrossing linked partition."""
    if isinstance(p, str):
        text = _path_text(*_checked_text(p))
    else:
        text = _path_text(p.n, p._pairs, _checked_arcs(p))
    return _unchecked(LargeMotzkinPath, text=text)


def _path_text(n: int, arcs: list[tuple[int, int]], incoming: dict[int, int]) -> str:
    """The word of the valid partition of 1..n with the ascending
    (left, -right) pairs ``arcs`` and {right: left} of every arc."""
    letters = [""] * (n - 1)
    # vertex ranges still to read, each with its level h: a component's
    # first vertex v writes letter v - 1 + h
    todo = [(1, n, 0)]
    while todo:
        lo, hi, h = todo.pop()
        for a, b in outer_decompose(arcs, restrict_partition(arcs, lo, hi), lo, hi):
            if b == a + 1:
                letters[a - 1 + h] = "a" if incoming.get(b) == a else "b"
                continue
            # walk back from b-1 along incoming arcs: each stop opens a
            # segment with c (U at a), and the closing color is 1 (x)
            # exactly when the walk reaches a
            letters[a - 1 + h] = "U"
            end = b - 1
            while end != a and end in incoming:
                first = incoming[end]
                if first != a:
                    letters[first - 1 + h] = "c"
                if first < end - 1:  # one vertex is the empty word
                    todo.append((first, end - 1, h + 1))
                end = first
            letters[b - 2 + h] = "x" if end == a else "y"
            if a < end - 1:  # stopped short of a: a..end-1 is the first segment
                todo.append((a, end - 1, h + 1))
    return "".join(letters)
