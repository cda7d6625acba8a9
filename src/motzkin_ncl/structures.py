"""Core value types: colored Motzkin paths, Schroeder paths, and
noncrossing linked partitions.

The objects handled by this package:

* A (3,2)-Motzkin path of length n walks from (0,0) to (n,0) using up
  steps (1,1), level steps (1,0) in three colors, and down steps (1,-1)
  in two colors, never dipping below the x-axis.  Text form: ``U`` for
  up, ``a``/``b``/``c`` for the three level colors, ``x``/``y`` for the
  two down colors.
* A large (3,2)-Motzkin path is one whose level steps *on the axis* use
  only the first two colors; color ``c`` may appear at positive height
  only.
* A Schroeder path walks from (0,0) to (2n,0) with up steps (1,1), down
  steps (1,-1) and double-length level steps (2,0), staying weakly above
  the axis.  Text form: ``U``/``F``/``D``.  The "little" variant forbids
  level steps on the axis.
* A noncrossing linked partition of {1..n} covers the ground set by
  blocks that are pairwise *nearly disjoint*: two blocks may share at
  most one element, and only so that the shared element is the minimum
  of exactly one of them (that one not a singleton) and a non-minimum of
  the other.  Blocks must also be mutually noncrossing.  We store the
  linear representation: one arc (min(B), v) for every non-minimal
  element v of every block B.  A set of arcs encodes such a partition
  exactly when no vertex is the right endpoint of two arcs and no two
  arcs cross.

A path is its text word, and the other modules take words apart with
string operations.  All types are immutable values without
``dataclasses``: each ``__init__`` checks its arguments and only then
writes its fields into ``__dict__``, and their base :class:`_Frozen`
refuses to set or delete one.  Path constructors check the alphabet and
then the heights, so a path object is proof of its validity.  The public
:class:`LinkedPartition` constructor takes integer vertices only,
stores its arcs as the ascending (left, -right) pairs and checks their
bounds only, so that the validators can still see invalid arc sets.
Producers whose output is valid (a path) or canonical and in range (a
partition) by construction skip those steps through the one private
:func:`_unchecked`.

A partition's text lists its blocks, such as ``{1,3,4}{2}``.
:func:`_read_blocks` checks the grammar with one compiled pattern, reads
the labels with ``str.split`` and ``int``, and runs every other check on
the int lists; the character offset of an error is found only once there
is one.  Given the :class:`_BlockMemo` that ``map --phi-inv`` makes for
a stream, it reads each distinct block text once.  Its blocks come by
minimum, so their arcs, each block's read from its largest label down,
are (left, -right) pairs in ascending order: a partition's stored form,
which the crossing sweep, φ⁻¹ and the diagram take unsorted, and which
the one renderer, :func:`_block_text`, writes back as canonical text.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from itertools import accumulate
from operator import index, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

_DELTA = {"U": 1, "a": 0, "b": 0, "c": 0, "x": -1, "y": -1}
_PATH_ALPHABET = frozenset(_DELTA)


# ---------------------------------------------------------------------------
# errors


class ParseError(ValueError):
    """A textual encoding cannot be read.

    ``offset`` is the byte position of the offending character (all
    accepted texts are ASCII, so byte and character offsets coincide).
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class PathError(ValueError):
    """A word fails one of the path predicates."""


class NegativeHeight(PathError):
    def __init__(self, position: int):
        super().__init__(f"path dips below the axis at step {position}")
        self.position = position


class NonzeroFinalHeight(PathError):
    def __init__(self, height: int):
        super().__init__(f"path ends at height {height}, not on the axis")
        self.height = height


class AxisL3(PathError):
    """Level color 3 sits on the axis, which the large family forbids."""

    def __init__(self, position: int):
        super().__init__(f"level color 3 on the axis at step {position}")
        self.position = position


class AxisF(PathError):
    """A flat step sits on the axis of a little Schroeder path."""

    def __init__(self, position: int):
        super().__init__(f"flat step on the axis at step {position}")
        self.position = position


class PartitionError(ValueError):
    """An arc set or block family fails the partition predicates."""


class InDegree(PartitionError):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} is the right endpoint of two arcs")
        self.vertex = vertex


class CrossingArcs(PartitionError):
    def __init__(self, first: "Arc", second: "Arc"):
        super().__init__(f"arcs {tuple(first)} and {tuple(second)} cross")
        self.first = first
        self.second = second


def _set_text(block: Iterable[int]) -> str:  # as {a, b, ...}, ascending
    return "{%s}" % ", ".join(map(str, sorted({*block})))


class NearlyDisjointViolation(PartitionError):
    def __init__(self, block_a: tuple[int, ...], block_b: tuple[int, ...]):
        a, b = _set_text(block_a), _set_text(block_b)
        super().__init__(f"blocks {a} and {b} are not nearly disjoint")
        self.block_a = block_a
        self.block_b = block_b


class BlockCrossing(PartitionError):
    def __init__(self, block_a: tuple[int, ...], block_b: tuple[int, ...]):
        a, b = _set_text(block_a), _set_text(block_b)
        super().__init__(f"blocks {a} and {b} cross")
        self.block_a = block_a
        self.block_b = block_b


# ---------------------------------------------------------------------------
# paths


def _check_alphabet(text: str, alphabet: frozenset[str]) -> None:
    if not alphabet.issuperset(text):
        bad = next(i for i, c in enumerate(text) if c not in alphabet)
        raise ParseError(f"unknown step character {text[bad]!r}", bad)


class _Frozen:
    """Compares, hashes and prints ``_fields`` as a frozen dataclass does."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)


def _unchecked(cls, **fields):
    """An object of ``cls`` built from ``fields`` with no check or
    normalisation; only for producers whose output is valid by
    construction (a partition: n and its canonical, in-range ``_pairs``)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # frozen: bypass __setattr__
    return obj


class MotzkinPath(_Frozen):
    """A (3,2)-Motzkin path, stored as its text word.  Construction
    checks the alphabet and then the heights, so every object is valid.
    """

    _fields = ("text",)
    _barred, _axis_error = None, None  # the letter the axis bars, its error

    def __init__(self, text: str) -> None:
        _check_alphabet(text, _PATH_ALPHABET)
        _walk_heights(text, _DELTA, self._barred, self._axis_error)
        self.__dict__["text"] = text

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other: object) -> bool:
        # a path is its word: large and plain wrappers of the same text agree
        if isinstance(other, MotzkinPath):
            return self.text == other.text
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text

    def heights(self) -> tuple[int, ...]:
        """Running height after each step."""
        return tuple(accumulate(_DELTA[ch] for ch in self.text))


class LargeMotzkinPath(MotzkinPath):
    """A (3,2)-Motzkin path with no axis-level steps of color 3.

    >>> LargeMotzkinPath("c")
    Traceback (most recent call last):
    ...
    motzkin_ncl.structures.AxisL3: level color 3 on the axis at step 0
    """

    _barred, _axis_error = "c", AxisL3


def _walk_heights(
    text: str,
    delta: dict[str, int],
    barred: str | None,
    axis_error: type[PathError] | None,
) -> None:
    """Check that a word over ``delta``'s letters stays weakly above the
    axis, ends on it, and never takes ``barred`` on it (``axis_error``)."""
    h = 0
    for i, ch in enumerate(text):
        if ch == barred and h == 0:
            raise axis_error(i)
        h += delta[ch]
        if h < 0:
            raise NegativeHeight(i)
    if h != 0:
        raise NonzeroFinalHeight(h)


def validate_motzkin(word: str | MotzkinPath) -> MotzkinPath:
    """Wrap a word as a path; a path object is valid already."""
    return word if isinstance(word, MotzkinPath) else MotzkinPath(word)


def validate_large(word: str | MotzkinPath) -> LargeMotzkinPath:
    """Like :func:`validate_motzkin`, also rejecting color 3 on the axis;
    a plain path object is checked again as a large one.

    >>> validate_large("Ubx").heights()
    (1, 1, 0)
    >>> validate_large("Uqx")
    Traceback (most recent call last):
    ...
    motzkin_ncl.structures.ParseError: unknown step character 'q' (offset 1)
    """
    return word if isinstance(word, LargeMotzkinPath) else LargeMotzkinPath(str(word))


# ---------------------------------------------------------------------------
# Schroeder paths

_SCHRODER_ALPHABET = frozenset("UFD")
_SCHRODER_DELTA = {"U": 1, "F": 0, "D": -1}


def _schroder_barred(variant: str) -> str | None:
    """The letter that ``variant`` bars from the axis."""
    if variant not in ("large", "little"):
        raise ValueError(f"unknown variant {variant!r}")
    return "F" if variant == "little" else None


class SchroderPath(_Frozen):
    """A Schroeder path; ``F`` steps span two x-units.

    ``variant`` is ``"large"`` or ``"little"``; the little family has no
    ``F`` step on the axis.  Construction checks the alphabet, the
    variant and then the heights under that variant's rule.
    """

    _fields = ("text", "variant")

    def __init__(self, text: str, variant: str = "large") -> None:
        _check_alphabet(text, _SCHRODER_ALPHABET)
        _walk_heights(text, _SCHRODER_DELTA, _schroder_barred(variant), AxisF)
        self.__dict__.update(text=text, variant=variant)

    def __str__(self) -> str:
        return self.text

    @property
    def half_length(self) -> int:
        """n for a path from (0,0) to (2n,0)."""
        return len(self.text) - self.text.count("D")


def validate_schroder(word: str | SchroderPath, variant: str = "large") -> SchroderPath:
    """Check a Schroeder word under ``variant``, which bars axis flat
    steps when little; an object of that variant is valid already."""
    if isinstance(word, SchroderPath) and word.variant == variant:
        return word
    return SchroderPath(str(word), variant)


# ---------------------------------------------------------------------------
# noncrossing linked partitions


class Arc(NamedTuple):
    """A single arc of a linear representation, drawn left to right."""

    left: int
    right: int


class LinkedPartition(_Frozen):
    """An arc diagram on the vertices 1..n.

    The public constructor accepts any iterable of (left, right) pairs,
    enforces 1 <= left < right <= n and stores them as ``_pairs``, the
    ascending, duplicate-free tuple of (left, -right) pairs that every
    algorithm here reads and ``arcs`` views.  The partition predicates
    (in-degree, noncrossing) are the validators' job, so invalid arc
    sets still build.  Producers whose pairs are canonical and in range
    by construction hand them to :func:`_unchecked` instead.
    """

    _fields = ("n", "arcs")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = frozenset()) -> None:
        n = _vertex(n)
        if n < 1:
            raise PartitionError("a partition needs at least one vertex")
        pairs = tuple(sorted({(_vertex(a), -_vertex(b)) for a, b in arcs}))
        for a, b in pairs:
            if not (1 <= a < -b <= n):
                raise PartitionError(f"arc {(a, -b)} out of range for n={n}")
        self.__dict__.update(n=n, _pairs=pairs)

    @property
    def arcs(self) -> frozenset[Arc]:
        """The arcs as a frozenset of :class:`Arc`, built anew on each
        access in O(A) for A arcs."""
        return frozenset([_new_arc((a, -b)) for a, b in self._pairs])

    def __str__(self) -> str:
        return render_partition(self)

    def _values(self) -> tuple:
        return self.n, self._pairs


def _vertex(v: object) -> int:
    """``v`` as an int, refusing floats, strings and other non-integers."""
    try:
        return index(v)
    except TypeError:
        raise PartitionError(f"vertex {v!r} is not an integer") from None


_first = itemgetter(0)
_second = itemgetter(1)
_new_arc = partial(tuple.__new__, Arc)  # an Arc from a pair, at C speed


def _block_text(n: int, arcs: Sequence[tuple[int, int]]) -> str:
    """Canonical text of the ascending (left, -right) pairs ``arcs`` on
    1..n: walking the vertices down, each takes its arcs off the end of
    the list, or is a singleton if it receives none."""
    receivers = set(map(_second, arcs))  # right ends, negated
    blocks = []
    i = len(arcs)
    for v in range(n, 0, -1):
        j = i
        while i and arcs[i - 1][0] == v:
            i -= 1
        if i < j:
            rights = [str(-b) for _, b in reversed(arcs[i:j])]
            blocks.append("{%d,%s}" % (v, ",".join(rights)))
        elif -v not in receivers:
            blocks.append("{%d}" % v)
    blocks.reverse()
    return "".join(blocks)


def blocks_of(p: LinkedPartition) -> tuple[tuple[int, ...], ...]:
    """Blocks derived from the arcs, sorted by minimum.

    Each vertex with outgoing arcs owns the block {v} + right endpoints;
    arc-free vertices are singleton blocks.  Vertices that only receive
    an arc appear inside their sender's block.
    """
    blocks = render_partition(p)[1:-1].split("}{")
    return tuple(tuple(map(int, block.split(","))) for block in blocks)


def render_partition(p: LinkedPartition) -> str:
    """Canonical text: blocks by increasing minimum, elements ascending;
    the ``_text`` that :func:`gen_ncl` made an object with, else afresh."""
    return p.__dict__.get("_text") or _block_text(p.n, p._pairs)


# The longest prefix of a text that block text can begin with: whole
# blocks, then at most one open block.  A text is block text when this
# matches all of it and it ends by closing a block.
_BLOCK_TEXT = re.compile(r"(?:\{[0-9]+(?:,[0-9]+)*\})*(?:\{(?:[0-9]+,)*[0-9]*)?")
_LABEL = r"([{,])([0-9]+)"  # a label after its "{" or ","; compiled on an error


def parse_partition(text: str) -> LinkedPartition:
    """Read a partition from block text like ``{1,3,4}{2}``.

    Blocks may arrive in any order, and so may the labels in a block,
    with leading zeros allowed.  The family must cover 1..n with no gaps
    and must satisfy the nearly-disjoint rule; redundant presentations
    such as ``{1}{1,2}`` are rejected here.  Crossing arcs are *not*
    rejected here; that is :func:`validate_ncl`'s job.  The first error
    in text order is reported, at its offset.
    """
    n, pairs, _ = _read_blocks(text)
    return _unchecked(LinkedPartition, n=n, _pairs=pairs)


class _BlockMemo(dict):
    """Block text -> its labels, distinct and ascending; emptied past 2^18 chars."""

    chars = 0

    def __missing__(self, part: str) -> tuple[int, ...]:
        if self.chars >= 1 << 18:
            self.clear()
            self.chars = 0
        labels = self[part] = tuple(sorted({*map(int, part.split(","))}))
        self.chars += len(part)
        return labels


def _read_blocks(
    text: str, memo: _BlockMemo | None = None
) -> tuple[int, tuple[tuple[int, int], ...], dict[int, int]]:
    """:func:`parse_partition`'s reading and checks: n, the arcs as
    ascending (left, -right) pairs, and {right: left} of every arc."""
    stop = _BLOCK_TEXT.match(text).end()
    if stop < len(text) or not text.endswith("}"):
        raise _text_error(text, stop)
    parts = text[1:-1].split("}{")
    try:
        if memo is None:
            blocks = [sorted({*map(int, part.split(","))}) for part in parts]
        else:
            blocks = list(map(memo.__getitem__, parts))
    except ValueError:  # past int()'s digit limit, kept against quadratic input
        raise _text_error(text, stop) from None
    written = text.count(",")  # the arcs as written: k labels in a block give k - 1
    minima = set(map(_first, blocks))
    if min(minima) < 1 or sum(map(len, blocks)) < written + len(blocks):
        raise _text_error(text, stop)  # a label 0, or one repeated in its block
    incoming = {v: block[0] for block in blocks for v in block[1:]}
    vertices = minima.union(incoming)
    n = max(vertices)
    if len(vertices) < n:
        missing = next(v for v, w in enumerate(sorted(vertices), 1) if v != w)
        raise PartitionError(f"vertex {missing} missing; blocks must cover 1..{n}")
    blocks.sort()
    # the family is nearly disjoint exactly when no vertex is the minimum
    # of two blocks or a non-minimum (an arc's right end) of two, and no
    # singleton's vertex is a non-minimum elsewhere
    if (
        len(minima) < len(blocks)
        or len(incoming) < written
        or not minima.difference(incoming.values()).isdisjoint(incoming)
    ):
        raise NearlyDisjointViolation(*_first_clash(list(map(tuple, blocks))))
    # the blocks come by minimum, so their arcs ascend as they are made
    pairs = tuple([(block[0], -v) for block in blocks for v in block[:0:-1]])
    return n, pairs, incoming


def _checked_text(
    text: str, memo: _BlockMemo | None = None
) -> tuple[int, tuple[tuple[int, int], ...], dict[int, int]]:
    """:func:`_read_blocks`'s n, pairs and map, once no two arcs cross."""
    n, arcs, incoming = _read_blocks(text, memo)
    _check_crossings(arcs)
    return n, arcs, incoming


def _text_error(text: str, stop: int) -> ParseError:
    """The first error in ``text``, where block text stops matching at
    ``stop``: that of the first label in ``text[:stop]``, a run of whole
    and open blocks, that is past int()'s digit limit, below 1, or
    repeated in its block; else the syntax error at ``stop``."""
    for match in re.finditer(_LABEL, text[:stop]):  # the first opens a block
        if match[1] == "{":
            block = set()
        at = match.start(2)
        try:
            label = int(match[2])
        except ValueError:
            limit = sys.get_int_max_str_digits()
            return ParseError(f"vertex label has more than {limit} digits", at)
        if label < 1:
            return ParseError("vertex labels start at 1", at)
        if label in block:
            return ParseError(f"duplicate label {label} in block", at)
        block.add(label)
    after = text[stop - 1] if stop else "}"
    if after == "}":
        return ParseError("expected '{'", stop)
    if after in "{,":
        return ParseError("expected a vertex label", stop)
    if stop == len(text):
        return ParseError("unterminated block", stop)
    return ParseError("expected ',' or '}'", stop)


def _first_clash(ordered: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The first pair ``ordered[i], ordered[j]``, i < j, that the pairwise
    scan ``not _nearly_disjoint(ordered[i], ordered[j])`` would meet.

    Two blocks clash at a shared vertex unless it is the minimum of one,
    that one not a singleton, and a non-minimum of the other.  So of the
    blocks h0 < h1 < ... that hold a vertex, the first to clash there are
    h0 and the first hj that does not so pair with h0, else h1 and h2.
    """
    holders: dict[int, list[int]] = {}
    for idx, block in enumerate(ordered):
        for v in block:
            holders.setdefault(v, []).append(idx)
    firsts = []
    for v, idxs in holders.items():
        # 1 for the minimum of a non-singleton, 0 for a non-minimum and 2
        # for a singleton: two holders pair exactly when theirs sum to 1
        r0, *roles = [(ordered[i][0] == v) + (len(ordered[i]) == 1) for i in idxs]
        j = next((j for j, r in enumerate(roles, 1) if r0 + r != 1), None)
        if j is not None:
            firsts.append((idxs[0], idxs[j]))
        elif len(idxs) > 2:  # the later holders share a role
            firsts.append((idxs[1], idxs[2]))
    i, j = min(firsts)
    return ordered[i], ordered[j]


def _nearly_disjoint(block_a: tuple[int, ...], block_b: tuple[int, ...]) -> bool:
    # every shared element must be the minimum of exactly one of the two
    # blocks, that block not a singleton
    for k in set(block_a) & set(block_b):
        via_a = k == block_a[0] and len(block_a) > 1 and k != block_b[0]
        via_b = k == block_b[0] and len(block_b) > 1 and k != block_a[0]
        if not (via_a or via_b):
            return False
    return True


def validate_ncl(p: LinkedPartition) -> LinkedPartition:
    """Arc-level acceptance: in-degree at most one, no crossing arcs."""
    _checked_arcs(p)
    return p


def _checked_arcs(p: LinkedPartition) -> dict[int, int]:
    """:func:`validate_ncl`'s checks of ``p._pairs``, returning {right: left}
    of every arc."""
    arcs = p._pairs
    incoming = {-b: a for a, b in arcs}
    if len(incoming) < len(arcs):
        # name the first right end that repeats in sorted arc order: that
        # of the least arc whose right end has an arc from further left
        least = {b: a for a, b in reversed(arcs)}
        raise InDegree(min((a, -b) for a, b in arcs if a > least[b])[1])
    _check_crossings(arcs)
    return incoming


def _check_crossings(arcs: Sequence[tuple[int, int]]) -> list[int]:
    """Raise on the first crossing of the ascending (left, -right) pairs;
    else return each pair's count of the arcs still open over it."""
    # sweep arcs by left endpoint, longest first: the arcs still open
    # over the current left endpoint are nested, innermost on top, so a
    # new arc crosses one of them exactly when it outlasts the top one,
    # and when none does, those open arcs are the ones that contain it
    open_arcs: list[tuple[int, int]] = []
    depths: list[int] = []
    for a, b in arcs:  # b is minus the right end
        while open_arcs and -open_arcs[-1][1] <= a:
            open_arcs.pop()
        if open_arcs and open_arcs[-1][1] > b:
            c, d = open_arcs[-1]
            raise CrossingArcs(Arc(c, -d), Arc(a, -b))
        depths.append(len(open_arcs))
        open_arcs.append((a, b))
    return depths


def validate_ncl_blockwise(p: LinkedPartition) -> LinkedPartition:
    """Block-level acceptance, evaluated literally on the derived blocks.

    Independent of :func:`validate_ncl`; the two agree on every arc set.
    """
    blocks = blocks_of(p)
    for idx, block_a in enumerate(blocks):
        for block_b in blocks[idx + 1 :]:
            if not _nearly_disjoint(block_a, block_b):
                raise NearlyDisjointViolation(block_a, block_b)
            if _blocks_cross(block_a, block_b):
                raise BlockCrossing(block_a, block_b)
    return p


def _blocks_cross(block_a: tuple[int, ...], block_b: tuple[int, ...]) -> bool:
    # blocks cross when i1 < i2 < j1 < j2 with i1,j1 in one and i2,j2 in
    # the other; scan both orientations
    for first, second in ((block_a, block_b), (block_b, block_a)):
        for i1 in first:
            for j1 in first:
                if i1 >= j1:
                    continue
                for i2 in second:
                    for j2 in second:
                        if i2 >= j2:
                            continue
                        if i1 < i2 < j1 < j2:
                            return True
    return False


# ---------------------------------------------------------------------------
# ASCII diagrams

# a path step's glyph: U draws /, x and y draw \, a level step its color
_PATH_GLYPHS = bytes.maketrans(b"Uxy", b"/\\\\")


def render_ascii(obj: MotzkinPath | LinkedPartition) -> str:
    """Deterministic text diagram of a path or a partition."""
    return "\n".join(ascii_rows(obj))


def ascii_rows(obj: MotzkinPath | LinkedPartition) -> Iterator[str]:
    """The rows of :func:`render_ascii`'s diagram, top first, each made
    just before it is yielded."""
    if isinstance(obj, MotzkinPath):
        return _path_rows(obj)
    if isinstance(obj, LinkedPartition):
        arcs = obj._pairs
        try:
            depths = _check_crossings(arcs)
        except CrossingArcs:  # only a caller's own arc set can cross
            depths = _containment_depths(obj.n, arcs)
        return _partition_rows(obj.n, arcs, depths)
    raise TypeError(f"cannot draw {type(obj).__name__}")


def _path_rows(path: MotzkinPath) -> Iterator[str]:
    """Mountain diagram: slopes as ``/`` and ``\\``, levels as their color
    letter at their height, with a dashed axis line."""
    text = path.text
    heights = path.heights()
    glyphs = text.encode().translate(_PATH_GLYPHS)
    # a step's glyph sits in the row of its higher end: file its column there
    marks: list[list[int]] = [[] for _ in range(max(heights, default=0) + 1)]
    for i, (ch, h) in enumerate(zip(text, heights)):
        marks[h + 1 if ch in "xy" else h].append(i)
    for level in range(len(marks) - 1, -1, -1):
        row = bytearray(b" " if level else b"-") * len(text)
        for i in marks[level]:
            row[i] = glyphs[i]
        yield row.rstrip().decode()


def _containment_depths(n: int, arcs: Sequence[tuple[int, int]]) -> list[int]:
    """Each of the ascending (left, -right) pairs' count of the arcs that
    contain it, crossing ones among them: the earlier pairs that end no
    sooner, counted by a Fenwick tree over right ends."""
    ends = [0] * (n + 1)
    depths = []
    for seen, (_, right) in enumerate(arcs):
        shorter = 0
        i = -right - 1
        while i:
            shorter += ends[i]
            i &= i - 1
        depths.append(seen - shorter)
        i = -right
        while i <= n:
            ends[i] += 1
            i += i & -i
    return depths


def _partition_rows(
    n: int, arcs: Sequence[tuple[int, int]], depths: list[int]
) -> Iterator[str]:
    """Arc diagram of the ascending (left, -right) pairs ``arcs`` on 1..n
    above a row of vertex labels: each arc gets the row of its nesting
    depth in ``depths`` (outermost on top), drawn as a ``.--.`` cap with
    ``|`` uprights running down to its endpoints."""
    labels = [str(v) for v in range(1, n + 1)]
    *pos, width = accumulate((len(lab) + 1 for lab in labels), initial=0)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(max(depths, default=-1) + 1)]
    for (left, right), depth in zip(arcs, depths):
        rows[depth].append((pos[left - 1], pos[-right - 1]))
    # each row copies the uprights of the arcs above it, then writes its
    # caps over them in (left, -right) order, so later caps win
    uprights = bytearray(b" " * (width - 1))
    for caps in rows:
        row = uprights[:]
        for lo, hi in caps:
            row[lo : hi + 1] = b"." + b"-" * (hi - lo - 1) + b"."
        yield row.rstrip().decode()
        for lo, hi in caps:
            uprights[lo] = uprights[hi] = ord("|")
    yield " ".join(labels)
