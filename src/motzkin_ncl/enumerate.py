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

The partition stream is a depth-first walk of the same kind, over the
canonical text itself.  The text is cut into tokens, each ending in a
delimiter: ``"{w,"`` or ``"{w}"`` opens the block whose minimum is w,
``"e,"`` or ``"e}"`` adds the element e to the open block (an arc from
its minimum to e).  Because every token ends in ``,`` or ``}`` and those
never appear inside a label, no token is a prefix of another, so two
texts compare as their first differing tokens do.  Trying the feasible
tokens in string order therefore yields the texts in string order, also
once labels have several digits and ``"{1,10" < "{1,2"``.

A vertex is taken once it is the right end of an arc.  After the block
of v closes, let u be the first untaken vertex after v: the next block
is ``"{u}"``, ``"{u,"`` when u + 1 is untaken, or ``"{u-1,"`` when u - 1
is a taken vertex after v; the taken vertices in between are skipped,
and nothing else may be.  With no untaken vertex left, the partition is
complete.  Earlier arcs start left of w, so an arc (w, e) crosses one
exactly when that arc ends between w and e; hence the elements of w's
block are the untaken vertices below the first taken vertex after w,
and ``"e,"`` is feasible only when e + 1 is one of them too.  So every
feasible prefix completes, the walk never backtracks out of a dead end,
and it never consults the bijection.

>>> [str(q) for q in gen_ncl(3)]
['{1,2,3}', '{1,2}{2,3}', '{1,2}{3}', '{1,3}{2}', '{1}{2,3}', '{1}{2}{3}']
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .structures import (
    LargeMotzkinPath,
    LinkedPartition,
    MotzkinPath,
    SchroderPath,
    _DELTA,
    _SCHRODER_DELTA,
    _schroder_barred,
    _unchecked,
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

    @cache
    def steps_from(h: int, r: int) -> tuple[tuple[str, int, int], ...]:
        """The feasible letters at height h with r units left, each with
        the height and units left after it."""
        return tuple(
            (ch, h + delta[ch], r - width[ch])
            for ch in letters
            if 0 <= h + delta[ch] <= r - width[ch]
            and not (h == 0 and ch == barred)
        )

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


# a partition step: (token, vertex, whether the token closes the block)
_Step = tuple[str, int, bool]


def gen_ncl(n: int) -> Iterator[LinkedPartition]:
    """All noncrossing linked partitions of {1..n}, in canonical text
    order, independent of the path bijection.  Each is made when it is
    yielded; the walk holds only the current text prefix and its tables
    of feasible steps.

    The walk emits the text token by token, ``"{w,"``/``"{w}"`` to open
    a block and ``"e,"``/``"e}"`` for its next element, trying feasible
    tokens in string order.  Every token ends in a delimiter, so none is
    a prefix of another and depth-first order is string order, also for
    multi-digit labels (see the module docstring).
    """
    if n < 1:
        raise ValueError("partitions need at least one vertex")

    @cache
    def opening_steps(u: int, after_taken: bool) -> tuple[_Step, ...]:
        """The next block once u is the first untaken vertex after the
        last block's minimum v, in token order; ``after_taken`` says that
        u - 1 is a taken vertex after v."""
        steps = [("{%d," % u, u, False), ("{%d}" % u, u, True)]
        if after_taken:
            steps.append(("{%d," % (u - 1), u - 1, False))
        return tuple(sorted(steps))

    @cache
    def element_steps(lo: int, hi: int) -> tuple[_Step, ...]:
        """The steps that add one of lo..hi-1 to the open block, in token
        order."""
        return tuple(sorted(
            (f"{e}{end}", e, end == "}") for e in range(lo, hi) for end in ",}"
        ))

    tokens: list[str] = []
    arcs: list[tuple[int, int]] = []  # (left, -right) pairs, in text order
    # a frame: the steps left to try, the open block's minimum, the bound
    # its elements stay below, and the bitmask of the taken vertices
    stack = [(iter(opening_steps(1, False)), 0, n + 1, 0)]
    while stack:
        steps, v, bound, taken = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            if tokens and tokens.pop()[0] != "{":  # the token added an arc
                arcs.pop()
            continue
        token, w, closes = step
        if not closes and w + 1 == bound:  # no element could follow w
            continue
        if token[0] == "{":
            v = w
        else:
            arcs.append((v, -w))
            taken |= 1 << w
        tokens.append(token)
        if not closes:
            stack.append((iter(element_steps(w + 1, bound)), v, bound, taken))
            continue
        free = ~taken >> (v + 1)
        u = v + (free & -free).bit_length()  # the first untaken vertex after v
        if u > n:
            text = "".join(tokens)
            pairs = tuple(sorted(arcs))
            yield _unchecked(LinkedPartition, n=n, _pairs=pairs, _text=text)
            stack.append((iter(()), v, bound, taken))  # pops the last token
            continue
        above = taken >> (u + 1)  # the first taken vertex after u bounds u's block
        bound = u + (above & -above).bit_length() if above else n + 1
        stack.append((iter(opening_steps(u, u - 1 > v)), v, bound, taken))
