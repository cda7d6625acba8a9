"""The 2-to-1 correspondence between plain and large (3,2)-Motzkin paths.

A plain path of length n-1 plus one bit yields a large path of length n:
either the path has no axis-level color-3 step and the bit appends an
axis level step (color 1 or 2), or the first such step turns into an up
step paired with a new closing down step (color 1 or 2) at the very end.
Every large path arises exactly once; reading the construction off its
last step inverts it.
"""

from __future__ import annotations

from .structures import (
    LargeMotzkinPath,
    MotzkinPath,
    _DELTA,
    _unchecked,
    validate_large,
    validate_motzkin,
)

_AXIS_LEVEL = {0: "a", 1: "b"}
_CLOSING_DOWN = {0: "x", 1: "y"}
_BIT_OF = {"a": 0, "b": 1, "x": 0, "y": 1}


def double(path: MotzkinPath | str, bit: int) -> LargeMotzkinPath:
    """Send a plain path of length n-1 and a bit to a large path of length n."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    text = validate_motzkin(path).text
    h = 0
    for cut, ch in enumerate(text):
        if ch == "c" and h == 0:  # the first axis-level color-3 step
            word = text[:cut] + "U" + text[cut + 1 :] + _CLOSING_DOWN[bit]
            return _unchecked(LargeMotzkinPath, text=word)
        h += _DELTA[ch]
    return _unchecked(LargeMotzkinPath, text=text + _AXIS_LEVEL[bit])


def project(path: LargeMotzkinPath | str) -> tuple[MotzkinPath, int]:
    """Inverse of :func:`double`: recover the plain path and the bit.

    A large path of positive length ends either in an axis level step
    (strip it, read the bit off its color) or in a down step closing the
    final elevated component (reopen that component's up step as an
    axis-level color-3 step, read the bit off the down color).
    """
    text = validate_large(path).text
    if not text:
        raise ValueError("the empty path is not in the image of double")
    last = text[-1]
    if last in "ab":
        return _unchecked(MotzkinPath, text=text[:-1]), _BIT_OF[last]
    # last step closes the final elevated component; walk back to its
    # opening up step, where the height before the step is 0 again
    h = 0
    for opening in range(len(text) - 1, -1, -1):
        h -= _DELTA[text[opening]]
        if h == 0:
            break
    word = text[:opening] + "c" + text[opening + 1 : -1]
    return _unchecked(MotzkinPath, text=word), _BIT_OF[last]
