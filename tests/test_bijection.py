"""The path <-> partition bijection, case by case and exhaustively."""

import hashlib
import os
import random
import subprocess
import sys
from itertools import chain
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import example, given, strategies as st

import motzkin_ncl.bijection
import motzkin_ncl.decompose
import motzkin_ncl.structures
from motzkin_ncl import (
    Arc,
    CaseTag,
    InDegree,
    LinkedPartition,
    StructureError,
    classify_component,
    gen_large,
    gen_ncl,
    parse_partition,
    partition_to_path,
    path_to_partition,
    render_partition,
    validate_large,
    validate_ncl,
)
from motzkin_ncl.bijection import _phi_arcs
from motzkin_ncl.structures import (
    AxisL3,
    LargeMotzkinPath,
    NegativeHeight,
    NonzeroFinalHeight,
    _block_text,
    _unchecked,
)
from test_structures import _joined_blocks_text, block_texts

# every base case and one representative of each elevated case
KNOWN_PAIRS = [
    ("", "{1}"),
    ("a", "{1,2}"),
    ("b", "{1}{2}"),
    ("Ux", "{1,2,3}"),
    ("Uy", "{1,3}{2}"),
    ("Ucx", "{1,2,4}{2,3}"),
    ("Ucy", "{1,4}{2,3}"),
    ("Uax", "{1,2,3,4}"),
    ("Uay", "{1,2,4}{3}"),
    ("Ubx", "{1,3,4}{2}"),
    ("Uby", "{1,4}{2}{3}"),
    ("aa", "{1,2}{2,3}"),
    ("ab", "{1,2}{3}"),
    ("ba", "{1}{2,3}"),
    ("Uccx", "{1,2,5}{2,3}{3,4}"),
    ("Uccy", "{1,5}{2,3}{3,4}"),
    ("Ucay", "{1,5}{2,3,4}"),
    ("Uacy", "{1,2,5}{3,4}"),
    ("UbxUbUxcUycy", "{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}"),
]


class TestForward:
    @pytest.mark.parametrize("path,partition", KNOWN_PAIRS)
    def test_known_pairs(self, path, partition):
        assert render_partition(path_to_partition(path)) == partition

    def test_accepts_path_objects(self):
        p = path_to_partition(validate_large("Ux"))
        assert render_partition(p) == "{1,2,3}"

    def test_rejects_invalid_words(self):
        # validate_large is φ's one check, and names each word's first fault
        for word, error in [
            ("c", AxisL3),
            ("U", NonzeroFinalHeight),
            ("x", NegativeHeight),
            ("xU", NegativeHeight),
            ("aUUx", NonzeroFinalHeight),
            ("Uxx", NegativeHeight),
        ]:
            with pytest.raises(error) as info:
                path_to_partition(word)
            assert type(info.value) is error, word

    def test_length_maps_to_vertex_count(self):
        for n in range(6):
            for path in gen_large(n):
                assert path_to_partition(path).n == n + 1

    @pytest.mark.parametrize(
        "word", ["U" * 50 + "x" * 50, "Ucx" * 50], ids=["nested", "chain"]
    )
    def test_builds_one_partition(self, word, monkeypatch):
        built = []
        unchecked = motzkin_ncl.bijection._unchecked

        def counting(cls, **fields):
            built.append(cls)
            return unchecked(cls, **fields)

        monkeypatch.setattr(motzkin_ncl.bijection, "_unchecked", counting)
        assert path_to_partition(word).n == len(word) + 1
        assert built == [LinkedPartition]


# phi pointwise, as the recursive map makes it: for each n the SHA-256 of
# render_partition(phi(p)) over gen_large(n), one image per line, so a
# rewrite of phi must give every image back, not just a bijection
PHI_IMAGE_DIGESTS = {
    0: "cd80994abb0d1e0465acdc560717676578c1774f461babbe67b4b131497a6305",
    1: "b0dbe372ab04e06e53533330d88741876493b5898501888b579a28ca5f3b1672",
    2: "d4284dca511cda687421c40d5f50608926d1e6cf8293a432c84dba47c6a380a1",
    3: "d16df5392f9adfd7df600b3b57e6f156824aae8977e3043d7fcfd670295080b5",
    4: "7840fab2d764c8e9860068049b04d74b2877277a5bfa96d5d3b6750b35e390f1",
    5: "efd62b00b5a04e4d1f39407bb685efa9811132c6b59b4af23f509fed2e31cf6a",
    6: "578f02cd3a79018128004d0e4cac4218ba337b56901bf5d0c753d17fb2ae630f",
    7: "265f1b5892184c101fa1c198c4b9ed45c16757ec4002f67217ea8c4e2dcad4f8",
    8: "4f34f7a1547424c002a2a195f0b8c50cd3622ddbdacba7f926c8ca1f149cabce",
}

# images of deep shapes written out: a nest, b-levels inside a nest, a
# chain of Ucx on the axis, and two Ucy side by side inside a nest
PINNED_IMAGES = [
    ("UUUxxx", "{1,2,3,4,5,6,7}"),
    ("UUUbbbyyy", "{1,6,8,10}{2}{3}{4}{5}{7}{9}"),
    ("UcxUcxUcx", "{1,2,4}{2,3}{4,5,7}{5,6}{7,8,10}{8,9}"),
    ("UUcyUcyx", "{1,4,8,9}{2,3}{4,7}{5,6}"),
]


class TestPinnedImages:
    @pytest.mark.parametrize("n", sorted(PHI_IMAGE_DIGESTS))
    def test_every_image_up_to_length_8(self, n):
        images = "\n".join(render_partition(path_to_partition(p)) for p in gen_large(n))
        assert hashlib.sha256(images.encode()).hexdigest() == PHI_IMAGE_DIGESTS[n]

    @pytest.mark.parametrize("path,partition", PINNED_IMAGES)
    def test_deep_shapes(self, path, partition):
        assert render_partition(path_to_partition(path)) == partition
        assert partition_to_path(partition).text == path


class TestInverse:
    @pytest.mark.parametrize("path,partition", KNOWN_PAIRS)
    def test_known_pairs(self, path, partition):
        assert partition_to_path(partition).text == path

    def test_accepts_partition_objects(self):
        p = parse_partition("{1,3}{2}")
        assert partition_to_path(p).text == "Uy"

    def test_rejects_crossing_input(self):
        with pytest.raises(ValueError):
            partition_to_path("{1,3}{2,4}")

    @pytest.mark.parametrize(
        "word", ["U" * 100 + "x" * 100, "Ucx" * 200], ids=["nested", "chain"]
    )
    def test_validates_once(self, word, monkeypatch):
        # φ⁻¹ cuts ranges of an already valid partition; its one check is
        # the validating sweep, which also hands it the sorted arcs
        calls = []
        sweep = motzkin_ncl.bijection._checked_arcs

        def counting(p):
            calls.append(p.n)
            return sweep(p)

        monkeypatch.setattr(motzkin_ncl.bijection, "_checked_arcs", counting)
        q = path_to_partition(word)
        assert partition_to_path(q).text == word
        assert calls == [q.n]

    @pytest.mark.parametrize(
        "word", ["U" * 100 + "x" * 100, "Ucx" * 200], ids=["nested", "chain"]
    )
    def test_sorts_once(self, word, monkeypatch):
        # not even once: a partition stores its arcs as the ascending
        # pairs that the validating sweep reads and φ⁻¹ cuts
        q = path_to_partition(word)
        calls = []

        def counting(*args, **kwargs):
            items = sorted(*args, **kwargs)
            calls.append(len(items))
            return items

        modules = (motzkin_ncl.structures, motzkin_ncl.bijection, motzkin_ncl.decompose)
        for module in modules:
            monkeypatch.setattr(module, "sorted", counting, raising=False)
        assert partition_to_path(q).text == word
        assert calls == []

    @pytest.mark.parametrize(
        "word", ["U" * 50 + "x" * 50, "Ucx" * 50], ids=["nested", "chain"]
    )
    def test_builds_no_partition(self, word, monkeypatch):
        # every builder of the package, checked or not, is watched: φ⁻¹
        # cuts its one sorted arc list and builds only the path it returns
        q = path_to_partition(word)
        built = []
        unchecked = motzkin_ncl.structures._unchecked

        def counting(cls, **fields):
            built.append(cls)
            return unchecked(cls, **fields)

        for name, module in list(sys.modules.items()):
            if name.startswith("motzkin_ncl."):
                if getattr(module, "_unchecked", None) is unchecked:
                    monkeypatch.setattr(module, "_unchecked", counting)
        init = LinkedPartition.__init__

        def checked(self, *args, **kwargs):
            built.append(LinkedPartition)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinkedPartition, "__init__", checked)
        assert partition_to_path(q).text == word
        assert built == [LargeMotzkinPath]

    @pytest.mark.parametrize(
        "word", ["U" * 100 + "x" * 100, "Ucx" * 200], ids=["nested", "chain"]
    )
    def test_text_sorts_each_block_and_builds_only_the_path(self, word, monkeypatch):
        # the text twin of the two tests above: block text lists its arcs
        # in the order φ⁻¹ cuts them, so the only sorts are the reader's,
        # one per block, and no partition is built on the way
        text = render_partition(path_to_partition(word))
        calls = []

        def counting(*args, **kwargs):
            items = sorted(*args, **kwargs)
            calls.append(len(items))
            return items

        modules = (motzkin_ncl.structures, motzkin_ncl.bijection, motzkin_ncl.decompose)
        for module in modules:
            monkeypatch.setattr(module, "sorted", counting, raising=False)
        built = watch_builds(monkeypatch)
        assert partition_to_path(text).text == word
        assert built == [LargeMotzkinPath]
        # one sort per block, of its labels: no list of arcs is sorted
        assert calls == [block.count(",") + 1 for block in text[1:-1].split("}{")]

    @given(block_texts())
    @example("{11,12}{9}{10,8,11}{5,7,6}{13,04}{2}{4,3,1}")
    def test_text_reads_as_its_parsed_partition(self, text):
        # the same word, or the same error class and message, whether φ⁻¹
        # reads the text or the partition parsed from it
        def outcome(read):
            try:
                return read().text
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(lambda: partition_to_path(text)) == outcome(
            lambda: partition_to_path(parse_partition(text))
        )


def watch_builds(monkeypatch) -> list[type]:
    """Watch every builder of the package, checked or not, and return the
    list of the classes built from here on."""
    built = []
    unchecked = motzkin_ncl.structures._unchecked

    def counting(cls, **fields):
        built.append(cls)
        return unchecked(cls, **fields)

    for name, module in list(sys.modules.items()):
        if name.startswith("motzkin_ncl."):
            if getattr(module, "_unchecked", None) is unchecked:
                monkeypatch.setattr(module, "_unchecked", counting)
    init = LinkedPartition.__init__

    def checked(self, *args, **kwargs):
        built.append(LinkedPartition)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinkedPartition, "__init__", checked)
    return built


TOO_DEEP = "input nests too deeply for the recursive maps"
DEEP_WORD = "U" * 2000 + "x" * 2000
DEEP_BLOCK = "{" + ",".join(map(str, range(1, 4002))) + "}"  # DEEP_WORD's image


# the first k at which φ fails on U^k x^k at a given recursion limit, in a
# fresh interpreter
FIRST_FAILING = """
import sys
from motzkin_ncl import path_to_partition

TOO_DEEP = "input nests too deeply for the recursive maps"


def fails(k):
    try:
        path_to_partition("U" * k + "x" * k)
    except ValueError as exc:
        assert str(exc) == TOO_DEEP, exc
        return True
    return False


limit = int(sys.argv[1])
sys.setrecursionlimit(limit)
lo, hi = 1, limit  # each level takes more than one frame: hi fails
while lo < hi:
    mid = (lo + hi) // 2
    if fails(mid):
        hi = mid
    else:
        lo = mid + 1
print(lo)
"""


def _first_failing(limit: int) -> int:
    src = str(Path(motzkin_ncl.bijection.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_FAILING, str(limit)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


class TestDepth:
    # φ recurses once per nesting level; past the recursion limit it raises
    # a ValueError of its own, not the RecursionError.  φ⁻¹ works on an
    # explicit stack and reads any depth
    def test_forward(self):
        with pytest.raises(ValueError) as info:
            path_to_partition(DEEP_WORD)
        assert type(info.value) is ValueError and str(info.value) == TOO_DEEP
        assert render_partition(path_to_partition("UUxx")) == "{1,2,3,4,5}"

    @pytest.mark.parametrize("parsed", [False, True], ids=["text", "object"])
    def test_inverse(self, parsed):
        block = parse_partition(DEEP_BLOCK) if parsed else DEEP_BLOCK
        assert partition_to_path(block).text == DEEP_WORD

    def test_inverse_of_a_block_of_100001_vertices(self):
        # 50000 levels, at the default recursion limit
        k = 50_000
        block = LinkedPartition(2 * k + 1, [(1, v) for v in range(2, 2 * k + 2)])
        assert partition_to_path(block).text == "U" * k + "x" * k

    def test_deep_word_maps_to_one_block(self):
        assert render_partition(path_to_partition("U" * 20 + "x" * 20)) == (
            "{" + ",".join(map(str, range(1, 42))) + "}"
        )

    def test_frames_per_nesting_level(self):
        # _word_arcs -> its comprehension -> _component_arcs -> _word_arcs;
        # Python 3.12 inlines comprehensions, one frame less (as measured on
        # 3.10.13, 3.11.7, 3.12.1 and 3.13.0); the README's table of the
        # first failing k rests on this count
        low, high = _first_failing(400), _first_failing(700)
        expected = 2 if sys.version_info >= (3, 12) else 3
        assert 300 / (high - low) == expected


class TestClassify:
    @pytest.mark.parametrize(
        "text,tag",
        [
            ("{1,2}", CaseTag.LEVEL1),
            ("{1}{2}", CaseTag.LEVEL2),
            ("{1,2,3}", CaseTag.UD1_PLAIN),
            ("{1,2,4}{2,3}", CaseTag.UD1_CHAIN),
            ("{1,4}{2,3}", CaseTag.UD2_CHAIN),
            ("{1,2,4}{3}", CaseTag.UD2_PLAIN),
            ("{1,3}{2}", CaseTag.UD2_PLAIN),
            ("{1,5}{2,3}{3,4}", CaseTag.UD2_CHAIN),
        ],
    )
    def test_component_tags(self, text, tag):
        assert classify_component(parse_partition(text)) is tag

    def test_missing_outer_arc_is_structural(self):
        with pytest.raises(StructureError):
            classify_component(LinkedPartition(3, [(1, 2)]))

    def test_every_generated_component_classifies(self):
        # classification is total on components of images
        for n in range(1, 7):
            for path in gen_large(n):
                p = path_to_partition(path)
                for comp in outer_decompose(p):
                    assert classify_component(comp) in CaseTag


# The recursive forward map as first written, case by case, kept verbatim
# as a pointwise oracle for shapes past the pinned digests, with the text
# cuts it was written on: each rescans its word at every nesting level.


def factor_components(text: str) -> tuple[str, ...]:
    """Cut a large word at its returns to the axis."""
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
    """Split a valid Motzkin word at every axis-level color-3 step."""
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
    return LinkedPartition(offset + 1, arcs)


def _word_partition(word: str) -> LinkedPartition:
    components = factor_components(word)
    if not components:
        return LinkedPartition(1)
    return concat_merge([_component_partition(c) for c in components])


def _component_partition(component: str) -> LinkedPartition:
    if component == "a":
        return LinkedPartition(2, [Arc(1, 2)])
    if component == "b":
        return LinkedPartition(2)
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
    return LinkedPartition(p + 1, arcs)


def _tied_segment(segment: str) -> LinkedPartition:
    """A segment's partition plus the arc tying vertex 1 one past its end."""
    base = _word_partition(segment)
    end = base.n + 1
    return LinkedPartition(end, base.arcs | {Arc(1, end)})


# The partition cuts as the four-case inverse was written on: each piece
# a partition of its own, relabelled to start at 1, so the oracle shares
# no cut with the inverse under test.


def restrict_partition(p: LinkedPartition, lo: int, hi: int) -> LinkedPartition:
    """Arcs lying inside [lo, hi], relabeled to 1..hi-lo+1."""
    inside = [arc for arc in sorted(p.arcs) if lo <= arc[0] and arc[1] <= hi]
    return _relabeled(inside, lo, hi)


def outer_decompose(p: LinkedPartition) -> tuple[LinkedPartition, ...]:
    """Cut a valid partition at its uncovered vertices, each component
    relabeled to start at 1."""
    arcs = sorted(p.arcs)
    components = []
    start = reach = 1  # reach == start: no component is open
    first = 0  # the open component's first arc
    for i, (a, b) in enumerate(chain(arcs, [(p.n, p.n)])):
        if a >= reach:
            if reach > start:
                components.append(_relabeled(arcs[first:i], start, reach))
            components += [_relabeled([], v, v + 1) for v in range(reach, a)]
            start, first = a, i
        if b > reach:
            reach = b
    return tuple(components)


def _relabeled(arcs, lo: int, hi: int) -> LinkedPartition:
    """The partition on 1..hi-lo+1 of arcs that lie inside [lo, hi]."""
    shift = lo - 1
    shifted = frozenset(Arc(a - shift, b - shift) for a, b in arcs)
    return LinkedPartition(hi - lo + 1, shifted)


_DELTA = {"U": 1, "a": 0, "b": 0, "c": 0, "x": -1, "y": -1}


def _large_word(choose, length: int) -> str:
    """A large word of the given length, one feasible step at a time;
    ``choose`` picks a step from a list of candidates."""
    chars = []
    h = 0
    for i in range(length):
        remaining = length - i
        options = []
        if h + 1 <= remaining - 1:
            options.append("U")
        if h <= remaining - 1:
            options += "abc" if h > 0 else "ab"
        if h >= 1:
            options += "xy"
        chars.append(choose(options))
        h += _DELTA[chars[-1]]
    return "".join(chars)


@st.composite
def large_words(draw, max_len=60):
    length = draw(st.integers(0, max_len))
    return _large_word(lambda options: draw(st.sampled_from(options)), length)


def _shape_words():
    yield from ("U" * k + "x" * k for k in range(121))
    yield from ("U" * k + "b" * k + "y" * k for k in range(121))
    yield from ("Ucx" * k for k in range(201))
    yield from ("U" + "Ucy" * k + "x" for k in range(201))
    # chains deep inside nests: each c, and its segments, at level k or k + 1
    for k in range(0, 121, 8):
        yield "U" * k + "Ucy" * k + "x" * k
        yield "U" * k + "ac" * k + "y" * k
        yield "U" * k + "b" * k + "Ucx" * k + "y" * k


def _random_words():
    rng = random.Random(14)
    return [_large_word(rng.choice, rng.randint(64, 384)) for _ in range(60)]


class TestOracle:
    # the one-rule phi gives the four-case phi's image, arc for arc
    @given(large_words())
    def test_large_words_up_to_length_60(self, word):
        assert path_to_partition(word) == _word_partition(word)

    def test_deep_and_chain_shapes(self):
        for word in _shape_words():
            assert path_to_partition(word) == _word_partition(word), word

    def test_seeded_random_paths(self):
        for word in _random_words():
            assert path_to_partition(word) == _word_partition(word), word

    def test_nests_up_to_300_levels(self):
        # k = 300 stays under the first failing k of φ and of this oracle,
        # inside pytest, on every Python version
        for k in range(125, 301, 5):
            for word in ("U" * k + "x" * k, "U" * k + "b" * k + "y" * k):
                assert path_to_partition(word) == _word_partition(word), word


def _check_phi_arcs(word: str) -> None:
    pairs = _phi_arcs(word)
    assert all(x < y for x, y in zip(pairs, pairs[1:])), word
    p = LinkedPartition(len(word) + 1, [(a, -b) for a, b in pairs])
    assert _block_text(len(word) + 1, pairs) == _joined_blocks_text(p), word


class TestPhiArcs:
    # φ lays its (left, -right) pairs out strictly ascending, so map --phi
    # writes them as block text with no sort, as the vertex-loop oracle does
    @pytest.mark.parametrize("n", range(9))
    def test_every_path_up_to_length_8(self, n):
        for path in gen_large(n):
            _check_phi_arcs(path.text)

    def test_deep_and_chain_shapes(self):
        for word in _shape_words():
            _check_phi_arcs(word)


def _counted(base, work):
    """A subclass of ``base`` that adds the items read out of it to work[0]."""

    class Counted(base):
        def __getitem__(self, key):
            got = super().__getitem__(key)
            work[0] += len(got) if isinstance(key, slice) else 1
            return got

        def __iter__(self):
            work[0] += len(self)
            return super().__iter__()

    return Counted


class TestForwardWork:
    # φ reads each letter and each entry of its table O(1) times: the table
    # pass reads every letter once and each cut reads one letter and one
    # entry per piece, where a cut that rescans its range reads a letter
    # once per level above it
    @pytest.mark.parametrize(
        "word",
        [
            "U" * 300 + "x" * 300,
            "U" * 300 + "b" * 300 + "y" * 300,
            "U" + "Ucy" * 300 + "x",
        ],
        ids=["nest", "b-nest", "chain"],
    )
    def test_reads_each_letter_a_bounded_number_of_times(self, word, monkeypatch):
        image = path_to_partition(word)
        work = [0]
        ends = motzkin_ncl.bijection.component_ends
        monkeypatch.setattr(
            motzkin_ncl.bijection,
            "component_ends",
            lambda text: _counted(list, work)(ends(text)),
        )
        text = _counted(str, work)(word)
        assert path_to_partition(_unchecked(LargeMotzkinPath, text=text)) == image
        assert work[0] <= 5 * len(word)


# The inverse map as it read components before the one rule: classify into
# a CaseTag, then peel or walk back per case.  Kept verbatim as a pointwise
# oracle for the one-rule inverse.


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


class TestInverseOracle:
    # the one-rule inverse reads the four-case inverse's word, letter for
    # letter, on the same shapes as TestOracle
    @given(large_words())
    def test_images_of_large_words_up_to_length_60(self, word):
        q = path_to_partition(word)
        assert partition_to_path(q).text == _partition_word(q)

    def test_images_of_deep_and_chain_shapes(self):
        for word in _shape_words():
            q = path_to_partition(word)
            assert partition_to_path(q).text == _partition_word(q), word

    def test_images_of_seeded_random_paths(self):
        for word in _random_words():
            q = path_to_partition(word)
            assert partition_to_path(q).text == _partition_word(q), word


# the README's worked partition, then one component of each chain case:
# their words, and the tags the four-case inverse dispatched on
CHAIN_CASES = pytest.mark.parametrize(
    "partition,word,tags",
    [
        (
            "{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}",
            "UbxUbUxcUycy",
            [CaseTag.UD1_PLAIN, CaseTag.UD2_CHAIN],
        ),
        ("{1,2,3,9}{3,5}{4}{5,6,7,8}", "UacbcUxx", [CaseTag.UD1_CHAIN]),
        ("{1,9}{2}{3,4,5}{5,6,7,8}", "UbcacUxy", [CaseTag.UD2_CHAIN]),
    ],
    ids=["readme", "x-chain", "y-chain"],
)


class TestInverseWork:
    @CHAIN_CASES
    def test_reads_components_without_classifying(self, partition, word, tags, monkeypatch):
        q = parse_partition(partition)
        assert render_partition(path_to_partition(word)) == partition
        assert [classify_component(c) for c in outer_decompose(q)] == tags

        def refuse(component):
            raise AssertionError("the maps read components by one rule")

        monkeypatch.setattr(motzkin_ncl.bijection, "classify_component", refuse)
        assert partition_to_path(q).text == word
        assert partition_to_path(partition).text == word

    # a chain of k segments inside one nest, of two vertices and of three; a
    # nest of k levels (DEEP_WORD, whose image is one block); and a nest
    # whose every level ends in a level step, so each level's first
    # component holds all the arcs of the levels below it
    @pytest.mark.parametrize(
        "word",
        [
            "U" + "ac" * 2000 + "x",
            "U" + "Uxc" * 2000 + "x",
            DEEP_WORD,
            "U" * 250 + "ax" * 250,
        ],
        ids=["ac", "Uxc", "nest", "ax-nest"],
    )
    def test_reads_the_arc_list_a_bounded_number_of_times(self, word, monkeypatch):
        # counts the reads of every arc list that reaches the cuts, bisection
        # probes included: φ⁻¹ cuts with O(1) bisections of its one list per
        # letter, where cuts that hand each level the arcs inside it, or
        # scan them, read about 2k² arcs of the nest, and a cut that steps
        # from component to component by a linear search reads every level's
        # first component again at each level above it
        q = parse_partition(DEEP_BLOCK) if word == DEEP_WORD else path_to_partition(word)
        work = [0]
        counted = {}  # id -> (the list, its counting copy)

        def reading(cut):
            def cut_counted(arcs, *rest):
                if id(arcs) not in counted:
                    counted[id(arcs)] = (arcs, _counted(list, work)(arcs))
                return cut(counted[id(arcs)][1], *rest)

            return cut_counted

        bijection = motzkin_ncl.bijection
        for name in ("restrict_partition", "outer_decompose"):
            monkeypatch.setattr(bijection, name, reading(getattr(bijection, name)))
        assert partition_to_path(q).text == word
        assert work[0] <= len(q.arcs).bit_length() * len(word)


def _refuse_arcs_view(monkeypatch):
    def refuse(p):
        raise AssertionError("the library reads a partition's stored pairs")

    monkeypatch.setattr(LinkedPartition, "arcs", property(refuse))


class TestLibraryArcsView:
    # the library twin of test_cli's TestArcsView: the frozenset of Arc
    # that the arcs view builds is for callers, and no partition code of
    # the library reads it
    @pytest.mark.parametrize(
        "word",
        ["UbxUbUxcUycy", "U" * 300 + "x" * 300, "Ucx" * 300],
        ids=["readme", "nest", "chain"],
    )
    def test_inverse_of_an_object(self, word, monkeypatch):
        q = path_to_partition(word)
        _refuse_arcs_view(monkeypatch)
        assert partition_to_path(q).text == word

    def test_validator_names_the_first_repeat_in_sorted_order(self, monkeypatch):
        # every arc set on 5 vertices with a vertex of in-degree two, among
        # them {(1,5),(2,4),(2,5),(3,4)}: 5 repeats first in sorted order,
        # though 4 is the least vertex that repeats
        pairs = [(a, b) for b in range(2, 6) for a in range(1, b)]
        named = []
        for mask in range(1 << len(pairs)):
            arcs = sorted(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            rights = [b for _, b in arcs]
            repeats = [b for i, b in enumerate(rights) if b in rights[:i]]
            if repeats:
                named.append((LinkedPartition(5, arcs), repeats[0]))
        assert (LinkedPartition(5, [(1, 5), (2, 4), (2, 5), (3, 4)]), 5) in named
        _refuse_arcs_view(monkeypatch)
        for p, vertex in named:
            with pytest.raises(InDegree) as info:
                validate_ncl(p)
            assert info.value.vertex == vertex

    @CHAIN_CASES
    def test_classifies_components(self, partition, word, tags, monkeypatch):
        components = outer_decompose(parse_partition(partition))
        _refuse_arcs_view(monkeypatch)
        assert [classify_component(c) for c in components] == tags

    def test_arc_reachable(self, monkeypatch):
        chain, nest = parse_partition("{1,2}{2,3}"), parse_partition("{1,4}{2,3}")
        _refuse_arcs_view(monkeypatch)
        reachable = motzkin_ncl.decompose.arc_reachable
        assert reachable(chain, 3, 1) and reachable(nest, 1, 4)
        assert not reachable(nest, 1, 3)


class TestExhaustive:
    @pytest.mark.parametrize("n", range(7))
    def test_bijective_onto_generated_partitions(self, n):
        image = [render_partition(path_to_partition(p)) for p in gen_large(n)]
        assert len(set(image)) == len(image)
        assert set(image) == {render_partition(q) for q in gen_ncl(n + 1)}

    @pytest.mark.parametrize("n", range(7))
    def test_round_trips(self, n):
        for path in gen_large(n):
            assert partition_to_path(path_to_partition(path)) == path
        for q in gen_ncl(n + 1):
            assert path_to_partition(partition_to_path(q)) == q
