"""Randomized properties over feasible words and arc sets."""

from itertools import accumulate, combinations

from hypothesis import given, settings, strategies as st

from motzkin_ncl import (
    LinkedPartition,
    blocks_of,
    double,
    gen_large,
    parse_partition,
    partition_to_path,
    path_to_partition,
    project,
    render_partition,
    validate_large,
    validate_ncl,
    validate_ncl_blockwise,
)
from motzkin_ncl.decompose import (
    component_ends,
    factor_components,
    outer_decompose,
    restrict_partition,
    split_axis_l3,
)

DELTA = {"U": 1, "a": 0, "b": 0, "c": 0, "x": -1, "y": -1}


@st.composite
def motzkin_words(draw, max_len=12, large=True):
    """A feasible colored Motzkin word built step by step."""
    length = draw(st.integers(0, max_len))
    chars = []
    h = 0
    for i in range(length):
        remaining = length - i
        options = []
        if h + 1 <= remaining - 1:
            options.append("U")
        if h <= remaining - 1:
            options.extend("ab")
            if h > 0 or not large:
                options.append("c")
        if h >= 1:
            options.extend("xy")
        chars.append(draw(st.sampled_from(options)))
        h += DELTA[chars[-1]]
    return "".join(chars)


@st.composite
def arc_sets(draw, max_n=7):
    """Any arc subset on [n], valid or not."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return LinkedPartition(n, chosen)


class TestBijectionProperties:
    @given(motzkin_words())
    def test_round_trip_from_paths(self, word):
        path = validate_large(word)
        assert partition_to_path(path_to_partition(path)) == path

    @given(motzkin_words())
    def test_image_is_a_valid_partition(self, word):
        p = path_to_partition(word)
        assert p.n == len(word) + 1
        validate_ncl(p)
        validate_ncl_blockwise(p)

    @given(motzkin_words())
    def test_partition_text_round_trips(self, word):
        p = path_to_partition(word)
        assert parse_partition(render_partition(p)) == p

    @given(motzkin_words())
    def test_blocks_cover_every_vertex(self, word):
        p = path_to_partition(word)
        covered = set()
        for block in blocks_of(p):
            covered.update(block)
        assert covered == set(range(1, p.n + 1))


class TestArcCount:
    # one arc per non-minimal element: the vertices with no incoming arc
    # are vertex 1 and one per b and y step, so every U, a, c and x step
    # gives its image exactly one arc
    @given(motzkin_words(max_len=60))
    def test_one_arc_per_u_a_c_x_step(self, word):
        arcs = path_to_partition(word).arcs
        assert len(arcs) == sum(map(word.count, "Uacx"))


def uncovered_vertices(p):
    """How many vertices of ``p`` lie strictly inside no arc, by a
    difference array over the stored pairs."""
    cover = [0] * (p.n + 2)
    for a, b in p._pairs:  # b is minus the right end
        cover[a + 1] += 1
        cover[-b] -= 1
    return list(accumulate(cover[1 : p.n + 1])).count(0)


class TestUncoveredVertices:
    # the vertices of φ(w) under no arc are vertex 1 and one per step of w
    # that ends on the axis; the outer decomposition cuts at them
    @staticmethod
    def check(word):
        p = path_to_partition(word)
        returns = list(accumulate(DELTA[ch] for ch in word)).count(0)
        assert uncovered_vertices(p) == returns + 1, word
        arcs = p._pairs
        cut = outer_decompose(arcs, restrict_partition(arcs, 1, p.n), 1, p.n)
        assert len(cut) == returns, word

    def test_every_word_up_to_length_7(self):
        for n in range(8):
            for path in gen_large(n):
                self.check(path.text)

    @given(motzkin_words(max_len=60))
    def test_large_words(self, word):
        self.check(word)


def components(text):
    """factor_components on a whole large word, as slices of it."""
    ranges = factor_components(component_ends(text), 0, len(text))
    return tuple(text[a:b] for a, b in ranges)


def segments(text):
    """split_axis_l3 on a whole Motzkin word, as slices of it: the word
    is read as the interior of ``U text x``, as the forward map reads it."""
    word = "U" + text + "x"
    ranges = split_axis_l3(word, component_ends(word), 1, len(word) - 1)
    return tuple(word[a:b] for a, b in ranges)


class TestDecomposeProperties:
    @given(motzkin_words())
    def test_components_concatenate_to_word(self, word):
        pieces = components(word)
        assert "".join(pieces) == word
        # each component is one axis level step or one elevated stretch
        for c in pieces:
            assert c in ("a", "b") or (c[0] == "U" and c[-1] in "xy")

    @given(motzkin_words(large=False))
    def test_segments_join_at_axis_l3(self, word):
        pieces = segments(word)
        assert "c".join(pieces) == word
        for segment in pieces:
            validate_large(segment)


class TestDoublingProperties:
    @given(motzkin_words(large=False), st.integers(0, 1))
    def test_project_inverts_double(self, word, bit):
        doubled = double(word, bit)
        q, b = project(doubled)
        assert (q.text, b) == (word, bit)

    @given(motzkin_words(max_len=13).filter(bool))
    def test_double_inverts_project(self, word):
        assert double(*project(word)).text == word

    @given(motzkin_words(large=False), st.integers(0, 1))
    def test_doubling_adds_one_step(self, word, bit):
        assert len(double(word, bit)) == len(word) + 1


class TestValidatorAgreement:
    @settings(max_examples=300)
    @given(arc_sets())
    def test_arc_and_block_validators_agree(self, p):
        assert _accepts(validate_ncl, p) == _accepts(validate_ncl_blockwise, p)


def _accepts(validator, p):
    try:
        validator(p)
    except ValueError:
        return False
    return True
