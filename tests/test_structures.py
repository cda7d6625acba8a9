"""Path and partition data types: parsing, validation, rendering."""

import itertools
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from motzkin_ncl import (
    Arc,
    AxisF,
    AxisL3,
    BlockCrossing,
    CrossingArcs,
    InDegree,
    LargeMotzkinPath,
    LinkedPartition,
    MotzkinPath,
    NearlyDisjointViolation,
    NegativeHeight,
    NonzeroFinalHeight,
    ParseError,
    PartitionError,
    SchroderPath,
    blocks_of,
    gen_ncl,
    ncl_counts,
    parse_partition,
    path_to_partition,
    render_ascii,
    render_partition,
    validate_large,
    validate_motzkin,
    validate_ncl,
    validate_ncl_blockwise,
    validate_schroder,
    verify_identities,
)
from motzkin_ncl.structures import _check_crossings, _nearly_disjoint, ascii_rows
from test_properties import motzkin_words

# labels past int()'s digit limit exist from Python 3.11 on
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestSteps:
    def test_deltas(self):
        # up +1, both down colors -1, all three level colors 0
        assert validate_motzkin("UxUy").heights() == (1, 0, 1, 0)
        assert validate_motzkin("Uabcx").heights() == (1, 1, 1, 1, 0)

    def test_parse_render_round_trip(self):
        # every letter of the alphabet reads in and prints back unchanged
        assert str(MotzkinPath("UabcxUy")) == "UabcxUy"

    def test_parse_rejects_unknown_character(self):
        with pytest.raises(ParseError) as info:
            validate_motzkin("Uq")
        assert info.value.offset == 1
        with pytest.raises(ParseError) as info:
            validate_large("UxUq")
        assert info.value.offset == 3

    def test_parse_rejects_whitespace(self):
        with pytest.raises(ParseError) as info:
            validate_large("U x")
        assert info.value.offset == 1

    def test_alphabet_is_checked_before_heights(self):
        # "x" alone would dip below the axis; the bad letter is named first
        for validate in (validate_motzkin, validate_large):
            with pytest.raises(ParseError) as info:
                validate("xq")
            assert info.value.offset == 1
            assert str(info.value) == "unknown step character 'q' (offset 1)"


class TestMotzkinValidation:
    def test_empty_path_is_valid_everywhere(self):
        assert validate_motzkin("").text == ""
        assert validate_large("").text == ""

    def test_negative_height_position(self):
        with pytest.raises(NegativeHeight) as info:
            validate_motzkin("xU")
        assert info.value.position == 0

    def test_nonzero_final_height(self):
        with pytest.raises(NonzeroFinalHeight) as info:
            validate_motzkin("UaU")
        assert info.value.height == 2

    def test_axis_level3_only_matters_for_large(self):
        assert validate_motzkin("c").text == "c"
        with pytest.raises(AxisL3) as info:
            validate_large("c")
        assert info.value.position == 0

    def test_level3_above_axis_is_fine_for_large(self):
        path = validate_large("Ucx")
        assert isinstance(path, LargeMotzkinPath)

    def test_axis_level3_after_descent(self):
        # the step is on the axis because the path came back down first
        with pytest.raises(AxisL3) as info:
            validate_large("Uxc")
        assert info.value.position == 2

    def test_heights_trace(self):
        assert validate_motzkin("UbUxcy").heights() == (1, 1, 2, 1, 1, 0)

    def test_large_paths_equal_plain_paths_with_same_text(self):
        assert validate_large("Ux") == validate_motzkin("Ux")
        assert hash(validate_large("Ux")) == hash(MotzkinPath("Ux"))

    def test_constructor_rejects_invalid_words(self):
        # a path object is proof of validity: construction walks the heights
        with pytest.raises(NegativeHeight):
            MotzkinPath("xx")
        with pytest.raises(AxisL3):
            LargeMotzkinPath("c")
        # the alphabet is still checked first, before any height error
        with pytest.raises(ParseError) as info:
            MotzkinPath("U?x")
        assert info.value.offset == 1


class TestSchroder:
    def test_half_length_counts_x_units(self):
        assert validate_schroder("UFD").half_length == 2
        assert validate_schroder("").half_length == 0
        assert validate_schroder("FF").half_length == 2

    def test_little_variant_bars_axis_flat(self):
        assert validate_schroder("UFD", "little").half_length == 2
        with pytest.raises(AxisF) as info:
            validate_schroder("F", "little")
        assert info.value.position == 0

    def test_height_rules_apply(self):
        with pytest.raises(NegativeHeight):
            validate_schroder("DU")
        with pytest.raises(NonzeroFinalHeight):
            validate_schroder("UF")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            validate_schroder("", "medium")

    def test_constructor_applies_its_own_variant(self):
        with pytest.raises(AxisF) as info:
            SchroderPath("F", "little")
        assert info.value.position == 0

    def test_validator_checks_objects_against_the_requested_variant(self):
        with pytest.raises(AxisF):
            validate_schroder(SchroderPath("F"), "little")
        little = SchroderPath("UFD", "little")
        assert validate_schroder(little, "little") is little


class TestLinkedPartition:
    def test_blocks_from_arcs(self):
        p = LinkedPartition(3, [(1, 2), (2, 3)])
        assert blocks_of(p) == ((1, 2), (2, 3))

    def test_singletons_are_arc_free_vertices(self):
        p = LinkedPartition(3, [(1, 3)])
        assert blocks_of(p) == ((1, 3), (2,))

    def test_vertex_with_two_out_arcs_owns_one_block(self):
        p = LinkedPartition(3, [(1, 2), (1, 3)])
        assert blocks_of(p) == ((1, 2, 3),)

    def test_render_is_canonical(self):
        p = LinkedPartition(4, [(1, 4), (2, 3)])
        assert render_partition(p) == "{1,4}{2,3}"
        assert str(p) == "{1,4}{2,3}"

    def test_arc_bounds_checked(self):
        with pytest.raises(PartitionError):
            LinkedPartition(2, [(1, 3)])
        with pytest.raises(PartitionError):
            LinkedPartition(2, [(2, 2)])

    def test_no_vertices_rejected(self):
        with pytest.raises(PartitionError):
            LinkedPartition(0)

    @pytest.mark.parametrize(
        "n, arcs, bad",
        [(3, [(1.9, 3)], "1.9"), (3, [("1", "3")], "'1'"), (2.5, [], "2.5")],
        ids=["float-end", "str-ends", "float-n"],
    )
    def test_vertices_must_be_integers(self, n, arcs, bad):
        with pytest.raises(PartitionError, match=f"^vertex {bad} is not an integer$"):
            LinkedPartition(n, arcs)


class TestValueTypes:
    # the contract the frozen dataclasses kept, in the texts they printed
    RECURRENCE = (
        "f(n+1) = L(n) = S(n), f(1) = 1, "
        "(n+1) S(n) = 3(2n-1) S(n-1) - (n-2) S(n-2), S(0) = 1, S(1) = 2"
    )

    def test_repr(self):
        assert repr(LargeMotzkinPath("Ux")) == "LargeMotzkinPath(text='Ux')"
        assert repr(SchroderPath("UD")) == "SchroderPath(text='UD', variant='large')"
        assert repr(LinkedPartition(3, [(1, 3)])) == (
            "LinkedPartition(n=3, arcs=frozenset({Arc(left=1, right=3)}))"
        )
        assert repr(ncl_counts(2)) == (
            "SequenceTable(name='f', offset=1, values=(1, 2), "
            f"recurrence={self.RECURRENCE!r})"
        )
        names = ("L(n) = 2 m(n-1)", "L(n) = S(n)", "S(n) = 2 s(n)", "s(n) = m(n-1)")
        checks = ", ".join(
            f"IdentityCheck(name={name!r}, holds=True, first_failure=None)"
            for name in names
        )
        assert repr(verify_identities(1)) == (
            f"IdentityReport(max_index=1, checks=({checks}))"
        )

    @pytest.mark.parametrize(
        "obj",
        [MotzkinPath("Ux"), LargeMotzkinPath("Ux"), SchroderPath("UD")],
        ids=["plain", "large", "schroder"],
    )
    def test_fields_cannot_be_assigned_or_deleted(self, obj):
        with pytest.raises(AttributeError, match="^cannot assign to field 'text'$"):
            obj.text = "aa"
        with pytest.raises(AttributeError, match="^cannot delete field 'text'$"):
            del obj.text
        assert obj.text in ("Ux", "UD")

    def test_partition_and_table_fields_are_frozen(self):
        p = LinkedPartition(3, [(1, 3)])
        with pytest.raises(AttributeError, match="^cannot assign to field 'n'$"):
            p.n = 4
        with pytest.raises(AttributeError, match="^cannot assign to field 'values'$"):
            ncl_counts(2).values = ()

    def test_equality_and_hash(self):
        large, plain = LargeMotzkinPath("Ux"), MotzkinPath("Ux")
        assert large == plain and hash(large) == hash(plain)
        assert SchroderPath("UD", "large") != SchroderPath("UD", "little")
        assert SchroderPath("UD") == SchroderPath("UD", "large")
        assert hash(SchroderPath("UD")) == hash(SchroderPath("UD", "large"))
        p = LinkedPartition(n=3, arcs=[(1, 3)])
        assert p == LinkedPartition(3, {Arc(1, 3)}) and p != LinkedPartition(3)
        assert hash(p) == hash(LinkedPartition(3, [(1, 3)]))
        assert p != SchroderPath("UD") and p != (3, frozenset({Arc(1, 3)}))
        assert ncl_counts(5) == ncl_counts(5) != ncl_counts(4)

    def test_table_keeps_its_offset(self):
        table = ncl_counts(5)
        assert table[1] == 1 and table[5] == 90 and table.max_index == 5
        with pytest.raises(IndexError):
            table[0]


class TestParsePartition:
    def test_round_trip(self):
        text = "{1,3,4}{2}{4,13}{5,6,7}{8,10,11}{9}{11,12}"
        assert render_partition(parse_partition(text)) == text

    def test_block_labels_are_a_set(self):
        assert render_partition(parse_partition("{2,1}")) == "{1,2}"

    def test_multi_digit_labels(self):
        p = parse_partition("{1,12}{2}{3}{4}{5}{6}{7}{8}{9}{10}{11}")
        assert p.n == 12 and Arc(1, 12) in p.arcs

    def test_unterminated_block(self):
        with pytest.raises(ParseError) as info:
            parse_partition("{1,2")
        assert info.value.offset == 4

    def test_missing_brace(self):
        with pytest.raises(ParseError) as info:
            parse_partition("1,2}")
        assert info.value.offset == 0

    def test_empty_block(self):
        with pytest.raises(ParseError):
            parse_partition("{}")

    def test_duplicate_label_in_block(self):
        with pytest.raises(ParseError):
            parse_partition("{1,1}")
        # the offset is the label's first digit, leading zeros included
        with pytest.raises(ParseError, match="duplicate label 1") as info:
            parse_partition("{1,01}")
        assert info.value.offset == 3

    def test_labels_start_at_one(self):
        with pytest.raises(ParseError):
            parse_partition("{0,1}")
        with pytest.raises(ParseError, match="start at 1") as info:
            parse_partition("{00}")
        assert info.value.offset == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="int() has no digit limit before Python 3.11",
    )
    def test_label_past_the_digit_limit_of_int(self):
        # the limit guards int() against quadratic input and stays on
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            with pytest.raises(ParseError, match="more than 4300 digits") as info:
                parse_partition("{1," + "1" * 5000 + "}")
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)
        assert info.value.offset == 3

    def test_coverage_gap(self):
        with pytest.raises(PartitionError, match="vertex 2 missing"):
            parse_partition("{1}{3}")

    def test_repeated_minimum_rejected(self):
        # 1 is the minimum of both presented blocks
        with pytest.raises(NearlyDisjointViolation):
            parse_partition("{1,2}{1,3}")

    def test_singleton_sharing_rejected(self):
        with pytest.raises(NearlyDisjointViolation):
            parse_partition("{1}{1,2}")

    def test_identical_blocks_rejected(self):
        with pytest.raises(PartitionError):
            parse_partition("{1,2}{1,2}")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            parse_partition("")

    def test_names_the_first_clashing_pair_of_the_sorted_blocks(self):
        # every family of two or three blocks over {1..4} that covers its
        # ground set, against the pairwise definition
        subsets = [
            c for k in (1, 2, 3) for c in itertools.combinations(range(1, 5), k)
        ]
        for size in (2, 3):
            for family in itertools.product(subsets, repeat=size):
                covered = {v for b in family for v in b}
                if covered != set(range(1, max(covered) + 1)):
                    continue
                ordered = sorted(family)
                expected = next(
                    (
                        (a, b)
                        for i, a in enumerate(ordered)
                        for b in ordered[i + 1 :]
                        if not _nearly_disjoint(a, b)
                    ),
                    None,
                )
                text = "".join("{" + ",".join(map(str, b)) + "}" for b in family)
                if expected is None:
                    parse_partition(text)
                    continue
                with pytest.raises(NearlyDisjointViolation) as info:
                    parse_partition(text)
                assert (info.value.block_a, info.value.block_b) == expected, text

    @settings(max_examples=300)
    @given(
        st.lists(
            st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True),
            min_size=1,
            max_size=7,
        )
    )
    def test_names_the_first_clashing_pair_of_up_to_seven_blocks(self, family):
        # labels renamed in order to 1..m, so that the family covers its
        # ground set; against the same pairwise scan, and each block of
        # the message printed ascending
        rank = {v: r for r, v in enumerate(sorted({*itertools.chain(*family)}), 1)}
        family = [[rank[v] for v in block] for block in family]
        ordered = sorted(tuple(sorted(block)) for block in family)
        expected = next(
            (
                (a, b)
                for i, a in enumerate(ordered)
                for b in ordered[i + 1 :]
                if not _nearly_disjoint(a, b)
            ),
            None,
        )
        text = "".join("{" + ",".join(map(str, b)) + "}" for b in family)
        if expected is None:
            parse_partition(text)
            return
        with pytest.raises(NearlyDisjointViolation) as info:
            parse_partition(text)
        assert (info.value.block_a, info.value.block_b) == expected
        a, b = ("{%s}" % ", ".join(map(str, block)) for block in expected)
        assert str(info.value) == f"blocks {a} and {b} are not nearly disjoint"

    def test_chain_texts_name_their_blocks_ascending(self):
        # {1,2}{2,3}...{k,k+1}{1,k+1} clashes at 1, the minimum of its first
        # and last blocks.  Printed through a set, 439 of the 2998 texts
        # with 2 <= k < 3000 named {k+1, 1}: each message is checked, and
        # the texts are read wherever a set puts k + 1 before 1
        for k in range(2, 3000):
            message = f"blocks {{1, 2}} and {{1, {k + 1}}} are not nearly disjoint"
            assert str(NearlyDisjointViolation((1, 2), (1, k + 1))) == message
            if next(iter({1, k + 1})) == 1:
                continue
            chain = "".join(f"{{{i},{i + 1}}}" for i in range(1, k + 1))
            with pytest.raises(NearlyDisjointViolation) as info:
                parse_partition(f"{chain}{{1,{k + 1}}}")
            assert str(info.value) == message


def _vertex_loop_blocks(p: LinkedPartition) -> tuple[tuple[int, ...], ...]:
    """An independent block oracle: walk the vertices in order; one that
    sends arcs opens a block with their right ends, and one that neither
    sends nor receives is a singleton."""
    outgoing: dict[int, list[int]] = {}
    incoming = set()
    for a, b in p.arcs:
        outgoing.setdefault(a, []).append(b)
        incoming.add(b)
    blocks = []
    for v in range(1, p.n + 1):
        if v in outgoing:
            blocks.append((v, *sorted(outgoing[v])))
        elif v not in incoming:
            blocks.append((v,))
    return tuple(blocks)


def _joined_blocks_text(p: LinkedPartition) -> str:
    return "".join("{" + ",".join(map(str, b)) + "}" for b in _vertex_loop_blocks(p))


def _scanned_partition(text: str) -> LinkedPartition:
    """An independent parser oracle: a character scanner that checks each
    label as it reads it, so the first error in text order wins, then
    checks coverage and names the first clashing pair of the sorted
    blocks by the pairwise definition."""
    if not text:
        raise ParseError("expected '{'", 0)
    blocks = []
    i = 0
    while i < len(text):
        if text[i] != "{":
            raise ParseError("expected '{'", i)
        i += 1
        block = set()
        while True:
            start = i
            while i < len(text) and text[i] in "0123456789":
                i += 1
            if i == start:
                raise ParseError("expected a vertex label", start)
            try:
                label = int(text[start:i])
            except ValueError:
                limit = sys.get_int_max_str_digits()
                message = f"vertex label has more than {limit} digits"
                raise ParseError(message, start) from None
            if label < 1:
                raise ParseError("vertex labels start at 1", start)
            if label in block:
                raise ParseError(f"duplicate label {label} in block", start)
            block.add(label)
            if i >= len(text):
                raise ParseError("unterminated block", i)
            if text[i] == "}":
                i += 1
                break
            if text[i] != ",":
                raise ParseError("expected ',' or '}'", i)
            i += 1
        blocks.append(tuple(sorted(block)))
    seen = sorted({v for block in blocks for v in block})
    n = seen[-1]
    for v, w in enumerate(seen, 1):
        if v != w:
            raise PartitionError(f"vertex {v} missing; blocks must cover 1..{n}")
    ordered = sorted(blocks)
    for i, block_a in enumerate(ordered):
        for block_b in ordered[i + 1 :]:
            if not _nearly_disjoint(block_a, block_b):
                raise NearlyDisjointViolation(block_a, block_b)
    return LinkedPartition(n, [(block[0], v) for block in blocks for v in block[1:]])


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: (n, arcs), or the error it raises
    as (class, message, offset)."""
    try:
        p = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return p.n, p.arcs


# "٣" (Arabic-Indic three) is a digit to str.isdigit() and int(), not to
# block text
_STRAY = "٣"


def _label_text(draw, label: str) -> str:
    """``label`` as written, now and then with leading zeros."""
    return "0" * draw(st.sampled_from([0] * 8 + [1, 2])) + label


@st.composite
def block_texts(draw):
    """Block text near the grammar, then maybe one edit (a character
    inserted or dropped, or the text cut short).  The blocks are those of
    an arc set, in-degree two included, shuffled; or random labels up to
    9, rarely 0 or one past int()'s digit limit (where there is one).
    Now and then a raw string over the alphabet plus one stray character.
    """
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.text(alphabet="{},0123456789" + _STRAY, max_size=16))
    if kind <= 5:
        arc_set_blocks = _vertex_loop_blocks(draw(any_arc_sets(max_n=9)))
        blocks = [
            list(map(str, draw(st.permutations(block))))
            for block in draw(st.permutations(arc_set_blocks))
        ]
    else:
        labels = [str(v) for v in range(1, 10)] * 3 + ["0"]
        if DIGIT_LIMIT:
            labels.append("1" * (DIGIT_LIMIT + 1))
        label = st.sampled_from(labels)
        blocks = draw(
            st.lists(st.lists(label, min_size=1, max_size=4), min_size=1, max_size=5)
        )
    text = "".join(
        "{" + ",".join(_label_text(draw, v) for v in block) + "}" for block in blocks
    )
    edit = draw(st.integers(0, 5))
    at = draw(st.integers(0, len(text)))
    if edit == 0:
        return text[:at] + draw(st.sampled_from("{},0123456789" + _STRAY)) + text[at:]
    if edit == 1:
        return text[:at] + text[at + 1 :]
    if edit == 2:
        return text[:at]
    return text


class TestParseOracle:
    @given(block_texts())
    def test_agrees_with_the_scanner(self, text):
        # the same partition, made of Arc objects, or the same error
        # class, message and offset
        outcome = _outcome(parse_partition, text)
        assert outcome == _outcome(_scanned_partition, text)
        if not isinstance(outcome[0], type):
            assert all(type(arc) is Arc for arc in outcome[1])

    @pytest.mark.parametrize(
        "text",
        [
            "", "{", "}", "{}", "{,", "{1", "{1,", "{1,}", "{1}}", "{1}x", "{1x",
            "{1,2}{3", "{0", "{1,0x", "{1,1", "{2,2}{1}", "{1}{3}", "{01,2}",
            "{1,2}{2,3}", "{1,3}{2}", "{3,1,2}", "{1,2}{1,3}", "{1}{1,2}",
            "{1,2}{1,2}", "{1,3,4}{2,3}", "{1,2,3}{2}", "{1,2}" + _STRAY,
            "{1," + _STRAY + "}", "{" + _STRAY + "}",
        ],
    )
    def test_agrees_on_each_rule(self, text):
        assert _outcome(parse_partition, text) == _outcome(_scanned_partition, text)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit before 3.11")
    def test_the_first_bad_label_in_text_order_wins(self):
        long = "1" * (DIGIT_LIMIT + 1)
        for text in (
            "{0," + long + "}", "{" + long + ",0}", "{1,1," + long + "}",
            "{" + long + ",1,1}", "{0x", "{1,2,2,", "{1}{" + long,
        ):
            assert _outcome(parse_partition, text) == _outcome(
                _scanned_partition, text
            ), text

    def test_leading_zeros_are_read(self):
        p = parse_partition("{01,2}")
        assert (p.n, p.arcs) == (2, frozenset({Arc(1, 2)}))
        assert render_partition(p) == "{1,2}"


class TestValidators:
    def test_crossing_detected(self):
        p = parse_partition("{1,3}{2,4}")
        with pytest.raises(CrossingArcs):
            validate_ncl(p)

    def test_in_degree_detected(self):
        p = LinkedPartition(3, [(1, 3), (2, 3)])
        with pytest.raises(InDegree) as info:
            validate_ncl(p)
        assert info.value.vertex == 3

    def test_nested_and_shared_left_are_fine(self):
        p = LinkedPartition(4, [(1, 4), (1, 2)])
        assert validate_ncl(p) is p
        assert validate_ncl_blockwise(p) is p

    def test_worked_linear_representation(self):
        p = parse_partition("{1,4,8}{2,3}{5,6}{6,7}{8,9}")
        assert p.arcs == frozenset(
            {Arc(1, 4), Arc(1, 8), Arc(2, 3), Arc(5, 6), Arc(6, 7), Arc(8, 9)}
        )
        validate_ncl(p)
        validate_ncl_blockwise(p)

    def test_crossing_found_past_deep_nesting(self):
        depth = 20000
        arcs = [(i, 2 * depth + 1 - i) for i in range(1, depth + 1)]
        p = LinkedPartition(2 * depth + 2, [*arcs, (depth, 2 * depth + 2)])
        with pytest.raises(CrossingArcs) as info:
            validate_ncl(p)
        first, second = info.value.first, info.value.second
        assert first.left < second.left < first.right < second.right
        assert validate_ncl(LinkedPartition(2 * depth, arcs))

    def test_crossing_blocks_print_ascending(self):
        # 8 and 9 sit before 1 and 2 in a two-element set
        p = parse_partition("{1,8}{2,9}{3}{4}{5}{6}{7}")
        with pytest.raises(BlockCrossing) as info:
            validate_ncl_blockwise(p)
        assert (info.value.block_a, info.value.block_b) == ((1, 8), (2, 9))
        assert str(info.value) == "blocks {1, 8} and {2, 9} cross"

    def test_nearly_disjoint_predicate(self):
        assert _nearly_disjoint((1, 2), (2, 3))
        assert _nearly_disjoint((1, 2, 3), (2, 4))  # 2 is min of one, not both
        assert not _nearly_disjoint((1, 2), (1, 3))  # shared min of both
        assert not _nearly_disjoint((1,), (1, 2))  # singleton overlap
        assert not _nearly_disjoint((1, 3, 4), (2, 3))  # 3 is min of neither
        assert _nearly_disjoint((1, 3), (2, 4))  # disjoint sets never clash


class TestRenderAscii:
    def test_small_path(self):
        assert render_ascii(validate_motzkin("Ux")) == "/\\\n--"

    def test_empty_path(self):
        assert render_ascii(validate_motzkin("")) == ""

    def test_axis_level_letters_sit_on_the_axis_row(self):
        assert render_ascii(validate_motzkin("c")) == "c"
        assert render_ascii(validate_large("ab")) == "ab"

    def test_two_story_path(self):
        art = render_ascii(validate_large("UbUxcUycy"))
        assert art == "  /\\ /\\\n/b  c  c\\\n---------"

    def test_single_arc(self):
        assert render_ascii(parse_partition("{1,2}")) == ".-.\n1 2"

    def test_arc_free_partition_is_just_labels(self):
        assert render_ascii(parse_partition("{1}{2}")) == "1 2"

    def test_nested_arcs_stack(self):
        art = render_ascii(validate_ncl(parse_partition("{1,4,8}{2,3}{5,6}{6,7}{8,9}")))
        assert art == (
            ".-------------.-.\n"
            ".-----. .-.-. | |\n"
            "| .-. | | | | | |\n"
            "1 2 3 4 5 6 7 8 9"
        )

    def test_wide_labels_align(self):
        art = render_ascii(parse_partition("{1,12}{2}{3}{4}{5}{6}{7}{8}{9}{10}{11}"))
        lines = art.splitlines()
        assert lines[-1] == "1 2 3 4 5 6 7 8 9 10 11 12"
        assert lines[0].startswith(".") and lines[0].rstrip().endswith(".")

    def test_crossing_arc_sets_still_draw_by_containment(self):
        assert render_ascii(LinkedPartition(4, [(1, 3), (2, 4)])) == ".-.---.\n1 2 3 4"
        art = render_ascii(LinkedPartition(6, [(1, 4), (2, 5), (3, 6), (2, 3)]))
        assert art == ".-.-.-----.\n| | | | | |\n| .-. | | |\n1 2 3 4 5 6"


def _grid_path_art(word: str) -> str:
    """An independent mountain-diagram oracle: each step's glyph stored in
    a dict under (level, column), then read back cell by cell over the
    height x length grid, blanks as spaces above the axis and dashes on
    it."""
    heights = list(itertools.accumulate({"U": 1, "x": -1, "y": -1}.get(ch, 0) for ch in word))
    grid = {}
    for i, (ch, h) in enumerate(zip(word, heights)):
        if ch in "xy":
            grid[(h + 1, i)] = "\\"
        else:
            grid[(h, i)] = "/" if ch == "U" else ch
    rows = [
        "".join(grid.get((level, i), " ") for i in range(len(word))).rstrip()
        for level in range(max([0, *heights]), 0, -1)
    ]
    rows.append("".join(grid.get((0, i), "-") for i in range(len(word))))
    return "\n".join(rows)


class TestPathRenderOracle:
    @given(motzkin_words(max_len=40, large=False))
    def test_rows_match_the_grid_oracle(self, word):
        # plain words: render --path takes c on the axis too
        assert render_ascii(validate_motzkin(word)) == _grid_path_art(word)

    @pytest.mark.parametrize("k", [1, 40, 300])
    @pytest.mark.parametrize(
        "shape",
        [
            lambda k: "U" * k + "x" * k,
            lambda k: "U" * k + "b" * k + "y" * k,
            lambda k: "Ucx" * k,
            lambda k: "U" + "ac" * k + "x",
        ],
        ids=["nest", "b-nest", "axis-chain", "level-chain"],
    )
    def test_deep_and_chain_shapes(self, shape, k):
        word = shape(k)
        # row lists, so that a failure names its first differing row fast
        art = render_ascii(validate_motzkin(word))
        assert art.split("\n") == _grid_path_art(word).split("\n")


def _grid_partition_art(p: LinkedPartition) -> str:
    """An independent arc-diagram oracle: a levels x width grid of
    characters, each arc's uprights painted into every row below its
    own, then all caps painted over them in (left, -right) order.  An
    arc's row is its count of containing arcs, by a pairwise scan."""
    labels = [str(v) for v in range(1, p.n + 1)]
    pos = [sum(len(lab) + 1 for lab in labels[:i]) for i in range(p.n)]
    label_row = " ".join(labels)
    if not p.arcs:
        return label_row
    ordered = sorted(p.arcs, key=lambda arc: (arc.left, -arc.right))
    depth = {
        arc: sum(other.right >= arc.right for other in ordered[:i])
        for i, arc in enumerate(ordered)
    }
    levels = max(depth.values()) + 1
    grid = [[" "] * len(label_row) for _ in range(levels)]
    for arc in ordered:
        for row in range(depth[arc] + 1, levels):
            grid[row][pos[arc.left - 1]] = "|"
            grid[row][pos[arc.right - 1]] = "|"
    for arc in ordered:
        row = grid[depth[arc]]
        lo, hi = pos[arc.left - 1], pos[arc.right - 1]
        for c in range(lo + 1, hi):
            row[c] = "-"
        row[lo] = "."
        row[hi] = "."
    return "\n".join(["".join(r).rstrip() for r in grid] + [label_row])


@st.composite
def any_arc_sets(draw, max_n=30):
    """Arc sets on [n], crossing and shared-endpoint ones included."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return LinkedPartition(1)
    pair = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).map(
        lambda ab: (min(ab), max(ab) + 1)
    )
    return LinkedPartition(n, draw(st.frozensets(pair, max_size=3 * n)))


def _arc_sweep(p):
    """Oracle: ``validate_ncl``'s checks as a sweep over :class:`Arc`
    objects sorted by a key function, not over (left, -right) pairs."""
    if len({arc.right for arc in p.arcs}) < len(p.arcs):
        rights = set()
        for _, b in sorted(p.arcs):
            if b in rights:
                raise InDegree(b)
            rights.add(b)
    open_arcs = []
    for arc in sorted(p.arcs, key=lambda arc: (arc.left, -arc.right)):
        while open_arcs and open_arcs[-1].right <= arc.left:
            open_arcs.pop()
        if open_arcs and open_arcs[-1].right < arc.right:
            raise CrossingArcs(open_arcs[-1], arc)
        open_arcs.append(arc)
    return p


def _verdict(validate, p):
    """What ``validate`` says of ``p``: None, or the error's class, the
    arcs or vertex it names, and its message."""
    try:
        validate(p)
    except InDegree as err:
        return InDegree, err.vertex, str(err)
    except CrossingArcs as err:
        assert type(err.first) is Arc and type(err.second) is Arc
        return CrossingArcs, err.first, err.second, str(err)
    return None


class TestValidatorOracle:
    @given(any_arc_sets())
    def test_names_the_errors_the_arc_sweep_names(self, p):
        # about two in five of these sets are valid, two in five have a
        # vertex with two in-arcs, and one in five has crossing arcs
        assert _verdict(validate_ncl, p) == _verdict(_arc_sweep, p)


class TestRenderOracle:
    @given(any_arc_sets())
    def test_rows_match_the_grid_oracle(self, p):
        assert render_ascii(p) == _grid_partition_art(p)

    @pytest.mark.parametrize("k", [1, 2, 9, 40])
    def test_deep_nests(self, k):
        p = path_to_partition(validate_large("U" * k + "x" * k))
        assert render_ascii(p) == _grid_partition_art(p)

    @pytest.mark.parametrize("n", [2, 3, 11, 60])
    def test_chains(self, n):
        p = parse_partition("".join(f"{{{v},{v + 1}}}" for v in range(1, n)))
        assert render_ascii(p) == _grid_partition_art(p)

    def test_arc_free(self):
        p = LinkedPartition(12)
        assert render_ascii(p) == _grid_partition_art(p) == " ".join(
            map(str, range(1, 13))
        )

    def test_an_empty_depth_keeps_its_row(self):
        # (3,5) lies in (1,5) and (2,6); neither of those contains the other
        p = LinkedPartition(6, [(1, 5), (2, 6), (3, 5)])
        assert render_ascii(p) == _grid_partition_art(p)
        assert render_ascii(p).split("\n")[1] == "| |     | |"

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError):
            ascii_rows("Ux")


def _sweep_and_pairwise_depths(p: LinkedPartition) -> tuple[list[int], list[int]]:
    """The crossing sweep's depths of ``p``'s arcs, and each arc's count of
    the other arcs that contain it, by a pairwise scan."""
    pairs = sorted((a, -b) for a, b in p.arcs)
    arcs = [(a, -b) for a, b in pairs]
    pairwise = [sum(c <= a and b <= d for c, d in arcs) - 1 for a, b in arcs]
    return _check_crossings(pairs), pairwise


class TestSweepDepths:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_small_partition(self, n):
        for p in gen_ncl(n):
            sweep, pairwise = _sweep_and_pairwise_depths(p)
            assert sweep == pairwise, render_partition(p)

    @pytest.mark.parametrize("k", [1, 40, 300])
    @pytest.mark.parametrize(
        "shape",
        [lambda k: "U" * k + "x" * k, lambda k: "Ucx" * k],
        ids=["nest", "chain"],
    )
    def test_deep_and_chain_images(self, shape, k):
        sweep, pairwise = _sweep_and_pairwise_depths(path_to_partition(shape(k)))
        assert sweep == pairwise


class TestBlockOracle:
    @given(any_arc_sets())
    def test_blocks_and_text_match_the_vertex_loop(self, p):
        # arc sets with in-degree two and crossing ones included
        assert blocks_of(p) == _vertex_loop_blocks(p)
        assert render_partition(p) == _joined_blocks_text(p)

    def test_invalid_arc_sets_render_as_built(self):
        p = LinkedPartition(4, [(1, 3), (2, 3), (1, 4)])
        assert render_partition(p) == "{1,3,4}{2,3}"
        assert blocks_of(p) == ((1, 3, 4), (2, 3))

    def test_rendering_writes_nothing(self):
        # a built value renders without a cache written into it, however
        # it was made; gen_ncl's objects carry the text they were made with
        for p in (
            LinkedPartition(3, [(1, 3)]),
            parse_partition("{1,3}{2}"),
            path_to_partition("Uy"),
        ):
            fields = dict(vars(p))
            assert render_partition(p) == "{1,3}{2}"
            assert vars(p) == fields
        for q in gen_ncl(5):
            fields = dict(vars(q))
            assert render_partition(q) is fields["_text"]
            assert vars(q) == fields

    @given(any_arc_sets())
    def test_in_degree_names_the_first_repeat_in_sorted_order(self, p):
        rights = [b for _, b in sorted(p.arcs)]
        repeats = [b for i, b in enumerate(rights) if b in rights[:i]]
        if not repeats:
            return
        with pytest.raises(InDegree) as info:
            validate_ncl(p)
        assert info.value.vertex == repeats[0]


class TestLargePartitions:
    def test_long_chain_parses_validates_and_draws_in_seconds(self):
        n = 50000
        text = "".join(f"{{{v},{v + 1}}}" for v in range(1, n))
        started = time.perf_counter()
        p = validate_ncl(parse_partition(text))
        art = render_ascii(p)
        assert time.perf_counter() - started < 10
        assert len(p.arcs) == n - 1
        cap, labels = art.split("\n")
        assert labels == " ".join(str(v) for v in range(1, n + 1))
        assert cap.count(".") == n
