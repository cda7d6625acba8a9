"""The path <-> partition bijection, case by case and exhaustively."""

import pytest

import motzkin_ncl.bijection
from motzkin_ncl import (
    Arc,
    CaseTag,
    LinkedPartition,
    StructureError,
    classify_component,
    concat_merge,
    gen_large,
    gen_ncl,
    parse_partition,
    partition_to_path,
    path_to_partition,
    render_partition,
    validate_large,
)
from motzkin_ncl.decompose import outer_decompose

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
        with pytest.raises(ValueError):
            path_to_partition("c")
        with pytest.raises(ValueError):
            path_to_partition("U")

    def test_length_maps_to_vertex_count(self):
        for n in range(6):
            for path in gen_large(n):
                assert path_to_partition(path).n == n + 1


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
        # the recursion works on restrictions of an already valid partition
        calls = []
        validate = motzkin_ncl.bijection.validate_ncl

        def counting(p):
            calls.append(p.n)
            return validate(p)

        monkeypatch.setattr(motzkin_ncl.bijection, "validate_ncl", counting)
        q = path_to_partition(word)
        assert partition_to_path(q).text == word
        assert calls == [q.n]


TOO_DEEP = "input nests too deeply for the recursive maps"
DEEP_WORD = "U" * 2000 + "x" * 2000
DEEP_BLOCK = "{" + ",".join(map(str, range(1, 4002))) + "}"  # DEEP_WORD's image


class TestDepth:
    # both maps recurse once per nesting level; past the recursion limit
    # they raise a ValueError of their own, not the RecursionError
    def test_forward(self):
        with pytest.raises(ValueError) as info:
            path_to_partition(DEEP_WORD)
        assert type(info.value) is ValueError and str(info.value) == TOO_DEEP
        assert render_partition(path_to_partition("UUxx")) == "{1,2,3,4,5}"

    @pytest.mark.parametrize("parsed", [False, True], ids=["text", "object"])
    def test_inverse(self, parsed):
        block = parse_partition(DEEP_BLOCK) if parsed else DEEP_BLOCK
        with pytest.raises(ValueError) as info:
            partition_to_path(block)
        assert type(info.value) is ValueError and str(info.value) == TOO_DEEP
        assert partition_to_path("{1,2,3,4,5}").text == "UUxx"

    def test_deep_word_maps_to_one_block(self):
        assert render_partition(path_to_partition("U" * 20 + "x" * 20)) == (
            "{" + ",".join(map(str, range(1, 42))) + "}"
        )


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


class TestConcatMerge:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            concat_merge([])

    def test_single_part_is_identity(self):
        p = parse_partition("{1,2}")
        assert concat_merge([p]) == p

    def test_merge_glues_last_to_first(self):
        p = parse_partition("{1,2}")
        merged = concat_merge([p, p])
        assert render_partition(merged) == "{1,2}{2,3}"

    def test_merge_offsets_accumulate(self):
        a = parse_partition("{1,2}")
        b = parse_partition("{1}{2}")
        merged = concat_merge([a, b, a])
        assert merged.n == 4
        assert merged.arcs == frozenset({Arc(1, 2), Arc(3, 4)})


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
