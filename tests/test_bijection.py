"""The path <-> partition bijection, case by case and exhaustively."""

import hashlib

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
