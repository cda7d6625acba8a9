"""Exhaustive generators checked against tables and brute-force oracles."""

from itertools import combinations, product

import pytest

from motzkin_ncl import (
    Arc,
    LargeMotzkinPath,
    LinkedPartition,
    gen_large,
    gen_motzkin32,
    gen_ncl,
    gen_schroder,
    large_motzkin_numbers,
    motzkin32_numbers,
    ncl_counts,
    render_partition,
    schroder_numbers,
    validate_large,
    validate_motzkin,
    validate_ncl,
    validate_schroder,
)

ALPHABET_RANK = {c: i for i, c in enumerate("Uabcxy")}


def path_key(text):
    return [ALPHABET_RANK[c] for c in text]


def accepted(validator, words):
    out = []
    for w in words:
        try:
            validator(w)
        except ValueError:
            continue
        out.append(w)
    return out


class TestPathGenerators:
    def test_small_listing(self):
        assert [p.text for p in gen_large(2)] == ["Ux", "Uy", "aa", "ab", "ba", "bb"]

    def test_plain_listing_includes_axis_l3(self):
        words = [p.text for p in gen_motzkin32(1)]
        assert words == ["a", "b", "c"]

    @pytest.mark.parametrize("n", range(9))
    def test_counts_match_tables(self, n):
        assert sum(1 for _ in gen_motzkin32(n)) == motzkin32_numbers(n)[n]
        assert sum(1 for _ in gen_large(n)) == large_motzkin_numbers(n)[n]

    @pytest.mark.parametrize("n", range(7))
    def test_every_word_is_valid_and_unique(self, n):
        seen = set()
        for p in gen_large(n):
            assert isinstance(p, LargeMotzkinPath)
            validate_large(p.text)
            assert p.text not in seen
            seen.add(p.text)
        for p in gen_motzkin32(n):
            validate_motzkin(p.text)

    @pytest.mark.parametrize("n", range(7))
    def test_lexicographic_order(self, n):
        words = [p.text for p in gen_motzkin32(n)]
        assert words == sorted(words, key=path_key)
        large = [p.text for p in gen_large(n)]
        assert large == sorted(large, key=path_key)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force_filter(self, n):
        # independent oracle: every word of length n, in text order,
        # kept when the matching validator accepts it
        words = ["".join(w) for w in product("Uabcxy", repeat=n)]
        assert [p.text for p in gen_motzkin32(n)] == accepted(validate_motzkin, words)
        assert [p.text for p in gen_large(n)] == accepted(validate_large, words)

    def test_large_is_a_subfamily(self):
        for n in range(7):
            plain = {p.text for p in gen_motzkin32(n)}
            assert {p.text for p in gen_large(n)} <= plain

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            list(gen_large(-1))

    def test_generator_is_lazy(self):
        stream = gen_large(60)  # astronomically many; must not materialize
        assert next(stream).text == "U" * 30 + "x" * 30


class TestNclGenerator:
    def test_small_listing(self):
        texts = [render_partition(q) for q in gen_ncl(3)]
        assert texts == [
            "{1,2,3}",
            "{1,2}{2,3}",
            "{1,2}{3}",
            "{1,3}{2}",
            "{1}{2,3}",
            "{1}{2}{3}",
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_table(self, n):
        assert sum(1 for _ in gen_ncl(n)) == ncl_counts(n)[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force_filter(self, n):
        # independent oracle: test every arc subset against the validator
        pairs = list(combinations(range(1, n + 1), 2))
        accepted = set()
        for mask in range(2 ** len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            p = LinkedPartition(n, arcs)
            try:
                validate_ncl(p)
            except ValueError:
                continue
            accepted.add(render_partition(p))
        assert {render_partition(q) for q in gen_ncl(n)} == accepted

    def test_sorted_by_canonical_text(self):
        # at n = 10 labels have two digits and "{1,10" < "{1,2"
        for n in (5, 10):
            texts = [render_partition(q) for q in gen_ncl(n)]
            assert all(a < b for a, b in zip(texts, texts[1:]))
            assert len(texts) == ncl_counts(n)[n]

    def test_generator_is_lazy(self):
        stream = gen_ncl(40)  # about 2 * 10^27 partitions; must not materialize
        labels = ",".join(map(str, range(10, 41)))
        assert str(next(stream)) == "{1," + labels + "}{2,3,4,5,6,7,8,9}"

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            list(gen_ncl(0))


class TestSchroderGenerator:
    @pytest.mark.parametrize("n", range(8))
    def test_counts_match_tables(self, n):
        big, little = schroder_numbers(n)
        assert sum(1 for _ in gen_schroder(n, "large")) == big[n]
        assert sum(1 for _ in gen_schroder(n, "little")) == little[n]

    def test_small_listing(self):
        assert [p.text for p in gen_schroder(2, "large")] == [
            "FF", "FUD", "UDF", "UDUD", "UFD", "UUDD",
        ]
        assert [p.text for p in gen_schroder(2, "little")] == [
            "UDUD", "UFD", "UUDD",
        ]

    @pytest.mark.parametrize("n", range(6))
    def test_matches_brute_force_filter(self, n):
        # every U/F/D word spanning 2n x-units, F counting two
        words = sorted(
            "".join(w)
            for k in range(n, 2 * n + 1)
            for w in product("DFU", repeat=k)
            if k + w.count("F") == 2 * n
        )
        for variant in ("large", "little"):
            assert [p.text for p in gen_schroder(n, variant)] == accepted(
                lambda w: validate_schroder(w, variant), words
            )

    def test_words_are_valid(self):
        for n in range(6):
            for p in gen_schroder(n, "little"):
                validate_schroder(p.text, "little")

    def test_little_never_has_axis_flat(self):
        for p in gen_schroder(4, "little"):
            h = 0
            for ch in p.text:
                assert not (ch == "F" and h == 0)
                h += {"U": 1, "F": 0, "D": -1}[ch]
