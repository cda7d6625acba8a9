"""The 2-to-1 correspondence between plain and large colored paths."""

import pytest

from motzkin_ncl import (
    AxisL3,
    MotzkinPath,
    NonzeroFinalHeight,
    double,
    gen_large,
    gen_motzkin32,
    large_motzkin_numbers,
    motzkin32_numbers,
    project,
    validate_large,
    validate_motzkin,
)

KNOWN = [
    # (plain word, bit) -> large word
    ("", 0, "a"),
    ("", 1, "b"),
    ("a", 0, "aa"),
    ("a", 1, "ab"),
    ("c", 0, "Ux"),
    ("c", 1, "Uy"),
    ("ac", 0, "aUx"),
    ("ca", 0, "Uax"),
    ("cc", 1, "Ucy"),
    ("UbxcbUxcUyc", 1, "UbxUbUxcUycy"),
]


class TestDouble:
    @pytest.mark.parametrize("plain,bit,large", KNOWN)
    def test_known_values(self, plain, bit, large):
        assert double(plain, bit).text == large

    def test_result_is_always_large(self):
        for n in range(6):
            for q in gen_motzkin32(n):
                for bit in (0, 1):
                    validate_large(double(q, bit).text)

    def test_lengths_grow_by_one(self):
        assert len(double("cbc", 0)) == 4

    def test_bit_must_be_binary(self):
        with pytest.raises(ValueError):
            double("a", 2)

    def test_input_must_be_a_valid_path(self):
        with pytest.raises(ValueError):
            double("U", 0)
        # an invalid word cannot become a path object to begin with
        with pytest.raises(NonzeroFinalHeight):
            MotzkinPath("U")


class TestProject:
    @pytest.mark.parametrize("plain,bit,large", KNOWN)
    def test_inverts_double(self, plain, bit, large):
        q, b = project(large)
        assert (q.text, b) == (plain, bit)

    def test_projected_path_is_plain_not_large(self):
        q, _ = project("Ux")
        assert q.text == "c"
        validate_motzkin(q.text)
        with pytest.raises(AxisL3):
            validate_large(q.text)

    def test_empty_path_has_no_preimage(self):
        with pytest.raises(ValueError):
            project("")

    def test_input_must_be_large(self):
        with pytest.raises(ValueError):
            project("c")
        with pytest.raises(AxisL3):
            project(MotzkinPath("c"))


class TestTwoToOne:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_double_hits_every_large_path_once(self, n):
        image = {double(q, bit).text for q in gen_motzkin32(n - 1) for bit in (0, 1)}
        expected = {p.text for p in gen_large(n)}
        assert image == expected
        assert len(image) == 2 * motzkin32_numbers(n - 1)[n - 1]
        assert len(image) == large_motzkin_numbers(n)[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trips_both_ways(self, n):
        for q in gen_motzkin32(n - 1):
            for bit in (0, 1):
                assert project(double(q, bit)) == (q, bit)
        for p in gen_large(n):
            assert double(*project(p)) == p
