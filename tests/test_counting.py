"""Exact counting sequences, their recurrences, and cross-identities."""

import time

import pytest

from motzkin_ncl import (
    SequenceTable,
    large_motzkin_numbers,
    motzkin32_numbers,
    ncl_counts,
    schroder_numbers,
    verify_identities,
)
from motzkin_ncl import counting

# frozen reference values, computed independently of the recurrences:
# the path counts were confirmed by exhausting the generators for small n,
# the Schroeder numbers by the classical series of x -> (1-x-sqrt(1-6x+x^2))/2x
M32 = (1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859, 2646723)
LARGE = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718)
BIG_SCHRODER = LARGE
LITTLE_SCHRODER = (1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859)
NCL = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098)


class TestTables:
    def test_colored_motzkin_values(self):
        assert motzkin32_numbers(10).values == M32

    def test_large_values(self):
        assert large_motzkin_numbers(10).values == LARGE

    def test_schroder_values(self):
        big, little = schroder_numbers(10)
        assert big.values == BIG_SCHRODER
        assert little.values == LITTLE_SCHRODER

    def test_ncl_values_offset_one(self):
        table = ncl_counts(10)
        assert table.offset == 1
        assert table.values == NCL
        assert table[1] == 1 and table[3] == 6

    def test_indexing_bounds(self):
        table = motzkin32_numbers(4)
        assert table[0] == 1 and table[4] == 197
        with pytest.raises(IndexError):
            table[5]
        with pytest.raises(IndexError):
            table[-1]

    def test_upto_zero(self):
        assert motzkin32_numbers(0).values == (1,)
        assert large_motzkin_numbers(0).values == (1,)

    def test_negative_upto_rejected(self):
        with pytest.raises(ValueError):
            motzkin32_numbers(-1)
        with pytest.raises(ValueError):
            ncl_counts(0)

    def test_items_pairs_index_with_value(self):
        assert list(ncl_counts(3).items()) == [(1, 1), (2, 2), (3, 6)]
        assert list(motzkin32_numbers(2).items()) == [(0, 1), (1, 3), (2, 11)]

    def test_tables_are_reusable_records(self):
        table = large_motzkin_numbers(5)
        assert isinstance(table, SequenceTable)
        assert table.max_index == 5
        assert isinstance(table.name, str) and table.name
        assert isinstance(table.recurrence, str) and table.recurrence


class TestIdentities:
    def test_all_hold_to_one_thousand(self):
        report = verify_identities(1000)
        assert report.all_pass
        assert report.max_index == 1000

    def test_check_names_cover_the_four_identities(self):
        names = {c.name for c in verify_identities(10).checks}
        assert len(names) == 4

    def test_halving_is_exact(self):
        big, little = schroder_numbers(400)
        for n in range(1, 401):
            assert big[n] == 2 * little[n]

    def test_large_equals_doubled_motzkin(self):
        m = motzkin32_numbers(199)
        large = large_motzkin_numbers(200)
        for n in range(1, 201):
            assert large[n] == 2 * m[n - 1]

    def test_ncl_shifts_the_large_sequence(self):
        table = ncl_counts(12)
        large = large_motzkin_numbers(11)
        assert table[1] == 1
        for n in range(2, 13):
            assert table[n] == large[n - 1]


class TestSeriesCrossCheck:
    """Recompute both series from their algebraic equations with sympy."""

    def test_generating_functions_match_tables(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        terms = 14

        # M(x) = 1 + 3x M + 2x^2 M^2, the colored Motzkin equation
        m_closed = (1 - 3 * x - sympy.sqrt(1 - 6 * x + x**2)) / (4 * x**2)
        m_series = sympy.series(m_closed, x, 0, terms).removeO()
        m_coeffs = [int(m_series.coeff(x, k)) for k in range(terms)]
        assert tuple(m_coeffs) == motzkin32_numbers(terms - 1).values

        # L(x) = 1 / (1 - 2x - 2x^2 M(x)), the large path equation
        l_closed = 1 / (1 - 2 * x - 2 * x**2 * m_closed)
        l_series = sympy.series(
            sympy.simplify(l_closed), x, 0, terms
        ).removeO()
        l_coeffs = [int(l_series.coeff(x, k)) for k in range(terms)]
        assert tuple(l_coeffs) == large_motzkin_numbers(terms - 1).values

        # S(x) via x S^2 - (1 - x) S + 1 = 0, the Schroeder equation
        s_closed = (1 - x - sympy.sqrt(1 - 6 * x + x**2)) / (2 * x)
        s_series = sympy.series(s_closed, x, 0, terms).removeO()
        s_coeffs = [int(s_series.coeff(x, k)) for k in range(terms)]
        assert tuple(s_coeffs) == schroder_numbers(terms - 1)[0].values


def _convolution_tables(upto):
    """m, L and S to ``upto`` by the functional-equation convolutions,
    written out here independently of the library."""
    m, large, big = [1], [1], [1]
    for n in range(1, upto + 1):
        m.append(3 * m[-1] + 2 * sum(m[j] * m[n - 2 - j] for j in range(n - 1)))
        large.append(
            2 * large[-1] + 2 * sum(m[j] * large[n - 2 - j] for j in range(n - 1))
        )
        big.append(big[-1] + sum(big[k] * big[n - 1 - k] for k in range(n)))
    return m, large, big


class TestHolonomicTables:
    def test_every_table_matches_the_convolutions_to_300(self):
        m, large, big = _convolution_tables(300)
        assert motzkin32_numbers(300).values == tuple(m)
        assert large_motzkin_numbers(300).values == tuple(large)
        schroder, little = schroder_numbers(300)
        assert schroder.values == tuple(big)
        assert little.values == (1, *(v // 2 for v in big[1:]))
        assert ncl_counts(301).values == tuple(large)

    def test_private_convolutions_match_the_written_out_ones(self):
        # every prefix up to 300, so the paired middle term is tried with
        # an odd and an even number of terms
        m, large, big = _convolution_tables(300)
        assert counting._motzkin32_convolution(300) == m
        assert counting._large_convolution(300, m) == large
        assert counting._schroder_convolution(300) == big
        for upto in (0, 1, 2):
            assert counting._motzkin32_convolution(upto) == m[: upto + 1]
            assert counting._large_convolution(upto, m) == large[: upto + 1]
            assert counting._schroder_convolution(upto) == big[: upto + 1]

    def test_twenty_thousand_terms_are_fast_and_satisfy_the_recurrence(self):
        started = time.perf_counter()
        table = large_motzkin_numbers(20000)
        assert time.perf_counter() - started < 10
        for n in (19998, 19999, 20000):
            assert (n + 1) * table[n] == (
                3 * (2 * n - 1) * table[n - 1] - (n - 2) * table[n - 2]
            )

    def test_recurrence_strings_name_the_derivation(self):
        for table in (
            motzkin32_numbers(3),
            large_motzkin_numbers(3),
            *schroder_numbers(3),
            ncl_counts(3),
        ):
            assert "S(n)" in table.recurrence

    def test_odd_schroder_term_breaks_the_halving(self, monkeypatch):
        real = counting._schroder_values
        monkeypatch.setattr(
            counting,
            "_schroder_values",
            lambda upto: [v + (i == 5) for i, v in enumerate(real(upto))],
        )
        with pytest.raises(ArithmeticError, match=r"S\(5\)"):
            schroder_numbers(8)
        with pytest.raises(ArithmeticError):
            motzkin32_numbers(8)

    def test_identities_catch_a_corrupted_holonomic_term(self, monkeypatch):
        real = counting._schroder_values
        monkeypatch.setattr(
            counting,
            "_schroder_values",
            lambda upto: [v + 2 * (i == 7) for i, v in enumerate(real(upto))],
        )
        report = verify_identities(20)
        assert not report.all_pass
        assert len(report.checks) == 4 and report.max_index == 20
        failures = {c.name: c.first_failure for c in report.checks if not c.holds}
        assert failures == {
            "L(n) = S(n)": 7,
            "S(n) = 2 s(n)": 7,
            "s(n) = m(n-1)": 7,
        }
