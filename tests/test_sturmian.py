"""Tests for rotation words, standard words, the index formula and blocks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from ietlab.errors import BlockParseError, InsufficientCoefficientsError, ParameterError
from ietlab.exactreal import CFExpansion, QuadraticReal, cf_expand
from ietlab.repetitions import word_index_estimate
from ietlab.sturmian import (
    RotationParams,
    block_decompose,
    characteristic_prefix,
    rotation_word,
    standard_word,
    sturmian_index_formula,
)
from ietlab.words import BINARY, Word, is_balanced

from oracles import (
    EXCHANGE_01,
    backtracking_block_parse,
    factors,
    fib_char_prefix,
    mp_cf,
    mp_value,
    standard_words,
)

PHI_MINUS_1 = QuadraticReal(-1, 1, 5, 2)
SQRT2_MINUS_1 = QuadraticReal(-1, 1, 2, 1)
ZERO = QuadraticReal(0)

FIB_CF = cf_expand(PHI_MINUS_1, 20)
SQRT2_CF = cf_expand(SQRT2_MINUS_1, 20)


def mp_rotation_word(alpha, beta, x0, n_letters):
    """Independent 60-digit decimal recomputation of the rotation coding."""
    a, b = mp_value(alpha), mp_value(beta)
    x = mp_value(x0)
    out = []
    for _ in range(n_letters):
        out.append("0" if x < b else "1")
        x += a
        if x >= 1:
            x -= 1
    return "".join(out)


class TestRotationWords:
    def test_golden_orbit(self):
        params = RotationParams(QuadraticReal(3, -1, 5, 2), PHI_MINUS_1, ZERO)
        assert rotation_word(params, 8).text == "00100101"

    def test_first_letter_zero_when_started_at_zero(self):
        params = RotationParams(QuadraticReal(3, -1, 5, 2), QuadraticReal(1, 0, 0, 3), ZERO)
        assert rotation_word(params, 1).text == "0"

    def test_half_cut_orbit(self):
        # {5 * alpha} = 0.9098... >= 1/2, so the sixth letter is 1
        params = RotationParams(QuadraticReal(3, -1, 5, 2), QuadraticReal(1, 0, 0, 2), ZERO)
        assert rotation_word(params, 6).text == "001011"

    def test_against_decimal_orbit(self):
        cases = [
            (QuadraticReal(3, -1, 5, 2), PHI_MINUS_1, ZERO),
            (SQRT2_MINUS_1, QuadraticReal(2, 0, 0, 3), QuadraticReal(1, 0, 0, 10)),
            (QuadraticReal(0, 1, 2, 2), QuadraticReal(3, 0, 0, 5), ZERO),
            (SQRT2_MINUS_1, QuadraticReal(1, 0, 0, 3), ZERO),
        ]
        for alpha, beta, x0 in cases:
            params = RotationParams(alpha, beta, x0)
            assert rotation_word(params, 500).text == mp_rotation_word(alpha, beta, x0, 500)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            RotationParams(QuadraticReal(1, 0, 0, 3), PHI_MINUS_1, ZERO)
        with pytest.raises(ParameterError):
            RotationParams(SQRT2_MINUS_1, QuadraticReal(1), ZERO)
        with pytest.raises(ParameterError):
            RotationParams(SQRT2_MINUS_1, PHI_MINUS_1, QuadraticReal(1))
        with pytest.raises(ParameterError, match=r"alpha and beta .* \(sqrt\(2\), sqrt\(5\)\)"):
            RotationParams(SQRT2_MINUS_1, PHI_MINUS_1, ZERO)
        with pytest.raises(ParameterError, match=r"alpha and x0 .* \(sqrt\(5\), sqrt\(2\)\)"):
            RotationParams(1 - PHI_MINUS_1, PHI_MINUS_1, SQRT2_MINUS_1)

    def test_sturmian_certificates(self):
        word = rotation_word(RotationParams(1 - PHI_MINUS_1, PHI_MINUS_1, ZERO), 1000)
        for n in range(1, 21):
            assert word.factor_complexity(n) == n + 1
        assert is_balanced(word, 20).balanced


class TestStandardWords:
    def test_base_cases(self):
        assert standard_word(FIB_CF, -1).text == "1"
        assert standard_word(FIB_CF, 0).text == "0"

    def test_golden_recursion(self):
        assert [standard_word(FIB_CF, n).text for n in range(1, 5)] == \
            ["1", "10", "101", "10110"]

    def test_first_level_with_larger_quotient(self):
        assert standard_word(SQRT2_CF, 1).text == "01"

    def test_insufficient_coefficients(self):
        cf = CFExpansion.from_quotients([1, 1])
        with pytest.raises(InsufficientCoefficientsError):
            standard_word(cf, 4)

    @pytest.mark.parametrize("level", [50, 30000])
    def test_level_past_the_letter_limit(self, level):
        # q_30000 has thousands of digits: the refusal must not format it.
        cf = CFExpansion.from_quotients([1] * 30000)
        with pytest.raises(ParameterError, match=rf"^level: s_{level} has more than 2147483648 letters$"):
            standard_word(cf, level)

    def test_prefix_stability(self):
        for cf in (FIB_CF, SQRT2_CF, cf_expand(QuadraticReal(0, 1, 2, 2), 20)):
            words = [standard_word(cf, n).text for n in range(1, 13)]
            for shorter, longer in zip(words, words[1:]):
                assert longer.startswith(shorter)


class TestCharacteristicPrefix:
    def test_golden_prefix(self):
        assert characteristic_prefix(FIB_CF, 8).text == "10110101"
        assert characteristic_prefix(FIB_CF, 1).text == standard_word(FIB_CF, 2).text[:1]

    def test_sqrt2_prefix(self):
        assert characteristic_prefix(SQRT2_CF, 6).text == "010100"

    def test_matches_plain_recursion(self):
        assert characteristic_prefix(FIB_CF, 2000).text == fib_char_prefix(2000)

    def test_runs_out_without_period(self):
        cf = CFExpansion.from_quotients([1, 1, 1])
        with pytest.raises(InsufficientCoefficientsError,
                           match=r"^a_4 is needed, but the partial quotients end at a_3 "
                                 r"and no period is known$"):
            characteristic_prefix(cf, 100)

    def test_partial_last_step_reads_no_further_coefficient(self):
        # s_1 = 001 and s_2 = (001)^5 0; two copies of s_1 cover five letters
        assert characteristic_prefix(CFExpansion.from_quotients([3, 5]), 5).text == "00100"

    @pytest.mark.parametrize("cf", [FIB_CF, SQRT2_CF,
                                    CFExpansion.from_quotients([1, 2, 3, 4] * 10)])
    def test_agrees_with_standard_words(self, cf):
        # n = |s_L| is the longest prefix s_L covers; n = |s_L| + 1 needs s_(L+1)
        words = list(itertools.islice(standard_words(cf), 13))
        for n in [len(word) + extra for word in words[:12] for extra in (0, 1)]:
            covering = next(word for word in words if len(word) >= n)
            assert characteristic_prefix(cf, n).text == covering[:n]


class TestIndexFormula:
    def test_golden_terms(self):
        result = sturmian_index_formula(FIB_CF, 3)
        assert result.terms == (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3))
        assert result.truncated_sup == 3

    def test_golden_truncation_at_12(self):
        result = sturmian_index_formula(FIB_CF, 12)
        q = [pq[1] for pq in FIB_CF.convergents(12)]
        assert result.truncated_sup == 2 + 1 + Fraction(q[11] - 2, q[12])
        assert result.truncated_sup == Fraction(841, 233)
        assert result.sup_at == 12

    def test_golden_periodic_limit(self):
        result = sturmian_index_formula(FIB_CF, 12)
        assert result.periodic_limit == QuadraticReal(5, 1, 5, 2)
        assert abs(float(mp_value(result.periodic_limit)) - 3.618033988749895) < 1e-12

    def test_sqrt2_limit(self):
        result = sturmian_index_formula(SQRT2_CF, 10)
        assert result.periodic_limit == QuadraticReal(3, 1, 2, 1)
        assert result.largest_coefficient == 2
        assert result.to_json_dict()["finite"] and not result.window_only

    @pytest.mark.parametrize("eps, period", [
        (QuadraticReal(-1, 1, 3, 1), (1, 2)),  # sqrt(3) - 1
        (QuadraticReal(-5, 3, 5, 10), (5, 1)),  # (3*sqrt(5) - 5)/10
    ])
    def test_limit_over_a_longer_period(self, eps, period):
        assert mp_cf(mp_value(eps), 12) == [period[n % 2] for n in range(12)]
        # Independently: q_N by the integer recursion from the typed quotients;
        # the terms of two consecutive large N cover both residues of the period.
        a = [period[n % 2] for n in range(202)]  # a[n] = a_(n+1)
        q = [1, a[0]]  # q[N] = q_N
        for n in range(1, 201):
            q.append(a[n] * q[n] + q[n - 1])
        expected = max(2 + a[n] + mpf(q[n - 1]) / q[n] for n in (200, 201))
        limit = sturmian_index_formula(cf_expand(eps, 8), 10).periodic_limit
        assert abs(mp_value(limit) - expected) < mpf(10) ** -30

    def test_window_only_flag(self):
        result = sturmian_index_formula(CFExpansion.from_quotients([1, 2, 1, 2]), 2)
        assert result.window_only

    def test_terms_approach_limit_from_below(self):
        result = sturmian_index_formula(FIB_CF, 18)
        limit = result.periodic_limit
        for term in result.terms[2:]:
            assert (limit - Fraction(term)).sign() > 0
        gap = limit - Fraction(result.terms[-1])
        assert (gap - Fraction(1, 1000)).sign() < 0

    def test_rational_rejected(self):
        with pytest.raises(ParameterError):
            sturmian_index_formula(cf_expand(QuadraticReal(3, 0, 0, 7), 5), 1)

    def test_estimate_bounded_by_truncated_formula(self):
        for cf in (FIB_CF, SQRT2_CF, cf_expand(QuadraticReal(0, 1, 2, 2), 20)):
            prefix = characteristic_prefix(cf, 2000)
            estimate = word_index_estimate(prefix).index_estimate
            assert estimate <= sturmian_index_formula(cf, 17).truncated_sup


class TestBlockDecomposition:
    def test_level_three_parse(self):
        prefix = standard_word(FIB_CF, 6)
        parse = block_decompose(prefix, FIB_CF, 3)
        assert parse.root == "101" and parse.filler == "10" and parse.k == 1
        assert parse.tags == ("short", "long")
        assert parse.consumed == 13 and parse.tail_length == 0

    def test_level_two_needs_backtracking(self):
        parse = block_decompose(standard_word(FIB_CF, 6), FIB_CF, 2)
        assert parse.tags == ("short", "long", "short")
        assert parse.tail_length == 2
        assert parse.reconstruct() == standard_word(FIB_CF, 6).text[: parse.consumed]

    def test_single_short_block(self):
        short = Word("101" + "10", BINARY)  # E^k F at level 3
        parse = block_decompose(short, FIB_CF, 3)
        assert parse.tags == ("short",)
        assert parse.tail_length == 0

    def test_round_trip_many_levels(self):
        for cf in (FIB_CF, SQRT2_CF):
            prefix = characteristic_prefix(cf, 200)
            for level in (1, 2, 3, 4):
                parse = block_decompose(prefix, cf, level)
                assert parse.reconstruct() == prefix.text[: parse.consumed]
                assert parse.tail_length < len(parse.long_block)
                assert parse.consumed + parse.tail_length == 200

    def test_rejects_foreign_prefix(self):
        with pytest.raises(BlockParseError):
            block_decompose(Word("1111111111", BINARY), FIB_CF, 2)

    def test_level_validation(self):
        with pytest.raises(ParameterError):
            block_decompose(characteristic_prefix(FIB_CF, 30), FIB_CF, 0)

    def test_short_block_longer_than_prefix_builds_nothing(self):
        # s_90 of the golden slope has F_91 > 4 * 10^18 letters
        cf = CFExpansion.from_quotients([1] * 100)
        with pytest.raises(BlockParseError, match=r"^prefix does not begin with either block"):
            block_decompose(characteristic_prefix(cf, 100), cf, 90)


def assert_parse_matches_backtracking(prefix, cf, level):
    """block_decompose gives the backtracking parse, or the same error."""
    try:
        expected = backtracking_block_parse(prefix, cf, level)
    except BlockParseError as exc:
        with pytest.raises(BlockParseError) as got:
            block_decompose(prefix, cf, level)
        assert str(got.value) == str(exc)
        return
    parse = block_decompose(prefix, cf, level)
    assert (parse.tags, parse.consumed) == (expected.tags, expected.consumed)
    assert (parse.root, parse.filler, parse.k) == (expected.root, expected.filler, expected.k)


@pytest.mark.parametrize("quotients", [
    [1] * 8, [2] * 8, [1, 2] * 4, [2, 1, 3, 1, 2, 1, 1, 1], [3, 1, 1, 2, 1, 1, 1, 1],
])
def test_greedy_parse_matches_backtracking_on_every_short_word(quotients):
    cf = CFExpansion.from_quotients(quotients)
    words = ["0", *itertools.islice(standard_words(cf), 7)]  # s_0, s_1, ..., s_7
    for level in (1, 2, 3):
        # the root and filler against the plain recursion
        parse = block_decompose(Word(words[7], BINARY), cf, level)
        assert (parse.root, parse.filler) == (words[level], words[level - 1])
        for length in range(1, 13):
            for letters in itertools.product("01", repeat=length):
                assert_parse_matches_backtracking(Word("".join(letters), BINARY), cf, level)


@settings(max_examples=300, deadline=None)
@given(
    quotients=st.lists(st.integers(1, 6), min_size=20, max_size=20),  # q_19 > 3000
    level=st.integers(1, 8),
    standard=st.booleans(),
    size=st.integers(1, 3000),
)
def test_greedy_parse_matches_backtracking_on_sturmian_prefixes(quotients, level, standard, size):
    cf = CFExpansion.from_quotients(quotients)
    if standard:
        # the longest standard word of at most `size` letters, s_1 at least
        m = max([1] + [n for n, (_, q) in enumerate(cf.convergents(19)) if n and q <= size])
        prefix = Word(next(itertools.islice(standard_words(cf), m - 1, None)), BINARY)
    else:
        prefix = characteristic_prefix(cf, size)
    assert_parse_matches_backtracking(prefix, cf, level)


class TestLanguageCoincidence:
    def test_exchanged_fixed_word_and_rotation_share_factors(self):
        # the fixed word carries the letters exchanged relative to the
        # rotation coding; factor sets agree after applying the exchange
        n = 240
        for cf, eps in ((FIB_CF, PHI_MINUS_1), (SQRT2_CF, SQRT2_MINUS_1)):
            exchanged = EXCHANGE_01(characteristic_prefix(cf, n))
            rot_long = rotation_word(RotationParams(1 - eps, eps, ZERO), 10 * n)
            for length in (1, 5, 10, 15):
                assert factors(exchanged, length) <= factors(rot_long, length)
            rot = rotation_word(RotationParams(1 - eps, eps, ZERO), n)
            exchanged_long = EXCHANGE_01(characteristic_prefix(cf, 10 * n))
            for length in (1, 5, 10, 15):
                assert factors(rot, length) <= factors(exchanged_long, length)
