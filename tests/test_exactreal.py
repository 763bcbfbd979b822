"""Tests for exact quadratic arithmetic, parsing and continued fractions."""

import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf, sqrt

from ietlab.errors import (
    FieldMismatchError,
    InsufficientCoefficientsError,
    NumberParseError,
    ParameterError,
)
from ietlab.exactreal import CFExpansion, QuadraticReal, cf_expand, parse_quadratic

from oracles import mp_cf, mp_value

mp.dps = 60

PHI_MINUS_1 = QuadraticReal(-1, 1, 5, 2)  # (sqrt(5)-1)/2
SQRT2_MINUS_1 = QuadraticReal(-1, 1, 2, 1)


class TestParser:
    def test_golden_ratio_literal(self):
        x = parse_quadratic("(-1+1*sqrt(5))/2")
        assert (x.p, x.q, x.d, x.r) == (-1, 1, 5, 2)

    def test_square_extraction_and_reduction(self):
        # 2*sqrt(8)/4 simplifies to sqrt(2); checked against the decimal oracle
        x = parse_quadratic("(0+2*sqrt(8))/4")
        assert (x.p, x.q, x.d, x.r) == (0, 1, 2, 1)
        assert abs(mp_value(x) - sqrt(2)) < mpf(10) ** -50

    def test_rational_literals(self):
        assert parse_quadratic("7/10") == QuadraticReal(7, 0, 0, 10)
        assert parse_quadratic("3") == QuadraticReal(3)
        assert parse_quadratic("-1/2") == QuadraticReal(-1, 0, 0, 2)

    def test_whitespace_insignificant(self):
        assert parse_quadratic(" ( -1 + 1 * sqrt( 5 ) ) / 2 ") == PHI_MINUS_1

    def test_syntax_error_reports_position(self):
        # first diverging character: the '(' of "sqr(" where 't' was expected
        with pytest.raises(NumberParseError) as info:
            parse_quadratic("(1+2*sqr(5))/2")
        assert info.value.position == 8

    def test_zero_denominator(self):
        with pytest.raises(NumberParseError):
            parse_quadratic("7/0")
        with pytest.raises(NumberParseError):
            parse_quadratic("(1+1*sqrt(5))/0")

    def test_negative_radicand(self):
        with pytest.raises(NumberParseError):
            parse_quadratic("(1+1*sqrt(-5))/2")

    def test_trailing_garbage(self):
        with pytest.raises(NumberParseError):
            parse_quadratic("(-1+1*sqrt(2))/1-1")

    def test_string_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            x = QuadraticReal(
                rng.randint(-50, 50), rng.randint(-9, 9), rng.randint(0, 30),
                rng.randint(1, 40),
            )
            assert parse_quadratic(str(x)) == x


class TestArithmetic:
    def test_golden_square(self):
        # symbolic expansion: ((sqrt(5)-1)/2)^2 = (6-2*sqrt(5))/4 = (3-sqrt(5))/2
        assert PHI_MINUS_1 * PHI_MINUS_1 == QuadraticReal(3, -1, 5, 2)

    def test_additive_identity(self):
        assert PHI_MINUS_1 + 0 == PHI_MINUS_1

    def test_one_minus_eps(self):
        assert 1 - PHI_MINUS_1 == QuadraticReal(3, -1, 5, 2)
        assert abs(mp_value(1 - PHI_MINUS_1) - mpf("0.381966011250105")) < 1e-14

    def test_division_and_reciprocal(self):
        assert 1 / PHI_MINUS_1 == QuadraticReal(1, 1, 5, 2)
        assert PHI_MINUS_1 / PHI_MINUS_1 == QuadraticReal(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            1 / QuadraticReal(0)

    def test_incompatible_radicands(self):
        with pytest.raises(FieldMismatchError):
            PHI_MINUS_1 + SQRT2_MINUS_1

    def test_rational_mixes_with_any_field(self):
        assert PHI_MINUS_1 + Fraction(1, 2) == QuadraticReal(0, 1, 5, 2)

    def test_random_ops_against_decimal_oracle(self):
        rng = random.Random(11)
        for _ in range(400):
            d = rng.choice([2, 3, 5, 6, 7])
            a = QuadraticReal(rng.randint(-20, 20), rng.randint(-5, 5), d, rng.randint(1, 15))
            b = QuadraticReal(rng.randint(-20, 20), rng.randint(-5, 5), d, rng.randint(1, 15))
            assert abs(mp_value(a + b) - (mp_value(a) + mp_value(b))) < 1e-45
            assert abs(mp_value(a - b) - (mp_value(a) - mp_value(b))) < 1e-45
            assert abs(mp_value(a * b) - (mp_value(a) * mp_value(b))) < 1e-40
            if not b.is_zero():
                assert abs(mp_value(a / b) - (mp_value(a) / mp_value(b))) < 1e-38

    def test_square_parts_of_radicands(self):
        big = 1000003  # a prime above the trial-division bound
        cases = {
            12: (2, 3),
            72: (6, 2),
            2 * big * big: (big, 2),
            big * 1000033: (1, big * 1000033),
        }
        for d, (q, core) in cases.items():
            x = QuadraticReal(0, 1, d, 1)
            assert (x.p, x.q, x.d, x.r) == (0, q, core, 1)
        assert QuadraticReal(0, 1, big * big, 1) == QuadraticReal(big)

    def test_uncertifiable_radicand_refused(self):
        with pytest.raises(ParameterError, match="cannot be certified"):
            QuadraticReal(0, 1, 10**30 + 57, 1)

    def test_canonicalization_idempotent(self):
        rng = random.Random(13)
        for _ in range(300):
            x = QuadraticReal(
                rng.randint(-60, 60), rng.randint(-8, 8), rng.randint(0, 50),
                rng.randint(1, 30),
            )
            again = QuadraticReal(x.p, x.q, x.d, x.r)
            assert (again.p, again.q, again.d, again.r) == (x.p, x.q, x.d, x.r)
            assert x.r > 0
            if x.q == 0:
                assert x.d == 0


class TestComparison:
    def test_known_orderings(self):
        assert PHI_MINUS_1.compare(Fraction(309, 500)) > 0
        assert PHI_MINUS_1.compare(PHI_MINUS_1) == 0
        assert SQRT2_MINUS_1.compare(Fraction(1, 2)) < 0

    def test_order_against_decimal_oracle(self):
        rng = random.Random(17)
        for _ in range(500):
            d = rng.choice([2, 3, 5, 7, 10])
            a = QuadraticReal(rng.randint(-30, 30), rng.randint(-6, 6), d, rng.randint(1, 20))
            b = QuadraticReal(rng.randint(-30, 30), rng.randint(-6, 6), d, rng.randint(1, 20))
            got = a.compare(b)
            diff = mp_value(a) - mp_value(b)
            if abs(diff) > 1e-40:
                assert got == (1 if diff > 0 else -1)
            else:
                assert got == 0

    def test_translation_invariance(self):
        rng = random.Random(19)
        for _ in range(300):
            d = rng.choice([2, 5])
            a = QuadraticReal(rng.randint(-30, 30), rng.randint(-6, 6), d, rng.randint(1, 20))
            b = QuadraticReal(rng.randint(-30, 30), rng.randint(-6, 6), d, rng.randint(1, 20))
            assert (a + b).compare(b) == a.compare(0)


class TestFloorFract:
    def test_golden_ratio(self):
        phi = QuadraticReal(1, 1, 5, 2)
        assert phi.floor() == 1
        assert phi.fract() == PHI_MINUS_1

    def test_rationals(self):
        assert QuadraticReal(7, 0, 0, 10).floor() == 0
        assert QuadraticReal(7, 0, 0, 10).fract() == QuadraticReal(7, 0, 0, 10)
        assert QuadraticReal(-1, 0, 0, 2).floor() == -1
        assert QuadraticReal(-1, 0, 0, 2).fract() == QuadraticReal(1, 0, 0, 2)

    def test_fract_always_in_unit_interval(self):
        rng = random.Random(23)
        for _ in range(1000):
            x = QuadraticReal(
                rng.randint(-10**6, 10**6), rng.randint(-999, 999),
                rng.randint(0, 60), rng.randint(1, 500),
            )
            f = x.fract()
            assert f.compare(0) >= 0
            assert f.compare(1) < 0
            assert x - f == QuadraticReal(x.floor())

    def test_floor_against_decimal_oracle(self):
        rng = random.Random(29)
        for _ in range(400):
            x = QuadraticReal(
                rng.randint(-5000, 5000), rng.randint(-99, 99),
                rng.randint(0, 40), rng.randint(1, 60),
            )
            assert x.floor() == int(mp.floor(mp_value(x)))

    def test_huge_coefficients_floor_fast(self):
        # (p + 10^48*sqrt(2))/1 with p = -floor(10^48*sqrt(2)) lies in (0, 1)
        q = 10**48
        x = QuadraticReal(-math.isqrt(2 * q * q), q, 2, 1)
        start = time.perf_counter()
        floor, cf, text = x.floor(), cf_expand(x, 8), x.decimal()
        assert time.perf_counter() - start < 1.0
        with mp.workdps(150):  # the value cancels 48 leading digits
            assert floor == 0
            assert cf.quotients[:8] == tuple(mp_cf(mp_value(x), 8))
            assert text == mp.nstr(mp_value(x), 15)
            for e in (20, 42, 45, 60, 100):
                y = QuadraticReal(7, -(10**e), 3, 11)
                assert y.floor() == int(mp.floor(mp_value(y)))

    def test_oracle_keeps_cancelled_digits(self):
        # At the oracle's default 60 digits, 48 of which cancel here.
        q = 10**48
        x = QuadraticReal(-math.isqrt(2 * q * q), q, 2, 1)
        assert mp.nstr(mp_value(x), 15) == x.decimal() == "0.948073176679738"


class TestDecimalRendering:
    def test_known_values(self):
        assert PHI_MINUS_1.decimal() == "0.618033988749895"
        assert QuadraticReal(7, 0, 0, 10).decimal() == "0.7"
        assert QuadraticReal(0).decimal() == "0"
        assert QuadraticReal(-1, 0, 0, 2).decimal() == "-0.5"
        assert QuadraticReal(5, 1, 5, 2).decimal() == "3.61803398874989"

    def test_against_mpmath(self):
        rng = random.Random(31)
        for _ in range(200):
            x = QuadraticReal(
                rng.randint(-500, 500), rng.randint(-20, 20),
                rng.randint(0, 30), rng.randint(1, 50),
            )
            if x.is_zero():
                continue
            rendered = float(x.decimal())
            assert abs(rendered - float(mp_value(x))) <= 1e-12 * max(1.0, abs(rendered))


class TestContinuedFractions:
    def test_golden_expansion(self):
        cf = cf_expand(PHI_MINUS_1, 5)
        assert cf.quotients[:5] == (1, 1, 1, 1, 1)
        assert cf.preperiod == 0
        assert cf.period == (1,)
        assert not cf.terminated

    def test_sqrt2_expansion(self):
        cf = cf_expand(SQRT2_MINUS_1, 4)
        assert cf.quotients[:4] == (2, 2, 2, 2)
        assert cf.period == (2,)

    def test_rational_terminates(self):
        cf = cf_expand(QuadraticReal(3, 0, 0, 7), 10)
        assert cf.quotients == (2, 3)
        assert cf.terminated
        with pytest.raises(InsufficientCoefficientsError):
            cf.coefficient(3)

    @pytest.mark.parametrize("cf, end", [
        (CFExpansion.from_quotients([1, 2]), "no period is known"),
        (CFExpansion((1, 2), terminated=True), "the expansion terminates"),
    ])
    def test_coefficient_past_the_quotients(self, cf, end):
        message = f"a_3 is needed, but the partial quotients end at a_2 and {end}"
        with pytest.raises(InsufficientCoefficientsError, match=f"^{message}$"):
            cf.coefficient(3)

    def test_largest_of_no_quotients(self):
        with pytest.raises(InsufficientCoefficientsError, match="^a_1 is needed, but the partial "
                           "quotients end at a_0 and no period is known$"):
            CFExpansion(()).max_coefficient()

    def test_preperiodic_case(self):
        # sqrt(2)/2 expands with one coefficient before the periodic part
        cf = cf_expand(QuadraticReal(0, 1, 2, 2), 6)
        assert cf.quotients[:6] == (1, 2, 2, 2, 2, 2)
        assert cf.preperiod == 1
        assert cf.period == (2,)

    def test_against_decimal_cf_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            d = rng.choice([2, 3, 5, 6, 7, 10, 13])
            x = QuadraticReal(rng.randint(-4, 4), 1, d, rng.randint(3, 12)).fract()
            if x.is_zero() or x.is_rational:
                continue
            cf = cf_expand(x, 12)
            assert list(cf.quotients[:12]) == mp_cf(mp_value(x), 12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            cf_expand(QuadraticReal(3, 0, 0, 2), 4)
        with pytest.raises(ParameterError):
            cf_expand(QuadraticReal(0), 4)

    def test_period_regenerates_direct_expansion(self):
        for x in (PHI_MINUS_1, SQRT2_MINUS_1, QuadraticReal(0, 1, 2, 2),
                  QuadraticReal(-2, 1, 7, 1).fract()):
            short = cf_expand(x, 4)
            assert short.is_periodic
            span = 3 * len(short.period) + short.preperiod
            direct = cf_expand(x, span)
            assert [short.coefficient(n) for n in range(1, span + 1)] == \
                list(direct.quotients[:span])


class TestConvergents:
    def test_golden_denominators(self):
        cf = CFExpansion.from_quotients([1, 1, 1, 1, 1])
        assert [q for _, q in cf.convergents(5)] == [1, 1, 2, 3, 5, 8]

    def test_sqrt2_denominators(self):
        cf = CFExpansion.from_quotients([2, 2, 2])
        assert [q for _, q in cf.convergents(3)] == [1, 2, 5, 12]

    def test_zeroth_convention(self):
        cf = CFExpansion.from_quotients([4, 7])
        assert cf.convergents(0) == [(0, 1)]

    def test_recurrence(self):
        cf = cf_expand(SQRT2_MINUS_1, 12)
        convs = cf.convergents(12)
        for n in range(2, 13):
            a = cf.coefficient(n)
            assert convs[n][0] == a * convs[n - 1][0] + convs[n - 2][0]
            assert convs[n][1] == a * convs[n - 1][1] + convs[n - 2][1]

    def test_approximation_quality_exact(self):
        # |x - p/q| < 1/q^2, decided purely by exact comparison
        for x in (PHI_MINUS_1, SQRT2_MINUS_1, QuadraticReal(0, 1, 2, 2)):
            cf = cf_expand(x, 10)
            for n, (p, q) in enumerate(cf.convergents(10)):
                if n == 0:
                    continue
                err = x - Fraction(p, q)
                if err.sign() < 0:
                    err = -err
                assert (err * q * q).compare(1) < 0

    def test_insufficient_without_period(self):
        cf = CFExpansion.from_quotients([1, 2, 3])
        with pytest.raises(InsufficientCoefficientsError):
            cf.convergents(5)

    def test_lazy_convergents_stop_at_the_known_terms(self):
        # the generator reads a_N only when (p_N, q_N) is asked for
        stream = CFExpansion.from_quotients([1, 2, 3]).iter_convergents()
        assert [next(stream) for _ in range(4)] == [(0, 1), (1, 1), (2, 3), (7, 10)]
        with pytest.raises(InsufficientCoefficientsError):
            next(stream)
