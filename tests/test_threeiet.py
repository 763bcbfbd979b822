"""Tests for the three-interval exchange, ternarization and bound reports."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ietlab.errors import ParameterError
from ietlab.exactreal import QuadraticReal
from ietlab.sturmian import RotationParams, rotation_word
from ietlab.threeiet import (
    NotAmicable,
    ThreeIetParams,
    bound_check,
    ternarize,
    threeiet_word,
    verify_projections,
)
from ietlab.words import SPLIT_B01, SPLIT_B10, TERNARY, Word, rotation_coding_morphism

from oracles import mp_value, step

W = Word.from_text
PHI_MINUS_1 = QuadraticReal(-1, 1, 5, 2)
SQRT2_MINUS_1 = QuadraticReal(-1, 1, 2, 1)
ZERO = QuadraticReal(0)
GOLDEN = ThreeIetParams(PHI_MINUS_1, QuadraticReal(4, 0, 0, 5), ZERO)
SILVER = ThreeIetParams(SQRT2_MINUS_1, QuadraticReal(7, 0, 0, 10), ZERO)


def mp_threeiet_word(params, n_letters):
    """Independent decimal recomputation of the orbit coding (60 digits)."""
    eps = mp_value(params.epsilon)
    ell = mp_value(params.ell)
    boundary = ell - 1 + eps
    x = mp_value(params.x0)
    out = []
    for _ in range(n_letters):
        if x < boundary:
            out.append("A")
            x += 1 - eps
        elif x < eps:
            out.append("B")
            x += 1 - 2 * eps
        else:
            out.append("C")
            x -= eps
    return "".join(out)


class TestValidation:
    def test_valid_parameters_and_intervals(self):
        params = GOLDEN
        assert params.boundary_ab == PHI_MINUS_1 - Fraction(1, 5)

    def test_ell_too_small(self):
        with pytest.raises(ParameterError, match="max"):
            ThreeIetParams(PHI_MINUS_1, QuadraticReal(1, 0, 0, 2), ZERO)

    def test_ell_too_large(self):
        with pytest.raises(ParameterError):
            ThreeIetParams(PHI_MINUS_1, QuadraticReal(1), ZERO)

    def test_rational_eps_rejected(self):
        with pytest.raises(ParameterError, match="irrational"):
            ThreeIetParams(QuadraticReal(2, 0, 0, 5), QuadraticReal(4, 0, 0, 5), ZERO)

    def test_fields_must_agree(self):
        with pytest.raises(ParameterError, match=r"epsilon and ell .* \(sqrt\(5\), sqrt\(2\)\)"):
            ThreeIetParams(PHI_MINUS_1, QuadraticReal(1, 1, 2, 3), ZERO)

    def test_x0_outside_domain(self):
        with pytest.raises(ParameterError, match="x0"):
            ThreeIetParams(PHI_MINUS_1, QuadraticReal(4, 0, 0, 5), QuadraticReal(9, 0, 0, 10))

    ELL_RANGE = "ell must satisfy max(epsilon, 1 - epsilon) < ell < 1"

    @pytest.mark.parametrize("eps, ell, x0, message", [
        (PHI_MINUS_1, QuadraticReal(1, 0, 0, 2), ZERO,
         f"{ELL_RANGE} (ell <= max(epsilon, 1 - epsilon))"),
        (PHI_MINUS_1, QuadraticReal(1), ZERO, f"{ELL_RANGE} (ell >= 1)"),
        (QuadraticReal(2, 0, 0, 5), QuadraticReal(4, 0, 0, 5), ZERO,
         "epsilon must be irrational (nonzero square-root part)"),
        (QuadraticReal(1, 1, 5, 2), QuadraticReal(4, 0, 0, 5), ZERO,
         "epsilon must lie in (0, 1)"),
        (PHI_MINUS_1, QuadraticReal(4, 0, 0, 5), QuadraticReal(9, 0, 0, 10),
         "x0 must lie in [0, ell)"),
        (PHI_MINUS_1, QuadraticReal(4, 0, 0, 5), QuadraticReal(-1, 0, 0, 10),
         "x0 must lie in [0, ell)"),
        (PHI_MINUS_1, QuadraticReal(4, 0, 0, 5), SQRT2_MINUS_1,
         "epsilon and x0 lie in different quadratic fields (sqrt(5), sqrt(2))"),
    ])
    def test_invalid_triples_refused_on_construction(self, eps, ell, x0, message):
        # no 3iet word exists for these, so none may be generated
        with pytest.raises(ParameterError) as refused:
            ThreeIetParams(eps, ell, x0)
        assert str(refused.value) == message

    def test_replace_revalidates(self):
        with pytest.raises(ParameterError, match=r"ell <= max"):
            dataclasses.replace(GOLDEN, ell=QuadraticReal(1, 0, 0, 2))
        moved = dataclasses.replace(GOLDEN, x0=QuadraticReal(1, 0, 0, 2))
        assert (moved.epsilon, moved.ell) == (GOLDEN.epsilon, GOLDEN.ell)


class TestStep:
    def test_first_step_from_zero(self):
        letter, nxt = step(GOLDEN, ZERO)
        assert letter == "A"
        assert nxt == QuadraticReal(3, -1, 5, 2)

    def test_left_closed_interval_boundary(self):
        letter, _ = step(GOLDEN, PHI_MINUS_1)
        assert letter == "C"

    def test_domain_error_at_ell(self):
        with pytest.raises(ParameterError):
            step(GOLDEN, QuadraticReal(4, 0, 0, 5))

    def test_word_equals_step_iteration(self):
        x = GOLDEN.x0
        letters = []
        for _ in range(300):
            letter, x = step(GOLDEN, x)
            letters.append(letter)
        assert threeiet_word(GOLDEN, 300).text == "".join(letters)


class TestOrbitWords:
    def test_golden_prefix(self):
        assert threeiet_word(GOLDEN, 7).text == "AACABAC"

    def test_first_letter_is_a(self):
        assert threeiet_word(GOLDEN, 1).text == "A"
        assert threeiet_word(SILVER, 1).text == "A"

    def test_silver_prefix_against_decimal_oracle(self):
        assert threeiet_word(SILVER, 20).text == "ACBBCACBCACBBCBBCACB"

    def test_long_prefixes_match_decimal_orbit(self):
        for params in (GOLDEN, SILVER):
            assert threeiet_word(params, 2000).text == mp_threeiet_word(params, 2000)

    def test_orbit_stays_in_domain(self):
        x = SILVER.x0
        ell = SILVER.ell
        for _ in range(10000):
            _, x = step(SILVER, x)
            assert x.sign() >= 0 and (x - ell).sign() < 0

    def test_projection_length_accounting(self):
        word = threeiet_word(GOLDEN, 700)
        assert len(SPLIT_B01(word)) == 700 + word.count("B")


class TestTernarization:
    def test_known_pair(self):
        assert ternarize(W("0100101"), W("0101001")) == Word("ACABAC", TERNARY)

    def test_single_letters(self):
        assert ternarize(W("0"), W("0")).text == "A"
        assert ternarize(W("01"), W("10")).text == "B"
        assert ternarize(W("1"), W("1")).text == "C"

    def test_mismatch_is_a_value(self):
        result = ternarize(W("10"), W("01"))
        assert isinstance(result, NotAmicable)
        assert result.position == 0
        assert not result

    def test_relation_not_symmetric(self):
        assert not isinstance(ternarize(W("0100101"), W("0101001")), NotAmicable)
        assert isinstance(ternarize(W("0101001"), W("0100101")), NotAmicable)

    def test_letterwise_pair(self):
        assert ternarize(W("0011"), W("0011")).text == "AACC"

    def test_length_mismatch(self):
        assert isinstance(ternarize(W("00"), W("0")), NotAmicable)

    def test_dangling_half_pair(self):
        assert ternarize(W("00"), W("01")) == NotAmicable(1, "dangling unmatched tail")

    def test_prefix_variant_still_rejects_mismatch(self):
        assert ternarize(W("11"), W("00")) == NotAmicable(0, "pair (1,0) matches no letter image")

    def test_round_trip_random_parameters(self):
        rng = random.Random(97)
        roots = [2, 3, 5, 6, 7, 10, 11, 13]
        done = 0
        while done < 50:
            eps = QuadraticReal(0, 1, roots[done % len(roots)], 1).fract()
            if eps.is_rational or eps.sign() <= 0:
                roots.append(roots[done % len(roots)] + 12)
                continue
            bound = max(eps, 1 - eps)
            ell = QuadraticReal(rng.randint((bound * 1000).floor() + 2, 999), 0, 0, 1000)
            x0 = QuadraticReal(rng.randint(0, (ell * 100).floor() - 1), 0, 0, 100)
            params = ThreeIetParams(eps, ell, x0)
            word = threeiet_word(params, 500)
            assert ternarize(SPLIT_B01(word), SPLIT_B10(word)) == word
            done += 1


class TestInducedRotation:
    def test_projection_equals_rotation_word(self):
        # B -> 01 codes the orbit of x0 and B -> 10 that of fract(x0 + 1 - ell)
        # under the exchange of [0, eps) and [eps, 1).
        cases = [
            GOLDEN,
            SILVER,
            ThreeIetParams(PHI_MINUS_1, QuadraticReal(9, 0, 0, 10), QuadraticReal(1, 0, 0, 2)),
            ThreeIetParams(PHI_MINUS_1, 3 * PHI_MINUS_1 - 1, ZERO),  # degenerate
            ThreeIetParams(SQRT2_MINUS_1, QuadraticReal(7, 0, 0, 10), QuadraticReal(1, 0, 0, 10)),
            ThreeIetParams(SQRT2_MINUS_1, QuadraticReal(3, 0, 0, 5), QuadraticReal(1, 0, 0, 3)),
        ]
        for params in cases:
            word = threeiet_word(params, 50000)
            eps, x0 = params.epsilon, params.x0
            for split, start in ((SPLIT_B01, x0), (SPLIT_B10, (x0 + 1 - params.ell).fract())):
                image = split(word)
                rotation = RotationParams(1 - eps, eps, start)
                assert image == rotation_word(rotation, len(image)), params


class TestProjectionReport:
    def test_golden_parameters(self):
        report = verify_projections(GOLDEN, 200, 10)
        assert report.passed
        assert report.to_json_dict()["passed"] is True

    def test_silver_parameters(self):
        assert verify_projections(SILVER, 500, 12).passed

    def test_single_letter_roundtrip(self):
        word = threeiet_word(GOLDEN, 1)
        assert ternarize(SPLIT_B01(word), SPLIT_B10(word)) == word

    def test_too_short_for_depth(self):
        with pytest.raises(ParameterError):
            verify_projections(GOLDEN, 30, 10)
        for depth in (0, -5):  # no certificate would be checked at all
            with pytest.raises(ParameterError, match="depth must be >= 1"):
                verify_projections(GOLDEN, 2000, depth)


class TestBoundReports:
    def test_silver_bounds(self):
        report = bound_check(SILVER, 10000)
        assert report.largest_coefficient == 2
        assert report.lower == 1 and report.upper == 5
        assert report.index_estimate <= 5
        assert report.max_power <= 4
        assert report.passed and report.lower_reached

    def test_golden_bounds(self):
        report = bound_check(GOLDEN, 10000)
        assert report.largest_coefficient == 1
        assert report.index_estimate <= 4
        assert report.max_power <= 3
        assert report.passed

    def test_report_ordering_invariant(self):
        for k in range(1, 9):
            assert k // 2 <= k + 3

    def test_finiteness_across_ell_values(self):
        # the same eps with several interval lengths keeps the upper verdicts
        for num in (62, 70, 80, 90):
            params = ThreeIetParams(
                SQRT2_MINUS_1, QuadraticReal(num, 0, 0, 100), ZERO
            )
            report = bound_check(params, 5000)
            assert report.upper_ok and report.power_ok

    def test_x0_exploration(self):
        # index estimates for different starting points stay within the bound
        for tenth in (0, 1, 3):
            params = ThreeIetParams(
                SQRT2_MINUS_1, QuadraticReal(7, 0, 0, 10), QuadraticReal(tenth, 0, 0, 10)
            )
            assert bound_check(params, 4000).upper_ok


class TestRotationCodingImages:
    def test_collapse_tables(self):
        word = Word("ACABAC", TERNARY)
        assert rotation_coding_morphism(0)(word).text == "0000100"
        assert rotation_coding_morphism(1)(word).text == "0010011001"

    def test_non_ternary_rejected(self):
        with pytest.raises(ParameterError):
            rotation_coding_morphism(0)(W("0101"))

    def test_image_of_orbit_word_is_rotation_like(self):
        # B and C collapse toward 0 blocks; the image stays binary and long
        word = threeiet_word(GOLDEN, 300)
        image = rotation_coding_morphism(0)(word)
        assert len(image) == 300 + word.count("B")
        assert set(image.text) <= {"0", "1"}
