"""The block orbit coder against the sequential exact coder and exact fract."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ietlab import sturmian
from ietlab.errors import ParameterError
from ietlab.exactreal import QuadraticReal
from ietlab.sturmian import MAX_LETTERS, RotationParams, rotation_word
from ietlab.threeiet import ThreeIetParams, threeiet_word

from oracles import rotation_pieces, sequential_orbit_word, threeiet_pieces

SQRT2_MINUS_1 = QuadraticReal(-1, 1, 2, 1)
PHI_MINUS_1 = QuadraticReal(-1, 1, 5, 2)
GOLDEN = ThreeIetParams(PHI_MINUS_1, QuadraticReal(4, 0, 0, 5), QuadraticReal(0))
HALF, THIRD = QuadraticReal(1, 0, 0, 2), QuadraticReal(1, 0, 0, 3)
BELOW_FIXED_POINT = QuadraticReal(1, 0, 0, 2**70)  # 2^-70, finer than 2^-64


@pytest.fixture
def rechecked(monkeypatch):
    """Rotation indices the coder decided exactly, in call order."""
    indices = []
    original = sturmian._exact_piece

    def counting(x0, alpha, m, ends):
        indices.append(m)
        return original(x0, alpha, m, ends)

    monkeypatch.setattr(sturmian, "_exact_piece", counting)
    return indices


class TestExactTies:
    def test_rotation_cut_hit_at_index_five(self, rechecked):
        x0 = QuadraticReal(1, 0, 0, 10)
        beta = (x0 + 5 * SQRT2_MINUS_1).fract()
        word = rotation_word(RotationParams(SQRT2_MINUS_1, beta, x0), 500)
        assert 5 in rechecked
        assert word.text[5] == "1"  # y_5 = beta lies in [beta, 1)
        expected = sequential_orbit_word(x0, rotation_pieces(SQRT2_MINUS_1, beta), 500)
        assert word.text == expected

    @pytest.mark.parametrize(
        "x0, beta, letter",
        [
            (HALF, HALF, "1"),  # a dyadic cut hit exactly: Y_0 = E_beta
            (THIRD, THIRD + BELOW_FIXED_POINT, "0"),  # beta less than 2^-64 above y_0
        ],
        ids=["dyadic_cut_hit", "cut_just_above_start"],
    )
    def test_rotation_tie_finer_than_fixed_point(self, rechecked, x0, beta, letter):
        word = rotation_word(RotationParams(SQRT2_MINUS_1, beta, x0), 500)
        assert 0 in rechecked
        assert word.text[0] == letter
        expected = sequential_orbit_word(x0, rotation_pieces(SQRT2_MINUS_1, beta), 500)
        assert word.text == expected

    @pytest.mark.parametrize(
        "x0",
        [
            1 - BELOW_FIXED_POINT,  # X = 2^64 - 1, so X + A wraps past 2^64
            1 - SQRT2_MINUS_1 + BELOW_FIXED_POINT,  # y_1 = 2^-70 but X + A < 2^64
        ],
        ids=["start_just_below_one", "orbit_just_above_zero"],
    )
    def test_rotation_wrap_finer_than_fixed_point(self, x0):
        word = rotation_word(RotationParams(SQRT2_MINUS_1, THIRD, x0), 500)
        assert word.text == sequential_orbit_word(x0, rotation_pieces(SQRT2_MINUS_1, THIRD), 500)

    @pytest.mark.parametrize("start", ["boundary_ab", "epsilon"])
    def test_threeiet_started_on_a_cut(self, rechecked, start):
        params = ThreeIetParams(GOLDEN.epsilon, GOLDEN.ell, getattr(GOLDEN, start))
        word = threeiet_word(params, 500)
        assert 0 in rechecked
        assert word.text == sequential_orbit_word(params.x0, threeiet_pieces(params), 500)


RADICANDS = (2, 3, 5, 6, 7, 13)


@st.composite
def irrationals(draw, d):
    """An irrational value in (0, 1) of the field Q(sqrt(d))."""
    q = draw(st.integers(1, 30)) * draw(st.sampled_from((1, -1)))
    return QuadraticReal(draw(st.integers(-60, 60)), q, d, draw(st.integers(1, 40))).fract()


@st.composite
def unit_fractions(draw):
    """A rational in (0, 1); a denominator 2^k, k <= 80, reaches below 2^-64."""
    den = draw(st.integers(2, 97) | st.integers(1, 80).map(lambda k: 2**k))
    return QuadraticReal(draw(st.integers(1, den - 1)), 0, 0, den)


@st.composite
def rotations(draw):
    """(alpha, beta, x0, n) with beta below, at or above 1 - alpha."""
    d = draw(st.sampled_from(RADICANDS))
    alpha = draw(irrationals(d))
    wrap = 1 - alpha
    t = draw(unit_fractions())
    order = draw(st.sampled_from(("below", "equal", "above")))
    beta = {"below": wrap * t, "equal": wrap, "above": wrap + alpha * t}[order]
    n = draw(st.integers(1, 3000))
    start = draw(st.sampled_from(("rational", "irrational", "tie")))
    if start == "rational":
        x0 = draw(unit_fractions())
    elif start == "irrational":
        x0 = draw(irrationals(d))
    else:  # the orbit hits beta exactly at index k
        x0 = (beta - draw(st.integers(0, n - 1)) * alpha).fract()
    return alpha, beta, x0, n


@st.composite
def exchanges(draw):
    """Valid 3iet parameters, sometimes started on a preimage of a cut."""
    eps = draw(irrationals(draw(st.sampled_from(RADICANDS))))
    larger = eps if eps > 1 - eps else 1 - eps
    ell = larger + (1 - larger) * draw(unit_fractions())
    n = draw(st.integers(1, 3000))
    if draw(st.booleans()):
        x0 = ell * draw(unit_fractions())
    else:
        cut = draw(st.sampled_from((ell - 1 + eps, eps, ell)))
        x0 = (cut - draw(st.integers(0, n - 1)) * (1 - eps)).fract()
        assume((x0 - ell).sign() < 0)
    return ThreeIetParams(eps, ell, x0), n


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@PROPERTY
@given(rotations())
def test_rotation_matches_sequential_coder(case):
    alpha, beta, x0, n = case
    word = rotation_word(RotationParams(alpha, beta, x0), n)
    assert word.text == sequential_orbit_word(x0, rotation_pieces(alpha, beta), n)


@PROPERTY
@given(exchanges())
def test_threeiet_matches_sequential_coder(case):
    params, n = case
    word = threeiet_word(params, n)
    assert word.text == sequential_orbit_word(params.x0, threeiet_pieces(params), n)


SMALL_BLOCK = 64


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 64 rotation indices, so a few thousand letters cross many
    block ends."""
    monkeypatch.setattr(sturmian, "_BLOCK", SMALL_BLOCK)


class TestSmallBlocks:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 3000])
    def test_rotation(self, small_blocks, n):
        x0 = QuadraticReal(1, 0, 0, 10)
        word = rotation_word(RotationParams(SQRT2_MINUS_1, THIRD, x0), n)
        assert word.text == sequential_orbit_word(x0, rotation_pieces(SQRT2_MINUS_1, THIRD), n)

    @pytest.mark.parametrize("ell", [QuadraticReal(4, 0, 0, 5), QuadraticReal(2, 0, 0, 3)])
    def test_threeiet_deletions_across_block_ends(self, small_blocks, ell):
        params = ThreeIetParams(PHI_MINUS_1, ell, QuadraticReal(1, 0, 0, 7))
        n = 3000
        text = threeiet_word(params, n).text
        assert text == sequential_orbit_word(params.x0, threeiet_pieces(params), n)
        # Each B is followed by one deleted rotation index (the visit to
        # [ell, 1)): letter i sits at index i + (number of B before i).
        codes = np.frombuffer(text.encode(), dtype=np.uint8)
        b_at = np.flatnonzero(codes == ord("B"))
        deleted = b_at + np.arange(1, len(b_at) + 1)
        assert {0, SMALL_BLOCK - 1} <= set((deleted % SMALL_BLOCK).tolist())

    def test_rotation_recheck_in_a_later_block(self, small_blocks, rechecked):
        x0 = QuadraticReal(1, 0, 0, 10)
        beta = (x0 + 200 * SQRT2_MINUS_1).fract()  # y_200 = beta exactly
        word = rotation_word(RotationParams(SQRT2_MINUS_1, beta, x0), 1000)
        assert 200 in rechecked and word.text[200] == "1"
        assert word.text == sequential_orbit_word(x0, rotation_pieces(SQRT2_MINUS_1, beta), 1000)

    def test_threeiet_recheck_in_a_later_block(self, small_blocks, rechecked):
        eps, ell = GOLDEN.epsilon, GOLDEN.ell
        # a start whose rotation orbit hits the cut eps at index k > 128
        k = next(k for k in range(129, 400) if ((eps - k * (1 - eps)).fract() - ell).sign() < 0)
        params = ThreeIetParams(eps, ell, (eps - k * (1 - eps)).fract())
        text = threeiet_word(params, 2000).text
        assert k in rechecked
        assert text == sequential_orbit_word(params.x0, threeiet_pieces(params), 2000)


class TestCoarseLevel:
    """The 32-bit level sends a point on to the 64-bit level when its coarse
    value lies within the block bound below a cut, or on it."""

    def test_cut_between_the_two_resolutions(self, rechecked):
        # beta = 1/3 + 2^-40: y_0 = 1/3 and beta agree to 32 bits, so the
        # coarse level cannot place y_0, and differ by about 2^24 at 64 bits,
        # so the 64-bit level places it without the exact coder.
        beta = THIRD + QuadraticReal(1, 0, 0, 2**40)
        assert (beta * 2**32).floor() == (THIRD * 2**32).floor()
        word = rotation_word(RotationParams(SQRT2_MINUS_1, beta, THIRD), 500)
        assert 0 not in rechecked
        assert word.text[0] == "0"
        assert word.text == sequential_orbit_word(THIRD, rotation_pieces(SQRT2_MINUS_1, beta), 500)

    def test_late_point_at_the_block_bound(self, small_blocks, rechecked):
        # A mod 2^32 = 2^32 - 1, and Y_M mod 2^32 = 2^32 - 1 at the block
        # start M: the coarse value Z_j of the last index of the block, j = 63,
        # lies j + 1 below 2^32 * y_(M+j), and the cut is y_(M+j) itself.
        # Only the full block bound flags it, and only the anchor on Y_M, not
        # on X + M*A32, keeps Z_j this close.
        alpha = QuadraticReal(0x9E3779B9 * 2**32 + 1, -1, 2, 2**64)  # about 0.618
        block, j = 20, SMALL_BLOCK - 1
        start = block * SMALL_BLOCK
        x = 0x2545F491 * 2**32 + start - 1
        x0 = QuadraticReal(2 * x + 1, 0, 0, 2**65)
        k = start + j
        beta = (x0 + k * alpha).fract()
        a = (alpha * 2**64).floor()
        assert (x0 * 2**64).floor() == x and a % 2**32 == 2**32 - 1
        anchor = ((x + start * a) % 2**64) >> 32
        coarse = (anchor + j * (a >> 32)) % 2**32
        assert (beta * 2**32).floor() - coarse == j + 1 == SMALL_BLOCK
        n = k + 50
        word = rotation_word(RotationParams(alpha, beta, x0), n)
        assert k in rechecked and word.text[k] == "1"  # y_k = beta lies in [beta, 1)
        assert word.text == sequential_orbit_word(x0, rotation_pieces(alpha, beta), n)


SMALL_PROPERTY = settings(PROPERTY, max_examples=20)


@SMALL_PROPERTY
@given(rotations())
def test_small_block_rotations_match_sequential_coder(case):
    alpha, beta, x0, n = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sturmian, "_BLOCK", SMALL_BLOCK)
        word = rotation_word(RotationParams(alpha, beta, x0), n)
    assert word.text == sequential_orbit_word(x0, rotation_pieces(alpha, beta), n)


@SMALL_PROPERTY
@given(exchanges())
def test_small_block_exchanges_match_sequential_coder(case):
    params, n = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sturmian, "_BLOCK", SMALL_BLOCK)
        word = threeiet_word(params, n)
    assert word.text == sequential_orbit_word(params.x0, threeiet_pieces(params), n)


class TestLargeIndices:
    N = 10**6

    def test_rotation_letters_from_exact_fract(self):
        alpha, beta, x0 = SQRT2_MINUS_1, QuadraticReal(1, 0, 0, 3), QuadraticReal(1, 0, 0, 10)
        text = rotation_word(RotationParams(alpha, beta, x0), self.N).text
        rng = random.Random(2024)
        for i in rng.sample(range(self.N), 2000):
            below = ((x0 + i * alpha).fract() - beta).sign() < 0
            assert text[i] == ("0" if below else "1"), i

    def test_threeiet_letters_from_exact_fract(self):
        # Letter i is coded at rotation index i + (number of B before i).
        text = threeiet_word(GOLDEN, self.N).text
        codes = np.frombuffer(text.encode(), dtype=np.uint8)
        b_before = np.concatenate(([0], np.cumsum(codes == ord("B"))))
        alpha = 1 - GOLDEN.epsilon
        ends = (GOLDEN.boundary_ab, GOLDEN.epsilon, GOLDEN.ell)
        rng = random.Random(2025)
        for i in rng.sample(range(self.N), 2000):
            y = (GOLDEN.x0 + (i + int(b_before[i])) * alpha).fract()
            letter = next(c for c, end in zip("ABC", ends) if (y - end).sign() < 0)
            assert text[i] == letter, i


def test_length_limits_are_refused():
    params = RotationParams(SQRT2_MINUS_1, QuadraticReal(1, 0, 0, 3), QuadraticReal(0))
    with pytest.raises(ParameterError, match=r"must be >= 1 \(got 0\)"):
        rotation_word(params, 0)
    with pytest.raises(ParameterError, match=rf"must be <= {MAX_LETTERS}"):
        threeiet_word(GOLDEN, MAX_LETTERS + 1)
