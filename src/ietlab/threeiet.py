"""Three-interval exchange words, their binary projections, and bound checks.

The transformation acts on [0, ell) with three half-open intervals

    I_A = [0, ell - 1 + eps),  I_B = [ell - 1 + eps, eps),  I_C = [eps, ell),

translating by 1 - eps, 1 - 2*eps and -eps respectively.  ``ThreeIetParams``
accepts only eps irrational, max(eps, 1 - eps) < ell < 1 and 0 <= x0 < ell.
The word coding an orbit projects onto two rotation-coded binary words (B
split as 01 or 10), and those two projections recombine uniquely by
ternarization, one whole-array pass over the pairs of letters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .exactreal import QuadraticReal, cf_expand, require_same_field
from .repetitions import word_index_estimate
from .sturmian import RotationParams, _orbit_word, _require_unit_interval, rotation_word
from .words import (
    BINARY,
    SPLIT_B01,
    SPLIT_B10,
    TERNARY,
    Word,
    sturmian_certificates,
)


@dataclass(frozen=True)
class ThreeIetParams:
    """Parameters (eps, ell, x0) of a three-interval exchange, checked on
    construction (``dataclasses.replace`` included)."""

    epsilon: QuadraticReal
    ell: QuadraticReal
    x0: QuadraticReal

    def __post_init__(self):
        epsilon, ell, x0 = self.epsilon, self.ell, self.x0
        require_same_field(("epsilon", epsilon), ("ell", ell), ("x0", x0))
        if epsilon.is_rational:
            raise ParameterError("epsilon must be irrational (nonzero square-root part)")
        _require_unit_interval(epsilon, "epsilon", closed_left=False)
        one_minus = 1 - epsilon
        larger = epsilon if (epsilon - one_minus).sign() >= 0 else one_minus
        if (ell - larger).sign() <= 0:
            raise ParameterError(
                "ell must satisfy max(epsilon, 1 - epsilon) < ell < 1 "
                "(ell <= max(epsilon, 1 - epsilon))"
            )
        if (ell - 1).sign() >= 0:
            raise ParameterError(
                "ell must satisfy max(epsilon, 1 - epsilon) < ell < 1 (ell >= 1)"
            )
        if x0.sign() < 0 or (x0 - ell).sign() >= 0:
            raise ParameterError("x0 must lie in [0, ell)")

    @property
    def boundary_ab(self) -> QuadraticReal:
        """Left endpoint of I_B, which is ell - 1 + eps."""
        return self.ell - 1 + self.epsilon


def threeiet_word(params: ThreeIetParams, n_letters: int) -> Word:
    """The ternary word coding the orbit of x0; equivalent to applying the
    exchange one exact step at a time.

    The exchange is the map induced on [0, ell) by the rotation
    y -> y + 1 - eps (mod 1): A and C return after one rotation step, and B
    after two, passing once through [ell, 1).  So the word is the coding of
    that rotation's orbit with the visits to [ell, 1) deleted.
    """
    eps = params.epsilon
    cuts = (
        (params.boundary_ab, "A"),
        (eps, "B"),
        (params.ell, "C"),
        (QuadraticReal(1), None),
    )
    return Word._trusted(_orbit_word(params.x0, 1 - eps, cuts, n_letters), TERNARY)


# ---------------------------------------------------------------------------
# ternarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotAmicable:
    """Returned (not raised) when two binary words have no common preimage."""

    position: int
    reason: str

    def __bool__(self):
        return False


def _require_binary(word: Word):
    if set(word.alphabet) != set(BINARY):
        raise ParameterError("ternarization needs binary words")


# Letter of each pair (first, second) coded 2*first + second: (0,0) -> A,
# (0,1) -> B (the first half of 01/10), (1,1) -> C; (1,0), coded 2, is
# deleted.
_PAIR_LETTERS = bytes.maketrans(b"\0\1\3", b"ABC")


def _bits(text: str) -> np.ndarray:
    """The letters of a binary text as 0/1 bytes."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) & 1


def ternarize(first: Word, second: Word):
    """The unique ternary word mapping to the pair, or NotAmicable.

    ``first`` plays the B -> 01 role and ``second`` the B -> 10 role; the
    relation is not symmetric.  Every pair other than (1,0) starts a letter,
    and each (1,0) must end the B begun by a (0,1) just before it.  So the
    pair fails at the first j where "pair j - 1 is (0,1)" and "pair j is
    (1,0)" disagree, with position -1 read as (0,0); a (0,1) left at n - 1 is
    a dangling half of a B.
    """
    _require_binary(first)
    _require_binary(second)
    n = len(first)
    if n != len(second):
        return NotAmicable(min(n, len(second)), "length mismatch")
    # the codes of the pairs at positions -1, 0, ..., n - 1
    pairs = _bits("0" + first.text) << 1
    pairs |= _bits("0" + second.text)
    bad = np.flatnonzero((pairs[:-1] == 1) != (pairs[1:] == 2))
    if len(bad):
        j = int(bad[0])
        if pairs[j + 1] == 2:
            return NotAmicable(j, "pair (1,0) matches no letter image")
        return NotAmicable(j, "pair (0,1) not followed by (1,0)")
    if pairs[-1] == 1:
        return NotAmicable(n - 1, "dangling unmatched tail")
    letters = pairs[1:].tobytes().translate(_PAIR_LETTERS, b"\2")
    return Word._trusted(letters.decode("ascii"), TERNARY)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionReport:
    """Checks tying a three-interval word to its two binary projections.

    The projections must recombine to the original word, certify as
    complexity n+1 and balanced (the finite-word certificates of being
    Sturmian), and the B -> 01 projection must equal the rotation word of
    the same parameters, coded from the two rotation intervals.
    """

    prefix_length: int
    certificate_depth: int
    roundtrip_ok: bool
    b01_complexity_ok: bool
    b01_balance_ok: bool
    b10_complexity_ok: bool
    b10_balance_ok: bool
    rotation_match: bool

    @property
    def passed(self) -> bool:
        return all(
            (
                self.roundtrip_ok,
                self.b01_complexity_ok,
                self.b01_balance_ok,
                self.b10_complexity_ok,
                self.b10_balance_ok,
                self.rotation_match,
            )
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_projections(
    params: ThreeIetParams, n_letters: int, depth: int
) -> ProjectionReport:
    """Generate a prefix and run the projection consistency checks."""
    if depth < 1:
        raise ParameterError(f"certificate depth must be >= 1 (got {depth})")
    word = threeiet_word(params, n_letters)
    b01 = SPLIT_B01(word)
    b10 = SPLIT_B10(word)
    if len(b01) < 20 * depth:
        raise ParameterError(
            f"projections of length {len(b01)} are too short for depth {depth}"
        )
    roundtrip = ternarize(b01, b10) == word
    del word  # freed before the certificates, which set the peak

    def certified(image: Word) -> tuple[bool, bool]:
        complexities, balance = sturmian_certificates(image, depth)
        return complexities == list(range(2, depth + 2)), balance.balanced

    c01, bal01 = certified(b01)
    c10, bal10 = certified(b10)
    eps = params.epsilon
    rot = rotation_word(RotationParams(1 - eps, eps, params.x0), len(b01))
    return ProjectionReport(
        prefix_length=n_letters,
        certificate_depth=depth,
        roundtrip_ok=roundtrip,
        b01_complexity_ok=c01,
        b01_balance_ok=bal01,
        b10_complexity_ok=c10,
        b10_balance_ok=bal10,
        rotation_match=rot == b01,
    )


@dataclass(frozen=True)
class BoundReport:
    """Index bounds in terms of the largest partial quotient K of eps.

    The index of the infinite word lies in [floor(K/2), K+3] and integer
    powers never exceed K+2; the prefix estimate is a lower bound of the
    true index, so reaching floor(K/2) is a convergence witness rather
    than a pass/fail verdict.
    """

    prefix_length: int
    largest_coefficient: int
    lower: int
    upper: int
    index_estimate: Fraction
    max_power: int
    upper_ok: bool
    power_ok: bool
    lower_reached: bool

    @property
    def passed(self) -> bool:
        return self.upper_ok and self.power_ok

    def to_json_dict(self) -> dict:
        return {
            "prefix_length": self.prefix_length,
            "largest_coefficient": self.largest_coefficient,
            "lower": self.lower,
            "upper": self.upper,
            "index_num": self.index_estimate.numerator,
            "index_den": self.index_estimate.denominator,
            "max_integer_power": self.max_power,
            "upper_ok": self.upper_ok,
            "power_ok": self.power_ok,
            "lower_reached": self.lower_reached,
            "passed": self.passed,
        }


def index_bounds(epsilon: QuadraticReal) -> tuple[int, int, int]:
    """(K, floor(K/2), K+3) for the largest partial quotient K of epsilon.

    K is exact only over a detected periodic tail, so an expansion without
    one is refused.
    """
    cf = cf_expand(epsilon, 8)
    if not cf.is_periodic:
        raise ParameterError(
            "the continued-fraction period of epsilon was not found; "
            "the largest coefficient would not be exact"
        )
    largest, _ = cf.max_coefficient()
    return largest, largest // 2, largest + 3


def bound_check(params: ThreeIetParams, n_letters: int) -> BoundReport:
    """Measure a prefix against the continued-fraction index bounds."""
    largest, lower, upper = index_bounds(params.epsilon)
    report = word_index_estimate(threeiet_word(params, n_letters))
    estimate = report.index_estimate
    return BoundReport(
        prefix_length=n_letters,
        largest_coefficient=largest,
        lower=lower,
        upper=upper,
        index_estimate=estimate,
        max_power=report.max_power,
        upper_ok=estimate <= upper,
        power_ok=report.max_power <= largest + 2,
        lower_reached=estimate >= lower,
    )
