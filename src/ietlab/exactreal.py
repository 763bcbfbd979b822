"""Exact arithmetic over a real quadratic field, with continued fractions.

A value is stored as (p + q*sqrt(d)) / r with arbitrary-precision integers,
kept in a canonical form so that equal values have identical fields:

  * r > 0 and gcd(p, q, r) == 1,
  * d is square-free, and d == q == 0 whenever the value is rational.

All comparisons are decided by integer sign analysis; integer square-root
estimates are used only to bracket floors, never to decide anything.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FieldMismatchError,
    InsufficientCoefficientsError,
    NumberParseError,
    ParameterError,
)

# Trial division stops here; a cofactor below the cube of this bound is
# certified square-free without knowing its factors.
_TRIAL_BOUND = 10 ** 6

# `cf_expand` walks at most this many states, unless more terms are asked for.
MAX_CF_STATES = 4096


# Memoized: every arithmetic result is rebuilt through here with the same
# radicand, and a prime radicand near 10^12 costs about 0.1 s of trial division.
@functools.lru_cache(maxsize=64)
def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = s*s*d0 with d0 square-free and return (s, d0).

    Trial division by every f below _TRIAL_BOUND leaves a cofactor c with no
    prime factor below the bound.  If c < _TRIAL_BOUND**3, c has at most two
    prime factors, so it is square-free unless it is a perfect square.  A
    larger cofactor cannot be certified that way and is refused, so the work
    per radicand stays bounded.
    """
    if d in (0, 1):
        return 1, d
    root = math.isqrt(d)
    if root * root == d:
        return root, 1
    s, core, c = 1, 1, d
    f = 2
    while f < _TRIAL_BOUND and f * f <= c:
        if c % f == 0:
            e = 0
            while c % f == 0:
                c //= f
                e += 1
            s *= f ** (e // 2)
            core *= f ** (e % 2)
        f += 1 if f == 2 else 2
    if f * f > c:  # c is 1 or a prime
        return s, core * c
    if c >= _TRIAL_BOUND ** 3:
        raise ParameterError(
            f"radicand {d}: its square-free part cannot be certified (a cofactor "
            f"of at least {_TRIAL_BOUND}**3 has no prime factor below {_TRIAL_BOUND})"
        )
    root = math.isqrt(c)
    if root * root == c:
        return s * root, core
    return s, core * c


class QuadraticReal:
    """Immutable exact number (p + q*sqrt(d)) / r."""

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("denominator r must be nonzero")
        if d < 0:
            raise ParameterError("negative radicand")
        if q == 0 or d == 0:
            q, d = 0, 0
        else:
            s, d = _squarefree_split(d)
            q *= s
            if d == 1:
                p += q
                q, d = 0, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(p, q), r)
        if g > 1:
            p //= g
            q //= g
            r //= g
        self.p = p
        self.q = q
        self.d = d
        self.r = r

    # -- predicates and conversions ----------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        pp = self.p * self.p
        qq = self.q * self.q * self.d
        # pp == qq would force sqrt(d) rational; impossible for square-free d > 1
        if self.p > 0:
            return 1 if pp > qq else -1
        return 1 if qq > pp else -1

    # -- field bookkeeping ---------------------------------------------------

    def _common_d(self, other: "QuadraticReal") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0 or self.d == other.d:
            return self.d
        raise FieldMismatchError(
            f"incompatible radicands {self.d} and {other.d}"
        )

    @staticmethod
    def _coerce(value):
        if isinstance(value, QuadraticReal):
            return value
        if isinstance(value, int):
            return QuadraticReal(value)
        if isinstance(value, Fraction):
            return QuadraticReal(value.numerator, 0, 0, value.denominator)
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticReal(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            d,
            self.r * o.r,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticReal(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticReal(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            d,
            self.r * o.r,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadraticReal":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.q == 0:
            return QuadraticReal(self.r, 0, 0, self.p)
        norm = self.p * self.p - self.q * self.q * self.d
        return QuadraticReal(self.r * self.p, -self.r * self.q, self.d, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._common_d(o)
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    # -- comparison ----------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison: -1, 0 or 1."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticReal with {type(other)!r}")
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.p, self.q, self.d, self.r) == (o.p, o.q, o.d, o.r)

    def __hash__(self):
        return hash((self.p, self.q, self.d, self.r))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __bool__(self):
        return not self.is_zero()

    # -- floor / fractional part ---------------------------------------------

    def floor(self) -> int:
        """Exact floor: an integer estimate off by at most one, corrected by
        exact comparison.

        root = floor(|q|*sqrt(d)) is exact, so p + q*sqrt(d) lies in
        [p + root, p + root + 1) for q > 0 and in (p - root - 1, p - root]
        for q < 0; dividing by r > 0 moves the floor by at most one.
        """
        if self.q == 0:
            return self.p // self.r
        root = math.isqrt(self.q * self.q * self.d)
        est = (self.p + (root if self.q > 0 else -root)) // self.r
        while (self - est).sign() < 0:
            est -= 1
        while (self - (est + 1)).sign() >= 0:
            est += 1
        return est

    def fract(self) -> "QuadraticReal":
        """Fractional part, exactly in [0, 1)."""
        return self - self.floor()

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if self.q == 0:
            return f"{self.p}/{self.r}" if self.r != 1 else str(self.p)
        sign = "+" if self.q > 0 else "-"
        return f"({self.p}{sign}{abs(self.q)}*sqrt({self.d}))/{self.r}"

    def __repr__(self) -> str:
        return f"QuadraticReal({self.p}, {self.q}, {self.d}, {self.r})"

    def decimal(self, significant: int = 15) -> str:
        """Decimal rendering with the given number of significant digits.

        Computed from exact integer scaling with round-half-up; trailing
        zeros after the point are stripped.
        """
        if significant < 1:
            raise ParameterError("need at least one significant digit")
        s = self.sign()
        if s == 0:
            return "0"
        y = -self if s < 0 else self
        exponent = 0
        f = y.floor()
        if f > 0:
            exponent = len(str(f)) - 1
        else:
            while y.floor() == 0:
                y = y * 10
                exponent -= 1
                if exponent < -4000:
                    raise ParameterError("value too small to render")
            y = -self if s < 0 else self
        shifted = (y * 10 ** (significant - exponent)).floor()
        rounded = (shifted + 5) // 10
        if rounded >= 10 ** significant:
            rounded //= 10
            exponent += 1
        digits = str(rounded)
        if exponent >= significant - 1:
            text = digits + "0" * (exponent + 1 - significant)
        elif exponent >= 0:
            text = digits[: exponent + 1] + "." + digits[exponent + 1 :]
        else:
            text = "0." + "0" * (-exponent - 1) + digits
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return "-" + text if s < 0 else text


def require_same_field(*named: tuple[str, QuadraticReal]) -> None:
    """Refuse values that lie in two different quadratic fields.

    ``named`` holds (name, value) pairs; the error names the first two
    irrational values with different radicands.
    """
    first = None
    for name, value in named:
        if value.q == 0:
            continue
        if first is None:
            first = (name, value.d)
        elif value.d != first[1]:
            raise FieldMismatchError.named(
                (first[0], name),
                f"lie in different quadratic fields (sqrt({first[1]}), sqrt({value.d}))",
            )


# ---------------------------------------------------------------------------
# number-literal parser
# ---------------------------------------------------------------------------

_DIGITS = re.compile(r"[0-9]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str):
        for ch in literal:
            self._skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ch:
                raise NumberParseError(f"expected {literal!r}", self.pos)
            self.pos += 1

    def uint(self) -> int:
        self._skip_ws()
        m = _DIGITS.match(self.text, self.pos)
        if not m:
            raise NumberParseError("expected an unsigned integer", self.pos)
        self.pos = m.end()
        return int(m.group())

    def int_(self) -> int:
        self._skip_ws()
        negative = False
        if self.peek() in ("+", "-"):  # not "+-": the end of input, "", is in every string
            negative = self.peek() == "-"
            self.pos += 1
        return -self.uint() if negative else self.uint()

    def sign(self) -> int:
        ch = self.peek()
        if ch not in ("+", "-"):
            raise NumberParseError("expected '+' or '-'", self.pos)
        self.pos += 1
        return -1 if ch == "-" else 1

    def end(self):
        self._skip_ws()
        if self.pos != len(self.text):
            raise NumberParseError("unexpected trailing input", self.pos)


def parse_quadratic(text: str) -> QuadraticReal:
    """Parse a number literal.

    Accepted forms (whitespace insignificant):
      * ``int`` or ``int/uint``            e.g. ``7/10``, ``-3``
      * ``(int sign uint*sqrt(uint))/uint`` e.g. ``(-1+1*sqrt(5))/2``
    """
    sc = _Scanner(text)
    if sc.peek() == "(":
        sc.expect("(")
        p = sc.int_()
        sgn = sc.sign()
        q = sc.uint()
        sc.expect("*")
        sc.expect("sqrt(")
        if sc.peek() == "-":
            raise NumberParseError("negative radicand", sc.pos)
        d = sc.uint()
        sc.expect(")")
        sc.expect(")")
        sc.expect("/")
        denom_pos = sc.pos
        r = sc.uint()
        sc.end()
        if r == 0:
            raise NumberParseError("zero denominator", denom_pos)
        return QuadraticReal(p, sgn * q, d, r)
    p = sc.int_()
    r = 1
    if sc.peek() == "/":
        sc.expect("/")
        denom_pos = sc.pos
        r = sc.uint()
        if r == 0:
            raise NumberParseError("zero denominator", denom_pos)
    sc.end()
    return QuadraticReal(p, 0, 0, r)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFExpansion:
    """Partial quotients a_1, a_2, ... of a value in (0, 1) (a_0 is 0).

    ``period`` (with ``preperiod``) marks an eventually periodic tail:
    a_{preperiod + t} = period[(t - 1) % len(period)] for all t >= 1.
    ``terminated`` marks the complete, finite expansion of a rational.
    """

    quotients: tuple[int, ...]
    terminated: bool = False
    preperiod: int | None = None
    period: tuple[int, ...] | None = None

    def __post_init__(self):
        if any(a < 1 for a in self.quotients):
            raise ParameterError("partial quotients must be positive")
        if (self.period is None) != (self.preperiod is None):
            raise ParameterError("preperiod and period must be given together")
        if self.period is not None:
            if not self.period:
                raise ParameterError("period must be nonempty")
            if self.terminated:
                raise ParameterError("a terminated expansion cannot be periodic")
            m = len(self.period)
            for t, a in enumerate(self.quotients[self.preperiod :]):
                if a != self.period[t % m]:
                    raise ParameterError("stored quotients disagree with period")

    @classmethod
    def from_quotients(cls, quotients) -> "CFExpansion":
        return cls(tuple(int(a) for a in quotients))

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    def coefficient(self, n: int) -> int:
        """The partial quotient a_n, n >= 1, extending through the period; past
        the known quotients, the one wording of that refusal for every caller."""
        if n < 1:
            raise ParameterError("coefficient index must be >= 1")
        if n <= len(self.quotients):
            return self.quotients[n - 1]
        if self.period is not None:
            return self.period[(n - 1 - self.preperiod) % len(self.period)]
        end = "the expansion terminates" if self.terminated else "no period is known"
        raise InsufficientCoefficientsError(
            f"a_{n} is needed, but the partial quotients end at a_{len(self.quotients)} and {end}"
        )

    def max_coefficient(self) -> tuple[int, bool]:
        """(largest partial quotient, whether that is exact over all n)."""
        if self.period is not None:
            head = self.quotients[: self.preperiod]
            k = max(self.period)
            if head:
                k = max(k, max(head))
            return k, True
        return max(self.quotients or (self.coefficient(1),)), self.terminated

    def iter_convergents(self) -> Iterator[tuple[int, int]]:
        """Convergents (p_N, q_N) for N = 0, 1, ..., with q_-1 = 0, q_0 = 1,
        reading a_N only when (p_N, q_N) is asked for."""
        p_prev, p_cur = 1, 0
        q_prev, q_cur = 0, 1
        for n in itertools.count(1):
            yield p_cur, q_cur
            a = self.coefficient(n)
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev

    def convergents(self, n_max: int) -> list[tuple[int, int]]:
        """Convergents (p_N, q_N) for N = 0..n_max."""
        if n_max < 0:
            raise ParameterError("n_max must be >= 0")
        return list(itertools.islice(self.iter_convergents(), n_max + 1))


def cf_expand(x: QuadraticReal, n_terms: int) -> CFExpansion:
    """Continued fraction of x in (0, 1) by exact floor/reciprocal iteration.

    For quadratic irrationals the eventually periodic tail is detected by
    exact state repetition and recorded; for rationals the expansion
    terminates and is returned with ``terminated=True``.
    """
    if n_terms < 1:
        raise ParameterError("n_terms must be >= 1")
    if x.sign() <= 0 or (x - 1).sign() >= 0:
        raise ParameterError("cf_expand requires a value in the open interval (0, 1)")
    quotients: list[int] = []
    seen: dict[QuadraticReal, int] = {x: 0}
    state = x
    preperiod = None
    period = None
    terminated = False
    limit = max(n_terms, MAX_CF_STATES)
    while len(quotients) < limit:
        y = 1 / state
        a = y.floor()
        quotients.append(a)
        state = y - a
        if state.is_zero():
            terminated = True
            break
        if state in seen:
            j = seen[state]
            preperiod = j
            period = tuple(quotients[j:])
            break
        seen[state] = len(quotients)
    if period is not None:
        while len(quotients) < n_terms:
            quotients.append(period[(len(quotients) - preperiod) % len(period)])
    return CFExpansion(
        tuple(quotients),
        terminated=terminated,
        preperiod=preperiod,
        period=period,
    )
