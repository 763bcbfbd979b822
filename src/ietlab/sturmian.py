"""Rotation-coded binary words, standard words, and their repetition formula.

The rotation coding writes letter 0 exactly when the orbit point falls in
[0, beta).  The two-interval exchange with parameter eps has no generator of
its own: its word is ``rotation_word(RotationParams(1 - eps, eps, x0), n)``.
Its distinguished fixed word of the same slope is built from the
standard-word recursion driven by the continued fraction of eps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import BlockParseError, ParameterError
from .exactreal import CFExpansion, QuadraticReal, require_same_field
from .words import BINARY, Word


def _require_unit_interval(value: QuadraticReal, name: str, closed_left: bool):
    low = value.sign() >= 0 if closed_left else value.sign() > 0
    if not (low and (value - 1).sign() < 0):
        bracket = "[0, 1)" if closed_left else "(0, 1)"
        raise ParameterError.named((name,), f"must lie in {bracket}")


@dataclass(frozen=True)
class RotationParams:
    """Rotation by alpha with cut point beta, started at x0."""

    alpha: QuadraticReal
    beta: QuadraticReal
    x0: QuadraticReal

    def __post_init__(self):
        require_same_field(("alpha", self.alpha), ("beta", self.beta), ("x0", self.x0))
        if self.alpha.is_rational:
            raise ParameterError.named(("alpha",), "must be irrational")
        _require_unit_interval(self.alpha, "alpha", closed_left=False)
        _require_unit_interval(self.beta, "beta", closed_left=False)
        _require_unit_interval(self.x0, "x0", closed_left=True)


# Longest prefix the orbit coder writes, part of the CLI contract (-N).  A
# 3iet letter takes at most two rotation steps, so rotation indices stay
# below 2**32, as the 32-bit level of the fixed-point proof needs (_orbit_word).
MAX_LETTERS = 2**31
# Rotation indices per numpy block.
_BLOCK = 2**15


def require_length(n_letters: int, name: str = "n_letters") -> None:
    """Refuse a prefix length outside [1, MAX_LETTERS], naming it."""
    if n_letters < 1:
        raise ParameterError(f"{name}: must be >= 1 (got {n_letters})")
    if n_letters > MAX_LETTERS:
        raise ParameterError(f"{name}: must be <= {MAX_LETTERS} (got {n_letters})")


def _exact_piece(
    x0: QuadraticReal, alpha: QuadraticReal, m: int, ends: tuple[QuadraticReal, ...]
) -> int:
    """Index of the first right end exceeding fract(x0 + m*alpha), exactly."""
    y = (x0 + m * alpha).fract()
    return next(i for i, end in enumerate(ends) if (y - end).sign() < 0)


def _orbit_word(
    x0: QuadraticReal,
    alpha: QuadraticReal,
    cuts: tuple[tuple[QuadraticReal, str | None], ...],
    n_letters: int,
) -> str:
    """Letters of the intervals visited by y_m = fract(x0 + m*alpha), m = 0, 1, ...

    ``cuts`` holds (right_end, letter) sorted by exact right end, the last
    right end being 1; the interval of y is the first whose right end
    exceeds it, and the letter None deletes that interval's visits.

    Each block is coded in 32-bit fixed point; the few points this cannot
    place go to 64-bit fixed point, and the few of those to exact arithmetic.
    With X, A and E_c the floors of 2^64 times x0, alpha and each cut c < 1,
    let Y_m = (X + m*A) mod 2^64.  X + m*A <= 2^64*(x0 + m*alpha)
    < X + m*A + m + 1, so Y_m <= 2^64*y_m < Y_m + m + 1 unless a multiple of
    2^64 lies in (Y_m, Y_m + m].  So Y_m places y_m on the correct side of
    every cut unless (E_c - Y_m) mod 2^64 <= m for some c, the cut 0 = 1
    counting as E = 0.

    The block from index m is anchored on H = Y_m >> 32: with A32 = A >> 32
    and E32_c = E_c >> 32 = floor(2^32*c), Z_j = (H + j*A32) mod 2^32.  With
    r = Y_m mod 2^32 and s = A mod 2^32, 2^32*(x0 + (m+j)*alpha) = Z_j + R
    modulo 2^32, where R = (r + j*s + f)/2^32 and 0 <= f < m + j + 1, so
    0 <= R < j + 1 + m/2^32 < j + 2 as m < 2^32.  A wrap past 2^32 needs
    (0 - Z_j) mod 2^32 <= j + 1.  Else Z_j < E32_c <= 2^32*y_(m+j) needs
    E32_c - Z_j <= j + 1, and E32_c <= Z_j <= 2^32*y_(m+j) < 2^32*c needs
    Z_j = E32_c.  So Z_j places y_(m+j) on the correct side of every cut
    unless (E32_c - Z_j) mod 2^32 <= j + 1 for some c, the cut 0 = 1 counting
    as E32 = 0; thanks to the anchor, this bound does not grow with m.  Both
    levels test a block against its largest index, which only adds rechecks.
    """
    require_length(n_letters)
    ends = tuple(end for end, _ in cuts)
    # E_c of the cuts c < 1, in order, then E = 0 for the cut 0 = 1
    fixed = [int((end * 2**64).floor()) for end in ends[:-1]] + [0]
    coarse = [np.uint32(cut >> 32) for cut in fixed]
    # piece index -> letter, the pieces of the letter None deleted
    to_letter = bytes.maketrans(bytes(range(len(cuts))),
                                bytes(ord(letter or "\0") for _, letter in cuts))
    deleted = bytes(i for i, (_, letter) in enumerate(cuts) if letter is None)
    x, a = (x0 * 2**64).floor(), (alpha * 2**64).floor()
    steps = np.arange(_BLOCK, dtype=np.uint32)
    steps *= np.uint32(a >> 32)
    z, gap = np.empty(_BLOCK, dtype=np.uint32), np.empty(_BLOCK, dtype=np.uint32)
    piece, near, hit = (np.empty(_BLOCK, dtype=dtype) for dtype in (np.uint8, bool, bool))
    out = bytearray(n_letters)
    filled = m = 0
    while filled < n_letters:
        # Every index yields at most one letter, so the block never overfills.
        size = min(_BLOCK, n_letters - filled)
        if m + size > 2 * MAX_LETTERS:
            raise ParameterError("the orbit needs rotation indices beyond 2**32")
        zs, pieces, nears, hits, gaps = z[:size], piece[:size], near[:size], hit[:size], gap[:size]
        np.add(steps[:size], np.uint32(((x + m * a) % 2**64) >> 32), out=zs)
        # the piece is the number of cuts c < 1 with E32_c <= Z
        np.greater_equal(zs, coarse[0], out=pieces.view(bool))
        for cut in coarse[1:-1]:
            pieces += np.greater_equal(zs, cut, out=hits)
        # near: (E32_c - Z) mod 2^32 <= size for some c, then the 64-bit test
        np.less_equal(np.subtract(coarse[-1], zs, out=gaps), size, out=nears)
        for cut in coarse[:-1]:
            nears |= np.less_equal(np.subtract(cut, zs, out=gaps), size, out=hits)
        for j in np.flatnonzero(nears).tolist():
            y = (x + (m + j) * a) % 2**64
            if any((cut - y) % 2**64 <= m + size - 1 for cut in fixed):
                pieces[j] = _exact_piece(x0, alpha, m + j, ends)
            else:
                pieces[j] = sum(y >= cut for cut in fixed[:-1])
        block = pieces.tobytes().translate(to_letter, deleted)
        out[filled : filled + len(block)] = block
        filled += len(block)
        m += size
    return out.decode("ascii")


def rotation_word(params: RotationParams, n_letters: int) -> Word:
    """Letters u_i = 0 iff the fractional part of x0 + i*alpha lies in [0, beta)."""
    cuts = ((params.beta, "0"), (QuadraticReal(1), "1"))
    return Word._trusted(_orbit_word(params.x0, params.alpha, cuts, n_letters), BINARY)


def standard_word(cf: CFExpansion, level: int) -> Word:
    """The standard word s_level, level >= -1 (see ``characteristic_prefix``).

    s_level has |s_level| = q_level letters and, for level >= 1, is a prefix
    of the characteristic word.
    """
    if level < -1:
        raise ParameterError("level must be >= -1")
    if level == -1:
        return Word._trusted("1", BINARY)
    if level == 0:
        return Word._trusted("0", BINARY)
    q_level = cf.convergents(level)[-1][1]
    # q_level may have thousands of digits: compare, never format
    if q_level > MAX_LETTERS:
        raise ParameterError(f"level: s_{level} has more than {MAX_LETTERS} letters")
    return characteristic_prefix(cf, q_level)


def characteristic_prefix(cf: CFExpansion, n_letters: int) -> Word:
    """Length-n prefix of the limit of the standard words

    s_-1 = 1, s_0 = 0, s_1 = s_0^(a_1 - 1) s_-1,
    s_(m+1) = s_m^(a_(m+1)) s_(m-1).

    Any s_m, m >= 1, of length >= n has the same prefix (prefix stability
    of the recursion), and so does s_m^c s_(m-1) with c = ceil(n / |s_m|).
    The last step therefore repeats s_m only min(a_(m+1), c) times; as
    |s_(m-1)| <= |s_m| < n, no word of 3n letters or more is built.
    """
    require_length(n_letters)
    prev, cur, m = "1", "0", 0
    while m == 0 or len(cur) < n_letters:
        m += 1
        repeats = min(cf.coefficient(m) - (m == 1), -(-n_letters // len(cur)))
        prev, cur = cur, cur * repeats + prev
    return Word._trusted(cur[:n_letters], BINARY)


@dataclass(frozen=True)
class IndexFormulaResult:
    """Evaluation of the repetition-index formula along a continued fraction.

    Each term is 2 + a_(N+1) + (q_(N-1) - 2) / q_N; the true index of the
    corresponding rotation word is the supremum of all terms.
    """

    terms: tuple[Fraction, ...]
    truncated_sup: Fraction
    sup_at: int
    largest_coefficient: int
    window_only: bool
    periodic_limit: QuadraticReal | None

    def to_json_dict(self) -> dict:
        return {
            "n_max": len(self.terms) - 1,
            "truncated_sup_num": self.truncated_sup.numerator,
            "truncated_sup_den": self.truncated_sup.denominator,
            "sup_at": self.sup_at,
            "finite": True,  # the window's coefficients are always bounded
            "largest_coefficient": self.largest_coefficient,
            "window_only": self.window_only,
            "periodic_limit": None if self.periodic_limit is None else str(self.periodic_limit),
        }


def _purely_periodic_value(period: tuple[int, ...]) -> QuadraticReal:
    """Exact value of the purely periodic continued fraction [0; period...]."""
    (p_prev, q_prev), (p_cur, q_cur) = CFExpansion(period).convergents(len(period))[-2:]
    b = q_cur - p_prev
    disc = b * b + 4 * q_prev * p_cur
    return QuadraticReal(-b, 1, disc, 2 * q_prev)


def sturmian_index_formula(cf: CFExpansion, n_max: int) -> IndexFormulaResult:
    """Truncated supremum of the index formula, plus its exact periodic limit.

    The limit along each residue of a periodic tail is evaluated in the
    quadratic field: the coefficient ratio q_(N-1)/q_N converges to the
    purely periodic continued fraction built from the reversed period.
    """
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")
    if cf.terminated:
        raise ParameterError("the index formula needs an irrational slope")
    q = [0] + [q_n for _, q_n in cf.convergents(n_max)]  # q_(-1), q_0, ..., q_(n_max)
    terms = [2 + cf.coefficient(n + 1) + Fraction(q[n] - 2, q[n + 1]) for n in range(n_max + 1)]
    truncated_sup = max(terms)
    sup_at = terms.index(truncated_sup)
    largest, exact = cf.max_coefficient()
    limit = None
    if cf.is_periodic:
        period = cf.period
        m = len(period)
        for i in range(m):
            reversed_cycle = tuple(period[(i - k) % m] for k in range(m))
            ratio_limit = _purely_periodic_value(reversed_cycle)
            candidate = ratio_limit + (2 + period[(i + 1) % m])
            if limit is None or (candidate - limit).sign() > 0:
                limit = candidate
    # Bounded coefficients mean a finite index; a periodic tail decides this
    # exactly, otherwise the verdict only covers the available window.
    return IndexFormulaResult(
        terms=tuple(terms),
        truncated_sup=truncated_sup,
        sup_at=sup_at,
        largest_coefficient=largest,
        window_only=not exact,
        periodic_limit=limit,
    )


@dataclass(frozen=True)
class BlockParse:
    """A decomposition of a word prefix into long/short blocks.

    At level n the building blocks are E^(k+1) F (long) and E^k F (short)
    with E = s_n, F = s_(n-1), k = a_(n+1); concatenating the tagged blocks
    reproduces the consumed prefix exactly and the unparsed tail is shorter
    than the long block.
    """

    level: int
    root: str
    filler: str
    k: int
    tags: tuple[str, ...]
    consumed: int
    tail_length: int

    @property
    def long_block(self) -> str:
        return self.root * (self.k + 1) + self.filler

    @property
    def short_block(self) -> str:
        return self.root * self.k + self.filler

    def reconstruct(self) -> str:
        long_b, short_b = self.long_block, self.short_block
        return "".join(long_b if tag == "long" else short_b for tag in self.tags)

    def to_json_dict(self) -> dict:
        return asdict(self)


def block_decompose(prefix: Word, cf: CFExpansion, level: int) -> BlockParse:
    """Parse a prefix into long/short blocks greedily: long, else short.

    Fails only when no decomposition covers more than nothing and leaves a
    tail shorter than the long block.  Greedy finds the first parse in the
    order long, short, stop, so it needs no backtracking: where both blocks
    match, the |E| letters after the short block E^k F are (E F)[|F|:], as
    the long block is E^k E F, and the short branch goes on only if they are
    E, since every block starts with E (k >= 1).  At level 1 with a_1 = 1
    that reads 0 = 1; otherwise F is a prefix of E and it means E F = F E,
    which consecutive standard words never satisfy (Lyndon-Schutzenberger:
    their lengths are coprime and E holds both letters).  So the short
    branch stops at once, with a longer tail than the long branch.  A short
    block longer than the prefix fails before any word is built.
    """
    if level < 1:
        raise ParameterError("level must be >= 1")
    (_, q_prev), (_, q) = cf.convergents(level)[-2:]
    k = cf.coefficient(level + 1)
    text = prefix.text
    n = len(text)
    if k * q + q_prev > n:
        raise BlockParseError("prefix does not begin with either block", 0)
    root = standard_word(cf, level).text
    filler = root[:q_prev] if level > 1 else "0"
    blocks = {"long": root * (k + 1) + filler, "short": root * k + filler}
    tags: list[str] = []
    pos = 0
    while tag := next((t for t, b in blocks.items() if text.startswith(b, pos)), None):
        tags.append(tag)
        pos += len(blocks[tag])
    if not tags:
        raise BlockParseError("prefix does not begin with either block", 0)
    if n - pos >= len(blocks["long"]):
        raise BlockParseError(
            "no block decomposition leaves a tail shorter than the long block", 0
        )
    return BlockParse(
        level=level,
        root=root,
        filler=filler,
        k=k,
        tags=tuple(tags),
        consumed=pos,
        tail_length=n - pos,
    )
