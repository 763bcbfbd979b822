"""Repetition analysis: maximal periodic segments and repetition indices.

The fractional repetition index of a finite word is the largest ratio
(extension length) / period over all start positions and periods, where the
extension is the longest stretch on which the word agrees with its own
shift by the period.  The main path finds all maximal segments of exponent
at least 2 with a suffix-array based scan (anchored position pairs plus
constant-time longest-common-extension queries), and falls back to a direct
per-period sweep when no such segment exists; ``brute_force_index`` is an
independent reference implementation kept deliberately naive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .words import Word

ORACLE_MAX_LENGTH = 5000


@dataclass(frozen=True)
class Run:
    """A maximal periodic segment: positions start..start+length-1 repeat
    with the (minimal) period, and the segment extends neither left nor
    right without breaking the equality."""

    start: int
    period: int
    length: int

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)


@dataclass(frozen=True)
class IndexReport:
    """Repetition measurements for one finite word."""

    prefix_length: int
    index_estimate: Fraction
    witness: Run
    max_power: int
    max_power_witness: str
    per_factor: dict[str, Fraction] | None = None

    def to_json_dict(self) -> dict:
        return {
            "prefix_length": self.prefix_length,
            "index_num": self.index_estimate.numerator,
            "index_den": self.index_estimate.denominator,
            "witness": {
                "start": self.witness.start,
                "period": self.witness.period,
                "length": self.witness.length,
            },
            "max_integer_power": {
                "j": self.max_power,
                "witness": self.max_power_witness,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


# ---------------------------------------------------------------------------
# suffix array / LCE machinery
# ---------------------------------------------------------------------------

def _suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling over numpy lexsort."""
    n = codes.size
    rank = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1 = rank[order]
        r2 = key2[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        if n > 1:
            changed[1:] = ((r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])).cumsum()
        if changed[-1] == n - 1:
            return order
        rank = np.empty(n, dtype=np.int64)
        rank[order] = changed
        k *= 2


def _lcp_array(text: str, sa: list[int]) -> tuple[list[int], list[int]]:
    """Kasai construction; lcp[i] = lcp(suffix sa[i-1], suffix sa[i])."""
    n = len(text)
    rank = [0] * n
    for i, s in enumerate(sa):
        rank[s] = i
    lcp = [0] * n
    h = 0
    for i in range(n):
        ri = rank[i]
        if ri > 0:
            j = sa[ri - 1]
            while i + h < n and j + h < n and text[i + h] == text[j + h]:
                h += 1
            lcp[ri] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp, rank


class _LceTable:
    """Constant-time longest-common-extension queries over one string."""

    def __init__(self, text: str):
        n = len(text)
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        sa = _suffix_array(codes)
        lcp, rank = _lcp_array(text, sa.tolist())
        self.n = n
        self.rank = np.asarray(rank, dtype=np.int64)
        table = [np.asarray(lcp, dtype=np.int32)]
        size = 1
        while 2 * size <= n:
            prev = table[-1]
            table.append(np.minimum(prev[: prev.size - size], prev[size:]))
            size *= 2
        self.table = table
        # logt[i] = floor(log2(i)): one increment per power of two up to n
        logt = np.zeros(n + 1, dtype=np.int64)
        k = 2
        while k <= n:
            logt[k:] += 1
            k *= 2
        self.logt = logt

    def lce(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Vectorized LCE for position pairs with ii[k] != jj[k]."""
        ri = self.rank[ii]
        rj = self.rank[jj]
        lo = np.minimum(ri, rj) + 1
        hi = np.maximum(ri, rj)
        ks = self.logt[hi - lo + 1]
        out = np.empty(ii.size, dtype=np.int64)
        for k in range(len(self.table)):
            mask = ks == k
            if not mask.any():
                continue
            span = self.table[k]
            left = span[lo[mask]]
            right = span[hi[mask] - (1 << k) + 1]
            out[mask] = np.minimum(left, right)
        return out


def _run_candidates(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal periodic segments of exponent >= 2 as (start, end, period).

    Every such segment appears at least once (possibly with a non-minimal
    period); for a fixed span, the smallest reported period is the minimal
    one.
    """
    n = len(text)
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    fwd = _LceTable(text)
    bwd = _LceTable(text[::-1])
    ii_parts = []
    pp_parts = []
    for p in range(1, n // 2 + 1):
        ii = np.arange(0, n - p, p, dtype=np.int64)
        ii_parts.append(ii)
        pp_parts.append(np.full(ii.size, p, dtype=np.int64))
    ii = np.concatenate(ii_parts)
    pp = np.concatenate(pp_parts)
    jj = ii + pp
    f = fwd.lce(ii, jj)
    b = np.zeros_like(f)
    inner = ii > 0
    if inner.any():
        b[inner] = bwd.lce(n - ii[inner], n - jj[inner])
    keep = (f + b) >= pp
    start = ii[keep] - b[keep]
    end = jj[keep] + f[keep]
    return start, end, pp[keep]


def _fractional_best(text: str) -> tuple[int, int, int]:
    """Best (length, period, start) by a direct per-period sweep.

    Used when no segment of exponent >= 2 exists; exact for any word.
    """
    n = len(text)
    arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    best_len, best_period, best_start = 1, 1, 0
    for p in range(1, n):
        if n * best_period <= best_len * p:
            break  # even a full match cannot beat the current ratio
        agree = arr[: n - p] == arr[p:]
        if not agree.any():
            continue
        breaks = np.flatnonzero(~agree)
        edges = np.concatenate(([-1], breaks, [n - p]))
        lengths = np.diff(edges) - 1
        block = int(lengths.max())
        if block == 0:
            continue
        at = int(lengths.argmax())
        start = int(edges[at] + 1)
        length = p + block
        if length * best_period > best_len * p:
            best_len, best_period, best_start = length, p, start
    return best_len, best_period, best_start


def _best_extension(text: str) -> tuple[int, int, int]:
    """(length, period, start) maximizing length/period; ties prefer the
    smallest period, then the smallest start."""
    start, end, period = _run_candidates(text)
    if start.size == 0:
        return _fractional_best(text)
    lengths = end - start
    # Float filter; the exact cross-multiplication loop below decides.  Each
    # ratio is L/p <= n, one correctly rounded float64 division of integers
    # held exactly, so its relative error is at most 2**-53 and two ratios
    # equal to the maximum differ by at most 2n * 2**-53 < 1e-9 for every
    # n below about 4e6.  Beyond that, rounding is monotone and equal
    # quotients round alike, so every exact maximum is ratio.max() itself.
    ratio = lengths / period
    near = np.flatnonzero(ratio >= ratio.max() - 1e-9)
    best = None
    for idx in near:
        L, p, s = int(lengths[idx]), int(period[idx]), int(start[idx])
        if best is None:
            best = (L, p, s)
            continue
        bl, bp, bs = best
        cmp = L * bp - bl * p
        if cmp > 0 or (cmp == 0 and (p, s) < (bp, bs)):
            best = (L, p, s)
    return best


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def max_runs(prefix: Word) -> list[Run]:
    """All maximal repetitions of exponent >= 2, sorted by start then period."""
    if len(prefix) < 1:
        raise ParameterError("word must be nonempty")
    start, end, period = _run_candidates(prefix.text)
    if start.size == 0:
        return []
    n = len(prefix)
    key = start * (n + 1) + end
    order = np.lexsort((period, key))
    key_sorted = key[order]
    first = np.ones(key_sorted.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    chosen = order[first]
    runs = [
        Run(int(s), int(p), int(e - s))
        for s, e, p in zip(start[chosen], end[chosen], period[chosen])
    ]
    runs.sort(key=lambda run: (run.start, run.period))
    return runs


def word_index_estimate(prefix: Word) -> IndexReport:
    """Repetition index of a finite word, with witnesses.

    For a prefix of an infinite word this is a lower bound of the infinite
    word's index that grows monotonically with the prefix.
    """
    if len(prefix) < 1:
        raise ParameterError("word must be nonempty")
    length, period, start = _best_extension(prefix.text)
    estimate = Fraction(length, period)
    power = max(1, length // period)
    return IndexReport(
        prefix_length=len(prefix),
        index_estimate=estimate,
        witness=Run(start, period, length),
        max_power=power,
        max_power_witness=prefix.text[start : start + period],
    )


def max_integer_power(prefix: Word) -> tuple[int, Word]:
    """The largest j with some nonempty w such that w^j occurs, and such a w."""
    report = word_index_estimate(prefix)
    return report.max_power, Word(report.max_power_witness, prefix.alphabet)


def factor_index_in(prefix: Word, factor: Word) -> Fraction:
    """Largest rational power of ``factor`` occurring in ``prefix``.

    0 when the factor does not occur at all.
    """
    pattern = factor.text
    if not pattern:
        raise ParameterError("factor must be nonempty")
    text = prefix.text
    p = len(pattern)
    best = Fraction(0)
    at = text.find(pattern)
    while at != -1:
        length = p
        while at + length < len(text) and text[at + length] == text[at + length - p]:
            length += 1
        value = Fraction(length, p)
        if value > best:
            best = value
        at = text.find(pattern, at + 1)
    return best


def brute_force_index(prefix: Word) -> Fraction:
    """Reference repetition index by trying every (start, period) pair.

    Deliberately independent of the suffix-array path; guarded against long
    inputs because of its quadratic-or-worse cost.
    """
    text = prefix.text
    n = len(text)
    if n < 1:
        raise ParameterError("word must be nonempty")
    if n > ORACLE_MAX_LENGTH:
        raise ParameterError(
            f"word of length {n} exceeds the oracle guard ({ORACLE_MAX_LENGTH})"
        )
    best_num, best_den = 1, 1
    for period in range(1, n + 1):
        if n * best_den <= best_num * period:
            break
        for i in range(0, n - period + 1):
            length = period
            while i + length < n and text[i + length] == text[i + length - period]:
                length += 1
            if length * best_den > best_num * period:
                best_num, best_den = length, period
    return Fraction(best_num, best_den)
