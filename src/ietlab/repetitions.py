"""Repetition analysis: maximal periodic segments and repetition indices.

The fractional repetition index of a finite word is the largest ratio
(extension length) / period over all start positions and periods, where the
extension is the longest stretch on which the word agrees with its own
shift by the period.  The main path finds all maximal segments of exponent
at least 2 (runs) from their Lyndon roots, as in the Runs Theorem: one
prefix-doubling pass ranks every window of length 2^k, its last round
orders the suffixes, a next-smaller and a next-greater pass over that order
give one candidate period per position and letter order, and two
longest-common-extension queries per candidate, answered from the saved
rounds by binary lifting, turn it into a run or reject it.  That is at
most 2n candidates and O(n log n) memory.  When no run exists a
direct per-period sweep decides; ``brute_force_index`` is an independent
reference implementation kept deliberately naive.
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
# runs engine: doubling ranks, binary-lifting LCE, Lyndon roots
# ---------------------------------------------------------------------------

def _doubling_ranks(codes: np.ndarray) -> list[np.ndarray]:
    """Round k ranks every window text[i:i+2^k] in lexicographic order, with
    end-of-text below every letter, so equal ranks mean equal windows inside
    the text.  Each int32 array ends with a -1 at index n that equals no
    rank.  Round k+1 ranks (rank at i, rank at i + 2^k) by the key
    rank * span + next + 1: the key itself while it fits in int32, else its
    dense rank.  Doubling stops once all windows differ, so the last round
    orders the suffixes (an inverse suffix array up to relabelling).
    """
    n = codes.size
    present = np.bincount(codes, minlength=256) > 0
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1
    rank[:n] = (np.cumsum(present) - 1)[codes]
    top = int(present.sum()) - 1  # an upper bound of the ranks
    distinct = top + 1  # counted only when ranks are made dense
    rounds = [rank]
    h = 1
    while h < n and distinct < n:
        # top < 2^31 - 1, so span <= 2^31 and every key is below 2^62
        span = top + 2
        key = rank[:n].astype(np.int64) * span
        key[: n - h] += rank[h:n] + 1
        top = top * span + span - 1
        rank = np.empty(n + 1, dtype=np.int32)
        rank[n] = -1
        if top < 2**31 - 1:
            rank[:n] = key
        else:
            order = np.argsort(key)
            key = key[order]
            dense = np.zeros(n, dtype=np.int32)
            np.cumsum(key[1:] != key[:-1], out=dense[1:])
            rank[order] = dense
            top = int(dense[-1])
            distinct = top + 1
        rounds.append(rank)
        h *= 2
    return rounds


def _extensions(rounds: list[np.ndarray], ii: np.ndarray, jj: np.ndarray, forward: bool) -> np.ndarray:
    """For pairs i < j <= n, the largest l with text[i:i+l] == text[j:j+l]
    (forward) or text[i-l:i] == text[j-l:j] (backward).

    The last round's windows all differ, so l < 2^K, K = len(rounds) - 1.
    An upward pass finds, on a shrinking set of pairs, the largest 2^k that
    agrees at the pair; a downward pass adds each smaller 2^k that agrees
    next, for the pairs that reached above k.
    """
    def agree(k, q, out):
        rank, size = rounds[k], 1 << k
        if forward:
            return rank[ii[q] + out] == rank[jj[q] + out]
        left = ii[q] - out - size
        return (left >= 0) & (rank[np.maximum(left, 0)] == rank[jj[q] - out - size])

    out = np.zeros(ii.size, dtype=np.int64)
    reached = [np.arange(ii.size)]  # reached[k + 1]: pairs with l >= 2^k
    for k in range(len(rounds) - 1):
        q = reached[-1]
        q = q[agree(k, q, 0)]
        if q.size == 0:
            break
        out[q] = 1 << k
        reached.append(q)
    for k in range(len(reached) - 3, -1, -1):
        q = reached[k + 2]
        out[q] += agree(k, q, out[q]).astype(np.int64) << k
    return out


def _lyndon_ends(isa: list[int]) -> np.ndarray:
    """For each i the next j > i of smaller rank, then for each i the next
    j > i of greater rank (n when there is none).  Ranks are distinct, so
    one of the two is i + 1; the other is walked from the ends at i + 1."""
    n = len(isa)
    smaller = [n] * n
    greater = [n] * n
    for i in range(n - 2, -1, -1):
        v = isa[i]
        j = i + 1
        if isa[j] < v:
            smaller[i] = j
            j = greater[j]
            while j < n and isa[j] < v:
                j = greater[j]
            greater[i] = j
        else:
            greater[i] = j
            j = smaller[j]
            while j < n and isa[j] > v:
                j = smaller[j]
            smaller[i] = j
    return np.asarray(smaller + greater, dtype=np.int64)


def _run_candidates(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal periodic segments of exponent >= 2 as (start, end, period).

    Order 0 is the letter order with end-of-text smallest; order 1 is its
    exact reverse (letters reversed, end-of-text largest), so its suffix
    order is the last round read backwards.  For each order and position i,
    j is the next position with a smaller suffix (under order 0, text[i:j]
    is the longest Lyndon word at i).  The pair is kept as [i - b, j + f)
    of period p = j - i when its backward and forward extensions reach
    f + b >= p.  Every run is among these at most 2n candidates with its
    minimal period (Bannai et al., "The 'Runs' Theorem", SIAM J. Comput.
    46(5), 2017):

    * Let [s, e) be a run of minimal period p.  Take the order under which
      the letter at e is below the letter at e - p, or order 0 if e = n.
      Its root is primitive, so one rotation, lambda, is a Lyndon word, and
      with two full periods lambda occurs at some a > s with a + p <= e.
    * For a < c < a + p, suffix c starts with a proper suffix of lambda,
      which exceeds lambda at a letter inside it (Lyndon words are
      unbordered).  Suffix a + p follows suffix a up to e and is smaller
      there, or is its proper prefix when e = n.  So j = a + p.
    * Another kept pair is a segment of period p, length >= 2p and maximal
      for p; by Fine and Wilf its span is a run whose minimal period
      divides p, found as above.
    """
    n = len(text)
    rounds = _doubling_ranks(np.frombuffer(text.encode("ascii"), dtype=np.uint8))
    ii = np.tile(np.arange(n, dtype=np.int64), 2)
    jj = _lyndon_ends(rounds[-1][:n].tolist())
    period = jj - ii
    f = _extensions(rounds, ii, jj, forward=True)
    b = _extensions(rounds, ii, jj, forward=False)
    keep = f + b >= period
    return ii[keep] - b[keep], jj[keep] + f[keep], period[keep]


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


def _best_extension(start: np.ndarray, end: np.ndarray, period: np.ndarray) -> tuple[int, int, int]:
    """(length, period, start) of the candidate maximizing length/period;
    ties prefer the smallest period, then the smallest start.

    Exact int64 cross-multiplication: lengths are at most 2^31 and periods
    at most 2^30, so products stay below 2^61.  The exact floor of
    length * 2^31 / period picks a first champion; each further pass moves
    to a strictly better ratio until none is left.
    """
    lengths = end - start
    best = int(((lengths << 31) // period).argmax())
    while True:
        gain = lengths * period[best] - lengths[best] * period
        k = int(gain.argmax())
        if gain[k] <= 0:
            break
        best = k
    tied = np.flatnonzero(gain == 0)
    k = tied[np.lexsort((start[tied], period[tied]))[0]]
    return int(lengths[k]), int(period[k]), int(start[k])


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
    candidates = _run_candidates(prefix.text)
    if candidates[0].size:
        length, period, start = _best_extension(*candidates)
    else:
        length, period, start = _fractional_best(prefix.text)
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
