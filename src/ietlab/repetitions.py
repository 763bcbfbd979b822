"""Repetition analysis: maximal periodic segments and repetition indices.

The fractional repetition index of a finite word is the largest ratio
(extension length) / period over all start positions and periods, where the
extension is the longest stretch on which the word agrees with its own
shift by the period.  The main path finds all maximal segments of exponent
at least 2 (runs) from their Lyndon roots, as in the Runs Theorem, with
numpy kernels and no per-position Python loop.  One prefix-doubling pass
ranks every window of length 2^k, compressing a round by in-place sorts of
packed uint64 values; its last round orders the suffixes, or, stopped at a
depth, the deep windows of ``Word.factor_complexities``.  Each position
pairs with the end of its longest Lyndon word under the letter order or its
reverse: contiguous comparisons of the suffix order settle the ends within
a few positions, and a search over block maxima finds the rest.  Two
longest-common-extension queries per pair turn it into a run or reject it.
Each query first compares m letters at once, packed into one uint64 per
position, and only the pairs that agree on all m go on to binary lifting
over the saved doubling rounds of length m and above.  Pairs of period 1
are read off the letter blocks instead.  That is at most 2n candidates and
O(n log n) memory in uint16 and int32 rounds.  Without runs, the best
extension starts at one of two text-consecutive occurrences of a doubling
window, which the same rounds and queries score; ``brute_force_index`` is
an independent reference implementation kept deliberately naive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
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


@dataclass(frozen=True)
class IndexReport:
    """Repetition measurements for one finite word."""

    prefix_length: int
    index_estimate: Fraction
    witness: Run
    max_power: int
    max_power_witness: str

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

# Entries per slice of the chunked passes below: their temporaries take
# 512 KiB instead of 8 bytes a position.
_CHUNK = 1 << 16


def _packed_sort(values: np.ndarray, pbits: int) -> None:
    """Sort the uint64 values (value << pbits) | position in place; the
    caller guarantees that every value fits with its position in 64 bits."""
    values <<= pbits
    for first in range(0, values.size, _CHUNK):
        part = values[first : first + _CHUNK]
        part |= np.arange(first, first + part.size, dtype=np.uint64)
    values.sort()


def _letter_labels(codes: np.ndarray) -> np.ndarray:
    """uint8 labels of the n letter codes, 1..k in alphabet order, followed
    by a 0 at index n for end-of-text (k <= 128 for ASCII letters)."""
    present = np.bincount(codes, minlength=256) > 0
    labels = np.zeros(codes.size + 1, dtype=np.uint8)
    labels[:-1] = np.cumsum(present, dtype=np.uint8)[codes]
    return labels


def _doubling_ranks(labels: np.ndarray, keep_from: int, width: int) -> list[np.ndarray | None]:
    """Round k ranks every window text[i:i+2^k] in lexicographic order, with
    end-of-text below every letter, so equal ranks mean equal windows inside
    the text.  Round 0 is labels - 1 for the n + 1 labels of
    ``_letter_labels``, which must be dense (the early stop reads top + 1 as
    the number of distinct letters).  Each int32 array ends with a -1 at index
    n that equals no rank.  Round k+1 ranks (rank at i, rank at i + 2^k) by the
    key rank * span + next + 1 (next = -1 past the end), below top + 1.  A
    packed round keeps the key itself; a sorted round replaces it by its dense
    rank, read off value sorts of (key << pbits) | position.  A round is packed
    only while its key fits in int32 and the next round's key would still fit
    with a position in 64 bits.  Doubling stops once the windows reach
    ``width`` letters or all differ; with width n the last round orders the
    suffixes (an inverse suffix array up to relabelling).  Rounds below
    ``keep_from`` are None once the next round is built, except the last, which
    is always kept.  Another kept round with top below 2^16 - 1, as most are
    (a word of complexity 2n + 1 has about 3 * 2^k windows of length 2^k),
    turns uint16 once the next key is built; its sentinel 2^16 - 1 still
    equals no rank.  The last stays int32: ``_lyndon_ends`` reads ~isa.
    """
    n = labels.size - 1
    pbits = (n - 1).bit_length()  # positions are below 2^pbits, and n <= 2^pbits
    mask = (1 << pbits) - 1
    rank = labels.astype(np.int32)
    rank -= 1
    top = int(labels.max()) - 1  # an upper bound of the ranks
    distinct = top + 1  # counted only when ranks are made dense
    rounds = [rank]
    h = 1
    while h < width and distinct < n:
        span = top + 2
        small = top < 2**16 - 1  # this round's ranks and sentinel fit uint16
        top = top * span + span - 1  # bound of the key
        key = rank[:n].astype(np.uint64)
        key *= span
        key[: n - h] += rank[h:n].view(np.uint32)
        key[: n - h] += 1
        if len(rounds) <= keep_from:
            rounds[-1] = None
        elif small:
            rounds[-1] = rank.astype(np.uint16)  # the -1 sentinel wraps to 2^16 - 1
        rank = np.empty(n + 1, dtype=np.int32)
        rank[n] = -1
        if top < 2**31 - 1 and ((top + 1) * (top + 2) - 1).bit_length() + pbits <= 64:
            rank[:n] = key
        else:
            # The key with its position fits in 64 bits after the letter
            # round (key < 2^16, pbits <= 30) and after a packed round, which
            # was packed only on that condition.  Otherwise the ranks come
            # from a sorted round and are dense, rank and next below n, so
            # the key is below n (n + 1) < 2^(2 pbits + 1): 3 pbits + 1 bits
            # with the position, which fit when n <= 2^21.  Past that, two
            # stable LSD passes sort the keys: first the values
            # (next + 1) << pbits | position, below 2^(2 pbits + 1), then
            # rank << pbits | index in the first order, below 2^(2 pbits);
            # both fit for n <= 2^31.  Dense ranks do not depend on how
            # equal keys are ordered.
            if top.bit_length() + pbits <= 64:
                _packed_sort(key, pbits)
                new = np.empty(n - 1, dtype=bool)
                for first in range(0, n - 1, _CHUNK):
                    pair = key[first : first + _CHUNK + 1]
                    np.greater(pair[1:] ^ pair[:-1], mask, out=new[first : first + _CHUNK])
                del pair  # a view that would keep this round's key alive
                order = key
                order &= mask
                order = order.view(np.int64)
            else:
                order = key % span
                _packed_sort(order, pbits)
                order &= mask
                order = order.view(np.int64)
                second = key[order]
                second //= span
                _packed_sort(second, pbits)
                second &= mask
                order = order[second.view(np.int64)]
                del second
                ordered = key[order]
                new = ordered[1:] != ordered[:-1]
                del ordered
            dense = np.zeros(n, dtype=np.int32)
            dense[1:] = new
            del new
            np.cumsum(dense, out=dense)  # in place: a cumsum of the bools would copy them to int32
            rank[order] = dense  # positions are below 2^63: int64 indices scatter faster
            top = int(dense[-1])
            distinct = top + 1
            del order, dense
        del key  # this round's temporaries go before the next round's key is built
        rounds.append(rank)
        h *= 2
    return rounds


def _packing_width(k: int) -> int:
    """The letters m per uint64 packing for k letters: the largest power of
    two with m * bit_length(k) <= 64, so a label 0..k fits each slot."""
    return 1 << ((64 // k.bit_length()).bit_length() - 1)


def _packed_letters(labels: np.ndarray, m: int) -> np.ndarray:
    """uint64 P[i] holding labels[i:i+m] little-endian in m slots of 64 / m
    bits, zero past the end; built by m - 1 shifted ORs in log2 m passes."""
    slot = 64 // m
    packed = labels.astype(np.uint64)
    width = 1
    while width < min(m, packed.size):
        shift = np.uint64(slot * width)
        for first in range(0, packed.size - width, _CHUNK):  # ascending: reads lie ahead of writes
            shifted = packed[first + width : first + width + _CHUNK] << shift
            packed[first : first + shifted.size] |= shifted
        width *= 2
    return packed


def _equal_slots(x: np.ndarray, m: int) -> np.ndarray:
    """For x = P[a] ^ P[b] of two packings, the number of equal leading
    letters, at most m, as int32: the trailing zero bits of x (64 when x is
    0) over the slot width.  x is overwritten."""
    low = x - np.uint64(1)
    x = np.invert(x, out=x)
    low &= x  # (x - 1) & ~x is the mask of the trailing zeros of x
    return (np.bitwise_count(low) >> ((64 // m).bit_length() - 1)).astype(np.int32)


def _extensions(
    rounds: list[np.ndarray | None], packed: np.ndarray, m: int, jj: np.ndarray, forward: bool
) -> np.ndarray:
    """For the pairs i < j = jj[i] <= n, the largest l with
    text[i:i+l] == text[j:j+l] (forward) or text[i-l:i] == text[j-l:j]
    (backward).

    ``packed`` holds m letters per position from ``_packed_letters``: forward
    P[i] = text[i:i+m], backward P[i] = text[i-1], text[i-2], ... (the
    packing of the reversed text, read backwards).  One packed comparison
    per pair counts its first m letters.  Both ends of the text need no
    special case: the label 0 of end-of-text equals no letter, and the side
    of the pair nearer the end (j forward, i backward) meets it while the
    other still reads a letter.  Only the pairs with m equal letters go on
    to binary lifting over rounds log2 m and above, which ``_doubling_ranks``
    keeps: an upward pass finds, on a shrinking set of pairs, the largest
    2^k that agrees at the pair, and a downward pass adds each smaller 2^k
    down to m that agrees next.  One more packed comparison at the reached
    offset adds the last fewer than m letters.  The last round's windows
    all differ, so l < 2^K, K = len(rounds) - 1, and a pair with l >= m
    implies rounds above log2 m.  Positions and lengths stay below
    n <= 2^30, so int32 holds every sum.
    """
    def agree(k, q, out):
        rank, size = rounds[k], 1 << k
        if forward:
            return rank[q + out] == rank[jj[q] + out]
        left = q - out - size
        return (left >= 0) & (rank[np.maximum(left, 0)] == rank[jj[q] - out - size])

    out = np.empty(jj.size, dtype=np.int32)
    for first in range(0, jj.size, _CHUNK):
        x = packed[jj[first : first + _CHUNK]]
        x ^= packed[first : first + x.size]
        out[first : first + x.size] = _equal_slots(x, m)
    lift = m.bit_length() - 1
    reached = [np.flatnonzero(out == m).astype(np.int32)]  # reached[t]: pairs with l >= 2^(lift + t)
    for k in range(lift + 1, len(rounds) - 1):
        q = reached[-1]
        q = q[agree(k, q, 0)]
        if q.size == 0:
            break
        out[q] = 1 << k
        reached.append(q)
    for t in range(len(reached) - 1, 0, -1):
        q = reached[t]
        k = lift + t - 1
        out[q] += agree(k, q, out[q]).astype(np.int32) << k
    q = reached[0]
    at = out[q] if forward else -out[q]
    out[q] += _equal_slots(packed[q + at] ^ packed[jj[q] + at], m)
    return out


def _first_above(values: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each query, the first j >= p[q] with values[j] > v[q], or n when
    there is none; p (int32, p <= n) is overwritten with the answers.

    Rows off[k] + q of the table hold the maximum of the aligned block
    values[q 2^k : (q + 1) 2^k], under 2n rows in all.  Climbing, level k
    skips the block at p when bit k of p is set and the block holds no
    winner, so p stays aligned to 2^(k + 1); the first block that holds a
    winner is then halved down to its first winner.
    """
    n = values.size
    sizes = [n]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    off = list(accumulate(sizes, initial=0))
    tab = np.empty(off[-1], dtype=np.int32)
    tab[:n] = values
    for k in range(1, len(sizes)):
        below, here = tab[off[k - 1] : off[k]], tab[off[k] : off[k + 1]]
        pairs = sizes[k - 1] // 2
        np.maximum(below[0 : 2 * pairs : 2], below[1 : 2 * pairs : 2], out=here[:pairs])
        here[pairs:] = below[2 * pairs :]
    level = np.full(p.size, -1, dtype=np.int8)  # level of the first block holding a winner
    live = np.flatnonzero(p < n).astype(np.int32)
    k = 0
    while live.size:
        at = live[(p[live] >> k) & 1 == 1]
        won = tab[off[k] + (p[at] >> k)] > v[at]
        level[at[won]] = k
        p[at[~won]] += 1 << k
        live = live[(level[live] < 0) & (p[live] < n)]
        k += 1
    for k in range(k - 1, 0, -1):
        at = np.flatnonzero(level >= k)
        won = tab[off[k - 1] + (p[at] >> (k - 1))] > v[at]
        p[at[~won]] += 1 << (k - 1)
    p[level < 0] = n
    return p


# The reach of the contiguous scan in `_lyndon_ends`.  90% of the ends lie
# within 16 positions on the silver 3iet word (eps = sqrt2 - 1, ell = 7/10,
# 2e5 letters), 92% on a characteristic word (3e5 letters, partial
# quotients 1..4).  At 1e6 letters of either word `_lyndon_ends` took
# 120-140 ms with a reach of 8 or 16, 270-280 ms with none and 175-200 ms
# with 32 (2-core x86-64 VM).
SHORT_ENDS = 16


def _lyndon_ends(isa: np.ndarray) -> np.ndarray:
    """For each i < n - 1 of the distinct int32 ranks isa, the one of the
    next j > i of smaller rank and the next j > i of greater rank (n when
    there is none) that is not i + 1.

    One of the two is i + 1, so the other is the first j >= i + 2 whose rank
    lies on the other side of isa[i] than isa[i + 1]: isa[j] > isa[i]
    differs from rising[i] = isa[i + 1] > isa[i].  Contiguous comparisons
    of isa[d:] with isa[:-d] for d = 2..SHORT_ENDS settle every end within
    SHORT_ENDS positions, the smallest such d winning.  The open positions
    search from i + SHORT_ENDS + 1 for the first greater value in isa, or
    in ~isa = -1 - isa for a smaller rank.
    """
    n = isa.size
    rising = isa[1:] > isa[:-1]
    dist = np.zeros(n - 1, dtype=np.int8)
    for d in range(min(SHORT_ENDS, n - 1), 1, -1):
        hit = isa[d:] > isa[:-d]
        hit ^= rising[: n - d]
        np.copyto(dist[: n - d], d, where=hit)
    ends = np.arange(n - 1, dtype=np.int32)
    ends += dist
    at = np.flatnonzero(dist == 0).astype(np.int32)
    up = rising[at]
    for values, q in ((isa, at[~up]), (~isa, at[up])):
        ends[q] = _first_above(values, np.minimum(q + SHORT_ENDS + 1, n), values[q])
    return ends


def _candidates(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal periodic segments of exponent >= 2 as int32 (start, end,
    period), or ``_occurrence_candidates`` from the same rounds without any.

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

    Ranks are distinct, so at each i < n - 1 one order gives j = i + 1 and
    i = n - 1 gives j = n in both.  A period-1 pair kept this way spans the
    maximal letter block around it, so these pairs are replaced by the
    blocks of length >= 2, read off the letter changes; only the other end
    at each i is extended.
    """
    n = len(text)
    if n > 2**30:
        raise ParameterError(f"word of length {n} exceeds the runs engine's limit (2^30)")
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    edges = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1, [n]))
    long = np.diff(edges) >= 2  # letter blocks of length >= 2, by their int32 ends
    block_start, block_end = edges[:-1][long].astype(np.int32), edges[1:][long].astype(np.int32)
    labels = _letter_labels(codes)
    del codes, edges, long
    m = _packing_width(int(labels.max()))
    rounds = _doubling_ranks(labels, m.bit_length() - 1, n)
    jj = _lyndon_ends(rounds[-1][:n])
    f = _extensions(rounds, _packed_letters(labels, m), m, jj, forward=True)
    labels[:n] = labels[n - 1 :: -1]
    b = _extensions(rounds, _packed_letters(labels, m)[::-1], m, jj, forward=False)
    # No block and no pair with f + b >= j - i: no run.  `period` is built
    # only once the rounds are freed, which keeps the process peak lower.
    if block_start.size == 0 and not np.any(f + b + np.arange(n - 1, dtype=np.int32) >= jj):
        labels[:n] = labels[n - 1 :: -1]
        del jj, f, b
        return _occurrence_candidates(labels, m, rounds)
    del rounds, labels
    period = jj - np.arange(n - 1, dtype=np.int32)
    keep = np.flatnonzero(f + b >= period)
    return (
        np.concatenate((block_start, keep.astype(np.int32) - b[keep])),
        np.concatenate((block_end, jj[keep] + f[keep])),
        np.concatenate((np.ones(block_start.size, dtype=np.int32), period[keep])),
    )


def _occurrence_candidates(
    labels: np.ndarray, m: int, rounds: list[np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates (start, end, period) that hold the best extension of any
    word: the trivial (0, 1, 1) and one champion per doubling level k, the
    best of the pairs i < j of text-consecutive occurrences of a 2^k-letter
    window whose 2^(k+1)-letter windows differ and whose previous letters
    differ (or i = 0), each extended forward by ``_extensions`` to [i, j + f).

    Why it is exact.  Let (i, j = i + p) maximize (p + L)/p, where
    L = LCE(i, j) and 2^k <= L < 2^(k+1).  i = 0 or the letters before i
    and j differ, or (i - 1, j - 1) would score higher.  Suppose text[i:i+2^k]
    also occurred at some c with i < c < j.  Then (i, c) or (c, j) would be
    a pair with period d <= p/2 and ratio at least
    1 + 2^k/d >= 1 + 2^(k+1)/p > (p + L)/p, which contradicts the choice of
    (i, j).  So every best pair, tied pairs included, is a pair of level k.
    When no letter repeats, the trivial candidate stays the answer.

    Levels run from the top down, dropping each round once no lower level
    needs it: a pair of level k lifts only through rounds up to k.  Windows
    under m letters are keyed by packed letters (32 bits at most, ranks 31)
    beside a position in one sort; j = n (end-of-text) marks no pair.  The
    labels, m and rounds are those of ``_candidates``; the rounds are used up.
    """
    n = labels.size - 1
    lift = m.bit_length() - 1
    packed = _packed_letters(labels, m)
    pbits = (n - 1).bit_length()

    def windows(k):
        """Keys equal exactly where the 2^k-letter windows are equal."""
        return rounds[k][:n] if k >= lift else packed[:n] & np.uint64((1 << ((64 // m) << k)) - 1)

    best = [(1, 1, 0)]
    for k in range(len(rounds) - 2, -1, -1):
        key = windows(k).astype(np.uint64)
        _packed_sort(key, pbits)
        at = np.flatnonzero((key[1:] ^ key[:-1]) >> np.uint64(pbits) == 0)
        key &= np.uint64((1 << pbits) - 1)
        i, j = key[at].astype(np.int32), key[at + 1].astype(np.int32)
        del key, at
        after = windows(k + 1)
        keep = (after[i] != after[j]) & (labels[i - 1] != labels[j - 1])  # labels[-1] is end-of-text
        i, j = i[keep], j[keep]
        if i.size:
            jj = np.full(n, n, dtype=np.int32)
            jj[i] = j
            f = _extensions(rounds, packed, m, jj, forward=True)[i]
            best.append(_best_extension(i, j + f, j - i))
        rounds.pop()
    length, period, start = (np.array(column, dtype=np.int32) for column in zip(*best))
    return start, start + length, period


def _best_extension(start: np.ndarray, end: np.ndarray, period: np.ndarray) -> tuple[int, int, int]:
    """(length, period, start) of the candidate maximizing length/period;
    ties prefer the smallest period, then the smallest start.

    Exact int64 cross-multiplication: lengths are at most 2^31 and periods
    at most 2^30, so products stay below 2^61.  The exact floor of
    length * 2^31 / period picks a first champion; each further pass moves
    to a strictly better ratio until none is left.
    """
    lengths = (end - start).astype(np.int64)
    period = period.astype(np.int64)
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
    start, end, period = _candidates(prefix.text)
    key = start.astype(np.int64) * (len(prefix) + 1) + end
    order = np.lexsort((period, key))
    chosen = order[np.unique(key[order], return_index=True)[1]]  # the smallest period of each span
    runs = [
        Run(int(s), int(p), int(e - s))
        for s, e, p in zip(start[chosen], end[chosen], period[chosen])
        if e - s >= 2 * p  # a run-free word's candidates have exponent below 2
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
    length, period, start = _best_extension(*_candidates(prefix.text))
    return IndexReport(
        prefix_length=len(prefix),
        index_estimate=Fraction(length, period),
        witness=Run(start, period, length),
        max_power=max(1, length // period),
        max_power_witness=prefix.text[start : start + period],
    )


def brute_force_index(prefix: Word) -> Fraction:
    """Reference repetition index by trying every (start, period) pair.

    Deliberately independent of the runs engine; guarded against long
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
