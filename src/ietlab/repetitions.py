"""Repetition analysis: maximal periodic segments and repetition indices.

The fractional repetition index of a finite word is the largest ratio
(extension length) / period over all start positions and periods, where the
extension is the longest stretch on which the word agrees with its own
shift by the period.  The main path finds all maximal segments of exponent
at least 2 (runs) from their Lyndon roots, as in the Runs Theorem, with
numpy kernels and no per-position Python loop.  One prefix-doubling pass
ranks every window of length 2^k, compressing a round by in-place sorts of
packed uint64 values, whose ranks come from the lengths of the groups of
equal values while there are few groups; its last round orders the
suffixes, or, stopped at a depth, the deep windows of
``Word.factor_complexities``.  Each position pairs with the end of its
longest Lyndon word under the letter order or its reverse: contiguous
comparisons of the suffix order settle the ends within a few positions,
and a search over block maxima finds the rest.  Two
longest-common-extension queries per pair turn it into a run or reject it.
Each query first compares m letters at once, packed into one uint64 per
position (one packing, padded by m zeros in front, holds the m letters
before and from each position), and only the pairs that agree on all m go
on to binary lifting over the doubling rounds of length m and above.  Only
every other round is kept: a dropped round of 2^k-letter windows reads as
two 2^(k-1)-letter halves in the round below, since two windows are equal
exactly when both halves are.  Pairs of period 1 are read off the letter
blocks instead.  That is at most 2n candidates and O(n log n) memory in
uint16 and int32 rounds, half of them kept.  Without runs, the best
extension starts at one of two text-consecutive occurrences of a doubling
window, which the same rounds and queries score, each dropped round
rebuilt once from the round below; ``brute_force_index`` is an independent
reference implementation kept deliberately naive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
    from .words import Word

ORACLE_MAX_LENGTH = 5000
ENGINE_MAX_LENGTH = 2**30


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

# Entries per slice of the chunked passes below: a temporary of 8 bytes an
# entry takes 128 KiB instead of 8 bytes a position.  Larger slices run no
# faster, and the five temporaries of the first comparison in `_extensions`
# would raise the engine's peak (by 5 bytes a letter with 2^16 entries, on
# 2e5 letters).
_CHUNK = 1 << 14


def _packed_sort(values: np.ndarray, pbits: int) -> None:
    """Sort the uint64 values (value << pbits) | position in place; the
    caller guarantees that every value fits with its position in 64 bits."""
    values <<= pbits
    for first in range(0, values.size, _CHUNK):
        part = values[first : first + _CHUNK]
        part |= np.arange(first, first + part.size, dtype=np.uint64)
    values.sort()


def _sorted_keys(key: np.ndarray, pbits: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort the uint64 keys with their positions by ``_packed_sort``; return
    the positions in that order, an int64 view of ``key``, and the bools
    new[t]: the key at t + 1 in that order differs from the key at t."""
    mask = (1 << pbits) - 1
    _packed_sort(key, pbits)
    new = np.empty(key.size - 1, dtype=bool)
    for first in range(0, new.size, _CHUNK):
        pair = key[first : first + _CHUNK + 1]
        np.greater(pair[1:] ^ pair[:-1], mask, out=new[first : first + _CHUNK])
    key &= mask
    return key.view(np.int64), new


def _first_of_each_value(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    mask = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=mask[1:])
    return mask


def _tied_pairs(order: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 (order[t], order[t + 1]) for each t where new[t] is false, the
    equal neighbours of a sorted order; gathered in ``_CHUNK`` slices, so
    the only full-length temporary is the mask."""
    same = ~new
    i = np.empty(np.count_nonzero(same), dtype=np.int32)
    j = np.empty(i.size, dtype=np.int32)
    done = 0
    for first in range(0, same.size, _CHUNK):
        pick = same[first : first + _CHUNK]
        left = order[first : first + pick.size][pick]
        i[done : done + left.size] = left
        j[done : done + left.size] = order[first + 1 : first + 1 + pick.size][pick]
        done += left.size
    return i, j


def _letter_labels(codes: np.ndarray) -> np.ndarray:
    """uint8 labels of the n letter codes, 1..k in alphabet order, followed
    by a 0 at index n for end-of-text (k <= 128 for ASCII letters); one
    ``bytes.translate`` through the label table labels the letters."""
    present = np.zeros(256, dtype=bool)
    present[codes] = True
    labels = np.zeros(codes.size + 1, dtype=np.uint8)
    table = np.cumsum(present, dtype=np.uint8).tobytes()
    labels[:-1] = np.frombuffer(codes.tobytes().translate(table), dtype=np.uint8)
    return labels


def _pair_key(rank: np.ndarray, top: int, h: int, pbits: int) -> tuple[np.ndarray, int]:
    """The keys rank * span + next + 1 of the next doubling round, with
    span = top + 2 for ranks at most ``top``: next is the rank h positions on,
    -1 past the end, so the keys order the pairs (rank at i, rank at i + h)
    and stay below (top + 1)(top + 2).  ``rank`` is an int32 round of
    ``_doubling_ranks`` with h < n; its sentinel at n is not read.

    A packed round is one whose key bound span (span - 1) - 1 is below
    2^31 - 1 and whose next round's key would still fit beside a position of
    ``pbits`` bits in 64: its keys overwrite ``rank`` as the round itself,
    with -1 at index n, in ascending slices (key i reads rank[i + h], ahead
    of every slice written).  Otherwise they are built in uint64 for
    ``_sorted_pairs`` and ``rank`` is left as it is.  Returned with span;
    the dtype tells the two apart."""
    n = rank.size - 1
    span = top + 2
    top = span * (span - 1) - 1
    if top < 2**31 - 1 and ((top + 1) * (top + 2) - 1).bit_length() + pbits <= 64:
        for first in range(0, n - h, _CHUNK):
            last = min(first + _CHUNK, n - h)
            rank[first:last] = rank[first:last] * np.int32(span) + rank[first + h : last + h] + 1
        rank[n - h : n] *= span
        rank[n] = -1
        return rank, span
    key = np.empty(n, dtype=np.uint64)
    rank = rank.view(np.uint32)  # only the sentinel is negative
    np.multiply(rank[:n], np.uint64(span), out=key)
    key[: n - h] += rank[h:n]
    key[: n - h] += 1
    return key, span


def _sorted_pairs(key: np.ndarray, span: int, pbits: int) -> tuple[np.ndarray, np.ndarray]:
    """The n uint64 keys of ``_pair_key`` in sorted order: their positions,
    equal keys by position, and the bools new[t], whether the key at t + 1
    in that order differs from the key at t.  ``key`` is used up."""
    # The key with its position fits in 64 bits after the letter round
    # (key < 2^16, pbits <= 30) and after a packed round, which was packed
    # only on that condition (a bound below the round's own, such as its
    # largest rank, only makes the keys smaller).  Otherwise the ranks come
    # from a sorted round and are dense, rank and next below n, so the key is
    # below n (n + 1) < 2^(2 pbits + 1): 3 pbits + 1 bits with the position,
    # which fit when n <= 2^21.  Past that, two stable LSD passes sort the
    # keys: first the values (next + 1) << pbits | position, below
    # 2^(2 pbits + 1), then rank << pbits | index in the first order, below
    # 2^(2 pbits); both fit for n <= 2^31.
    if (span * (span - 1) - 1).bit_length() + pbits <= 64:
        return _sorted_keys(key, pbits)
    mask = (1 << pbits) - 1
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
    return order, ordered[1:] != ordered[:-1]


# Dense ranks from group lengths (see `_ranked`).  A cumsum of a sorted
# round's ``new`` flags costs the same whatever its number of groups D, and
# ``np.repeat`` over the group lengths less the fewer groups there are.  On
# every sorted round of the silver 3iet word (2e5 letters) and of a
# characteristic word (3e5 letters, partial quotients 1..4) the cumsum took
# 0.54-0.82 ms, and the repeat 0.10-0.30 ms for D <= n / 8, 0.36-0.74 ms at
# D ~ n / 4, as long as the cumsum at n / 2 and 2-4 times as long past it
# (best of 15; 2-core x86-64 VM).  So the repeat runs while D <= n / FEW_GROUPS.
FEW_GROUPS = 4


def _ranked(
    key: np.ndarray, span: int, pbits: int
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The int32 round (dense ranks, then -1 at index n) of the n uint64 keys
    of ``_pair_key``, its largest rank, and the (order, new) of
    ``_sorted_pairs`` it was read from, whose ties pair each window with its
    next occurrence.  ``key`` is used up.

    The ranks in sorted order are built from the group lengths: each of the
    top + 1 groups repeats its rank over its length, read off the positions
    of ``new``, when there are few groups (see ``FEW_GROUPS``); they are
    0..n-1 when every key differs, and the running count of ``new`` only in
    between."""
    n = key.size
    rank = np.empty(n + 1, dtype=np.int32)  # before the sort: after it, more pages fault per call
    rank[n] = -1
    order, new = _sorted_pairs(key, span, pbits)
    top = int(np.count_nonzero(new))
    if top == n - 1:
        dense = np.arange(n, dtype=np.int32)
    elif FEW_GROUPS * (top + 1) <= n:
        lengths = np.diff(np.flatnonzero(new), prepend=-1, append=n - 1)
        dense = np.repeat(np.arange(top + 1, dtype=np.int32), lengths)
    else:
        dense = np.zeros(n, dtype=np.int32)
        dense[1:] = new
        np.cumsum(dense, out=dense)  # in place: a cumsum of the bools would copy them to int32
    rank[order] = dense  # positions are below 2^63: int64 indices scatter faster
    return rank, top, order, new


def _doubling_ranks(labels: np.ndarray, keep_from: int, width: int) -> list[np.ndarray | None]:
    """Round k ranks every window text[i:i+2^k] in lexicographic order, with
    end-of-text below every letter, so equal ranks mean equal windows inside
    the text.  Round 0 is labels - 1 for the n + 1 labels of
    ``_letter_labels``, which must be dense (the early stop reads top + 1 as
    the number of distinct letters).  Each int32 array ends with a -1 at index
    n that equals no rank.  Round k+1 ranks (rank at i, rank at i + 2^k) by
    the keys of ``_pair_key``: a packed round is the int32 keys themselves,
    a sorted round their dense ranks by ``_ranked`` over ``_sorted_pairs``.
    Doubling stops once the windows reach ``width`` letters or all differ;
    with width n the last round is an inverse suffix array up to relabelling.

    Rounds keep_from, keep_from + 2, ... and the last are kept; every other
    round is None once the next is built.  A dropped round k reads as
    round k - 1 twice, at i and at i + 2^(k-1): two windows are equal exactly
    when both halves are.  A kept round other than the last with top below
    2^16 - 1, as most are (a word of complexity 2n + 1 has about 3 * 2^k
    windows of length 2^k), is kept as a uint16 copy, made before a packed
    next round overwrites it; its sentinel 2^16 - 1 still equals no rank.
    The last stays int32, the distinct ranks that ``_lyndon_ends`` reads.
    The bound decides as the round's largest value would: a dense round's
    bound t is its largest rank, a packed round's largest key is at least
    span times the largest value before it (and 1 after t = 0, a word of one
    letter), and from no t < 2^16 does a chain of packed rounds reach a
    bound of 2^16 - 1 or more with that lower bound still below 2^16 - 1.
    """
    n = labels.size - 1
    pbits = (n - 1).bit_length()  # positions are below 2^pbits, and n <= 2^pbits
    rank = labels.astype(np.int32)
    rank -= 1
    top = int(labels.max()) - 1  # an upper bound of the ranks
    distinct = top + 1  # counted only when ranks are made dense
    rounds = [rank]
    h = 1
    while h < width and distinct < n:
        level = len(rounds) - 1
        if level < keep_from or (level - keep_from) % 2:
            rounds[-1] = None
        elif top < 2**16 - 1:  # exactly when the largest value fits (see above)
            rounds[-1] = rank.astype(np.uint16)  # the -1 sentinel wraps to 2^16 - 1
        # A round kept in int32 has top >= 2^16 - 1, so the next one is not
        # packed and leaves it as it is.
        key, span = _pair_key(rank, top, h, pbits)
        del rank  # a dropped round goes before the next round is sorted
        if key.dtype == np.int32:
            rank, top, distinct = key, span * (span - 1) - 1, 0
        else:
            rank, top = _ranked(key, span, pbits)[:2]
            distinct = top + 1
        del key
        rounds.append(rank)
        h *= 2
    return rounds


def _packing_width(k: int) -> int:
    """The letters m per uint64 packing for k letters: the largest power of
    two with m * bit_length(k) <= 64, so a label 0..k fits each slot."""
    return 1 << ((64 // k.bit_length()).bit_length() - 1)


def _packed_letters(labels: np.ndarray, m: int) -> np.ndarray:
    """uint64 P[t] holding labels[t - m : t] little-endian in m slots of 64 / m
    bits, zero outside labels; built by m - 1 shifted ORs in log2 m passes."""
    slot = 64 // m
    packed = np.concatenate((np.zeros(m, dtype=np.uint8), labels), dtype=np.uint64)
    width = 1
    while width < m:
        shift = np.uint64(slot * width)
        for first in range(0, packed.size - width, _CHUNK):  # ascending: reads lie ahead of writes
            shifted = packed[first + width : first + width + _CHUNK] << shift
            packed[first : first + shifted.size] |= shifted
        width *= 2
    return packed


def _equal_slots(x: np.ndarray, m: int, forward: bool) -> np.ndarray:
    """For x = P[a] ^ P[b], the number of equal slots, at most m, as int32,
    from the bottom slot (forward) or the top one: the trailing or leading
    zero bits of x (64 when x is 0) over the slot width.  x is overwritten."""
    if forward:
        x &= -x  # the lowest one bit, and below it the mask of the trailing zeros
        x -= np.uint64(1)
    else:
        for shift in (1, 2, 4, 8, 16, 32):  # ones from the highest one bit down
            x |= x >> np.uint64(shift)
        np.invert(x, out=x)  # the mask of the leading zeros
    return (np.bitwise_count(x) >> ((64 // m).bit_length() - 1)).astype(np.int32)


def _agree(rounds: list[np.ndarray | None], k: int, a: np.ndarray, b: np.ndarray,
           forward: bool) -> np.ndarray:
    """Whether text[a:a+2^k] == text[b:b+2^k] (forward) or
    text[a-2^k:a] == text[b-2^k:b] (backward), for a < b <= n, read off
    round k, or off round k - 1 where ``_doubling_ranks`` dropped round k:
    first the halves nearer a and b, then, only for the pairs that agree
    there, the farther halves.  Equal forward halves lie inside the text, so
    no index of the second gather passes n; backward, a window that would
    start before 0 is masked."""
    rank = rounds[k]
    if rank is None:
        half = 1 << (k - 1) if forward else -(1 << (k - 1))
        same = _agree(rounds, k - 1, a, b, forward)
        sub = np.flatnonzero(same)
        same[sub] = _agree(rounds, k - 1, a[sub] + half, b[sub] + half, forward)
        return same
    if forward:
        return rank[a] == rank[b]
    left = a - (1 << k)
    return (left >= 0) & (rank[np.maximum(left, 0)] == rank[b - (1 << k)])


def _extensions(
    rounds: list[np.ndarray | None], packed: np.ndarray, m: int, jj: np.ndarray, forward: bool,
    ii: np.ndarray | None = None,
) -> np.ndarray:
    """For the pairs i < j <= n, j = jj[t] and i = ii[t] (i = t without
    ``ii``), the largest l with text[i:i+l] == text[j:j+l] (forward) or
    text[i-l:i] == text[j-l:j] (backward).

    ``packed`` holds m letters per position from ``_packed_letters``: forward
    P[i] = text[i:i+m], read from its bottom slot, and backward
    P[i] = text[i-m:i], zero before 0, read from its top slot.  One packed
    comparison per pair counts its first m letters.  Neither end of the text
    needs a special case: the label 0 of end-of-text and of the pad equals
    no letter, and the side of the pair nearer the end (j forward, i
    backward) meets it while the other still reads a letter.  Only the
    pairs with m equal letters go on to binary lifting over rounds log2 m
    and above: an upward pass finds, on a shrinking set of pairs, the
    largest 2^k that agrees at the pair, and a downward pass adds each
    smaller 2^k down to m that agrees next.  Each step is one ``_agree``,
    which reads a round that ``_doubling_ranks`` dropped (every other one
    above log2 m) as its two halves in the round below.  One more packed
    comparison at the reached offset adds the last fewer than m letters.
    The last round's windows all differ, so l < 2^K, K = len(rounds) - 1:
    the lifting stops at round K - 1 and never reads round K, which may be
    None.  A pair with l >= m implies rounds above log2 m.  Positions and
    lengths stay below n <= 2^30, so int32 holds every sum.
    """
    def start(q):
        return q if ii is None else ii[q]

    out = np.empty(jj.size, dtype=np.int32)
    for first in range(0, jj.size, _CHUNK):
        x = packed[jj[first : first + _CHUNK]]
        x ^= packed[first : first + x.size] if ii is None else packed[ii[first : first + x.size]]
        out[first : first + x.size] = _equal_slots(x, m, forward)
    lift = m.bit_length() - 1
    reached = [np.flatnonzero(out == m).astype(np.int32)]  # reached[t]: pairs with l >= 2^(lift + t)
    for k in range(lift + 1, len(rounds) - 1):
        q = reached[-1]
        q = q[_agree(rounds, k, start(q), jj[q], forward)]
        if q.size == 0:
            break
        out[q] = 1 << k
        reached.append(q)
    for t in range(len(reached) - 1, 0, -1):
        q = reached[t]
        k = lift + t - 1
        at = out[q] if forward else -out[q]
        out[q] += _agree(rounds, k, start(q) + at, jj[q] + at, forward).astype(np.int32) << k
    q = reached[0]
    at = out[q] if forward else -out[q]
    out[q] += _equal_slots(packed[start(q) + at] ^ packed[jj[q] + at], m, forward)
    return out


def _first_above(values: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each query, the first j >= p[q] with values[j] > v[q], or n when
    there is none; p (int32, p <= n) is overwritten with the answers.

    Rows off[k] + b of the table hold the maximum of the aligned block
    values[b 2^k : (b + 1) 2^k], under 2n rows in all.  Climbing, level k
    tests the block that holds the query's position; when the block holds
    no winner, the position moves to its end, which the block of the next
    level holds or starts at.  Only blocks without a winner are passed over,
    so the first block that holds one is then halved down to its first
    winner.  The open queries are compacted once a level, and the winners
    are kept by level, so each step of the descent reads a prefix of them.
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
    q = np.flatnonzero(p < n).astype(np.int32)  # the open queries, their positions and values
    at, above = p[q], v[q]
    found = []  # per level k: the queries whose block there holds a winner, its start, v
    k = 0
    while q.size:
        block = at >> k
        won = tab[off[k] + block] > above
        found.append((q[won], block[won] << k, above[won]))
        block += 1
        block <<= k  # the end of the block, where the next level goes on
        miss = ~won & (block < n)
        q, at, above = q[miss], block[miss], above[miss]
        k += 1
    p[:] = n
    if not found:
        return p
    q, at, above = (np.concatenate(column[::-1]) for column in zip(*found))
    reach = list(accumulate(len(level[0]) for level in found[::-1]))
    for k in range(len(found) - 1, 0, -1):
        part = at[: reach[-k - 1]]  # the winners found at level k or above
        passed = tab[off[k - 1] + (part >> (k - 1))] <= above[: part.size]
        part += passed.astype(np.int32) << (k - 1)
    p[q] = at
    return p


# The reach of the contiguous scan in `_lyndon_ends`.  90% of the ends lie
# within 16 positions on the silver 3iet word (eps = sqrt2 - 1, ell = 7/10,
# 2e5 letters), 92% on a characteristic word (3e5 letters, partial
# quotients 1..4).  At 1e6 letters of either word `_lyndon_ends` took
# 34-39 ms with a reach of 16, 36-45 ms with 32, 39-47 ms with 8 and
# 120-150 ms with none (best of seven, two runs; 2-core x86-64 VM).
SHORT_ENDS = 16


def _lyndon_ends(isa: np.ndarray) -> np.ndarray:
    """For each i < n - 1 of the distinct int32 ranks isa, the one of the
    next j > i of smaller rank and the next j > i of greater rank (n when
    there is none) that is not i + 1.

    One of the two is i + 1, so the other is the first j >= i + 2 whose rank
    lies on the other side of isa[i] than isa[i + 1]: isa[j] > isa[i]
    differs from rising[i] = isa[i + 1] > isa[i].  Contiguous comparisons
    of isa[d:] with isa[:-d] for d = 2..SHORT_ENDS settle every end within
    SHORT_ENDS positions, the smallest such d winning.  They compare into
    two byte arrays inside the ends buffer, before ends is written, and
    store d by int8 arithmetic, several times faster than a masked copy.
    The open positions search from i + SHORT_ENDS + 1 for the first greater
    value in isa, or in ~isa = -1 - isa for a smaller rank; isa is inverted
    in place for that search and back after it, so no copy is made.
    """
    n = isa.size
    rising = isa[1:] > isa[:-1]
    dist = np.zeros(n - 1, dtype=np.int8)
    ends = np.empty(n - 1, dtype=np.int32)
    scratch = ends.view(np.uint8)
    hit, step = scratch[: n - 1].view(bool), scratch[n - 1 : 2 * n - 2].view(np.int8)
    for d in range(min(SHORT_ENDS, n - 1), 1, -1):
        here, add, near = hit[: n - d], step[: n - d], dist[: n - d]
        np.greater(isa[d:], isa[:-d], out=here)
        np.not_equal(here, rising[: n - d], out=here)
        np.subtract(d, near, out=add)
        add *= here
        near += add  # near = d where here
    np.add(np.arange(n - 1, dtype=np.int32), dist, out=ends)
    at = np.flatnonzero(dist == 0).astype(np.int32)
    up = rising[at]
    for q in (at[~up], at[up]):
        ends[q] = _first_above(isa, np.minimum(q + SHORT_ENDS + 1, n), isa[q])
        np.invert(isa, out=isa)  # ~isa = -1 - isa, then isa again
    return ends


def _candidates(text: str) -> tuple[tuple[np.ndarray, ...], partial | None]:
    """(runs, run_free): the maximal periodic segments of exponent >= 2 as
    int32 (start, end, period), and None; without any, empty arrays and
    ``_occurrence_candidates`` deferred on the same rounds, which
    ``word_index_estimate`` runs and ``max_runs`` drops with the rounds.

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
    blocks of length >= 2, read off the letters equal to the one before;
    only the other end at each i is extended.
    """
    n = len(text)
    if n > ENGINE_MAX_LENGTH:
        raise ParameterError(f"word of length {n} exceeds the runs engine's limit (2^30)")
    labels = _letter_labels(np.frombuffer(text.encode("ascii"), dtype=np.uint8))
    m = _packing_width(int(labels.max()))
    rounds = _doubling_ranks(labels, m.bit_length() - 1, n)
    jj = _lyndon_ends(rounds[-1][:n])
    rounds[-1] = None  # only its length counts from here on
    packed = _packed_letters(labels, m)  # text[i - m : i] at i, text[i : i + m] at m + i
    f = _extensions(rounds, packed[m:], m, jj, forward=True)
    b = _extensions(rounds, packed, m, jj, forward=False)
    reach = np.empty(n - 1, dtype=bool)  # the pairs kept, read once for the test and the runs
    for first in range(0, n - 1, _CHUNK):  # in slices: no full-length temporary beside the packing
        part = slice(first, first + _CHUNK)
        jj[part] -= np.arange(first, min(first + _CHUNK, n - 1), dtype=np.int32)  # the periods
        np.greater_equal(f[part] + b[part], jj[part], out=reach[part])
    if not reach.any() and (labels[1:] != labels[:-1]).all():  # no pair kept, no block: no run
        empty = np.empty((3, 0), dtype=np.int32)
        return empty, partial(_occurrence_candidates, labels, packed[m:], m, rounds)
    del rounds, packed  # the blocks and kept candidates come after: a lower process peak
    # The letter blocks of length >= 2: the edges of the stretches of equal
    # neighbours (end-of-text has none), padded by a false at each end,
    # alternate between a block's start and its last letter.
    edges = np.flatnonzero(np.diff(labels[1:] == labels[:-1], prepend=False, append=False))
    edges = edges.astype(np.int32)
    edges[1::2] += 1  # the block ends, one past their last letters
    block_start, block_end = edges[0::2], edges[1::2]
    keep = np.flatnonzero(reach).astype(np.int32)
    f, b, period = f[keep], b[keep], jj[keep]
    del jj, reach
    f += keep
    f += period  # the ends
    keep -= b  # the starts
    period = np.concatenate((np.ones(block_start.size, dtype=np.int32), period))
    return (np.concatenate((block_start, keep)), np.concatenate((block_end, f)), period), None


def _occurrence_candidates(
    labels: np.ndarray, packed: np.ndarray, m: int, rounds: list[np.ndarray | None]
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
    needs it: a pair of level k lifts only through rounds up to k.  A round
    that ``_doubling_ranks`` dropped is rebuilt when its level comes, by one
    more doubling step from an int32 copy of the round below (a packed step
    overwrites it) with that round's largest rank as the bound; a sorted
    step hands back its sort, which is then this level's, and the rebuilt
    round serves again in the next level's test.  The last round's windows
    all differ, so its test is skipped and the round may be None.  Windows
    under m letters are keyed by packed letters (32 bits at most, ranks 31)
    beside a position in one sort, and tested at the pairs alone.  The labels, packing
    P[i] = text[i:i+m], m and rounds are those of ``_candidates``; the
    rounds are used up.
    """
    n = labels.size - 1
    lift = m.bit_length() - 1
    pbits = (n - 1).bit_length()

    def windows(k, at=slice(n)):
        """Keys at ``at``, equal exactly where their 2^k-letter windows are."""
        return rounds[k][at] if k >= lift else packed[at] & np.uint64((1 << ((64 // m) << k)) - 1)

    best = [(1, 1, 0)]
    last = len(rounds) - 1
    for k in range(last - 1, -1, -1):
        sort = None
        if rounds[k] is None and k > lift:
            below = rounds[k - 1]
            top = int(below[:n].max())
            key, span = _pair_key(below.astype(np.int32), top, 1 << (k - 1), pbits)
            if key.dtype == np.uint64:
                key, _, *sort = _ranked(key, span, pbits)
            rounds[k] = key
            del key
        if sort is None:
            sort = _sorted_keys(windows(k).astype(np.uint64, copy=False), pbits)
        i, j = _tied_pairs(*sort)
        del sort
        keep = labels[i - 1] != labels[j - 1]  # labels[-1] is end-of-text
        if k + 1 < last:
            keep &= windows(k + 1, i) != windows(k + 1, j)
        i, j = i[keep], j[keep]
        if i.size:
            f = _extensions(rounds, packed, m, j, forward=True, ii=i)
            best.append(_best_extension(i, j + f, j - i))
        rounds.pop()
    length, period, start = (np.array(column, dtype=np.int32) for column in zip(*best))
    return start, start + length, period


def _best_extension(start: np.ndarray, end: np.ndarray, period: np.ndarray) -> tuple[int, int, int]:
    """(length, period, start) of the candidate maximizing length/period;
    ties prefer the smallest period, then the smallest start.

    Exact integer arithmetic: lengths are at most 2^31 and periods at most
    2^30.  One pass, a ``_CHUNK`` slice at a time, takes the exact floor of
    length * 2^31 / period (numerators below 2^62) and keeps the candidates
    at the top floor, which hold every best one, since the floor does not
    fall as the ratio rises.  Only those compare, by int64
    cross-multiplication (products below 2^61): each pass moves to a
    strictly better ratio until none is left, and the tie-break picks among
    the best.
    """
    top, at = -1, []
    for first in range(0, start.size, _CHUNK):
        part = slice(first, first + _CHUNK)
        floors = (end[part] - start[part]).astype(np.int64)
        floors <<= 31
        floors //= period[part]
        high = int(floors.max())
        if high > top:
            top, at = high, []
        if high == top:
            at.append(first + np.flatnonzero(floors == top))
    at = np.concatenate(at)
    starts = start[at]
    lengths = (end[at] - starts).astype(np.int64)
    periods = period[at].astype(np.int64)
    best = 0
    while True:
        gain = lengths * periods[best] - lengths[best] * periods
        k = int(gain.argmax())
        if gain[k] <= 0:
            break
        best = k
    tied = np.flatnonzero(gain == 0)
    k = tied[np.lexsort((starts[tied], periods[tied]))[0]]
    return int(lengths[k]), int(periods[k]), int(starts[k])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def max_runs(prefix: Word) -> list[Run]:
    """All maximal repetitions of exponent >= 2, sorted by start then period."""
    if len(prefix) < 1:
        raise ParameterError("word must be nonempty")
    start, end, period = _candidates(prefix.text)[0]
    key = start.astype(np.int64) * (len(prefix) + 1) + end
    order = np.lexsort((period, key))
    chosen = order[_first_of_each_value(key[order])]  # the smallest period of each span
    runs = [Run(int(s), int(p), int(e - s))
            for s, e, p in zip(start[chosen], end[chosen], period[chosen])]
    runs.sort(key=lambda run: (run.start, run.period))
    return runs


def word_index_estimate(prefix: Word) -> IndexReport:
    """Repetition index of a finite word, with witnesses.

    For a prefix of an infinite word this is a lower bound of the infinite
    word's index that grows monotonically with the prefix.
    """
    if len(prefix) < 1:
        raise ParameterError("word must be nonempty")
    runs, run_free = _candidates(prefix.text)
    length, period, start = _best_extension(*(runs if run_free is None else run_free()))
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
