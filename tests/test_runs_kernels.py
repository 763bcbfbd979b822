"""The numpy kernels inside the runs engine against direct references.

`_lyndon_ends` is compared with the sequential next-smaller/next-greater
walk, `_first_above` with a scan, `_equal_slots` with a slot-by-slot count,
`_extensions` with a letter-by-letter comparison, `_ranked` with
`np.unique` and a stable argsort, and every kept doubling round with the
order of its windows; the doubling sort is checked
on two words longer than 2^21 letters, where one packed sort key uses all
64 bits and where the keys no longer fit and two sorting passes take over.
The rounds and runs of two long words are pinned by digests.
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ietlab.errors import ParameterError
from ietlab.exactreal import CFExpansion, parse_quadratic
from ietlab.repetitions import (
    _CHUNK,
    FEW_GROUPS,
    SHORT_ENDS,
    _best_extension,
    _candidates,
    _doubling_ranks,
    _equal_slots,
    _extensions,
    _first_above,
    _letter_labels,
    _lyndon_ends,
    _packed_letters,
    _packing_width,
    _ranked,
    _sorted_pairs,
    _tied_pairs,
    max_runs,
    word_index_estimate,
)
from ietlab.sturmian import characteristic_prefix
from ietlab.threeiet import ThreeIetParams, threeiet_word
from ietlab.words import Word

from oracles import naive_extension, naive_runs, sequential_lyndon_ends

ENDS = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def check_ends(isa):
    """The kernel's end at each i < n - 1 is the sequential end that is not i + 1."""
    isa = np.asarray(isa, dtype=np.int32)
    smaller, greater = sequential_lyndon_ends(isa.tolist())
    expected = []
    for i, pair in enumerate(zip(smaller[:-1], greater[:-1])):
        assert pair.count(i + 1) == 1
        expected.append(pair[0] if pair[1] == i + 1 else pair[1])
    ends = _lyndon_ends(isa)
    assert ends.dtype == np.int32
    assert ends.tolist() == expected


# lengths around powers of two leave a partial last block at every level
EDGE_LENGTHS = [m for k in range(1, 8) for m in (2**k - 1, 2**k, 2**k + 1)]


@ENDS
@given(st.one_of(st.integers(1, 200), st.sampled_from(EDGE_LENGTHS))
       .flatmap(lambda n: st.permutations(range(n))))
def test_ends_of_permutations(ranks):
    check_ends(ranks)


@ENDS
@given(st.lists(st.integers(0, 2**31 - 2), min_size=1, max_size=200, unique=True))
def test_ends_of_sparse_distinct_ranks(ranks):
    # a packed last round holds distinct ranks that are not 0..n-1
    check_ends(ranks)


@ENDS
@given(st.integers(SHORT_ENDS - 1, SHORT_ENDS + 3).flatmap(lambda n: st.permutations(range(n))))
def test_ends_at_the_short_scan_seam(ranks):
    # lengths around SHORT_ENDS: the contiguous scan covers all or all but
    # the last few positions of each row
    check_ends(ranks)


@pytest.mark.parametrize("dist", [SHORT_ENDS, SHORT_ENDS + 1])
@pytest.mark.parametrize("tail", [0, 1, 5])
def test_ends_at_the_short_scan_limit(dist, tail):
    # the end at 0 lies exactly at dist: the last the contiguous scan
    # settles, and the first the block-maximum search finds
    middle = list(range(100, 100 + dist - 1))
    for isa in ([1000] + middle + [2000] + list(range(3000, 3000 + tail)),
                [1000] + [2000 + v for v in middle] + [0] + list(range(3000, 3000 + tail))):
        check_ends(isa)
        assert _lyndon_ends(np.asarray(isa, dtype=np.int32))[0] == dist
        check_ends([-1 - v for v in isa])


def test_ends_of_monotone_ranks():
    for n in (1, 2, 3, 127, 128, 129, 1000):
        check_ends(range(n))
        check_ends(range(n - 1, -1, -1))


def test_ends_of_rise_then_fall():
    # a^m b^m: ranks rise along the a's and fall along the b's
    m = 2**15
    codes = np.frombuffer(b"a" * m + b"b" * m, dtype=np.uint8)
    check_ends(_doubling_ranks(_letter_labels(codes), 0, 2 * m)[-1][: 2 * m])


# alphabet sizes whose labels take 1..7 bits, packed 64, 32, 16 and 8 to a word
ALPHABETS = {1: 64, 2: 32, 3: 32, 4: 16, 8: 16, 16: 8, 32: 8, 64: 8, 100: 8}
LETTERS = bytes(range(20, 120)).decode("ascii")


@ENDS
@given(st.data())
def test_doubling_stops_at_the_width(data):
    # The last round ranks the sentinel-padded 2^K-letter slices, 2^K the
    # first power of two >= width, or less once every window differs.
    alphabet = data.draw(st.sampled_from([LETTERS[:k] for k in range(1, 6)] + [LETTERS]))
    text = data.draw(st.text(alphabet, min_size=1, max_size=80))
    n = len(text)
    k = data.draw(st.integers(1, 7))
    width = data.draw(st.sampled_from([1, 2, 3, 2**k - 1, 2**k, 2**k + 1, n])
                      .filter(lambda w: w <= n))
    rounds = _doubling_ranks(_letter_labels(np.frombuffer(text.encode("ascii"), np.uint8)),
                             0, width)
    last = rounds[-1][:n].tolist()
    size = 2 ** (len(rounds) - 1)
    assert size < 2 * width
    slices = [text[i : i + size].ljust(size, "\0") for i in range(n)]
    if size < width:
        assert len(set(slices)) == n
    order = sorted(range(n), key=slices.__getitem__)
    for a, b in zip(order, order[1:]):
        assert last[a] < last[b] if slices[a] < slices[b] else last[a] == last[b]


@ENDS
@given(st.data())
def test_every_kept_round_ranks_its_windows(data):
    # Each round k that is kept ranks the sentinel-padded 2^k-letter windows:
    # equal values exactly for equal windows, in the order of the windows,
    # and ends with a sentinel that equals none of them.  Packed rounds
    # (int32 keys) and sorted rounds (dense ranks) alike; a kept round is
    # uint16 exactly when its largest value fits beside the sentinel
    # 2^16 - 1, and the last round is int32.
    k = data.draw(st.integers(1, 100))
    text = data.draw(st.text(LETTERS[:k], min_size=1, max_size=80))
    n = len(text)
    keep_from = data.draw(st.integers(0, 4))
    rounds = _doubling_ranks(_letter_labels(np.frombuffer(text.encode("ascii"), np.uint8)),
                             keep_from, n)
    assert rounds[-1].dtype == np.int32
    for level, rank in enumerate(rounds):
        if rank is None:
            continue
        values = rank[:n].tolist()
        assert int(rank[n]) == (2**16 - 1 if rank.dtype == np.uint16 else -1)
        if level < len(rounds) - 1:
            assert (rank.dtype == np.uint16) == (max(values) < 2**16 - 1)
        size = 2**level
        windows = [text[i : i + size].ljust(size, "\0") for i in range(n)]
        order = sorted(range(n), key=windows.__getitem__)
        for a, b in zip(order, order[1:]):
            assert values[a] < values[b] if windows[a] < windows[b] else values[a] == values[b]


def test_uint16_decision_by_the_bound():
    # A kept round turns uint16 by its bound, which must decide as its
    # largest value would.  After a dense round of largest rank t the bound
    # of each packed round is (b + 1)(b + 2) - 1 for the bound b before, and
    # its largest key at least (b + 2) times the largest value before (at
    # least 1 after t = 0); no chain puts the bound at 2^16 - 1 or more and
    # that lower bound below it.
    limit = 2**16 - 1
    for t in range(limit):
        bound, low = t, t
        while bound < limit:
            bound, low = (bound + 1) * (bound + 2) - 1, max(low * (bound + 2), 1)
        assert low >= limit, t


@ENDS
@given(st.data())
def test_first_above_matches_a_scan(data):
    values = data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=300))
    n = len(values)
    queries = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(-45, 45)), max_size=40))
    p = np.array([q[0] for q in queries], dtype=np.int32)
    v = np.array([q[1] for q in queries], dtype=np.int32)
    got = _first_above(np.array(values, dtype=np.int32), p, v).tolist()
    assert got == [next((j for j in range(start, n) if values[j] > above), n)
                   for start, above in queries]


def test_packing_widths():
    assert {k: _packing_width(k) for k in ALPHABETS} == ALPHABETS


def reference_equal_slots(x, m, forward):
    """Equal (zero) slots of x one slot at a time, from the bottom slot
    (forward) or from the top slot (backward)."""
    width = 64 // m
    slots = [(x >> (width * s)) & ((1 << width) - 1) for s in range(m)]
    if not forward:
        slots.reverse()
    return next((s for s, slot in enumerate(slots) if slot), m)


@pytest.mark.parametrize("m", sorted(set(ALPHABETS.values())))
def test_equal_slots_from_either_end(m):
    width = 64 // m
    rng = random.Random(m)
    values = [0, 2**64 - 1, 1, 1 << 63]
    for s in (0, m - 1):  # a single differing bottom or top slot, lowest and highest bit
        values += [1 << (width * s), (1 << width) - 1 << (width * s), 1 << (width * s + width - 1)]
    values += [1 << rng.randrange(64) for _ in range(100)]
    values += [rng.getrandbits(64) & ~((1 << rng.randrange(65)) - 1) for _ in range(100)]
    values += [rng.getrandbits(rng.randrange(65)) for _ in range(100)]
    for forward in (True, False):
        got = _equal_slots(np.array(values, dtype=np.uint64), m, forward)
        assert got.dtype == np.int32
        assert got.tolist() == [reference_equal_slots(x, m, forward) for x in values], forward


def check_extensions(text, jj):
    """`_extensions` as the engine calls it, both directions on one padded
    packing, against the letter-by-letter oracle."""
    n = len(text)
    labels = _letter_labels(np.frombuffer(text.encode("ascii"), dtype=np.uint8))
    m = _packing_width(int(labels.max()))
    rounds = _doubling_ranks(labels, m.bit_length() - 1, n)
    jj = np.asarray(jj, dtype=np.int32)
    packed = _packed_letters(labels, m)
    forward = _extensions(rounds, packed[m:], m, jj, forward=True)
    backward = _extensions(rounds, packed, m, jj, forward=False)
    for i, j in enumerate(jj.tolist()):
        assert forward[i] == naive_extension(text, i, j, True), (i, j)
        assert backward[i] == naive_extension(text, i, j, False), (i, j)
    return forward, backward


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_extensions_match_the_oracle(data):
    k = data.draw(st.sampled_from(sorted(ALPHABETS)))
    m = ALPHABETS[k]
    alphabet = LETTERS[:k]
    letters = st.sampled_from(alphabet)
    # A stretch of period p extends a run by exactly lce letters around m,
    # unless it reaches the end of the text.  Every letter occurs, in the
    # head or at the end of the tail, so the engine packs m letters; the
    # other side may be empty, so runs reach the end or position 0.
    p = data.draw(st.integers(1, 12))
    lce = data.draw(st.sampled_from([0, 1, m - 1, m, m + 1, 2 * m, 2 * m + 1, 4 * m - 1]))
    head = data.draw(st.text(letters, max_size=data.draw(st.sampled_from([0, 3, 40]))))
    root = data.draw(st.text(letters, min_size=p, max_size=p))
    stretch = (root * (lce // p + 2))[: p + lce]
    breaker = [c for c in alphabet if c != root[lce % p]]
    tail = ""
    if data.draw(st.booleans()) and breaker:
        tail = data.draw(st.sampled_from(breaker)) + data.draw(st.text(letters, max_size=30))
    if data.draw(st.booleans()):
        head = alphabet + head
    elif tail:
        tail += alphabet
    else:
        head = alphabet
    text = head + stretch + tail
    assert len(set(text)) == k
    n = len(text)
    if n < 2:
        return
    check_extensions(text, [min(n, i + p) for i in range(n - 1)])
    seed = data.draw(st.integers(0, 2**32 - 1))
    check_extensions(text, np.random.default_rng(seed).integers(np.arange(1, n), n + 1))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_extensions_over_dropped_rounds(data):
    # A periodic stretch of up to 700 letters lifts pairs through rounds
    # log2 m + 1 to 10, every other one dropped and read as two halves of
    # the round below.  A stretch that runs to the end of the text puts
    # forward pairs whose second half starts at or past n; one that starts
    # at 0 puts backward pairs whose window would start before 0.
    alphabet = LETTERS[: data.draw(st.sampled_from([1, 2, 3, 5, 16, 100]))]
    letters = st.sampled_from(alphabet)
    p = data.draw(st.integers(1, 12))
    root = data.draw(st.text(letters, min_size=p, max_size=p))
    stretch = root * 60
    stretch = stretch[: data.draw(st.integers(p, len(stretch)))]
    head = data.draw(st.sampled_from(["", alphabet]))
    tail = data.draw(st.sampled_from(["", alphabet[::-1]]))
    text = head + data.draw(st.text(letters, max_size=3)) + stretch + tail
    n = len(text)
    if n < 2:
        return
    labels = _letter_labels(np.frombuffer(text.encode("ascii"), dtype=np.uint8))
    m = _packing_width(int(labels.max()))
    lift = m.bit_length() - 1
    rounds = _doubling_ranks(labels, lift, n)
    last = len(rounds) - 1
    assert [k for k in range(lift, last) if rounds[k] is None] == list(range(lift + 1, last, 2))
    near = [min(n, i + d) for i in range(n - 1) for d in (p, 2 * p)]
    ends = [n] * (n - 1)
    check_extensions(text, near[0::2])
    check_extensions(text, near[1::2])
    check_extensions(text, ends)
    seed = data.draw(st.integers(0, 2**32 - 1))
    check_extensions(text, np.random.default_rng(seed).integers(np.arange(1, n), n + 1))


@pytest.mark.parametrize("k", sorted(ALPHABETS))
def test_backward_extensions_stop_at_the_pad(k):
    # A stretch of period p from position 0: the pair (i, i + p) agrees on
    # every letter before i, so its backward window reaches the zero pad
    # before position 0 and its extension is exactly i, whether the pad
    # meets the first packed comparison (i < m) or the last one.
    m = ALPHABETS[k]
    rng = random.Random(k)
    for p in sorted({1, 2, 3, m - 1, m + 1}):
        root = "".join(rng.choice(LETTERS[:k]) for _ in range(p))
        stretch = (root * (4 * m // p + 2))[: 4 * m + 1 + p]
        text = stretch + LETTERS[:k]  # every letter occurs, so the engine packs m
        backward = check_extensions(text, [i + p for i in range(len(text) - 1)
                                           if i + p <= len(text)])[1]
        assert backward[: 4 * m + 2].tolist() == list(range(4 * m + 2)), p


@pytest.mark.parametrize("span", [2**16, 2**22])
def test_ties_of_both_sorts(span):
    # With 21 position bits, keys below 2^32 sort in one pass and keys below
    # 2^44 in two; either way the ranks order the keys, and each tie pairs a
    # position with the next position of the same key, in key order.
    rng = np.random.default_rng(span)
    values = rng.integers(0, 6, size=(2, 3000)) * [[span], [1]]
    key = values.sum(axis=0).astype(np.uint64)
    rank, top = _ranked(key.copy(), span, 21)[:2]
    ties = _tied_pairs(*_sorted_pairs(key.copy(), span, 21))
    order = sorted(range(key.size), key=lambda i: (int(key[i]), i))
    assert len(set(key.tolist())) == top + 1
    for a, b in zip(order, order[1:]):
        assert rank[a] < rank[b] if key[a] < key[b] else rank[a] == rank[b]
    pairs = [(a, b) for a, b in zip(order, order[1:]) if key[a] == key[b]]
    assert list(zip(*(t.tolist() for t in ties))) == pairs
    assert [t.dtype for t in ties] == [np.int32, np.int32]


def check_ranked(key, span):
    """`_ranked` against `np.unique`: its ranks and largest rank, the -1
    after them, and the (order, new) of a stable sort of the keys."""
    key = np.asarray(key, dtype=np.uint64)
    n = key.size
    pbits = (n - 1).bit_length()
    distinct, inverse = np.unique(key, return_inverse=True)
    rank, top, order, new = _ranked(key.copy(), span, pbits)
    assert rank.dtype == np.int32 and rank.size == n + 1 and rank[n] == -1
    assert rank[:n].tolist() == inverse.tolist()
    assert top == distinct.size - 1
    stable = np.argsort(key, kind="stable")
    assert order.tolist() == stable.tolist()
    assert new.tolist() == (key[stable][1:] != key[stable][:-1]).tolist()


# With 12 position bits (4096 keys), keys below span (span - 1) sort in one
# pass for the first span and in two for the second; with fewer, in one.
SPANS = [2**10, 2**27]


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("n", [1, 2, 3, 4096])
def test_ranked_of_one_group(n, span):
    check_ranked([span + 7] * n, span)


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("n", [2, 3, 4096])
def test_ranked_of_distinct_keys(n, span):
    # every key differs: the last round of every word
    keys = np.random.default_rng(n).permutation(n) * ((span * (span - 1) - 2) // n) + 1
    assert np.unique(keys).size == n
    check_ranked(keys, span)


@pytest.mark.parametrize("span", SPANS)
def test_ranked_at_two_keys(span):
    check_ranked([5, 3], span)
    check_ranked([3, 5], span)
    check_ranked([4, 4], span)


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("groups", [2, 3, 17, 4096 // FEW_GROUPS - 1, 4096 // FEW_GROUPS,
                                    4096 // FEW_GROUPS + 1, 4096 // FEW_GROUPS + 2, 2000, 4095])
def test_ranked_on_both_sides_of_the_group_switch(groups, span):
    # 4096 keys in a given number of groups: few groups take the repeat over
    # the group lengths, more the running count; the groups' keys and sizes
    # are scattered, and one group holds a single key
    rng = np.random.default_rng(groups)
    values = np.sort(rng.choice(span * (span - 1) - 1, size=groups, replace=False))
    sizes = np.ones(groups, dtype=np.int64)
    sizes += np.bincount(rng.integers(1, groups, size=4096 - groups), minlength=groups)
    keys = rng.permutation(np.repeat(values, sizes))
    check_ranked(keys, span)


@pytest.mark.parametrize("seed", range(4))
def test_best_extension_against_fractions(seed):
    # Over three slices: ratios 2 - 5/p for periods p just below 2^29 share
    # one floor of length * 2^31 / period but differ, one (length, period)
    # recurs at five starts, and every other ratio lies on a lower floor.
    rng = np.random.default_rng(seed)
    size = 2 * _CHUNK + 1000
    period = rng.integers(11, 2**29, size=size)
    length = period + rng.integers(0, period - 10)
    close = rng.choice(size, size=60, replace=False)
    period[close] = 2**29 - rng.integers(1, 50, size=close.size)
    period[close[:5]] = period[close[30:35]] = 2**29 - 1
    length[close] = 2 * period[close] - 5
    if seed % 2:
        length[close[30:]] = 2 * period[close[30:]] - 4  # a higher floor
    start = rng.integers(0, 2**30, size=size)
    got = _best_extension(*(a.astype(np.int32) for a in (start, start + length, period)))
    best = max(zip(length.tolist(), period.tolist(), start.tolist()),
               key=lambda c: (Fraction(c[0], c[1]), -c[1], -c[2]))
    assert got == best


def period_one_runs(text):
    """The period-1 runs of ``max_runs`` and of ``naive_runs``."""
    runs = [(r.start, r.period, r.length) for r in max_runs(Word.from_text(text))]
    return ([r for r in runs if r[1] == 1], [r for r in naive_runs(text) if r[1] == 1])


@pytest.mark.parametrize("text", [
    "a", "aa", "aaa", "a" * 70,
    "ab", "abab", "ba" * 30 + "b",
    "aab", "baa", "aabb", "aaba", "abaa", "abbba", "aabbaab", "aaabaaa",
    "bbacbbbbcaa", "abcccbbbaccaaacab", "abcabcaa", "aabcabc",
])
def test_period_one_runs_are_the_letter_blocks(text):
    engine, oracle = period_one_runs(text)
    assert engine == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 4)), min_size=1, max_size=12))
def test_period_one_runs_of_random_blocks(blocks):
    text = "".join(letter * size for letter, size in blocks)
    engine, oracle = period_one_runs(text)
    assert engine == oracle


def test_run_free_path_only_without_blocks_and_runs():
    # vtm is square-free and has no letter block: the run-free search
    # scores it; one block, or one square, sends the word down the runs path
    vtm = "abcacbabcbacabcacbacabcb"
    runs, run_free = _candidates(vtm)
    assert [r.size for r in runs] == [0, 0, 0] and run_free is not None
    for text in ("a", "ab", "abc", vtm + "b", "aabcacb", vtm[:5] + vtm[:5]):
        runs, run_free = _candidates(text)
        assert (run_free is None) == bool(naive_runs(text)), text


# sha256 of each kept round of `_doubling_ranks` (its dtype and bytes) and
# of the runs of `max_runs`, recorded before the ranks were built from the
# group lengths
SILVER_ROUNDS = {
    5: ("uint16", "8ec13ec1dced453e6599fc4108608b806f45baa15720d0480047615b88f724a9"),
    7: ("uint16", "d7b9798baa1e32a5bb03e793fb375986de95b05faffe4a3657162bac14330586"),
    9: ("uint16", "5423cc57152789687629d437b714a71301dcbb04f3abc7a7dc9b0a035874a886"),
    11: ("uint16", "c24de8db660d1f00adee997f54ea1b53a323fe9a2e28146ffa348e2d43f20a6b"),
    13: ("uint16", "861b590046128a6482b8e17f9e34a41eb35b37d8923911163037b49178a0cfb7"),
    15: ("int32", "d1d6fabacf9763f94325d6bdab1ed3b94dba50abbd226bbbc372a6ed1fee3299"),
    17: ("int32", "f914a430722266213ac5a0a10fc4a4f7651f716a519310ad1d7d33a592dc88d2"),
}
SILVER_RUNS = (98023, "3142501ee6a7d9c52770e882f7b212999aa01fee2b194d340dbbc428229b79f5")
CHARACTERISTIC_ROUNDS = {
    5: ("uint16", "4cc31e3976ac3d925c1b256224f39c5dcfbc5cab35c9f4738d5c3ab75c0422fa"),
    7: ("uint16", "4528d0556142ea102f90f392dd1e7f208f6042e521fc1b213d58299c951d08fc"),
    9: ("uint16", "75f0d8b68b55cf5e7f4c2fe14206967fe913e5726b2d91837bacd35b26444f90"),
    11: ("uint16", "4d7eea095df9a92cf711f4a422def26e261abb23079eaffa02957b9ca5777818"),
    13: ("uint16", "3eaa5252e6669ea358226c8d6021db2a35755fe144aa9c2acd4d70789dc462b0"),
    15: ("int32", "9d3679843c82341be5d4931c87b9f25b0fbe635bcf7efb450b87660e997ddd44"),
    17: ("int32", "e0527ac83a05017231d23209474dc279990fac2d36137acd1c4ec9a4512d2c41"),
    18: ("int32", "e73bd17741a9f4794b5b2f25e6fc0081dd243e3b033ad931a639a63ff031ec9e"),
}
CHARACTERISTIC_RUNS = (209382, "6f74959a7aeade36ad347072ea101e95afe93313bea95458f052a9ea5a436e1a")


def silver_word():
    quadratic = parse_quadratic
    params = ThreeIetParams(quadratic("(-1+1*sqrt(2))/1"), quadratic("7/10"), quadratic("0"))
    return threeiet_word(params, 200_000)


@pytest.mark.parametrize("make_word, rounds, runs", [
    (silver_word, SILVER_ROUNDS, SILVER_RUNS),
    (lambda: characteristic_prefix(CFExpansion.from_quotients([1, 2, 3, 4] * 10), 300_000),
     CHARACTERISTIC_ROUNDS, CHARACTERISTIC_RUNS),
], ids=["silver-3iet-2e5", "characteristic-3e5"])
def test_rounds_and_runs_of_record(make_word, rounds, runs):
    # the engine's own keep_from, log2 m, and width n
    word = make_word()
    labels = _letter_labels(np.frombuffer(word.text.encode("ascii"), dtype=np.uint8))
    m = _packing_width(int(labels.max()))
    kept = _doubling_ranks(labels, m.bit_length() - 1, len(word))
    assert {k: (str(r.dtype), hashlib.sha256(r.tobytes()).hexdigest())
            for k, r in enumerate(kept) if r is not None} == rounds
    found = [(r.start, r.period, r.length) for r in max_runs(word)]
    assert (len(found), hashlib.sha256(repr(found).encode()).hexdigest()) == runs


def suffix_less(text, a, b):
    """text[a:] < text[b:], by windows that double until they differ."""
    size = 64
    while True:
        x, y = text[a : a + size], text[b : b + size]
        if x != y or len(x) < size:
            return x < y
        size *= 2


def check_long_word(text, key_bits, golden, depth):
    n = len(text)
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # keep round depth - 1, the one before the last, round depth
    rounds = _doubling_ranks(_letter_labels(codes), depth - 1, n)
    assert len(rounds) == depth + 1
    # the last round's key bound, from the dense ranks before it, and positions
    top = int(rounds[depth - 1][:n].max())
    assert ((top + 1) * (top + 2) - 1).bit_length() + (n - 1).bit_length() == key_bits
    last = rounds[-1]
    del rounds
    assert np.array_equal(np.sort(last[:n]), np.arange(n))
    order = np.empty(n, dtype=np.int64)
    order[last[:n]] = np.arange(n)
    for k in random.Random(n).sample(range(n - 1), 2000):
        assert suffix_less(text, int(order[k]), int(order[k + 1]))
    # Every neighbour pair in the order compares by its first letter, then by
    # the ranks of the suffixes one letter on (-1 for the empty suffix at n).
    # By induction on suffix length this holds only for the suffix order.
    a, b = order[:-1], order[1:]
    assert ((codes[a] < codes[b]) | ((codes[a] == codes[b]) & (last[a + 1] < last[b + 1]))).all()
    report = word_index_estimate(Word.from_text(text)).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == golden


def test_full_width_packed_sort():
    # the last round sorts 42 key bits and 22 position bits in one pass
    word = characteristic_prefix(CFExpansion.from_quotients([1, 2, 3, 4] * 10), 2**21 + 1)
    check_long_word(word.text, 64,
                    "77c07dfda51fcc64b6bee3abaa414858cbff4e91a5b99ff587a1ebac6953f8aa", 21)


def test_two_pass_sort():
    # over 2^21 distinct windows of length 32 make the next key need 43 bits
    # besides 22 position bits, so the later rounds sort in two passes; a
    # planted 40th power of an 11-letter root gives the report a real witness
    n = 2**21 + 2**16
    rng = random.Random(2017)

    def bits(k):
        return format(rng.getrandbits(k), f"0{k}b")

    root = bits(11)
    head = bits(10**6)
    text = head + root * 40 + bits(n - 10**6 - 440)
    check_long_word(text, 65,
                    "444c612921a50a737aac9eb4316043fe8df02b89fa98b6a99ae50e18eef3d08d", 9)


def test_engine_refuses_words_past_int32_positions():
    # block-maximum rows reach 2n, so a longer word would wrap int32 indices
    class Huge(str):
        def __len__(self):
            return 2**30 + 1

    with pytest.raises(ParameterError, match="2\\^30"):
        _candidates(Huge("ab"))
