"""Independent reference implementations used by the tests.

Everything here stays deliberately naive and separate from the package's
own code paths: mpmath decimals serve as the numeric oracle, and repetition
quantities are recomputed with direct scans.
"""

import itertools
import os
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, sqrt

from ietlab.errors import BlockParseError, ParameterError
from ietlab.exactreal import QuadraticReal
from ietlab.repetitions import word_index_estimate
from ietlab.sturmian import BlockParse, standard_word
from ietlab.threeiet import NotAmicable
from ietlab.words import BINARY, BalanceCheck, Morphism, Word

mp.dps = 60

# Source of `peak_kib()` for a child process's script: its own high-water
# mark, VmHWM from /proc, in KiB.  A child's ru_maxrss starts from its
# parent's at the fork, which in a test is the whole pytest process.
PEAK_KIB_SOURCE = (
    "def peak_kib():\n"
    "    with open('/proc/self/status', encoding='ascii') as status:\n"
    "        return int(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
)
HAS_PROC_STATUS = os.path.exists("/proc/self/status")


def mp_value(x):
    """High-precision decimal value of a QuadraticReal.

    The working precision rises by the decimal digits of the coefficients,
    so digits lost where p and q*sqrt(d) cancel are still exact; the result
    is rounded back to the caller's precision.
    """
    digits = sum(len(str(abs(c))) for c in (x.p, x.q, x.d))
    with mp.extradps(digits):
        value = mpf(x.p)
        if x.q:
            value += x.q * sqrt(x.d)
        value /= x.r
    return +value


def mp_cf(value, n_terms):
    """Partial quotients of a decimal value in (0, 1) by the Gauss map."""
    out = []
    x = mpf(value)
    for _ in range(n_terms):
        y = 1 / x
        a = int(y)
        out.append(a)
        x = y - a
        if x < mpf(10) ** (-40):
            break
    return out


def sequential_orbit_word(x, pieces, n_letters):
    """Coding of the orbit of x under a piecewise translation, one exact step
    per letter.

    ``pieces`` holds (right_end, letter, translation) sorted by exact right
    end, the last right end being the domain end; the piece of a point is
    the first whose right end exceeds it.  Every visited point is checked
    exactly to stay inside the domain.
    """
    letters = []
    for _ in range(n_letters):
        for right, letter, shift in pieces:
            if (x - right).sign() < 0:
                break
        else:
            raise ArithmeticError("orbit left the domain")
        letters.append(letter)
        x = x + shift
        if x.sign() < 0:
            raise ArithmeticError("orbit left the domain")
    return "".join(letters)


def step(params, x):
    """One exact step of the three-interval exchange: the interval letter of
    x and the next point."""
    if x.sign() < 0 or (x - params.ell).sign() >= 0:
        raise ParameterError("point outside the domain [0, ell)")
    eps = params.epsilon
    if (x - params.boundary_ab).sign() < 0:
        letter, nxt = "A", x + (1 - eps)
    elif (x - eps).sign() < 0:
        letter, nxt = "B", x + (1 - eps - eps)
    else:
        letter, nxt = "C", x - eps
    if nxt.sign() < 0 or (nxt - params.ell).sign() >= 0:
        raise ArithmeticError("orbit left the domain; parameters are inconsistent")
    return letter, nxt


def rotation_pieces(alpha, beta):
    """Pieces of the rotation by alpha on [0, 1); letter 0 codes [0, beta)."""
    wrap = 1 - alpha
    return tuple(
        (cut, "0" if cut <= beta else "1", alpha if cut <= wrap else alpha - 1)
        for cut in sorted({beta, wrap, QuadraticReal(1)})
    )


def threeiet_pieces(params):
    """Pieces of the three-interval exchange on [0, ell)."""
    eps = params.epsilon
    return (
        (params.ell - 1 + eps, "A", 1 - eps),
        (eps, "B", 1 - eps - eps),
        (params.ell, "C", -eps),
    )


def naive_index(text):
    """Max ratio length/period over all (start, period), no shortcuts."""
    n = len(text)
    best = Fraction(1)
    for period in range(1, n + 1):
        for start in range(0, n - period + 1):
            length = period
            while start + length < n and text[start + length] == text[start + length - period]:
                length += 1
            ratio = Fraction(length, period)
            if ratio > best:
                best = ratio
    return best


def fractional_best(text: str) -> tuple[int, int, int]:
    """Best (length, period, start) by a direct per-period sweep.

    Exact for any word, in O(n^2 / index) time; ties keep the smallest
    period, then the smallest start.
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


def naive_runs(text):
    """All maximal repetitions (start, minimal period, length) by direct scan."""
    n = len(text)
    spans = {}
    for period in range(1, n // 2 + 1):
        ext = [0] * (n + 1)
        for i in range(n - period - 1, -1, -1):
            ext[i] = ext[i + 1] + 1 if text[i] == text[i + period] else 0
        for i in range(0, n - 2 * period + 1):
            if ext[i] >= period and (i == 0 or text[i - 1] != text[i - 1 + period]):
                span = (i, i + period + ext[i])
                if span not in spans or spans[span] > period:
                    spans[span] = period
    runs = []
    for (start, end), period in spans.items():
        segment = text[start:end]
        minimal = next(
            q for q in range(1, len(segment) + 1)
            if all(segment[i] == segment[i + q] for i in range(len(segment) - q))
        )
        if minimal == period:
            runs.append((start, period, end - start))
    runs.sort()
    return runs


def naive_max_power(text):
    """Largest j such that some w^j occurs, by direct block comparison."""
    n = len(text)
    best = 1
    for period in range(1, n + 1):
        for start in range(0, n - period + 1):
            root = text[start : start + period]
            j = 1
            while start + (j + 1) * period <= n and (
                text[start + j * period : start + (j + 1) * period] == root
            ):
                j += 1
            if j > best:
                best = j
    return best


def max_integer_power(prefix):
    """The largest j with some nonempty w such that w^j occurs, and such a w,
    read off the index report."""
    report = word_index_estimate(prefix)
    return report.max_power, Word(report.max_power_witness, prefix.alphabet)


def sequential_lyndon_ends(isa):
    """For each i the next j > i of smaller rank, then for each i the next
    j > i of greater rank (n when there is none), for distinct ranks.

    One of the two is i + 1; the other is walked from the ends at i + 1.
    """
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
    return smaller, greater


def naive_extension(text, i, j, forward):
    """The largest l with text[i:i+l] == text[j:j+l] (forward) or
    text[i-l:i] == text[j-l:j] (backward), for i < j <= len(text), one
    letter at a time."""
    n = len(text)
    length = 0
    if forward:
        while j + length < n and text[i + length] == text[j + length]:
            length += 1
    else:
        while i - length > 0 and text[i - length - 1] == text[j - length - 1]:
            length += 1
    return length


def shift(word, i):
    """Drop the first i letters (finite restriction of the shift map)."""
    if not 0 <= i <= len(word):
        raise ParameterError(f"shift amount {i} exceeds word length {len(word)}")
    return Word(word.text[i:], word.alphabet)


def cyclic_shift(word):
    """Move the first letter to the end."""
    if not word.text:
        raise ParameterError("cyclic shift of the empty word")
    return Word(word.text[1:] + word.text[0], word.alphabet)


def random_word(rng, alphabet, max_len, min_len=1):
    length = rng.randint(min_len, max_len)
    return "".join(rng.choice(alphabet) for _ in range(length))


def fib_char_prefix(n_letters):
    """Prefix of the golden-slope fixed word, by the plain recursion."""
    prev, cur = "0", "1"
    while len(cur) < n_letters:
        prev, cur = cur, cur + prev
    return cur[:n_letters]



def characteristic_prefix_index(quotients, n):
    """A lower bound, as a Fraction, of the repetition index of the first n
    letters of the characteristic word of [0; a_1, a_2, ...], from the
    quotients a_1, a_2, ... alone in plain integers:

        max(1, max over k >= 0 with q_k <= n of
               min(n, L_k) / q_k and, when P_k < n, min(n - P_k, L_k + q_k) / q_k)

    with q_-1 = 0, q_0 = 1, q_(k+1) = a_(k+1) q_k + q_(k-1),
    L_k = (a_(k+1) + 1) q_k + q_(k-1) - 2 and P_k = a_(k+2) q_(k+1).  The
    quotients must reach a_(k+1) for the largest such k, and a_(k+2) when
    q_(k+1) < n.

    Each term is the ratio (p + e) / p of one pair: the extension e of the
    period p = q_k at start 0 or at start P_k, inside the n letters.  That
    proves the lower bound; the word's index, the largest such ratio over
    all pairs, was equal to this value on every expansion tried (quotients
    1..7, n up to 30000; quotients up to 60, n up to 1e6), but no proof
    that no other pair beats these is written here, so tests may assert
    only the lower bound.

    Proof.  Let s_-1 = 1, s_0 = 0, s_1 = s_0^(a_1 - 1) s_-1 and
    s_(k+1) = s_k^(a_(k+1)) s_(k-1), so |s_k| = q_k for k >= 0, and c is the
    limit of the s_k (quotients past the last given one may be taken as 1:
    the first n letters do not change).
    (F1) For k >= 1, s_k s_(k-1) and s_(k-1) s_k differ exactly in their
    last two letters (xy against yx, x != y): for k = 1 they are
    0^(a_1 - 1) 1 0 and 0^(a_1) 1, and s_(k+1) s_k = s_k^(a_(k+1)) s_(k-1) s_k
    against s_k s_(k+1) = s_k^(a_(k+1)) s_k s_(k-1) (Lothaire, "Algebraic
    Combinatorics on Words", Ch. 2).
    (F2) For k >= 1, s_(k+1) begins with s_k, and c begins with
    s_(k+2) s_(k+1) s_k: c begins with s_(k+3) = s_(k+2)^(a_(k+3)) s_(k+1),
    so with s_(k+2) s_(k+1) s_(k+2) or with s_(k+2) s_(k+2), and
    s_(k+2) s_(k+2) begins with s_(k+2) s_(k+1) s_(k+1) or, when
    a_(k+2) = 1, with s_(k+2) s_(k+1) s_k.
    (E) If a word begins with s_k^b s_(k-1) s_k, k >= 1 and b >= 1, its
    extension at period q_k from position 0 is b q_k + q_(k-1) - 2: shifted
    by q_k it reads s_k^(b-1) s_(k-1) s_k, which agrees with
    s_k^(b-1) s_k s_(k-1) s_k up to the second to last letter of
    s_(k-1) s_k, and there first differs, by (F1).
    For k >= 1, c begins with s_(k+1) s_k = s_k^(a_(k+1)) s_(k-1) s_k by
    (F2), so (E) with b = a_(k+1) gives the segment [0, L_k) of period q_k;
    at P_k, after s_(k+1)^(a_(k+2)), c reads s_k s_(k+1) s_k =
    s_k^(a_(k+1) + 1) s_(k-1) s_k, so (E) with b = a_(k+1) + 1 gives the
    segment [P_k, P_k + L_k + q_k).  For k = 0, c begins with
    s_2 s_1 = (0^(a_1 - 1) 1)^(a_2) 0^(a_1) 1: a block of a_1 - 1 zeros at
    0, which is L_0, and one of a_1 zeros at P_0 = a_1 a_2, which is
    L_0 + q_0.  Inside n letters a segment [s, e) of period p gives the
    ratio (min(n, e) - s) / p, which is each term above.  Damanik and Lenz,
    "The index of Sturmian sequences", European J. Combin. 23 (2002),
    find the index of the infinite word as the supremum of
    (L_k + q_k) / q_k = 2 + a_(k+1) + (q_(k-1) - 2) / q_k.
    """
    a = [0, *quotients]  # a[k] is a_k
    best = Fraction(1)
    q_prev, q, k = 0, 1, 0
    while q <= n:
        q_next = a[k + 1] * q + q_prev
        length = (a[k + 1] + 1) * q + q_prev - 2
        best = max(best, Fraction(min(n, length), q))
        if q_next < n and a[k + 2] * q_next < n:
            best = max(best, Fraction(min(n - a[k + 2] * q_next, length + q), q))
        q_prev, q, k = q, q_next, k + 1
    return best


def has_period(text, start, period, length):
    """Whether text[start:start+length] lies inside the text and has the
    period, letter by letter."""
    return (0 <= start and start + length <= len(text)
            and text[start + period : start + length] == text[start : start + length - period])


def standard_words(cf):
    """s_1, s_2, ... of the recursion

    s_-1 = 1, s_0 = 0, s_1 = s_0^(a_1 - 1) s_-1,
    s_(n+1) = s_n^(a_(n+1)) s_(n-1).

    s_n is built only when asked for, so it reads a_1, ..., a_n and no more.
    """
    prev, cur = "0", "0" * (cf.coefficient(1) - 1) + "1"
    for n in itertools.count(2):
        yield cur
        prev, cur = cur, cur * cf.coefficient(n) + prev


def backtracking_block_parse(prefix, cf, level):
    """Parse a prefix into long/short blocks by backtracking (long first).

    Failed positions are memoized and alternatives explored, so this returns
    the first parse in the order long, short, stop.  Fails only when no
    decomposition covers more than nothing and leaves a tail shorter than
    the long block.
    """
    if level < 1:
        raise ParameterError("level must be >= 1")
    root = standard_word(cf, level).text
    filler = standard_word(cf, level - 1).text
    k = cf.coefficient(level + 1)
    long_b = root * (k + 1) + filler
    short_b = root * k + filler
    text = prefix.text
    n = len(text)
    if not (text.startswith(long_b) or text.startswith(short_b)):
        raise BlockParseError("prefix does not begin with either block", 0)
    dead: set[int] = set()
    tags: list[str] = []
    stack: list[list[int]] = [[0, 0]]
    while stack:
        pos, option = stack[-1]
        if option == 0:
            stack[-1][1] = 1
            nxt = pos + len(long_b)
            if nxt <= n and nxt not in dead and text.startswith(long_b, pos):
                tags.append("long")
                stack.append([nxt, 0])
            continue
        if option == 1:
            stack[-1][1] = 2
            nxt = pos + len(short_b)
            if nxt <= n and nxt not in dead and text.startswith(short_b, pos):
                tags.append("short")
                stack.append([nxt, 0])
            continue
        if tags and n - pos < len(long_b):
            return BlockParse(
                level=level,
                root=root,
                filler=filler,
                k=k,
                tags=tuple(tags),
                consumed=pos,
                tail_length=n - pos,
            )
        dead.add(pos)
        stack.pop()
        if tags:
            tags.pop()
    raise BlockParseError(
        "no block decomposition leaves a tail shorter than the long block", 0
    )


def vtm_prefix(n_letters):
    """The first n letters of vtm, the square-free ternary word of the gaps
    1, 2, 3 between the 0s of the Thue-Morse word, written a, b, c."""
    zeros = [i for i in range(2 * n_letters + 2) if bin(i).count("1") % 2 == 0]
    return "".join("abc"[b - a - 1] for a, b in zip(zeros, zeros[1:]))


# The binary letter exchange.
EXCHANGE_01 = Morphism(BINARY, BINARY, {"0": "1", "1": "0"})


def naive_image(images, text):
    """The image of ``text`` under a morphism, one letter at a time."""
    return "".join(images[c] for c in text)


def letter_permutation(word, mapping):
    """Relabel letters by a permutation of the alphabet."""
    if sorted(mapping) != sorted(mapping.values()) or set(mapping) != set(word.alphabet):
        raise ParameterError("mapping must permute the word's alphabet")
    return Word(word.text.translate(str.maketrans(mapping)), word.alphabet)


def factor_index_in(prefix, factor):
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


def factors(word, n):
    """All distinct length-n factors of a Word."""
    if not 0 <= n <= len(word):
        raise ParameterError(f"factor length {n} exceeds word length {len(word)}")
    return {word.text[i : i + n] for i in range(len(word) - n + 1)}


def sequential_is_balanced(word, n_max):
    """``words.is_balanced`` by one sliding count per length.

    The witness pair moves only on a strictly new minimum or maximum, so it
    is the first window with the fewest ones and the first with the most.
    """
    text = word.text
    for n in range(1, min(n_max, len(text)) + 1):
        ones = text[:n].count("1")
        low = high = ones
        low_at = high_at = 0
        for i in range(1, len(text) - n + 1):
            ones += (text[i + n - 1] == "1") - (text[i - 1] == "1")
            if ones < low:
                low, low_at = ones, i
            elif ones > high:
                high, high_at = ones, i
        if high - low > 1:
            return BalanceCheck(False, (text[low_at : low_at + n], text[high_at : high_at + n]))
    return BalanceCheck(True, None)


def sequential_scan(first, second):
    """Two cursors, one pair at a time: (letters, consumed) up to the last
    complete alignment, or NotAmicable on a mismatch."""
    out = []
    i = 0
    n = min(len(first), len(second))
    while i < n:
        a, b = first[i], second[i]
        if a == "0" and b == "0":
            out.append("A")
            i += 1
        elif a == "1" and b == "1":
            out.append("C")
            i += 1
        elif a == "0" and b == "1":
            if i + 1 >= n:
                break  # a trailing half-pair
            if first[i + 1] == "1" and second[i + 1] == "0":
                out.append("B")
                i += 2
            else:
                return NotAmicable(i + 1, "pair (0,1) not followed by (1,0)")
        else:
            return NotAmicable(i, "pair (1,0) matches no letter image")
    return "".join(out), i
