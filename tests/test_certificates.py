"""The numpy certificate kernels against the sequential oracles: factor
complexity, balance and ternarization."""

import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ietlab import words as words_module
from ietlab.errors import ParameterError
from ietlab.exactreal import QuadraticReal
from ietlab.threeiet import NotAmicable, ThreeIetParams, ternarize, threeiet_word
from ietlab.words import (
    BINARY,
    SPLIT_B01,
    SPLIT_B10,
    TERNARY,
    Word,
    is_balanced,
    sturmian_certificates,
)

from oracles import (
    HAS_PROC_STATUS,
    PEAK_KIB_SOURCE,
    factors,
    fib_char_prefix,
    horner_window_codes,
    sequential_is_balanced,
    sequential_scan,
)

PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
LONG = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

LETTERS = "ABCDE"
HUNDRED = tuple(chr(code) for code in range(28, 128))  # 7 bits a letter


def flip(text, at):
    return text[:at] + "10"[int(text[at])] + text[at + 1 :]


@st.composite
def words(draw, max_size=120, alphabet=None):
    """A word over 1 to 5 letters in a drawn order, or over ``alphabet``,
    often periodic."""
    if alphabet is None:
        alphabet = tuple(draw(st.permutations(LETTERS[: draw(st.integers(1, 5))])))
    letter = st.sampled_from(alphabet)
    if draw(st.booleans()):
        root = draw(st.text(letter, min_size=1, max_size=6))
        text = (root * max_size)[: draw(st.integers(0, max_size))]
    else:
        text = draw(st.text(letter, max_size=max_size))
    return Word(text, alphabet)


@st.composite
def binary_words(draw, max_size=120):
    """Binary words: random, periodic, or a Sturmian-like mechanical word,
    perhaps with one bit flipped so that it first fails at a longer length."""
    size = draw(st.integers(0, max_size))
    kind = draw(st.sampled_from(("random", "periodic", "mechanical", "flipped")))
    if kind == "random":
        text = draw(st.text(st.sampled_from(BINARY), min_size=size, max_size=size))
    elif kind == "periodic":
        root = draw(st.text(st.sampled_from(BINARY), min_size=1, max_size=8))
        text = (root * (size + 1))[:size]
    else:
        slope = draw(st.fractions(0, 1, max_denominator=97))
        start = draw(st.fractions(0, 1, max_denominator=97))
        text = "".join(
            str(int((i + 1) * slope + start) - int(i * slope + start)) for i in range(size)
        )
        if kind == "flipped" and text:
            text = flip(text, draw(st.integers(0, size - 1)))
    return Word(text, BINARY)


class TestFactorComplexity:
    @PROPERTY
    @given(words(), st.data())
    def test_against_distinct_slices(self, word, data):
        n = data.draw(st.integers(0, len(word)))
        assert word.factor_complexity(n) == len(factors(word, n))

    @LONG
    @given(words(max_size=400), st.integers(0, 2**32 - 1))
    def test_every_length_across_chunks(self, word, seed):
        # With b bits per letter (the sentinel takes code 0) a window of more
        # than 64 // b letters is cut into chunks of 32 // b letters (32, 16
        # or 10 here), and lengths past a chunk append to dense ranks.
        bits = len(word.alphabet).bit_length()
        chunk = 32 // bits
        rng = random.Random(seed)
        lengths = {0, len(word), chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 3 * chunk,
                   64 // bits, 64 // bits + 1}
        lengths |= {rng.randint(0, len(word)) for _ in range(5)}
        for n in sorted(length for length in lengths if 0 <= length <= len(word)):
            assert word.factor_complexity(n) == len(factors(word, n)), n

    def test_distinct_long_factors(self):
        rng = random.Random(7)
        text = "".join(rng.choice(LETTERS) for _ in range(3000))
        word = Word(text, tuple(LETTERS))
        for n in (1, 9, 10, 11, 20, 21, 64, 2999, 3000):
            assert word.factor_complexity(n) == len(factors(word, n))
        # Long windows that differ only before their last 32 letters: the
        # rank and the appended letters must both survive in the code.
        word = Word(("0" * 49 + "1") * 12, BINARY)
        for n in (32, 33, 40, 49, 50, 64, 100, 599):
            assert word.factor_complexity(n) == len(factors(word, n))

    def test_length_out_of_range(self):
        word = Word("0110", BINARY)
        for n in (-1, 5):
            with pytest.raises(ParameterError):
                word.factor_complexity(n)
        assert Word("", BINARY).factor_complexity(0) == 1


def expected_complexities(word, depth):
    return [len(factors(word, n)) for n in range(1, depth + 1)]


@st.composite
def words_and_depths(draw):
    """A word over 1-5 or 100 letters and a depth, often one whose window
    code is about 64 bits wide, where the kernel starts cutting chunks."""
    if draw(st.integers(0, 4)):
        word = draw(words(max_size=150))
    else:
        word = draw(words(max_size=40, alphabet=HUNDRED))
    bits = len(word.alphabet).bit_length()
    near_64 = [d for d in (63 // bits, 64 // bits, 64 // bits + 1, 65 // bits + 1)
               if d <= len(word)]
    depth = st.integers(0, len(word))
    if near_64:
        depth = depth | st.sampled_from(near_64)
    return word, draw(depth)


class TestFactorComplexities:
    @PROPERTY
    @given(words_and_depths())
    def test_against_distinct_slices(self, word_and_depth):
        word, depth = word_and_depth
        assert word.factor_complexities(depth) == expected_complexities(word, depth)

    @pytest.mark.parametrize("alphabet", [("0",), BINARY, TERNARY, tuple("ABCD"),
                                          tuple(LETTERS), HUNDRED])
    def test_keys_63_64_and_65_bits_wide(self, alphabet):
        # One letter takes 1 bit: depths 63, 64 and 65 give keys of exactly
        # those widths; the others straddle 64 bits as closely as b allows.
        bits = len(alphabet).bit_length()
        rng = random.Random(bits)
        for text in ("".join(rng.choice(alphabet) for _ in range(300)),
                     ("".join(rng.choice(alphabet) for _ in range(7)) * 50)[:300]):
            word = Word(text, alphabet)
            for depth in range(60 // bits, 70 // bits + 2):
                assert word.factor_complexities(depth) == expected_complexities(word, depth)

    def test_new_factors_only_in_short_tail_windows(self):
        # The last letter, and every factor holding it, occur only in the
        # windows that run past the end of the word.
        assert Word("0" * 6 + "1", BINARY).factor_complexities(7) == [2, 2, 2, 2, 2, 2, 1]
        for text in ("0" * 70 + "1", "01" * 40 + "1", "ABCBC", "ABCAB" * 9 + "CB"):
            word = Word.from_text(text)
            for depth in sorted({1, 2, 5, len(text) // 2, len(text) - 1, len(text)}):
                assert word.factor_complexities(depth) == expected_complexities(word, depth)

    def test_deep_windows_over_unused_letters(self):
        # 10 letters of 7 bits take the doubling path; its labels must be
        # dense in the letters present, not the alphabet indices.
        assert Word("0" * 10, HUNDRED).factor_complexities(10) == [1] * 10
        word = Word("ab" * 30 + "c" + "ba" * 20, HUNDRED)
        for depth in (10, 50, len(word)):
            assert word.factor_complexities(depth) == expected_complexities(word, depth)

    def test_empty_word(self):
        assert Word("", BINARY).factor_complexities(0) == []
        with pytest.raises(ParameterError):
            Word("", BINARY).factor_complexities(1)

    def test_sturmian_prefix_through_many_chunks(self):
        # 300 letters of 2 bits are 19 chunks of 16 letters.
        word = Word(fib_char_prefix(20000), BINARY)
        assert word.factor_complexities(300) == list(range(2, 302))
        # About 2.5e5 letters: positions of 18 bits beside the packed keys.
        golden = ThreeIetParams(QuadraticReal(-1, 1, 5, 2), QuadraticReal(4, 0, 0, 5),
                                QuadraticReal(0))
        word = SPLIT_B01(threeiet_word(golden, 200000))
        assert len(word) > 2**17
        for depth in (33, 400):
            assert word.factor_complexities(depth) == list(range(2, depth + 2)), depth


SMALL_CHUNK = 7


@pytest.fixture
def small_chunks(monkeypatch):
    """Slices of 7 windows, so short words cross many slice ends."""
    monkeypatch.setattr(words_module, "_CHUNK", SMALL_CHUNK)


class TestWindowCodes:
    """The doubling build of the one-sort path, every depth whose code fits
    64 bits (1..32 at one and two bits a letter, 1..21 at three)."""

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_doubling_against_horner(self, small_chunks, bits):
        rng = random.Random(bits)
        for depth in range(1, min(32, 64 // bits) + 1):
            # words shorter than, as long as and longer than the depth
            for size in sorted({max(1, depth - 1), depth, depth + 1, 5 * SMALL_CHUNK + 3}):
                letters = np.zeros(size + depth - 1, dtype=np.uint8)
                letters[:size] = [rng.randrange(1 << bits) for _ in range(size)]
                codes = words_module._window_codes(letters, size, depth, bits)
                assert codes.tolist() == horner_window_codes(letters, size, depth, bits), \
                    (depth, size)

    @pytest.mark.parametrize("alphabet", [("0",), TERNARY, tuple("ABCDEFG")])
    def test_complexities_against_distinct_substrings(self, small_chunks, alphabet):
        # one, three and seven letters take one, two and three bits
        bits = len(alphabet).bit_length()
        rng = random.Random(len(alphabet))
        for length in (40, 200):
            word = Word("".join(rng.choice(alphabet) for _ in range(length)), alphabet)
            for depth in range(1, min(32, 64 // bits) + 1):
                assert word.factor_complexities(depth) == expected_complexities(word, depth)


class TestBalance:
    @PROPERTY
    @given(binary_words(), st.integers(0, 130))
    def test_against_sliding_count(self, word, n_max):
        assert is_balanced(word, n_max) == sequential_is_balanced(word, n_max)

    def test_counts_beyond_one_byte(self):
        # Windows longer than 255 letters hold more ones than a byte counts.
        text = "".join(str((i + 1) * 5 // 7 - i * 5 // 7) for i in range(700))
        for flipped in (text, flip(text, 650)):
            word = Word(flipped, BINARY)
            assert is_balanced(word, 700) == sequential_is_balanced(word, 700)


def check_certificates(word, depth):
    complexities, balance = sturmian_certificates(word, depth)
    assert complexities == expected_complexities(word, depth), depth
    assert balance == sequential_is_balanced(word, depth), depth


class TestSturmianCertificates:
    @PROPERTY
    @given(binary_words(max_size=150), st.booleans(), st.data())
    def test_against_the_oracles(self, word, swapped, data):
        # The balance pass counts the alphabet's second letter; with the
        # alphabet swapped that is '0', and the witness must not change.
        if swapped:
            word = Word(word.text, BINARY[::-1])
        check_certificates(word, data.draw(st.integers(0, len(word))))

    @pytest.mark.parametrize("depth", range(1, 41))
    def test_across_the_one_sort_and_deep_paths(self, depth):
        # Up to depth 32 a window of 2-bit letters is one 64-bit code; from
        # 33 on the windows are ordered by prefix doubling.  The flips make
        # words that first fail at various lengths, one of them near the end.
        text = fib_char_prefix(300)
        for at in (None, 150, 290, 299):
            word = Word(text if at is None else flip(text, at), BINARY)
            check_certificates(word, depth)

    @pytest.mark.parametrize("at", [None, 3, 350, 690])
    def test_deep_700_letters(self, at):
        text = fib_char_prefix(700)
        word = Word(text if at is None else flip(text, at), BINARY)
        for depth in (64, 400, 700):
            check_certificates(word, depth)

    def test_first_failure_past_the_first_block_of_lengths(self):
        # Two ones 151 letters apart: balanced up to length 151, then 0^152
        # and 1 0^150 1 differ by two.  About 750 distinct windows make
        # blocks of under 90 lengths, so the counts must carry across blocks.
        word = Word("0" * 300 + "1" + "0" * 150 + "1" + "0" * 300, BINARY)
        check_certificates(word, 400)
        assert len(sturmian_certificates(word, 400)[1].witness[0]) == 152

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_lengths_in_small_blocks(self, monkeypatch, cells):
        monkeypatch.setattr(words_module, "_CELLS", cells)
        text = fib_char_prefix(300)
        for case in (text, flip(text, 150), "0" * 60 + "1" + "0" * 30 + "1" + "0" * 60):
            for depth in (20, 40, 150):
                check_certificates(Word(case, BINARY), depth)

    def test_is_balanced_clamps_its_depth(self):
        word = Word("0100101", BINARY)
        assert is_balanced(word, 50) == sequential_is_balanced(word, 50) == (True, None)
        assert is_balanced(word, -3) == (True, None)
        assert sturmian_certificates(Word("", BINARY), 0) == ([], (True, None))

    def test_binary_words_only(self):
        with pytest.raises(ParameterError):
            sturmian_certificates(Word("ABC", TERNARY), 2)


def expected_ternarize(first, second):
    """``ternarize`` built on the sequential scan."""
    if len(first) != len(second):
        return NotAmicable(min(len(first), len(second)), "length mismatch")
    result = sequential_scan(first, second)
    if isinstance(result, NotAmicable):
        return result
    letters, consumed = result
    if consumed != len(first):
        return NotAmicable(consumed, "dangling unmatched tail")
    return Word(letters, TERNARY)


def check_ternarize(first, second):
    x, y = Word(first, BINARY), Word(second, BINARY)
    assert ternarize(x, y) == expected_ternarize(first, second)


@st.composite
def projection_pairs(draw, size):
    """The two projections of a ternary word, perhaps cut short or with a bit
    flipped, or two unrelated binary words."""
    if draw(st.integers(0, 4)) == 0:
        binary = st.text(st.sampled_from(BINARY), max_size=size)
        return draw(binary), draw(binary)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(0, size))
    word = Word("".join(rng.choice("AABCC") for _ in range(length)), TERNARY)
    first, second = SPLIT_B01(word).text, SPLIT_B10(word).text
    if draw(st.booleans()):
        first = first[: draw(st.integers(0, len(first)))]
    if draw(st.booleans()):
        second = second[: draw(st.integers(0, len(second)))]
    if draw(st.booleans()):
        which = draw(st.booleans())
        text = first if which else second
        if text:
            text = flip(text, draw(st.integers(0, len(text) - 1)))
            first, second = (text, second) if which else (first, text)
    return first, second


class TestTernarization:
    @PROPERTY
    @given(projection_pairs(60))
    def test_against_sequential_scan(self, pair):
        check_ternarize(*pair)

    @LONG
    @given(st.integers(0, 2**32 - 1), st.sampled_from((2**15, 2**16)),
           st.integers(-3, 3), st.integers(-3, 3))
    def test_long_pairs_cut_or_flipped(self, seed, boundary, cut, flip_at):
        rng = random.Random(seed)
        word = Word("".join(rng.choice("AABCC") for _ in range(boundary + 4)), TERNARY)
        first, second = SPLIT_B01(word).text, SPLIT_B10(word).text
        # Cut the pair, or flip one bit, near position `boundary`.
        check_ternarize(first[: boundary + cut], second[: boundary + cut])
        if rng.random() < 0.5:
            first = flip(first, boundary + flip_at)
        else:
            second = flip(second, boundary + flip_at)
        check_ternarize(first, second)

    def test_reasons(self):
        def reason(first, second):
            return ternarize(Word(first, BINARY), Word(second, BINARY))

        assert reason("001", "011") == NotAmicable(2, "pair (0,1) not followed by (1,0)")
        assert reason("0110", "0010") == NotAmicable(1, "pair (1,0) matches no letter image")
        assert reason("01", "10") == Word("B", TERNARY)
        assert reason("000", "001") == NotAmicable(2, "dangling unmatched tail")
        assert reason("0101", "011") == NotAmicable(3, "length mismatch")


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs Linux /proc")
def test_peak_memory_of_the_abmp_certificates():
    script = PEAK_KIB_SOURCE + (
        "from ietlab.exactreal import QuadraticReal\n"
        "from ietlab.threeiet import ThreeIetParams, verify_projections\n"
        "params = ThreeIetParams(QuadraticReal(-1, 1, 5, 2), QuadraticReal(403, 0, 0, 500),\n"
        "                        QuadraticReal(16, 0, 0, 125))\n"
        "before = peak_kib()\n"
        "assert verify_projections(params, 200000, 12).passed\n"
        "print(peak_kib() - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    assert int(out.stdout) < 8 * 1024, out.stdout
