"""Finite words over explicit alphabets, morphisms, and factor statistics."""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParameterError
from .repetitions import (_CHUNK, _doubling_ranks, _first_of_each_value, _letter_labels,
                          _sorted_keys)

BINARY = ("0", "1")
TERNARY = ("A", "B", "C")


def _checked_alphabet(alphabet: Iterable[str]) -> tuple[str, ...]:
    """The alphabet as a tuple of distinct single ASCII letters, or refuse it."""
    alphabet = tuple(alphabet)
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise ParameterError("alphabet must be a nonempty set of distinct letters")
    if any(len(letter) != 1 or not letter.isascii() for letter in alphabet):
        raise ParameterError("alphabet letters must be single ASCII characters")
    return alphabet


class Word:
    """An immutable finite word over an explicit ordered alphabet."""

    __slots__ = ("text", "alphabet")

    def __init__(self, text: str, alphabet: Iterable[str]):
        alphabet = _checked_alphabet(alphabet)
        extra = set(text) - set(alphabet)
        if extra:
            raise ParameterError(f"letters {sorted(extra)} are outside the alphabet")
        self.text = text
        self.alphabet = alphabet

    @classmethod
    def _trusted(cls, text: str, alphabet: tuple[str, ...]) -> "Word":
        """A word whose letters are known to lie in the checked ``alphabet``.

        Skips the O(n) letter scan of the public constructor; only for text
        built from letters of an alphabet that was already checked.
        """
        word = object.__new__(cls)
        word.text = text
        word.alphabet = alphabet
        return word

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Build a word, inferring the alphabet from the letters present."""
        letters = set(text)
        if letters <= set(BINARY):
            return cls(text, BINARY)
        if letters <= set(TERNARY):
            return cls(text, TERNARY)
        return cls(text, tuple(sorted(letters)))

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self):
        return iter(self.text)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._trusted(self.text[item], self.alphabet)
        return self.text[item]

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.text == other.text and self.alphabet == other.alphabet

    def __hash__(self):
        return hash((self.text, self.alphabet))

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.alphabet != self.alphabet:
            raise ParameterError("cannot concatenate words over different alphabets")
        return Word._trusted(self.text + other.text, self.alphabet)

    def __repr__(self) -> str:
        shown = self.text if len(self.text) <= 40 else self.text[:37] + "..."
        return f"Word({shown!r}, alphabet={''.join(self.alphabet)!r})"

    def count(self, letter: str) -> int:
        return self.text.count(letter)

    def factor_complexity(self, n: int) -> int:
        """Number of distinct length-n factors."""
        return self.factor_complexities(n)[-1] if n else 1

    def factor_complexities(self, depth: int) -> list[int]:
        """[p(1), ..., p(depth)], p(n) the number of distinct length-n factors
        (see ``_factor_pass``)."""
        return _factor_pass(self, depth)[0]


# Cells of one (lengths x distinct windows) block of the balance pass.
_CELLS = 2**16


def _factor_pass(word: Word, depth: int, balance: bool = False) -> tuple[list[int], int]:
    """[p(1), ..., p(depth)] and, if ``balance``, the first length n <= depth
    at which two factors of a binary word differ by more than one '1', else 0.

    Every position starts a window of ``depth`` letters, coded by Horner's
    rule over b-bit letter indices 1..k in alphabet order and padded past
    the end with the sentinel 0, b = bit length of k for k letters; codes
    of at most 64 bits are built for all windows at once by in-place
    doubling (``_window_codes``).  In sorted order, the length-n prefixes
    of the distinct windows take 1 + c(n) values, c(n) the number of
    neighbour pairs whose common prefix is shorter than n.  The n - 1
    windows that start within n - 1 letters of the end each have a
    distinct prefix holding the sentinel, so p(n) = c(n) - n + 2.

    Windows of more than 64 bits are cut into chunks of 32 // b letters
    and ordered by ``_sorted_keys`` on the last round, the only one kept,
    of the runs engine's ``_doubling_ranks`` over the dense ``_letter_labels``
    of the letter indices, stopped at 2^K >= depth letters: any lexicographic
    order keeps the windows with a common prefix adjacent.  A neighbour
    pair's common prefix then ends in the first chunk whose codes differ.

    The length-n factors are the length-n prefixes of the distinct windows
    whose letter n is not the sentinel, so balance is read from those
    windows alone: their letters, unpacked from the sorted codes or read at
    the windows' first starts, are summed down the lengths in blocks of
    rows, counting the letter with index 2 (counting either letter gives
    the same spread), up to the first length whose counts spread by more
    than one.  A binary word balanced up to length n has at most n + 1
    factors of each length up to n (Lothaire, Algebraic Combinatorics on
    Words, Ch. 2), so a balanced word has at most 2 * depth distinct
    windows and the pass costs O(depth^2) after the sort.
    """
    text = word.text
    if not 0 <= depth <= len(text):
        raise ParameterError(f"factor length {depth} exceeds word length {len(text)}")
    if depth == 0:
        return [], 0
    alphabet = "".join(word.alphabet).encode("ascii")
    indices = bytes.maketrans(alphabet, bytes(range(1, len(alphabet) + 1)))
    letters = np.zeros(len(text) + depth - 1, dtype=np.uint8)
    letters[: len(text)] = np.frombuffer(text.encode("ascii").translate(indices), dtype=np.uint8)
    bits = len(alphabet).bit_length()
    chunk = depth if depth * bits <= 64 else 32 // bits
    spans = [(first, min(depth, first + chunk)) for first in range(0, depth, chunk)]
    if len(spans) == 1:
        key = _window_codes(letters, len(text), depth, bits)
        del letters  # the codes hold every letter needed from here on
        key.sort()
        distinct = key[_first_of_each_value(key)]
        del key
        codes = [distinct]
        size = len(distinct)

        def columns(first, last):
            shifts = (bits * (depth - 1 - np.arange(first, last))).astype(distinct.dtype)
            return (distinct >> shifts[:, None]) & ((1 << bits) - 1)
    else:
        # The round's packed keys (< 2^31) or dense ranks (< n) fit in 64 bits with positions.
        key = _doubling_ranks(_letter_labels(letters[: len(text)]), depth, depth)[-1]
        order, new = _sorted_keys(key[:-1].astype(np.uint64), (len(text) - 1).bit_length())
        starts = order[np.concatenate(([True], new))]  # each window's first start
        del key, order, new
        size = len(starts)

        def gathered(first, last):  # letters first..last-1 by Horner's rule
            key = np.zeros(size, dtype=np.uint32)
            for j in range(first, last):
                key <<= bits
                key |= letters[j:][starts]
            return key
        codes = (gathered(first, last) for first, last in spans)

        def columns(first, last):
            return letters[starts + np.arange(first, last)[:, None]]
    # From here on only the distinct windows, in sorted order, count.
    same = True  # pairs equal in every chunk so far
    shorter = 0  # pairs that differ in an earlier chunk
    counts = []
    for (first, last), code in zip(spans, codes):
        differ = code[1:] ^ code[:-1]
        differ *= same
        same &= differ == 0
        # The common prefix ends before letter n exactly when the codes
        # differ in one of the letters first..n-1 of the chunk.
        for n in range(first + 1, last + 1):
            counts.append(shorter + np.count_nonzero(differ >= 1 << bits * (last - n)))
        shorter += np.count_nonzero(differ)
    complexities = [int(count) - n + 2 for n, count in enumerate(counts, 1)]
    return complexities, _first_unbalanced(columns, depth, size) if balance else 0


def _first_unbalanced(columns, depth: int, size: int) -> int:
    """The first length n <= depth at which the ones counts of the length-n
    prefixes of ``size`` windows without the sentinel spread by more than
    one, or 0; ``columns(first, last)`` holds letters first..last-1 of the
    windows, one row a letter, as binary letter indices 1, 2 or 0."""
    dtype = np.min_scalar_type(depth + 1)
    rows = max(1, _CELLS // size)
    ones = np.zeros(size, dtype=dtype)
    for first in range(0, depth, rows):
        block = columns(first, min(depth, first + rows))
        count = np.cumsum(block >> 1, axis=0, dtype=dtype)
        count += ones
        ones = count[-1]
        valid = block != 0
        high = np.where(valid, count, 0).max(axis=1)
        low = np.where(valid, count, depth + 1).min(axis=1)
        failing = np.flatnonzero(high - low > 1)
        if len(failing):
            return first + int(failing[0]) + 1
    return 0


def _window_codes(letters: np.ndarray, size: int, depth: int, bits: int) -> np.ndarray:
    """Codes of the ``depth``-letter windows at 0..size-1 of ``letters``,
    padded to size + depth - 1 letters, by in-place doubling over the binary
    expansion of depth: code_2w[i] = code_w[i] << bits*w | code_w[i + w] and
    code_(w+1)[i] = code_w[i] << bits | letters[i + w].  Each step runs in
    ascending ``_CHUNK`` slices, whose reads lie at or ahead of their writes."""
    # The smallest unsigned type of at least 16 bits (numpy sorts uint8
    # about ten times slower than uint16).
    code = letters.astype(np.min_scalar_type((1 << max(bits * depth, 9)) - 1))
    shifted = np.empty(min(_CHUNK, code.size), dtype=code.dtype)
    width = 1
    for bit in bin(depth)[3:]:
        # double the width, then for a 1 bit append one letter
        for source, step in [(code, width)] + [(letters, 1)] * (bit == "1"):
            valid = code.size + 1 - width - step  # windows of width + step letters
            for first in range(0, valid, _CHUNK):
                last = min(first + _CHUNK, valid)
                part = np.left_shift(code[first:last], bits * step, out=shifted[: last - first])
                np.bitwise_or(part, source[first + width : last + width], out=code[first:last])
            width += step
    return code[:size]


class Morphism:
    """A monoid morphism determined by nonempty letter images.

    An image is built with one ``bytes.translate``, which writes the
    one-letter images and marks each letter with a longer image by its own
    placeholder byte 0x80 + (its index in the source), then one
    ``bytes.replace`` per longer image.  Words and images are ASCII, so no
    replacement can create or touch a placeholder.
    """

    __slots__ = ("source", "target", "images", "_table", "_long")

    def __init__(self, source: Iterable[str], target: Iterable[str], images: dict[str, str]):
        self.source = _checked_alphabet(source)
        self.target = _checked_alphabet(target)
        target_set = set(self.target)
        for letter in self.source:
            image = images.get(letter)
            if not image:
                raise ParameterError(f"letter {letter!r} needs a nonempty image")
            if set(image) - target_set:
                raise ParameterError(f"image of {letter!r} leaves the target alphabet")
        self.images = {letter: images[letter] for letter in self.source}
        ordered = self.images.values()
        self._table = bytes.maketrans(
            "".join(self.source).encode("ascii"),
            bytes(ord(image) if len(image) == 1 else 0x80 + i for i, image in enumerate(ordered)),
        )
        self._long = [(bytes([0x80 + i]), image.encode("ascii"))
                      for i, image in enumerate(ordered) if len(image) > 1]

    def __call__(self, word: Word) -> Word:
        # A word's letters lie in its alphabet; scan them only if it is wider.
        source = set(self.source)
        if not source.issuperset(word.alphabet) and not source.issuperset(word.text):
            raise ParameterError("word contains letters outside the source alphabet")
        image = word.text.encode("ascii").translate(self._table)
        for placeholder, replacement in self._long:
            image = image.replace(placeholder, replacement)
        return Word._trusted(image.decode("ascii"), self.target)

    def __repr__(self) -> str:
        rules = ", ".join(f"{a}->{img}" for a, img in self.images.items())
        return f"Morphism({rules})"


# The two projections of {A,B,C} onto {0,1} that keep A and C apart and
# split B across both letters.
SPLIT_B01 = Morphism(TERNARY, BINARY, {"A": "0", "B": "01", "C": "1"})
SPLIT_B10 = Morphism(TERNARY, BINARY, {"A": "0", "B": "10", "C": "1"})


def rotation_coding_morphism(k: int) -> Morphism:
    """The collapse A -> 0, B -> 0 1^(k+1), C -> 0 1^k (k >= 0)."""
    if k < 0:
        raise ParameterError("k must be >= 0")
    return Morphism(
        TERNARY, BINARY, {"A": "0", "B": "0" + "1" * (k + 1), "C": "0" + "1" * k}
    )


class BalanceCheck(NamedTuple):
    balanced: bool
    witness: tuple[str, str] | None


def sturmian_certificates(word: Word, depth: int) -> tuple[list[int], BalanceCheck]:
    """Both finite Sturmian certificates of a binary word from one sort of its
    windows: ``word.factor_complexities(depth)``, and whether same-length
    factors up to ``depth`` never differ by more than one '1'.

    On failure the witness holds a violating factor pair of the first
    failing length: the first window with the fewest ones and the first
    with the most.
    """
    if set(word.alphabet) != set(BINARY):
        raise ParameterError("balance is defined for binary words only")
    complexities, failing = _factor_pass(word, depth, balance=True)
    if not failing:
        return complexities, BalanceCheck(True, None)
    text = word.text
    ones = np.zeros(len(text) + 1, dtype=np.uint32)  # wraps, but differences stay exact
    np.cumsum(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1"),
              dtype=np.uint32, out=ones[1:])
    window = ones[failing:] - ones[:-failing]
    low_at, high_at = int(window.argmin()), int(window.argmax())
    witness = (text[low_at : low_at + failing], text[high_at : high_at + failing])
    return complexities, BalanceCheck(False, witness)


def is_balanced(word: Word, n_max: int) -> BalanceCheck:
    """The balance certificate of ``sturmian_certificates`` up to length n_max."""
    return sturmian_certificates(word, max(0, min(n_max, len(word))))[1]
