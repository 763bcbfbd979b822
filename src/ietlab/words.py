"""Finite words over explicit alphabets, morphisms, and factor statistics."""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParameterError

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
        """Number of distinct length-n factors.

        Each window is coded exactly by Horner's rule over b-bit letter
        indices in alphabet order, b = max(1, bit length of k - 1) for k
        letters, appending at most 32 // b letters at a time.  Before more
        letters are appended, the partial codes are replaced by their dense
        ranks, so a code needs at most 64 bits for any word shorter than
        2**32 letters.
        """
        text = self.text
        if not 0 <= n <= len(text):
            raise ParameterError(f"factor length {n} exceeds word length {len(text)}")
        if n == 0:
            return 1
        table = np.zeros(256, dtype=np.uint8)
        table[[ord(letter) for letter in self.alphabet]] = np.arange(len(self.alphabet))
        letters = table[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
        bits = max(1, (len(self.alphabet) - 1).bit_length())
        chunk = 32 // bits
        windows = len(text) - n + 1
        key = np.zeros(windows, dtype=np.uint16)
        key_bits = 0
        for first in range(0, n, chunk):
            if first:
                _, key = np.unique(key, return_inverse=True)
                key_bits = int(key.max()).bit_length()
            last = min(n, first + chunk)
            key_bits += bits * (last - first)
            # The smallest unsigned type of at least 16 bits (numpy sorts
            # uint8 about ten times slower than uint16).
            key = key.astype(np.min_scalar_type((1 << max(key_bits, 9)) - 1), copy=False)
            for j in range(first, last):
                key <<= bits
                key |= letters[j : j + windows]
        key.sort()
        return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


class Morphism:
    """A monoid morphism determined by nonempty letter images."""

    __slots__ = ("source", "target", "images", "_table")

    def __init__(self, source: Iterable[str], target: Iterable[str], images: dict[str, str]):
        self.source = tuple(source)
        self.target = _checked_alphabet(target)
        target_set = set(self.target)
        for letter in self.source:
            image = images.get(letter)
            if not image:
                raise ParameterError(f"letter {letter!r} needs a nonempty image")
            if set(image) - target_set:
                raise ParameterError(f"image of {letter!r} leaves the target alphabet")
        self.images = {letter: images[letter] for letter in self.source}
        self._table = str.maketrans(self.images)

    def __call__(self, word: Word) -> Word:
        if set(word.text) - set(self.source):
            raise ParameterError("word contains letters outside the source alphabet")
        return Word._trusted(word.text.translate(self._table), self.target)

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


def is_balanced(word: Word, n_max: int) -> BalanceCheck:
    """Check that same-length factors never differ by more than one '1'.

    On failure the witness holds a violating factor pair of the first
    failing length: the first window with the fewest ones and the first
    with the most.
    """
    if set(word.alphabet) != set(BINARY):
        raise ParameterError("balance is defined for binary words only")
    text = word.text
    longest = min(n_max, len(text))
    ones = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")
    # window[i] counts the ones of text[i:i+n], at most n <= longest; the
    # smallest type that holds it keeps the peak memory of long words low.
    window = ones.astype(np.min_scalar_type(max(longest, 0)))
    for n in range(1, longest + 1):
        if n > 1:
            window = window[:-1]
            window += ones[n - 1 :]
        low_at, high_at = int(window.argmin()), int(window.argmax())
        if int(window[high_at]) - int(window[low_at]) > 1:
            return BalanceCheck(False, (text[low_at : low_at + n], text[high_at : high_at + n]))
    return BalanceCheck(True, None)
