"""Finite words over explicit alphabets, morphisms, and factor statistics."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ParameterError

BINARY = ("0", "1")
TERNARY = ("A", "B", "C")


class Word:
    """An immutable finite word over an explicit ordered alphabet."""

    __slots__ = ("text", "alphabet")

    def __init__(self, text: str, alphabet: Iterable[str]):
        alphabet = tuple(alphabet)
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ParameterError("alphabet must be a nonempty set of distinct letters")
        if any(len(letter) != 1 or not letter.isascii() for letter in alphabet):
            raise ParameterError("alphabet letters must be single ASCII characters")
        extra = set(text) - set(alphabet)
        if extra:
            raise ParameterError(f"letters {sorted(extra)} are outside the alphabet")
        self.text = text
        self.alphabet = alphabet

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
            return Word(self.text[item], self.alphabet)
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
        return Word(self.text + other.text, self.alphabet)

    def __repr__(self) -> str:
        shown = self.text if len(self.text) <= 40 else self.text[:37] + "..."
        return f"Word({shown!r}, alphabet={''.join(self.alphabet)!r})"

    def count(self, letter: str) -> int:
        return self.text.count(letter)

    def shift(self, i: int) -> "Word":
        """Drop the first i letters (finite restriction of the shift map)."""
        if not 0 <= i <= len(self.text):
            raise ParameterError(f"shift amount {i} exceeds word length {len(self.text)}")
        return Word(self.text[i:], self.alphabet)

    def cyclic_shift(self) -> "Word":
        """Move the first letter to the end."""
        if not self.text:
            raise ParameterError("cyclic shift of the empty word")
        return Word(self.text[1:] + self.text[0], self.alphabet)

    def factors(self, n: int) -> set[str]:
        """All distinct length-n factors."""
        if not 0 <= n <= len(self.text):
            raise ParameterError(f"factor length {n} exceeds word length {len(self.text)}")
        return {self.text[i : i + n] for i in range(len(self.text) - n + 1)}

    def factor_complexity(self, n: int) -> int:
        """Number of distinct length-n factors."""
        return len(self.factors(n))


class Morphism:
    """A monoid morphism determined by nonempty letter images."""

    __slots__ = ("source", "target", "images", "_table")

    def __init__(self, source: Iterable[str], target: Iterable[str], images: dict[str, str]):
        self.source = tuple(source)
        self.target = tuple(target)
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
        return Word(word.text.translate(self._table), self.target)

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

    On failure the witness holds a violating factor pair (fewest ones,
    most ones).
    """
    if set(word.alphabet) != set(BINARY):
        raise ParameterError("balance is defined for binary words only")
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
