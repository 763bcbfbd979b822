"""Tests for words, morphisms, shifts and factor statistics."""

import random

import pytest

from ietlab.errors import ParameterError
from ietlab.words import (
    BINARY,
    SPLIT_B01,
    SPLIT_B10,
    TERNARY,
    Morphism,
    Word,
    is_balanced,
    rotation_coding_morphism,
)

from oracles import (
    EXCHANGE_01,
    cyclic_shift,
    factors,
    fib_char_prefix,
    letter_permutation,
    shift,
)


def test_word_validation():
    with pytest.raises(ParameterError):
        Word("ABD", TERNARY)
    with pytest.raises(ParameterError):
        Word("01", ("0", "0"))
    assert Word.from_text("0101").alphabet == BINARY
    assert Word.from_text("ABBA").alphabet == TERNARY
    assert Word.from_text("xyz").alphabet == ("x", "y", "z")


def test_concatenation_and_slicing():
    w = Word("ACAB", TERNARY)
    assert (w + Word("AC", TERNARY)).text == "ACABAC"
    assert w[1:3].text == "CA"
    assert w[0] == "A"
    assert len(w) == 4


class TestProjections:
    def test_b01_image(self):
        assert SPLIT_B01(Word("ACABAC", TERNARY)).text == "0100101"

    def test_b10_image(self):
        assert SPLIT_B10(Word("ACABAC", TERNARY)).text == "0101001"

    def test_rotation_coding_images(self):
        assert rotation_coding_morphism(1)(Word("C", TERNARY)).text == "01"
        assert rotation_coding_morphism(0)(Word("B", TERNARY)).text == "01"
        assert rotation_coding_morphism(0)(Word("ACABAC", TERNARY)).text == "0000100"
        assert rotation_coding_morphism(1)(Word("ACABAC", TERNARY)).text == "0010011001"
        for k in range(5):
            assert rotation_coding_morphism(k)(Word("A", TERNARY)).text == "0"

    def test_letter_outside_source(self):
        with pytest.raises(ParameterError):
            SPLIT_B01(Word("01", BINARY))
        # An alphabet wider than the source is scanned letter by letter.
        wider = ("A", "B", "C", "D")
        assert SPLIT_B01(Word("ABCA", wider)).text == "00110"
        with pytest.raises(ParameterError):
            SPLIT_B01(Word("ABDA", wider))

    def test_homomorphism_property(self):
        rng = random.Random(41)
        morphisms = [SPLIT_B01, SPLIT_B10, EXCHANGE_01, rotation_coding_morphism(2)]
        for m in morphisms:
            letters = m.source
            for _ in range(50):
                v = "".join(rng.choice(letters) for _ in range(rng.randint(0, 12)))
                w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 12)))
                left = m(Word(v + w, m.source))
                right = m(Word(v, m.source)) + m(Word(w, m.source))
                assert left == right

    def test_image_length_accounting(self):
        rng = random.Random(43)
        for _ in range(100):
            text = "".join(rng.choice(TERNARY) for _ in range(rng.randint(1, 40)))
            w = Word(text, TERNARY)
            expected = w.count("A") + 2 * w.count("B") + w.count("C")
            assert len(SPLIT_B01(w)) == expected
            assert len(SPLIT_B10(w)) == expected

    def test_exchange_is_involution(self):
        rng = random.Random(47)
        for _ in range(100):
            w = Word("".join(rng.choice(BINARY) for _ in range(rng.randint(0, 30))), BINARY)
            assert EXCHANGE_01(EXCHANGE_01(w)) == w

    def test_morphism_requires_nonempty_images(self):
        with pytest.raises(ParameterError):
            Morphism(BINARY, BINARY, {"0": "1", "1": ""})


class TestShifts:
    def test_shift(self):
        w = Word("ACABAC", TERNARY)
        assert shift(w, 1).text == "CABAC"
        assert shift(w, 0) == w
        assert shift(w, len(w)).text == ""
        with pytest.raises(ParameterError):
            shift(w, 7)

    def test_cyclic_shift(self):
        assert cyclic_shift(Word("011", BINARY)).text == "110"
        assert cyclic_shift(Word("A", TERNARY)).text == "A"
        with pytest.raises(ParameterError):
            cyclic_shift(Word("", BINARY))

    def test_full_rotation_restores(self):
        rng = random.Random(53)
        for _ in range(50):
            w = Word("".join(rng.choice(TERNARY) for _ in range(rng.randint(1, 15))), TERNARY)
            rotated = w
            for _ in range(len(w)):
                rotated = cyclic_shift(rotated)
            assert rotated == w


class TestFactorStatistics:
    def test_complexity_examples(self):
        w = Word("00100101", BINARY)
        assert w.factor_complexity(1) == 2
        assert w.factor_complexity(2) == 3
        assert factors(w, 2) == {"00", "01", "10"}
        with pytest.raises(ParameterError):
            w.factor_complexity(9)

    def test_complexity_of_golden_prefix(self):
        w = Word(fib_char_prefix(1000), BINARY)
        for n in range(1, 21):
            assert w.factor_complexity(n) == n + 1

    def test_complexity_monotone_and_capped(self):
        rng = random.Random(59)
        for _ in range(40):
            w = Word("".join(rng.choice(TERNARY) for _ in range(rng.randint(2, 50))), TERNARY)
            assert w.factor_complexity(1) <= len(w.alphabet)
            values = [w.factor_complexity(n) for n in range(1, min(8, len(w)) + 1)]
            peak = values.index(max(values))
            assert values[: peak + 1] == sorted(values[: peak + 1])

    def test_balance(self):
        assert is_balanced(Word("00100101", BINARY), 8).balanced
        check = is_balanced(Word("0011", BINARY), 2)
        assert not check.balanced
        assert check.witness == ("00", "11")
        assert is_balanced(Word("0000", BINARY), 4).balanced
        with pytest.raises(ParameterError):
            is_balanced(Word("AC", TERNARY), 2)


def test_letter_permutation():
    w = Word("ACAB", TERNARY)
    swapped = letter_permutation(w, {"A": "C", "C": "A", "B": "B"})
    assert swapped.text == "CACB"
    with pytest.raises(ParameterError):
        letter_permutation(w, {"A": "B", "B": "B", "C": "C"})
