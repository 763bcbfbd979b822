"""Tests for words, morphisms, shifts and factor statistics."""

import random

import pytest

from ietlab.errors import ParameterError
from ietlab.exactreal import QuadraticReal
from ietlab.threeiet import ThreeIetParams, threeiet_word
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
    naive_image,
    shift,
)

HUNDRED = tuple(chr(code) for code in range(28, 128))


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

    def test_source_alphabet_is_checked(self):
        # Sources of several-letter, non-ASCII or repeated letters are refused.
        with pytest.raises(ParameterError):
            Morphism(("AB",), BINARY, {"AB": "0"})
        with pytest.raises(ParameterError):
            Morphism(("\u00e9",), BINARY, {"\u00e9": "0"})
        with pytest.raises(ParameterError):
            Morphism(("A", "A"), BINARY, {"A": "0"})


def check_against_oracle(morphism, rng, max_len):
    """Compare the morphism's images with the naive oracle on random words,
    the empty word included."""
    for length in [0] + [rng.randint(1, max_len) for _ in range(20)]:
        text = "".join(rng.choice(morphism.source) for _ in range(length))
        image = morphism(Word(text, morphism.source))
        assert image.text == naive_image(morphism.images, text)
        assert image.alphabet == morphism.target


def random_morphism(rng, source, target, longest):
    images = {
        letter: "".join(rng.choice(target) for _ in range(rng.randint(1, longest)))
        for letter in source
    }
    return Morphism(source, target, images)


class TestMorphismOracle:
    def test_overlapping_alphabets(self):
        rng = random.Random(53)
        check_against_oracle(Morphism(BINARY, BINARY, {"0": "01", "1": "0"}), rng, 60)
        check_against_oracle(Morphism(("A", "B"), ("A", "B"), {"A": "AB", "B": "A"}), rng, 60)
        for _ in range(50):
            letters = "".join(rng.sample("ABCDE", rng.randint(1, 5)))
            source = tuple(rng.sample(letters, rng.randint(1, len(letters))))
            target = tuple(rng.sample(letters, rng.randint(1, len(letters))))
            check_against_oracle(random_morphism(rng, source, target, 8), rng, 40)

    def test_one_letter_images(self):
        rng = random.Random(59)
        for size in (1, 2, 3, 10, len(HUNDRED)):
            source = HUNDRED[:size]
            target = tuple(rng.sample(source, size))
            check_against_oracle(Morphism(source, source, dict(zip(source, target))), rng, 80)

    def test_images_of_up_to_eight_letters(self):
        rng = random.Random(61)
        for _ in range(50):
            check_against_oracle(random_morphism(rng, TERNARY, BINARY, 8), rng, 40)

    def test_hundred_letter_source(self):
        # Placeholder bytes run up to 0x80 + 99.
        rng = random.Random(67)
        for longest in (1, 2, 8):
            check_against_oracle(random_morphism(rng, HUNDRED, HUNDRED, longest), rng, 300)
        binary = {letter: "0" + format(i, "b") for i, letter in enumerate(HUNDRED)}
        every_long = Morphism(HUNDRED, BINARY, binary)
        check_against_oracle(every_long, rng, 300)
        assert every_long(Word(HUNDRED[-1], HUNDRED)).text == "01100011"

    def test_projections_of_a_long_three_iet_word(self):
        params = ThreeIetParams(
            QuadraticReal(-1, 1, 5, 2), QuadraticReal(4, 0, 0, 5), QuadraticReal(0)
        )
        word = threeiet_word(params, 200_000)
        for morphism in (SPLIT_B01, SPLIT_B10, rotation_coding_morphism(3)):
            assert morphism(word).text == naive_image(morphism.images, word.text)


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
