"""Tests for repetition detection and the index estimate."""

import json
import random
from fractions import Fraction

import pytest

from ietlab.errors import ParameterError
from ietlab.repetitions import (
    Run,
    brute_force_index,
    max_runs,
    word_index_estimate,
)
from ietlab.words import BINARY, Word

from oracles import (
    factor_index_in,
    fib_char_prefix,
    letter_permutation,
    max_integer_power,
    naive_index,
    naive_max_power,
    naive_runs,
    random_word,
)

W = Word.from_text


class TestFactorIndex:
    def test_visible_cube(self):
        assert factor_index_in(W("abababc"), W("ab")) == 3

    def test_fractional_power(self):
        # both occurrences of 010 in 0100101 extend to at most length 6
        assert factor_index_in(W("0100101"), W("010")) == 2

    def test_absent_factor(self):
        assert factor_index_in(W("aaa"), W("b")) == 0

    def test_empty_factor_rejected(self):
        with pytest.raises(ParameterError):
            factor_index_in(W("aaa"), Word("", BINARY))


class TestBruteForce:
    def test_examples(self):
        assert brute_force_index(W("aaa")) == 3
        assert brute_force_index(W("0100101")) == 2
        assert brute_force_index(W("abcabca")) == Fraction(7, 3)

    def test_matches_naive_scan(self):
        rng = random.Random(61)
        for _ in range(60):
            text = random_word(rng, "ab", 40)
            assert brute_force_index(W(text)) == naive_index(text)
        for _ in range(60):
            text = random_word(rng, "ABC", 40)
            assert brute_force_index(W(text)) == naive_index(text)

    def test_length_guard(self):
        with pytest.raises(ParameterError):
            brute_force_index(Word("0" * 5001, BINARY))


class TestMaxRuns:
    def test_overlapping_repetition(self):
        runs = max_runs(W("aabaabaa"))
        assert Run(start=0, period=3, length=8) in runs
        assert runs == sorted(runs, key=lambda r: (r.start, r.period))

    def test_square_free_word(self):
        assert max_runs(W("abc")) == []

    def test_single_letter_block(self):
        assert max_runs(W("aaaa")) == [Run(start=0, period=1, length=4)]

    def test_run_invariants(self):
        rng = random.Random(67)
        for _ in range(80):
            text = random_word(rng, "ab", 60)
            for run in max_runs(W(text)):
                assert run.length >= 2 * run.period
                for i in range(run.start, run.start + run.length - run.period):
                    assert text[i] == text[i + run.period]
                left = run.start - 1
                if left >= 0:
                    assert text[left] != text[left + run.period]
                right = run.start + run.length
                if right < len(text):
                    assert text[right] != text[right - run.period]

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(71)
        for _ in range(80):
            text = random_word(rng, "ab", 70)
            got = [(r.start, r.period, r.length) for r in max_runs(W(text))]
            assert got == naive_runs(text)
        for _ in range(80):
            text = random_word(rng, "ABC", 70)
            got = [(r.start, r.period, r.length) for r in max_runs(W(text))]
            assert got == naive_runs(text)

    def test_structured_words(self):
        for text in (fib_char_prefix(233), "abaababaabaab" * 3, "a" * 50):
            got = [(r.start, r.period, r.length) for r in max_runs(W(text))]
            assert got == naive_runs(text)


class TestIndexEstimate:
    def test_examples(self):
        assert word_index_estimate(W("aabaabaa")).index_estimate == Fraction(8, 3)
        assert word_index_estimate(W("abcab")).index_estimate == Fraction(5, 3)
        assert word_index_estimate(W("aaa")).index_estimate == 3
        assert word_index_estimate(W("abc")).index_estimate == 1
        assert word_index_estimate(W("a")).index_estimate == 1

    def test_witness_and_report(self):
        report = word_index_estimate(W("aabaabaa"))
        assert report.witness == Run(start=0, period=3, length=8)
        assert report.max_power == 2
        assert report.max_power_witness == "aab"
        data = json.loads(report.to_json())
        assert list(data) == [
            "prefix_length", "index_num", "index_den", "witness", "max_integer_power",
        ]
        assert data["witness"] == {"start": 0, "period": 3, "length": 8}
        assert data["max_integer_power"] == {"j": 2, "witness": "aab"}

    def test_witness_tie_break(self):
        # two exponent-2 runs: the smallest period, then smallest start, wins
        report = word_index_estimate(W("aabaa"))
        assert report.witness == Run(start=0, period=1, length=2)

    def test_oracle_equivalence_random(self):
        rng = random.Random(73)
        for _ in range(120):
            alphabet = rng.choice(["ab", "ABC"])
            text = random_word(rng, alphabet, 140)
            word = W(text)
            assert word_index_estimate(word).index_estimate == brute_force_index(word)

    def test_oracle_equivalence_structured(self):
        for text in (fib_char_prefix(300), fib_char_prefix(377),
                     "abcabca" * 12, "ab" * 40 + "a", "0" * 120):
            word = W(text)
            assert word_index_estimate(word).index_estimate == brute_force_index(word)

    def test_oracle_equivalence_square_free(self):
        # square-free ternary words exercise the fractional fallback path
        rng = random.Random(101)
        def square_free(length):
            text = ""
            while len(text) < length:
                choices = [c for c in "abc" if not _has_square(text + c)]
                if not choices:
                    text = text[:-1]
                    continue
                text += rng.choice(choices)
            return text
        def _has_square(text):
            n = len(text)
            for p in range(1, n // 2 + 1):
                if text[n - 2 * p : n - p] == text[n - p :]:
                    return True
            return False
        for length in (10, 25, 40, 60, 90):
            word = W(square_free(length))
            estimate = word_index_estimate(word).index_estimate
            assert estimate == brute_force_index(word)
            assert estimate < 2
            assert max_runs(word) == []

    def test_equals_max_factor_index(self):
        # the estimate coincides with the best factor_index_in over all factors
        rng = random.Random(103)
        for _ in range(25):
            text = random_word(rng, rng.choice(["ab", "ABC"]), 40)
            word = W(text)
            factors = {text[i:j] for i in range(len(text)) for j in range(i + 1, len(text) + 1)}
            best = max(factor_index_in(word, Word(f, word.alphabet)) for f in factors)
            assert word_index_estimate(word).index_estimate == max(best, Fraction(1))

    def test_monotone_in_prefix_length(self):
        text = fib_char_prefix(800)
        previous = Fraction(0)
        for n in range(1, 801, 33):
            estimate = word_index_estimate(Word(text[:n], BINARY)).index_estimate
            assert estimate >= previous
            previous = estimate

    def test_letter_permutation_invariance(self):
        rng = random.Random(79)
        for _ in range(60):
            text = random_word(rng, "ABC", 80)
            word = W(text)
            perm = {"A": "B", "B": "C", "C": "A"}
            swapped = letter_permutation(word, perm)
            assert word_index_estimate(word).index_estimate == \
                word_index_estimate(swapped).index_estimate

    def test_empty_word_rejected(self):
        with pytest.raises(ParameterError):
            word_index_estimate(Word("", BINARY))


class TestIntegerPowers:
    def test_examples(self):
        assert max_integer_power(W("aabaabaa")) == (2, W("aab"))
        j, witness = max_integer_power(W("aaaa"))
        assert j == 4 and witness.text == "a"

    def test_fibonacci_prefix_has_cubes(self):
        j, _ = max_integer_power(Word(fib_char_prefix(1000), BINARY))
        assert j == 3

    def test_against_naive_power_scan(self):
        rng = random.Random(83)
        for _ in range(60):
            text = random_word(rng, "ab", 60)
            assert max_integer_power(W(text))[0] == naive_max_power(text)

    def test_power_is_floor_of_estimate(self):
        rng = random.Random(89)
        for _ in range(60):
            text = random_word(rng, "ABC", 90)
            report = word_index_estimate(W(text))
            if report.index_estimate >= 2:
                assert report.max_power == report.index_estimate.numerator // \
                    report.index_estimate.denominator
            witness_power = report.max_power_witness * report.max_power
            assert witness_power in text
