"""The Lyndon-root runs engine against the naive oracles."""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ietlab import repetitions
from ietlab.exactreal import CFExpansion, QuadraticReal
from ietlab.repetitions import (
    IndexReport,
    Run,
    _best_extension,
    _candidates,
    _doubling_ranks,
    _letter_labels,
    _occurrence_candidates,
    _packed_letters,
    _packing_width,
    max_runs,
    word_index_estimate,
)
from ietlab.sturmian import RotationParams, characteristic_prefix, rotation_word
from ietlab.threeiet import ThreeIetParams, threeiet_word
from ietlab.words import Word

from oracles import (
    HAS_PROC_STATUS,
    PEAK_KIB_SOURCE,
    characteristic_prefix_index,
    fractional_best,
    has_period,
    naive_index,
    naive_runs,
    vtm_prefix,
)

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
PREFIXES = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SQUARE_FREE = settings(max_examples=150, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


def check_engine(text):
    """Runs, index and candidate count of one word against the oracles."""
    word = Word.from_text(text)
    runs = [(r.start, r.period, r.length) for r in max_runs(word)]
    assert runs == naive_runs(text)
    assert word_index_estimate(word).index_estimate == naive_index(text)
    candidates, run_free = _candidates(text)
    assert candidates[0].size <= 2 * len(text) and (run_free is None) == bool(runs)
    return runs


@st.composite
def small_words(draw):
    """A word over 1-4 letters, often opening or closing on a repetition."""
    letters = "abcd"[: draw(st.integers(1, 4))]
    pieces = []
    for _ in range(2):
        root = draw(st.text(letters, min_size=1, max_size=5))
        pieces.append(root * draw(st.integers(0, 4)) + root[: draw(st.integers(0, 4))])
    middle = draw(st.text(letters, max_size=30))
    return (pieces[0] + middle + pieces[1])[:80] or letters[0]


@PROPERTY
@given(small_words())
def test_small_words_match_oracles(text):
    check_engine(text)


@PROPERTY
@given(small_words())
def test_occurrence_candidates_hold_the_sweep_best(text):
    # the proof does not need a square-free word, so words with runs check it too
    labels = _letter_labels(np.frombuffer(text.encode("ascii"), dtype=np.uint8))
    m = _packing_width(int(labels.max()))
    rounds = _doubling_ranks(labels, m.bit_length() - 1, len(text))
    packed = _packed_letters(labels, m)[m:]
    assert _best_extension(*_occurrence_candidates(labels, packed, m, rounds)) == fractional_best(text)


@pytest.mark.parametrize("text", [vtm_prefix(5000), "abaababaab" * 300])
def test_one_doubling_pass_per_word(monkeypatch, text):
    calls = []

    def counted(*args):
        calls.append(args)
        return _doubling_ranks(*args)

    monkeypatch.setattr(repetitions, "_doubling_ranks", counted)
    word_index_estimate(Word.from_text(text))
    assert len(calls) == 1


def test_runs_at_both_ends():
    # squares and cubes touching position 0, position n, or both
    for text, run in (("aab", (0, 1, 2)), ("baa", (1, 1, 2)), ("abab", (0, 2, 4)),
                      ("abcabcab", (0, 3, 8)), ("cabab", (1, 2, 4)),
                      ("ababc", (0, 2, 4)), ("aaaa", (0, 1, 4))):
        assert run in check_engine(text)


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda t: 0 < t < 1)


@st.composite
def irrationals(draw):
    """An irrational value in (0, 1) of Q(sqrt(2)), Q(sqrt(3)) or Q(sqrt(5))."""
    d = draw(st.sampled_from((2, 3, 5)))
    q = draw(st.integers(1, 20)) * draw(st.sampled_from((1, -1)))
    return QuadraticReal(draw(st.integers(-40, 40)), q, d, draw(st.integers(1, 30))).fract()


@PREFIXES
@given(st.lists(st.integers(1, 5), min_size=20, max_size=20), st.integers(1, 400))
def test_characteristic_prefixes(quotients, n):
    check_engine(characteristic_prefix(CFExpansion.from_quotients(quotients), n).text)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(1, 7), min_size=25, max_size=25), st.integers(2, 30000))
def test_characteristic_index_reaches_the_oracle(quotients, n):
    # the oracle's value is proved a lower bound; the witness bounds from above
    word = characteristic_prefix(CFExpansion.from_quotients(quotients), n)
    report = word_index_estimate(word)
    assert report.index_estimate >= characteristic_prefix_index(quotients, n)
    witness = report.witness
    assert has_period(word.text, witness.start, witness.period, witness.length)
    assert report.index_estimate == Fraction(witness.length, witness.period)


@PREFIXES
@given(irrationals(), UNIT, UNIT, st.integers(1, 400))
def test_rotation_prefixes(alpha, beta, x0, n):
    params = RotationParams(alpha, QuadraticReal(beta.numerator, 0, 0, beta.denominator),
                            QuadraticReal(x0.numerator, 0, 0, x0.denominator))
    check_engine(rotation_word(params, n).text)


@PREFIXES
@given(irrationals(), UNIT, UNIT, st.integers(1, 400))
def test_threeiet_prefixes(eps, t, s, n):
    larger = eps if eps > 1 - eps else 1 - eps
    ell = larger + (1 - larger) * QuadraticReal(t.numerator, 0, 0, t.denominator)
    x0 = ell * QuadraticReal(s.numerator, 0, 0, s.denominator)
    check_engine(threeiet_word(ThreeIetParams(eps, ell, x0), n).text)


VTM = vtm_prefix(4000)


def has_square_suffix(text):
    n = len(text)
    return any(text[n - 2 * p : n - p] == text[n - p :] for p in range(1, n // 2 + 1))


@st.composite
def square_free_words(draw):
    """A slice of vtm at a drawn offset, or a word over 3-5 letters built by
    backtracking in drawn letter orders; up to 300 letters."""
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        start = draw(st.integers(0, len(VTM) - n))
        return VTM[start : start + n]
    rng = draw(st.randoms(use_true_random=False))
    letters = "abcde"[: draw(st.integers(3, 5))]
    text, untried = "", [rng.sample(letters, len(letters))]
    while len(text) < n:
        if not untried[-1]:
            untried.pop()
            text = text[:-1]
            continue
        letter = untried[-1].pop()
        if not has_square_suffix(text + letter):
            text += letter
            untried.append(rng.sample(letters, len(letters)))
    return text


@SQUARE_FREE
@given(square_free_words())
def test_square_free_words_match_the_sweep(text):
    word = Word.from_text(text)
    assert max_runs(word) == []
    length, period, start = fractional_best(text)
    assert word_index_estimate(word) == IndexReport(
        prefix_length=len(text),
        index_estimate=Fraction(length, period),
        witness=Run(start, period, length),
        max_power=1,
        max_power_witness=text[start : start + period],
    )
    assert Fraction(length, period) == naive_index(text)


def test_max_runs_leaves_the_run_free_search_unrun(monkeypatch):
    text = vtm_prefix(5000)

    def refused(*args):
        raise AssertionError("max_runs ran _occurrence_candidates")

    with monkeypatch.context() as patch:
        patch.setattr(repetitions, "_occurrence_candidates", refused)
        assert max_runs(Word.from_text(text)) == []
    witness = word_index_estimate(Word.from_text(text)).witness
    assert (witness.length, witness.period, witness.start) == fractional_best(text)


def test_run_free_search_rebuilds_a_dropped_round_by_a_sort(monkeypatch):
    # at 20000 letters a round dropped by the doubling has pair keys too wide
    # to pack, so the run-free search rebuilds it by a sort and reuses that sort
    text = vtm_prefix(20000)
    callers = []
    ranked = repetitions._ranked

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return ranked(*args, **kwargs)

    monkeypatch.setattr(repetitions, "_ranked", spy)
    witness = word_index_estimate(Word.from_text(text)).witness
    best = fractional_best(text)
    assert (witness.length, witness.period, witness.start) == best == (8191, 4096, 4096)
    assert callers.count("_occurrence_candidates") == 1


def test_square_free_index_through_the_cli_in_time(tmp_path):
    # the per-period sweep that indexed words without runs took over a minute here
    path = tmp_path / "vtm.txt"
    path.write_text(vtm_prefix(200000) + "\n")
    out = subprocess.run([sys.executable, "-m", "ietlab", "index", "--file", str(path)],
                         capture_output=True, text=True, check=True, timeout=30)
    assert json.loads(out.stdout)["witness"] == {"start": 65536, "period": 65536, "length": 131071}


def test_exact_winner_between_close_ratios():
    # (2^31)/(2^30 - 1) exceeds (2^30 + 1)/2^29 by 1/(2^29 (2^30 - 1)) < 1e-9,
    # and both ratios round to the same float; the larger period must win.
    a = (0, 2**30 + 1, 2**29)
    b = (5, 5 + 2**31, 2**30 - 1)
    tie = (2, 2 + 2**31, 2**30 - 1)
    assert float(a[1] - a[0]) / a[2] == float(b[1] - b[0]) / b[2]
    for cands, winner in (([a, b], b), ([b, a], b), ([a, b, tie], tie), ([tie, a, b], tie)):
        start, end, period = (np.array(column, dtype=np.int64) for column in zip(*cands))
        assert _best_extension(start, end, period) == (winner[1] - winner[0], winner[2], winner[0])


# The runs engine's high-water mark grows by about 47-54 bytes a letter on
# the two 2e5-letter words below (x86-64, numpy 2.4), 10% under the bound.
# It fails an engine that keeps every doubling round from log2 m on and
# builds full-length int64 temporaries to pick the best run (73-76 bytes a
# letter), or one that also keeps its rounds in int32 (108-114).
ENGINE_BYTES_PER_LETTER = 59


def engine_peak_bytes_per_letter(make_word):
    """VmHWM growth of `word_index_estimate` in a fresh child, per letter of
    the 2e5-letter word that the source ``make_word`` binds to ``word``."""
    script = PEAK_KIB_SOURCE + make_word + (
        "from ietlab.repetitions import word_index_estimate\n"
        "before = peak_kib()\n"
        "word_index_estimate(word)\n"
        "print(peak_kib() - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    return int(out.stdout) * 1024 / 200000


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs Linux /proc")
def test_peak_memory_of_a_long_characteristic_prefix():
    per_letter = engine_peak_bytes_per_letter(
        "from ietlab.exactreal import CFExpansion\n"
        "from ietlab.sturmian import characteristic_prefix\n"
        "word = characteristic_prefix(CFExpansion.from_quotients([1, 2, 3, 4] * 10), 200000)\n"
    )
    assert per_letter < ENGINE_BYTES_PER_LETTER, per_letter


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs Linux /proc")
def test_peak_memory_of_a_long_3iet_prefix():
    per_letter = engine_peak_bytes_per_letter(
        "from ietlab.exactreal import parse_quadratic\n"
        "from ietlab.threeiet import ThreeIetParams, threeiet_word\n"
        "params = ThreeIetParams(parse_quadratic('(-1+1*sqrt(2))/1'), parse_quadratic('7/10'),\n"
        "                        parse_quadratic('0'))\n"
        "word = threeiet_word(params, 200000)\n"
    )
    assert per_letter < ENGINE_BYTES_PER_LETTER, per_letter
