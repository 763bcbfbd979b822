"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

from mpmath import mp, mpf, sqrt

from ietlab.cli import main as cli_main
from ietlab.exactreal import QuadraticReal, cf_expand
from ietlab.repetitions import brute_force_index, word_index_estimate
from ietlab.sturmian import (
    RotationParams,
    block_decompose,
    characteristic_prefix,
    rotation_word,
    sturmian_index_formula,
)
from ietlab.threeiet import (
    ThreeIetParams,
    ternarize,
    threeiet_word,
    verify_projections,
)
from ietlab.words import BINARY, SPLIT_B01, SPLIT_B10, TERNARY, Word

from oracles import random_word, step

GOLDEN_EPS = QuadraticReal(-1, 1, 5, 2)      # sqrt(5)-1 over 2
SILVER_EPS = QuadraticReal(-1, 1, 2, 1)      # sqrt(2)-1
HALF_SQRT2 = QuadraticReal(0, 1, 2, 2)       # sqrt(2)/2
ZERO = QuadraticReal(0)


def report(name: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.3f}s of {limit}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"{name} exceeded the {limit}s budget ({elapsed:.3f}s)"


def test_c1_projection_pair_and_recombination():
    word = Word("ACABAC", TERNARY)
    SPLIT_B01(word)  # warm-up outside the timed section
    start = time.perf_counter()
    b01 = SPLIT_B01(word)
    b10 = SPLIT_B10(word)
    recombined = ternarize(b01, b10)
    elapsed = time.perf_counter() - start
    ok = (
        b01.text == "0100101"
        and b10.text == "0101001"
        and recombined == word
    )
    report("c1", ok, elapsed, 0.001, "projection pair and recombination")


def test_c2_index_formula_bracketing():
    start = time.perf_counter()
    cf = cf_expand(GOLDEN_EPS, 30)
    estimate = word_index_estimate(characteristic_prefix(cf, 10**4)).index_estimate
    in_bracket = Fraction(34, 10) <= estimate <= Fraction(361804, 100000)
    result = sturmian_index_formula(cf, 12)
    q = [pq[1] for pq in cf.convergents(12)]
    truncation_exact = result.truncated_sup == 2 + 1 + Fraction(q[11] - 2, q[12])
    limit_value = QuadraticReal(5, 1, 5, 2)
    limit_exact = result.periodic_limit == limit_value
    limit_decimal = abs(float(result.periodic_limit.decimal(18)) - (5 + 5**0.5) / 2) < 1e-12
    elapsed = time.perf_counter() - start
    ok = in_bracket and truncation_exact and limit_exact and limit_decimal
    report("c2", ok, elapsed, 5.0,
           f"estimate {estimate} in [3.40, 3.61804], truncated sup {result.truncated_sup}")


def test_c3_projection_checks_across_parameter_grid():
    eps_values = [GOLDEN_EPS, SILVER_EPS, HALF_SQRT2]
    ells = [QuadraticReal(7, 0, 0, 10), QuadraticReal(4, 0, 0, 5), QuadraticReal(9, 0, 0, 10)]
    x0s = [ZERO, QuadraticReal(1, 0, 0, 10)]
    start = time.perf_counter()
    triples = []
    for eps in eps_values:
        one_minus = 1 - eps
        larger = eps if (eps - one_minus).sign() >= 0 else one_minus
        for ell in ells:
            if (ell - larger).sign() <= 0:
                continue  # the constraint max(eps, 1-eps) < ell excludes this pair
            for x0 in x0s:
                triples.append(ThreeIetParams(eps, ell, x0))
    failures = [
        params for params in triples
        if not verify_projections(params, 500, 12).passed
    ]
    elapsed = time.perf_counter() - start
    ok = not failures and len(triples) == 16
    report("c3", ok, elapsed, 30.0,
           f"{len(triples)} valid triples, {len(failures)} failures")


def test_c4_and_c5_bound_verdicts_and_convergence_witness():
    cases = [
        (SILVER_EPS, QuadraticReal(7, 0, 0, 10), 2),
        (GOLDEN_EPS, QuadraticReal(4, 0, 0, 5), 1),
    ]
    start = time.perf_counter()
    details = []
    ok = True
    for eps, ell, largest in cases:
        params = ThreeIetParams(eps, ell, ZERO)
        word = threeiet_word(params, 10**5)
        rep = word_index_estimate(word)
        ok &= rep.index_estimate <= largest + 3
        ok &= rep.max_power <= largest + 2
        # convergence witness: the first ladder length reaching floor(K/2)
        lower = largest // 2
        reached_at = None
        n = 1
        while n <= 10**5:
            if word_index_estimate(word[: min(n, len(word))]).index_estimate >= lower:
                reached_at = n
                break
            n *= 2
        ok &= reached_at is not None
        details.append(
            f"K={largest}: estimate {rep.index_estimate} <= {largest + 3}, "
            f"power {rep.max_power} <= {largest + 2}, lower {lower} reached at N={reached_at}"
        )
    elapsed = time.perf_counter() - start
    report("c4", ok, elapsed, 60.0, "; ".join(details))
    report("c5", ok, 0.0, 60.0, "witness lengths recorded above")


def test_c6_oracle_equivalence():
    rng = random.Random(202608)
    start = time.perf_counter()
    mismatches = 0
    for i in range(500):
        alphabet = "01" if i % 2 == 0 else "ABC"
        word = Word.from_text(random_word(rng, alphabet, 300))
        if word_index_estimate(word).index_estimate != brute_force_index(word):
            mismatches += 1
    golden_cf = cf_expand(GOLDEN_EPS, 30)
    goldens = [
        Word("ACABAC", TERNARY),
        Word("0100101", BINARY),
        Word("0101001", BINARY),
        Word.from_text("aabaabaa"),
        Word.from_text("abcab"),
        Word.from_text("abcabca"),
        Word.from_text("aaaa"),
        characteristic_prefix(golden_cf, 300),
        characteristic_prefix(cf_expand(SILVER_EPS, 30), 300),
        threeiet_word(ThreeIetParams(GOLDEN_EPS, QuadraticReal(4, 0, 0, 5), ZERO), 300),
        rotation_word(RotationParams(QuadraticReal(3, -1, 5, 2), GOLDEN_EPS, ZERO), 300),
    ]
    for word in goldens:
        if word_index_estimate(word).index_estimate != brute_force_index(word):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report("c6", mismatches == 0, elapsed, 30.0,
           f"500 random + {len(goldens)} golden words, {mismatches} mismatches")


def test_c7_block_structure():
    cf = cf_expand(GOLDEN_EPS, 30)
    prefix = characteristic_prefix(cf, 200)
    start = time.perf_counter()
    ok = True
    details = []
    for level in (2, 3, 4):
        parse = block_decompose(prefix, cf, level)
        ok &= parse.reconstruct() == prefix.text[: parse.consumed]
        ok &= parse.tail_length < len(parse.long_block)
        ok &= parse.consumed + parse.tail_length == 200
        details.append(f"level {level}: {len(parse.tags)} blocks, tail {parse.tail_length}")
    elapsed = time.perf_counter() - start
    report("c7", ok, elapsed, 30.0, "; ".join(details))


def test_c8_collapsed_image_index_divergence(capsys):
    argv = [
        "experiment", "ell-sweep",
        "--eps", "(-1+1*sqrt(5))/2",
        "--ell", "7/10,9/10,99/100",
        "-N", "20000",
    ]
    start = time.perf_counter()
    code = cli_main(argv)
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    own = [Fraction(int(r["word_index"].split("/")[0]), int(r["word_index"].split("/")[1]))
           for r in rows]
    collapsed = [Fraction(int(r["collapsed_index"].split("/")[0]),
                          int(r["collapsed_index"].split("/")[1])) for r in rows]
    ok = (
        code == 0
        and len(rows) == 3
        and all(value <= 4 for value in own)
        and collapsed[2] >= 10
    )
    with capsys.disabled():
        report("c8", ok, elapsed, 60.0,
               f"word index max {max(own)}, collapsed at ell=99/100: {collapsed[2]}")


def test_c9_exact_orbit_against_decimal_recomputation():
    params = ThreeIetParams(SILVER_EPS, QuadraticReal(7, 0, 0, 10), ZERO)
    mp.dps = 60
    eps_mp = (sqrt(2) - 1)
    ell_mp = mpf(7) / 10
    boundary_mp = ell_mp - 1 + eps_mp
    start = time.perf_counter()
    x = params.x0
    x_mp = mpf(0)
    ell = params.ell
    agreement = True
    letters = []
    for _ in range(10**5):
        letter, x = step(params, x)
        letters.append(letter)
        if x.sign() < 0 or (x - ell).sign() >= 0:
            agreement = False
            break
        if x_mp < boundary_mp:
            letter_mp = "A"
            x_mp += 1 - eps_mp
        elif x_mp < eps_mp:
            letter_mp = "B"
            x_mp += 1 - 2 * eps_mp
        else:
            letter_mp = "C"
            x_mp -= eps_mp
        if letter != letter_mp:
            agreement = False
            break
    agreement = agreement and threeiet_word(params, 10**5).text == "".join(letters)
    elapsed = time.perf_counter() - start
    report("c9", agreement, elapsed, 60.0,
           "100000 steps, exact vs 60-digit decimal, block coder vs exact steps")
