"""Command-line front end: generate, index, verify, experiment.

Exit codes: 0 success, 1 internal error, 2 invalid parameters or usage,
3 oracle mismatch, 4 a verification verdict failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from .errors import BlockParseError, InsufficientCoefficientsError, ParameterError
from .exactreal import (
    MAX_CF_STATES,
    CFExpansion,
    QuadraticReal,
    cf_expand,
    parse_quadratic,
)
from .repetitions import ENGINE_MAX_LENGTH, brute_force_index, word_index_estimate
from .sturmian import (
    MAX_LETTERS,
    RotationParams,
    block_decompose,
    characteristic_prefix,
    require_length,
    rotation_word,
    standard_word,
    sturmian_index_formula,
)
from .threeiet import (
    ThreeIetParams,
    bound_check,
    index_bounds,
    threeiet_word,
    verify_projections,
)
from .words import Word, rotation_coding_morphism

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_VERDICT = 4

GENERATE_KINDS = ("sturmian", "rotation", "3iet", "characteristic", "standard")
VERIFY_CHECKS = ("abmp", "bounds", "blocks", "theorem3")
EXPERIMENT_KINDS = ("ell-sweep", "bounds-grid", "index-convergence")


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _flagged(flag: str, call, *args, **kwargs):
    """call(*args, **kwargs), naming ``flag`` in its refusal or failed open."""
    try:
        return call(*args, **kwargs)
    except InsufficientCoefficientsError:  # `main` names the flag of a coefficient shortage
        raise
    except (ParameterError, OSError) as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def _number(text: str, flag: str) -> QuadraticReal:
    return _flagged(flag, parse_quadratic, text)


def _number_list(text: str, flag: str) -> list[QuadraticReal]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ParameterError(f"{flag}: empty list")
    return [_number(piece, flag) for piece in items]


def _cf_flag(text: str) -> CFExpansion:
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ParameterError("--cf: coefficients must be integers") from None
    if not values or values[0] != 0:
        raise ParameterError("--cf: the leading coefficient must be 0 (values in (0,1))")
    if any(a < 1 for a in values[1:]):
        raise ParameterError("--cf: partial quotients after the first must be >= 1")
    if len(values) < 2:
        raise ParameterError("--cf: at least one partial quotient is required")
    return CFExpansion.from_quotients(values[1:])


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ParameterError(f"{flag}: entries must be integers") from None
    if not values:
        raise ParameterError(f"{flag}: empty list")
    return values


def _require(args, names: dict[str, str], kind: str):
    missing = [flag for attr, flag in names.items() if getattr(args, attr) is None]
    if missing:
        raise ParameterError(f"{kind} requires {', '.join(missing)}")


# The flag of each parameter that ThreeIetParams and RotationParams refuse by
# name.  The sturmian kind's rotation (1 - eps, eps) reads alpha and beta off
# --eps: alpha = 1 - eps is irrational and lies in (0, 1) exactly when eps does.
PARAMETER_FLAGS = {"epsilon": "--eps", "ell": "--ell", "x0": "--x0", "alpha": "--alpha",
                   "beta": "--beta"}
STURMIAN_FLAGS = {**PARAMETER_FLAGS, "alpha": "--eps", "beta": "--eps"}


def _parameters(build, values: dict, *args, flags=PARAMETER_FLAGS, at: str = ""):
    """build(*args), its refusal worded with ``flags`` and the flag ``values``;
    ``at`` ends it, as the grid point of a sweep."""
    try:
        return build(*args)
    except ParameterError as exc:
        if not exc.names:
            raise
        named = " and ".join(flags[name] for name in exc.names)
        if len(exc.names) > 1:
            raise ParameterError(f"{named} {exc.rest}{at}") from None
        limit = f", where {exc.limit[0]} = {exc.limit[1]}" if exc.limit else ""
        raise ParameterError(f"{named}: {exc.rest} (got {values[named]}{limit}){at}") from None


def _threeiet(eps: QuadraticReal, ell: QuadraticReal, x0: QuadraticReal,
              grid: bool = False) -> ThreeIetParams:
    """ThreeIetParams, refused by flag, and in a grid at its (eps, ell) point."""
    at = f" at --eps {eps} --ell {ell}" if grid else ""
    values = {"--eps": eps, "--ell": ell, "--x0": x0}
    return _parameters(ThreeIetParams, values, eps, ell, x0, at=at)


def _threeiet_params(args, kind: str) -> ThreeIetParams:
    _require(args, {"eps": "--eps", "ell": "--ell", "length": "-N"}, kind)
    return _threeiet(
        _number(args.eps, "--eps"),
        _number(args.ell, "--ell"),
        _number(args.x0, "--x0"),
    )


# Peak resident memory, fitted to `ietlab` runs at N = 1e6, 4e6 and 1e7 on
# x86-64 Linux with numpy 2.4: about 32 MiB for the interpreter with numpy,
# plus per letter under 16 bytes for the generators, or, with the runs
# engine, 50 bytes and 2 per bit of N: the doubling keeps one more round,
# of at most 4 bytes a letter, every two bits.  The worst measured was 67
# bytes a letter over the 32 MiB against a charge of 98 (the characteristic
# word of [0; (1,2,3,4) x 10], N = 1e7); at N = 1e5 the charge is 84 against
# 38-42 measured.  `verify abmp` sorts the windows of two projections of
# under 2N letters each: under 12 bytes a projection letter while --nmax
# 2-bit letters fit 64 bits (10.7 measured at --nmax 32), and under 25 past
# that (prefix doubling; 20.8 measured).  At --nmax 400 it peaked at 56 and
# 64 MiB for N = 1e6 (golden word, ell 4/5: 1.25N projection letters;
# sqrt(2) - 1, ell 3/5: 1.67N) against an estimate of 84, and at 130 and
# 164 MiB for N = 4e6 against 238.
BASE_BYTES = 32 * 2**20
ABMP_DEPTH = 10  # the default --nmax of `verify abmp`


def _estimated_bytes(args, n_letters: int) -> int:
    """Estimated peak bytes of the command in ``args`` on n_letters letters."""
    check = getattr(args, "check", None)
    if check == "abmp":
        per_projection_letter = 12 if (args.nmax or ABMP_DEPTH) <= 32 else 27
        return BASE_BYTES + per_projection_letter * 2 * n_letters
    if args.command == "generate" or check == "blocks":
        return BASE_BYTES + 16 * n_letters
    if getattr(args, "experiment", None) == "ell-sweep":
        n_letters *= 2  # the collapsed word (B -> 01) has at most twice the letters
    return BASE_BYTES + n_letters * (50 + 2 * n_letters.bit_length())


def _memory_limit(root: str = "/") -> int:
    """Physical memory, or the lowest memory limit readable on the path of a
    cgroup of this process, from /proc/self/cgroup, up to its root: v2
    ``memory.max`` or the v1 memory controller's ``memory.limit_in_bytes``.
    Both trees are read below ``root``."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open(os.path.join(root, "proc/self/cgroup"), encoding="ascii") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return limit
    for line in lines:
        controllers, _, path = line.partition(":")[2].partition(":")
        if controllers and "memory" not in controllers.split(","):
            continue
        mount, name = ("memory", "memory.limit_in_bytes") if controllers else ("", "memory.max")
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(root, "sys/fs/cgroup", mount, *parts[:depth], name),
                          encoding="ascii") as handle:
                    value = handle.read().strip()
            except OSError:
                continue
            if value.isdigit():  # "max" means no limit
                limit = min(limit, int(value))
    return limit


def _require_memory(args, n_letters: int, flag: str):
    """Refuse a length whose estimated peak memory exceeds the limit, before
    anything of that size is allocated."""
    need, limit = _estimated_bytes(args, n_letters), _memory_limit()
    if need > limit:
        raise ParameterError(
            f"{flag}: {n_letters} letters need about {need // 2**20} MiB, "
            f"above the {limit // 2**20} MiB memory limit"
        )


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_decimal(value: Fraction) -> str:
    return QuadraticReal(value.numerator, 0, 0, value.denominator).decimal()


def _emit(text: str, out_path: str | None):
    if out_path:
        with _flagged("--out", open, out_path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow(
            ["true" if v is True else "false" if v is False else str(v) for v in row.values()]
        )
    return buffer.getvalue()


def _rows_to_json(kind: str, rows: list[dict]) -> str:
    return json.dumps({"experiment": kind, "rows": rows}) + "\n"


# ---------------------------------------------------------------------------
# word construction shared by generate/index
# ---------------------------------------------------------------------------

def _build_word(args) -> Word:
    kind = args.kind
    if kind == "sturmian":
        _require(args, {"eps": "--eps", "length": "-N"}, "generate sturmian")
        eps = _number(args.eps, "--eps")
        x0 = _number(args.x0, "--x0")
        params = _parameters(RotationParams, {"--eps": eps, "--x0": x0}, 1 - eps, eps, x0,
                             flags=STURMIAN_FLAGS)
        return rotation_word(params, args.length)
    if kind == "rotation":
        _require(args, {"alpha": "--alpha", "beta": "--beta", "length": "-N"}, "generate rotation")
        alpha = _number(args.alpha, "--alpha")
        beta = _number(args.beta, "--beta")
        x0 = _number(args.x0, "--x0")
        values = {"--alpha": alpha, "--beta": beta, "--x0": x0}
        return rotation_word(_parameters(RotationParams, values, alpha, beta, x0), args.length)
    if kind == "3iet":
        return threeiet_word(_threeiet_params(args, "generate 3iet"), args.length)
    if kind == "characteristic":
        _require(args, {"cf": "--cf", "length": "-N"}, "generate characteristic")
        return characteristic_prefix(_cf_flag(args.cf), args.length)
    if kind == "standard":
        _require(args, {"cf": "--cf", "level": "--level"}, "generate standard")
        cf = _cf_flag(args.cf)
        if args.level >= 1:
            # q_level = |s_level| may have thousands of digits: compare, never format
            q_level = cf.convergents(args.level)[-1][1]
            if q_level > MAX_LETTERS:
                raise ParameterError(f"--level: s_{args.level} has more than {MAX_LETTERS} letters")
            _require_memory(args, q_level, "--level")
        return _flagged("--level", standard_word, cf, args.level)
    raise ParameterError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    word = _build_word(args)
    _emit(word.text + "\n", args.out)
    return EXIT_OK


def _file_word(args) -> str:
    """The first line of ``--file`` that is not blank, stripped.  It may hold,
    with the blank lines before it, at most cap characters: the longest word
    that the memory limit and the runs engine allow.  The file is read in
    blocks, never past cap + 1 characters or the block that ends the word's
    line.  latin-1 decodes any byte, so only what precedes that line end is
    checked for ASCII."""
    limit, cap, high = _memory_limit(), 0, ENGINE_MAX_LENGTH
    while cap < high:  # bisection: the estimate rises with the length
        mid = (cap + high + 1) // 2
        if _estimated_bytes(args, mid) <= limit:
            cap = mid
        else:
            high = mid - 1
    blocks, left = [], cap + 1
    with _flagged("--file", open, args.file, "r", encoding="latin-1") as handle:
        while left and not (blocks and "\n" in blocks[-1]):
            block = handle.read(min(left, 2**16))
            if not block:
                break
            left -= len(block)
            if not blocks:  # still in the blank lines before the word
                start = len(block) - len(block.lstrip())
                if not block[:start].isascii():
                    raise ParameterError(f"{args.file}: words must be plain ASCII")
                block = block[start:]
            if block:
                blocks.append(block)
    line, line_end, _ = "".join(blocks).partition("\n")
    if not left and not line_end:
        raise ParameterError(f"--file: the word, with any blank lines before it, is longer "
                             f"than {cap} characters, the most that the {limit // 2**20} MiB "
                             f"memory limit and the runs engine allow")
    if not line.isascii():
        raise ParameterError(f"{args.file}: words must be plain ASCII")
    if not line:
        raise ParameterError(f"{args.file}: no word found")
    return line.strip()


def _cmd_index(args) -> int:
    sources = [args.word is not None, args.file is not None, args.kind is not None]
    if sum(sources) != 1:
        raise ParameterError("index needs exactly one of --word, --file or --kind")
    if args.word == "":
        raise ParameterError("--word: word must be nonempty")
    if args.word is not None:
        word = _flagged("--word", Word.from_text, args.word)
    elif args.file is not None:
        word = Word.from_text(_file_word(args))
    else:
        word = _build_word(args)
    # the oracle's length guard refuses before any output
    reference = brute_force_index(word) if args.oracle else None
    report = word_index_estimate(word)
    _emit(report.to_json() + "\n", args.out)
    if args.oracle and reference != report.index_estimate:
        print(
            f"oracle mismatch: estimate {report.index_estimate} "
            f"!= brute force {reference}",
            file=sys.stderr,
        )
        return EXIT_ORACLE
    return EXIT_OK


def _verify_theorem3(args) -> tuple[dict, bool]:
    if args.nmax is not None and args.nmax > MAX_CF_STATES:
        raise ParameterError(f"--nmax: must be <= {MAX_CF_STATES} (got {args.nmax})")
    if args.eps is not None:
        cf = _flagged("--eps", cf_expand, _number(args.eps, "--eps"), 8)
    elif args.cf is not None:
        cf = _cf_flag(args.cf)
    else:
        raise ParameterError("verify theorem3 requires --eps or --cf")
    length = args.length or 2000
    n_max = args.nmax
    if n_max is None:
        # the first N >= 1 whose convergent denominator covers the prefix length
        try:
            n_max = next(n for n, (_, q) in enumerate(cf.iter_convergents()) if n and q >= length)
            cf.coefficient(n_max + 1)
        except InsufficientCoefficientsError:
            n_max = len(cf.quotients) - 1
    largest = max(cf.coefficient(n) for n in range(1, n_max + 2))
    # every term's numerator and denominator are below (K + 3) q_(n_max)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and (largest + 3) * cf.convergents(n_max)[-1][1] >= 10**digits:
        raise ParameterError(f"--nmax: {n_max} gives integers over Python's {digits}-digit limit")
    formula = sturmian_index_formula(cf, n_max)
    prefix = characteristic_prefix(cf, length)
    estimate = word_index_estimate(prefix).index_estimate
    passed = estimate <= formula.truncated_sup
    report = {
        "check": "theorem3",
        "prefix_length": length,
        "index_num": estimate.numerator,
        "index_den": estimate.denominator,
        "index_decimal": _fraction_decimal(estimate),
        "formula": formula.to_json_dict(),
        "estimate_leq_sup": passed,
        "passed": passed,
    }
    return report, passed


def _cmd_verify(args) -> int:
    if args.check == "abmp":
        params = _threeiet_params(args, "verify abmp")
        depth = ABMP_DEPTH if args.nmax is None else args.nmax
        projection = _flagged("-N/--nmax", verify_projections, params, args.length, depth)
        report = {"check": "abmp", **projection.to_json_dict()}
        passed = projection.passed
    elif args.check == "bounds":
        bound = bound_check(_threeiet_params(args, "verify bounds"), args.length)
        report = {"check": "bounds", **bound.to_json_dict()}
        passed = bound.passed
    elif args.check == "blocks":
        _require(args, {"cf": "--cf", "level": "--level", "length": "-N"}, "verify blocks")
        cf = _cf_flag(args.cf)
        prefix = characteristic_prefix(cf, args.length)
        try:
            parse = _flagged("--level", block_decompose, prefix, cf, args.level)
        except BlockParseError as exc:
            report = {"check": "blocks", "error": str(exc), "passed": False}
            _emit(json.dumps(report) + "\n", args.out)
            return EXIT_VERDICT
        round_trip = parse.reconstruct() == prefix.text[: parse.consumed]
        passed = round_trip and parse.tail_length < len(parse.long_block)
        report = {"check": "blocks", **parse.to_json_dict(), "round_trip": round_trip,
                  "passed": passed}
    else:
        report, passed = _verify_theorem3(args)
    _emit(json.dumps(report) + "\n", args.out)
    return EXIT_OK if passed else EXIT_VERDICT


def _experiment_ell_sweep(args) -> list[dict]:
    _require(args, {"eps": "--eps", "ell": "--ell", "length": "-N"}, "ell-sweep")
    eps = _number(args.eps, "--eps")
    ells = _number_list(args.ell, "--ell")
    x0 = _number(args.x0, "--x0")
    grid = [_threeiet(eps, ell, x0, grid=True) for ell in ells]
    rows = []
    for params in grid:
        word = threeiet_word(params, args.length)
        frequency = Fraction(word.count("B"), len(word))
        own = word_index_estimate(word).index_estimate
        collapsed = word_index_estimate(rotation_coding_morphism(0)(word)).index_estimate
        rows.append({
            "ell": str(params.ell),
            "ell_decimal": params.ell.decimal(),
            "b_frequency": _fraction_str(frequency),
            "b_frequency_decimal": _fraction_decimal(frequency),
            "word_index": _fraction_str(own),
            "word_index_decimal": _fraction_decimal(own),
            "collapsed_index": _fraction_str(collapsed),
            "collapsed_index_decimal": _fraction_decimal(collapsed),
        })
    return rows


def _experiment_bounds_grid(args) -> list[dict]:
    _require(args, {"eps": "--eps", "ell": "--ell", "length": "-N"}, "bounds-grid")
    eps_values = _number_list(args.eps, "--eps")
    ells = _number_list(args.ell, "--ell")
    x0 = _number(args.x0, "--x0")
    grid = [_threeiet(eps, ell, x0, grid=True) for eps in eps_values for ell in ells]
    rows = []
    for params in grid:
        bound = bound_check(params, args.length)
        rows.append({
            "eps": str(params.epsilon),
            "ell": str(params.ell),
            "largest_coefficient": bound.largest_coefficient,
            "lower": bound.lower,
            "upper": bound.upper,
            "index": _fraction_str(bound.index_estimate),
            "index_decimal": _fraction_decimal(bound.index_estimate),
            "max_integer_power": bound.max_power,
            "upper_ok": bound.upper_ok,
            "power_ok": bound.power_ok,
            "lower_reached": bound.lower_reached,
        })
    return rows


def _experiment_index_convergence(args) -> list[dict]:
    _require(args, {"eps": "--eps", "ell": "--ell", "lengths": "--lengths"}, "index-convergence")
    eps = _number(args.eps, "--eps")
    ell = _number(args.ell, "--ell")
    x0 = _number(args.x0, "--x0")
    lengths = _int_list(args.lengths, "--lengths")
    for n in lengths:
        require_length(n, "--lengths")
    _require_memory(args, max(lengths), "--lengths")
    params = _threeiet(eps, ell, x0)
    _, lower, _ = index_bounds(params.epsilon)
    word = threeiet_word(params, max(lengths))
    rows = []
    for n in lengths:
        estimate = word_index_estimate(word[:n]).index_estimate
        rows.append({
            "length": n,
            "index": _fraction_str(estimate),
            "index_decimal": _fraction_decimal(estimate),
            "reached_lower": estimate >= lower,
        })
    return rows


def _cmd_experiment(args) -> int:
    if args.experiment == "ell-sweep":
        rows = _experiment_ell_sweep(args)
    elif args.experiment == "bounds-grid":
        rows = _experiment_bounds_grid(args)
    else:
        rows = _experiment_index_convergence(args)
    if args.format == "csv":
        _emit(_rows_to_csv(rows), args.out)
    else:
        _emit(_rows_to_json(args.experiment, rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_common_value_flags(parser: argparse.ArgumentParser, rotation=False, cf=False):
    """The value flags of a subcommand: --alpha and --beta only where
    ``rotation`` words are built, --cf and --level only where ``cf`` is read."""
    parser.add_argument("--eps", help="slope literal, e.g. '(-1+1*sqrt(5))/2'")
    parser.add_argument("--ell", help="interval length literal (or comma list)")
    if rotation:
        parser.add_argument("--alpha", help="rotation literal")
        parser.add_argument("--beta", help="cut point literal")
    parser.add_argument("--x0", default="0", help="starting point literal (default 0)")
    if cf:
        parser.add_argument("--cf", help="continued fraction '0,a1,a2,...'")
        parser.add_argument("--level", type=int, help="standard-word level n")
    parser.add_argument("-N", "--length", dest="length", type=int, help="prefix length")
    parser.add_argument("--out", help="write output to this path instead of stdout")


# Built once: argparse's reference cycles would wait for a full garbage
# collection after each call, so repeated `main` calls would grow memory.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietlab",
        description="Exact generation and repetition analysis of interval-exchange words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="print a generated word")
    p_gen.add_argument("kind", choices=GENERATE_KINDS)
    _add_common_value_flags(p_gen, rotation=True, cf=True)
    p_gen.set_defaults(handler=_cmd_generate)

    p_idx = sub.add_parser("index", help="repetition index report as JSON")
    p_idx.add_argument("--word", help="the word itself, as text")
    p_idx.add_argument("--file", help="file containing one word per line (first used)")
    p_idx.add_argument("--kind", choices=GENERATE_KINDS, help="generate the word instead")
    p_idx.add_argument("--oracle", action="store_true",
                       help="cross-check with the brute-force oracle (exit 3 on mismatch)")
    _add_common_value_flags(p_idx, rotation=True, cf=True)
    p_idx.set_defaults(handler=_cmd_index)

    p_ver = sub.add_parser("verify", help="run a verification check, exit 4 on failure")
    p_ver.add_argument("check", choices=VERIFY_CHECKS)
    p_ver.add_argument("--nmax", type=int, help="depth of certificates or formula terms")
    _add_common_value_flags(p_ver, cf=True)
    p_ver.set_defaults(handler=_cmd_verify)

    p_exp = sub.add_parser("experiment", help="parameter sweeps with CSV/JSON output")
    p_exp.add_argument("experiment", choices=EXPERIMENT_KINDS)
    p_exp.add_argument("--lengths", help="comma list of prefix lengths")
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_value_flags(p_exp)
    p_exp.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.length is not None:
            require_length(args.length, "-N")
            _require_memory(args, args.length, "-N")
        if getattr(args, "nmax", None) is not None and args.nmax < 1:
            raise ParameterError(f"--nmax: must be >= 1 (got {args.nmax})")
        return args.handler(args)
    except InsufficientCoefficientsError as exc:
        # the expansion comes from --cf, or from --eps in `verify theorem3`
        from_eps = getattr(args, "check", None) == "theorem3" and args.eps is not None
        print(f"error: {'--eps' if from_eps else '--cf'}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
