"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ietlab import cli
from ietlab.cli import main
from ietlab.exactreal import CFExpansion, _squarefree_split
from ietlab.sturmian import characteristic_prefix

from oracles import HAS_PROC_STATUS, PEAK_KIB_SOURCE, characteristic_prefix_index, has_period

GOLDEN_EPS = "(-1+1*sqrt(5))/2"
SILVER_EPS = "(-1+1*sqrt(2))/1"
FORTY_TWOS = "0" + ",2" * 40
MILLION_EPS = "(-1000000+1*sqrt(1000000000001))/1"  # partial quotients 2*10^6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_threeiet(self, capsys):
        code, out, _ = run(capsys, "generate", "3iet", "--eps", GOLDEN_EPS,
                           "--ell", "4/5", "--x0", "0", "-N", "7")
        assert code == 0 and out == "AACABAC\n"

    def test_characteristic(self, capsys):
        code, out, _ = run(capsys, "generate", "characteristic",
                           "--cf", "0,1,1,1,1,1", "-N", "8")
        assert code == 0 and out == "10110101\n"

    def test_standard(self, capsys):
        code, out, _ = run(capsys, "generate", "standard", "--cf", "0,1,1,1,1", "--level", "4")
        assert code == 0 and out == "10110\n"

    def test_rotation(self, capsys):
        code, out, _ = run(capsys, "generate", "rotation", "--alpha", "(3-1*sqrt(5))/2",
                           "--beta", GOLDEN_EPS, "--x0", "0", "-N", "8")
        assert code == 0 and out == "00100101\n"

    def test_sturmian(self, capsys):
        code, out, _ = run(capsys, "generate", "sturmian", "--eps", GOLDEN_EPS, "-N", "8")
        assert code == 0 and out == "00100101\n"

    def test_rational_eps_exits_2(self, capsys):
        code, out, err = run(capsys, "generate", "3iet", "--eps", "2/5",
                             "--ell", "4/5", "-N", "7")
        assert code == 2 and out == ""
        assert "irrational" in err

    def test_bad_literal_reports_position(self, capsys):
        code, _, err = run(capsys, "generate", "3iet", "--eps", "(1+sqrt(5))/2",
                           "--ell", "4/5", "-N", "7")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("argv, message", [
        (("rotation", "--alpha", SILVER_EPS, "--beta", "(1+1*sqrt(3))/4"),
         "--alpha and --beta lie in different quadratic fields (sqrt(2), sqrt(3))"),
        (("sturmian", "--eps", GOLDEN_EPS, "--x0", SILVER_EPS),
         "--eps and --x0 lie in different quadratic fields (sqrt(5), sqrt(2))"),
        (("3iet", "--eps", GOLDEN_EPS, "--ell", "(1+1*sqrt(2))/3"),
         "--eps and --ell lie in different quadratic fields (sqrt(5), sqrt(2))"),
    ])
    def test_field_mismatch_names_flags(self, capsys, argv, message):
        code, out, err = run(capsys, "generate", *argv, "-N", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("length, message", [
        ("0", "-N: must be >= 1 (got 0)"),
        ("2147483649", "-N: must be <= 2147483648 (got 2147483649)"),
    ])
    def test_length_out_of_range_names_flag(self, capsys, length, message):
        code, out, err = run(capsys, "generate", "3iet", "--eps", GOLDEN_EPS,
                             "--ell", "4/5", "-N", length)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_huge_radicand_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "generate", "3iet", "--eps",
                             "(-1+1*sqrt(1000000000000000000000000000057))/2",
                             "--ell", "9/10", "-N", "5")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: --eps: radicand") and "cannot be certified" in err

    def test_large_radicand_split_once(self, capsys):
        _squarefree_split.cache_clear()
        code, out, _ = run(capsys, "generate", "3iet", "--eps",
                           "(-999000+1*sqrt(999999999989))/2000", "--ell", "9/10", "-N", "1000")
        assert code == 0 and len(out) == 1001
        info = _squarefree_split.cache_info()
        assert info.misses == 1 and info.hits > 0

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "generate", "3iet", "--eps", GOLDEN_EPS, "-N", "7")
        assert code == 2
        assert "--ell" in err


class TestIndex:
    def test_word_report(self, capsys):
        code, out, _ = run(capsys, "index", "--word", "aabaabaa")
        assert code == 0
        data = json.loads(out)
        assert data["index_num"] == 8 and data["index_den"] == 3
        assert data["witness"] == {"start": 0, "period": 3, "length": 8}
        assert data["max_integer_power"] == {"j": 2, "witness": "aab"}

    def test_oracle_mismatch_exits_3(self, capsys, monkeypatch):
        _, report, _ = run(capsys, "index", "--word", "aabaabaa")
        monkeypatch.setattr(cli, "brute_force_index", lambda word: Fraction(2))
        assert run(capsys, "index", "--word", "aabaabaa", "--oracle") == \
            (3, report, "oracle mismatch: estimate 8/3 != brute force 2\n")

    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "index", "--word", "aaa", "--oracle")
        assert code == 0
        assert json.loads(out)["index_num"] == 3

    def test_generated_word(self, capsys):
        code, out, _ = run(capsys, "index", "--kind", "characteristic",
                           "--cf", "0,1,1,1,1,1,1,1,1,1,1,1,1,1", "-N", "200", "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data["prefix_length"] == 200

    def test_characteristic_index_at_a_million_letters(self, capsys):
        quotients = [1, 2, 3, 4] * 10
        code, out, _ = run(capsys, "index", "--kind", "characteristic",
                           "--cf", "0," + ",".join(map(str, quotients)), "-N", "1000000")
        assert code == 0
        data = json.loads(out)
        index = Fraction(data["index_num"], data["index_den"])
        assert index >= characteristic_prefix_index(quotients, 1000000)
        witness = data["witness"]
        assert index == Fraction(witness["length"], witness["period"])
        text = characteristic_prefix(CFExpansion.from_quotients(quotients), 1000000).text
        assert has_period(text, witness["start"], witness["period"], witness["length"])

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("abcabca\n0100101\n")
        code, out, _ = run(capsys, "index", "--file", str(path))
        assert code == 0
        data = json.loads(out)
        assert (data["index_num"], data["index_den"]) == (7, 3)

    @pytest.mark.parametrize("content", ["", " \n\t\n  \n"])
    def test_file_without_word_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "words.txt"
        path.write_text(content)
        code, out, err = run(capsys, "index", "--file", str(path))
        assert code == 2 and out == ""
        assert "no word found" in err

    def test_file_over_the_memory_limit_exits_2(self, capsys, tmp_path, monkeypatch):
        # the check runs while the word is read from the file, before the engine
        path = tmp_path / "words.txt"
        path.write_text("ab" * 500 + "\n")
        monkeypatch.setattr(cli, "_memory_limit", lambda: cli.BASE_BYTES)
        code, out, err = run(capsys, "index", "--file", str(path))
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: --file: the word, with any blank lines before it, is longer "
                            r"than 0 characters, the most that the 32 MiB memory limit and the "
                            r"runs engine allow\n", err)

    # 1000 letters fit this limit and 1001 do not: 1000 * (50 + 2 * 10) bytes above the base
    CAP_1000 = cli.BASE_BYTES + 70000

    @pytest.mark.parametrize("content", ["ab" * 500, "ab" * 500 + "\n" + "ab" * 9000,
                                         " \n\t" + "a" * 997 + "\n"],
                             ids=["cap-letters", "longer-line-after", "blanks-then-word"])
    def test_file_word_of_cap_characters_is_read(self, capsys, tmp_path, monkeypatch, content):
        path = tmp_path / "words.txt"
        path.write_text(content)
        monkeypatch.setattr(cli, "_memory_limit", lambda: self.CAP_1000)
        code, out, _ = run(capsys, "index", "--file", str(path))
        assert code == 0
        assert json.loads(out)["prefix_length"] == len(content.split()[0])

    @pytest.mark.parametrize("content", ["ab" * 500 + "a", "\n" * 1001 + "ab\n",
                                         " \n\t" + "a" * 998 + "\n"],
                             ids=["cap-plus-one-letters", "blank-lines", "blanks-then-word"])
    @pytest.mark.parametrize("limit, engine", [(CAP_1000, cli.ENGINE_MAX_LENGTH), (None, 1000)],
                             ids=["memory", "engine"])
    def test_file_word_past_the_cap_exits_2(self, capsys, tmp_path, monkeypatch, content,
                                            limit, engine):
        # the cap is set by the memory limit, or by the runs engine's limit; a
        # truncated word is never indexed
        path = tmp_path / "words.txt"
        path.write_text(content)
        if limit is not None:
            monkeypatch.setattr(cli, "_memory_limit", lambda: limit)
        monkeypatch.setattr(cli, "ENGINE_MAX_LENGTH", engine)
        code, out, err = run(capsys, "index", "--file", str(path))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: --file: the word, with any blank lines before it, is longer "
                            r"than 1000 characters, the most that the \d+ MiB memory limit and "
                            r"the runs engine allow\n", err)

    @pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs Linux /proc")
    def test_file_tail_is_never_read(self, tmp_path):
        # the word is on the first line; the 50 MB after it must not raise the peak
        path = tmp_path / "words.txt"
        with open(path, "w", encoding="ascii") as handle:
            handle.write("abaab\n")
            for _ in range(50):
                handle.write(("ab" * 49 + "\n") * 10000)
        script = PEAK_KIB_SOURCE + (
            "import sys\n"
            "from ietlab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(peak_kib(), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )

        def peak(*argv):
            result = subprocess.run([sys.executable, "-c", script, "index", *argv],
                                    capture_output=True, text=True, check=True, timeout=120)
            return result.stdout, int(result.stderr)

        file_out, file_peak = peak("--file", str(path))
        word_out, word_peak = peak("--word", "abaab")
        assert file_out == word_out
        assert file_peak - word_peak <= 8 * 1024, (file_peak, word_peak)

    @pytest.mark.parametrize("content", ["abaab\n\xe9\n", "\r\n abaab\rjunk\n"])
    def test_file_reads_only_up_to_the_word(self, capsys, tmp_path, content):
        # a non-ASCII line after the word is never decoded; \r ends a line
        path = tmp_path / "words.txt"
        path.write_bytes(content.encode("latin-1"))
        code, out, _ = run(capsys, "index", "--file", str(path))
        assert code == 0 and json.loads(out)["prefix_length"] == 5

    @pytest.mark.parametrize("content", ["\n\xe9\nabaab\n", "ab\xe9ab\n"])
    def test_file_non_ascii_up_to_the_word_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "words.txt"
        path.write_bytes(content.encode("latin-1"))
        code, out, err = run(capsys, "index", "--file", str(path))
        assert code == 2 and out == ""
        assert "words must be plain ASCII" in err

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "index", "--word", "aa", "--kind", "3iet")
        assert code == 2 and "exactly one" in err

    def test_oracle_guard(self, capsys):
        code, out, err = run(capsys, "index", "--kind", "characteristic",
                             "--cf", "0,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1",
                             "-N", "6000", "--oracle")
        # refused before the runs engine runs, so nothing is printed
        assert (code, out) == (2, "")
        assert err == "error: word of length 6000 exceeds the oracle guard (5000)\n"


class TestVerify:
    def test_abmp(self, capsys):
        code, out, _ = run(capsys, "verify", "abmp", "--eps", GOLDEN_EPS,
                           "--ell", "4/5", "--x0", "0", "-N", "200")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_parser_reused_across_calls(self, capsys):
        # One parser serves every call; a flag of one call never leaks into
        # the defaults of the next.
        argv = ("verify", "abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "2000")
        code, out, _ = run(capsys, *argv, "--nmax", "12")
        assert code == 0 and json.loads(out)["certificate_depth"] == 12
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["certificate_depth"] == 10
        assert cli.build_parser() is cli.build_parser()

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "verify", "bounds", "--eps", SILVER_EPS,
                           "--ell", "7/10", "-N", "10000")
        assert code == 0
        data = json.loads(out)
        assert data["largest_coefficient"] == 2 and data["upper"] == 5
        assert data["passed"] is True

    def test_blocks(self, capsys):
        code, out, _ = run(capsys, "verify", "blocks", "--cf", "0,1,1,1,1,1,1",
                           "--level", "3", "-N", "13")
        assert code == 0
        data = json.loads(out)
        assert data["tags"] == ["short", "long"]
        assert data["passed"] is True

    def test_blocks_failure_exits_4(self, capsys):
        code, out, _ = run(capsys, "verify", "blocks", "--cf", "0,2,2,2,2,2",
                           "--level", "2", "-N", "1")
        assert code == 4
        assert json.loads(out)["passed"] is False

    def test_theorem3_with_eps(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem3", "--eps", GOLDEN_EPS, "-N", "2000")
        assert code == 0
        data = json.loads(out)
        assert data["formula"]["periodic_limit"] == "(5+1*sqrt(5))/2"
        assert data["estimate_leq_sup"] is True

    def test_theorem3_with_finite_cf(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem3", "--cf", "0,2,2,2,2,2,2,2",
                           "-N", "100")
        assert code == 0
        assert json.loads(out)["formula"]["window_only"] is True

    @pytest.mark.parametrize("cf, length, n_max", [
        (FORTY_TWOS, "1", 1),
        (FORTY_TWOS, "69", 5),  # q_5 = 70
        (FORTY_TWOS, "70", 5),
        (FORTY_TWOS, "71", 6),
        ("0,1", "1", 0),  # a_2 is missing, so the last term with a known successor
        ("0,1,1,1", "3", 2),
    ])
    def test_theorem3_default_nmax(self, capsys, cf, length, n_max):
        # the first N >= 1 with q_N >= -N, when a_(N+1) is known
        code, out, _ = run(capsys, "verify", "theorem3", "--cf", cf, "-N", length)
        assert code == 0 and json.loads(out)["formula"]["n_max"] == n_max

    @pytest.mark.parametrize("argv, err", [
        (("--cf", "0,1"), "error: --cf: a_2 is needed, but the partial quotients end at a_1 "
                          "and no period is known\n"),
        (("--cf", "0,1,1,1", "-N", "4"), "error: --cf: a_4 is needed, but the partial "
                                         "quotients end at a_3 and no period is known\n"),
    ])
    def test_theorem3_prefix_beyond_the_coefficients(self, capsys, argv, err):
        assert run(capsys, "verify", "theorem3", *argv) == (2, "", err)

    @pytest.mark.parametrize("argv", [
        ("abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "2000", "--nmax", "-5"),
        ("abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "2000", "--nmax", "0"),
        ("theorem3", "--cf", "0,1,2,3,4,5", "-N", "20", "--nmax", "-2"),
    ])
    def test_nmax_below_one_names_flag(self, capsys, argv):
        value = argv[-1]
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: --nmax: must be >= 1 (got {value})\n")

    @staticmethod
    def theorem3(eps, nmax):
        return subprocess.run(
            [sys.executable, "-m", "ietlab", "verify", "theorem3", "--eps", eps, "-N", "1000",
             "--nmax", nmax],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
        )

    @pytest.mark.parametrize("eps, nmax, err", [
        (GOLDEN_EPS, "25000", "error: --nmax: must be <= 4096 (got 25000)\n"),
        (MILLION_EPS, "800", "error: --nmax: 800 gives integers over Python's 4300-digit limit\n"),
        (MILLION_EPS, "4096", "error: --nmax: 4096 gives integers over Python's 4300-digit limit\n"),
    ])
    def test_theorem3_nmax_refused_in_time(self, eps, nmax, err):
        # unrefused, each exits 1 in int-to-str conversion, the last after about a minute
        result = self.theorem3(eps, nmax)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", err)

    @pytest.mark.parametrize("eps, nmax, err", [
        (GOLDEN_EPS, "25000", "error: --nmax: must be <= 4096 (got 25000)\n"),
        (MILLION_EPS, "800", "error: --nmax: 800 gives integers over Python's 4300-digit limit\n"),
    ])
    def test_theorem3_nmax_refused_in_process(self, capsys, monkeypatch, eps, nmax, err):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        argv = ("verify", "theorem3", "--eps", eps, "-N", "1000", "--nmax", nmax)
        assert run(capsys, *argv) == (2, "", err)

    def test_theorem3_nmax_at_the_limit(self):
        result = self.theorem3(GOLDEN_EPS, "4096")
        assert result.returncode == 0
        assert json.loads(result.stdout)["formula"]["n_max"] == 4096


class TestExperiments:
    def test_ell_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "experiment", "ell-sweep", "--eps", GOLDEN_EPS,
                           "--ell", "7/10,9/10,99/100", "-N", "2000")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("ell,ell_decimal,b_frequency")
        assert len(lines) == 4
        frequencies = [float(line.split(",")[3]) for line in lines[1:]]
        assert frequencies == sorted(frequencies, reverse=True)

    def test_ell_sweep_json(self, capsys):
        code, out, _ = run(capsys, "experiment", "ell-sweep", "--eps", GOLDEN_EPS,
                           "--ell", "7/10,9/10", "-N", "1000", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["experiment"] == "ell-sweep"
        assert len(data["rows"]) == 2
        assert list(data["rows"][0])[0] == "ell"

    def test_bounds_grid_row_count(self, capsys):
        code, out, _ = run(capsys, "experiment", "bounds-grid",
                           "--eps", f"{GOLDEN_EPS},{SILVER_EPS}",
                           "--ell", "7/10,4/5", "-N", "1000")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # header + full 2x2 grid
        assert all(line.endswith("true,true,true") or "false" in line for line in lines[1:])

    def test_grid_validates_before_running(self, capsys):
        # sqrt(2)/2 needs ell > 0.7071..., so 7/10 must abort the whole grid
        code, out, err = run(capsys, "experiment", "bounds-grid",
                             "--eps", "(0+1*sqrt(2))/2", "--ell", "7/10,4/5", "-N", "100")
        assert code == 2 and out == ""
        assert "ell" in err

    def test_index_convergence(self, capsys):
        code, out, _ = run(capsys, "experiment", "index-convergence",
                           "--eps", SILVER_EPS, "--ell", "7/10",
                           "--lengths", "10,100,1000")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == sorted(values)

    def test_deterministic_output(self, capsys):
        args = ("experiment", "ell-sweep", "--eps", GOLDEN_EPS,
                "--ell", "7/10,4/5", "-N", "500")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "experiment", "ell-sweep", "--eps", GOLDEN_EPS,
                           "--ell", "7/10", "-N", "300", "--out", str(path))
        assert code == 0 and out == ""
        content = path.read_text()
        assert content.startswith("ell,")
        assert len(content.strip().split("\n")) == 2


NO_PERIOD_EPS = "(-3162+1*sqrt(10000036))/1"  # continued-fraction period 4910


@pytest.mark.parametrize("argv, message", [
    (("generate", "characteristic", "--cf", "0,a", "-N", "5"),
     "--cf: coefficients must be integers"),
    (("generate", "characteristic", "--cf", "1,2", "-N", "5"),
     "--cf: the leading coefficient must be 0 (values in (0,1))"),
    (("generate", "characteristic", "--cf", "0,0", "-N", "5"),
     "--cf: partial quotients after the first must be >= 1"),
    (("generate", "characteristic", "--cf", "0", "-N", "5"),
     "--cf: at least one partial quotient is required"),
    (("verify", "theorem3", "-N", "20"), "verify theorem3 requires --eps or --cf"),
    (("verify", "theorem3", "--cf", "0,1,2", "--nmax", "5", "-N", "20"),
     "--cf: a_3 is needed, but the partial quotients end at a_2 and no period is known"),
    (("experiment", "bounds-grid", "--eps", ",", "--ell", "7/10", "-N", "100"),
     "--eps: empty list"),
    (("experiment", "index-convergence", "--eps", GOLDEN_EPS, "--ell", "4/5",
      "--lengths", "10,x"), "--lengths: entries must be integers"),
    (("experiment", "index-convergence", "--eps", GOLDEN_EPS, "--ell", "4/5",
      "--lengths", ","), "--lengths: empty list"),
    (("verify", "blocks", "--cf", "0,1,1,1", "--level", "100000000", "-N", "10"),
     "--cf: a_4 is needed, but the partial quotients end at a_3 and no period is known"),
    (("generate", "standard", "--cf", "0,2", "--level", "1000000000"),
     "--cf: a_2 is needed, but the partial quotients end at a_1 and no period is known"),
    (("verify", "blocks", "--cf", "0,1,1,1,1,1,1", "--level", "6", "-N", "13"),
     "--cf: a_7 is needed, but the partial quotients end at a_6 and no period is known"),
    (("verify", "theorem3", "--cf", "0,1", "-N", "2000"),
     "--cf: a_2 is needed, but the partial quotients end at a_1 and no period is known"),
    (("verify", "theorem3", "--eps", "1/3", "--nmax", "3"),
     "--eps: a_2 is needed, but the partial quotients end at a_1 and the expansion terminates"),
    (("index", "--kind", "characteristic", "--cf", "0,1,2", "-N", "40"),
     "--cf: a_3 is needed, but the partial quotients end at a_2 and no period is known"),
])
def test_flag_values_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("verify", "bounds", "--eps", NO_PERIOD_EPS, "--ell", "9/10", "-N", "1000"),
    ("experiment", "index-convergence", "--eps", NO_PERIOD_EPS, "--ell", "9/10",
     "--lengths", "100,1000"),
])
def test_bounds_without_a_period_refused_in_time(capsys, argv):
    # the period is past MAX_CF_STATES, so K, and with it both bounds, is unknown
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out, err) == (2, "", "error: the continued-fraction period of epsilon was "
                                       "not found; the largest coefficient would not be exact\n")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["generate"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ("index", "--kind", "3iet", "--eps", SILVER_EPS, "--ell", "7/10"),
    ("verify", "bounds", "--eps", SILVER_EPS, "--ell", "7/10"),
    ("verify", "theorem3", "--cf", "0,2,2,2,2"),
    ("experiment", "ell-sweep", "--eps", SILVER_EPS, "--ell", "7/10"),
    ("generate", "3iet", "--eps", SILVER_EPS, "--ell", "7/10"),
])
def test_oversized_length_refused_before_allocating(argv):
    # Under a 2 GiB address-space cap a 2^31-letter word cannot be built, so
    # a refusal after any allocation of that size would exit 1, not 2.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    result = subprocess.run(
        [sys.executable, "-m", "ietlab", *argv, "-N", str(2**31)],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert re.fullmatch(r"error: -N: 2147483648 letters need about \d+ MiB, "
                        r"above the \d+ MiB memory limit\n", result.stderr)


HUGE_QUOTIENT_CASES = [
    (("generate", "characteristic", "--cf", "0,10000000000", "-N", "10"), 0, "0000000000\n"),
    (("index", "--kind", "characteristic", "--cf", "0,3000000000", "-N", "5"), 0,
     '{"prefix_length": 5, "index_num": 5, "index_den": 1, "witness": {"start": 0, '
     '"period": 1, "length": 5}, "max_integer_power": {"j": 5, "witness": "0"}}\n'),
    (("generate", "characteristic", "--cf", "0,1,1500000000", "-N", "5"), 0, "11111\n"),
    (("generate", "standard", "--cf", "0,10000000000", "--level", "1"), 2, ""),
    (("verify", "theorem3", "--eps", "(-10000000000+1*sqrt(100000000000000000004))/2",
      "-N", "100"), 0, None),
    (("verify", "blocks", "--cf", "0" + ",1" * 100, "--level", "90", "-N", "100"), 4,
     '{"check": "blocks", "error": "prefix does not begin with either block (position 0)", '
     '"passed": false}\n'),
]


@pytest.mark.parametrize("argv, code, stdout", HUGE_QUOTIENT_CASES, ids=[
    "characteristic-a1", "index-characteristic", "characteristic-a2", "standard-level-1",
    "theorem3-eps", "blocks-level-90",
])
def test_huge_standard_words_never_built(argv, code, stdout):
    # A partial quotient of 10^10, or s_90 with F_91 letters, is far past a
    # 2 GiB address-space cap: only the letters asked for may be built.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    result = subprocess.run(
        [sys.executable, "-m", "ietlab", *argv],
        capture_output=True, text=True, timeout=10, preexec_fn=cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == code, result.stderr
    if stdout is not None:
        assert result.stdout == stdout
    if code == 2:
        assert result.stderr == "error: --level: s_1 has more than 2147483648 letters\n"
    else:
        assert result.stderr == ""


@pytest.mark.parametrize("argv", [
    ("verify", "abmp", "--alpha", "1/3"),
    ("verify", "bounds", "--beta", "1/2"),
    ("experiment", "ell-sweep", "--alpha", "1/3"),
    ("experiment", "bounds-grid", "--beta", "1/2"),
    ("experiment", "ell-sweep", "--cf", "0,1,1"),
    ("experiment", "index-convergence", "--level", "3"),
])
def test_flags_no_check_reads_are_refused(argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--eps", SILVER_EPS, "--ell", "7/10", "-N", "100"])
    assert info.value.code == 2


ABMP = ("verify", "abmp", "--eps", GOLDEN_EPS, "--ell", "4/5")


@pytest.mark.parametrize("nmax, code", [("12", 0), ("32", 0), ("33", 2), ("400", 2)])
def test_deep_abmp_over_the_memory_limit_exits_2(capsys, monkeypatch, nmax, code):
    # past --nmax 32 the certificates sort by prefix doubling, at more than
    # twice the bytes a letter
    monkeypatch.setattr(cli, "_memory_limit", lambda: cli.BASE_BYTES + 50 * 100000)
    result, out, err = run(capsys, *ABMP, "-N", "100000", "--nmax", nmax)
    assert result == code
    if code:
        assert out == ""
        assert err == "error: -N: 100000 letters need about 37 MiB, above the 36 MiB memory limit\n"
    else:
        assert json.loads(out)["passed"] is True


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs Linux /proc")
@pytest.mark.parametrize("eps, ell, nmax", [
    *(pytest.param(GOLDEN_EPS, "4/5", nmax, id=nmax) for nmax in ("12", "33", "400")),
    *(pytest.param(SILVER_EPS, "3/5", nmax, id=f"silver-{nmax}") for nmax in ("12", "33", "400")),
])
def test_abmp_peak_within_the_estimate(eps, ell, nmax):
    # The process's own high-water mark, VmHWM, not ru_maxrss.  ell 3/5 gives
    # sqrt(2) - 1 projections of 1.67N letters, the golden word 1.25N.
    check_peak_within_the_estimate(
        ["verify", "abmp", "--eps", eps, "--ell", ell, "-N", "1000000", "--nmax", nmax])


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs Linux /proc")
@pytest.mark.parametrize("argv", [
    pytest.param(["index", "--kind", "3iet", "--eps", SILVER_EPS, "--ell", "7/10"], id="3iet"),
    pytest.param(["verify", "theorem3", "--cf", FORTY_TWOS], id="theorem3"),
])
def test_runs_engine_peak_within_the_estimate(argv):
    check_peak_within_the_estimate([*argv, "-N", "1000000"])


def check_peak_within_the_estimate(argv):
    """The VmHWM of ``ietlab argv`` (with -N 1000000) in a fresh child is
    within the memory guard's estimate."""
    script = PEAK_KIB_SOURCE + (
        "import sys\n"
        "from ietlab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(peak_kib(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, check=True, timeout=120)
    estimate = cli._estimated_bytes(cli.build_parser().parse_args(argv), 1000000)
    assert int(result.stderr) * 1024 <= estimate, (result.stderr, estimate)  # kB of 1024 bytes


def test_lengths_over_the_memory_limit_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_memory_limit", lambda: cli.BASE_BYTES)
    code, out, err = run(capsys, "experiment", "index-convergence", "--eps", SILVER_EPS,
                         "--ell", "7/10", "--lengths", "10,1000")
    assert (code, out) == (2, "")
    assert err == "error: --lengths: 1000 letters need about 32 MiB, above the 32 MiB memory limit\n"


def test_level_over_the_memory_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_memory_limit", lambda: cli.BASE_BYTES)
    for argv in (("generate", "standard"), ("index", "--kind", "standard")):
        code, out, err = run(capsys, *argv, "--cf", "0,1,1,1,1", "--level", "4")
        assert (code, out) == (2, "")
        assert err == "error: --level: 5 letters need about 32 MiB, above the 32 MiB memory limit\n"


def fake_cgroups(root, lines, limits):
    """A fake /proc/self/cgroup holding ``lines`` and fake limit files under
    sys/fs/cgroup, both below ``root``."""
    (root / "proc/self").mkdir(parents=True)
    (root / "proc/self/cgroup").write_text("".join(line + "\n" for line in lines))
    for path, value in limits.items():
        (root / "sys/fs/cgroup" / path).parent.mkdir(parents=True, exist_ok=True)
        (root / "sys/fs/cgroup" / path).write_text(value + "\n")
    return str(root)


class TestMemoryLimit:
    PHYSICAL = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    def test_cgroup_v2_takes_the_lowest_limit_up_to_the_root(self, tmp_path):
        root = fake_cgroups(tmp_path, ["0::/user.slice/job"], {
            "user.slice/job/memory.max": "max",
            "user.slice/memory.max": str(3 * 2**20),
            "memory.max": str(5 * 2**20),
        })
        assert cli._memory_limit(root) == 3 * 2**20

    def test_cgroup_v1_reads_the_memory_controller(self, tmp_path):
        root = fake_cgroups(tmp_path, ["5:cpu,cpuacct:/", "4:memory:/process_api/job", "0::/"], {
            "cpu,cpuacct/cpu.shares": "1024",
            "memory/process_api/job/memory.limit_in_bytes": str(7 * 2**20),
            "memory/process_api/memory.limit_in_bytes": "9223372036854771712",
            "memory/memory.limit_in_bytes": "9223372036854771712",
        })
        assert cli._memory_limit(root) == 7 * 2**20

    def test_a_limit_on_an_ancestor_holds_when_the_path_is_not_mounted(self, tmp_path):
        # inside a container the hierarchy is often mounted at its own cgroup
        root = fake_cgroups(tmp_path, ["4:memory:/process_api/job"],
                            {"memory/memory.limit_in_bytes": str(2**30)})
        assert cli._memory_limit(root) == min(2**30, self.PHYSICAL)

    @pytest.mark.parametrize("lines, limits", [
        ([], {}),
        (["0::/"], {"memory.max": "max"}),
        (["4:memory:/"], {"memory/memory.limit_in_bytes": "9223372036854771712"}),
        (["0::/job"], {}),
    ])
    def test_no_limit_leaves_physical_memory(self, tmp_path, lines, limits):
        assert cli._memory_limit(fake_cgroups(tmp_path, lines, limits)) == self.PHYSICAL

    def test_unreadable_proc_leaves_physical_memory(self, tmp_path):
        assert cli._memory_limit(str(tmp_path)) == self.PHYSICAL

    def test_length_over_the_cgroup_limit_exits_2(self, capsys, tmp_path, monkeypatch):
        root = fake_cgroups(tmp_path, ["4:memory:/job"],
                            {"memory/job/memory.limit_in_bytes": str(40 * 2**20)})
        memory_limit = cli._memory_limit
        monkeypatch.setattr(cli, "_memory_limit", lambda: memory_limit(root))
        code, out, err = run(capsys, "index", "--kind", "3iet", "--eps", SILVER_EPS,
                             "--ell", "7/10", "-N", "100000")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: -N: 100000 letters need about \d+ MiB, "
                            r"above the 40 MiB memory limit\n", err)


def test_level_past_max_letters_is_never_formatted(capsys):
    # q_30000 of the golden slope has 6270 digits, past Python's 4300-digit
    # limit on int -> str conversion
    code, out, err = run(capsys, "generate", "standard", "--cf", "0" + ",1" * 30000,
                         "--level", "30000")
    assert (code, out) == (2, "")
    assert err == "error: --level: s_30000 has more than 2147483648 letters\n"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ietlab", "generate", "3iet",
         "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "7"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "AACABAC\n"


# The audit of every refusal that `cli.main` makes: id -> (argv, stderr), all
# with exit code 2 and nothing on stdout.  Rows run under a memory limit of
# AUDIT_LIMIT, Python's 4300-digit limit on int -> str conversion and an
# 80-column terminal (argparse wraps its usage line to it), unless
# AUDIT_PATCHES gives the row another memory limit or runs-engine limit.  In
# argv, "{missing}" is a path that does not exist and "{file}" a file holding
# AUDIT_FILES[id]; in stderr both stand for those paths.  Not listed: "word
# of length n exceeds the runs engine's limit (2^30)" lies past the memory
# guard at any limit below about 110 GiB (test_runs_kernels.py pins it), and
# "the orbit needs rotation indices beyond 2**32" past any -N the CLI takes
# (at most 2^31 letters, each under two rotation steps since ell > 1/2).
AUDIT_LIMIT = 8 * 2**30
GENERATE_USAGE = (
    "usage: ietlab generate [-h] [--eps EPS] [--ell ELL] [--alpha ALPHA]\n"
    "                       [--beta BETA] [--x0 X0] [--cf CF] [--level LEVEL]\n"
    "                       [-N LENGTH] [--out OUT]\n"
    "                       {sturmian,rotation,3iet,characteristic,standard}\n"
)
TOP_USAGE = "usage: ietlab [-h] {generate,index,verify,experiment} ...\n"
G3 = ("generate", "3iet", "--eps", GOLDEN_EPS, "--ell", "4/5")
UNREAD = ("--eps", SILVER_EPS, "--ell", "7/10", "-N", "100")
CONVERGENCE = ("experiment", "index-convergence", "--eps", GOLDEN_EPS, "--ell", "4/5")
ENDS = "is needed, but the partial quotients end at"
NO_PERIOD = ("the continued-fraction period of epsilon was not found; the largest "
             "coefficient would not be exact")
ELL_RANGE = "--ell: must satisfy max(epsilon, 1 - epsilon) < ell < 1"
PAST_CAP = ("--file: the word, with any blank lines before it, is longer than {} characters, "
            "the most that the {} MiB memory limit and the runs engine allow")
REFUSALS = {
    # argparse, before `main` reads anything
    "usage-no-command": ((), f"{TOP_USAGE}ietlab: error: the following arguments are required: "
                             "command\n"),
    "usage-no-kind": (("generate",), f"{GENERATE_USAGE}ietlab generate: error: the following "
                                     "arguments are required: kind\n"),
    "usage-bad-kind": (("generate", "quasi", "-N", "5"),
                       f"{GENERATE_USAGE}ietlab generate: error: argument kind: invalid choice: "
                       "'quasi' (choose from 'sturmian', 'rotation', '3iet', 'characteristic', "
                       "'standard')\n"),
    "usage-bad-length": (("generate", "3iet", "-N", "ten"),
                         f"{GENERATE_USAGE}ietlab generate: error: argument -N/--length: invalid "
                         "int value: 'ten'\n"),
    "usage-abmp-alpha": (("verify", "abmp", "--alpha", "1/3", *UNREAD),
                         f"{TOP_USAGE}ietlab: error: unrecognized arguments: --alpha 1/3\n"),
    "usage-bounds-beta": (("verify", "bounds", "--beta", "1/2", *UNREAD),
                          f"{TOP_USAGE}ietlab: error: unrecognized arguments: --beta 1/2\n"),
    "usage-sweep-alpha": (("experiment", "ell-sweep", "--alpha", "1/3", *UNREAD),
                          f"{TOP_USAGE}ietlab: error: unrecognized arguments: --alpha 1/3\n"),
    "usage-grid-beta": (("experiment", "bounds-grid", "--beta", "1/2", *UNREAD),
                        f"{TOP_USAGE}ietlab: error: unrecognized arguments: --beta 1/2\n"),
    "usage-sweep-cf": (("experiment", "ell-sweep", "--cf", "0,1,1", *UNREAD),
                       f"{TOP_USAGE}ietlab: error: unrecognized arguments: --cf 0,1,1\n"),
    "usage-convergence-level": (("experiment", "index-convergence", "--level", "3", *UNREAD),
                                f"{TOP_USAGE}ietlab: error: unrecognized arguments: --level 3\n"),
    # -N and --nmax, read first
    "length-zero": ((*G3, "-N", "0"), "-N: must be >= 1 (got 0)"),
    "length-past-max-letters": ((*G3, "-N", "2147483649"),
                                "-N: must be <= 2147483648 (got 2147483649)"),
    "nmax-abmp-negative": (("verify", "abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "2000",
                            "--nmax", "-5"), "--nmax: must be >= 1 (got -5)"),
    "nmax-abmp-zero": (("verify", "abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "2000",
                        "--nmax", "0"), "--nmax: must be >= 1 (got 0)"),
    "nmax-theorem3-negative": (("verify", "theorem3", "--cf", "0,1,2,3,4,5", "-N", "20", "--nmax",
                                "-2"), "--nmax: must be >= 1 (got -2)"),
    # the memory guard
    "memory-index-3iet": (("index", "--kind", "3iet", "--eps", SILVER_EPS, "--ell", "7/10", "-N",
                           "2147483648"), "-N: 2147483648 letters need about 233504 MiB, above "
                                          "the 8192 MiB memory limit"),
    "memory-bounds": (("verify", "bounds", "--eps", SILVER_EPS, "--ell", "7/10", "-N",
                       "2147483648"), "-N: 2147483648 letters need about 233504 MiB, above the "
                                      "8192 MiB memory limit"),
    "memory-theorem3": (("verify", "theorem3", "--cf", "0,2,2,2,2", "-N", "2147483648"),
                        "-N: 2147483648 letters need about 233504 MiB, above the 8192 MiB memory "
                        "limit"),
    "memory-ell-sweep": (("experiment", "ell-sweep", "--eps", SILVER_EPS, "--ell", "7/10", "-N",
                          "2147483648"), "-N: 2147483648 letters need about 475168 MiB, above "
                                         "the 8192 MiB memory limit"),
    "memory-generate": (("generate", "3iet", "--eps", SILVER_EPS, "--ell", "7/10", "-N",
                         "2147483648"), "-N: 2147483648 letters need about 32800 MiB, above the "
                                        "8192 MiB memory limit"),
    "memory-abmp-33": (("verify", "abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "100000",
                        "--nmax", "33"), "-N: 100000 letters need about 37 MiB, above the 36 MiB "
                                         "memory limit"),
    "memory-abmp-400": (("verify", "abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "100000",
                         "--nmax", "400"), "-N: 100000 letters need about 37 MiB, above the 36 "
                                           "MiB memory limit"),
    "memory-cgroup-40": (("index", "--kind", "3iet", "--eps", SILVER_EPS, "--ell", "7/10", "-N",
                          "100000"), "-N: 100000 letters need about 40 MiB, above the 40 MiB "
                                     "memory limit"),
    "memory-lengths": (("experiment", "index-convergence", "--eps", SILVER_EPS, "--ell", "7/10",
                        "--lengths", "10,100000000"), "--lengths: 100000000 letters need about "
                                                      "9950 MiB, above the 8192 MiB memory limit"),
    "memory-lengths-base": (("experiment", "index-convergence", "--eps", SILVER_EPS, "--ell",
                             "7/10", "--lengths", "10,1000"),
                            "--lengths: 1000 letters need about 32 MiB, above the 32 MiB memory "
                            "limit"),
    "memory-level": (("generate", "standard", "--cf", "0,1000000000,1", "--level", "1"),
                     "--level: 1000000000 letters need about 15290 MiB, above the 8192 MiB "
                     "memory limit"),
    "memory-index-level": (("index", "--kind", "standard", "--cf", "0,1000000000,1", "--level",
                            "1"), "--level: 1000000000 letters need about 104936 MiB, above the "
                                  "8192 MiB memory limit"),
    "memory-level-base": (("generate", "standard", "--cf", "0,1,1,1,1", "--level", "4"),
                          "--level: 5 letters need about 32 MiB, above the 32 MiB memory limit"),
    "memory-index-level-base": (("index", "--kind", "standard", "--cf", "0,1,1,1,1", "--level",
                                 "4"), "--level: 5 letters need about 32 MiB, above the 32 MiB "
                                       "memory limit"),
    # number literals
    "literal-position": (("generate", "3iet", "--eps", "(1+sqrt(5))/2", "--ell", "4/5", "-N",
                          "7"), "--eps: expected an unsigned integer (position 3)"),
    "literal-not-a-number": (("generate", "3iet", "--eps", "x", "--ell", "4/5", "-N", "7"),
                             "--eps: expected an unsigned integer (position 0)"),
    "literal-trailing": (("generate", "3iet", "--eps", GOLDEN_EPS, "--ell", "4/5)", "-N", "7"),
                         "--ell: unexpected trailing input (position 3)"),
    "literal-sign": (("generate", "3iet", "--eps", "(1*sqrt(5))/2", "--ell", "4/5", "-N", "7"),
                     "--eps: expected '+' or '-' (position 2)"),
    "literal-negative-radicand": (("generate", "3iet", "--eps", "(1+1*sqrt(-5))/2", "--ell",
                                   "4/5", "-N", "7"), "--eps: negative radicand (position 10)"),
    "literal-zero-denominator": (("generate", "3iet", "--eps", GOLDEN_EPS, "--ell", "4/0", "-N",
                                  "7"), "--ell: zero denominator (position 2)"),
    "literal-zero-denominator-quadratic": (("generate", "3iet", "--eps", "(-1+1*sqrt(5))/0",
                                            "--ell", "4/5", "-N", "7"),
                                           "--eps: zero denominator (position 15)"),
    "literal-huge-radicand": (("generate", "3iet", "--eps",
                               "(-1+1*sqrt(1000000000000000000000000000057))/2", "--ell", "9/10",
                               "-N", "5"),
                              "--eps: radicand 1000000000000000000000000000057: its square-free "
                              "part cannot be certified (a cofactor of at least 1000000**3 has no "
                              "prime factor below 1000000)"),
    "literal-x0": ((*G3, "--x0", "1/", "-N", "7"), "--x0: expected an unsigned integer (position 2)"),
    "literal-alpha": (("generate", "rotation", "--alpha", "", "--beta", "1/2", "-N", "7"),
                      "--alpha: expected an unsigned integer (position 0)"),
    "literal-blank": (("generate", "rotation", "--alpha", " ", "--beta", "1/2", "-N", "7"),
                      "--alpha: expected an unsigned integer (position 1)"),
    "literal-unclosed": (("generate", "3iet", "--eps", "(1", "--ell", "4/5", "-N", "7"),
                         "--eps: expected '+' or '-' (position 2)"),
    # lists
    "list-empty-eps": (("experiment", "bounds-grid", "--eps", ",", "--ell", "7/10", "-N", "100"),
                       "--eps: empty list"),
    "list-empty-ell": (("experiment", "ell-sweep", "--eps", SILVER_EPS, "--ell", ", ,", "-N",
                        "100"), "--ell: empty list"),
    "lengths-not-integers": ((*CONVERGENCE, "--lengths", "10,x"),
                             "--lengths: entries must be integers"),
    "lengths-empty": ((*CONVERGENCE, "--lengths", ","), "--lengths: empty list"),
    "lengths-zero": ((*CONVERGENCE, "--lengths", "10,0"), "--lengths: must be >= 1 (got 0)"),
    "lengths-past-max-letters": ((*CONVERGENCE, "--lengths", "2147483649"),
                                 "--lengths: must be <= 2147483648 (got 2147483649)"),
    # missing flags
    "requires-sturmian": (("generate", "sturmian", "-N", "5"), "generate sturmian requires --eps"),
    "requires-rotation": (("generate", "rotation", "--alpha", SILVER_EPS),
                          "generate rotation requires --beta, -N"),
    "requires-3iet": (("generate", "3iet", "--eps", GOLDEN_EPS, "-N", "7"),
                      "generate 3iet requires --ell"),
    "requires-characteristic": (("generate", "characteristic", "-N", "5"),
                                "generate characteristic requires --cf"),
    "requires-standard": (("generate", "standard", "--cf", "0,1"),
                          "generate standard requires --level"),
    "requires-index-3iet": (("index", "--kind", "3iet", "-N", "5"),
                            "generate 3iet requires --eps, --ell"),
    "requires-abmp": (("verify", "abmp", "--eps", GOLDEN_EPS), "verify abmp requires --ell, -N"),
    "requires-bounds": (("verify", "bounds", "--ell", "4/5", "-N", "5"),
                        "verify bounds requires --eps"),
    "requires-blocks": (("verify", "blocks", "--cf", "0,1", "-N", "5"),
                        "verify blocks requires --level"),
    "requires-theorem3": (("verify", "theorem3", "-N", "20"),
                          "verify theorem3 requires --eps or --cf"),
    "requires-ell-sweep": (("experiment", "ell-sweep", "--eps", GOLDEN_EPS),
                           "ell-sweep requires --ell, -N"),
    "requires-bounds-grid": (("experiment", "bounds-grid", "--eps", GOLDEN_EPS, "--ell", "4/5"),
                             "bounds-grid requires -N"),
    "requires-index-convergence": (CONVERGENCE, "index-convergence requires --lengths"),
    "index-two-sources": (("index", "--word", "aa", "--kind", "3iet"),
                          "index needs exactly one of --word, --file or --kind"),
    "index-no-source": (("index",), "index needs exactly one of --word, --file or --kind"),
    # quadratic fields
    "field-rotation": (("generate", "rotation", "--alpha", SILVER_EPS, "--beta",
                        "(1+1*sqrt(3))/4", "-N", "5"),
                       "--alpha and --beta lie in different quadratic fields (sqrt(2), sqrt(3))"),
    "field-rotation-x0": (("generate", "rotation", "--alpha", SILVER_EPS, "--beta", "1/3",
                           "--x0", "(0+1*sqrt(3))/4", "-N", "5"),
                          "--alpha and --x0 lie in different quadratic fields (sqrt(2), sqrt(3))"),
    "field-sturmian": (("generate", "sturmian", "--eps", GOLDEN_EPS, "--x0", SILVER_EPS, "-N",
                        "5"), "--eps and --x0 lie in different quadratic fields (sqrt(5), sqrt(2))"),
    "field-sturmian-half": (("generate", "sturmian", "--eps", GOLDEN_EPS, "--x0",
                             "(0+1*sqrt(2))/2", "-N", "5"),
                            "--eps and --x0 lie in different quadratic fields (sqrt(5), sqrt(2))"),
    "field-3iet-ell": (("generate", "3iet", "--eps", GOLDEN_EPS, "--ell", "(1+1*sqrt(2))/3", "-N",
                        "5"), "--eps and --ell lie in different quadratic fields (sqrt(5), sqrt(2))"),
    "field-3iet-x0": ((*G3, "--x0", "(0+1*sqrt(2))/3", "-N", "5"),
                      "--eps and --x0 lie in different quadratic fields (sqrt(5), sqrt(2))"),
    "field-grid": (("experiment", "bounds-grid", "--eps", f"{GOLDEN_EPS},{SILVER_EPS}", "--ell",
                    "(1+1*sqrt(5))/4", "-N", "100"),
                   "--eps and --ell lie in different quadratic fields (sqrt(2), sqrt(5)) at --eps "
                   f"{SILVER_EPS} --ell (1+1*sqrt(5))/4"),
    # 3iet parameters
    "3iet-rational-eps": (("generate", "3iet", "--eps", "2/5", "--ell", "4/5", "-N", "7"),
                          "--eps: must be irrational (got 2/5)"),
    "3iet-eps-past-one": (("generate", "3iet", "--eps", "(1+1*sqrt(5))/2", "--ell", "4/5", "-N",
                           "7"), "--eps: must lie in (0, 1) (got (1+1*sqrt(5))/2)"),
    "3iet-ell-low": (("generate", "3iet", "--eps", GOLDEN_EPS, "--ell", "3/5", "-N", "7"),
                     f"{ELL_RANGE} (got 3/5, where max(epsilon, 1 - epsilon) = {GOLDEN_EPS})"),
    "3iet-ell-one": (("generate", "3iet", "--eps", GOLDEN_EPS, "--ell", "1", "-N", "7"),
                     f"{ELL_RANGE} (got 1)"),
    "3iet-x0": ((*G3, "--x0", "4/5", "-N", "7"),
                "--x0: must lie in [0, ell) (got 4/5, where ell = 4/5)"),
    "3iet-grid-before-running": (("experiment", "bounds-grid", "--eps", "(0+1*sqrt(2))/2", "--ell",
                                  "7/10,4/5", "-N", "100"),
                                 f"{ELL_RANGE} (got 7/10, where max(epsilon, 1 - epsilon) = "
                                 "(0+1*sqrt(2))/2) at --eps (0+1*sqrt(2))/2 --ell 7/10"),
    "3iet-convergence": (("experiment", "index-convergence", "--eps", GOLDEN_EPS, "--ell", "1/2",
                          "--lengths", "10"),
                         f"{ELL_RANGE} (got 1/2, where max(epsilon, 1 - epsilon) = {GOLDEN_EPS})"),
    # rotation and Sturmian parameters
    "rotation-rational-alpha": (("generate", "rotation", "--alpha", "1/3", "--beta", "1/2", "-N",
                                 "5"), "--alpha: must be irrational (got 1/3)"),
    "rotation-alpha": (("generate", "rotation", "--alpha", "(1+1*sqrt(2))/1", "--beta", "1/2",
                        "-N", "5"), "--alpha: must lie in (0, 1) (got (1+1*sqrt(2))/1)"),
    "rotation-beta": (("generate", "rotation", "--alpha", SILVER_EPS, "--beta", "1", "-N", "5"),
                      "--beta: must lie in (0, 1) (got 1)"),
    "rotation-x0": (("generate", "rotation", "--alpha", SILVER_EPS, "--beta", "1/2", "--x0", "1",
                     "-N", "5"), "--x0: must lie in [0, 1) (got 1)"),
    "sturmian-rational": (("generate", "sturmian", "--eps", "1/2", "-N", "5"),
                          "--eps: must be irrational (got 1/2)"),
    "sturmian-eps": (("generate", "sturmian", "--eps", "(1+1*sqrt(5))/2", "-N", "5"),
                     "--eps: must lie in (0, 1) (got (1+1*sqrt(5))/2)"),
    "sturmian-x0": (("generate", "sturmian", "--eps", GOLDEN_EPS, "--x0", "1", "-N", "5"),
                    "--x0: must lie in [0, 1) (got 1)"),
    # --cf, --eps and --level
    "cf-not-integers": (("generate", "characteristic", "--cf", "0,a", "-N", "5"),
                        "--cf: coefficients must be integers"),
    "cf-leading": (("generate", "characteristic", "--cf", "1,2", "-N", "5"),
                   "--cf: the leading coefficient must be 0 (values in (0,1))"),
    "cf-zero-quotient": (("generate", "characteristic", "--cf", "0,0", "-N", "5"),
                         "--cf: partial quotients after the first must be >= 1"),
    "cf-no-quotient": (("generate", "characteristic", "--cf", "0", "-N", "5"),
                       "--cf: at least one partial quotient is required"),
    "cf-ends-characteristic": (("generate", "characteristic", "--cf", "0,1,2", "-N", "40"),
                               f"--cf: a_3 {ENDS} a_2 and no period is known"),
    "cf-ends-index": (("index", "--kind", "characteristic", "--cf", "0,1,2", "-N", "40"),
                      f"--cf: a_3 {ENDS} a_2 and no period is known"),
    "cf-ends-standard": (("generate", "standard", "--cf", "0,2", "--level", "1000000000"),
                         f"--cf: a_2 {ENDS} a_1 and no period is known"),
    "cf-ends-blocks-level": (("verify", "blocks", "--cf", "0,1,1,1", "--level", "100000000", "-N",
                              "10"), f"--cf: a_4 {ENDS} a_3 and no period is known"),
    "cf-ends-blocks": (("verify", "blocks", "--cf", "0,1,1,1,1,1,1", "--level", "6", "-N", "13"),
                       f"--cf: a_7 {ENDS} a_6 and no period is known"),
    "cf-ends-theorem3-nmax": (("verify", "theorem3", "--cf", "0,1,2", "--nmax", "5", "-N", "20"),
                              f"--cf: a_3 {ENDS} a_2 and no period is known"),
    "cf-ends-theorem3": (("verify", "theorem3", "--cf", "0,1", "-N", "2000"),
                         f"--cf: a_2 {ENDS} a_1 and no period is known"),
    "cf-ends-theorem3-default": (("verify", "theorem3", "--cf", "0,1"),
                                 f"--cf: a_2 {ENDS} a_1 and no period is known"),
    "cf-ends-theorem3-prefix": (("verify", "theorem3", "--cf", "0,1,1,1", "-N", "4"),
                                f"--cf: a_4 {ENDS} a_3 and no period is known"),
    "eps-terminates-theorem3": (("verify", "theorem3", "--eps", "1/3", "--nmax", "3"),
                                f"--eps: a_2 {ENDS} a_1 and the expansion terminates"),
    "eps-outside-theorem3": (("verify", "theorem3", "--eps", "3/2"),
                             "--eps: cf_expand requires a value in the open interval (0, 1)"),
    "level-below-minus-one": (("generate", "standard", "--cf", "0,1", "--level", "-2"),
                              "--level: level must be >= -1"),
    "level-past-max-letters": (("generate", "standard", "--cf", "0,10000000000", "--level", "1"),
                               "--level: s_1 has more than 2147483648 letters"),
    "level-past-max-letters-unformatted": (("generate", "standard", "--cf", "0" + ",1" * 30000,
                                            "--level", "30000"),
                                           "--level: s_30000 has more than 2147483648 letters"),
    "blocks-level-zero": (("verify", "blocks", "--cf", "0,1,1,1,1,1,1,1,1", "--level", "0", "-N",
                           "10"), "--level: level must be >= 1"),
    # verify theorem3 --nmax
    "theorem3-nmax-past-states": (("verify", "theorem3", "--eps", GOLDEN_EPS, "-N", "1000",
                                   "--nmax", "25000"), "--nmax: must be <= 4096 (got 25000)"),
    "theorem3-nmax-digits": (("verify", "theorem3", "--eps", MILLION_EPS, "-N", "1000", "--nmax",
                              "800"), "--nmax: 800 gives integers over Python's 4300-digit limit"),
    "theorem3-nmax-digits-at-states": (("verify", "theorem3", "--eps", MILLION_EPS, "-N", "1000",
                                        "--nmax", "4096"),
                                       "--nmax: 4096 gives integers over Python's 4300-digit "
                                       "limit"),
    # the bounds of epsilon, and the projections of verify abmp
    "bounds-no-period": (("verify", "bounds", "--eps", NO_PERIOD_EPS, "--ell", "9/10", "-N",
                          "1000"), NO_PERIOD),
    "convergence-no-period": (("experiment", "index-convergence", "--eps", NO_PERIOD_EPS, "--ell",
                               "9/10", "--lengths", "100,1000"), NO_PERIOD),
    "abmp-projections-short": (("verify", "abmp", "--eps", GOLDEN_EPS, "--ell", "4/5", "-N", "100",
                                "--nmax", "12"), "-N/--nmax: projections of length 125 are too "
                                                 "short for depth 12"),
    # index words and files, and the output file
    "index-empty-word": (("index", "--word", ""), "--word: word must be nonempty"),
    "index-non-ascii-word": (("index", "--word", "ab\xe9"),
                             "--word: alphabet letters must be single ASCII characters"),
    "index-oracle-guard": (("index", "--kind", "characteristic", "--cf", "0" + ",1" * 19, "-N",
                            "6000", "--oracle"), "word of length 6000 exceeds the oracle guard "
                                                 "(5000)"),
    "file-missing": (("index", "--file", "{missing}"),
                     "--file: [Errno 2] No such file or directory: '{missing}'"),
    "file-empty": (("index", "--file", "{file}"), "{file}: no word found"),
    "file-blank": (("index", "--file", "{file}"), "{file}: no word found"),
    "file-non-ascii-word": (("index", "--file", "{file}"), "{file}: words must be plain ASCII"),
    "file-non-ascii-blank": (("index", "--file", "{file}"), "{file}: words must be plain ASCII"),
    "file-over-the-memory-limit": (("index", "--file", "{file}"), PAST_CAP.format(0, 32)),
    "file-memory-cap-plus-one-letters": (("index", "--file", "{file}"), PAST_CAP.format(1000, 32)),
    "file-memory-blank-lines": (("index", "--file", "{file}"), PAST_CAP.format(1000, 32)),
    "file-memory-blanks-then-word": (("index", "--file", "{file}"), PAST_CAP.format(1000, 32)),
    "file-engine-cap-plus-one-letters": (("index", "--file", "{file}"),
                                         PAST_CAP.format(1000, 8192)),
    "file-engine-blank-lines": (("index", "--file", "{file}"), PAST_CAP.format(1000, 8192)),
    "file-engine-blanks-then-word": (("index", "--file", "{file}"), PAST_CAP.format(1000, 8192)),
    "out-missing-directory": (("index", "--word", "abaab", "--out", "{missing}/report.json"),
                              "--out: [Errno 2] No such file or directory: "
                              "'{missing}/report.json'"),
}
AUDIT_FILES = {
    "file-empty": "",
    "file-blank": " \n\t\n  \n",
    "file-non-ascii-word": "ab\xe9ab\n",
    "file-non-ascii-blank": "\n\xe9\nabaab\n",
    "file-over-the-memory-limit": "ab" * 500 + "\n",
    **{f"file-{cap}-{name}": content
       for cap in ("memory", "engine")
       for name, content in (("cap-plus-one-letters", "ab" * 500 + "a"),
                             ("blank-lines", "\n" * 1001 + "ab\n"),
                             ("blanks-then-word", " \n\t" + "a" * 998 + "\n"))},
}
AUDIT_PATCHES = {
    "memory-abmp-33": {"_memory_limit": cli.BASE_BYTES + 50 * 100000},
    "memory-abmp-400": {"_memory_limit": cli.BASE_BYTES + 50 * 100000},
    "memory-cgroup-40": {"_memory_limit": 40 * 2**20},
    "memory-lengths-base": {"_memory_limit": cli.BASE_BYTES},
    "memory-level-base": {"_memory_limit": cli.BASE_BYTES},
    "memory-index-level-base": {"_memory_limit": cli.BASE_BYTES},
    "file-over-the-memory-limit": {"_memory_limit": cli.BASE_BYTES},
    **{f"file-memory-{name}": {"_memory_limit": TestIndex.CAP_1000}
       for name in ("cap-plus-one-letters", "blank-lines", "blanks-then-word")},
    **{f"file-engine-{name}": {"ENGINE_MAX_LENGTH": 1000}
       for name in ("cap-plus-one-letters", "blank-lines", "blanks-then-word")},
}


@pytest.mark.parametrize("refusal", list(REFUSALS))
def test_every_refusal_of_main(capsys, monkeypatch, tmp_path, refusal):
    argv, err = REFUSALS[refusal]
    patches = {"_memory_limit": AUDIT_LIMIT, **AUDIT_PATCHES.get(refusal, {})}
    limit = patches.pop("_memory_limit")
    monkeypatch.setattr(cli, "_memory_limit", lambda: limit)
    for name, value in patches.items():
        monkeypatch.setattr(cli, name, value)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    paths = {"{missing}": str(tmp_path / "missing"), "{file}": str(tmp_path / "words.txt")}
    if refusal in AUDIT_FILES:
        (tmp_path / "words.txt").write_bytes(AUDIT_FILES[refusal].encode("latin-1"))
    for placeholder, path in paths.items():
        argv = [piece.replace(placeholder, path) for piece in argv]
        err = err.replace(placeholder, path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse
        code = exc.code
    else:
        err = f"error: {err}\n"
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)
