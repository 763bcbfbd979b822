"""The at-scale checks of CI, one function per check; both jobs run them all.
`PYTHONPATH=src python tests/scale_checks.py` runs each command in a fresh
child with src/ first on the path, which reads its own VmHWM through
oracles.PEAK_KIB_SOURCE.  It prints one line a check (name, PASS or FAIL, wall
time, the largest VmHWM of its children) and exits 1 if any check fails.
pytest does not collect this file."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))}

from oracles import PEAK_KIB_SOURCE, characteristic_prefix_index  # noqa: E402  (imports ietlab)

# a child's VmHWM is the last line of its stderr, however the child ends
CHILD = PEAK_KIB_SOURCE + (
    "import atexit, resource, sys\natexit.register(lambda: print(peak_kib(), file=sys.stderr))\n")
IETLAB = "import runpy\nrunpy.run_module('ietlab', run_name='__main__')"  # python -m ietlab
GOLDEN, SILVER = "(-1+1*sqrt(5))/2", "(-1+1*sqrt(2))/1"


def run(peaks, argv, timeout, stdin=subprocess.DEVNULL, limit_kib=None, body=IETLAB):
    """``python -m ietlab argv`` (or ``body`` with argv) in a fresh child, its
    address space limited to ``limit_kib``: (exit code, stdout bytes, stderr
    text).  Its VmHWM, in KiB, is appended to ``peaks``."""
    limit = (f"resource.setrlimit(resource.RLIMIT_AS, ({limit_kib} * 1024,) * 2)\n"
             if limit_kib else "")
    child = subprocess.run([sys.executable, "-c", CHILD + limit + body, *argv], stdin=stdin,
                           capture_output=True, timeout=timeout, env=ENV)
    err, _, peak = child.stderr.decode().rstrip("\n").rpartition("\n")
    peaks.append(int(peak))
    return child.returncode, child.stdout, err


def report(peaks, argv, timeout):
    """The JSON report of ``ietlab argv``, which must exit 0."""
    code, out, err = run(peaks, argv, timeout)
    assert code == 0, (argv, code, err)
    return json.loads(out)


THREE_IET = ("3iet", "--eps", SILVER, "--ell", "7/10", "--x0", "0", "-N")
ROTATION = ("rotation", "--alpha", SILVER, "--beta", "1/3", "--x0", "1/10", "-N")
DIGESTS = [
    (THREE_IET, "1000000", "c3d6847b124558790fab67773392d311cb20d2cfa16741a4735eddca4880ddac"),
    (ROTATION, "1000000", "eb77f4f255e37145287fa3fc4a457d9f0151dd771865dbeaffb95ceb1068cc3a"),
    (("sturmian", "--eps", GOLDEN, "--x0", "1/10", "-N"), "1000000",
     "9b550245dbd75c67d33a3134ec5d538529b1bc5810a27c241deae04d7a5d01a1"),
    (ROTATION, "100000000", "7887935503cea6d69f00ed84c5f12b754b7757a4a24876713eeb32e9bd1f40f6"),
    (THREE_IET, "100000000", "e695c74ea885b10cf8ca01a6ea6de4b9dd654fabd1967437afc88e4b61cf0a60"),
]


def orbit_coder_digests(peaks):
    """The orbit coder's words against digests of record.  The 1e8-letter
    words pin the per-block 32-bit anchor at rotation indices up to about
    1.4e8, and on numpy 2.0 its uint32 and uint64 wrap."""
    for argv, n, digest in DIGESTS:
        code, out, err = run(peaks, ["generate", *argv, n], None)
        assert (code, hashlib.sha256(out).hexdigest()) == (0, digest), (argv, n, err)


def deep_sturmian_certificates(peaks):
    """Every factor complexity up to 400, by a packed uint64 sort of the last
    doubling round; depths 32 and 33 on either side of the one-sort path; and
    at 4e6 letters a VmHWM under 80 MiB (about 64 on x86-64 with numpy 2.4)."""
    for n, nmax in (("200000", "32"), ("200000", "33"), ("200000", "400"),
                    ("1000000", "400"), ("4000000", "12")):
        argv = ["verify", "abmp", "--eps", GOLDEN, "--ell", "4/5", "-N", n, "--nmax", nmax]
        r = report(peaks, argv, 60)
        assert r["passed"] is True, r
    assert peaks[-1] < 80 * 1024, peaks[-1]


MAX_RUNS_NONE = ("from ietlab.repetitions import max_runs\nfrom ietlab.words import Word\n"
                 "assert max_runs(Word.from_text(open(sys.argv[1]).read().strip())) == []")


def square_free_index_at_1e6_letters(peaks):
    """vtm, the gaps between the 0s of Thue-Morse, has no run: its index
    comes from the run-free search, which max_runs never starts."""
    z = [i for i in range(2 * 10**6 + 2) if bin(i).count("1") % 2 == 0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vtm.txt")
        with open(path, "w", encoding="ascii") as vtm:
            print("".join("abc"[b - a - 1] for a, b in zip(z, z[1:])), file=vtm)
        r = report(peaks, ["index", "--file", path], 120)
        found = r["index_num"], r["index_den"], r["witness"]
        assert found == (
            524287, 262144, {"start": 262144, "period": 262144, "length": 524287}), found
        code, _, err = run(peaks, [path], 60, body=MAX_RUNS_NONE)
        assert code == 0, err


def _blank_lines(pipe):
    with pipe, contextlib.suppress(BrokenPipeError):  # until the reader is gone
        while True:
            pipe.write(b"\n" * 65536)


def bounded_file_reads(peaks):
    """An endless line under a 3000000 KiB address space, and an endless run
    of blank lines from a pipe: each is refused with exit 2, naming --file,
    once it passes the longest word the memory limit and the engine allow."""
    code, _, err = run(peaks, ["index", "--file", "/dev/zero"], 60, limit_kib=3000000)
    assert code == 2 and err.startswith("error: --file: "), ("/dev/zero", code, err)
    read, write = os.pipe()
    threading.Thread(target=_blank_lines, args=(open(write, "wb", 0),), daemon=True).start()
    with open(read, "rb") as blank_lines:
        code, _, err = run(peaks, ["index", "--file", "/dev/stdin"], 60, stdin=blank_lines)
    assert code == 2 and err.startswith("error: --file: "), ("blank lines", code, err)


def ternary_index_at_1e6_letters(peaks):
    """The runs engine on the three letters of the silver 3iet word."""
    argv = ["index", "--kind", "3iet", "--eps", SILVER, "--ell", "7/10", "-N", "1000000"]
    r = report(peaks, argv, 60)
    found = r["index_num"], r["index_den"], r["witness"]
    assert found == (4435, 1078, {"start": 186274, "period": 9702, "length": 39915}), found


def characteristic_index_at_1e7_letters(peaks):
    """The characteristic word of [0; (1,2,3,4) x 10]: a VmHWM under 800 MiB
    (about 670 on x86-64 with numpy 2.4), an index at or above the proved
    lower bound of oracles.py, and a witness that holds in the word."""
    from ietlab.exactreal import CFExpansion
    from ietlab.sturmian import characteristic_prefix

    quotients, n = [1, 2, 3, 4] * 10, 10**7
    r = report(peaks, ["index", "--kind", "characteristic", "--cf", "0" + ",1,2,3,4" * 10, "-N",
                       str(n)], 120)
    assert peaks[-1] < 800 * 1024, peaks[-1]
    index = Fraction(r["index_num"], r["index_den"])
    assert r["prefix_length"] == n and index >= characteristic_prefix_index(quotients, n), index
    s, p, l = r["witness"]["start"], r["witness"]["period"], r["witness"]["length"]
    text = characteristic_prefix(CFExpansion.from_quotients(quotients), n).text
    assert index == Fraction(l, p) and s + l <= n, r["witness"]
    assert text[s + p : s + l] == text[s : s + l - p], r["witness"]


CHECKS = [orbit_coder_digests, deep_sturmian_certificates, square_free_index_at_1e6_letters,
          bounded_file_reads, ternary_index_at_1e6_letters, characteristic_index_at_1e7_letters]


def main():
    failed = 0
    for check in CHECKS:
        peaks, start, trace = [], time.perf_counter(), ""
        try:
            check(peaks)
        except Exception:  # a failed assertion, a timeout, a report that is not JSON: go on
            failed, trace = failed + 1, traceback.format_exc()
        peak = f"{max(peaks) / 1024:.1f} MiB" if peaks else "-"
        print(f"{check.__name__:36} {'FAIL' if trace else 'PASS'}"
              f" {time.perf_counter() - start:5.1f} s  VmHWM {peak}", flush=True)
        print(trace, end="", file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
