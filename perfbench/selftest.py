"""Fast self-test of the benchmark: every workload once at tiny N.

    python3 perfbench/selftest.py

Runs run.py on every workload with ``--length 2000`` and ``--seconds 0``,
untraced and traced, and checks that the last line has exactly the keys
of the result contract, that every op passed, and that the metric names
are exactly those listed in BENCHMARK.json.  It also checks the traced
acceptance points: abmp-3iet records no repetitions span and
theorem3-characteristic no threeiet_word span.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SELF_TEST_LENGTH, WORKLOADS  # noqa: E402

ABSENT = {
    "abmp-3iet": ("repetitions.word_index_estimate_s", "repetitions.runs",
                  "repetitions.peak_alloc_mb"),
    "theorem3-characteristic": ("threeiet.threeiet_word_s", "threeiet.letters"),
}


def check(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"self-test failed: {what}")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in config["end_to_end"]],
                1: [m["name"] for m in config["per_layer"]]}
    check(sorted(WORKLOADS) == sorted(w["name"] for w in config["workloads"]),
          "BENCHMARK.json lists other workloads than workloads.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", "0", "--trace", str(trace),
                   "--length", str(SELF_TEST_LENGTH)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 check=True, timeout=180)
            line = json.loads(out.stdout.splitlines()[-1])
            check(sorted(line) == ["attempted", "correct", "failed", "metrics"], line)
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line)
            check(sorted(line["metrics"]) == sorted(expected[trace]), line["metrics"])
            if trace:
                for metric in ABSENT.get(name, ()):
                    check(line["metrics"][metric]["value"] == 0, (name, metric))
            print(f"ok {name} trace={trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
