"""The ietlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in fresh worker processes and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs every workload and prints one line per metric.
Every op is gated on exit code 0, true verdict fields and the stdout
digest recorded in reference.json; a changed exact count is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, OP_SPAN  # noqa: E402
from workloads import SEEDS_OF_RECORD, WORKLOADS, cli_args  # noqa: E402

SETUP_SAMPLES = 7
RUN_BUDGET_S = 170
SPANS_DIR = ROOT / ".perfbench-out"


class BenchError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def _worker(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a worker, time it to ``ready`` and return (setup_s, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    # Workers cache bytecode as a default interpreter does, whatever the
    # caller's environment says, so set-up time never includes compiling.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
    if ready != "ready\n" or code != 0:
        raise BenchError(f"worker exited with code {code} ({spec['workload']})")
    return setup_s, json.loads(lines[-1]) if lines else None


def measure(name: str, seed: int, seconds: float, trace: bool,
            length: int | None = None) -> dict:
    """Run one workload: set-up samples (untraced only), then the op loop."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    argv = cli_args(name, seed, length)
    spec = {
        "workload": name,
        "root": str(ROOT),
        "argv": argv,
        "verdicts": list(WORKLOADS[name].verdicts),
        "seconds": seconds,
        "trace": trace,
        "setup_only": True,
        "spans_path": str(SPANS_DIR / f"spans-{name}-seed{seed}.json"),
    }
    setups = []
    if not trace:
        _worker(spec, deadline)  # compiles bytecode; not a sample
        setups = [_worker(spec, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = _worker({**spec, "setup_only": False}, deadline)
    result.update(argv=argv, length=length or WORKLOADS[name].length,
                  setups=setups + [setup_s])
    return result


def reference_for(name: str, seed: int, length: int) -> dict:
    table = json.loads((HERE / "reference.json").read_text())
    try:
        return table[name][str(length)][str(seed % SEEDS_OF_RECORD)]
    except KeyError:
        raise BenchError(f"reference.json has no entry for {name}, N={length}, "
                         f"seed {seed}; run perfbench/record.py") from None


def _counts(result: dict, passed: list[bool]) -> dict:
    """Exact counts of the traced ops that passed, which must all agree."""
    seen = {json.dumps(op["counts"], sort_keys=True)
            for op, ok in zip(result["ops"], passed) if op["traced"] and ok}
    if len(seen) != 1:
        raise BenchError(f"exact counts differ between traced ops, or none passed: {seen}")
    counts = json.loads(seen.pop())
    counts["repetitions.runs"] = result["untimed"]["repetitions.runs"]
    return counts


def summarize(name: str, seed: int, result: dict, trace: bool) -> dict:
    """The result line: gate every op, then compute the metrics."""
    reference = reference_for(name, seed, result["length"])
    ops = result["ops"]
    passed = [op["code"] == 0 and op["verdict_ok"] and op["sha256"] == reference["sha256"]
              for op in ops]
    for op, ok in zip(ops, passed):
        if not ok:
            print(f"op failed: code={op['code']} verdicts_ok={op['verdict_ok']} "
                  f"digest_ok={op['sha256'] == reference['sha256']} error={op['error']}")
    failed = passed.count(False)
    if trace:
        counts = _counts(result, passed)
        if counts != reference["counts"]:
            raise BenchError(f"exact counts {counts} differ from the "
                             f"seed of record {reference['counts']}")
        traced = [op for op in ops if op["traced"]]
        untraced = [op for op in ops if not op["traced"]]
        metrics = {
            f"{layer}_s": {"value": statistics.median(op["layers"].get(layer, 0.0)
                                                      for op in traced), "unit": "s"}
            for layer in dict.fromkeys(LAYERS.values())
        }
        metrics["cli.self_s"] = {
            "value": statistics.median(op["layers"][OP_SPAN] for op in traced), "unit": "s"}
        metrics.update({key: {"value": value, "unit": "count"}
                        for key, value in counts.items()})
        metrics["repetitions.peak_alloc_mb"] = {
            "value": result["untimed"]["repetitions.peak_alloc_mb"], "unit": "MB"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(op["wall"] for op in traced)
            - statistics.median(op["wall"] for op in untraced),
            "unit": "s"}
    else:
        metrics = {
            "letters_per_s": {
                "value": statistics.median(result["length"] / op["wall"] for op in ops),
                "unit": "letters/s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(result["setups"]), "unit": "s"},
            "ok_frac": {"value": (len(ops) - failed) / len(ops), "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=int,
                        help="prefix length N instead of the workload's (self-test)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running workers are killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "ietlab").is_dir():
        print(f"error: no ietlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), args.length)
            print(f"# {name} seed {args.seed}: ietlab {' '.join(result['argv'])}")
            print(f"# op walls (s): {[round(op['wall'], 3) for op in result['ops']]}")
            summary = summarize(name, args.seed, result, bool(args.trace))
            if args.workload:
                print(json.dumps(summary))
                continue
            print(f"{name} correct={summary['correct']} attempted={summary['attempted']} "
                  f"failed={summary['failed']}")
            for metric, entry in summary["metrics"].items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
