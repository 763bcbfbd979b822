"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9] [--trace 0|1]
                                [--baseline]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  A benchmark is steady when every
end-to-end spread except ``setup_s`` is below a third of its bound.
``--baseline`` stores the summary in baseline.json under the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    values: dict[str, list[float]] = {}
    units = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(config["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        line = json.loads(out.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
              flush=True)
        for key, entry in line["metrics"].items():
            values.setdefault(key, []).append(entry["value"])
            units[key] = entry["unit"]
    summary = {}
    for key, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                        "unit": units[key], "runs": len(series)}
        bound = bounds.get(key)
        verdict = "" if bound is None else (
            f" bound={bound} {'steady' if spread < bound / 3 else 'NOT steady'}")
        print(f"{key}: median={median:.6g} {units[key]} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f}{verdict}")
    if args.baseline:
        path = HERE / "baseline.json"
        table = json.loads(path.read_text()) if path.exists() else {}
        table.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": [args.seeds[0], args.seeds[-1]],
            "run_seconds": config["run_seconds"],
            "metrics": summary,
        }
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
