"""Record the reference digests and exact counts of every seed of record.

    python3 perfbench/record.py [--workload NAME ...] [--length N]

Runs each workload once per seed of record (one untraced and one traced
op) and stores in reference.json the stdout SHA-256 and the exact counts
that run.py checks every op against.  Only re-record on purpose: the CLI
output is meant to stay byte-identical across changes.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, _counts, measure
from workloads import SEEDS_OF_RECORD, WORKLOADS


def record(name: str, seed: int, length: int) -> dict:
    result = measure(name, seed, 0, True, length)
    digests = {op["sha256"] for op in result["ops"]}
    if len(digests) != 1 or not all(op["code"] == 0 and op["verdict_ok"]
                                    for op in result["ops"]):
        raise SystemExit(f"{name} seed {seed}: ops disagree or fail: {result['ops']}")
    counts = _counts(result, [True] * len(result["ops"]))
    return {"argv": result["argv"], "sha256": digests.pop(), "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--length", type=int, help="N instead of the workload's")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed of record to (re)record (default: all)")
    args = parser.parse_args()
    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or list(WORKLOADS):
        length = args.length or WORKLOADS[name].length
        entries = table.setdefault(name, {}).setdefault(str(length), {})
        for seed in args.seed or range(SEEDS_OF_RECORD):
            entries[str(seed)] = record(name, seed, length)
            print(name, length, seed, entries[str(seed)]["counts"], flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
