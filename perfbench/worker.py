"""One benchmark process: set up `ietlab` as its CLI does, then run ops.

Run by run.py as ``python3 perfbench/worker.py '<spec json>'``.  The worker
prints ``ready`` once `ietlab` is imported and the argument list is parsed,
which is where the parent stops the set-up clock.  Unless the spec asks for
set-up only, it then runs the op (``ietlab.cli.main(argv)``) in a closed
loop for ``seconds`` and prints one JSON result line.  With ``trace`` it
alternates untraced and traced ops and ends with an untimed pass over the
words the last traced op handed to the runs engine.  A worker started
with ``peak_of`` instead measures the runs engine's peak memory on a word
read from stdin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path


def run_op(cli, argv: list[str], verdicts: list[str], span=contextlib.nullcontext):
    """One CLI command with stdout captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span():
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an op failure, counted by the parent
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text = out.getvalue()
    try:
        report = json.loads(text)
        verdict_ok = all(report.get(field) is True for field in verdicts)
    except ValueError:
        verdict_ok = False
    return {
        "wall": wall,
        "code": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "verdict_ok": verdict_ok,
        "error": error or err.getvalue().strip() or None,
    }


def untimed_pass(words, root: str) -> dict:
    """Runs count and peak memory of the runs engine, untimed.

    The peak is the high-water RSS growth of a fresh process that runs only
    ``word_index_estimate`` on the same word, so it repeats run to run.
    """
    from ietlab.repetitions import max_runs

    runs = 0
    peak_kb = 0
    for word in words:
        runs += len(max_runs(word))
        child = subprocess.run(
            [sys.executable, __file__, json.dumps({"root": root, "peak_of": word.alphabet})],
            input=word.text, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        peak_kb = max(peak_kb, int(child.stdout))
    return {"repetitions.runs": runs, "repetitions.peak_alloc_mb": peak_kb / 1024}


def _hwm_kb() -> int:
    """Peak RSS of this address space alone.

    ``ru_maxrss`` would not do here: across fork and exec it keeps the
    spawning worker's high-water mark, which already holds the op's peak.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def _peak_kb(alphabet) -> int:
    from ietlab.repetitions import word_index_estimate
    from ietlab.words import Word

    word = Word(sys.stdin.read(), alphabet)
    before = _hwm_kb()
    word_index_estimate(word)
    return _hwm_kb() - before


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"], "src").resolve()
    sys.path.insert(0, str(src))
    from ietlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ietlab was imported from {cli.__file__}, not from {src}")
    if "peak_of" in spec:
        print(_peak_kb(spec["peak_of"]))
        return 0
    cli.build_parser().parse_args(spec["argv"])
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0

    from spans import OP_SPAN, Tracer, probes

    tracer = Tracer()
    ops = []
    start = time.perf_counter()
    while True:
        if spec["trace"] and len(ops) % 2 == 1:
            tracer.start_op()
            with probes(tracer):
                op = run_op(cli, spec["argv"], spec["verdicts"],
                            lambda: tracer.span(OP_SPAN))
            op.update(traced=True, layers=tracer.self_times(tracer.op),
                      counts=dict(tracer.counts))
        else:
            op = run_op(cli, spec["argv"], spec["verdicts"])
            op["traced"] = False
        ops.append(op)
        enough = len(ops) >= (2 if spec["trace"] else 1)
        if enough and time.perf_counter() - start >= spec["seconds"]:
            break
    result = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if spec["trace"]:
        result["untimed"] = untimed_pass(tracer.index_words, spec["root"])
        spans_path = Path(spec["spans_path"])
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps([
            {"op": op, "name": name, "parent": parent, "start": begin, "end": end}
            for op, name, parent, begin, end in tracer.spans
        ]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
