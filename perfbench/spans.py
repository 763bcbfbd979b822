"""Spans around the calls into each `ietlab` module, recorded from outside.

`probes` swaps each public function listed in ``LAYERS`` for a timing
wrapper in every `ietlab` namespace that holds it, so an op runs exactly
the calls it runs untraced, and puts the originals back on exit.  Spans
(op, name, parent, start, end) stay in memory until the worker writes them
out after its last op.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# (home module, public name) -> layer.  A layer metric is "<layer>_s".
LAYERS = {
    ("exactreal", "parse_quadratic"): "exactreal.parse_quadratic",
    ("exactreal", "cf_expand"): "exactreal.cf_expand",
    ("threeiet", "threeiet_word"): "threeiet.threeiet_word",
    ("threeiet", "ternarize"): "threeiet.ternarize",
    ("sturmian", "rotation_word"): "sturmian.rotation_word",
    ("sturmian", "characteristic_prefix"): "sturmian.characteristic_prefix",
    ("sturmian", "sturmian_index_formula"): "sturmian.index_formula",
    ("repetitions", "word_index_estimate"): "repetitions.word_index_estimate",
    ("words", "SPLIT_B01"): "words.morphism",
    ("words", "SPLIT_B10"): "words.morphism",
    ("words", "is_balanced"): "words.is_balanced",
    ("words", "Word.factor_complexity"): "words.factor_complexity",
}
OP_SPAN = "cli"


def _letters(counter):
    def count(tracer, args, result):
        tracer.counts[counter] += len(result)
    return count


def _cf_terms(tracer, args, result):
    tracer.counts["exactreal.cf_terms"] += len(result.quotients)


def _keep_word(tracer, args, result):
    tracer.index_words.append(args[0])


# Counts taken from a call's arguments or result, by layer.
COUNTERS = {
    "threeiet.threeiet_word": _letters("threeiet.letters"),
    "sturmian.rotation_word": _letters("sturmian.letters"),
    "sturmian.characteristic_prefix": _letters("sturmian.letters"),
    "exactreal.cf_expand": _cf_terms,
    "repetitions.word_index_estimate": _keep_word,
}
COUNT_NAMES = ("threeiet.letters", "sturmian.letters", "exactreal.cf_terms")


class Tracer:
    """In-memory spans and counts of the current op."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.op = -1
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.index_words: list = []

    def start_op(self):
        self.op += 1
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.index_words = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self.op, name, parent, time.perf_counter(), 0.0))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            op, _, _, start, _ = self.spans[index]
            self.spans[index] = (op, name, parent, start, time.perf_counter())

    def self_times(self, op: int) -> dict[str, float]:
        """Seconds per layer of one op, each span minus its child spans."""
        own = {}
        for index, (span_op, name, parent, start, end) in enumerate(self.spans):
            if span_op == op:
                own[index] = (name, end - start)
        totals = defaultdict(float)
        for index, (name, duration) in own.items():
            totals[name] += duration
            parent = self.spans[index][2]
            if parent in own:
                totals[own[parent][0]] -= duration
        return dict(totals)


def _wrap(tracer: Tracer, fn, layer: str):
    count = COUNTERS.get(layer)

    def probe(*args, **kwargs):
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, result)
        return result

    return probe


@contextlib.contextmanager
def probes(tracer: Tracer):
    """Install a probe on every listed name for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "ietlab" or name.startswith("ietlab.")]
    swapped = []
    try:
        for (home, qualname), layer in LAYERS.items():
            cls_name, _, attr = qualname.rpartition(".")
            owner = sys.modules[f"ietlab.{home}"]
            targets = modules
            if cls_name:
                owner = getattr(owner, cls_name)
                targets = [owner]
            if attr not in vars(owner):
                raise LookupError(f"probe target ietlab.{home}.{qualname} is gone")
            original = vars(owner)[attr]
            probe = _wrap(tracer, original, layer)
            for target in targets:
                if vars(target).get(attr) is original:
                    swapped.append((target, attr, original))
                    setattr(target, attr, probe)
        yield
    finally:
        for target, attr, original in reversed(swapped):
            setattr(target, attr, original)
