"""Spans around calls into the program's public functions.

`Tracer.wrap` replaces a module attribute with a wrapper that records one
span per call: name, start, end, parent span and op id, plus a work count
computed from the call's arguments after the call returns.  Spans stay in
memory; `summarize` turns them into busy and self times per name, and
`dump` writes them out.  `restore` puts every wrapped attribute back.
"""

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from math import comb

NAME, START, END, PARENT, OP, WORK, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._wrapped = []

    def wrap(self, module, attr, name, work=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, 0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[WORK] = work(*args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._wrapped.append((module, attr, original))

    def restore(self):
        while self._wrapped:
            module, attr, original = self._wrapped.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self, name, op):
        """A span the benchmark opens itself (one per CLI run)."""
        self.op = op
        span = [name, 0.0, 0.0, None, op, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def dump(self, path, origin):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": s[NAME], "start": s[START] - origin, "end": s[END] - origin,
                     "parent": s[PARENT], "op": s[OP], "error": s[ERROR]}
                    for s in self.spans
                ],
                handle,
            )


def summarize(spans):
    """Per span name: calls, busy seconds, self seconds (busy minus the time
    its child spans cover), summed work, and exceptions raised."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "errors": Counter()})
    for index, span in enumerate(spans):
        entry = out[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - covered[index]
        entry["work"] += span[WORK]
        if span[ERROR]:
            entry["errors"][span[ERROR]] += 1
    return out


# Work counts, computed from a call's arguments with the recurrences of the
# algorithms being called.  They count loop iterations, not time.

def _pairs(inst, a):
    """(task, resource) pairs `is_nash` scans: n*m for a full assignment."""
    return inst.n * inst.m if hasattr(a, "target") else inst.m


def _row_transitions(n):
    """Inner-loop steps of one DP row over n tasks: sum of (j + 1), j = 1..n."""
    return n * (n + 1) // 2 + n


def _dp_identical_delays(inst):
    return inst.m * _row_transitions(inst.n)


def _dp_few_delays(inst, alpha=4):
    mult = list(Counter(inst.delays).values())
    vectors = 1
    for c in mult:
        vectors *= c + 1
    # each count vector is reached once per class it has a resource of
    nonzero = sum(c * vectors // (c + 1) for c in mult)
    return nonzero * _row_transitions(inst.n)


def _dp_few_weights(inst, alpha=4):
    takes = 1
    for c in Counter(inst.weights).values():
        takes *= (c + 1) * (c + 2) // 2
    return inst.m * takes


def _states(inst, budget=None):
    if len(set(inst.weights)) == 1:
        return comb(inst.n + inst.m - 1, inst.m - 1)
    return inst.m**inst.n


WORK_COUNTS = {
    "model.is_nash": _pairs,
    "model.loads_instance": lambda text: len(text),
    "algorithms.find_opt": lambda inst: inst.n,
    "algorithms.find_opt_nash": lambda inst: inst.n,
    "algorithms.greedy_nash": lambda inst: inst.n * inst.m,
    "algorithms.dp_identical_delays": _dp_identical_delays,
    "algorithms.dp_few_delays": _dp_few_delays,
    "algorithms.dp_few_weights": _dp_few_weights,
    "oracle.enumerate_extremes": _states,
}


def install(tracer, cli, algorithms, oracle):
    """Wrap the public names the CLI calls, as the CLI sees them."""
    for attr in ("loads_instance", "cost", "is_nash", "improving_moves", "resource_load"):
        tracer.wrap(cli, attr, f"model.{attr}", WORK_COUNTS.get(f"model.{attr}"))
    # module attributes, so calls between algorithms (approx -> round, dp)
    # show up as child spans
    for attr, value in sorted(vars(algorithms).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == algorithms.__name__:
            tracer.wrap(algorithms, attr, f"algorithms.{attr}", WORK_COUNTS.get(f"algorithms.{attr}"))
        elif attr == "cost":
            tracer.wrap(algorithms, attr, "model.cost")
    for attr in ("enumerate_extremes", "verify_bounds"):
        tracer.wrap(oracle, attr, f"oracle.{attr}", WORK_COUNTS.get(f"oracle.{attr}"))
