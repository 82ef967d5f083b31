"""CLI-level benchmark for selfish-assign.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One process runs one workload on one thread in a closed loop:
each CLI run is an in-process `selfish_assign.cli.main(argv)` call with
stdout and stderr captured, and the next run starts when the previous one
returns.

A run of the benchmark:
1. sets the workload up SETUP_REPEATS times from the seed (every input file
   written before timing starts), checks the inputs came out byte-identical
   each time, and reports the median set-up time;
2. makes one untimed gate pass whose reports are checked against the
   benchmark's own invariants and, for DEFAULT_SEED, against digests
   recorded from the seed commit;
3. repeats timed passes until --seconds have gone by; each run's output
   must equal its gate-pass output;
4. with --trace 1, sets up once more and makes one more pass with the
   program's public functions wrapped, and reports per-layer metrics.

Reference seconds.  On a shared 2-core VM, one pass over the same input
took anywhere from 2.1 s to 4.4 s within minutes, and slow spells lasted
up to a minute, so a whole run could land in one.  The slowdown is common
to all Python code: a fixed probe loop that uses none of the program's code
(`_probe`), run between every PROBE_EVERY CLI runs, slowed with the pass
(correlation 0.95 over 74 passes).  Every reported time is therefore the
measured time multiplied by PROBE_REFERENCE_S / (median probe time of the
same pass or set-up), i.e. seconds on a machine where the probe takes
PROBE_REFERENCE_S.  A slower program still reads slower; a busier host
does not.  The raw wall time and the probe time of every pass are printed.

Each CLI run's latency is the median over the timed passes of its time in
reference seconds.  wall_s is the sum of those latencies (one pass),
op_ms_p50 and op_ms_p90 are their median and 90th percentile over the runs
of a pass, and <command>_s their sum over one command's runs.  setup_s is
the median over the set-ups.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
`--workload all` runs every workload, each in its own process.
"""

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"
DIGESTS = HERE / "digests"

DEFAULT_SEED = 1
SETUP_REPEATS = 7
COMMANDS = ("solve", "nash", "verify", "ratio")

#: End-to-end metrics in the result line.  Every workload runs `solve`; the
#: other per-command times are printed only for workloads that run them.
RESULT_METRICS = ("setup_s", "wall_s", "op_ms_p50", "op_ms_p90", "solve_s", "peak_rss_mb")

PROBE_EVERY = 10  # CLI runs between probes
PROBE_REFERENCE_S = 0.025  # the probe's time on an idle host of the reference VM


def _probe():
    """Seconds taken by a fixed pure-Python load: exact Fraction sums and
    comparisons, heap pushes and a JSON dump, like the program's own work."""
    started = time.perf_counter()
    total, heap = Fraction(0), []
    for i in range(1, 8000):
        total += Fraction(i % 97 + 1, i % 89 + 1)
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if total > 1000:
            total -= 1000
    json.dumps([str(x) for x in heap[:300]], indent=2)
    return time.perf_counter() - started


def _scale(probes):
    """Factor from measured seconds to reference seconds."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _strip_timing(text):
    """A report without its trailing elapsed_ms field (always the last key)."""
    return text.rpartition('"elapsed_ms"')[0]


def _fingerprint(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0")
        digest.update(Path(directory, name).read_bytes())
    return digest.hexdigest()


class Bench:
    def __init__(self, workload, seed):
        from selfish_assign import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = WORK_ROOT / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0  # CLI runs with at least one problem
        self.failures = []  # (label, reason)

    def setup(self, tag):
        """Write the inputs into a fresh directory: (plan, measured seconds,
        reference-seconds factor, fingerprint of the files)."""
        import workloads

        directory = self.work / tag
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        gc.collect()
        before = _probe()
        started = time.perf_counter()
        plan = workloads.build(self.workload, self.seed, str(directory))
        seconds = time.perf_counter() - started
        scale = _scale([before, _probe(), _probe()])
        return plan, seconds, scale, _fingerprint(directory)

    def run(self, op):
        """(exit code, stdout, stderr, seconds); an exception counts as exit code None."""
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed run, not a crashed benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        return code, out.getvalue(), err.getvalue(), elapsed

    def fail(self, op, problems):
        if problems:
            self.failed += 1
            self.failures.extend((op.label, p) for p in problems)

    def gate(self, plan, digests):
        """Untimed pass: check every report.  Returns the expected (exit code,
        output hash) of each run, the digests to record, and the number of
        improving moves the `verify` reports list."""
        checker = checks.Checker()
        expected = {}
        recorded = {}
        for op in plan.ops:
            code, out, err, _ = self.run(op)
            self.attempted += 1
            expected[op.label] = (code, hashlib.sha256(_strip_timing(out).encode()).hexdigest())
            if code != op.expect_exit:
                self.fail(op, [f"exit {code}, expected {op.expect_exit}: {err.strip()[:200]}"])
                continue
            if op.expect_exit != 0:  # only the exit code is checked on expected failures
                recorded[op.label] = f"{code} -"
                continue
            report = json.loads(out)
            problems = checker.check(op, report)
            recorded[op.label] = f"{code} {checks.report_digest(report)}"
            if digests is not None and digests["runs"].get(op.label) != recorded[op.label]:
                problems.append("report differs from the recorded seed-commit digest")
            self.fail(op, problems)
        return expected, recorded, checker.moves

    def timed_pass(self, plan, expected, tracer=None):
        """One pass: (measured seconds of each run, reference-seconds factor)."""
        latencies, probes, outputs = [], [], []
        for index, op in enumerate(plan.ops):
            if index % PROBE_EVERY == 0:
                probes.append(_probe())
            if tracer is None:
                code, out, err, elapsed = self.run(op)
            else:
                with tracer.root("cli.main", index):
                    code, out, err, elapsed = self.run(op)
            latencies.append(elapsed)
            outputs.append((op, code, out, err))
        probes.append(_probe())
        self.attempted += len(outputs)
        for op, code, out, err in outputs:
            got = (code, hashlib.sha256(_strip_timing(out).encode()).hexdigest())
            if code != op.expect_exit:
                self.fail(op, [f"exit {code}, expected {op.expect_exit}: {err.strip()[:200]}"])
            elif op.expect_exit == 0 and got != expected[op.label]:
                self.fail(op, ["output differs from the gate pass"])
        return latencies, _scale(probes)


def run_workload(args):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed)
    try:
        return _run(bench, args)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def _run(bench, args):
    setups, prints = [], set()
    for rep in range(SETUP_REPEATS):
        plan, seconds, scale, fingerprint = bench.setup(f"setup{rep}")
        setups.append(seconds * scale)
        prints.add(fingerprint)
    if len(prints) != 1:
        bench.failures.append(("setup", "the same seed gave different input files"))

    digest_path = DIGESTS / f"{args.workload}.json"
    digests = None
    if args.seed == DEFAULT_SEED and not args.write_digests:
        digests = json.loads(digest_path.read_text())
        if digests["inputs_sha256"] != fingerprint:
            bench.failures.append(("setup", "input files differ from the recorded seed-commit inputs"))
    expected, recorded, moves = bench.gate(plan, digests)
    if args.write_digests:
        digest_path.parent.mkdir(exist_ok=True)
        doc = {"workload": args.workload, "seed": args.seed, "inputs_sha256": fingerprint,
               "runs": recorded}
        digest_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    raw, scales, passes = [], [], []
    started = time.perf_counter()
    while not raw or time.perf_counter() - started < args.seconds:
        gc.collect()
        latencies, scale = bench.timed_pass(plan, expected)
        raw.append(sum(latencies))
        scales.append(scale)
        passes.append([t * scale for t in latencies])
    latency = [statistics.median(times) for times in zip(*passes)]

    ordered = sorted(latency)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(latency), "s"),
        "op_ms_p50": (_percentile(ordered, 50) * 1000, "ms"),
        "op_ms_p90": (_percentile(ordered, 90) * 1000, "ms"),
    }
    for command in COMMANDS:
        if any(op.command == command for op in plan.ops):
            end_to_end[f"{command}_s"] = (
                sum(t for op, t in zip(plan.ops, latency) if op.command == command), "s")
    end_to_end["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    per_layer, top = None, None
    if args.trace:
        per_layer, top = _traced(bench, plan, expected, end_to_end["wall_s"][0], moves)

    attempted, failed = bench.attempted, bench.failed
    runs = len(plan.ops)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'digests checked' if digests else 'invariants only'}  "
          f"{len(raw)} timed passes of {runs} CLI runs  "
          f"(p90 has {runs - int(-(-runs * 90 // 100))} runs beyond it)")
    print(f"  measured pass wall_s: {' '.join(f'{w:.3f}' for w in raw)}")
    print(f"  reference seconds per measured second: {' '.join(f'{s:.3f}' for s in scales)}")
    print("  in reference seconds:")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<16} {value:14.6f} {unit}")
    print(f"  {'error_rate':<16} {failed / attempted:14.6f} fraction"
          f"  ({failed} failed of {attempted} attempted runs)")
    for label, reason in bench.failures[:20]:
        print(f"  FAILED {label}: {reason}")
    if per_layer is not None:
        print(f"  traced pass, largest self time: {top}")
        for name, (value, unit, computed) in per_layer.items():
            print(f"  {name:<44} {value:16.6f} {unit}{'  (computed)' if computed else ''}")

    chosen = per_layer if args.trace else {name: end_to_end[name] for name in RESULT_METRICS}
    result = {
        "correct": not bench.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in chosen.items()},
    }
    print(json.dumps(result))
    return 0


def _traced(bench, plan, expected, untraced_wall, moves):
    """Traced set-up and pass; per-layer metrics as name -> (value, unit, computed)."""
    from selfish_assign import algorithms, cli, instances, oracle

    tracer = tracing.Tracer()
    tracer.wrap(instances, "gen_random", "instances.gen_random")
    try:
        gen_plan, _, gen_scale, _ = bench.setup("traced-setup")
    finally:
        tracer.restore()
    gen = tracing.summarize(tracer.spans)["instances.gen_random"]

    tracer = tracing.Tracer()
    tracing.install(tracer, cli, algorithms, oracle)
    gc.collect()
    origin = time.perf_counter()
    try:
        latencies, scale = bench.timed_pass(plan, expected, tracer)
    finally:
        tracer.restore()
    WORK_ROOT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK_ROOT / "spans" / f"{bench.workload}-seed{bench.seed}.json", origin)

    spans = tracing.summarize(tracer.spans)
    traced_wall = sum(latencies) * scale

    def get(name, key):
        value = spans[name][key] if name in spans else 0
        return value * scale if key.endswith("_s") else value

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    out = {}

    def put(name, value, unit, computed=False):
        out[name] = (value, unit, computed)

    put("cli.main.calls", get("cli.main", "calls"), "count")
    put("cli.main.self_s", get("cli.main", "self_s"), "s")
    put("cli.gen.busy_s", gen_plan.gen_s * gen_scale, "s")
    put("instances.gen_s", gen["busy_s"] * gen_scale, "s")
    put("model.loads_instance.busy_s", get("model.loads_instance", "busy_s"), "s")
    put("model.loads_instance.kb", get("model.loads_instance", "work") / 1000, "kB", True)
    put("model.is_nash.calls", get("model.is_nash", "calls"), "count")
    put("model.is_nash.busy_s", get("model.is_nash", "busy_s"), "s")
    put("model.is_nash.pairs", get("model.is_nash", "work"), "count", True)
    put("model.is_nash.ns_per_pair",
        per(get("model.is_nash", "busy_s"), get("model.is_nash", "work"), 1e9), "ns", True)
    put("model.is_nash.share", per(get("model.is_nash", "self_s"), traced_wall, 1), "fraction")
    put("model.improving_moves.busy_s", get("model.improving_moves", "busy_s"), "s")
    put("model.improving_moves.moves", moves, "count")
    put("model.resource_load.calls", get("model.resource_load", "calls"), "count")
    put("model.resource_load.busy_s", get("model.resource_load", "busy_s"), "s")
    put("model.cost.busy_s", get("model.cost", "busy_s"), "s")

    greedy_s = get("algorithms.find_opt", "busy_s") + get("algorithms.find_opt_nash", "busy_s")
    steps = get("algorithms.find_opt", "work") + get("algorithms.find_opt_nash", "work")
    put("algorithms.find_opt.busy_s", get("algorithms.find_opt", "busy_s"), "s")
    put("algorithms.find_opt_nash.busy_s", get("algorithms.find_opt_nash", "busy_s"), "s")
    put("algorithms.greedy_steps", steps, "count", True)
    put("algorithms.greedy_ns_per_step", per(greedy_s, steps, 1e9), "ns", True)
    put("algorithms.greedy_nash.busy_s", get("algorithms.greedy_nash", "busy_s"), "s")
    put("algorithms.greedy_nash.pairs", get("algorithms.greedy_nash", "work"), "count", True)
    put("algorithms.greedy_nash.ns_per_pair",
        per(get("algorithms.greedy_nash", "busy_s"), get("algorithms.greedy_nash", "work"), 1e9),
        "ns", True)
    dp_s = 0.0
    for dp in ("dp_identical_delays", "dp_few_delays", "dp_few_weights"):
        name = f"algorithms.{dp}"
        dp_s += get(name, "busy_s")
        put(f"{name}.busy_s", get(name, "busy_s"), "s")
        put(f"{name}.transitions", get(name, "work"), "count", True)
        put(f"{name}.ns_per_transition", per(get(name, "busy_s"), get(name, "work"), 1e9), "ns", True)
    put("algorithms.dp.share", per(dp_s, traced_wall, 1), "fraction")
    put("algorithms.round_weights.busy_s", get("algorithms.round_weights", "busy_s"), "s")
    put("algorithms.round_delays.busy_s", get("algorithms.round_delays", "busy_s"), "s")
    put("algorithms.approx_solve_weights.self_s", get("algorithms.approx_solve_weights", "self_s"), "s")
    put("algorithms.approx_solve_delays.self_s", get("algorithms.approx_solve_delays", "self_s"), "s")
    put("algorithms.failed",
        sum(e["errors"]["ValueError"] for n, e in spans.items() if n.startswith("algorithms.")),
        "count")

    enum = "oracle.enumerate_extremes"
    put(f"{enum}.busy_s", get(enum, "busy_s"), "s")
    put(f"{enum}.share", per(get(enum, "busy_s"), traced_wall, 1), "fraction")
    put("oracle.states", get(enum, "work"), "count", True)
    put("oracle.us_per_state", per(get(enum, "busy_s"), get(enum, "work"), 1e6), "us", True)
    put("oracle.verify_bounds.busy_s", get("oracle.verify_bounds", "busy_s"), "s")
    put("oracle.budget_exceeded",
        spans[enum]["errors"]["BudgetExceededError"] if enum in spans else 0, "count")

    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    top = max(spans, key=lambda name: spans[name]["self_s"])
    return out, f"{top} ({get(top, 'self_s'):.3f} of {traced_wall:.3f} reference s)"


def run_all(args):
    """Every workload, one after another, each in its own process."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(summary))
    return 0 if all(summary.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed section length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help=f"record report digests for seed {DEFAULT_SEED} (run on the seed commit)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "selfish_assign" / "cli.py").is_file():
        print(f"error: no selfish_assign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digests records seed {DEFAULT_SEED} only")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
