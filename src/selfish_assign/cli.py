"""Command-line front end.

Subcommands: solve (optimal or approximate assignment), nash (equilibrium
construction), ratio (exhaustive extreme-cost report), gen (instance files),
verify (cost and equilibrium check of a given assignment).  Stdout carries
exactly one JSON report, byte-identical to `json.dumps(report, indent=2)`;
diagnostics go to stderr, one `error:` line per failure.  Exit codes:
0 success, 1 stdout closed by its reader before the report was written (no
traceback), 2 unparsable input, bad arguments or an unwritable --out file,
3 precondition violation, 4 enumeration budget exceeded.

Instance files are read straight into the instance's integer kernel
(`model.loads_instance`); the report digest and the routing of
`solve --algorithm auto` read that kernel too, and reports are written by
`model.dumps_json`.  `gen random` builds the kernel directly
(`instances.gen_random`), and `gen` writes instance files from the kernel,
one encoding per distinct value (`model.dumps_instance`).
"""

import argparse
import decimal
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import algorithms, instances, oracle
from .model import (
    Assignment,
    Instance,
    cost,
    dumps_instance,
    dumps_json,
    format_rational,
    improving_moves,
    is_nash,
    loads_instance,
    parse_rational,
    resource_load,  # unused here; kept as a module attribute perfbench/spans.py wraps
    resource_loads,
)

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

BUDGET_ENV_VAR = "SELFISH_ASSIGN_BUDGET"

_WRITE_SLICE = 1 << 16  # characters of the report per write to stdout


class _CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


#: Decimal context for approximations outside the normal float range: 17
#: significant digits, as many as a float round-trips, and any exponent.
_WIDE_DECIMAL = decimal.Context(prec=17, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _rat(x: Fraction) -> dict:
    """A rational for the report: exact "p/q" plus a labeled approximation.

    The approximation is a float.  For a value above float range, or a
    nonzero one that would become 0.0 or a subnormal float (which keeps
    fewer significant digits), it is a decimal string in scientific
    notation with 17 significant digits, correctly rounded.
    """
    try:
        approximate = float(x)
        wide = abs(approximate) < sys.float_info.min and x != 0
    except OverflowError:
        wide = True
    if wide:
        numerator, denominator = decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)
        approximate = f"{_WIDE_DECIMAL.divide(numerator, denominator):.16e}"
    return {"exact": format_rational(x), "approximate": approximate}


def _instance_digest(inst: Instance) -> dict:
    return {
        "tasks": inst.n,
        "resources": inst.m,
        "total_weight": _rat(inst.total_weight),
        "throughput": _rat(inst.throughput),
        "average_load": _rat(inst.average_load),
        "weight_spread": _rat(inst.weight_spread),
    }


def _load_instance_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    try:
        return loads_instance(text)
    except (json.JSONDecodeError, ValueError) as exc:
        raise _CliError(EXIT_PARSE, f"bad instance file {path}: {exc}") from exc


def _load_assignment_file(path: str, inst: Instance) -> Assignment:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_PARSE, f"bad assignment file {path}: {exc}") from exc
    if not isinstance(data, list):
        raise _CliError(EXIT_PARSE, "assignment file must be a JSON array of resource indices")
    if len(data) != inst.n:
        raise _CliError(
            EXIT_PRECONDITION,
            f"assignment lists {len(data)} tasks, instance has {inst.n}",
        )
    try:
        a = Assignment(tuple(data))
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"bad assignment file {path}: {exc}") from exc
    if max(a.target) > inst.m:
        raise _CliError(
            EXIT_PRECONDITION, f"assignment uses resources beyond 1..{inst.m}"
        )
    return a


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return oracle.DEFAULT_MAX_STATES
    try:
        value = int(raw)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise _CliError(EXIT_PARSE, f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def _parse_epsilon(raw, required_by: str, positive: bool = True) -> Fraction:
    if raw is None:
        raise _CliError(EXIT_PRECONDITION, f"{required_by} needs --epsilon")
    try:
        value = parse_rational(raw)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"bad --epsilon: {exc}") from exc
    if positive and value <= 0:
        raise _CliError(EXIT_PRECONDITION, "--epsilon must be positive")
    if not positive and value < 0:
        raise _CliError(EXIT_PRECONDITION, "--epsilon must be non-negative")
    return value


def _pick_algorithm(inst: Instance, requested: str, epsilon) -> str:
    """Resolve --algorithm auto.  Specialized exact solvers come first:
    identical weights, identical or few distinct delays, few distinct
    weights; only then the approximation scheme (which needs --epsilon)."""
    if requested != "auto":
        return requested
    if inst.identical_weights:
        return "find-opt"
    if len(inst.distinct_delay_values) <= algorithms.DEFAULT_DISTINCT_VALUES:
        return "dp-delays"
    if len(inst.distinct_weight_values) <= algorithms.DEFAULT_DISTINCT_VALUES:
        return "dp-weights"
    if epsilon is None:
        raise _CliError(
            EXIT_PRECONDITION,
            "no exact algorithm applies (weights and delays both take many"
            " distinct values); pass --epsilon to solve approximately",
        )
    return "approx"


def _cmd_solve(args) -> dict:
    inst, _ = _load_instance_file(args.instance)
    epsilon = None if args.epsilon is None else _parse_epsilon(args.epsilon, "--algorithm approx")
    algorithm = _pick_algorithm(inst, args.algorithm, epsilon)

    started = time.perf_counter()
    approximate = False
    counts = None
    try:
        if algorithm == "find-opt":
            counts = algorithms.find_opt(inst)
            assignment = counts.to_assignment()
            value = cost(inst, counts)
        elif algorithm == "dp-delays":
            solution = algorithms.dp_few_delays(inst)
            assignment, value = solution.assignment, solution.cost
        elif algorithm == "dp-weights":
            solution = algorithms.dp_few_weights(inst)
            assignment, value = solution.assignment, solution.cost
        elif algorithm == "approx":
            if epsilon is None:
                raise _CliError(EXIT_PRECONDITION, "--algorithm approx needs --epsilon")
            approximate = True
            # round whichever side spans the smaller ratio (fewer classes)
            if inst.weight_spread <= inst.delay_spread:
                solution = algorithms.approx_solve_weights(inst, epsilon)
            else:
                solution = algorithms.approx_solve_delays(inst, epsilon)
            assignment, value = solution.assignment, solution.cost
        else:
            raise AssertionError(f"unknown algorithm {algorithm}")
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, str(exc)) from exc
    elapsed = (time.perf_counter() - started) * 1000

    result = {
        "algorithm": algorithm,
        "approximate": approximate,
        "cost": _rat(value),
        "assignment": list(assignment.target),
    }
    if counts is not None:
        result["counts"] = list(counts.counts)
    if approximate:
        result["epsilon"] = _rat(epsilon)
        result["approximation_factor"] = _rat(1 + epsilon)
    return _report("solve", args, inst, result, elapsed)


def _cmd_nash(args) -> dict:
    inst, _ = _load_instance_file(args.instance)
    started = time.perf_counter()
    try:
        if args.mode == "any":
            assignment = algorithms.greedy_nash(inst)
            counts = None
        else:
            counts = algorithms.find_opt_nash(inst)
            assignment = counts.to_assignment()
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, str(exc)) from exc
    elapsed = (time.perf_counter() - started) * 1000

    # the count vector, where there is one, evaluates in O(m)
    evaluated = assignment if counts is None else counts
    result = {
        "mode": args.mode,
        "cost": _rat(cost(inst, evaluated)),
        "assignment": list(assignment.target),
        "is_nash": is_nash(inst, evaluated),
    }
    if counts is not None:
        result["counts"] = list(counts.counts)
    return _report("nash", args, inst, result, elapsed)


def _cmd_ratio(args) -> dict:
    inst, _ = _load_instance_file(args.instance)
    try:
        budget = oracle.EnumerationBudget(
            args.budget if args.budget is not None else _default_budget()
        )
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, str(exc)) from exc
    started = time.perf_counter()
    try:
        report = oracle.enumerate_extremes(inst, budget)
    except oracle.BudgetExceededError as exc:
        raise _CliError(EXIT_BUDGET, str(exc)) from exc
    checks = oracle.verify_bounds(inst, report)
    elapsed = (time.perf_counter() - started) * 1000

    result = {
        "min_cost": _rat(report.min_cost),
        "min_nash_cost": _rat(report.min_nash_cost),
        "max_nash_cost": _rat(report.max_nash_cost),
        "coordination_ratio": _rat(report.coordination_ratio),
        "nash_gap": _rat(report.nash_gap),
        "opt_gap": _rat(report.opt_gap),
        "witnesses": {
            "min_cost": list(report.min_cost_witness.target),
            "min_nash": list(report.min_nash_witness.target),
            "max_nash": list(report.max_nash_witness.target),
        },
        "bounds": [
            {"bound": c.name, "satisfied": c.satisfied, "slack": _rat(c.slack)}
            for c in checks
        ],
    }
    return _report("ratio", args, inst, result, elapsed)


def _cmd_verify(args) -> dict:
    inst, _ = _load_instance_file(args.instance)
    assignment = _load_assignment_file(args.assignment, inst)
    started = time.perf_counter()
    moves = improving_moves(inst, assignment)
    elapsed = (time.perf_counter() - started) * 1000

    result = {
        "cost": _rat(cost(inst, assignment)),
        "resource_loads": [_rat(load) for load in resource_loads(inst, assignment)],
        "is_nash": not moves,
        "improving_moves": [
            {"task": task, "to_resource": resource, "new_load": _rat(load)}
            for task, resource, load in moves
        ],
    }
    return _report("verify", args, inst, result, elapsed)


def _cmd_gen(args) -> dict:
    references = None
    try:
        if args.family == "big-nash":
            if args.n is None:
                raise _CliError(EXIT_PRECONDITION, "big-nash needs --n")
            inst = instances.gen_big_nash(args.n)
        elif args.family == "uniform-gap":
            epsilon = _parse_epsilon(args.epsilon, "uniform-gap", positive=False)
            inst = instances.gen_uniform_gap(epsilon)
        elif args.family == "nash-ratio-lb":
            epsilon = _parse_epsilon(args.epsilon, "nash-ratio-lb")
            inst, segregated, mixed = instances.gen_nash_ratio_lb(epsilon)
            references = {"N1": segregated, "N2": mixed}
        elif args.family == "random":
            if args.n is None or args.m is None:
                raise _CliError(EXIT_PRECONDITION, "random needs --n and --m")
            inst = instances.gen_random(
                args.n,
                args.m,
                _parse_range(args.weights),
                _parse_range(args.delays),
                args.seed,
            )
        else:
            raise AssertionError(f"unknown family {args.family}")
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, str(exc)) from exc

    text = dumps_instance(inst, references)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _CliError(EXIT_PARSE, f"cannot write {args.out}: {exc}") from exc
        return _report(
            "gen",
            args,
            inst,
            {"family": args.family, "written_to": args.out},
            0.0,
        )
    # without --out the instance document itself is the report
    sys.stdout.write(text)
    return None


def _parse_range(raw: str):
    if raw is None:
        raise _CliError(EXIT_PRECONDITION, "random needs --weights LO:HI and --delays LO:HI")
    parts = raw.split(":")
    if len(parts) != 2:
        raise _CliError(EXIT_PARSE, f"ranges look like LO:HI, got {raw!r}")
    try:
        return (parse_rational(parts[0]), parse_rational(parts[1]))
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"bad range {raw!r}: {exc}") from exc


def _report(command: str, args, inst: Instance, result: dict, elapsed_ms: float) -> dict:
    echo = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command") and value is not None
    }
    return {
        "command": command,
        "arguments": echo,
        "instance": _instance_digest(inst),
        "result": result,
        "elapsed_ms": round(elapsed_ms, 3),
    }


class _ArgumentParser(argparse.ArgumentParser):
    """Rejects bad arguments with one `error:` line and exit 2, like every
    other CLI failure, instead of a usage block; subparsers share the class."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="selfish-assign",
        description="Exact solvers and equilibrium analysis for selfish resource assignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute an optimal or near-optimal assignment")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument(
        "--algorithm",
        choices=["auto", "find-opt", "dp-delays", "dp-weights", "approx"],
        default="auto",
    )
    solve.add_argument("--epsilon", help="accuracy for approx, e.g. 1/2")
    solve.set_defaults(func=_cmd_solve)

    nash = sub.add_parser("nash", help="construct a Nash assignment")
    nash.add_argument("instance", help="instance JSON file")
    nash.add_argument("--mode", choices=["any", "best"], default="any")
    nash.set_defaults(func=_cmd_nash)

    ratio = sub.add_parser("ratio", help="enumerate extreme costs and check bounds")
    ratio.add_argument("instance", help="instance JSON file")
    ratio.add_argument("--budget", type=int, help="max enumeration states")
    ratio.set_defaults(func=_cmd_ratio)

    gen = sub.add_parser("gen", help="write a generated instance file")
    gen.add_argument("family", choices=["big-nash", "nash-ratio-lb", "uniform-gap", "random"])
    gen.add_argument("--n", type=int, help="number of tasks")
    gen.add_argument("--m", type=int, help="number of resources")
    gen.add_argument("--epsilon", help="family accuracy parameter, e.g. 1/2")
    gen.add_argument("--weights", help="weight range LO:HI for the random family")
    gen.add_argument("--delays", help="delay range LO:HI for the random family")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="evaluate a given assignment")
    verify.add_argument("instance", help="instance JSON file")
    verify.add_argument("assignment", help="JSON array of 1-based resource indices")
    verify.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call; parsing returns a
    fresh namespace each time and leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if report is not None:
        text = dumps_json(report) + "\n"
        # in slices: a write after the reader closed the pipe then raises
        # BrokenPipeError, where one large write can end without an error
        for start in range(0, len(text), _WRITE_SLICE):
            sys.stdout.write(text[start : start + _WRITE_SLICE])
    return EXIT_OK


def entry_point():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the
        # interpreter's final flush of the unwritten rest stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_STDOUT_CLOSED
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
