"""Command-line front end.

Subcommands: solve (optimal or approximate assignment), nash (equilibrium
construction), ratio (exhaustive extreme-cost report), gen (instance files),
verify (cost and equilibrium check of a given assignment).  Stdout carries
exactly one JSON document, byte-identical to `json.dumps(document, indent=2)`;
diagnostics go to stderr, one `error:` line per failure.  Exit codes:
0 success, 1 stdout closed by its reader before the document was written (no
traceback), 2 unparsable input, bad arguments or an unwritable --out file,
3 precondition violation, among them an exact DP predicted to take more
than `algorithms.MAX_DP_STEPS` steps, a rounding that would build powers
of more than `algorithms.MAX_GRID_POWER_BITS` bits and a `gen` family of
more than `instances.MAX_GEN_SIZE` tasks plus resources, refused before it
is built (those lines state the work or size required and allowed), 4
enumeration budget exceeded or a number (in an instance file, --epsilon or
a gen range) whose numerator or denominator would have more than
`model.MAX_NUMBER_DIGITS` digits; that error line states the digits
required and allowed.

One runner serves every command: it reads the instance file (`gen` builds
its family instead), times the span from there to the built result
(`elapsed_ms`), maps a ValueError or OverflowError to exit 3 and returns
the document, a report or `gen`'s instance without --out, that `main`
alone writes.  `solve`'s algorithms are one table (`_SOLVERS`), in the
order `--algorithm auto` tries them.

Each call parses its arguments once: an argv that starts with a
subcommand's name is read by that subcommand's parser alone, as the whole
parser would hand it on.  Input files are read as bytes and decoded from
UTF-8 once, with "\\r\\n" and a lone "\\r" read as "\\n", as a text-mode read
gives them.  Instance files are read by `model.loads_instance` and written
by `model.dumps_instance`; reports are written by `model.dumps_json`, the
instance digest rendered from the int pairs in lowest terms that the
`Instance` properties are built from, with no Fraction built.  A report
holds the `Assignment` or `CountAssignment` its command built, which the
writer writes as the array of its target.  A count vector (`solve`'s
find-opt route and `nash --mode best`, which build no n-entry target) and
an assignment that expands one (`ratio`'s identical-weight witnesses) are
written from the counts, one repeated text per resource.  `nash` and `verify`
evaluate an assignment through `model`'s public evaluators, which walk
its tasks once per instance.
`verify` renders each distinct new load once; its improving moves take one
lower envelope of the move lines per call and one O(log m) lookup on it
per distinct task weight, and its report's record lists are written column
by column.
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
    NumberTooLongError,
    _digits,
    cost,
    dumps_instance,
    dumps_json,
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

_WRITE_SLICE = 1 << 16  # characters of the report per write to stdout


class _CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


#: Decimal context for approximations outside the normal float range: 17
#: significant digits, as many as a float round-trips, and any exponent.
_WIDE_DECIMAL = decimal.Context(prec=17, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _rat(p: int, q: int) -> dict:
    """The rational p/q, in lowest terms with q > 0, for the report: exact
    "p/q" plus a labeled approximation.

    The approximation is a float.  For a value above float range, or a
    nonzero one that would become 0.0 or a subnormal float (which keeps
    fewer significant digits), it is a decimal string in scientific
    notation with 17 significant digits, correctly rounded.
    """
    try:
        # the int true division float(Fraction(p, q)) makes
        approximate = p / q
        wide = abs(approximate) < sys.float_info.min and p != 0
    except OverflowError:
        wide = True
    if wide:
        approximate = f"{_WIDE_DECIMAL.divide(decimal.Decimal(p), decimal.Decimal(q)):.16e}"
    return {"exact": f"{_digits(p)}/{_digits(q)}", "approximate": approximate}


def _instance_digest(inst: Instance) -> dict:
    """The instance's size, total weight, throughput, average load and
    weight spread, rendered from the int pairs the `Instance` properties
    are built from."""
    return {
        "tasks": inst.n,
        "resources": inst.m,
        "total_weight": _rat(*inst._total_weight_pair),
        "throughput": _rat(*inst._throughput_pair),
        "average_load": _rat(*inst._average_load_pair),
        "weight_spread": _rat(*inst._weight_spread_pair),
    }


def _refused_number(exc: ValueError) -> int:
    """The exit code of a number that cannot be read: 4 for one with too
    many digits to build, else 2."""
    return EXIT_BUDGET if isinstance(exc, NumberTooLongError) else EXIT_PARSE


#: The message for a document nested deeper than the JSON reader recurses.
_TOO_DEEP = "JSON nested too deeply to read"


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at `path` as text mode reads it: its bytes
    read at once and decoded once, then "\\r\\n" and a lone "\\r" read as
    "\\n" (translated only in a text that holds a "\\r")."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_file(path: str, kind: str, decode):
    """decode(text) of the UTF-8 file at `path`, the one reader of input
    files.  A file that cannot be read or decoded is refused with one line
    and exit 2, a number with too many digits with exit 4."""
    try:
        return decode(_read_text(path))
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also bytes that are not UTF-8 and a NUL in the path
        raise _CliError(_refused_number(exc), f"bad {kind} file {path}: {exc}") from exc
    except RecursionError:
        raise _CliError(EXIT_PARSE, f"bad {kind} file {path}: {_TOO_DEEP}") from None


def _loads_assignment(text: str) -> Assignment:
    """The assignment in a JSON array of 1-based resource indices."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of resource indices")
    return Assignment(tuple(data))


def _parse_epsilon(raw, required_by: str, positive: bool = True) -> Fraction:
    if raw is None:
        raise _CliError(EXIT_PRECONDITION, f"{required_by} needs --epsilon")
    try:
        value = parse_rational(raw)
    except ValueError as exc:
        raise _CliError(_refused_number(exc), f"bad --epsilon: {exc}") from exc
    if positive and value <= 0:
        raise _CliError(EXIT_PRECONDITION, "--epsilon must be positive")
    if not positive and value < 0:
        raise _CliError(EXIT_PRECONDITION, "--epsilon must be non-negative")
    return value


def _find_opt(inst: Instance, epsilon):
    counts = algorithms.find_opt(inst)
    return counts, cost(inst, counts), {"counts": counts.counts}


def _approx(inst: Instance, epsilon):
    if epsilon is None:
        raise _CliError(EXIT_PRECONDITION, "--algorithm approx needs --epsilon")
    # round whichever side spans the smaller ratio (fewer classes)
    if inst.weight_spread <= inst.delay_spread:
        solution = algorithms.approx_solve_weights(inst, epsilon)
    else:
        solution = algorithms.approx_solve_delays(inst, epsilon)
    return solution.assignment, solution.cost, {
        "epsilon": _rat(*epsilon.as_integer_ratio()),
        "approximation_factor": _rat(*(1 + epsilon).as_integer_ratio()),
    }


def _few(values) -> bool:
    return len(set(values)) <= algorithms.DEFAULT_DISTINCT_VALUES


def _dp(solution):
    return solution.assignment, solution.cost, {}


#: `solve`'s algorithms in the order `auto` tries them: each name with the
#: condition under which `auto` picks it and the call that runs it, which
#: returns (assignment or count vector, cost, the report's extra fields).
#: The calls look their functions up in `algorithms` as they run, so a
#: wrapper installed on a module attribute sees every call.
_SOLVERS = {
    "find-opt": (lambda inst: inst.identical_weights, _find_opt),
    "dp-delays": (lambda inst: _few(inst._kernel.delays),
                  lambda inst, epsilon: _dp(algorithms.dp_few_delays(inst))),
    "dp-weights": (lambda inst: _few(inst._kernel.weights),
                   lambda inst, epsilon: _dp(algorithms.dp_few_weights(inst))),
    "approx": (lambda inst: True, _approx),
}


def _cmd_solve(args, inst: Instance, _references) -> dict:
    epsilon = None if args.epsilon is None else _parse_epsilon(args.epsilon, "--algorithm approx")
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = next(name for name, (applies, _) in _SOLVERS.items() if applies(inst))
        if algorithm == "approx" and epsilon is None:
            raise _CliError(
                EXIT_PRECONDITION,
                "no exact algorithm applies (weights and delays both take many"
                " distinct values); pass --epsilon to solve approximately",
            )
    assignment, value, extra = _SOLVERS[algorithm][1](inst, epsilon)
    return {
        "algorithm": algorithm,
        "approximate": algorithm == "approx",
        "cost": _rat(*value.as_integer_ratio()),
        "assignment": assignment,
        **extra,
    }


def _cmd_nash(args, inst: Instance, _references) -> dict:
    # best's count vector evaluates in O(m) and is written from its counts
    best = args.mode == "best"
    assignment = algorithms.find_opt_nash(inst) if best else algorithms.greedy_nash(inst)
    result = {
        "mode": args.mode,
        "cost": _rat(*cost(inst, assignment).as_integer_ratio()),
        "assignment": assignment,
        "is_nash": is_nash(inst, assignment),
    }
    if best:
        result["counts"] = assignment.counts
    return result


def _cmd_ratio(args, inst: Instance, _references) -> dict:
    if args.budget is not None and args.budget < 1:
        raise _CliError(EXIT_PRECONDITION, f"--budget must be positive, got {args.budget}")
    budget = oracle.DEFAULT_MAX_STATES if args.budget is None else args.budget
    try:
        report = oracle.enumerate_extremes(inst, budget)
    except oracle.BudgetExceededError as exc:
        raise _CliError(EXIT_BUDGET, str(exc)) from exc
    checks = oracle.verify_bounds(inst, report)
    return {
        "min_cost": _rat(*report.min_cost.as_integer_ratio()),
        "min_nash_cost": _rat(*report.min_nash_cost.as_integer_ratio()),
        "max_nash_cost": _rat(*report.max_nash_cost.as_integer_ratio()),
        "coordination_ratio": _rat(*report.coordination_ratio.as_integer_ratio()),
        "nash_gap": _rat(*report.nash_gap.as_integer_ratio()),
        "opt_gap": _rat(*report.opt_gap.as_integer_ratio()),
        "witnesses": {
            "min_cost": report.min_cost_witness,
            "min_nash": report.min_nash_witness,
            "max_nash": report.max_nash_witness,
        },
        "bounds": [
            {"bound": c.name, "satisfied": c.satisfied,
             "slack": _rat(*c.slack.as_integer_ratio())}
            for c in checks
        ],
    }


def _cmd_verify(args, inst: Instance, _references) -> dict:
    assignment = _read_file(args.assignment, "assignment", _loads_assignment)
    moves = improving_moves(inst, assignment)
    # moves to equal loads share one load object: render each object once
    # and let its moves share the result (`moves` keeps every id alive)
    loads = {id(load): load for _, _, load in moves}
    rendered = {key: _rat(*load.as_integer_ratio()) for key, load in loads.items()}
    return {
        "cost": _rat(*cost(inst, assignment).as_integer_ratio()),
        "resource_loads": [
            _rat(*load.as_integer_ratio()) for load in resource_loads(inst, assignment)
        ],
        "is_nash": not moves,
        "improving_moves": [
            {"task": task, "to_resource": resource, "new_load": rendered[id(load)]}
            for task, resource, load in moves
        ],
    }


def _read_instance(args):
    """The (instance, reference assignments) pair of the instance file."""
    return _read_file(args.instance, "instance", loads_instance)


def _gen_family(args):
    """The (instance, reference assignments) pair of `gen`'s family."""
    references = None
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
    else:  # random, the last of the parser's choices
        if args.n is None or args.m is None:
            raise _CliError(EXIT_PRECONDITION, "random needs --n and --m")
        inst = instances.gen_random(args.n, args.m, _parse_range(args.weights),
                                    _parse_range(args.delays), args.seed)
    return inst, references


def _cmd_gen(args, inst: Instance, references):
    text = dumps_instance(inst, references)
    if not args.out:
        return text  # without --out the instance document itself is the output
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _CliError(EXIT_PARSE, f"cannot write {args.out}: {exc}") from exc
    return {"family": args.family, "written_to": args.out}


def _run(args) -> str:
    """The text a command prints: `args.source(args)` yields its (instance,
    reference assignments) pair and `args.func(args, inst, references)` its
    result, a dict for the report or the whole text (`gen` without --out).
    One timer spans both; a ValueError or OverflowError is exit 3."""
    started = time.perf_counter()
    try:
        inst, references = args.source(args)
        result = args.func(args, inst, references)
    except (ValueError, OverflowError) as exc:
        raise _CliError(EXIT_PRECONDITION, str(exc)) from exc
    if isinstance(result, str):
        return result
    return dumps_json(_report(args, inst, result, (time.perf_counter() - started) * 1000)) + "\n"


def _parse_range(raw: str):
    if raw is None:
        raise _CliError(EXIT_PRECONDITION, "random needs --weights LO:HI and --delays LO:HI")
    parts = raw.split(":")
    if len(parts) != 2:
        raise _CliError(EXIT_PARSE, f"ranges look like LO:HI, got {raw!r}")
    try:
        return (parse_rational(parts[0]), parse_rational(parts[1]))
    except ValueError as exc:
        raise _CliError(_refused_number(exc), f"bad range {raw!r}: {exc}") from exc


def _report(args, inst: Instance, result: dict, elapsed_ms: float) -> dict:
    echo = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "source", "command") and value is not None
    }
    return {
        "command": args.command,
        "arguments": echo,
        "instance": _instance_digest(inst),
        "result": result,
        "elapsed_ms": round(elapsed_ms, 3),
    }


def _one_line(message: str) -> str:
    """`message`, escaped if a path or an argument put a line break or
    another unprintable character in it, so that every error is one line."""
    return message if message.isprintable() else repr(message)[1:-1]


class _ArgumentParser(argparse.ArgumentParser):
    """Rejects bad arguments with one `error:` line and exit 2, like every
    other CLI failure, instead of a usage block; subparsers share the class."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"error: {_one_line(message)}\n")


def _build_parsers():
    """The command's parser and each subcommand's parser by name."""
    parser = _ArgumentParser(
        prog="selfish-assign",
        description="Exact solvers and equilibrium analysis for selfish resource assignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute an optimal or near-optimal assignment")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument(
        "--algorithm",
        choices=["auto", *_SOLVERS],
        default="auto",
    )
    solve.add_argument("--epsilon", help="accuracy for approx, e.g. 1/2")
    solve.set_defaults(func=_cmd_solve, source=_read_instance)

    nash = sub.add_parser("nash", help="construct a Nash assignment")
    nash.add_argument("instance", help="instance JSON file")
    nash.add_argument("--mode", choices=["any", "best"], default="any")
    nash.set_defaults(func=_cmd_nash, source=_read_instance)

    ratio = sub.add_parser("ratio", help="enumerate extreme costs and check bounds")
    ratio.add_argument("instance", help="instance JSON file")
    ratio.add_argument("--budget", type=int,
                       help="max assignments (m^n) a mixed-weight walk may visit; default 10**7")
    ratio.set_defaults(func=_cmd_ratio, source=_read_instance)

    gen = sub.add_parser("gen", help="write a generated instance file")
    gen.add_argument("family", choices=["big-nash", "nash-ratio-lb", "uniform-gap", "random"])
    gen.add_argument("--n", type=int, help="number of tasks")
    gen.add_argument("--m", type=int, help="number of resources")
    gen.add_argument("--epsilon", help="family accuracy parameter, e.g. 1/2")
    gen.add_argument("--weights", help="weight range LO:HI for the random family")
    gen.add_argument("--delays", help="delay range LO:HI for the random family")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen, source=_gen_family)

    verify = sub.add_parser("verify", help="evaluate a given assignment")
    verify.add_argument("instance", help="instance JSON file")
    verify.add_argument("assignment", help="JSON array of 1-based resource indices")
    verify.set_defaults(func=_cmd_verify, source=_read_instance)

    return parser, {"solve": solve, "nash": nash, "ratio": ratio, "gen": gen, "verify": verify}


@functools.lru_cache(maxsize=1)
def _parsers():
    """`_build_parsers()`, built on the first call of `main`; parsing
    returns a fresh namespace each time and leaves the parsers unchanged."""
    return _build_parsers()


def _parse_args(argv):
    """The namespace of `argv` (default: the process's arguments) as the
    command's parser reads it.  That parser hands everything after a
    subcommand's name to that subcommand's parser, and the one option of
    its own, -h, counts only before the name; so an argv that starts with a
    subcommand's name is read by that subcommand's parser alone, and any
    other argv, the empty one included, by the command's parser."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        text = _run(args)
    except _CliError as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return exc.exit_code
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
