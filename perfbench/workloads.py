"""Workload inputs and run plans.

Each workload is a pure function of (name, seed): `build` writes every
instance and assignment file the workload needs into a fresh directory and
returns the list of CLI runs (one `Op` per run) together with the exact
weights and delays of every instance, which the correctness checks use.

Grid-rational instances are written by the program's own `gen random --out`
command, run in-process; every other instance comes from this module's RNG
and is written with `dumps_instance`.  The seed draws weights and delays;
sizes and class counts are fixed per workload (evenly spaced over the
workload's ranges, n and m paired the same way every time), so every seed
gives a pass the same shape and about the same work.
"""

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from selfish_assign import cli
from selfish_assign.model import Instance, dumps_instance

WORKLOADS = ("greedy-large", "dp-exact", "oracle-sweep", "wide-rationals")


@dataclass
class Inst:
    """An instance as the benchmark knows it: delays sorted, as in the file."""

    path: str
    weights: list
    delays: list

    @property
    def n(self):
        return len(self.weights)

    @property
    def m(self):
        return len(self.delays)

    @property
    def unit_weights(self):
        return all(w == 1 for w in self.weights)

    @property
    def states(self):
        """States the oracle enumerates: count vectors or full assignments."""
        if len(set(self.weights)) == 1:
            return comb(self.n + self.m - 1, self.m - 1)
        return self.m**self.n


@dataclass
class Op:
    """One CLI run: its argv, the command, and the exit code it must give;
    `route` is the algorithm `solve` must report, where the plan fixes it."""

    label: str
    command: str
    argv: list
    inst: Inst
    expect_exit: int = 0
    assignment: list = None
    route: str = None


@dataclass
class Plan:
    ops: list
    gen_s: float  # seconds spent inside `gen random --out` runs


class _Builder:
    def __init__(self, name, seed, directory):
        self.rng = random.Random(f"{name}/{seed}")
        self.directory = directory
        self.ops = []
        self.gen_s = 0.0

    def path(self, stem):
        return os.path.join(self.directory, stem + ".json")

    def gen_random(self, stem, n, m, weights, delays):
        """Write a grid-rational instance with the program's `gen` command."""
        path = self.path(stem)
        argv = ["gen", "random", "--n", str(n), "--m", str(m), "--weights", weights,
                "--delays", delays, "--seed", str(self.rng.randrange(1 << 31)),
                "--out", path]
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        self.gen_s += time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"set-up run {' '.join(argv)} exited {code}")
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return Inst(path, [Fraction(w) for w in doc["weights"]],
                    [Fraction(d) for d in doc["delays"]])

    def write(self, stem, weights, delays):
        """Write an instance drawn from this module's RNG."""
        path = self.path(stem)
        inst = Inst(path, list(weights), sorted(delays))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_instance(Instance(tuple(inst.weights), tuple(inst.delays))))
        return inst

    def write_assignment(self, stem, target):
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(target, handle)
        return path

    def op(self, label, command, inst, *flags, expect_exit=0, assignment=None, route=None):
        argv = [command, inst.path]
        if assignment is not None:
            argv.append(self.write_assignment(label, assignment))
        argv.extend(flags)
        self.ops.append(Op(label, command, argv, inst, expect_exit, assignment, route))

    def greedy_mix(self, unit, mixed):
        """Unit-weight instances run `solve` and `nash --mode best`; mixed ones
        run `nash` and `verify` on a near-equilibrium and a round-robin
        assignment."""
        for k, inst in enumerate(unit):
            self.op(f"u{k:02d}.solve", "solve", inst)
            self.op(f"u{k:02d}.nash", "nash", inst, "--mode", "best")
        for k, inst in enumerate(mixed):
            self.op(f"x{k:02d}.nash", "nash", inst)
            few = self.near_equilibrium(inst)
            self.op(f"x{k:02d}.verify-few", "verify", inst, assignment=few)
            rr = [i % inst.m + 1 for i in range(inst.n)]
            self.op(f"x{k:02d}.verify-rr", "verify", inst, assignment=rr)

    def near_equilibrium(self, inst):
        """Heaviest-first placement in floating point, then about 1% of the
        tasks moved at random, so `verify` finds a few improving moves."""
        weights = [float(w) for w in inst.weights]
        delays = [float(d) for d in inst.delays]
        sums = [0.0] * inst.m
        target = [0] * inst.n
        for i in sorted(range(inst.n), key=lambda i: (-weights[i], i)):
            r = min(range(inst.m), key=lambda r: delays[r] * (sums[r] + weights[i]))
            sums[r] += weights[i]
            target[i] = r + 1
        for _ in range(max(1, inst.n // 100)):
            target[self.rng.randrange(inst.n)] = self.rng.randrange(inst.m) + 1
        return target

    def wide_rational(self):
        return Fraction(self.rng.randrange(1, 400), self.rng.randrange(1, 98))


def _grid(lo, hi, points=9):
    """The evenly spaced grid `gen random` samples a range from."""
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + j * (hi - lo) / (points - 1) for j in range(points)]


def _sizes(lo, hi, count):
    """`count` integers spread evenly over lo..hi, ascending."""
    return [lo + (hi - lo + 1) * k // count for k in range(count)]


def _shapes(n_range, m_range, count):
    """(n, m) pairs: n ascending, m in a fixed interleaved order so that the
    largest n do not all meet the largest m."""
    ms = _sizes(*m_range, count)
    return list(zip(_sizes(*n_range, count), (ms[k * 11 % count] for k in range(count))))


def _greedy_large(b):
    unit = [
        b.gen_random(f"u{k:02d}", n, m, "1:1", "1:4")
        for k, (n, m) in enumerate(_shapes((300, 900), (8, 25), 30))
    ]
    mixed = [
        b.gen_random(f"x{k:02d}", n, m, "1:9", "1:4")
        for k, (n, m) in enumerate(_shapes((90, 210), (6, 16), 20))
    ]
    b.greedy_mix(unit, mixed)


def _wide_rationals(b):
    unit = []
    for k, (n, m) in enumerate(_shapes((300, 900), (10, 40), 20)):
        unit.append(b.write(f"u{k:02d}", [Fraction(1)] * n, [b.wide_rational() for _ in range(m)]))
    mixed = []
    for k, (n, m) in enumerate(_shapes((60, 180), (4, 10), 20)):
        mixed.append(b.write(f"x{k:02d}", [b.wide_rational() for _ in range(n)],
                             [b.wide_rational() for _ in range(m)]))
    b.greedy_mix(unit, mixed)


def _distinct(b, values, count):
    """`count` values drawn from `values`, at least two of them distinct."""
    while True:
        drawn = [b.rng.choice(values) for _ in range(count)]
        if len(set(drawn)) > 1:
            return drawn


def _dp_exact(b):
    delay_grid, weight_grid = _grid(1, 4), _grid(1, 9)
    # identical delays -> dp_identical_delays
    for k, (n, m) in enumerate(_shapes((15, 35), (2, 5), 30)):
        value = b.rng.choice(delay_grid)
        inst = b.gen_random(f"i{k:02d}", n, m, "1:9", f"{value}:{value}")
        b.op(f"i{k:02d}.solve", "solve", inst, route="dp-delays")
    # two to four delay classes, resources spread evenly over them -> dp_few_delays
    for k, (n, m) in enumerate(_shapes((10, 24), (3, 7), 30)):
        classes = b.rng.sample(delay_grid, min(2 + k % 3, m))
        delays = [classes[r % len(classes)] for r in range(m)]
        inst = b.write(f"d{k:02d}", _distinct(b, weight_grid, n), delays)
        b.op(f"d{k:02d}.solve", "solve", inst, route="dp-delays")
    # two or three weight classes, tasks spread evenly over them, more than
    # four distinct delays -> dp_few_weights
    for k, (n, m) in enumerate(_shapes((6, 10), (5, 6), 20)):
        classes = b.rng.sample(weight_grid, 2 + k % 2)
        weights = [classes[i % len(classes)] for i in range(n)]
        b.rng.shuffle(weights)
        inst = b.write(f"w{k:02d}", weights, b.rng.sample(delay_grid, m))
        b.op(f"w{k:02d}.solve", "solve", inst, route="dp-weights")
    # explicit approximation: even runs round weights, odd runs round delays.
    # The rounded side spans its grid evenly, so rounding gives the DP the
    # same classes on every seed; the other side spans 1..9, so it is never
    # the narrower one.
    for k, (n, m) in enumerate(_shapes((6, 10), (5, 6), 20)):
        narrow, wide = _grid(1, 2), _grid(1, 9)
        count = (n, m) if k % 2 == 0 else (m, n)
        rounded = [narrow[i * len(narrow) // count[0]] for i in range(count[0])]
        b.rng.shuffle(rounded)
        other = [wide[0], wide[-1]] + [b.rng.choice(wide) for _ in range(count[1] - 2)]
        b.rng.shuffle(other)
        weights, delays = (rounded, other) if k % 2 == 0 else (other, rounded)
        inst = b.write(f"a{k:02d}", weights, delays)
        epsilon = "1" if k % 4 < 2 else "1/2"
        b.op(f"a{k:02d}.solve", "solve", inst, "--algorithm", "approx", "--epsilon", epsilon,
             route="approx")


#: Largest state count an oracle-sweep instance may have.
ORACLE_MAX_STATES = 2200

#: Number of oracle-sweep instances that also run `ratio` with a budget
#: below their state count (expected exit code 4).
ORACLE_BUDGET_RUNS = 6


def _oracle_shapes(identical_weights):
    """All (n, m) with 2 <= m <= 6 and at most ORACLE_MAX_STATES states,
    ordered by state count."""
    shapes = []
    for m in range(2, 7):
        for n in range(2, 80):
            states = comb(n + m - 1, m - 1) if identical_weights else m**n
            if states <= ORACLE_MAX_STATES:
                shapes.append((states, n, m))
    return [(n, m) for _, n, m in sorted(shapes)]


def _oracle_sweep(b):
    # the acceptance-sweep mix: unit weights, one shared delay, fully mixed
    kinds = (
        ("u", True, lambda: ("1:1", "1:4")),
        ("i", False, lambda: ("1:4", "{0}:{0}".format(b.rng.choice(_grid(1, 4, 13))))),
        ("x", False, lambda: ("1:4", "1:4")),
    )
    insts = []
    for prefix, identical, ranges in kinds:
        shapes = _oracle_shapes(identical)
        for k, index in enumerate(_sizes(0, len(shapes) - 1, 20)):
            n, m = shapes[index]
            weights, delays = ranges()
            inst = b.gen_random(f"{prefix}{k:02d}", n, m, weights, delays)
            insts.append((f"{prefix}{k:02d}", inst))
    for stem, inst in insts:
        b.op(f"{stem}.ratio", "ratio", inst)
        b.op(f"{stem}.solve", "solve", inst, "--epsilon", "1/2")
    # mixed-kind instances with the most states run again under too small a budget
    over = sorted((inst.states, stem, inst) for stem, inst in insts if stem.startswith("x"))
    for states, stem, inst in over[-ORACLE_BUDGET_RUNS:]:
        b.op(f"{stem}.ratio-budget", "ratio", inst, "--budget", str(states // 2), expect_exit=4)


_BUILDERS = {
    "greedy-large": _greedy_large,
    "dp-exact": _dp_exact,
    "oracle-sweep": _oracle_sweep,
    "wide-rationals": _wide_rationals,
}


def build(name, seed, directory):
    """Write the inputs of workload `name` for `seed` into `directory`
    (which must exist and be empty) and return its plan."""
    b = _Builder(name, seed, directory)
    _BUILDERS[name](b)
    return Plan(b.ops, b.gen_s)
