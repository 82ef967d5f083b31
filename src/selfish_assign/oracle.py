"""Brute-force ground truth for small instances.

Enumerates every assignment (or, for identical-weight tasks, every
per-resource count vector) to find the exact optimum, the cheapest and the
most expensive Nash equilibrium, and the ratios between them.  Also checks
the equilibrium-quality bounds that hold for restricted instance families.

The enumeration is one incremental walk on ints: weights and delays are
scaled by the LCM of their denominators, and states come in ascending
lexicographic order of their assignment.  Over assignments each move of a
task updates the running cost and the per-resource counts, weight sums and
lightest weights in O(1), and a canonical floor (no task below the resource
of the previous task of its weight) skips every assignment but the
lexicographically first of each weight-class count matrix: cost and
equilibrium depend only on that matrix.  A count vector is evaluated in
O(1), its first m-2 counts being summarized once for all ways to split the
rest over the last two resources.  The equilibrium check (only the lightest
task on a resource can be tempted to move) runs only on a state whose cost
would replace the cheapest or the dearest Nash state found so far.  Costs
become Fractions only for the three extremes; `cost` and `is_nash` stay the
public evaluators, which `verify_bounds` re-checks the witnesses with.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .model import (
    Assignment,
    CountAssignment,
    Instance,
    RatioReport,
    _counts_are_nash,
    _lightest_tasks_stay,
    cost,
    is_nash,
)

DEFAULT_MAX_STATES = 10**7


@dataclass(frozen=True)
class EnumerationBudget:
    """Upper bound on the number of states an enumeration may visit."""

    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be positive")


class BudgetExceededError(RuntimeError):
    """Raised instead of silently truncating an enumeration."""

    def __init__(self, required: int, allowed: int):
        super().__init__(
            f"enumeration needs {required} states, budget allows {allowed}"
        )
        self.required = required
        self.allowed = allowed


def _check_budget(required: int, budget: EnumerationBudget):
    if required > budget.max_states:
        raise BudgetExceededError(required, budget.max_states)


def iter_count_vectors(n: int, m: int):
    """All ways to split n tasks over m resources, largest-first-coordinate
    order (so materialized assignments appear in ascending lexicographic
    order).  Iterative: each step moves one task from the last coordinate
    before the final one that has any, and gathers the tail behind it."""
    vec = [n] + [0] * (m - 1)
    while True:
        yield tuple(vec)
        j = m - 2
        while j >= 0 and not vec[j]:
            j -= 1
        if j < 0:
            return
        rest = vec[-1]
        vec[-1] = 0
        vec[j] -= 1
        vec[j + 1] = rest + 1


def enumerate_nash_count_vectors(inst: Instance, budget: EnumerationBudget = None):
    """Exactly the Nash count vectors of an identical-weight instance."""
    if not inst.identical_weights:
        raise ValueError("count-vector enumeration needs identical task weights")
    budget = budget or EnumerationBudget()
    _check_budget(comb(inst.n + inst.m - 1, inst.m - 1), budget)
    delays = inst._kernel.delays
    return [
        CountAssignment(vec)
        for vec in iter_count_vectors(inst.n, inst.m)
        if _counts_are_nash(vec, delays)
    ]


def _walk_count_vectors(n: int, w: int, delays):
    """Cheapest state, cheapest and dearest Nash state over the count
    vectors of n tasks of the scaled-int weight `w` on resources with the
    scaled-int `delays`, as (cost, Assignment) pairs; the cost of a count
    vector is w * sum(c^2 * d).

    A count vector is Nash iff its largest load c*d is at most its smallest
    next load (c+1)*d.  The first m-2 coordinates and what remains for the
    last two form a head from `iter_count_vectors(n, m-1)`; its cost,
    largest load and smallest next load are computed once.  The last two
    coordinates (a, rest-a), a from rest down to 0, then cost O(1) each,
    cost and equilibrium test alike, in the same largest-first order.
    """
    m = len(delays)
    if m == 1:
        return [(w * n * n * delays[0], CountAssignment((n,)).to_assignment())] * 3
    d1, d2 = delays[-2:]
    unbounded = (n + 1) * max(delays)  # above every load
    best = low = high = best_at = low_at = high_at = None
    for *head, rest in iter_count_vectors(n, m - 1):
        base = sum(map(operator.mul, map(operator.mul, head, head), delays))
        loads = list(map(operator.mul, head, delays))
        top = max(loads, default=0)
        cap = min(map(operator.add, loads, delays), default=unbounded)
        if top > cap:
            cap = -1  # the head alone breaks equilibrium
        load1, load2 = (rest + 1) * d1, -d2  # a * d1 and (rest - a) * d2, one step early
        for a in range(rest, -1, -1):
            load1 -= d1
            load2 += d2
            value = base + a * load1 + (rest - a) * load2
            if best is None or value < best:
                best, best_at = value, (*head, a, rest - a)
            if (low is None or value < low or value > high) and (
                load1 <= cap and load2 <= cap and top <= load1 + d1 and top <= load2 + d2
                and load1 <= load2 + d2 and load2 <= load1 + d1
            ):
                if low is None or value < low:
                    low, low_at = value, (*head, a, rest - a)
                if high is None or value > high:
                    high, high_at = value, (*head, a, rest - a)
    return [
        (w * value, CountAssignment(vec).to_assignment()) if vec else None
        for value, vec in ((best, best_at), (low, low_at), (high, high_at))
    ]


def _walk_assignments(weights, delays):
    """Cheapest state, cheapest and dearest Nash state over the assignments
    of tasks with the scaled-int `weights` to resources with the scaled-int
    `delays`, as (cost, Assignment) pairs.

    An explicit-stack odometer over tasks 0..n-2 in itertools.product
    order, with a canonical floor: tasks of equal weight are
    interchangeable, so a task never goes below the resource of the
    previous task of its weight.  The walk then visits exactly the
    lexicographically first assignment of each weight-class count matrix,
    in ascending lexicographic order, and strict comparisons keep the
    witnesses of the full walk.  Placing a weight-w task on resource r adds
    d_r * (S_r + (c_r + 1) * w) to the running cost, where c_r and S_r are
    the count and weight sum there before; removing it takes the same
    amount off.  Each placed task saves the lightest weight it overwrote on
    its resource, and tasks leave in LIFO order, so restoring it undoes the
    move.  The last task is tried on every resource from its floor up
    without being placed: a state whose last task could move somewhere
    cheaper is not Nash, so only the resources where its load is least
    over all resources get the equilibrium check, and only when the
    state's cost would replace a Nash extreme.
    """
    n, m = len(weights), len(delays)
    counts, sums, lightest = [0] * m, [0] * m, [0] * m  # lightest 0: no task
    target = [0] * n  # the first unplaced task's is where it goes next
    # the slot holding each task's floor: the previous task of its weight,
    # or the last task's slot, which the odometer never moves off 0
    above, last_of = [], {}
    for i, w in enumerate(weights):
        above.append(last_of.get(w, n - 1))
        last_of[w] = i
    saved = [0] * n
    total = 0  # cost of the placed tasks
    placed = 0  # tasks 0..placed-1 are on their target
    w_last = weights[-1]
    w_last_delays = [w_last * d for d in delays]
    best = low = high = best_at = low_at = high_at = None
    while True:
        for i in range(placed, n - 1):
            if i > placed:  # a task after the one that moved starts at its floor
                target[i] = target[above[i]]
            r, w = target[i], weights[i]
            c = counts[r] = counts[r] + 1
            total += delays[r] * (sums[r] + c * w)
            sums[r] += w
            kept = saved[i] = lightest[r]
            if not kept or w < kept:
                lightest[r] = w
        # the last task's load on each resource
        loads = list(map(operator.mul, delays, map(w_last.__add__, sums)))
        cheapest = min(loads)
        for r in range(target[above[-1]], m):
            load = loads[r]
            value = total + load + counts[r] * w_last_delays[r]
            if best is None or value < best:
                best, best_at = value, (*target[:-1], r)
            if load == cheapest and (low is None or value < low or value > high):
                # lightest[r] may stay as it is: no task on r at least as
                # heavy as the last one can move anywhere cheaper
                sums[r] += w_last
                nash = _lightest_tasks_stay(delays, sums, lightest)
                sums[r] -= w_last
                if nash:
                    if low is None or value < low:
                        low, low_at = value, (*target[:-1], r)
                    if high is None or value > high:
                        high, high_at = value, (*target[:-1], r)
        for i in range(n - 2, -1, -1):
            r, w = target[i], weights[i]
            c = counts[r]
            counts[r] = c - 1
            sums[r] -= w
            total -= delays[r] * (sums[r] + c * w)
            lightest[r] = saved[i]
            if r < m - 1:
                target[i] = r + 1
                placed = i
                break
        else:
            return [
                (value, Assignment(tuple(r + 1 for r in state))) if state else None
                for value, state in ((best, best_at), (low, low_at), (high, high_at))
            ]


def enumerate_extremes(inst: Instance, budget: EnumerationBudget = None) -> RatioReport:
    """Exact extreme costs over all assignments and over the Nash subset.

    Identical-weight instances are enumerated as count vectors (the cost and
    the equilibrium test only depend on counts), each in O(1); everything
    else as assignments, of which the walk visits only the lexicographically
    first of each weight-class count matrix.  The budget still counts every
    state, m^n assignments or C(n+m-1, m-1) count vectors, and is checked
    before any work.  Both walks run on ints, weights and delays scaled by
    the LCM of their denominators, and visit states in ascending
    lexicographic order of their assignment, so strict comparisons resolve
    witnesses with tied costs to the lexicographically smallest assignment.
    A state gets the equilibrium check only when its cost would replace the
    cheapest or the dearest Nash cost found so far.
    """
    budget = budget or EnumerationBudget()
    kernel = inst._kernel
    if inst.identical_weights:
        _check_budget(comb(inst.n + inst.m - 1, inst.m - 1), budget)
        extremes = _walk_count_vectors(inst.n, kernel.weights[0], kernel.delays)
    else:
        _check_budget(inst.m**inst.n, budget)
        extremes = _walk_assignments(kernel.weights, kernel.delays)
    if extremes[1] is None:
        raise AssertionError("a pure Nash assignment always exists; enumeration is broken")
    (best, best_at), (low, low_at), (high, high_at) = (
        (kernel.rational(value), witness) for value, witness in extremes
    )
    return RatioReport(
        min_cost=best,
        min_nash_cost=low,
        max_nash_cost=high,
        coordination_ratio=high / best,
        nash_gap=high / low,
        opt_gap=low / best,
        min_cost_witness=best_at,
        min_nash_witness=low_at,
        max_nash_witness=high_at,
    )


class BoundCheck(NamedTuple):
    """Outcome of one bound: slack = bound minus achieved value (>= 0 iff ok)."""

    name: str
    satisfied: bool
    slack: Fraction


def verify_bounds(inst: Instance, report: RatioReport):
    """Check every equilibrium-quality bound whose hypothesis the instance meets.

    Bounds: worst-Nash/optimum at most 4x the weight spread (for weights all
    at least 1); worst-Nash/best-Nash at most 3 for identical delays and at
    most 4/3 for identical weights.  Raises if the report does not belong to
    the instance (witnesses are re-evaluated).
    """
    if cost(inst, report.min_cost_witness) != report.min_cost:
        raise ValueError("report does not match instance: optimum witness re-costs differently")
    for witness, claimed in (
        (report.min_nash_witness, report.min_nash_cost),
        (report.max_nash_witness, report.max_nash_cost),
    ):
        if cost(inst, witness) != claimed:
            raise ValueError("report does not match instance: Nash witness re-costs differently")
        if not is_nash(inst, witness):
            raise ValueError("report does not match instance: Nash witness is not a Nash assignment")

    checks = []
    kernel = inst._kernel
    if min(kernel.weights) >= kernel.weight_scale:  # every weight at least 1
        bound = 4 * inst.weight_spread
        checks.append(
            BoundCheck(
                "coordination-ratio-weight-range",
                report.coordination_ratio <= bound,
                bound - report.coordination_ratio,
            )
        )
    if inst.identical_delays:
        bound = Fraction(3)
        checks.append(
            BoundCheck(
                "nash-gap-identical-delays",
                report.nash_gap <= bound,
                bound - report.nash_gap,
            )
        )
    if inst.identical_weights:
        bound = Fraction(4, 3)
        checks.append(
            BoundCheck(
                "nash-gap-identical-weights",
                report.nash_gap <= bound,
                bound - report.nash_gap,
            )
        )
    return checks
