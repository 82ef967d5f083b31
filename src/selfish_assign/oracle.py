"""Exact ground truth for small instances.

Finds the exact optimum, the cheapest and the most expensive Nash
equilibrium, and the ratios between them.  Also checks the
equilibrium-quality bounds that hold for restricted instance families.

Identical-weight instances take a closed form on the instance's ints: the
optimum is `find_opt`'s count vector and the cheapest Nash vector
`find_opt_nash`'s.  Every Nash count vector has the same largest load L,
the n-th smallest of the loads c * d_j, so the Nash vectors are one lower
vector plus one task on h of the resources whose delay divides L, and the
dearest raises the h smallest delays: O(m log m) int operations, and O(n)
to write out the witnesses, with no budget: nothing is enumerated.

Other instances are enumerated by one incremental walk on ints: weights
and delays are scaled by the LCM of their denominators, and states come in
ascending lexicographic order of their assignment.  Each move of a task
updates the running cost and the per-resource counts, weight sums and
lightest weights in O(1).  Permuting tasks of equal weight or resources of
equal delay changes neither cost nor equilibrium, and the walk cuts states
by two rules that the lexicographically smallest assignment of each such
orbit obeys: a canonical floor (no task below the resource of the previous
task of its weight), and within each run of equal delays no task on an
unused resource while an earlier one of the run is unused.  It visits one
state per orbit when only weights or only delays tie, and can visit more
when both do: weights (2, 2, 1) on delays (2, 2) give four states for three
orbits.  The equilibrium check (only the
lightest task on a resource can be tempted to move) runs only on a state
whose cost would replace the cheapest or the dearest Nash state found so
far.  Strict comparisons in lexicographic order keep the first state of
each extreme cost, the minimum of its own orbit, so witnesses are those of
a full enumeration: the lexicographically smallest assignment of each
extreme cost.  Costs become Fractions only for
the three extremes; `cost` and `is_nash` stay the public evaluators, which
`verify_bounds` re-checks the witnesses with.  Every optimum and every Nash
state leaves empty the resources slower than d_(n), the n-th smallest
delay, and a state on the rest is Nash there iff it is Nash on all m, so
the walk runs on the first m' resources alone, those of delay at most
d_(n) (`algorithms._usable`): at most m'^n assignments.  The one budget, an
int of states, bounds the walk: it counts all m^n assignments, before any
work.
"""

import operator
from fractions import Fraction
from typing import NamedTuple

from .algorithms import _fewest_tasks, _lowest_index, _marginal_counts, _shown_count, _usable
from .model import Assignment, CountAssignment, Instance, RatioReport, cost, is_nash

DEFAULT_MAX_STATES = 10**7


class BudgetExceededError(RuntimeError):
    """Raised instead of silently truncating an enumeration."""

    def __init__(self, required: int, allowed: int):
        super().__init__(f"enumeration needs {_shown_count(required)} states,"
                         f" budget allows {_shown_count(allowed)}")
        self.required = required
        self.allowed = allowed


def _nash_level(cheapest, delays):
    """The Nash count vectors of identical tasks on the scaled-int `delays`
    (non-decreasing), given `cheapest`, `find_opt_nash`'s vector, as
    (lower, flexible, h): each is `lower` with one more task on h of the
    resources listed in `flexible`.

    A count vector with largest load L is Nash iff c_j * d_j <= L <=
    (c_j + 1) * d_j for every j, so c_j is floor(L / d_j) or, where d_j
    divides L (a flexible resource), L / d_j - 1; with lower_j =
    ceil(L / d_j) - 1 = floor((L - 1) / d_j), some flexible resource must
    take the upper count for the largest load to be L.  Every Nash vector
    has the same L: for L < L', floor(L / d) <= ceil(L' / d) - 1, so a
    vector of level L would lie at or below one of level L' in every
    coordinate, and as both sum to n they would be one vector with two
    largest loads.  That L is the n-th smallest of the loads c * d_j
    (c >= 1), the largest load of the greedy that places each task where
    its own load is least, whichever way it breaks ties; h = n - sum(lower)
    is then between 1 and the number of flexible resources.
    """
    top = max(map(operator.mul, cheapest, delays))
    lower = list(map((top - 1).__floordiv__, delays))
    flexible = [j for j, rest in enumerate(map(top.__mod__, delays)) if not rest]
    return lower, flexible, sum(cheapest) - sum(lower)


def _count_vector_extremes(n: int, w: int, delays):
    """Cheapest state, cheapest and dearest Nash state over the count
    vectors of n tasks of the scaled-int weight `w` on resources with the
    scaled-int `delays` (non-decreasing), as (cost, Assignment) pairs; the
    cost of a count vector is w * sum(c^2 * d).  O(m log m) int
    operations, and O(n) to write out the witnesses.

    Each witness is the lexicographically largest count vector of its cost,
    which is what an enumeration of the count vectors in descending order
    (their assignments ascending) keeps with strict comparisons.  The
    optimum is `find_opt`'s vector: its heap gives equal marginals to the
    lowest index.  Every Nash vector lies on one level (`_nash_level`), and
    raising flexible resource j from L / d_j - 1 to L / d_j tasks adds
    (2L - d_j) to the cost, so the cheapest Nash vector raises the h
    largest delays and the dearest the h smallest, each the earliest index
    among equal delays.  The cheapest is `find_opt_nash`'s vector: its last
    h placements, at marginal L, go to the flexible resources in order of
    fewest tasks, that is of largest delay, then of lowest index.
    """
    best = _marginal_counts(delays, n, 2, _lowest_index)
    cheapest = _marginal_counts(delays, n, 1, _fewest_tasks)
    lower, flexible, h = _nash_level(cheapest, delays)
    dearest = lower.copy()
    for j in flexible[:h]:
        dearest[j] += 1
    witnesses = {}  # one Assignment per distinct vector
    extremes = []
    for vec in map(tuple, (best, cheapest, dearest)):
        if vec not in witnesses:
            witnesses[vec] = CountAssignment(vec).to_assignment()
        value = sum(map(operator.mul, map(operator.mul, vec, vec), delays))
        extremes.append((w * value, witnesses[vec]))
    return extremes


def _lightest_tasks_stay(delays, sums, lightest) -> bool:
    """The walk's equilibrium check on per-resource weight sums and lightest
    weights (0: empty): for each occupied resource r, slowest first, a scan
    for a move of its lightest task below d_r * S_r, stopping at the first.
    On the walk's small, mostly non-equilibrium states this is cheaper than
    the envelope of the move lines that `is_nash` builds."""
    for resource in range(len(delays) - 1, -1, -1):
        w = lightest[resource]
        if w:
            own = delays[resource] * sums[resource]
            for d, s in zip(delays, sums):
                if d * (s + w) < own:
                    return False
    return True


def _walk_assignments(weights, delays):
    """Cheapest state, cheapest and dearest Nash state over the assignments
    of tasks with the scaled-int `weights` to resources with the scaled-int
    `delays`, as (cost, Assignment) pairs.  The walk runs on the first m'
    resources (`_usable`), where every extreme lies, the rest left empty:
    it visits at most m'^n assignments.

    An explicit-stack odometer over tasks 0..n-2 in itertools.product
    order, with two canonical rules.  Tasks of equal weight are
    interchangeable, so a task never goes below the resource of the
    previous task of its weight (the floor).  Resources of equal delay
    (consecutive, as delays are sorted) are interchangeable too, so a task
    goes to an unused resource only if every earlier resource of its delay
    is used, and the used resources of each delay class form a prefix of
    it; where the odometer would move a task from an unused r to an unused
    r + 1 of the same delay, it goes on at the next delay class instead.
    Relabelling each class's resources in order of first use gives an
    assignment no larger, and swapping two out-of-order tasks of equal
    weight a smaller one, so the lexicographically smallest assignment of
    each orbit obeys both rules and is visited, in ascending lexicographic
    order.  When weights and delays both tie, other states of an orbit
    can obey both rules too and are visited as well; strict comparisons
    keep the first state of each extreme cost, its orbit's minimum, so the
    witnesses are those of the full walk.  Distinct delays never trigger
    the second rule.

    Placing a weight-w task on resource r adds d_r * (S_r + (c_r + 1) * w)
    to the running cost, where c_r and S_r are the count and weight sum
    there before; removing it takes the same amount off.  Each placed task
    saves the lightest weight it overwrote on its resource, and tasks leave
    in LIFO order, so restoring it undoes the move.  The last task is tried
    on every resource the two rules allow, from its floor up, without being
    placed: a state whose last task could move somewhere cheaper is not
    Nash, so only the resources where its load is least over all resources
    get the equilibrium check, and only when the state's cost would replace
    a Nash extreme.
    """
    n = len(weights)
    m = _usable(delays, n)
    delays = delays[:m]
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
    # tied[r]: resource r has the delay of resource r - 1 (delays are sorted)
    tied = [False, *map(operator.eq, delays, delays[1:])]
    ties = any(tied)
    top, unwind = m - 1, range(n - 2, -1, -1)
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
        resources = range(target[above[-1]], m)
        if ties:  # the first unused resource of a class stands for the rest
            resources = [r for r in resources if not tied[r] or counts[r - 1]]
        for r in resources:
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
        for i in unwind:
            r, w = target[i], weights[i]
            c = counts[r]
            counts[r] = c - 1
            sums[r] -= w
            total -= delays[r] * (sums[r] + c * w)
            lightest[r] = saved[i]
            if r < top:
                r += 1
                if tied[r] and c == 1 and not counts[r]:
                    # r - 1 and r are unused and of one delay, and so is the
                    # rest of the class: go on at the next class
                    r += 1
                    while r < m and tied[r]:
                        r += 1
                    if r == m:
                        continue
                target[i] = r
                placed = i
                break
        else:
            return [
                (value, Assignment._built(tuple(r + 1 for r in state))) if state else None
                for value, state in ((best, best_at), (low, low_at), (high, high_at))
            ]


def enumerate_extremes(inst: Instance, max_states: int = DEFAULT_MAX_STATES) -> RatioReport:
    """Exact extreme costs over all assignments and over the Nash subset.

    Identical-weight instances take the closed form of
    `_count_vector_extremes` (cost and equilibrium only depend on the count
    vector): `find_opt`'s optimum and the two extremes of the one Nash
    level, O(m log m) int operations.  Everything else is enumerated as
    assignments, on ints, weights and delays scaled by the LCM of their
    denominators.  Permuting tasks of equal weight or resources of equal
    delay changes neither cost nor equilibrium, and the walk visits the
    lexicographically smallest assignment of each such orbit, in ascending
    lexicographic order, with more states of some orbits when weights and
    delays both tie.  Strict comparisons resolve witnesses with tied
    costs to the lexicographically smallest assignment, its orbit's
    minimum; a state gets the equilibrium check only when its cost would
    replace the cheapest or the dearest Nash cost found so far.  Either way the
    witnesses are those of a full enumeration.  `max_states` bounds the
    walk alone: more than that many assignments, m^n, raise
    BudgetExceededError before any work, though the walk visits at most
    m'^n of them, on the first m' resources (`algorithms._usable`); the
    closed form takes no budget.
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    kernel = inst._kernel
    if inst.identical_weights:
        extremes = _count_vector_extremes(inst.n, kernel.weights[0], kernel.delays)
    else:
        states = inst.m**inst.n
        if states > max_states:
            raise BudgetExceededError(states, max_states)
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

    table = (  # (name, hypothesis, value, bound)
        ("coordination-ratio-weight-range",
         # every weight at least 1
         inst._weight_summary.least >= inst._kernel.weight_scale,
         report.coordination_ratio, 4 * inst.weight_spread),
        ("nash-gap-identical-delays", inst.identical_delays, report.nash_gap, Fraction(3)),
        ("nash-gap-identical-weights", inst.identical_weights, report.nash_gap, Fraction(4, 3)),
    )
    return [
        BoundCheck(name, value <= bound, bound - value)
        for name, holds, value, bound in table
        if holds
    ]
