"""Constructive algorithms for the assignment game.

Exact solvers: two O(n + m log m) greedy builders for identical-weight tasks
(one for the optimum, one for the cheapest Nash equilibrium), seeded in closed
form from the fractional optimum, an O(n log m + classes * m) greedy
equilibrium builder for arbitrary weights, and three dynamic programs
covering identical delays, few distinct delays, and few distinct weights.
Approximate solvers round weights (or delays) up onto a geometric grid and
run the matching DP; the result, re-costed under the original instance, is
within 1+epsilon of optimal.  Everything is exact rational arithmetic.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Assignment, CountAssignment, Instance, cost

#: Default bound on the number of distinct weight/delay values the DPs accept.
DEFAULT_DISTINCT_VALUES = 4

#: Hard cap on DP table entries; guards against accidental blow-ups.
MAX_TABLE_STATES = 10**8

_INFINITY = float("inf")


@dataclass(frozen=True)
class DPSolution:
    """An optimal (or approximate) assignment with its exact cost."""

    cost: Fraction
    assignment: Assignment


@dataclass(frozen=True)
class RoundedInstance:
    """An instance whose weights (or delays) were rounded up onto a geometric
    grid of at most k+1 values, each within a factor 1+epsilon of the
    original."""

    original: Instance
    rounded: Instance
    k: int
    epsilon: Fraction


def _require_identical_weights(inst: Instance):
    if not inst.identical_weights:
        raise ValueError("this algorithm needs all task weights to be identical")


def _marginal_greedy(inst: Instance, slope: int, key) -> CountAssignment:
    """Place the n identical tasks one at a time, each on a resource whose
    next marginal (slope * c_k + 1) * d_k is lowest, ties broken by
    key(marginal, c_k, k); the heap holds one entry per resource.

    Each resource's marginals grow with c_k, so the placements are the n
    smallest marginals in heap order.  Those strictly below the fractional
    threshold slope * (n - m) / throughput are a prefix of that order, fewer
    than n of them, and are counted in closed form; the heap places the
    rest, at most 2m tasks.
    """
    _require_identical_weights(inst)
    delays = inst.delays
    threshold = Fraction(slope * (inst.n - inst.m)) / inst.throughput
    counts = [max(0, math.ceil((threshold / d - 1) / slope)) for d in delays]
    heap = [key((slope * c + 1) * d, c, k) for k, (c, d) in enumerate(zip(counts, delays))]
    heapq.heapify(heap)
    for _ in range(inst.n - sum(counts)):
        k = heap[0][-1]
        counts[k] += 1
        heapq.heapreplace(heap, key((slope * counts[k] + 1) * delays[k], counts[k], k))
    return CountAssignment(tuple(counts))


def find_opt(inst: Instance) -> CountAssignment:
    """Lowest-cost assignment for identical-weight tasks.

    Places one task at a time on a resource k minimizing (2*c_k + 1) * d_k,
    which is proportional to the cost increase of adding a task to k; ties
    go to the lowest resource index.  The placements below the fractional
    optimum's marginal 2(n - m)/throughput are counted in closed form, so
    the heap makes at most 1.5m steps: O(n + m log m).
    """
    return _marginal_greedy(inst, 2, lambda marginal, c, k: (marginal, k))


def find_opt_nash(inst: Instance) -> CountAssignment:
    """Cheapest Nash assignment for identical-weight tasks.

    Places one task at a time on a resource k minimizing (c_k + 1) * d_k,
    proportional to the load the new task would incur, which keeps every
    prefix in equilibrium; ties break by fewest tasks, then lowest resource
    index.  The placements below (n - m)/throughput are counted in closed
    form, so the heap makes at most 2m steps: O(n + m log m).
    """
    return _marginal_greedy(inst, 1, lambda marginal, c, k: (marginal, c, k))


def greedy_nash(inst: Instance) -> Assignment:
    """A Nash assignment for arbitrary weights.

    Considers tasks in non-increasing weight order (ties by task index) and
    puts each on the resource where it would incur the least load (ties by
    lowest resource index).  Because later tasks are never heavier, no task
    ever gains by moving afterwards, so the result is an equilibrium.  Within
    a weight class a heap keyed by (load the task would incur, resource)
    finds that resource; it is rebuilt when the weight changes:
    O(n log m + classes * m).
    """
    delays, weights = inst.delays, inst.weights
    sums = [Fraction(0)] * inst.m
    target = [0] * inst.n
    heap, w = [], None
    # a stable sort keeps equal weights in task order
    for i in sorted(range(inst.n), key=weights.__getitem__, reverse=True):
        if weights[i] != w:
            w = weights[i]
            heap = [(d * (s + w), r) for r, (d, s) in enumerate(zip(delays, sums))]
            heapq.heapify(heap)
        r = heap[0][1]
        sums[r] += w
        heapq.heapreplace(heap, (delays[r] * (sums[r] + w), r))
        target[i] = r + 1
    return Assignment(tuple(target))


def _by_descending_weight(inst: Instance):
    """Task indices sorted by non-increasing weight, plus the weights and
    their prefix sums in that order."""
    order = sorted(range(inst.n), key=lambda i: (-inst.weights[i], i))
    weights = [inst.weights[i] for i in order]
    prefix = [Fraction(0)]
    for w in weights:
        prefix.append(prefix[-1] + w)
    return order, weights, prefix


def dp_identical_delays(inst: Instance) -> DPSolution:
    """Optimal assignment when all resource delays are equal, any weights.

    With tasks sorted by non-increasing weight there is an optimal assignment
    whose resource groups are consecutive runs of that order, so a table over
    (tasks handled, resources used) with the best size of the last group
    solves the problem in O(n^2 m).
    """
    if not inst.identical_delays:
        raise ValueError("this dynamic program needs all resource delays to be identical")
    d = inst.delays[0]
    n, m = inst.n, inst.m
    order, _, prefix = _by_descending_weight(inst)

    table = [[_INFINITY] * (m + 1) for _ in range(n + 1)]
    choice = [[0] * (m + 1) for _ in range(n + 1)]
    for k in range(m + 1):
        table[0][k] = Fraction(0)
    for k in range(1, m + 1):
        for j in range(1, n + 1):
            best, best_size = _INFINITY, 0
            for size in range(j + 1):
                prev = table[j - size][k - 1]
                if prev == _INFINITY:
                    continue
                candidate = prev + size * d * (prefix[j] - prefix[j - size])
                if candidate < best:
                    best, best_size = candidate, size
            table[j][k] = best
            choice[j][k] = best_size

    target = [0] * n
    j = n
    for k in range(m, 0, -1):
        size = choice[j][k]
        for pos in range(j - size, j):
            target[order[pos]] = k
        j -= size
    return DPSolution(table[n][m], Assignment(tuple(target)))


def _delay_classes(inst: Instance):
    """Distinct delay values with their multiplicities and resource indices."""
    values = list(inst.distinct_delay_values)
    members = {v: [] for v in values}
    for r, d in enumerate(inst.delays):
        members[d].append(r + 1)
    return values, [len(members[v]) for v in values], [members[v] for v in values]


def dp_few_delays(inst: Instance, alpha: int = DEFAULT_DISTINCT_VALUES) -> DPSolution:
    """Optimal assignment when the delays take at most `alpha` distinct values.

    Extends the identical-delay program: the state counts how many resources
    of each delay class have been used, and each step peels the lightest
    remaining run of tasks onto a resource of some class.
    """
    values, mult, members = _delay_classes(inst)
    beta = len(values)
    if beta > alpha:
        raise ValueError(
            f"instance has {beta} distinct delay values, above the bound {alpha}"
        )
    n = inst.n
    states = (n + 1) * _product(c + 1 for c in mult)
    if states > MAX_TABLE_STATES:
        raise ValueError(f"dynamic programming table would need {states} states")

    order, _, prefix = _by_descending_weight(inst)
    zero = (0,) * beta
    table = {zero: [Fraction(0)] + [_INFINITY] * n}
    choice = {}
    vectors = sorted(
        itertools.product(*(range(c + 1) for c in mult)), key=lambda v: sum(v)
    )
    for vec in vectors:
        if vec == zero:
            continue
        row = [_INFINITY] * (n + 1)
        row[0] = Fraction(0)
        for cls in range(beta):
            if vec[cls] == 0:
                continue
            prev_vec = vec[:cls] + (vec[cls] - 1,) + vec[cls + 1:]
            prev_row = table[prev_vec]
            delay = values[cls]
            for j in range(1, n + 1):
                for size in range(j + 1):
                    prev = prev_row[j - size]
                    if prev == _INFINITY:
                        continue
                    candidate = prev + size * delay * (prefix[j] - prefix[j - size])
                    if candidate < row[j]:
                        row[j] = candidate
                        choice[(j, vec)] = (size, cls)
        table[vec] = row

    full = tuple(mult)
    target = [0] * n
    remaining = [list(idx) for idx in members]
    j, vec = n, full
    while vec != zero:
        if j == 0:
            # leftover resources stay empty, consume them class by class
            cls = next(c for c in range(beta) if vec[c] > 0)
            size = 0
        else:
            size, cls = choice[(j, vec)]
        resource = remaining[cls].pop()
        for pos in range(j - size, j):
            target[order[pos]] = resource
        j -= size
        vec = vec[:cls] + (vec[cls] - 1,) + vec[cls + 1:]
    return DPSolution(table[full][n], Assignment(tuple(target)))


def _weight_classes(inst: Instance):
    """Distinct weight values with their counts and task indices."""
    values = list(inst.distinct_weight_values)
    members = {v: [] for v in values}
    for i, w in enumerate(inst.weights):
        members[w].append(i)
    return values, [len(members[v]) for v in values], [members[v] for v in values]


def dp_few_weights(inst: Instance, alpha: int = DEFAULT_DISTINCT_VALUES) -> DPSolution:
    """Optimal assignment when the weights take at most `alpha` distinct values.

    The state is the number of tasks of each weight class already placed on
    the first k resources; each step chooses how many tasks of each class the
    k-th resource receives.
    """
    values, counts, members = _weight_classes(inst)
    beta = len(values)
    if beta > alpha:
        raise ValueError(
            f"instance has {beta} distinct weight values, above the bound {alpha}"
        )
    states = (inst.m + 1) * _product(c + 1 for c in counts)
    if states > MAX_TABLE_STATES:
        raise ValueError(f"dynamic programming table would need {states} states")

    zero = (0,) * beta
    vectors = list(itertools.product(*(range(c + 1) for c in counts)))
    previous = {vec: (Fraction(0) if vec == zero else _INFINITY) for vec in vectors}
    choice = {}
    for k in range(1, inst.m + 1):
        delay = inst.delays[k - 1]
        current = {}
        for vec in vectors:
            best, best_take = _INFINITY, zero
            for take in itertools.product(*(range(c + 1) for c in vec)):
                prev = previous[tuple(a - b for a, b in zip(vec, take))]
                if prev == _INFINITY:
                    continue
                group_size = sum(take)
                group_weight = sum(
                    (v * t for v, t in zip(values, take)), Fraction(0)
                )
                candidate = prev + group_size * delay * group_weight
                if candidate < best:
                    best, best_take = candidate, take
            current[vec] = best
            choice[(k, vec)] = best_take
        previous = current

    full = tuple(counts)
    groups = []
    vec = full
    for k in range(inst.m, 0, -1):
        take = choice[(k, vec)]
        groups.append(take)
        vec = tuple(a - b for a, b in zip(vec, take))
    groups.reverse()

    target = [0] * inst.n
    queues = [list(idx) for idx in members]
    for k, take in enumerate(groups, start=1):
        for cls, how_many in enumerate(take):
            for _ in range(how_many):
                target[queues[cls].pop(0)] = k
    return DPSolution(previous[full], Assignment(tuple(target)))


def _product(factors) -> int:
    out = 1
    for f in factors:
        out *= f
    return out


def _int_kth_root(x: int, k: int):
    """Exact integer k-th root of x >= 0, or None if x is not a perfect power."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or k == 1:
        return x
    root = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        refined = ((k - 1) * root + x // root ** (k - 1)) // k
        if refined >= root:
            break
        root = refined
    return root if root**k == x else None


def _rational_kth_root(q: Fraction, k: int):
    """Exact k-th root of a positive rational, or None if irrational."""
    num = _int_kth_root(q.numerator, k)
    if num is None:
        return None
    den = _int_kth_root(q.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def _round_up_geometric(values, epsilon: Fraction):
    """Round each value up onto the geometric grid lo * (hi/lo)**(t/k).

    k is the smallest positive integer with (1 + epsilon)**k >= hi/lo, so
    consecutive grid points differ by at most a factor 1 + epsilon.  Each
    value maps to the smallest grid point at or above it; the grid point is
    materialized exactly when rational, otherwise as the largest original
    value in the same grid cell (still an upper bound within 1 + epsilon).
    Returns (rounded values in input order, k).
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = min(values), max(values)
    ratio = hi / lo
    if ratio == 1:
        return list(values), 1
    k = 1
    power = 1 + epsilon
    while power < ratio:
        k += 1
        power *= 1 + epsilon

    def cell_index(v: Fraction) -> int:
        # smallest t in 0..k with v <= lo * ratio**(t/k), compared exactly
        # via v**k <= lo**(k-t) * hi**t
        vk = v**k
        for t in range(k + 1):
            if vk <= lo ** (k - t) * hi**t:
                return t
        raise AssertionError("value above the top of its own grid")

    cells = {}
    for v in set(values):
        cells.setdefault(cell_index(v), []).append(v)
    rounded_value = {}
    for t, cell_values in cells.items():
        grid_point = _rational_kth_root(lo ** (k - t) * hi**t, k)
        rounded = grid_point if grid_point is not None else max(cell_values)
        for v in cell_values:
            rounded_value[v] = rounded
    return [rounded_value[v] for v in values], k


def round_weights(inst: Instance, epsilon) -> RoundedInstance:
    """Round task weights up onto a geometric grid of at most k+1 values."""
    epsilon = Fraction(epsilon)
    rounded, k = _round_up_geometric(inst.weights, epsilon)
    return RoundedInstance(
        original=inst,
        rounded=Instance(weights=tuple(rounded), delays=inst.delays),
        k=k,
        epsilon=epsilon,
    )


def round_delays(inst: Instance, epsilon) -> RoundedInstance:
    """Round resource delays up onto a geometric grid of at most k+1 values.

    The rounding map is monotone, so resource order (and therefore assignment
    indices) carries over between the original and rounded instances.
    """
    epsilon = Fraction(epsilon)
    rounded, k = _round_up_geometric(inst.delays, epsilon)
    return RoundedInstance(
        original=inst,
        rounded=Instance(weights=inst.weights, delays=tuple(rounded)),
        k=k,
        epsilon=epsilon,
    )


def approx_solve_weights(inst: Instance, epsilon) -> DPSolution:
    """Assignment with cost at most (1 + epsilon) times the optimum.

    Rounds weights up onto the geometric grid (so at most k+1 distinct
    values), solves the rounded instance exactly with the few-weights DP, and
    re-costs the resulting assignment under the original weights.
    """
    rounding = round_weights(inst, epsilon)
    distinct = len(set(rounding.rounded.weights))
    solution = dp_few_weights(rounding.rounded, alpha=distinct)
    return DPSolution(cost(inst, solution.assignment), solution.assignment)


def approx_solve_delays(inst: Instance, epsilon) -> DPSolution:
    """Assignment with cost at most (1 + epsilon) times the optimum, obtained
    by rounding delays instead of weights."""
    rounding = round_delays(inst, epsilon)
    distinct = len(set(rounding.rounded.delays))
    solution = dp_few_delays(rounding.rounded, alpha=distinct)
    return DPSolution(cost(inst, solution.assignment), solution.assignment)


@dataclass(frozen=True)
class FractionalOptimum:
    """The optimal splittable assignment of unit-weight tasks.

    Every kept resource gets mass n / (D * d) where D is the throughput of
    the kept resources, giving each a load of n/D and a total cost of n^2/D,
    which lower-bounds the cost of every integral assignment.
    """

    masses: tuple
    load: Fraction
    cost: Fraction


def fractional_opt(inst: Instance) -> FractionalOptimum:
    """Optimal fractional assignment for unit-weight tasks.

    When there are more resources than tasks, the m - n largest-delay
    resources are dropped first; no integral assignment benefits from them
    and they would inflate the throughput.
    """
    if not inst.unit_weights:
        raise ValueError("the fractional optimum is defined for unit weights")
    n = inst.n
    kept = inst.delays[: min(inst.m, n)]
    throughput = sum((Fraction(1, 1) / d for d in kept), Fraction(0))
    load = n / throughput
    masses = tuple(load / d for d in kept)
    return FractionalOptimum(masses=masses, load=load, cost=n * load)
