"""Constructive algorithms for the assignment game.

Exact solvers: two O(n + m log m) greedy builders for identical-weight tasks
(one for the optimum, one for the cheapest Nash equilibrium), seeded in closed
form from the fractional optimum, an O(n log m + classes * m) greedy
equilibrium builder for arbitrary weights, and dynamic programs for few
distinct delays (identical delays being its one-class case) and for few
distinct weights.  The delay program solves each (count vector, class) row
in O(n log n) by divide and conquer: a run's cost obeys the quadrangle
inequality, so the best start of the last run never decreases with the
number of tasks.  Approximate solvers round weights (or delays) up onto a
geometric grid and run the matching DP; the result, re-costed under the
original instance, is within 1+epsilon of optimal.

Everything is exact.  Inputs and results are Fractions; inside, the greedy
builders and the DPs run on the instance's ints (`Instance._kernel`):
weights and delays each multiplied by the LCM of their denominators, the
cost divided back out at the end.
"""

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .model import Assignment, CountAssignment, Instance, _as_fraction, cost

#: Default bound on the number of distinct weight/delay values the DPs accept.
DEFAULT_DISTINCT_VALUES = 4

#: Hard cap on DP table entries; guards against accidental blow-ups.
MAX_TABLE_STATES = 10**8

#: Hard cap on the steps k of a geometric rounding grid: each rounded value
#: is found by comparing k-th powers, whose size grows with k.
MAX_GRID_STEPS = 10**4

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


def _counts_below_threshold(delays, n: int, slope: int) -> list:
    """For each resource k, how many of its marginals (slope * c + 1) * d_k
    lie strictly below T = (slope * (n - m) + m) / throughput: ceil(x_k)
    with x_k = (T / d_k - 1) / slope, or 0 if x_k <= 0.  The x_k sum to
    n - m, so the counts add up to at least n - m and less than n.

    On the instance's scaled-int delays D_k, with L their LCM and
    P = sum(L / D_k), x_k = (top - D_k * P) / (slope * D_k * P) for
    top = (slope * (n - m) + m) * L: O(m) int operations, no Fraction."""
    common = math.lcm(*set(delays))  # L
    reciprocals = sum(common // d for d in delays)  # P
    top = (slope * (n - len(delays)) + len(delays)) * common
    return [max(0, -((d * reciprocals - top) // (slope * d * reciprocals))) for d in delays]


def _marginal_greedy(inst: Instance, slope: int, key) -> CountAssignment:
    """Place the n identical tasks one at a time, each on a resource whose
    next marginal (slope * c_k + 1) * d_k is lowest, ties broken by
    key(marginal, c_k, k); the heap holds one entry per resource.

    Each resource's marginals grow with c_k, so the placements are the n
    smallest marginals in heap order, and the marginals below a threshold
    are a prefix of that order.  `_counts_below_threshold` counts a prefix
    of at least n - m placements in closed form; the heap, keyed on the
    instance's scaled-int delays, places the rest, at most m tasks.
    """
    if not inst.identical_weights:
        raise ValueError("this algorithm needs all task weights to be identical")
    delays = inst._kernel.delays
    counts = _counts_below_threshold(delays, inst.n, slope)
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
    go to the lowest resource index.  The placements below the marginal
    (2n - m)/throughput are counted in closed form, so the heap makes at
    most m steps: O(n + m log m).
    """
    return _marginal_greedy(inst, 2, lambda marginal, c, k: (marginal, k))


def find_opt_nash(inst: Instance) -> CountAssignment:
    """Cheapest Nash assignment for identical-weight tasks.

    Places one task at a time on a resource k minimizing (c_k + 1) * d_k,
    proportional to the load the new task would incur, which keeps every
    prefix in equilibrium; ties break by fewest tasks, then lowest resource
    index.  The placements below n/throughput are counted in closed form,
    so the heap makes at most m steps: O(n + m log m).
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
    O(n log m + classes * m).  Sums and heap keys are the instance's
    scaled ints.
    """
    delays, weights = inst._kernel.delays, inst._kernel.weights
    sums = [0] * inst.m
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


def _classes(values, kind: str, alpha: int):
    """Distinct values, increasing, and the indices holding each one;
    refuses more than `alpha` distinct values.  Given the instance's scaled
    ints, the distinct values are the scaled ints of the classes."""
    members = {}
    for i, v in enumerate(values):
        members.setdefault(v, []).append(i)
    if len(members) > alpha:
        raise ValueError(
            f"instance has {len(members)} distinct {kind} values, above the bound {alpha}"
        )
    values = sorted(members)
    return values, [members[v] for v in values]


def _count_vectors(members, rows: int):
    """Count vectors over the classes `members` as mixed-radix ints, first
    class most significant so that index order is itertools.product order:
    (radix, strides, number of vectors).  Refuses a table of `rows` entries
    per vector above MAX_TABLE_STATES."""
    radix = [len(idx) + 1 for idx in members]
    vectors = math.prod(radix)
    if rows * vectors > MAX_TABLE_STATES:
        raise ValueError(f"dynamic programming table would need {rows * vectors} states,"
                         f" above the bound {MAX_TABLE_STATES}")
    strides = list(itertools.accumulate(reversed(radix[1:]), operator.mul, initial=1))
    return radix, strides[::-1], vectors


def _row_minima(prev, scaled, n: int):
    """value[j] = min over i <= j of prev[i] + (j - i) * (scaled[j] - scaled[i])
    for j = 0..n, and start[j] the largest minimizing i.

    The run cost (j - i) * (scaled[j] - scaled[i]) obeys the quadrangle
    inequality for non-decreasing `scaled`, and adding prev[i] keeps it, so
    start[j] never decreases with j.  Each midpoint j of a range scans only
    the i that the neighbouring solved j allow, then splits the range at it:
    O(n log n) per row.
    """
    value = [0] * (n + 1)
    start = [0] * (n + 1)
    stack = [(0, n, 0, n)]  # j in [jlo, jhi] has its start in [ilo, ihi]
    while stack:
        jlo, jhi, ilo, ihi = stack.pop()
        j = (jlo + jhi) // 2
        top = scaled[j]
        best, bi = prev[ilo] + (j - ilo) * (top - scaled[ilo]), ilo
        for i in range(ilo + 1, min(ihi, j) + 1):
            candidate = prev[i] + (j - i) * (top - scaled[i])
            if candidate <= best:
                best, bi = candidate, i
        value[j], start[j] = best, bi
        if jlo < j:
            stack.append((jlo, j - 1, ilo, bi))
        if j < jhi:
            stack.append((j + 1, jhi, bi, ihi))
    return value, start


def _delay_class_dp(inst: Instance, delays, members) -> DPSolution:
    """Optimal assignment on resources of the scaled-int `delays`, class c
    being the 0-based resources `members[c]`.

    With tasks sorted by non-increasing weight there is an optimal assignment
    whose resource groups are consecutive runs of that order.  table[v][j] is
    the cheapest placement of the j heaviest tasks on the resources counted
    by vector v: the last run goes on one more resource of some class, the
    first minimum over (class, run size).  choice[v][j] = size * classes +
    class; at j = 0 the resources left stay empty, first class first.

    The table is filled one vector at a time, a whole row of n + 1 entries,
    by resources used.  For class c the row is the minimum over i <= j of
    table[prev][i] + d_c * C(i, j), prev being v less one resource of class
    c and C(i, j) = (j - i)(P_j - P_i) the run i+1..j, with P the weight
    prefix sums.  For
    i < i' <= j < j', C(i, j') + C(i', j) - C(i, j) - C(i', j') =
    (i' - i)(P_j' - P_j) + (j' - j)(P_i' - P_i) >= 0 (the quadrangle
    inequality), so the largest minimizing i, the shortest run, never
    decreases with j, and `_row_minima` solves a row in O(n log n).
    """
    n, beta = inst.n, len(delays)
    radix, strides, vectors = _count_vectors(members, n + 1)
    weights = inst._kernel.weights
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    prefix = list(itertools.accumulate(map(weights.__getitem__, order), initial=0))
    # scaled[cls][i] = d * P_i, so a run i+1..j on class cls costs (j - i)(scaled[j] - scaled[i])
    scaled = [[d * p for p in prefix] for d in delays]
    table = [None] * vectors
    choice = [None] * vectors
    # count vectors by resources used, then in product order: every table[prev]
    # row is complete before a vector one resource larger reads it
    for vec in sorted(itertools.product(*map(range, radix)), key=sum)[1:]:
        v = sum(map(operator.mul, vec, strides))
        best = None
        for cls in range(beta):
            if not vec[cls]:
                continue
            prev = v - strides[cls]
            if prev:
                value, start = _row_minima(table[prev], scaled[cls], n)
            else:  # the first resource used takes all j tasks
                value, start = [j * x for j, x in enumerate(scaled[cls])], [0] * (n + 1)
            if best is None:
                best, pick = value, [(j - i) * beta + cls for j, i in enumerate(start)]
                continue
            for j in itertools.compress(range(n + 1), map(operator.lt, value, best)):
                best[j], pick[j] = value[j], (j - start[j]) * beta + cls
        table[v], choice[v] = best, pick

    target = [0] * n
    remaining = [list(idx) for idx in members]
    j, v = n, vectors - 1
    while v:
        size, cls = divmod(choice[v][j], beta)
        resource = remaining[cls].pop() + 1
        for pos in range(j - size, j):
            target[order[pos]] = resource
        j -= size
        v -= strides[cls]
    return DPSolution(inst._kernel.rational(table[-1][n]), Assignment(tuple(target)))


def dp_identical_delays(inst: Instance) -> DPSolution:
    """Optimal assignment when all resource delays are equal, any weights.

    The delay-class program with one class: a table over (resources used,
    tasks handled) with the best size of the last run of tasks in weight
    order.  Each of the m rows takes O(n log n), since run costs obey the
    quadrangle inequality: O(m n log n).
    """
    if not inst.identical_delays:
        raise ValueError("this dynamic program needs all resource delays to be identical")
    return _delay_class_dp(inst, *_classes(inst._kernel.delays, "delay", 1))


def dp_few_delays(inst: Instance, alpha: int = DEFAULT_DISTINCT_VALUES) -> DPSolution:
    """Optimal assignment when the delays take at most `alpha` distinct values.

    Extends the identical-delay program: the state counts how many resources
    of each delay class have been used, and each step peels the lightest
    remaining run of tasks onto a resource of some class.  Each (count
    vector, class) row takes O(n log n), by the quadrangle inequality of
    run costs.
    """
    return _delay_class_dp(inst, *_classes(inst._kernel.delays, "delay", alpha))


def dp_few_weights(inst: Instance, alpha: int = DEFAULT_DISTINCT_VALUES) -> DPSolution:
    """Optimal assignment when the weights take at most `alpha` distinct values.

    The state is the number of tasks of each weight class already placed on
    the first k resources; each step chooses how many tasks of each class the
    k-th resource receives, the first minimum in itertools.product order.
    """
    weights, members = _classes(inst._kernel.weights, "weight", alpha)
    delays, m = inst._kernel.delays, inst.m
    radix, strides, vectors = _count_vectors(members, m + 1)
    # group[t]: tasks in take vector t times their weight, before the delay
    group = [sum(t) * sum(map(operator.mul, t, weights))
             for t in itertools.product(*map(range, radix))]
    # table[k][v]: cheapest placement of the tasks counted by v on resources
    # 1..k+1, choice[k][v] the take of resource k+1.  Entry v reads entries
    # u <= v of the previous resource only, so v can run outermost.
    table = [[0] * vectors for _ in range(m)]
    choice = [[0] * vectors for _ in range(m)]
    for v, vec in enumerate(itertools.product(*map(range, radix))):
        takes = [0]  # take vectors t <= v, in product order
        for c, stride in zip(vec, strides):
            takes = [t + x * stride for t in takes for x in range(c + 1)]
        rest = [v - t for t in takes]
        costs = [group[t] for t in takes]
        table[0][v], choice[0][v] = delays[0] * group[v], v
        for k in range(1, m):
            candidates = list(map(operator.add, map(table[k - 1].__getitem__, rest),
                                  map(delays[k].__mul__, costs)))
            table[k][v] = min(candidates)
            choice[k][v] = takes[candidates.index(table[k][v])]

    target = [0] * inst.n
    queues = [iter(idx) for idx in members]
    v, taken = vectors - 1, []
    for k in range(m - 1, -1, -1):
        taken.append(choice[k][v])
        v -= taken[-1]
    for k, t in enumerate(reversed(taken), start=1):
        for queue, stride, base in zip(queues, strides, radix):
            for _ in range(t // stride % base):
                target[next(queue)] = k
    return DPSolution(inst._kernel.rational(table[-1][-1]), Assignment(tuple(target)))


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


def _grid_steps(ratio: Fraction, epsilon: Fraction) -> int:
    """The smallest k >= 1 with (1 + epsilon)**k >= ratio, by doubling and
    then bisection; refuses k above MAX_GRID_STEPS.  The bound is checked
    first through (1 + epsilon)**K <= 1 / (1 - K * epsilon), which holds
    for K * epsilon < 1 and costs no power."""
    base, most = 1 + epsilon, MAX_GRID_STEPS * epsilon
    if most < 1 and ratio * (1 - most) > 1:
        raise ValueError(_grid_steps_refusal(ratio, epsilon))
    low, high = 0, 1  # base**low < ratio
    while base**high < ratio:
        if high == MAX_GRID_STEPS:
            raise ValueError(_grid_steps_refusal(ratio, epsilon))
        low, high = high, min(2 * high, MAX_GRID_STEPS)
    return low + 1 + bisect.bisect_left(
        range(low + 1, high + 1), True, key=lambda k: base**k >= ratio)


def _log_log1p(x: Fraction) -> float:
    """ln(ln(1 + x)) for a rational x > 0 of any size, approximately."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if f == math.inf:  # ln(1 + x) ~ ln x
        return math.log(math.log(x.numerator) - math.log(x.denominator))
    if f < 1e-300:  # ln(1 + x) ~ x
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(math.log1p(f))


def _grid_steps_refusal(ratio: Fraction, epsilon: Fraction) -> str:
    log10_k = (_log_log1p(ratio - 1) - _log_log1p(epsilon)) / math.log(10)
    exponent = math.floor(log10_k)
    return (
        f"geometric rounding needs about {10 ** (log10_k - exponent):.1f}e{exponent}"
        f" grid steps, above the bound {MAX_GRID_STEPS}; use a larger epsilon"
    )


def _round_up_geometric(values, epsilon: Fraction):
    """Round each value up onto the geometric grid lo * (hi/lo)**(t/k).

    k is the smallest positive integer with (1 + epsilon)**k >= hi/lo, so
    consecutive grid points differ by at most a factor 1 + epsilon; a k
    above MAX_GRID_STEPS raises ValueError.  Each
    value maps to the smallest grid point at or above it; the grid point is
    materialized exactly when rational, otherwise as the largest original
    value in the same grid cell (still an upper bound within 1 + epsilon).
    Returns (rounded values in input order, k).
    """
    epsilon = _as_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = min(values), max(values)
    ratio = hi / lo
    if ratio == 1:
        return list(values), 1
    k = _grid_steps(ratio, epsilon)

    def cell_index(v: Fraction) -> int:
        # smallest t in 0..k with v <= lo * ratio**(t/k), compared exactly
        # via v**k <= lo**(k-t) * hi**t, which grows with t
        vk = v**k
        return bisect.bisect_left(range(k + 1), True, key=lambda t: vk <= lo ** (k - t) * hi**t)

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
    epsilon = _as_fraction(epsilon)
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
    epsilon = _as_fraction(epsilon)
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
    solution = dp_few_weights(rounding.rounded, alpha=rounding.k + 1)
    return DPSolution(cost(inst, solution.assignment), solution.assignment)


def approx_solve_delays(inst: Instance, epsilon) -> DPSolution:
    """Assignment with cost at most (1 + epsilon) times the optimum, obtained
    by rounding delays instead of weights."""
    rounding = round_delays(inst, epsilon)
    solution = dp_few_delays(rounding.rounded, alpha=rounding.k + 1)
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
