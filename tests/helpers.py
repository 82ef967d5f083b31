"""Reference implementations for cross-checking.  The naive_* and brute_*
functions are written from first principles (no reuse of the package's
cost/equilibrium code paths); the other references are the package's
earlier, straightforward implementations."""

import bisect
import heapq
import math
import operator
from fractions import Fraction
from itertools import combinations, product

from selfish_assign import (
    Assignment,
    CountAssignment,
    DPSolution,
    FractionalOptimum,
    Instance,
    RatioReport,
    cost,
    is_nash,
    parse_rational,
)
from selfish_assign.algorithms import _grid_steps
from selfish_assign.instances import RANDOM_GRID_POINTS


def naive_cost(weights, delays, target):
    """Sum over tasks of (delay of its resource) * (total weight there)."""
    total = Fraction(0)
    for i, r in enumerate(target):
        share = sum((w for j, w in enumerate(weights) if target[j] == r), Fraction(0))
        total += delays[r - 1] * share
    return total


def naive_is_nash(weights, delays, target):
    m = len(delays)
    for i, r in enumerate(target):
        own = delays[r - 1] * sum(
            (w for j, w in enumerate(weights) if target[j] == r), Fraction(0)
        )
        for alt in range(1, m + 1):
            if alt == r:
                continue
            there = sum(
                (w for j, w in enumerate(weights) if target[j] == alt), Fraction(0)
            )
            if delays[alt - 1] * (there + weights[i]) < own:
                return False
    return True


def all_targets(n, m):
    return product(range(1, m + 1), repeat=n)


def brute_min_cost(inst):
    return min(
        naive_cost(inst.weights, inst.delays, t) for t in all_targets(inst.n, inst.m)
    )


def brute_extremes(inst):
    """(min cost, min Nash cost, max Nash cost) by exhaustive scan."""
    best = best_nash = worst_nash = None
    for t in all_targets(inst.n, inst.m):
        c = naive_cost(inst.weights, inst.delays, t)
        best = c if best is None else min(best, c)
        if naive_is_nash(inst.weights, inst.delays, t):
            best_nash = c if best_nash is None else min(best_nash, c)
            worst_nash = c if worst_nash is None else max(worst_nash, c)
    return best, best_nash, worst_nash


def nash_targets(inst):
    return [
        t
        for t in all_targets(inst.n, inst.m)
        if naive_is_nash(inst.weights, inst.delays, t)
    ]


# Reference loops kept from the straightforward implementations: each one
# tests every (task, resource) pair or places one task per heap step.

def scan_improving_moves(weights, delays, target):
    """Per-task scan: each task's cheapest strictly improving move
    (lowest resource index on ties), as (task, resource, new load)."""
    m = len(delays)
    sums = [Fraction(0)] * m
    for w, r in zip(weights, target):
        sums[r - 1] += w
    moves = []
    for i, r in enumerate(target):
        own = delays[r - 1] * sums[r - 1]
        best = None
        for alt in range(m):
            if alt == r - 1:
                continue
            load = delays[alt] * (sums[alt] + weights[i])
            if load < own and (best is None or load < best[1]):
                best = (alt + 1, load)
        if best is not None:
            moves.append((i + 1, best[0], best[1]))
    return moves


def scan_greedy_nash(weights, delays):
    """Heaviest task first (ties by index), each onto the resource where it
    would incur the least load (ties by index), scanning every resource."""
    m = len(delays)
    sums = [Fraction(0)] * m
    target = [0] * len(weights)
    for i in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
        w = weights[i]
        best = min(range(m), key=lambda r: (delays[r] * (sums[r] + w), r))
        sums[best] += w
        target[i] = best + 1
    return tuple(target)


def heap_find_opt(n, delays):
    """n heap steps, each placing a task on the lowest (2c+1)*d, then index."""
    counts = [0] * len(delays)
    heap = [(d, k) for k, d in enumerate(delays)]
    heapq.heapify(heap)
    for _ in range(n):
        _, k = heapq.heappop(heap)
        counts[k] += 1
        heapq.heappush(heap, ((2 * counts[k] + 1) * delays[k], k))
    return tuple(counts)


def heap_find_opt_nash(n, delays):
    """n heap steps, each placing a task on the lowest (c+1)*d, then fewest
    tasks, then index."""
    counts = [0] * len(delays)
    heap = [(d, 0, k) for k, d in enumerate(delays)]
    heapq.heapify(heap)
    for _ in range(n):
        _, _, k = heapq.heappop(heap)
        counts[k] += 1
        heapq.heappush(heap, ((counts[k] + 1) * delays[k], counts[k], k))
    return tuple(counts)


def reference_threshold_counts(n, delays, slope):
    """The marginal greedy's closed-form prefix on Fractions: for each
    resource, ceil((T / d - 1) / slope), floored at 0, with the threshold
    T = (slope * (n - m) + m) / throughput."""
    m = len(delays)
    threshold = Fraction(slope * (n - m) + m) / sum(1 / d for d in delays)
    return [max(0, math.ceil((threshold / d - 1) / slope)) for d in delays]


class OneDrawSplitMix64:
    """SplitMix64 one draw at a time, with the published constants of
    Steele, Lea & Flood: the state advances by the golden gamma and each
    output is the state through two xor-shift-multiply rounds."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def below(self, bound):
        """The next 64-bit output modulo `bound`."""
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return (z ^ (z >> 31)) % bound


def reference_gen_random(n, m, weight_range, delay_range, seed):
    """The random family drawn value by value: a Fraction grid per range,
    one `OneDrawSplitMix64.below` per task and per resource, and the
    Instance constructor."""
    if n < 1 or m < 1:
        raise ValueError("need at least one task and one resource")

    def grid(bounds):
        lo, hi = map(Fraction, bounds)
        if lo <= 0:
            raise ValueError("ranges must be positive")
        if hi < lo:
            raise ValueError("empty range")
        if lo == hi:
            return [lo]
        step = (hi - lo) / (RANDOM_GRID_POINTS - 1)
        return [lo + j * step for j in range(RANDOM_GRID_POINTS)]

    weight_grid = grid(weight_range)
    delay_grid = grid(delay_range)
    rng = OneDrawSplitMix64(seed)
    weights = tuple(weight_grid[rng.below(len(weight_grid))] for _ in range(n))
    delays = tuple(delay_grid[rng.below(len(delay_grid))] for _ in range(m))
    return Instance(weights=weights, delays=delays)


# Reference evaluators and equilibrium builder: the package's earlier
# Fraction implementations, which the integer kernel must agree with, value
# for value.

def _reference_counts_and_sums(inst, a):
    if len(a.target) != inst.n:
        raise ValueError(f"assignment has {len(a.target)} entries, instance has {inst.n} tasks")
    counts = [0] * inst.m
    sums = [Fraction(0)] * inst.m
    for i, resource in enumerate(a.target):
        if resource > inst.m:
            raise ValueError(f"task {i + 1} uses resource {resource}, instance has {inst.m}")
        counts[resource - 1] += 1
        sums[resource - 1] += inst.weights[i]
    return counts, sums


def _reference_as_counts(inst, a):
    if len(a.counts) != inst.m or a.total != inst.n or min(inst.weights) != max(inst.weights):
        raise ValueError("count vector does not fit the instance")
    return a.counts


def reference_resource_load(inst, a, resource):
    if isinstance(a, CountAssignment):
        counts = _reference_as_counts(inst, a)
        return inst.delays[resource - 1] * counts[resource - 1] * inst.weights[0]
    _, sums = _reference_counts_and_sums(inst, a)
    return inst.delays[resource - 1] * sums[resource - 1]


def reference_cost(inst, a):
    if isinstance(a, CountAssignment):
        counts = _reference_as_counts(inst, a)
        unit = sum((Fraction(c * c) * d for c, d in zip(counts, inst.delays)), Fraction(0))
        return inst.weights[0] * unit
    counts, sums = _reference_counts_and_sums(inst, a)
    return sum((c * d * s for c, d, s in zip(counts, inst.delays, sums)), Fraction(0))


def _reference_moves_of(delays, sums, resource, w, own):
    for other, d in enumerate(delays):
        if other != resource:
            load = d * (sums[other] + w)
            if load < own:
                yield load, other


def reference_is_nash(inst, a):
    """Lightest task per occupied resource, slowest resource first."""
    if isinstance(a, CountAssignment):
        loads = [c * d for c, d in zip(_reference_as_counts(inst, a), inst.delays)]
        return max(loads) <= min(load + d for load, d in zip(loads, inst.delays))
    _, sums = _reference_counts_and_sums(inst, a)
    lightest = [None] * inst.m
    for w, resource in zip(inst.weights, a.target):
        if lightest[resource - 1] is None or w < lightest[resource - 1]:
            lightest[resource - 1] = w
    for resource in range(inst.m - 1, -1, -1):
        w = lightest[resource]
        if w is not None:
            own = inst.delays[resource] * sums[resource]
            if next(_reference_moves_of(inst.delays, sums, resource, w, own), None):
                return False
    return True


def reference_improving_moves(inst, a):
    """One deviation scan per distinct (resource, weight), lightest first."""
    _, sums = _reference_counts_and_sums(inst, a)
    tasks_by_weight = [{} for _ in range(inst.m)]
    for task, (w, resource) in enumerate(zip(inst.weights, a.target), start=1):
        tasks_by_weight[resource - 1].setdefault(w, []).append(task)
    moves = []
    for resource, groups in enumerate(tasks_by_weight):
        own = inst.delays[resource] * sums[resource]
        for w in sorted(groups):
            best = min(_reference_moves_of(inst.delays, sums, resource, w, own), default=None)
            if best is None:
                break
            load, other = best
            moves.extend((task, other + 1, load) for task in groups[w])
    moves.sort()
    return moves


def reference_greedy_nash(inst):
    """Heaviest first, one heap keyed (d_r * (S_r + w), r) per weight class."""
    delays, weights = inst.delays, inst.weights
    sums = [Fraction(0)] * inst.m
    target = [0] * inst.n
    heap, w = [], None
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


def reference_fractional_opt(inst):
    """The fractional optimum on the instance's Fraction delays: the m - n
    largest dropped when m > n, load n / sum(1 / d), mass load / d on each
    kept resource and cost n * load."""
    n = inst.n
    kept = inst.delays[: min(inst.m, n)]
    throughput = sum((Fraction(1, 1) / d for d in kept), Fraction(0))
    load = n / throughput
    masses = tuple(load / d for d in kept)
    return FractionalOptimum(masses=masses, load=load, cost=n * load)


def count_grid_steps(ratio, epsilon):
    """The smallest k >= 1 with (1 + epsilon)**k >= ratio, one multiply at a time."""
    k, power = 1, 1 + epsilon
    while power < ratio:
        k += 1
        power *= 1 + epsilon
    return k


def reference_int_kth_root(x, k):
    """Exact integer k-th root of x >= 0, or None if x is not a perfect
    power: the floor root by bisection on its bits."""
    root = 0
    for bit in reversed(range(x.bit_length() // k + 1)):
        if (root | 1 << bit) ** k <= x:
            root |= 1 << bit
    return root if root**k == x else None


def reference_rational_kth_root(q, k):
    """Exact k-th root of a positive rational, or None if irrational."""
    num = reference_int_kth_root(q.numerator, k)
    if num is None:
        return None
    den = reference_int_kth_root(q.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def reference_sweep_round_up_geometric(ints, epsilon):
    """The geometric rounding on ints, one grid cell at a time: each sorted
    value steps the grid power lo**(k - t) * hi**t up by one exact division
    and product until it is at least v**k; (rounded ints, k)."""
    lo, hi = min(ints), max(ints)
    if lo == hi:
        return ints, 1
    k = _grid_steps(Fraction(hi, lo), epsilon)
    cells = {}
    grid = lo**k
    for v in sorted(set(ints))[:-1]:
        vk = v**k
        while vk > grid:
            grid = grid // lo * hi
        cells.setdefault(grid, []).append(v)
    cells.setdefault(hi**k, []).append(hi)
    rounded_value = {}
    for grid, cell_values in cells.items():
        root = reference_int_kth_root(grid, k)
        for v in cell_values:
            rounded_value[v] = cell_values[-1] if root is None else root
    return tuple(rounded_value[v] for v in ints), k


def reference_round_up_geometric(values, epsilon):
    """The geometric rounding on Fractions: each value up to the smallest
    grid point lo * (hi/lo)**(t/k) at or above it, the grid point itself
    when rational, else the largest value of its cell; (rounded, k)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = min(values), max(values)
    ratio = hi / lo
    if ratio == 1:
        return list(values), 1
    k = _grid_steps(ratio, epsilon)

    def cell_index(v):
        vk = v**k
        return bisect.bisect_left(range(k + 1), True, key=lambda t: vk <= lo ** (k - t) * hi**t)

    cells = {}
    for v in set(values):
        cells.setdefault(cell_index(v), []).append(v)
    rounded_value = {}
    for t, cell_values in cells.items():
        grid_point = reference_rational_kth_root(lo ** (k - t) * hi**t, k)
        rounded = grid_point if grid_point is not None else max(cell_values)
        for v in cell_values:
            rounded_value[v] = rounded
    return [rounded_value[v] for v in values], k


def brute_row_minima(prev, scaled):
    """For each j, the minimum over i <= j of
    prev[i] + (j - i) * (scaled[j] - scaled[i]) and the largest i attaining
    it, trying every i."""
    row = []
    for j, top in enumerate(scaled):
        candidates = [prev[i] + (j - i) * (top - scaled[i]) for i in range(j + 1)]
        low = min(candidates)
        row.append((low, max(i for i, c in enumerate(candidates) if c == low)))
    return row


def reference_nash_ratio_lb_targets(big):
    """The two reference targets of nash-ratio-lb for block size `big`,
    built entry by entry as the family's definition states them:
    (segregated, mixed)."""
    n = 6 * big + 13
    segregated = [0] * n
    for i in range(6 * big + 1):  # all unit tasks share resource 1
        segregated[12 + i] = 1
    for i in range(6):  # weight-6M tasks in pairs on resources 2..4
        segregated[6 + i] = 2 + i // 2
    for i in range(6):  # weight-3M tasks in triples on resources 5..6
        segregated[i] = 5 + i // 3
    mixed = [0] * n
    for r in range(1, 6):  # resources 1..5: one 6M, one 3M, M unit tasks
        mixed[6 + (r - 1)] = r
        mixed[r - 1] = r
        for i in range(big):
            mixed[12 + (r - 1) * big + i] = r
    mixed[11] = 6  # resource 6: one 6M, one 3M, M+1 unit tasks
    mixed[5] = 6
    for i in range(5 * big, 6 * big + 1):
        mixed[12 + i] = 6
    return tuple(segregated), tuple(mixed)


def all_takes(v, radix, strides):
    """Every take vector t <= v, as mixed-radix ints, in product order: the
    few-weights DP's path rescan before it tried run takes alone."""
    takes = [0]
    for stride, base in zip(strides, radix):
        takes = [t + x * stride for t in takes for x in range(v // stride % base + 1)]
    return takes


# Reference dynamic programs: the straightforward Fraction implementations
# the package's integer kernels must agree with, answer and tie-breaks alike.

def _reference_product(factors):
    out = 1
    for f in factors:
        out *= f
    return out


def _reference_order(inst):
    order = sorted(range(inst.n), key=lambda i: (-inst.weights[i], i))
    prefix = [Fraction(0)]
    for i in order:
        prefix.append(prefix[-1] + inst.weights[i])
    return order, prefix


def reference_dp_identical_delays(inst):
    """O(n^2 m) table over (tasks handled, resources used), tasks in
    non-increasing weight order, with the smallest best last-group size."""
    d = inst.delays[0]
    n, m = inst.n, inst.m
    order, prefix = _reference_order(inst)
    table = [[None] * (m + 1) for _ in range(n + 1)]
    choice = [[0] * (m + 1) for _ in range(n + 1)]
    for k in range(m + 1):
        table[0][k] = Fraction(0)
    for k in range(1, m + 1):
        for j in range(1, n + 1):
            best, best_size = None, 0
            for size in range(j + 1):
                prev = table[j - size][k - 1]
                if prev is None:
                    continue
                candidate = prev + size * d * (prefix[j] - prefix[j - size])
                if best is None or candidate < best:
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


def reference_dp_few_delays(inst):
    """Table over (resources used per delay class, tasks handled); each step
    peels the lightest remaining run onto a resource of some class."""
    values = sorted(set(inst.delays))
    members = [[r + 1 for r, d in enumerate(inst.delays) if d == v] for v in values]
    mult = [len(idx) for idx in members]
    beta, n = len(values), inst.n
    order, prefix = _reference_order(inst)
    zero = (0,) * beta
    table = {zero: [Fraction(0)] + [None] * n}
    choice = {}
    vectors = sorted(product(*(range(c + 1) for c in mult)), key=sum)
    for vec in vectors[1:]:
        row = [Fraction(0)] + [None] * n
        for cls in range(beta):
            if vec[cls] == 0:
                continue
            prev_row = table[vec[:cls] + (vec[cls] - 1,) + vec[cls + 1:]]
            for j in range(1, n + 1):
                for size in range(j + 1):
                    prev = prev_row[j - size]
                    if prev is None:
                        continue
                    candidate = prev + size * values[cls] * (prefix[j] - prefix[j - size])
                    if row[j] is None or candidate < row[j]:
                        row[j] = candidate
                        choice[(j, vec)] = (size, cls)
        table[vec] = row
    full = tuple(mult)
    target = [0] * n
    remaining = [list(idx) for idx in members]
    j, vec = n, full
    while vec != zero:
        if j == 0:
            cls, size = next(c for c in range(beta) if vec[c] > 0), 0
        else:
            size, cls = choice[(j, vec)]
        resource = remaining[cls].pop()
        for pos in range(j - size, j):
            target[order[pos]] = resource
        j -= size
        vec = vec[:cls] + (vec[cls] - 1,) + vec[cls + 1:]
    return DPSolution(table[full][n], Assignment(tuple(target)))


def reference_dp_few_weights(inst):
    """Table over tasks of each weight class placed on the first k resources;
    each step picks resource k's take, first minimum in product order."""
    values = sorted(set(inst.weights))
    members = [[i for i, w in enumerate(inst.weights) if w == v] for v in values]
    counts = [len(idx) for idx in members]
    zero = (0,) * len(values)
    vectors = list(product(*(range(c + 1) for c in counts)))
    previous = {vec: (Fraction(0) if vec == zero else None) for vec in vectors}
    choice = {}
    for k in range(1, inst.m + 1):
        delay = inst.delays[k - 1]
        current = {}
        for vec in vectors:
            best, best_take = None, zero
            for take in product(*(range(c + 1) for c in vec)):
                prev = previous[tuple(a - b for a, b in zip(vec, take))]
                if prev is None:
                    continue
                weight = sum((v * t for v, t in zip(values, take)), Fraction(0))
                candidate = prev + sum(take) * delay * weight
                if best is None or candidate < best:
                    best, best_take = candidate, take
            current[vec] = best
            choice[(k, vec)] = best_take
        previous = current
    full = tuple(counts)
    groups, vec = [], full
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


# Reference enumeration: every state rebuilt as an assignment and evaluated
# with the package's public cost and is_nash, extremes kept with an explicit
# lexicographic tie-break.

def reference_count_vectors(n, m):
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in reference_count_vectors(n - first, m - 1):
            yield (first,) + rest


def reference_nash_count_vectors(inst):
    """The Nash count vectors of an identical-weight instance, in
    `reference_count_vectors` order.

    On the scaled-int delays d_j, every Nash vector has the same largest
    load L, the n-th smallest of the loads c * d_j (c >= 1), found here by
    sorting them.  Resource j then takes floor(L / d_j) tasks, or, where
    d_j divides L, L / d_j - 1; every choice of which of those resources
    take the larger count that places n tasks is a Nash vector, and
    choices in lexicographic order give descending vectors."""
    n, delays = inst.n, inst._kernel.delays
    level = sorted(c * d for d in delays for c in range(1, n + 1))[n - 1]
    lower = [(level - 1) // d for d in delays]
    flexible = [j for j, d in enumerate(delays) if level % d == 0]
    vectors = []
    for raised in combinations(flexible, n - sum(lower)):
        vec = list(lower)
        for j in raised:
            vec[j] += 1
        vectors.append(CountAssignment(tuple(vec)))
    return vectors


class _ReferenceExtreme:
    def __init__(self, prefer_high):
        self.prefer_high = prefer_high
        self.cost = None
        self.witness = None

    def offer(self, value, witness):
        if self.cost is None:
            self.cost, self.witness = value, witness
            return
        better = value > self.cost if self.prefer_high else value < self.cost
        if better or (value == self.cost and witness < self.witness):
            self.cost, self.witness = value, witness


def reference_enumerate_extremes(inst):
    """Per-state Fraction enumeration: count vectors for identical weights,
    all m^n assignments otherwise."""
    best = _ReferenceExtreme(prefer_high=False)
    best_nash = _ReferenceExtreme(prefer_high=False)
    worst_nash = _ReferenceExtreme(prefer_high=True)
    if inst.identical_weights:
        for vec in reference_count_vectors(inst.n, inst.m):
            counts = CountAssignment(vec)
            value = cost(inst, counts)
            witness = counts.to_assignment().target
            best.offer(value, witness)
            if is_nash(inst, counts):
                best_nash.offer(value, witness)
                worst_nash.offer(value, witness)
    else:
        for target in all_targets(inst.n, inst.m):
            a = Assignment(target)
            value = cost(inst, a)
            best.offer(value, target)
            if is_nash(inst, a):
                best_nash.offer(value, target)
                worst_nash.offer(value, target)
    return RatioReport(
        min_cost=best.cost,
        min_nash_cost=best_nash.cost,
        max_nash_cost=worst_nash.cost,
        min_cost_witness=Assignment(best.witness),
        min_nash_witness=Assignment(best_nash.witness),
        max_nash_witness=Assignment(worst_nash.witness),
    )


# Reference for the identical-weight closed form: a walk over every count
# vector in `reference_count_vectors` order, each evaluated in O(1) on ints.

def reference_walk_count_vectors(n, w, delays):
    """Cheapest state, cheapest and dearest Nash state over the count
    vectors of n tasks of the scaled-int weight `w` on resources with the
    scaled-int `delays`, as (cost, Assignment) pairs; the cost of a count
    vector is w * sum(c^2 * d).

    A count vector is Nash iff its largest load c*d is at most its smallest
    next load (c+1)*d.  The first m-2 coordinates and what remains for the
    last two form a head from `reference_count_vectors(n, m-1)`; its cost,
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
    for *head, rest in reference_count_vectors(n, m - 1):
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
        (w * value, CountAssignment(vec).to_assignment())
        for value, vec in ((best, best_at), (low, low_at), (high, high_at))
    ]


def reference_walk_extremes(inst):
    """`reference_walk_count_vectors` on an identical-weight instance's
    kernel, as a RatioReport."""
    kernel = inst._kernel
    extremes = reference_walk_count_vectors(inst.n, kernel.weights[0], kernel.delays)
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


def reference_scaled(values):
    """The kernel ints of the rationals `values` and their scale, the LCM
    of the reduced denominators, one Fraction per value."""
    fractions = [parse_rational(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fractions))
    return tuple(int(f * scale) for f in fractions), scale


def reference_read_text(path):
    """The text of a UTF-8 file as text mode reads it, universal newlines on."""
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()
