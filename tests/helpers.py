"""Reference implementations for cross-checking.  The naive_* and brute_*
functions are written from first principles (no reuse of the package's
cost/equilibrium code paths); the other references are the package's
earlier, straightforward implementations."""

import heapq
from fractions import Fraction
from itertools import product

from selfish_assign import (
    Assignment,
    CountAssignment,
    DPSolution,
    RatioReport,
    cost,
    is_nash,
)


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
        coordination_ratio=worst_nash.cost / best.cost,
        nash_gap=worst_nash.cost / best_nash.cost,
        opt_gap=best_nash.cost / best.cost,
        min_cost_witness=Assignment(best.witness),
        min_nash_witness=Assignment(best_nash.witness),
        max_nash_witness=Assignment(worst_nash.witness),
    )
