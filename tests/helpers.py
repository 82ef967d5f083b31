"""Naive reference implementations for cross-checking, written from first
principles (no reuse of the package's cost/equilibrium code paths)."""

import heapq
from fractions import Fraction
from itertools import product


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
