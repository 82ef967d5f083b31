"""Acceptance suite: the headline guarantees, checked end to end.

Each test prints one PASS line (run with -s to see them all).  Golden values
are exact rationals; timing limits are generous sanity budgets, not
benchmarks.  Criteria 4-8 share one 300-instance seeded sweep with n <= 6,
m <= 3 and weights/delays in [1, 4], a third of it unit-weight, a third
identical-delay, a third fully mixed.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from selfish_assign import (
    Assignment,
    SplitMix64,
    approx_solve_delays,
    approx_solve_weights,
    cost,
    dp_few_delays,
    dp_few_weights,
    dp_identical_delays,
    enumerate_extremes,
    find_opt,
    find_opt_nash,
    fractional_opt,
    gen_big_nash,
    gen_nash_ratio_lb,
    gen_random,
    gen_uniform_gap,
    is_nash,
    task_load,
    verify_bounds,
)

from helpers import reference_enumerate_extremes, reference_nash_count_vectors

SWEEP_SIZE = 300


def sweep_instance(seed):
    shape = SplitMix64(seed * 1_000_003 + 7)
    n = 1 + shape.draws(1, 6)[0]
    m = 1 + shape.draws(1, 3)[0]
    kind = seed % 3
    if kind == 0:  # unit weights, mixed delays
        weight_range, delay_range = (F(1), F(1)), (F(1), F(4))
    elif kind == 1:  # mixed weights, one shared delay value
        value = 1 + F(shape.draws(1, 13)[0], 4)
        weight_range, delay_range = (F(1), F(4)), (value, value)
    else:  # fully mixed
        weight_range, delay_range = (F(1), F(4)), (F(1), F(4))
    return gen_random(n, m, weight_range, delay_range, seed)


@pytest.fixture(scope="module")
def sweep():
    return {
        "instances": [sweep_instance(seed) for seed in range(1, SWEEP_SIZE + 1)],
        "reports": {},
    }


def get_report(sweep_data, index):
    if index not in sweep_data["reports"]:
        sweep_data["reports"][index] = enumerate_extremes(sweep_data["instances"][index])
    return sweep_data["reports"][index]


def nash_assignments(inst):
    return [
        Assignment(target)
        for target in itertools.product(range(1, inst.m + 1), repeat=inst.n)
        if is_nash(inst, Assignment(target))
    ]


def test_criterion_1_heavy_pair_golden_values():
    started = time.perf_counter()
    n = 10
    report = enumerate_extremes(gen_big_nash(n))
    elapsed = time.perf_counter() - started
    assert report.min_cost == 4 * n * n + (n - 2) * (n - 2) == 464
    assert report.opt_gap >= F(n, 5)
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: heavy-pair instance has optimum 464 and "
        f"best-Nash/optimum {report.opt_gap} >= 2 ({elapsed:.2f}s)"
    )


def test_criterion_2_uneven_pair_golden_values():
    inst = gen_uniform_gap(F(1, 10))
    report = enumerate_extremes(inst)
    assert len(reference_nash_count_vectors(inst)) == 1
    assert report.min_nash_cost == report.max_nash_cost == F(2)
    assert report.min_cost == F(8, 5)
    assert report.opt_gap == F(5, 4)

    tight = enumerate_extremes(gen_uniform_gap(F(0)))
    assert tight.nash_gap == F(4, 3)
    print(
        "PASS criterion 2: uneven-pair instance has unique Nash cost 2 over "
        "optimum 8/5; its zero-epsilon variant hits the 4/3 Nash gap exactly"
    )


@pytest.mark.parametrize("epsilon", [F(1), F(1, 2), F(1, 4)])
def test_criterion_3_segregated_vs_mixed_equilibria(epsilon):
    started = time.perf_counter()
    inst, segregated, mixed = gen_nash_ratio_lb(epsilon)
    b = math.ceil(F(2) / epsilon)
    assert is_nash(inst, segregated)
    assert is_nash(inst, mixed)
    assert cost(inst, segregated) == 36 * b * b + 138 * b + 1
    assert cost(inst, mixed) >= (6 * b + 13) * 10 * b
    assert cost(inst, segregated) <= F(3, 5) * (1 + epsilon) * cost(inst, mixed)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"PASS criterion 3: epsilon={epsilon} reference equilibria verified "
        f"(block size {b}, {inst.n} tasks, {elapsed:.2f}s)"
    )


def test_criterion_4_oracle_equivalence_sweep(sweep):
    started = time.perf_counter()
    runs = Counter()
    for index, inst in enumerate(sweep["instances"]):
        report = get_report(sweep, index)
        if inst.identical_weights:
            # the oracle takes its optimum from find_opt: the per-state
            # enumeration keeps the comparison independent
            assert report == reference_enumerate_extremes(inst)
            runs["reference_enumeration"] += 1
            counts = find_opt(inst)
            assert cost(inst, counts) == report.min_cost
            runs["find_opt"] += 1

            best_nash = find_opt_nash(inst)
            assert is_nash(inst, best_nash)
            assert cost(inst, best_nash) == report.min_nash_cost
            nash_vectors = reference_nash_count_vectors(inst)
            assert cost(inst, best_nash) == min(cost(inst, v) for v in nash_vectors)
            runs["find_opt_nash"] += 1
        if inst.identical_delays:
            solution = dp_identical_delays(inst)
            assert solution.cost == report.min_cost
            assert cost(inst, solution.assignment) == solution.cost
            runs["dp_identical_delays"] += 1
        if len(inst.distinct_delay_values) <= 4:
            solution = dp_few_delays(inst)
            assert solution.cost == report.min_cost
            assert cost(inst, solution.assignment) == solution.cost
            runs["dp_few_delays"] += 1
        if len(inst.distinct_weight_values) <= 4:
            solution = dp_few_weights(inst)
            assert solution.cost == report.min_cost
            assert cost(inst, solution.assignment) == solution.cost
            runs["dp_few_weights"] += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert all(
        runs[name] > 0
        for name in (
            "reference_enumeration",
            "find_opt",
            "find_opt_nash",
            "dp_identical_delays",
            "dp_few_delays",
            "dp_few_weights",
        )
    )
    summary = ", ".join(f"{name} x{count}" for name, count in sorted(runs.items()))
    print(f"PASS criterion 4: {SWEEP_SIZE}-instance sweep, every exact algorithm "
          f"matched the enumeration ({summary}; {elapsed:.1f}s)")


def test_criterion_4_identical_weights_beyond_enumeration():
    # C(47, 7) = 62 891 499 count vectors: a walk over them took about 63 s
    inst = gen_random(40, 8, (F(3, 2), F(3, 2)), (F(1), F(4)), seed=2035)
    started = time.perf_counter()
    report = enumerate_extremes(inst)
    checks = verify_bounds(inst, report)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert report.min_cost == cost(inst, find_opt(inst))
    assert report.min_nash_cost == cost(inst, find_opt_nash(inst))
    assert 1 < report.nash_gap <= F(4, 3)
    assert checks and all(check.satisfied for check in checks)
    print(
        f"PASS criterion 4: n=40, m=8 identical weights (62891499 count vectors) "
        f"reported in {elapsed:.3f}s, Nash gap {report.nash_gap} <= 4/3"
    )


def test_criterion_5_equilibrium_bound_suite(sweep):
    applicable = Counter()
    for index, inst in enumerate(sweep["instances"]):
        report = get_report(sweep, index)
        for check in verify_bounds(inst, report):
            assert check.satisfied, (
                f"seed {index + 1}: {check.name} violated by {-check.slack}"
            )
            applicable[check.name] += 1
    assert applicable["coordination-ratio-weight-range"] == SWEEP_SIZE
    assert applicable["nash-gap-identical-delays"] >= SWEEP_SIZE // 4
    assert applicable["nash-gap-identical-weights"] >= SWEEP_SIZE // 4
    summary = ", ".join(f"{name} x{count}" for name, count in sorted(applicable.items()))
    print(f"PASS criterion 5: zero bound violations across the sweep ({summary})")


def test_criterion_6_structural_equilibrium_facts(sweep):
    vector_pairs = window_checks = 0
    for index, inst in enumerate(sweep["instances"]):
        if inst.identical_weights:
            vectors = [v.counts for v in reference_nash_count_vectors(inst)]
            for left, right in itertools.combinations(vectors, 2):
                assert all(abs(a - b) <= 1 for a, b in zip(left, right))
                vector_pairs += 1
            for vec in vectors:
                for i in range(inst.m):
                    for j in range(inst.m):
                        if vec[i] > vec[j]:
                            assert inst.delays[i] <= inst.delays[j]
        if inst.identical_delays:
            delay = inst.delays[0]
            average = inst.average_load
            small_tasks = all(w <= average for w in inst.weights)
            for a in nash_assignments(inst):
                for i in range(1, inst.n + 1):
                    w = inst.weights[i - 1]
                    load = task_load(inst, a, i)
                    if w > average:  # heavier than average: always alone
                        assert sum(1 for r in a.target if r == a.target[i - 1]) == 1
                    if small_tasks:
                        assert delay * max(w, average / 2) <= load <= delay * (average + w)
                        window_checks += 1
    assert vector_pairs > 0 and window_checks > 0
    print(
        f"PASS criterion 6: Nash count-vectors differ by <=1 per resource "
        f"({vector_pairs} pairs), busier resources are never slower, and "
        f"identical-delay Nash loads stay in their window ({window_checks} checks)"
    )


def test_criterion_7_fractional_lower_bound(sweep):
    checked = 0
    for index, inst in enumerate(sweep["instances"]):
        if not inst.unit_weights:
            continue
        report = get_report(sweep, index)
        assert report.min_cost >= fractional_opt(inst).cost
        checked += 1
    assert checked > 0
    print(
        f"PASS criterion 7: enumeration optimum >= n^2/throughput on all "
        f"{checked} unit-weight instances"
    )


def test_criterion_8_approximation_guarantee(sweep):
    started = time.perf_counter()
    for index in range(100):
        inst = sweep["instances"][index]
        assert inst.weight_spread <= 4 and inst.delay_spread <= 4
        report = get_report(sweep, index)
        for epsilon in (F(1), F(1, 2)):
            by_weights = approx_solve_weights(inst, epsilon)
            assert cost(inst, by_weights.assignment) == by_weights.cost
            assert by_weights.cost <= (1 + epsilon) * report.min_cost
            by_delays = approx_solve_delays(inst, epsilon)
            assert cost(inst, by_delays.assignment) == by_delays.cost
            assert by_delays.cost <= (1 + epsilon) * report.min_cost
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 8: weight- and delay-rounding stay within 1+epsilon "
        f"of optimal for epsilon in {{1, 1/2}} on 100 instances ({elapsed:.1f}s)"
    )


def test_criterion_9_large_instance_runtime():
    inst = gen_random(100_000, 1_000, (F(1), F(1)), (F(1), F(4)), seed=2026)
    started = time.perf_counter()
    optimum = find_opt(inst)
    best_nash = find_opt_nash(inst)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert optimum.total == best_nash.total == 100_000
    assert is_nash(inst, best_nash)
    assert cost(inst, optimum) <= cost(inst, best_nash)
    print(
        f"PASS criterion 9: greedy builders solved n=100000, m=1000 "
        f"in {elapsed:.1f}s"
    )
