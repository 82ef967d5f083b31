"""Algorithms against brute-force ground truth on small instances."""

import itertools
import operator
import re
import time
from fractions import Fraction as F
from math import prod

import pytest

from selfish_assign import (
    Assignment,
    CountAssignment,
    Instance,
    algorithms,
    approx_solve_delays,
    approx_solve_weights,
    cost,
    dp_few_delays,
    dp_few_weights,
    dp_identical_delays,
    find_opt,
    find_opt_nash,
    fractional_opt,
    gen_big_nash,
    gen_random,
    gen_uniform_gap,
    greedy_nash,
    is_nash,
    round_delays,
    round_weights,
)

from helpers import (all_targets, brute_extremes, brute_min_cost, nash_targets,
                     reference_dp_identical_delays, reference_sweep_round_up_geometric)


class TestFindOpt:
    def test_splits_on_uneven_pair(self):
        inst = gen_uniform_gap(F(1, 10))
        counts = find_opt(inst)
        assert counts == CountAssignment((1, 1))
        assert cost(inst, counts) == F(8, 5)

    def test_balances_identical_resources(self):
        inst = Instance(weights=(F(1),) * 4, delays=(F(1), F(1)))
        counts = find_opt(inst)
        assert counts == CountAssignment((2, 2))
        assert cost(inst, counts) == F(8)

    def test_matches_brute_force(self):
        inst = Instance(weights=(F(1),) * 6, delays=(F(1), F(2), F(3)))
        assert cost(inst, find_opt(inst)) == brute_min_cost(inst)

    def test_common_weight_scales_but_does_not_reorder(self):
        inst = Instance(weights=(F(5, 2),) * 5, delays=(F(1), F(3), F(3)))
        assert cost(inst, find_opt(inst)) == brute_min_cost(inst)

    def test_rejects_mixed_weights(self):
        inst = Instance(weights=(F(1), F(2)), delays=(F(1),))
        with pytest.raises(ValueError):
            find_opt(inst)

    def test_incremental_extension_stays_optimal(self):
        # adding one task on a resource minimizing (2c+1)d re-solves the
        # larger instance
        delays = (F(1), F(2), F(5, 2))
        for n in range(1, 8):
            inst = Instance(weights=(F(1),) * n, delays=delays)
            counts = list(find_opt(inst).counts)
            k = min(range(3), key=lambda r: ((2 * counts[r] + 1) * delays[r], r))
            counts[k] += 1
            grown = Instance(weights=(F(1),) * (n + 1), delays=delays)
            assert cost(grown, CountAssignment(tuple(counts))) == cost(
                grown, find_opt(grown)
            )


def enumerate_nash_counts(inst):
    """All Nash count vectors, via labeled brute force."""
    seen = set()
    for target in nash_targets(inst):
        counts = [0] * inst.m
        for r in target:
            counts[r - 1] += 1
        seen.add(tuple(counts))
    return seen


class TestFindOptNash:
    def test_stacks_fast_resource_when_forced(self):
        inst = gen_uniform_gap(F(1, 10))
        counts = find_opt_nash(inst)
        assert counts == CountAssignment((2, 0))
        assert cost(inst, counts) == F(2)

    def test_balances_identical_resources(self):
        inst = Instance(weights=(F(1),) * 4, delays=(F(1), F(1)))
        assert find_opt_nash(inst) == CountAssignment((2, 2))

    def test_matches_cheapest_enumerated_nash(self):
        inst = Instance(weights=(F(1),) * 5, delays=(F(1), F(1), F(3)))
        nash_costs = {
            cost(inst, CountAssignment(c)) for c in enumerate_nash_counts(inst)
        }
        assert cost(inst, find_opt_nash(inst)) == min(nash_costs)

    def test_output_is_nash(self):
        for seed in range(20):
            inst = gen_random(5, 3, (F(2), F(2)), (F(1), F(4)), seed)
            assert is_nash(inst, find_opt_nash(inst))

    def test_every_tie_branch_reaches_the_same_cost(self):
        # the placement rule can still leave ties; all of them end optimal
        for delays in [(F(1), F(1), F(2)), (F(1), F(2), F(2)), (F(1), F(1), F(1))]:
            inst = Instance(weights=(F(1),) * 5, delays=delays)
            target_cost = cost(inst, find_opt_nash(inst))
            outcomes = set()

            def explore(counts, placed):
                if placed == inst.n:
                    outcomes.add(cost(inst, CountAssignment(tuple(counts))))
                    return
                keys = [(counts[r] + 1) * delays[r] for r in range(3)]
                lowest = min(keys)
                pool = [r for r in range(3) if keys[r] == lowest]
                fewest = min(counts[r] for r in pool)
                for r in pool:
                    if counts[r] == fewest:
                        counts[r] += 1
                        explore(counts, placed + 1)
                        counts[r] -= 1

            explore([0, 0, 0], 0)
            assert outcomes == {target_cost}


class TestGreedyNash:
    def test_separates_heavy_pair(self):
        inst = gen_big_nash(10)
        a = greedy_nash(inst)
        assert a.target[0] != a.target[1]
        assert is_nash(inst, a)

    def test_single_task(self):
        inst = Instance(weights=(F(1),), delays=(F(5),))
        assert greedy_nash(inst) == Assignment((1,))

    def test_result_in_enumerated_nash_set(self):
        inst = Instance(weights=(F(2), F(2), F(1), F(1)), delays=(F(1), F(1)))
        a = greedy_nash(inst)
        assert is_nash(inst, a)
        assert a.target in set(nash_targets(inst))

    def test_always_nash_on_random_instances(self):
        for seed in range(40):
            inst = gen_random(1 + seed % 6, 1 + seed % 3, (F(1), F(4)), (F(1), F(4)), seed)
            assert is_nash(inst, greedy_nash(inst))


class TestDpIdenticalDelays:
    def test_groups_heavy_task_alone(self):
        inst = Instance(weights=(F(4), F(1), F(1)), delays=(F(1), F(1)))
        solution = dp_identical_delays(inst)
        assert solution.cost == F(8)
        assert cost(inst, solution.assignment) == F(8)

    def test_single_task(self):
        inst = Instance(weights=(F(7),), delays=(F(3),))
        assert dp_identical_delays(inst).cost == F(21)

    def test_matches_brute_force(self):
        inst = Instance(weights=(F(3), F(3), F(2), F(2), F(1)), delays=(F(1),) * 3)
        assert dp_identical_delays(inst).cost == brute_min_cost(inst)

    def test_delay_factor_scales_cost(self):
        unit = Instance(weights=(F(3), F(2), F(2)), delays=(F(1), F(1)))
        scaled = Instance(weights=unit.weights, delays=(F(7, 2), F(7, 2)))
        assert dp_identical_delays(scaled).cost == F(7, 2) * dp_identical_delays(unit).cost

    def test_rejects_mixed_delays(self):
        inst = Instance(weights=(F(1), F(1)), delays=(F(1), F(2)))
        with pytest.raises(ValueError):
            dp_identical_delays(inst)

    def test_table_guard(self, monkeypatch):
        # n = 3 tasks on one class of 2 resources: V = 3 count vectors, 2 of
        # them with a resource, so 2 rows of at most (n + 1)(2 + 2) = 16
        # candidates, and a path of at most m * K = 2 scans of n + 1: 40 steps
        inst = Instance(weights=(F(3), F(2), F(1)), delays=(F(1),) * 2)
        monkeypatch.setattr(algorithms, "MAX_DP_STEPS", 39)
        with pytest.raises(ValueError,
                           match="^dynamic programming would need 40 steps, above the bound 39$"):
            dp_identical_delays(inst)
        monkeypatch.setattr(algorithms, "MAX_DP_STEPS", 40)
        assert dp_identical_delays(inst).cost == F(9)

    def test_three_thousand_tasks_within_two_seconds(self):
        # an O(n^2) row per resource count took 3.4 s on a 2-core x86_64 VM
        inst = gen_random(3000, 8, (F(1), F(9)), (F(2), F(2)), 1)
        started = time.perf_counter()
        solution = dp_identical_delays(inst)
        assert time.perf_counter() - started < 2
        assert cost(inst, solution.assignment) == solution.cost

    def test_groups_are_weight_ordered_intervals(self):
        # resource groups can be laid end to end in weight order
        for seed in range(15):
            inst = gen_random(6, 3, (F(1), F(4)), (F(2), F(2)), seed)
            solution = dp_identical_delays(inst)
            groups = {}
            for i, r in enumerate(solution.assignment.target):
                groups.setdefault(r, []).append(inst.weights[i])
            ordered = sorted(
                (sorted(g) for g in groups.values()), key=lambda g: (g[-1], g[0])
            )
            flat = [w for g in ordered for w in g]
            assert flat == sorted(inst.weights)


class TestDpFewDelays:
    def test_degenerates_to_identical_delays(self):
        inst = Instance(weights=(F(4), F(2), F(1)), delays=(F(2), F(2)))
        assert dp_few_delays(inst).cost == dp_identical_delays(inst).cost

    def test_two_delay_values(self):
        inst = Instance(weights=(F(2), F(1), F(1)), delays=(F(1), F(3)))
        assert dp_few_delays(inst).cost == brute_min_cost(inst)

    def test_three_resources_two_values(self):
        inst = Instance(
            weights=(F(5), F(4), F(3), F(2), F(1)), delays=(F(1), F(1), F(2))
        )
        assert dp_few_delays(inst).cost == brute_min_cost(inst)

    def test_solution_cost_is_consistent(self):
        for seed in range(15):
            inst = gen_random(5, 3, (F(1), F(4)), (F(1), F(2)), seed)
            solution = dp_few_delays(inst)
            assert cost(inst, solution.assignment) == solution.cost
            assert solution.cost == brute_min_cost(inst)

    def test_five_delay_classes_equal_brute_force(self):
        # more classes than auto routes to a DP: the DP takes any number
        inst = Instance(weights=(F(1), F(2)), delays=tuple(map(F, range(1, 6))))
        assert dp_few_delays(inst).cost == brute_min_cost(inst)
        inst = Instance(weights=(F(3), F(2), F(1), F(1)),
                        delays=(F(1), F(2), F(2), F(3), F(4), F(5)))
        assert dp_few_delays(inst).cost == brute_min_cost(inst)

    def test_runs_on_the_resources_an_optimum_can_use(self):
        # 12 tasks on 4 delay classes of 20: the program runs on the 20
        # resources of delay 1 (`_usable`), one class, where all 80 took
        # 3.8 s (5.8e7 predicted steps) on a 2-core x86_64 VM
        weights = tuple(map(F, range(1, 13)))
        delays = tuple(F(d) for d in range(1, 5) for _ in range(20))
        started = time.perf_counter()
        solution = dp_few_delays(Instance(weights, delays))
        assert time.perf_counter() - started < 0.5
        assert solution == reference_dp_identical_delays(Instance(weights, delays[:20]))

    def test_guard_shows_a_huge_step_count_by_a_power_of_ten(self):
        # 10**4 tasks on 10**4 delay classes, none trimmed: the prediction
        # has over 10**4 bits, more than an int may print (4300 digits by
        # default on Python 3.11)
        inst = Instance(weights=(F(1),) * 10**4, delays=tuple(map(F, range(1, 10**4 + 1))))
        with pytest.raises(ValueError) as refused:
            dp_few_delays(inst)
        power = re.fullmatch(r"dynamic programming would need more than 10\*\*(\d+) steps,"
                             r" above the bound 100000000", str(refused.value))
        steps = algorithms._delay_dp_steps(10**4, {1: 10**4})
        assert 10 ** int(power[1]) < steps < 10 ** (int(power[1]) + 2)


class TestDpFewWeights:
    def test_agrees_with_find_opt_on_unit_weights(self):
        inst = Instance(weights=(F(1),) * 6, delays=(F(1), F(2), F(3)))
        assert dp_few_weights(inst).cost == cost(inst, find_opt(inst))

    def test_two_weight_values(self):
        inst = Instance(weights=(F(1), F(1), F(3), F(3)), delays=(F(1), F(2)))
        assert dp_few_weights(inst).cost == brute_min_cost(inst)

    def test_single_task(self):
        inst = Instance(weights=(F(5),), delays=(F(2),))
        assert dp_few_weights(inst).cost == F(10)

    def test_solution_cost_is_consistent(self):
        for seed in range(15):
            inst = gen_random(4, 2, (F(1), F(2)), (F(1), F(4)), seed)
            solution = dp_few_weights(inst)
            assert cost(inst, solution.assignment) == solution.cost
            assert solution.cost == brute_min_cost(inst)

    def test_five_weight_classes_equal_brute_force(self):
        # more classes than auto routes to a DP: the DP takes any number
        inst = Instance(weights=tuple(map(F, range(1, 6))), delays=(F(1), F(2)))
        assert dp_few_weights(inst).cost == brute_min_cost(inst)
        inst = Instance(weights=(F(1), F(2), F(2), F(3), F(4), F(5)), delays=(F(1), F(1), F(3)))
        assert dp_few_weights(inst).cost == brute_min_cost(inst)

    def test_table_guard(self, monkeypatch):
        # classes of 2 and 1 tasks (weights 1, 1 and 2): V = 6 count vectors,
        # whose run takes R(v) = 1 + v_1 + v_2 + v_1 v_2 sum to 18; on m = 3
        # resources with 2 distinct delays, (m - 1) * 18 + (2 + m) * 6 = 66
        inst = Instance(weights=(F(2), F(1), F(1)), delays=(F(1), F(2), F(2)))
        monkeypatch.setattr(algorithms, "MAX_DP_STEPS", 65)
        with pytest.raises(ValueError,
                           match="^dynamic programming would need 66 steps, above the bound 65$"):
            dp_few_weights(inst)
        monkeypatch.setattr(algorithms, "MAX_DP_STEPS", 66)
        assert dp_few_weights(inst).cost == brute_min_cost(inst)

    @pytest.mark.parametrize("counts", [(3,), (2, 3), (3, 0, 2), (2, 1, 2), (1, 2, 0, 2)])
    def test_run_takes_are_the_interval_shaped_takes(self, counts):
        # a take is run-shaped when its classes form an interval and the
        # classes inside it are taken whole
        radix = [c + 1 for c in counts]
        strides = [prod(radix[c + 1:]) for c in range(len(radix))]
        vectors = list(itertools.product(*map(range, radix)))
        for v, (vec, takes) in enumerate(zip(vectors, algorithms._run_takes(radix, strides),
                                             strict=True)):
            # the path's takes of one vector: the same, ascending
            assert algorithms._vector_run_takes(v, radix, strides) == sorted(takes)
            expected = set()
            for take in itertools.product(*(range(c + 1) for c in vec)):
                used = [c for c, t in enumerate(take) if t]
                if not used or all(take[c] == vec[c] for c in range(used[0] + 1, used[-1])):
                    expected.add(sum(map(operator.mul, take, strides)))
            assert sorted(takes) == sorted(expected)
            assert len(takes) == 1 + sum(vec) + sum(
                vec[a] * vec[b] for a in range(len(vec)) for b in range(a + 1, len(vec)))


class TestRoundWeights:
    def test_identical_weights_untouched(self):
        inst = Instance(weights=(F(2), F(2)), delays=(F(1),))
        rounding = round_weights(inst, F(1, 3))
        assert rounding.k == 1
        assert rounding.rounded.weights == inst.weights

    def test_perfect_power_grid_keeps_weights(self):
        inst = Instance(weights=(F(4), F(1)), delays=(F(1),))
        rounding = round_weights(inst, F(1))
        assert rounding.k == 2
        assert rounding.rounded.weights == (F(4), F(1))

    def test_extreme_weights_always_sit_on_the_grid(self):
        inst = Instance(weights=(F(3), F(1)), delays=(F(1),))
        rounding = round_weights(inst, F(1))
        assert rounding.k == 2
        assert rounding.rounded.weights == (F(3), F(1))

    def test_irrational_grid_point_falls_back_to_cell_max(self):
        # grid {1, sqrt(3), 3}: both middle weights share the sqrt(3) cell,
        # so they round to the heavier of the two, not to the grid point
        inst = Instance(weights=(F(3), F(3, 2), F(5, 4), F(1)), delays=(F(1),))
        rounding = round_weights(inst, F(1))
        assert rounding.k == 2
        assert rounding.rounded.weights == (F(3), F(3, 2), F(3, 2), F(1))
        assert len(set(rounding.rounded.weights)) <= rounding.k + 1

    def test_root_of_a_negative_radicand_is_refused(self):
        with pytest.raises(ValueError, match="negative radicand"):
            algorithms._int_kth_root(-1, 2)

    def test_rejects_nonpositive_epsilon(self):
        inst = Instance(weights=(F(1), F(2)), delays=(F(1),))
        with pytest.raises(ValueError):
            round_weights(inst, F(0))

    def test_grid_step_bound(self):
        # k is bounded by the bits of the powers alone: 1 + 1/4551 needs
        # k = 10001 steps to reach 9, and powers of 10001 * 4 bits
        inst = Instance(weights=(F(9), F(1)), delays=(F(1),))
        rounding = round_weights(inst, F(1, 4551))
        assert rounding.k == 10001
        assert rounding.rounded.weights == (F(9), F(1))
        # (1 + 10**-3000)**32 and (1 + 10**-6)**16384 are refused unbuilt
        bound = algorithms.MAX_GRID_POWER_BITS
        for refused, bits in [
            (lambda: round_delays(Instance(weights=(F(1),), delays=(F(1), F(9))), F(1, 10**3000)),
             318912),
            (lambda: round_weights(Instance(weights=(1, "1e400"), delays=(1,)), F(1, 10**6)),
             327680),
        ]:
            started = time.perf_counter()
            with pytest.raises(ValueError) as raised:
                refused()
            assert time.perf_counter() - started < 0.5
            assert str(raised.value) == (
                f"geometric rounding needs powers of {bits} bits, above the bound {bound}")

    def test_power_bits_bound(self):
        # epsilon = 1 on 1 and 2**(B - 1) takes k = B - 1 steps, powers of k * B bits
        bound = algorithms.MAX_GRID_POWER_BITS
        admitted = round_weights(Instance(weights=(F(1), F(2**511)), delays=(F(1),)), F(1))
        assert (admitted.k, admitted.k * 512) == (511, 261632) and 261632 <= bound
        assert admitted.rounded == admitted.original
        with pytest.raises(ValueError) as raised:
            round_delays(Instance(weights=(F(1),), delays=(F(1), F(2**512))), F(1))
        assert str(raised.value) == (
            f"geometric rounding needs powers of 262656 bits, above the bound {bound}")

    def test_grid_step_powers_are_bounded_before_they_are_built(self):
        # (1 + 10**-2000)**j has 6644 * j bits; k = 1000 would take minutes to find
        inst = Instance(weights=(F(10**2000), F(10**2000 + 1000)), delays=(F(1),))
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"powers of \d+ bits, above the bound"):
            round_weights(inst, F(1, 10**2000))
        assert time.perf_counter() - started < 0.5

    def test_many_values_in_few_cells_round_in_one_sweep(self):
        # k = 4086 and 300 values next to 3**12, which fall in one or two
        # cells: one power per value and about k/3 grid steps take 0.23-0.33 s
        # on a 2-core x86_64 VM (Python 3.11), while a bisection over the
        # cells per value, about 12 powers of up to 240 000 bits each, took
        # 4.6-5.7 s
        weights = (3, 3**38, *(3**12 + j for j in range(300)))
        started = time.perf_counter()
        rounding = round_weights(Instance(weights=weights, delays=(1,)), F(1, 100))
        assert time.perf_counter() - started < 1.2
        assert rounding.k == 4086
        rounded = rounding.rounded.weights
        assert rounded[:2] == (3, 3**38)  # the ends sit on the grid
        assert len(set(rounded)) == 3
        assert all(old <= new for old, new in zip(weights, rounded))

    def test_values_next_to_hi_gallop_to_their_cell(self):
        # k = 9020, and 2**26 - 2 sits in cell k: stepping there one cell at
        # a time divided and multiplied about 9000 powers of up to 234 000
        # bits (0.31-0.35 s on a 2-core x86_64 VM, Python 3.11).  The search
        # divides one grid power by lo**s per jump, O(log k) of them.
        divisions = []

        class Power(int):
            """An int that counts the grid powers divided by it; a product of
            two is one too, so every power of lo counts."""
            def __rfloordiv__(self, other):
                divisions.append(self)
                return int(other) // int(self)

            def __mul__(self, other):
                return Power(int(self) * int(other))

        weights = (1, 2**26 - 2, 2**26 - 1)
        rounded, k = reference_sweep_round_up_geometric(weights, F(1, 500))
        assert k == 9020
        assert algorithms._round_up_geometric(tuple(map(Power, weights)), F(1, 500)) == (rounded, k)
        assert len(divisions) <= 2 * k.bit_length()

    @pytest.mark.parametrize("epsilon", [F(1), F(1, 2), F(1, 4)])
    def test_invariants_on_random_instances(self, epsilon):
        for seed in range(25):
            inst = gen_random(6, 2, (F(1), F(4)), (F(1), F(1)), seed)
            rounding = round_weights(inst, epsilon)
            k, ratio = rounding.k, inst.weight_spread
            assert (1 + epsilon) ** k >= ratio
            assert k == 1 or (1 + epsilon) ** (k - 1) < ratio
            assert len(set(rounding.rounded.weights)) <= k + 1
            for old, new in zip(inst.weights, rounding.rounded.weights):
                assert old <= new <= (1 + epsilon) * old


class TestApproxSolveWeights:
    def test_exact_when_weights_identical(self):
        inst = Instance(weights=(F(3), F(3), F(3)), delays=(F(1), F(2)))
        assert approx_solve_weights(inst, F(1)).cost == brute_min_cost(inst)

    def test_small_mixed_instance(self):
        inst = Instance(weights=(F(3), F(2), F(1), F(1)), delays=(F(1), F(2)))
        assert approx_solve_weights(inst, F(1)).cost <= 2 * brute_min_cost(inst)

    def test_tight_epsilon(self):
        inst = Instance(weights=(F(2), F(1)), delays=(F(1), F(1)))
        assert approx_solve_weights(inst, F(1, 2)).cost <= F(3, 2) * brute_min_cost(inst)

    @pytest.mark.parametrize("epsilon", [F(1), F(1, 2)])
    def test_guarantee_on_random_instances(self, epsilon):
        for seed in range(20):
            inst = gen_random(5, 2, (F(1), F(4)), (F(1), F(3)), seed)
            solution = approx_solve_weights(inst, epsilon)
            assert cost(inst, solution.assignment) == solution.cost
            assert solution.cost <= (1 + epsilon) * brute_min_cost(inst)


class TestApproxSolveDelays:
    def test_exact_when_delays_identical(self):
        inst = Instance(weights=(F(3), F(2), F(1)), delays=(F(2), F(2)))
        assert approx_solve_delays(inst, F(1)).cost == brute_min_cost(inst)

    def test_two_delay_values(self):
        inst = Instance(weights=(F(1), F(1), F(1)), delays=(F(1), F(2)))
        assert approx_solve_delays(inst, F(1)).cost <= 2 * brute_min_cost(inst)

    def test_coarse_epsilon(self):
        inst = Instance(weights=(F(2), F(1)), delays=(F(1), F(3)))
        assert approx_solve_delays(inst, F(2)).cost <= 3 * brute_min_cost(inst)

    def test_rounded_delays_dominate_originals(self):
        inst = Instance(weights=(F(1), F(2)), delays=(F(1), F(5, 4), F(3)))
        rounding = round_delays(inst, F(1, 2))
        for old, new in zip(inst.delays, rounding.rounded.delays):
            assert old <= new <= (1 + F(1, 2)) * old

    @pytest.mark.parametrize("epsilon", [F(1), F(1, 2)])
    def test_guarantee_on_random_instances(self, epsilon):
        for seed in range(20):
            inst = gen_random(5, 2, (F(1), F(3)), (F(1), F(4)), seed)
            solution = approx_solve_delays(inst, epsilon)
            assert cost(inst, solution.assignment) == solution.cost
            assert solution.cost <= (1 + epsilon) * brute_min_cost(inst)


class TestFractionalOpt:
    def test_two_identical_resources(self):
        inst = Instance(weights=(F(1), F(1)), delays=(F(1), F(1)))
        opt = fractional_opt(inst)
        assert opt.load == F(1)
        assert opt.cost == F(2)
        assert opt.masses == (F(1), F(1))

    def test_uneven_resources(self):
        inst = Instance(weights=(F(1),) * 3, delays=(F(1), F(2)))
        opt = fractional_opt(inst)
        assert opt.load == F(2)
        assert opt.cost == F(6)
        assert opt.masses == (F(2), F(1))

    def test_single_resource(self):
        inst = Instance(weights=(F(1),) * 4, delays=(F(3),))
        assert fractional_opt(inst).cost == F(48)

    def test_surplus_resources_are_dropped(self):
        # with more resources than tasks only the fastest n count
        inst = Instance(weights=(F(1),), delays=(F(1), F(1000)))
        assert fractional_opt(inst).cost == F(1)
        assert len(fractional_opt(inst).masses) == 1

    def test_rejects_non_unit_weights(self):
        inst = Instance(weights=(F(2), F(2)), delays=(F(1),))
        with pytest.raises(ValueError):
            fractional_opt(inst)

    def test_lower_bounds_every_assignment(self):
        for seed in range(15):
            inst = gen_random(4, 3, (F(1), F(1)), (F(1), F(4)), seed)
            bound = fractional_opt(inst).cost
            for target in all_targets(inst.n, inst.m):
                assert cost(inst, Assignment(target)) >= bound


class TestOracleEquivalenceSweep:
    def test_exact_algorithms_match_brute_force(self):
        for seed in range(30):
            inst = gen_random(1 + seed % 5, 1 + seed % 3, (F(1), F(4)), (F(1), F(4)), seed)
            optimum = brute_min_cost(inst)
            if inst.identical_weights:
                assert cost(inst, find_opt(inst)) == optimum
            if inst.identical_delays:
                assert dp_identical_delays(inst).cost == optimum
            if len(inst.distinct_delay_values) <= 4:
                assert dp_few_delays(inst).cost == optimum
            if len(inst.distinct_weight_values) <= 4:
                assert dp_few_weights(inst).cost == optimum
