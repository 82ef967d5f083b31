"""Algorithms against brute-force ground truth on small instances."""

from fractions import Fraction as F

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

from helpers import all_targets, brute_extremes, brute_min_cost, nash_targets


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
        # (n + 1) * (m + 1) = 12 table states
        inst = Instance(weights=(F(3), F(2), F(1)), delays=(F(1),) * 2)
        monkeypatch.setattr(algorithms, "MAX_TABLE_STATES", 11)
        with pytest.raises(ValueError, match="12 states"):
            dp_identical_delays(inst)
        monkeypatch.setattr(algorithms, "MAX_TABLE_STATES", 12)
        assert dp_identical_delays(inst).cost == F(9)

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

    def test_rejects_too_many_values(self):
        inst = Instance(weights=(F(1),), delays=(F(1), F(2), F(3)))
        with pytest.raises(ValueError):
            dp_few_delays(inst, alpha=2)


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

    def test_rejects_too_many_values(self):
        inst = Instance(weights=(F(1), F(2), F(3)), delays=(F(1),))
        with pytest.raises(ValueError):
            dp_few_weights(inst, alpha=2)


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

    def test_rejects_nonpositive_epsilon(self):
        inst = Instance(weights=(F(1), F(2)), delays=(F(1),))
        with pytest.raises(ValueError):
            round_weights(inst, F(0))

    def test_grid_step_bound(self):
        inst = Instance(weights=(F(9), F(1)), delays=(F(1),))
        # (1 + 1/4550)**9999 >= 9, while 1 + 1/4551 needs 10001 > 10**4 steps
        rounding = round_weights(inst, F(1, 4550))
        assert rounding.k == 9999 == algorithms.MAX_GRID_STEPS - 1
        assert rounding.rounded.weights == (F(9), F(1))
        with pytest.raises(ValueError, match="about 1.0e4 grid steps, above the bound 10000"):
            round_weights(inst, F(1, 4551))
        with pytest.raises(ValueError, match="about 2.2e3000 grid steps"):
            round_delays(Instance(weights=(F(1),), delays=(F(1), F(9))), F(1, 10**3000))

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
