"""Exhaustive enumeration cross-checked against an independent naive scan."""

import time
from fractions import Fraction as F

import pytest

from selfish_assign import (
    Assignment,
    BudgetExceededError,
    CountAssignment,
    Instance,
    RatioReport,
    SplitMix64,
    cost,
    enumerate_extremes,
    find_opt,
    find_opt_nash,
    gen_big_nash,
    gen_random,
    gen_uniform_gap,
    is_nash,
    oracle,
    verify_bounds,
)

from helpers import (
    all_targets,
    brute_extremes,
    reference_count_vectors,
    reference_enumerate_extremes,
    reference_nash_count_vectors,
)


class TestEnumerateExtremes:
    def test_heavy_pair_instance(self):
        report = enumerate_extremes(gen_big_nash(10))
        assert report.min_cost == F(464)
        assert report.min_nash_cost == F(1040)
        assert report.opt_gap == F(1040, 464)
        assert report.opt_gap >= 2

    def test_uneven_pair_instance(self):
        report = enumerate_extremes(gen_uniform_gap(F(1, 10)))
        assert report.min_cost == F(8, 5)
        assert report.min_nash_cost == F(2)
        assert report.max_nash_cost == F(2)
        assert report.opt_gap == F(5, 4)

    def test_trivial_instance(self):
        inst = Instance(weights=(F(1),), delays=(F(1),))
        report = enumerate_extremes(inst)
        assert report.coordination_ratio == report.nash_gap == report.opt_gap == F(1)

    @pytest.mark.parametrize("max_states", [0, -1])
    def test_budget_must_be_positive(self, max_states):
        inst = Instance(weights=(F(1),), delays=(F(1),))
        with pytest.raises(ValueError, match="max_states must be positive"):
            enumerate_extremes(inst, max_states)

    def test_budget_exceeded_is_loud(self):
        inst = Instance(weights=(F(1), F(2), F(3)), delays=(F(1), F(2)))
        with pytest.raises(BudgetExceededError) as err:
            enumerate_extremes(inst, 7)
        assert err.value.required == 8
        assert "8" in str(err.value)

    def test_identical_weights_answer_under_any_budget(self):
        # the closed form enumerates nothing, so no budget refuses it: a
        # budget of one state, and C(109, 9) count vectors under the default
        small = Instance(weights=(F(1),) * 4, delays=(F(1), F(1), F(1)))
        report = enumerate_extremes(small, 1)
        assert report == reference_enumerate_extremes(small)
        assert report.min_cost == report.max_nash_cost == F(6)
        assert report.max_nash_witness == Assignment((1, 1, 2, 3))
        inst = Instance(weights=(F(2),) * 100, delays=tuple(F(k) for k in range(1, 11)))
        report = enumerate_extremes(inst)
        assert report.min_cost == cost(inst, find_opt(inst))
        assert report.min_nash_cost == cost(inst, find_opt_nash(inst))
        assert all(check.satisfied for check in verify_bounds(inst, report))

    def test_budget_is_checked_before_any_work(self):
        # 3^40 assignments: refused at once
        mixed = Instance(weights=tuple(F(1 + i % 2) for i in range(40)), delays=(F(1),) * 3)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_extremes(mixed)
        assert err.value.required == 3**40

    def test_one_resource_many_tasks(self):
        # a single state; the walk keeps its own stack, so depth is no limit
        weights = tuple(F(1 + i % 5, 1 + i % 3) for i in range(3000))
        inst = Instance(weights=weights, delays=(F(3, 2),))
        report = enumerate_extremes(inst)
        expected = 3000 * F(3, 2) * sum(weights)
        assert report.min_cost == report.min_nash_cost == report.max_nash_cost == expected
        assert report.min_cost_witness == report.max_nash_witness == Assignment((1,) * 3000)

    def test_count_vectors_over_many_resources(self):
        # one task on 1500 resources: 1500 count vectors of 1500 entries each
        inst = Instance(weights=(F(1),), delays=tuple(F(k) for k in range(1, 1501)))
        report = enumerate_extremes(inst)
        assert report.min_cost == report.min_nash_cost == report.max_nash_cost == F(1)
        assert report.max_nash_witness == Assignment((1,))
        assert len(reference_nash_count_vectors(inst)) == 1

    def test_two_weight_classes_walk_one_assignment_per_count_matrix(self):
        # 3^14 = 4 782 969 assignments but 36 * 36 weight-class count
        # matrices; a walk over every assignment gives this report in about 8 s
        inst = Instance(weights=(F(1), F(3, 2)) * 7, delays=(F(1), F(2), F(3)))
        started = time.perf_counter()
        report = enumerate_extremes(inst)
        assert time.perf_counter() - started < 2
        assert (report.min_cost, report.min_nash_cost, report.max_nash_cost) == (
            F(265, 2), F(265, 2), F(273, 2)
        )
        assert report.min_cost_witness == report.min_nash_witness == Assignment(
            (2, 1, 2, 1, 2, 1, 2, 1, 3, 1, 3, 1, 3, 1)
        )
        assert report.max_nash_witness == Assignment((1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2, 3, 3))
        assert all(check.satisfied for check in verify_bounds(inst, report))

    def test_identical_delays_walk_one_labelling_per_orbit(self):
        # 8^8 = 16 777 216 assignments, but the labellings of each partition
        # of the tasks are one orbit, 4140 partitions; a walk over every
        # relabelling gives this report in about 28 s
        inst = Instance(weights=tuple(F(k) for k in range(1, 9)), delays=(F(3, 2),) * 8)
        started = time.perf_counter()
        report = enumerate_extremes(inst, 8**8)
        assert time.perf_counter() - started < 2
        alone = Assignment(tuple(range(1, 9)))  # every task on a resource of its own
        assert report.min_cost == report.min_nash_cost == F(3, 2) * 36
        assert report.min_cost_witness == report.min_nash_witness == alone
        assert cost(inst, report.max_nash_witness) == report.max_nash_cost
        assert is_nash(inst, report.max_nash_witness)

    @pytest.mark.parametrize("weights, delays", [
        ((1, 2, 3), (1, 1, 1)),
        ((1, 2, 3, 4), (1, 1, 1, 1)),
        ((3, 1, 2, 1), (1, 1, 2, 2)),
        ((1, F(3, 2), 2, 3), (1, 2, 2, 2, 3)),
    ])
    def test_walk_checks_only_canonical_states(self, monkeypatch, weights, delays):
        # within each delay class the walk uses a prefix of the resources,
        # so no state whose equilibrium it checks leaves a resource unused
        # before a used one of the same delay
        checked = []
        stay = oracle._lightest_tasks_stay

        def recording(delays, sums, lightest):
            checked.append(tuple(sums))
            return stay(delays, sums, lightest)

        monkeypatch.setattr(oracle, "_lightest_tasks_stay", recording)
        inst = Instance(weights, delays)
        enumerate_extremes(inst)
        assert checked
        scaled = inst._kernel.delays
        for sums in checked:
            for r in range(1, inst.m):
                assert scaled[r] != scaled[r - 1] or sums[r - 1] or not sums[r], sums

    def test_matches_naive_scan_mixed_weights(self):
        for seed in range(25):
            inst = gen_random(1 + seed % 5, 1 + seed % 3, (F(1), F(4)), (F(1), F(4)), seed)
            report = enumerate_extremes(inst)
            assert (
                report.min_cost,
                report.min_nash_cost,
                report.max_nash_cost,
            ) == brute_extremes(inst)

    def test_matches_naive_scan_identical_weights(self):
        # exercises the count-vector path against the labeled scan
        for seed in range(25):
            inst = gen_random(1 + seed % 6, 1 + seed % 3, (F(2), F(2)), (F(1), F(4)), seed)
            report = enumerate_extremes(inst)
            assert (
                report.min_cost,
                report.min_nash_cost,
                report.max_nash_cost,
            ) == brute_extremes(inst)

    def test_witnesses_re_evaluate(self):
        for inst in (gen_big_nash(6), gen_uniform_gap(F(1, 3))):
            report = enumerate_extremes(inst)
            assert cost(inst, report.min_cost_witness) == report.min_cost
            assert cost(inst, report.min_nash_witness) == report.min_nash_cost
            assert cost(inst, report.max_nash_witness) == report.max_nash_cost
            assert is_nash(inst, report.min_nash_witness)
            assert is_nash(inst, report.max_nash_witness)

    def test_witness_ties_break_lexicographically(self):
        inst = Instance(weights=(F(1), F(1)), delays=(F(1), F(1)))
        report = enumerate_extremes(inst)
        # (1, 2) and (2, 1) tie at the optimum; the lex-smaller one wins
        assert report.min_cost_witness == Assignment((1, 2))

    def test_optimum_beats_random_assignments(self):
        inst = gen_random(6, 3, (F(1), F(4)), (F(1), F(4)), 99)
        report = enumerate_extremes(inst)
        rng = SplitMix64(7)
        for _ in range(100):
            target = tuple(1 + rng.draws(1, inst.m)[0] for _ in range(inst.n))
            assert report.min_cost <= cost(inst, Assignment(target))

    def test_partitioned_reduction_matches_sequential_scan(self):
        # min/max with lexicographic tie-breaking is associative and
        # commutative, so chunked enumeration reduces to the same report
        inst = Instance(weights=(F(2), F(1), F(1)), delays=(F(1), F(1), F(2)))
        report = enumerate_extremes(inst)
        scored = [
            (cost(inst, Assignment(t)), t, is_nash(inst, Assignment(t)))
            for t in all_targets(inst.n, inst.m)
        ]
        chunks = [scored[0::3], scored[2::3], scored[1::3]]  # shuffled split

        def reduce_chunk(entries, nash_only, prefer_high):
            best = None
            for value, target, nash in entries:
                if nash_only and not nash:
                    continue
                if best is None:
                    best = (value, target)
                    continue
                better = value > best[0] if prefer_high else value < best[0]
                if better or (value == best[0] and target < best[1]):
                    best = (value, target)
            return best

        for nash_only, prefer_high, expect_cost, expect_witness in (
            (False, False, report.min_cost, report.min_cost_witness),
            (True, False, report.min_nash_cost, report.min_nash_witness),
            (True, True, report.max_nash_cost, report.max_nash_witness),
        ):
            parts = [reduce_chunk(c, nash_only, prefer_high) for c in chunks]
            survivors = [(part[0], part[1], True) for part in parts if part is not None]
            merged = reduce_chunk(survivors, False, prefer_high)
            assert merged == (expect_cost, expect_witness.target)

    def test_identical_delay_cost_chain(self):
        for seed in range(15):
            inst = gen_random(1 + seed % 6, 1 + seed % 3, (F(1), F(4)), (F(2), F(2)), seed)
            r = enumerate_extremes(inst)
            assert r.min_cost <= r.min_nash_cost <= r.max_nash_cost <= 3 * r.min_nash_cost


class TestRatioReportValidation:
    @staticmethod
    def _report(min_cost, min_nash_cost, max_nash_cost):
        one = Assignment((1,))
        return RatioReport(min_cost=min_cost, min_nash_cost=min_nash_cost,
                           max_nash_cost=max_nash_cost, min_cost_witness=one,
                           min_nash_witness=one, max_nash_witness=one)

    def test_ratios_are_the_cost_quotients(self):
        report = self._report(F(2), F(3), F(7))
        assert report.coordination_ratio == F(7, 2)
        assert report.nash_gap == F(7, 3)
        assert report.opt_gap == F(3, 2)
        with pytest.raises(TypeError):
            RatioReport(F(1), F(1), F(1), Assignment((1,)), Assignment((1,)),
                        Assignment((1,)), coordination_ratio=F(3))

    @pytest.mark.parametrize("costs", [(F(2), F(1), F(3)), (F(1), F(3), F(2))],
                             ids=["min-nash-below-min", "max-nash-below-min-nash"])
    def test_cost_chain_violation_rejected(self, costs):
        with pytest.raises(ValueError, match="min <= min Nash <= max Nash"):
            self._report(*costs)


class TestCountVectors:
    def test_iteration_order_materializes_ascending(self):
        vectors = list(reference_count_vectors(2, 2))
        assert vectors == [(2, 0), (1, 1), (0, 2)]

    def test_unique_nash_vector(self):
        inst = gen_uniform_gap(F(1, 10))
        assert reference_nash_count_vectors(inst) == [CountAssignment((2, 0))]
        report = enumerate_extremes(inst)
        assert report.min_nash_witness == report.max_nash_witness == Assignment((1, 1))

    def test_two_nash_vectors_at_zero_epsilon(self):
        inst = gen_uniform_gap(F(0))
        found = reference_nash_count_vectors(inst)
        assert found == [CountAssignment((2, 0)), CountAssignment((1, 1))]
        report = enumerate_extremes(inst)
        assert report.max_nash_witness == Assignment((1, 1))
        assert report.min_nash_witness == Assignment((1, 2))


class TestVerifyBounds:
    # on two unit tasks and two unit delays, (1, 2) costs 2 and is the
    # equilibrium, while (1, 1) costs 4 and is not one
    @pytest.mark.parametrize("report, message", [
        (RatioReport(F(2), F(2), F(2), Assignment((1, 1)), Assignment((1, 2)), Assignment((1, 2))),
         "optimum witness re-costs differently"),
        (RatioReport(F(2), F(2), F(2), Assignment((1, 2)), Assignment((1, 1)), Assignment((1, 2))),
         "Nash witness re-costs differently"),
        (RatioReport(F(2), F(4), F(4), Assignment((1, 2)), Assignment((1, 1)), Assignment((1, 1))),
         "Nash witness is not a Nash assignment"),
    ])
    def test_refuses_a_report_of_another_instance(self, report, message):
        inst = Instance(weights=(1, 1), delays=(1, 1))
        with pytest.raises(ValueError, match=f"^report does not match instance: {message}$"):
            verify_bounds(inst, report)

    def test_zero_epsilon_gap_is_tight(self):
        inst = gen_uniform_gap(F(0))
        report = enumerate_extremes(inst)
        checks = {c.name: c for c in verify_bounds(inst, report)}
        gap = checks["nash-gap-identical-weights"]
        assert report.nash_gap == F(4, 3)
        assert gap.satisfied and gap.slack == F(0)

    def test_identical_delays_bound_holds(self):
        for seed in range(10):
            inst = gen_random(1 + seed % 5, 2, (F(1), F(4)), (F(3), F(3)), seed)
            report = enumerate_extremes(inst)
            checks = {c.name: c for c in verify_bounds(inst, report)}
            assert checks["nash-gap-identical-delays"].satisfied

    def test_single_resource_all_ratios_one(self):
        inst = Instance(weights=(F(2), F(1)), delays=(F(1),))
        report = enumerate_extremes(inst)
        assert report.coordination_ratio == F(1)
        assert all(c.satisfied for c in verify_bounds(inst, report))

    def test_weight_range_bound_applies_when_weights_exceed_one(self):
        inst = gen_big_nash(5)
        report = enumerate_extremes(inst)
        checks = {c.name: c for c in verify_bounds(inst, report)}
        bound = checks["coordination-ratio-weight-range"]
        assert bound.satisfied
        assert bound.slack == 4 * inst.weight_spread - report.coordination_ratio

    def test_small_weights_skip_range_bound(self):
        inst = Instance(weights=(F(1, 2), F(1, 2)), delays=(F(1), F(1)))
        report = enumerate_extremes(inst)
        names = {c.name for c in verify_bounds(inst, report)}
        assert "coordination-ratio-weight-range" not in names

    def test_mismatched_report_rejected(self):
        inst = gen_uniform_gap(F(1, 10))
        other = gen_big_nash(4)
        report = enumerate_extremes(inst)
        with pytest.raises(ValueError):
            verify_bounds(other, report)
