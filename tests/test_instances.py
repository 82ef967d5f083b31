"""Generator families and their advertised guarantees."""

import math
from fractions import Fraction as F

import pytest

from selfish_assign import (
    Assignment,
    Instance,
    SplitMix64,
    cli,
    dumps_instance,
    instances,
    cost,
    enumerate_extremes,
    gen_big_nash,
    gen_nash_ratio_lb,
    gen_random,
    gen_uniform_gap,
    find_opt,
    is_nash,
    verify_bounds,
)

from helpers import OneDrawSplitMix64, reference_nash_ratio_lb_targets


class TestBigNash:
    def test_smallest_member(self):
        inst = gen_big_nash(3)
        assert inst.weights == (F(9), F(9), F(1))
        assert inst.delays == (F(1), F(1))

    def test_ten_tasks(self):
        inst = gen_big_nash(10)
        assert inst.weights == (F(100), F(100)) + (F(1),) * 8
        assert inst.weight_spread == F(100)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            gen_big_nash(2)

    def test_equilibria_cost_at_least_n_fifths_of_optimum(self):
        report = enumerate_extremes(gen_big_nash(10))
        assert report.opt_gap >= F(10, 5)


class TestNashRatioLb:
    @pytest.mark.parametrize("epsilon", [F(1), F(1, 2), F(1, 4)])
    def test_construction(self, epsilon):
        inst, segregated, mixed = gen_nash_ratio_lb(epsilon)
        b = math.ceil(F(2) / epsilon)
        assert inst.n == 6 * b + 13
        assert inst.m == 6
        assert sorted(set(inst.weights)) == [F(1), F(3 * b), F(6 * b)]
        assert is_nash(inst, segregated)
        assert is_nash(inst, mixed)
        assert cost(inst, segregated) == 36 * b * b + 138 * b + 1
        assert cost(inst, mixed) >= (6 * b + 13) * 10 * b
        assert cost(inst, segregated) <= F(3, 5) * (1 + epsilon) * cost(inst, mixed)

    def test_half_epsilon_sizes(self):
        inst, _, _ = gen_nash_ratio_lb(F(1, 2))
        assert inst.n == 37  # block size 4

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            gen_nash_ratio_lb(F(0))

    @pytest.mark.parametrize("epsilon", ["2", "1", "1/2", "1/7", "3/1000", "1/2000"])
    def test_run_built_targets_equal_the_per_entry_construction(self, epsilon, tmp_path, capsys):
        """N1 and N2 are built from runs, past the constructor's check: they
        are the targets built entry by entry, and `gen`'s file is the one
        those checked assignments give, byte for byte."""
        inst, segregated, mixed = gen_nash_ratio_lb(epsilon)
        expected = reference_nash_ratio_lb_targets(math.ceil(2 / F(epsilon)))
        assert (segregated.target, mixed.target) == expected
        assert all(type(r) is int for r in segregated.target + mixed.target)
        assert (segregated, mixed) == tuple(map(Assignment, expected))
        out = tmp_path / "lb.json"
        assert cli.main(["gen", "nash-ratio-lb", "--epsilon", epsilon, "--out", str(out)]) == 0
        capsys.readouterr()
        references = {"N1": Assignment(expected[0]), "N2": Assignment(expected[1])}
        assert out.read_text(encoding="utf-8") == dumps_instance(inst, references)


@pytest.mark.parametrize("family, parameter", [
    ("big-nash", 3), ("big-nash", 1000),
    ("nash-ratio-lb", F(1)), ("nash-ratio-lb", F(1, 2)), ("nash-ratio-lb", F(1, 7)),
])
def test_int_built_families_equal_their_fraction_built_instances(family, parameter):
    """big-nash and nash-ratio-lb build their instances from int arrays,
    each its own kernel; the instance and its file are those of the same
    family built from Fractions."""
    if family == "big-nash":
        n = parameter
        inst, references = gen_big_nash(n), None
        expected = Instance((F(n * n),) * 2 + (F(1),) * (n - 2), (F(1), F(1)))
    else:
        inst, segregated, mixed = gen_nash_ratio_lb(parameter)
        references = {"N1": segregated, "N2": mixed}
        b = math.ceil(F(2) / parameter)
        expected = Instance((F(3 * b),) * 6 + (F(6 * b),) * 6 + (F(1),) * (6 * b + 1), (F(1),) * 6)
    assert inst == expected and inst._kernel == expected._kernel
    assert inst.weights == expected.weights and inst.delays == expected.delays
    assert dumps_instance(inst, references) == dumps_instance(expected, references)


class TestUniformGap:
    def test_delays(self):
        assert gen_uniform_gap(F(1, 10)).delays == (F(1, 2), F(11, 10))

    def test_zero_epsilon_realizes_four_thirds_gap(self):
        report = enumerate_extremes(gen_uniform_gap(F(0)))
        assert report.nash_gap == F(4, 3)
        assert report.min_cost == F(3, 2)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            gen_uniform_gap(F(-1, 10))


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random(5, 2, (F(1), F(4)), (F(1), F(2)), seed=1)
        b = gen_random(5, 2, (F(1), F(4)), (F(1), F(2)), seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_random(6, 3, (F(1), F(4)), (F(1), F(2)), seed=1)
        b = gen_random(6, 3, (F(1), F(4)), (F(1), F(2)), seed=2)
        assert a != b

    def test_degenerate_range_gives_identical_weights(self):
        inst = gen_random(5, 2, (F(1), F(1)), (F(1), F(2)), seed=3)
        assert inst.unit_weights
        find_opt(inst)  # accepted by the identical-weight solver

    def test_values_stay_in_range(self):
        inst = gen_random(40, 10, (F(1), F(4)), (F(1, 2), F(3)), seed=5)
        assert all(F(1) <= w <= F(4) for w in inst.weights)
        assert all(F(1, 2) <= d <= F(3) for d in inst.delays)

    @pytest.mark.parametrize("n, m", [(0, 2), (2, 0)])
    def test_rejects_no_tasks_or_no_resources(self, n, m):
        with pytest.raises(ValueError, match="need at least one task and one resource"):
            gen_random(n, m, (F(1), F(2)), (F(1), F(2)), seed=1)

    def test_rejects_empty_or_nonpositive_ranges(self):
        with pytest.raises(ValueError):
            gen_random(2, 2, (F(4), F(1)), (F(1), F(2)), seed=1)
        with pytest.raises(ValueError):
            gen_random(2, 2, (F(0), F(1)), (F(1), F(2)), seed=1)

    def test_seeded_sweep_satisfies_all_bounds(self):
        for seed in range(1, 201):
            inst = gen_random(1 + seed % 6, 1 + seed % 3, (F(1), F(4)), (F(1), F(4)), seed)
            report = enumerate_extremes(inst)
            assert all(c.satisfied for c in verify_bounds(inst, report))


class TestSizeBound:
    """Each family checks its tasks plus resources against MAX_GEN_SIZE
    before it builds anything; the sizes are read at a bound of 50."""

    # (family call, tasks plus resources it builds)
    FAMILIES = [
        pytest.param(lambda: gen_random(45, 5, (F(1), F(2)), (F(1), F(2)), seed=1), 50, id="random"),
        pytest.param(lambda: gen_big_nash(48), 50, id="big-nash"),
        pytest.param(lambda: gen_nash_ratio_lb(F(2, 5)), 49, id="nash-ratio-lb"),  # 6 * 5 + 13 tasks
    ]

    @pytest.mark.parametrize("build, size", FAMILIES)
    def test_a_family_at_the_bound_is_built(self, build, size, monkeypatch):
        monkeypatch.setattr(instances, "MAX_GEN_SIZE", size)
        inst = build()
        inst = inst[0] if isinstance(inst, tuple) else inst
        assert inst.n + inst.m == size

    @pytest.mark.parametrize("build, size", FAMILIES)
    def test_a_family_above_the_bound_is_refused(self, build, size, monkeypatch):
        monkeypatch.setattr(instances, "MAX_GEN_SIZE", size - 1)
        with pytest.raises(ValueError, match=rf"^the instance would have {size} tasks and resources,"
                                             rf" above the bound {size - 1}$"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: gen_random(10**18, 1, (F(1), F(2)), (F(1), F(2)), seed=1),
        lambda: gen_random(1, 10**18, (F(1), F(2)), (F(1), F(2)), seed=1),
        lambda: gen_big_nash(10**100),
        lambda: gen_nash_ratio_lb(F(1, 10**9)),
    ])
    def test_huge_sizes_are_refused_before_anything_is_built(self, build):
        # these would build lists of 10**9 entries and more
        with pytest.raises(ValueError, match=f"above the bound {instances.MAX_GEN_SIZE}$"):
            build()


class TestSplitMix64:
    #: splitmix64's published first three outputs from seed 0
    SEED_ZERO = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_published_seed_zero_outputs(self):
        assert SplitMix64(0).draws(3, 2**64) == self.SEED_ZERO
        one = OneDrawSplitMix64(0)
        assert [one.below(2**64) for _ in range(3)] == self.SEED_ZERO

