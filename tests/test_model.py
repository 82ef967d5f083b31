"""Core model: rational parsing, instance validation, loads, cost, equilibria."""

import dataclasses
import enum
import json
import pickle
from fractions import Fraction as F
from itertools import product

import pytest

from selfish_assign import (
    Assignment,
    CountAssignment,
    Instance,
    cost,
    dumps_instance,
    format_rational,
    gen_big_nash,
    gen_uniform_gap,
    improving_moves,
    is_nash,
    loads_instance,
    parse_rational,
    resource_load,
    resource_loads,
    task_load,
)

from helpers import all_targets, naive_is_nash


class TestParseRational:
    def test_integers(self):
        assert parse_rational(3) == F(3)
        assert parse_rational(-2) == F(-2)

    def test_fraction_strings(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational(" 7 ") == F(7)

    def test_decimal_strings_are_exact(self):
        assert parse_rational("0.5") == F(1, 2)
        assert parse_rational("0.1") == F(1, 10)
        assert parse_rational("2.25") == F(9, 4)

    def test_integral_floats_tolerated(self):
        assert parse_rational(2.0) == F(2)

    @pytest.mark.parametrize("bad", [0.1, "1/0", "abc", True, None, [1]])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_always_has_denominator(self):
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(2)) == "2/1"
        assert format_rational(F(-3, 4)) == "-3/4"

    def test_format_beyond_int_string_limit(self):
        # Python's default int-to-string limit is 4300 digits
        assert format_rational(F(-(10**5000), 3)) == "-1" + "0" * 5000 + "/3"
        text = dumps_instance(Instance(weights=(F(10**5000), F(7)), delays=(F(1),)))
        assert json.loads(text)["weights"] == ["1" + "0" * 5000 + "/1", 7]
        # the kernel scales 2**14000 - 1 by 2; 14000 bits still write as an int
        text = dumps_instance(Instance(weights=(F(2**14000 - 1), F(2**14000), F(1, 2)), delays=(F(1),)))
        assert json.loads(text)["weights"] == [2**14000 - 1, str(2**14000) + "/1", "1/2"]


class TestInstance:
    def test_delays_sorted_weights_preserved(self):
        inst = Instance(weights=(F(3), F(1), F(2)), delays=(F(2), F(1, 2), F(1)))
        assert inst.delays == (F(1, 2), F(1), F(2))
        assert inst.weights == (F(3), F(1), F(2))

    def test_derived_quantities(self):
        inst = Instance(weights=(F(1), F(3)), delays=(F(1), F(2)))
        assert inst.n == 2 and inst.m == 2
        assert inst.total_weight == F(4)
        assert inst.throughput == F(3, 2)
        assert inst.average_load == F(2)
        assert inst.weight_spread == F(3)
        assert inst.delay_spread == F(2)
        assert not inst.identical_weights
        assert not inst.identical_delays
        assert inst.distinct_weight_values == (F(1), F(3))

    def test_flags(self):
        inst = Instance(weights=(F(1), F(1)), delays=(F(3), F(3)))
        assert inst.identical_weights and inst.unit_weights and inst.identical_delays
        inst2 = Instance(weights=(F(2), F(2)), delays=(F(1),))
        assert inst2.identical_weights and not inst2.unit_weights

    def test_unit_weights_on_scaled_ints(self):
        # 1/3 scales to the int 1, with weight scale 3
        for weights in ((F(1, 3), F(1, 3)), (F(1), F(1, 3)), (F(3), F(1))):
            assert not Instance(weights=weights, delays=(F(1),)).unit_weights
        assert Instance(weights=(F(1),) * 3, delays=(F(1, 3),)).unit_weights

    @pytest.mark.parametrize(
        "weights,delays",
        [((), (F(1),)), ((F(1),), ()), ((F(0),), (F(1),)), ((F(1),), (F(-1),))],
    )
    def test_rejects_bad_instances(self, weights, delays):
        with pytest.raises(ValueError):
            Instance(weights=weights, delays=delays)

    def test_value_semantics_with_cached_kernel(self):
        inst = Instance(weights=(F(1, 3), 2), delays=(F(5, 7), 1))
        same = Instance(weights=(F(1, 3), F(2)), delays=(F(1), F(5, 7)))
        assert inst.total_weight == F(7, 3)  # computes inst's integer kernel only
        assert inst == same and hash(inst) == hash(same)
        assert repr(inst) == repr(same) == (
            "Instance(weights=(Fraction(1, 3), Fraction(2, 1)),"
            " delays=(Fraction(5, 7), Fraction(1, 1)))"
        )
        for original in (inst, same):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            assert repr(copy) == repr(original)
            assert copy.total_weight == F(7, 3) and copy.weight_spread == F(6)
        for attr in ("weights", "delays", "_kernel"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, attr, (F(1),))

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            Assignment((0, 1))
        with pytest.raises(ValueError):
            Assignment((1, "2"))
        with pytest.raises(ValueError):
            CountAssignment((1, -1))

    @pytest.mark.parametrize("make, message", [
        (lambda: Assignment((1, 0)), "resource indices are 1-based ints, got 0"),
        (lambda: Assignment((2, -3, 0)), "resource indices are 1-based ints, got -3"),
        (lambda: Assignment((1, True)), "resource indices are 1-based ints, got True"),
        (lambda: Assignment((2.0, 1)), "resource indices are 1-based ints, got 2.0"),
        (lambda: Assignment((1, "1")), "resource indices are 1-based ints, got '1'"),
        (lambda: CountAssignment((2, -1, -4)), "task counts are non-negative ints, got -1"),
        (lambda: CountAssignment(()), "a count vector needs at least one resource"),
        (lambda: Assignment((1, RESOURCE.SECOND)), None),  # int subclasses other than bool
        (lambda: CountAssignment((RESOURCE.FIRST, 0)), None),
    ])
    def test_assignment_messages(self, make, message):
        if message is None:
            make()  # accepted
            return
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message


RESOURCE = enum.IntEnum("RESOURCE", ["FIRST", "SECOND"])

UNIT_PAIR = Instance(weights=(F(1), F(1)), delays=(F(1), F(1)))


class TestResourceLoad:
    def test_both_tasks_on_one_resource(self):
        assert resource_load(UNIT_PAIR, Assignment((1, 1)), 1) == F(2)

    def test_empty_resource(self):
        assert resource_load(UNIT_PAIR, Assignment((1, 1)), 2) == F(0)

    def test_heavy_pair_together(self):
        inst = gen_big_nash(10)
        a = Assignment((1, 1) + (2,) * 8)
        assert resource_load(inst, a, 1) == F(200)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            resource_load(UNIT_PAIR, Assignment((1, 1)), 3)
        with pytest.raises(IndexError):
            resource_load(UNIT_PAIR, Assignment((1, 1)), 0)

    def test_count_vector(self):
        inst = Instance(weights=(F(2), F(2), F(2)), delays=(F(1), F(3)))
        assert resource_load(inst, CountAssignment((2, 1)), 1) == F(4)
        assert resource_load(inst, CountAssignment((2, 1)), 2) == F(6)

    def test_all_loads_in_one_call(self):
        inst = Instance(weights=(F(1, 2), F(3), F(1, 2)), delays=(F(2, 3), F(3, 2), F(5)))
        a = Assignment((2, 3, 2))
        assert resource_loads(inst, a) == [F(0), F(3, 2), F(15)]
        assert resource_loads(inst, a) == [resource_load(inst, a, r) for r in (1, 2, 3)]
        counts = Instance(weights=(F(2),) * 3, delays=(F(1), F(3)))
        assert resource_loads(counts, CountAssignment((2, 1))) == [F(4), F(6)]


class TestCost:
    def test_two_unit_tasks_together(self):
        assert cost(UNIT_PAIR, Assignment((1, 1))) == F(4)

    def test_heavy_pair_plus_units(self):
        inst = gen_big_nash(10)
        assert cost(inst, Assignment((1, 1) + (2,) * 8)) == F(464)

    def test_split_pair_on_uneven_resources(self):
        inst = gen_uniform_gap(F(1, 10))
        assert cost(inst, CountAssignment((1, 1))) == F(8, 5)

    def test_count_vector_needs_identical_weights(self):
        inst = Instance(weights=(F(1), F(2)), delays=(F(1), F(1)))
        with pytest.raises(ValueError):
            cost(inst, CountAssignment((1, 1)))

    def test_count_vector_shape_checks(self):
        with pytest.raises(ValueError):
            cost(UNIT_PAIR, CountAssignment((2,)))
        with pytest.raises(ValueError):
            cost(UNIT_PAIR, CountAssignment((2, 1)))

    def test_assignment_shape_checks(self):
        with pytest.raises(ValueError):
            cost(UNIT_PAIR, Assignment((1,)))
        with pytest.raises(ValueError):
            cost(UNIT_PAIR, Assignment((1, 3)))


class TestIsNash:
    def test_stacked_fast_resource_is_nash(self):
        inst = gen_uniform_gap(F(1, 10))
        assert is_nash(inst, CountAssignment((2, 0)))

    def test_split_is_not_nash(self):
        inst = gen_uniform_gap(F(1, 10))
        assert not is_nash(inst, CountAssignment((1, 1)))

    def test_all_alone_is_nash(self):
        inst = Instance(weights=(F(3), F(1)), delays=(F(2), F(2), F(2)))
        assert is_nash(inst, Assignment((1, 2)))

    def test_equal_load_move_keeps_equilibrium(self):
        # moving would match, not beat, the current load
        inst = gen_uniform_gap(F(0))
        assert is_nash(inst, CountAssignment((1, 1)))
        assert is_nash(inst, CountAssignment((2, 0)))
        assert not is_nash(inst, CountAssignment((0, 2)))

    def test_matches_naive_predicate(self):
        inst = Instance(weights=(F(3), F(2), F(1)), delays=(F(1), F(2)))
        for target in all_targets(inst.n, inst.m):
            assert is_nash(inst, Assignment(target)) == naive_is_nash(
                inst.weights, inst.delays, target
            )


class TestTaskLoad:
    def test_single_task_alone(self):
        assert task_load(UNIT_PAIR, Assignment((1, 2)), 1) == F(1)

    def test_balanced_heavy_instance(self):
        inst = gen_big_nash(10)
        balanced = Assignment((1, 2, 1, 1, 1, 1, 2, 2, 2, 2))
        assert task_load(inst, balanced, 1) == F(104)

    def test_stacked_fast_resource(self):
        inst = gen_uniform_gap(F(1, 10))
        assert task_load(inst, CountAssignment((2, 0)).to_assignment(), 1) == F(1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            task_load(UNIT_PAIR, Assignment((1, 1)), 3)


class TestImprovingMoves:
    def test_nash_has_no_moves(self):
        inst = gen_uniform_gap(F(1, 10))
        assert improving_moves(inst, Assignment((1, 1))) == []

    def test_witness_move(self):
        inst = gen_uniform_gap(F(1, 10))
        moves = improving_moves(inst, Assignment((1, 2)))
        assert moves == [(2, 1, F(1))]


class TestModelProperties:
    @pytest.mark.parametrize(
        "n,m,weight,delays",
        [
            (4, 2, F(1), (F(1), F(1))),
            (5, 3, F(3, 2), (F(1), F(2), F(3))),
            (8, 3, F(1), (F(1, 2), F(1), F(1))),
        ],
    )
    def test_count_vector_cost_matches_assignment_cost(self, n, m, weight, delays):
        inst = Instance(weights=(weight,) * n, delays=delays)
        for target in all_targets(n, m):
            counts = [0] * m
            for r in target:
                counts[r - 1] += 1
            assert cost(inst, Assignment(target)) == cost(
                inst, CountAssignment(tuple(counts))
            )

    def test_nash_invariant_under_equal_weight_task_swap(self):
        inst = Instance(weights=(F(2), F(2), F(1)), delays=(F(1), F(3)))
        for target in all_targets(3, 2):
            swapped = (target[1], target[0], target[2])
            assert is_nash(inst, Assignment(target)) == is_nash(
                inst, Assignment(swapped)
            )

    def test_nash_invariant_under_equal_delay_resource_swap(self):
        inst = Instance(weights=(F(3), F(1), F(2)), delays=(F(2), F(2), F(5)))
        relabel = {1: 2, 2: 1, 3: 3}
        for target in all_targets(3, 3):
            relabeled = tuple(relabel[r] for r in target)
            assert is_nash(inst, Assignment(target)) == is_nash(
                inst, Assignment(relabeled)
            )

    def test_heavy_task_alone_in_every_nash(self):
        # a task heavier than the per-resource average never shares
        inst = Instance(weights=(F(5), F(1), F(1)), delays=(F(1), F(1)))
        for target in all_targets(3, 2):
            if not is_nash(inst, Assignment(target)):
                continue
            assert not any(target[j] == target[0] for j in (1, 2))

    def test_nash_load_window_on_identical_resources(self):
        # every task's load sits in [max(w_i, avg/2), avg + w_i] when no
        # task exceeds the average load
        inst = Instance(weights=(F(2), F(1), F(1), F(2)), delays=(F(1), F(1)))
        avg = inst.average_load
        assert all(w <= avg for w in inst.weights)
        seen_nash = False
        for target in all_targets(4, 2):
            a = Assignment(target)
            if not is_nash(inst, a):
                continue
            seen_nash = True
            for i in range(1, 5):
                load = task_load(inst, a, i)
                w = inst.weights[i - 1]
                assert max(w, avg / 2) <= load <= avg + w
        assert seen_nash

    def test_delay_scaling_scales_costs_and_keeps_nash(self):
        base = Instance(weights=(F(3), F(1), F(2)), delays=(F(1), F(2)))
        scale = F(5, 3)
        scaled = Instance(
            weights=base.weights, delays=tuple(scale * d for d in base.delays)
        )
        for target in all_targets(3, 2):
            a = Assignment(target)
            assert cost(scaled, a) == scale * cost(base, a)
            assert is_nash(base, a) == is_nash(scaled, a)


class TestInstanceFiles:
    def test_loads_mixed_forms(self):
        inst, refs = loads_instance(
            '{"weights": [1, "3/4", "0.5"], "delays": ["2", 1]}'
        )
        assert inst.weights == (F(1), F(3, 4), F(1, 2))
        assert inst.delays == (F(1), F(2))
        assert refs == {}

    def test_rejects_bare_floats(self):
        with pytest.raises(ValueError):
            loads_instance('{"weights": [0.1], "delays": [1]}')

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            loads_instance('{"weights": [1]}')
        with pytest.raises(ValueError):
            loads_instance("[1, 2]")

    def test_canonical_round_trip(self):
        inst = Instance(weights=(F(1), F(5, 4)), delays=(F(1, 2), F(3)))
        text = dumps_instance(inst)
        reparsed, _ = loads_instance(text)
        assert reparsed == inst
        assert dumps_instance(reparsed) == text
        assert '"1/2"' in text and "3" in text  # ints stay ints, ratios quoted

    def test_round_trip_beyond_int_string_limit(self):
        # Python's default int-to-string limit is 4300 digits
        huge = 10**5000 + 7
        inst = Instance(weights=(F(huge), F(1, 3)), delays=(F(huge + 1, huge - 2), F(2)))
        text = dumps_instance(inst)
        reparsed, _ = loads_instance(text)
        assert reparsed == inst
        assert dumps_instance(reparsed) == text
        assert parse_rational("-0." + "0" * 4999 + "5") == F(-1, 2 * 10**4999)

    @pytest.mark.parametrize("bad", ["1" * 5000 + "/0", "1" * 5000 + "/-3", "1" * 5000 + "/2.5"])
    def test_rejects_beyond_int_string_limit(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("named", [["x"], "x", 3])
    def test_reference_assignments_must_be_an_object(self, named):
        doc = {"weights": [1, 2], "delays": [1, 2], "reference_assignments": named}
        with pytest.raises(ValueError, match="reference_assignments"):
            loads_instance(json.dumps(doc))

    @pytest.mark.parametrize("target, fragment", [
        ([9, 1], "'a': task 1 uses resource 9, instance has 2"),
        ([1, 3], "'a': task 2 uses resource 3, instance has 2"),
        ([1], "'a': assignment has 1 entries, instance has 2 tasks"),
        ([1, 2, 1], "'a': assignment has 3 entries, instance has 2 tasks"),
        ([], "'a': assignment has 0 entries, instance has 2 tasks"),
        ([0, 1], "'a': resource indices are 1-based ints, got 0"),
    ])
    def test_reference_assignments_must_fit_the_instance(self, target, fragment):
        doc = {"weights": [1, 2], "delays": [1, 2], "reference_assignments": {"a": target}}
        with pytest.raises(ValueError) as raised:
            loads_instance(json.dumps(doc))
        assert fragment in str(raised.value) and "\n" not in str(raised.value)

    def test_reference_assignments_round_trip(self):
        inst = Instance(weights=(F(1), F(1)), delays=(F(1), F(1)))
        refs = {"split": Assignment((1, 2))}
        text = dumps_instance(inst, refs)
        _, parsed = loads_instance(text)
        assert parsed["split"] == Assignment((1, 2))


# Instance files read straight into the kernel: (weights, delays) as JSON.
# Unreduced p/q, decimals, exponents, integral floats, mixed lists and
# strings beyond Python's 4300-digit int-to-string limit.
KERNEL_FILES = {
    "unreduced": (["2/4", "6/3", 1], ["10/4", "3/9"]),
    "decimal": (["0.5", "1.25"], ["0.5", 2]),
    "exponent": (["1e3", "2E-2"], ["1e0", "5/2"]),
    "integral-float": ([3.0, 2], [1.0, "1/2"]),
    "mixed": ([1, "3/4", "7", 2, "3/4"], ["2", 1, "1/3", 1]),
    "wide-string": (["1" + "0" * 5000 + "/3", "2"], ["9" * 4400, "1/" + "7" * 4400]),
}


def _repr(inst):
    """repr, or the error Fraction.__repr__ raises beyond the digit limit."""
    try:
        return repr(inst)
    except ValueError as exc:
        return str(exc)


class TestKernelBuiltInstance:
    @pytest.mark.parametrize("case", sorted(KERNEL_FILES))
    def test_loaded_equals_constructed(self, case):
        weights, delays = KERNEL_FILES[case]
        text = json.dumps({"weights": weights, "delays": delays})
        built = Instance(weights=tuple(map(parse_rational, weights)),
                         delays=tuple(map(parse_rational, delays)))
        loaded, _ = loads_instance(text)
        reloaded, _ = loads_instance(dumps_instance(built))
        for inst in (loaded, reloaded):
            assert inst == built and hash(inst) == hash(built)
            assert inst._kernel == built._kernel
            assert _repr(inst) == _repr(built)
            copy = pickle.loads(pickle.dumps(inst))
            assert copy == built and hash(copy) == hash(built) and _repr(copy) == _repr(built)
            assert inst.weights == built.weights and inst.delays == built.delays
            assert dumps_instance(inst) == dumps_instance(built)

    def test_frozen_before_and_after_the_fractions_are_built(self):
        inst, _ = loads_instance('{"weights": [1, "1/3"], "delays": ["5/7", 1]}')
        for built in (False, True):
            assert ("weights" in vars(inst)) is built and ("delays" in vars(inst)) is built
            for attr in ("weights", "delays", "_kernel"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(inst, attr, (F(1),))
            assert inst.weights == (F(1), F(1, 3)) and inst.delays == (F(5, 7), F(1))

    def test_kernel_is_canonical(self):
        inst, _ = loads_instance('{"weights": ["2/4", "1/6"], "delays": [4, "8/4"]}')
        # weights 1/2 and 1/6 scale by 6; delays sorted, scale 1
        assert inst._kernel == ((3, 1), 6, (2, 4), 1)
        assert inst.distinct_weight_values == (F(1, 6), F(1, 2))
        assert inst.distinct_delay_values == (F(2), F(4))
        assert inst.throughput == F(3, 4) and inst.delay_spread == F(2)

    @pytest.mark.parametrize(
        "value,weight_message,delay_message",
        [
            (0, "task weights must be positive", "resource delays must be positive"),
            (-1, "task weights must be positive", "resource delays must be positive"),
            ("-1/2", "task weights must be positive", "resource delays must be positive"),
            (True, "not a rational number: True", None),
            ("abc", "not a rational number: 'abc'", None),
            ("1/0", "not a rational number: '1/0'", None),
            (0.5, "non-integer JSON number 0.5 is inexact; quote it as a string", None),
            (None, "an instance needs at least one task", "an instance needs at least one resource"),
        ],
    )
    def test_rejections_keep_their_messages(self, value, weight_message, delay_message):
        array = [] if value is None else [1, value, 2]
        for key, message in (("weights", weight_message), ("delays", delay_message or weight_message)):
            doc = {"weights": [1], "delays": [1], key: array}
            with pytest.raises(ValueError) as raised:
                loads_instance(json.dumps(doc))
            assert str(raised.value) == message

    def test_first_unreadable_value_is_reported(self):
        with pytest.raises(ValueError, match="'abc'"):
            loads_instance('{"weights": [1, "abc", "xyz", "abc"], "delays": [1]}')
        with pytest.raises(ValueError, match="1.5"):
            loads_instance('{"weights": [1, 1.5, true], "delays": [1]}')
