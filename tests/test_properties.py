"""Property tests: the fast equilibrium scan, the evaluators and greedy
builders on the integer kernel, the integer dynamic programs and the
incremental oracle walk against the straightforward loops and Fraction
programs in helpers.py and against brute force, on generated instances.

The report writer is checked against `json.dumps(value, indent=2)`, with
an assignment written as the array of its target, the instance-file reader
against `parse_rational` on generated documents, and `parse_rational`
against `Fraction` on strings of the number grammar.

Examples are derandomized and bounded, so every run checks the same cases.
Values are drawn either from small integers (many exact ties) or from
independent p/q fractions (wide denominators).
"""

import json
import re
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfish_assign import (
    Assignment,
    CountAssignment,
    DPSolution,
    Instance,
    SplitMix64,
    algorithms,
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
    gen_random,
    greedy_nash,
    improving_moves,
    is_nash,
    dumps_instance,
    loads_instance,
    parse_rational,
    resource_load,
    resource_loads,
    round_delays,
    round_weights,
    task_load,
)
from selfish_assign import cli, model
from selfish_assign.model import _TEMPLATE_MIN_ROWS, dumps_json

from helpers import (
    OneDrawSplitMix64,
    all_takes,
    brute_min_cost,
    brute_row_minima,
    count_grid_steps,
    heap_find_opt,
    heap_find_opt_nash,
    naive_cost,
    naive_is_nash,
    reference_count_vectors,
    reference_dp_few_delays,
    reference_dp_few_weights,
    reference_dp_identical_delays,
    reference_cost,
    reference_enumerate_extremes,
    reference_fractional_opt,
    reference_gen_random,
    reference_greedy_nash,
    reference_improving_moves,
    reference_is_nash,
    reference_nash_count_vectors,
    reference_resource_load,
    reference_round_up_geometric,
    reference_sweep_round_up_geometric,
    reference_int_kth_root,
    reference_scaled,
    reference_threshold_counts,
    reference_walk_extremes,
    scan_greedy_nash,
    scan_improving_moves,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

TIED = st.integers(1, 3).map(F)
WIDE = st.builds(F, st.integers(1, 400), st.integers(1, 97))
VALUES = st.sampled_from((TIED, WIDE))
HUGE = st.builds(F, st.integers(1, 10**30), st.integers(1, 10**20))
DP_VALUES = st.sampled_from((TIED, WIDE, HUGE))
EPSILONS = st.sampled_from((F(1, 3), F(1, 2), F(1), F(2)))
RUN_WEIGHTS = (F(1, 2), F(1), F(3, 2), F(2), F(3), F(4))


@st.composite
def instances(draw, max_n, max_m):
    weights = draw(st.lists(draw(VALUES), min_size=1, max_size=max_n))
    delays = draw(st.lists(draw(VALUES), min_size=1, max_size=max_m))
    return Instance(tuple(weights), tuple(delays))


@st.composite
def assigned(draw, max_n=8, max_m=5):
    """An instance with an assignment: arbitrary, or a greedy equilibrium
    with at most one task moved, so equilibria and near-equilibria occur."""
    inst = draw(instances(max_n, max_m))
    resources = st.integers(1, inst.m)
    if draw(st.booleans()):
        target = draw(st.lists(resources, min_size=inst.n, max_size=inst.n))
    else:
        target = list(greedy_nash(inst).target)
        if draw(st.booleans()):
            target[draw(st.integers(0, inst.n - 1))] = draw(resources)
    return inst, Assignment(tuple(target))


@st.composite
def identical_weight_instances(draw, max_n=150, max_m=12):
    n = draw(st.integers(1, max_n))
    delays = draw(st.lists(draw(VALUES), min_size=1, max_size=max_m))
    return Instance((draw(draw(VALUES)),) * n, tuple(delays))


@st.composite
def few_valued_instances(draw, max_n=8, max_m=6, max_delays=4):
    """Weights from a pool of at most four values and delays from a pool of
    at most `max_delays`, so the DPs apply; a pool of one value gives
    identical weights or delays."""

    def side(size, pool_size):
        pool = draw(st.lists(draw(DP_VALUES), min_size=1, max_size=pool_size))
        return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=size)))

    return Instance(side(max_n, 4), side(max_m, max_delays))


@st.composite
def tied_delay_instances(draw, max_states=4096):
    """Weights that are not all equal (so the assignment walk runs) on 2 to 6
    delays from a pool of one or two values, so that resources of equal
    delay form classes; at most `max_states` assignments, for the reference
    enumeration."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, max(k for k in range(2, 13) if m**k <= max_states)))
    pool = draw(st.lists(draw(VALUES), min_size=1, max_size=2, unique=True))
    delays = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    weights = draw(st.lists(draw(VALUES), min_size=n, max_size=n)
                   .filter(lambda ws: len(set(ws)) > 1))
    return Instance(tuple(weights), tuple(delays))


@st.composite
def tied_run_instances(draw, max_n=40, max_m=5):
    """Up to `max_n` tasks whose weights come from a pool of one or two
    small values, on one to three delay classes, so that many runs of tasks
    cost the same and the DP's tie-breaks decide the assignment."""
    n = draw(st.integers(1, max_n))
    pool = draw(st.lists(st.sampled_from(RUN_WEIGHTS), min_size=1, max_size=2, unique=True))
    classes = draw(st.lists(draw(DP_VALUES), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    more = draw(st.lists(st.sampled_from(classes), max_size=max_m - len(classes)))
    return Instance(tuple(weights), tuple(classes + more))


@st.composite
def weight_class_instances(draw, max_n=9, max_m=5):
    """Three or four weight classes of small ints on delays from
    {1, 2, 3, 4, 6}, so that resources with equal d * c (6 * 1, 3 * 2,
    2 * 3) are common and many takes cost the same: the few-weights DP's
    tie-breaks decide the assignment."""
    pool = draw(st.lists(st.integers(1, 6), min_size=3, max_size=4, unique=True))
    n = draw(st.integers(len(pool), max_n))
    weights = pool + draw(st.lists(st.sampled_from(pool), min_size=n - len(pool), max_size=n - len(pool)))
    delays = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=1, max_size=max_m))
    return Instance(tuple(draw(st.permutations(weights))), tuple(delays))


@st.composite
def trimmed_instances(draw, max_n=6, max_m=9):
    """n tasks on m resources, often m > n: delays from a pool of one to
    three values, so that the boundary delay class d_(n) often reaches past
    resource n and the trim to m' (`algorithms._usable`) keeps it whole,
    or takes every resource; n >= m is the control.  Weights from a pool of
    one to three values, so the DPs apply; m^n stays at most 4096, for the
    reference enumeration."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max(k for k in range(1, max_m + 1) if k**n <= 4096)))
    delays = draw(st.lists(st.sampled_from(draw(st.lists(draw(VALUES), min_size=1, max_size=3))),
                           min_size=m, max_size=m))
    weights = draw(st.lists(st.sampled_from(draw(st.lists(draw(VALUES), min_size=1, max_size=3))),
                            min_size=n, max_size=n))
    return Instance(tuple(weights), tuple(delays))


#: 1, 9/8, ..., 2: the nine-point grid `gen random` samples 1..2 from.
#: Rounding with epsilon = 1/2 maps these onto 1, sqrt 2 and 2, the middle
#: point taken as its cell's largest value, so they fall in three classes.
SPREAD_WEIGHTS = tuple(1 + F(j, 8) for j in range(9))


@st.composite
def spread_weight_instances(draw, max_n=9, max_m=5):
    """Weights from SPREAD_WEIGHTS with 1, 5/4 and 2 among them, so that
    rounding them with epsilon = 1/2 gives three classes, on tied delays."""
    n = draw(st.integers(3, max_n))
    weights = [F(1), F(5, 4), F(2)] + draw(
        st.lists(st.sampled_from(SPREAD_WEIGHTS), min_size=n - 3, max_size=n - 3))
    delays = draw(st.lists(st.sampled_from((F(1), F(3, 2), F(2), F(3))), min_size=1, max_size=max_m))
    return Instance(tuple(draw(st.permutations(weights))), tuple(delays))


@PROPERTY
@given(assigned())
# m > n: two tasks alone on four resources, an equilibrium
@example((Instance((1, 2), (1, 1, 2, 3)), Assignment((1, 2))))
# m > n, both tasks on resource 2 while resource 1 is empty
@example((Instance((1, 2), (1, 1, 2, 3)), Assignment((2, 2))))
# the lightest task on resource 1 would pay its own load, 4, on resource 2:
# still an equilibrium
@example((Instance((1, 3, 1), (1, 2)), Assignment((1, 1, 2))))
# a run of three equal delays, one resource of it empty: the weight-2 task
# on resource 3 gains on resource 1 and ties on resource 4
@example((Instance((2, 1, 2, 1), (1, 3, 3, 3)), Assignment((1, 2, 3, 1))))
# resources 2 and 3 have equal delays and equal loads: one line of the two
@example((Instance((2, 1, 1), (1, 2, 2)), Assignment((1, 2, 3))))
def test_is_nash_agrees_with_naive_predicate_and_moves(case):
    inst, a = case
    expected = naive_is_nash(inst.weights, inst.delays, a.target)
    assert is_nash(inst, a) == expected
    assert (not improving_moves(inst, a)) == expected


def _count_envelope_calls(monkeypatch) -> dict:
    """Count the calls of `model._envelope` and `model._best_move`."""
    calls = {"_envelope": 0, "_best_move": 0}
    for name in calls:
        def counted(*args, name=name, function=getattr(model, name)):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(model, name, counted)
    return calls


def test_is_nash_one_envelope_and_one_query_per_occupied_resource(monkeypatch):
    # an equilibrium of 400 tasks of 9 weights on 100 resources, so that
    # no occupied resource is skipped
    inst = gen_random(400, 100, (F(1), F(9)), (F(1), F(4)), 1)
    equilibrium = greedy_nash(inst)
    occupied = len(set(equilibrium.target))
    calls = _count_envelope_calls(monkeypatch)
    assert is_nash(inst, equilibrium)
    assert calls["_envelope"] == 1
    assert 0 < calls["_best_move"] <= occupied
    # a count vector keeps its closed form
    calls.update(_envelope=0, _best_move=0)
    identical = Instance((1,) * 6, (1, 2, 3))
    assert is_nash(identical, CountAssignment((3, 2, 1)))
    assert calls == {"_envelope": 0, "_best_move": 0}


@st.composite
def move_lines(draw, max_m=7):
    """Sorted delays from a small pool and weight sums, zeros included: the
    move lines d_r * (S_r + w), with many equal slopes and meeting points."""
    m = draw(st.integers(1, max_m))
    delays = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=m, max_size=m))
    sums = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 4, 6, 10, 12)), min_size=m, max_size=m))
    return tuple(sorted(delays)), tuple(sums)


@PROPERTY
@given(move_lines(), st.integers(1, 30))
@example(((1, 2), (4, 1)), 2)  # two lines tie at w: resource 0
@example(((1, 2, 3), (10, 4, 2)), 2)  # three lines meet at one point: resource 0
@example(((2, 2), (3, 3)), 1)  # two identical lines
@example(((5,), (0,)), 3)  # m = 1
def test_envelope_gives_the_lowest_load_lowest_index_move(lines, w):
    delays, sums = lines
    expected = min((d * (s + w), r) for r, (d, s) in enumerate(zip(delays, sums)))
    assert model._best_move(model._envelope(delays, sums), w) == expected


# Each weight's best move is looked up once and reused for every task of that weight.
@PROPERTY
@given(assigned(max_n=12, max_m=6))
# weight 1 misses on the fast resource, then moves off the slow one
@example((Instance((1, 1), (1, 1, 10)), Assignment((1, 3))))
# the best move of weight 1 goes to resource 2, which holds a weight-1 task
@example((Instance((1,) * 4, (1, 1)), Assignment((1, 1, 1, 2))))
# resources 2 and 3 tie at load 2: resource 2, from resources 1 and 4 alike
@example((Instance((1,) * 6, (1, 2, 2, 8)), Assignment((1, 1, 1, 1, 1, 4))))
# the best load, 2, equals resource 3's own load: no move from there
@example((Instance((1,) * 5, (1, 1, 2)), Assignment((1, 1, 1, 2, 3))))
# tasks on resources 1 and 2 move to resource 3 at one load, 1.  Distinct
# weights never share a best load: the envelope grows strictly with w.
@example((Instance((1, 1, 1, 1, 2), (1, 1, 1, 9)), Assignment((1, 1, 2, 2, 4))))
def test_improving_moves_equal_per_task_scan(case):
    inst, a = case
    moves = improving_moves(inst, a)
    assert moves == scan_improving_moves(inst.weights, inst.delays, a.target)
    # moves to equal loads share one Fraction
    assert len({id(load) for *_, load in moves}) == len({load for *_, load in moves})


def test_improving_moves_one_envelope_and_one_query_per_weight(monkeypatch):
    # 9 weights round-robin on 16 resources: every resource holds every weight
    inst = Instance([1 + i % 9 for i in range(200)], range(1, 17))
    a = Assignment(tuple(1 + i % 16 for i in range(200)))
    calls = _count_envelope_calls(monkeypatch)
    moves = improving_moves(inst, a)
    assert moves == scan_improving_moves(inst.weights, inst.delays, a.target)
    assert len(moves) > 100
    assert calls == {"_envelope": 1, "_best_move": 9}


def test_improving_moves_on_distinct_rationals_round_robin():
    # 400 distinct weights on 60 resources: one lookup per task
    inst = Instance([F(k, 97 + k % 13) for k in range(1, 401)],
                    [F(1 + k % 7, 1 + k % 5) for k in range(60)])
    assert len(set(inst.weights)) == 400
    a = Assignment(tuple(1 + i % 60 for i in range(400)))
    moves = improving_moves(inst, a)
    assert moves
    assert moves == scan_improving_moves(inst.weights, inst.delays, a.target)


@PROPERTY
@given(assigned())
def test_kept_sums_evaluate_like_a_fresh_assignment(case):
    """An assignment keeps the weight sums of the last instance it was
    evaluated on.  Evaluated on the instance, another of the same shape,
    the first again and an equal one built separately (an equal kernel in
    another object), it evaluates each time as a fresh assignment does."""
    inst, a = case

    def evaluations(instance, assignment):
        return (cost(instance, assignment), resource_loads(instance, assignment),
                improving_moves(instance, assignment), is_nash(instance, assignment))

    other = Instance(tuple(2 * w + 1 for w in inst.weights), inst.delays)
    equal = Instance(inst.weights, inst.delays)
    assert equal == inst and equal._kernel is not inst._kernel
    for instance in (inst, other, inst, equal):
        assert evaluations(instance, a) == evaluations(instance, Assignment(a.target))


@PROPERTY
@given(instances(max_n=30, max_m=8))
def test_greedy_nash_equals_full_scan(inst):
    assert greedy_nash(inst).target == scan_greedy_nash(inst.weights, inst.delays)


@PROPERTY
@given(identical_weight_instances())
@example(Instance((F(1),), (F(3), F(1), F(2))))  # n = 1
@example(Instance((F(2),) * 3, (F(1),) * 7))  # m > n, tied delays
@example(Instance((F(1),) * 2, (F(1), F(2), F(3), F(5))))  # m > n
@example(Instance((F(3, 2),) * 4, (F(1), F(1), F(2), F(7, 3))))  # n = m
@example(Instance((F(1),) * 5, (F(1),) * 5))  # n = m, tied delays
@example(Instance((F(1),) * 100, (F(1), F(1), F(2), F(2), F(4))))
@example(Instance((F(5, 3),) * 97, (F(311, 97), F(13, 89), F(1, 2), F(400, 3))))
def test_seeded_builders_equal_unseeded_heap_loops(inst):
    assert find_opt(inst).counts == heap_find_opt(inst.n, inst.delays)
    assert find_opt_nash(inst).counts == heap_find_opt_nash(inst.n, inst.delays)


@PROPERTY
@given(st.integers(1, 2000), DP_VALUES.flatmap(lambda v: st.lists(v, min_size=1, max_size=12)),
       st.sampled_from((1, 2)))
@example(1, [F(3), F(1), F(2)], 2)  # n = 1
@example(2, [F(1), F(2), F(3), F(5)], 1)  # m > n
@example(5, [F(1)] * 5, 2)  # n = m, tied delays
@example(97, [F(311, 97), F(13, 89), F(1, 2), F(400, 3)], 1)
def test_threshold_counts_equal_fraction_formula(n, delays, slope):
    inst = Instance((F(1),) * n, tuple(delays))
    counts = algorithms._counts_below_threshold(inst._kernel.delays, n, slope)
    assert counts == reference_threshold_counts(n, inst.delays, slope)
    assert n - inst.m <= sum(counts) < n


@PROPERTY
@given(identical_weight_instances(max_n=10, max_m=5), st.data())
def test_count_vector_evaluates_like_its_assignment(inst, data):
    # `nash --mode best` reports cost and is_nash of the count vector
    counts = [0] * inst.m
    for _ in range(inst.n):
        counts[data.draw(st.integers(0, inst.m - 1))] += 1
    vector = CountAssignment(tuple(counts))
    assert cost(inst, vector) == cost(inst, vector.to_assignment())
    assert is_nash(inst, vector) == is_nash(inst, vector.to_assignment())
    moves = improving_moves(inst, vector)
    assert moves == improving_moves(inst, vector.to_assignment())
    assert (not moves) == is_nash(inst, vector)


@st.composite
def built_assignment_instances(draw, max_n=6, max_m=4):
    """Weights and delays from pools of one to three values, so that every
    builder applies to some draws: identical weights take the count-vector
    greedies and the closed form of `enumerate_extremes`, mixed ones its
    walk (at most 4**6 states), identical delays `dp_identical_delays`."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    weights = draw(st.lists(draw(DP_VALUES), min_size=1, max_size=3))
    delays = draw(st.lists(draw(DP_VALUES), min_size=1, max_size=3))
    return Instance(tuple(draw(st.lists(st.sampled_from(weights), min_size=n, max_size=n))),
                    tuple(draw(st.lists(st.sampled_from(delays), min_size=m, max_size=m))))


@PROPERTY
@given(built_assignment_instances())
@example(Instance((F(3),), (F(2),)))  # n = 1, m = 1
@example(Instance((F(1), F(1)), (F(1), F(2), F(2), F(5))))  # m > n, identical weights
@example(Instance((F(2), F(1)), (F(1), F(3), F(3))))  # m > n, mixed weights
@example(Instance((F(1),) * 4, (F(7, 3),) * 2))  # identical weights and delays
def test_built_assignments_pass_the_constructors_check(inst):
    """The package's own builders skip the constructor's check
    (`Assignment._built`); what they build would pass it unchanged."""
    built = [greedy_nash(inst), dp_few_delays(inst).assignment, dp_few_weights(inst).assignment,
             approx_solve_weights(inst, F(1, 2)).assignment,
             approx_solve_delays(inst, F(1, 2)).assignment]
    if inst.identical_weights:
        built += [find_opt(inst).to_assignment(), find_opt_nash(inst).to_assignment()]
    if inst.identical_delays:
        built.append(dp_identical_delays(inst).assignment)
    report = enumerate_extremes(inst)
    built += [report.min_cost_witness, report.min_nash_witness, report.max_nash_witness]
    for a in built:
        assert type(a.target) is tuple and len(a.target) == inst.n
        assert all(type(r) is int and 1 <= r <= inst.m for r in a.target)
        assert a == Assignment(a.target)


# The integer dynamic programs against the Fraction references: the same
# DPSolution, so cost, assignment and every tie-break agree.

@st.composite
def kernel_rows(draw, max_n=24):
    """(prev, scaled, into) for the delay DP's row kernels: `scaled`
    non-decreasing from 0 with many equal steps, `prev` and the row `into`
    of n + 1 small ints, so that many run starts tie."""
    n = draw(st.integers(0, max_n))
    d = draw(st.integers(1, 3))
    scaled = [d * p for p in accumulate(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                                        initial=0)]
    values = st.integers(0, draw(st.sampled_from((3, 60))))
    prev, into = (draw(st.lists(values, min_size=n + 1, max_size=n + 1)) for _ in range(2))
    return prev, scaled, into


# `_row_minima` and `_last_run` scan each range of run starts downward and
# keep a candidate only if strictly smaller.  `_last_run`'s largest
# minimizing i is the DP's tie-break.  On the first example a scan that
# keeps ties (the smallest i) gives a different answer; on the other two, a
# range that misses its lowest start or its highest one.  A row's values
# alone cannot tell the smallest minimizing i from the largest: both never
# decrease with j.
@PROPERTY
@given(kernel_rows(max_n=200))
@example(([0, 0], [0, 0], [0, 0]))  # a tie between i = 0 and 1
@example(([0, 1], [0, 0], [9, 9]))  # j = 1's one minimum at i = 0, its range's low end
@example(([0, 0, 1, 1], [0, 1, 1, 1], [9, 9, 9, 9]))  # j = 1's one minimum at j + 1's start
def test_row_kernels_equal_brute_force(case):
    prev, scaled, into = case
    n = len(scaled) - 1
    schedule = algorithms._schedule(n)
    brute = brute_row_minima(prev, scaled)
    assert [algorithms._last_run(prev, scaled, j) for j in range(n + 1)] == brute
    assert algorithms._last_run(None, scaled, n) == (n * scaled[n], 0)
    assert algorithms._row_minima(prev, scaled, n, None, schedule) == [low for low, _ in brute]
    lowered = list(into)
    assert algorithms._row_minima(prev, scaled, n, lowered, schedule) is lowered
    assert lowered == [min(x, low) for x, (low, _) in zip(into, brute)]


@pytest.mark.parametrize("n", [*range(70), 127, 128, 200, 1000])
def test_schedule_solves_each_j_after_its_bounds(n):
    """`_schedule(n)` lists each j in 0..n once, and each j's lo slot is
    the sentinel n + 1 or a j listed before it, its hi slot None or a j
    listed before it: the starts a scan reads are solved by then."""
    schedule = algorithms._schedule(n)
    assert sorted(j for j, _, _ in schedule) == list(range(n + 1))
    solved = set()
    for j, lo, hi in schedule:
        assert lo == n + 1 or lo in solved
        assert hi is None or hi in solved
        solved.add(j)


@PROPERTY
@given(few_valued_instances(max_delays=1))
@example(Instance((F(3),), (F(2),)))  # n = 1, m = 1
@example(Instance((F(1), F(2)), (F(5, 3),) * 5))  # m > n
@example(Instance((F(10**30, 7), F(1, 10**20), F(3)), (F(10**25, 11),) * 2))
def test_identical_delay_dp_equals_reference(inst):
    assert dp_identical_delays(inst) == reference_dp_identical_delays(inst)
    assert dp_few_delays(inst) == reference_dp_few_delays(inst)


@PROPERTY
@given(few_valued_instances())
@example(Instance((F(7, 3),), (F(1), F(2), F(2), F(9, 4))))  # n = 1
@example(Instance((F(2), F(1)), (F(1), F(1), F(3), F(3), F(3))))  # m > n
@example(Instance((F(311, 97), F(5), F(1, 89), F(5)), (F(400, 3), F(13, 89), F(400, 3))))
def test_few_delay_dp_equals_reference(inst):
    assert dp_few_delays(inst) == reference_dp_few_delays(inst)


# Each row of the delay DP is solved by divide and conquer on its largest
# minimizing run start.  On each example, scanning for the smallest start
# instead, or leaving that start out of either half's range, changes the
# result.
@PROPERTY
@given(tied_run_instances())
@example(Instance((F(1), F(1)), (F(1), F(3))))  # one run of two ties a split
@example(Instance((F(1),) * 3, (F(1), F(1))))  # identical delays: runs 1 + 2 tie 2 + 1
@example(Instance((F(1),) * 4, (F(2),) * 3))
@example(Instance((F(3, 2),) * 4, (F(1, 2), F(3), F(3))))
@example(Instance((F(1),) * 20, (F(1), F(1), F(3), F(3))))
def test_few_delay_dp_equals_reference_on_tied_runs(inst):
    assert dp_few_delays(inst) == reference_dp_few_delays(inst)


@PROPERTY
@given(st.one_of(few_valued_instances(max_n=7, max_m=5, max_delays=5), weight_class_instances()))
@example(Instance((F(4),), (F(1), F(3))))  # n = 1
@example(Instance((F(1, 2), F(3)), (F(1), F(2), F(5), F(7))))  # m > n
@example(Instance((F(2, 3),) * 4, (F(5, 7),)))  # one class, one resource
@example(Instance((F(10**30, 3), F(1, 10**20), F(1, 10**20)), (F(97, 5), F(10**18, 7))))
@example(Instance((F(3),), (F(2), F(3), F(6))))  # n = 1, equal d * c
@example(Instance((F(1), F(2), F(3)), (F(1), F(2), F(3), F(6), F(6))))  # m > n, three classes
@example(Instance((F(2),) * 6, (F(1), F(2), F(3), F(6))))  # one class, equal d * c
@example(Instance((F(1), F(1), F(2), F(2), F(3), F(3), F(4), F(4)), (F(1), F(2), F(3), F(6))))
@example(Instance((F(1), F(2), F(2), F(2), F(3)), (F(1), F(1))))  # a run across a whole class
# m = 2: the last resource reads resource 1's entries, which are its costs
# row; with tied delays that row is also the last resource's costs
@example(Instance((F(2), F(1), F(2), F(1)), (F(3), F(3))))
@example(Instance((F(2), F(1), F(1)), (F(1), F(4))))
@example(Instance((F(3),) * 3, (F(1), F(4))))  # m = 2, one class: every vector has one class
@example(Instance((F(5),) * 4, (F(1), F(2), F(2))))  # one class, tied delays
def test_few_weight_dp_equals_reference(inst):
    assert dp_few_weights(inst) == reference_dp_few_weights(inst)


# The few-weights path tries each vector's run takes alone: the first take
# in product order that attains an entry is a run take (ROADMAP item 9).
# Three or four tied weight classes on tied d * c make many takes attain.
@PROPERTY
@given(weight_class_instances(max_n=14, max_m=7))
@example(Instance((F(1), F(2), F(3), F(1), F(2), F(3)), (F(1), F(2), F(3), F(6))))
@example(Instance((F(1), F(2), F(3), F(4)) * 3, (F(2), F(2), F(3), F(6))))
def test_few_weight_path_equals_the_all_takes_rescan(inst):
    solution = dp_few_weights(inst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithms, "_vector_run_takes", all_takes)
        assert solution == dp_few_weights(inst)


# The DP guards refuse by predicted steps, before any table exists.  Each
# prediction must bound the steps the run takes, counted on the run itself,
# and be at least the entries the tables hold, so that memory stays bounded.

def _counting_row_reads(patch) -> list:
    """Wrap `_row_minima` and `_last_run` so that the `prev` row each scans
    counts its reads in the returned one-item list: every candidate reads
    `prev` once, so the count is the candidates scanned."""
    reads = [0]

    class CountedRow(list):
        def __getitem__(self, i):
            reads[0] += 1
            return list.__getitem__(self, i)

    def counted(kernel):
        return lambda prev, *args: kernel(None if prev is None else CountedRow(prev), *args)

    for name in ("_row_minima", "_last_run"):
        patch.setattr(algorithms, name, counted(getattr(algorithms, name)))
    return reads


def _class_sizes(values) -> Counter:
    """A class size -> the classes of that size, as the predictors take it."""
    return Counter(Counter(values).values())


@PROPERTY
@given(kernel_rows())
@example(([0], [0], [0]))  # n = 0
@example(([0] * 8, [0] * 8, [0] * 8))  # every start ties
def test_row_scan_reads_at_most_the_predicted_candidates(case):
    prev, scaled, _ = case
    n = len(scaled) - 1
    with pytest.MonkeyPatch.context() as patch:
        reads = _counting_row_reads(patch)
        algorithms._row_minima(prev, scaled, n, None, algorithms._schedule(n))
    assert reads[0] <= (n + 1) * (n.bit_length() + 2)


def test_row_scan_with_long_last_runs_stays_n_log_n():
    """A row whose last runs are long: `prev` is one slow resource's row
    (delay 100, unit weights) and `scaled` a faster class's (delay 1), so
    start[j] is about j / 101.  A scan from each j's own start up to j, or
    from start[j - 1] left to right, would read O(n^2) candidates; the
    divide and conquer reads O(n log n)."""
    n = 2000
    prev = [100 * i * i for i in range(n + 1)]
    scaled = list(range(n + 1))
    with pytest.MonkeyPatch.context() as patch:
        reads = _counting_row_reads(patch)
        row = algorithms._row_minima(prev, scaled, n, None, algorithms._schedule(n))
    assert reads[0] <= (n + 1) * (n.bit_length() + 2)
    assert row[n] == min(prev[i] + (n - i) ** 2 for i in range(n + 1))


def _usable_delays(inst) -> tuple:
    """The delays of the first m' resources, which the DPs run on."""
    return inst.delays[:algorithms._usable(inst._kernel.delays, inst.n)]


@PROPERTY
@given(st.one_of(few_valued_instances(max_delays=5), tied_run_instances(),
                 trimmed_instances(max_n=6, max_m=12)))
@example(Instance((F(1),), (F(1),)))  # n = 1, m = 1: no rows, one path scan
@example(Instance((F(1),) * 7, (F(1), F(2), F(3), F(4), F(5))))  # five classes of one
@example(Instance((F(1), F(2)), (F(1), F(2), F(2), F(3), F(3), F(3))))  # m' = 3 of 6
def test_delay_dp_steps_bound_the_candidates_scanned(inst):
    delays = _usable_delays(inst)
    sizes = _class_sizes(delays)
    with pytest.MonkeyPatch.context() as patch:
        reads = _counting_row_reads(patch)
        solution = dp_few_delays(inst)
    steps = algorithms._delay_dp_steps(inst.n, sizes)
    assert reads[0] <= steps
    assert steps >= (inst.n + 1) * prod(s + 1 for s in Counter(delays).values())
    assert solution == reference_dp_few_delays(inst)


@PROPERTY
@given(st.one_of(few_valued_instances(max_n=7, max_m=5, max_delays=5), weight_class_instances(),
                 trimmed_instances(max_n=5, max_m=12)))
@example(Instance((F(4),), (F(1),)))  # m = 1: no takes are yielded
@example(Instance((F(1), F(2), F(3), F(4), F(5)), (F(1), F(2))))  # five classes of one
@example(Instance((F(4),), (F(1), F(3))))  # m' = 1 of 2: no takes are yielded
@example(Instance((F(1), F(2)), (F(1), F(2), F(2), F(3), F(3), F(3))))  # m' = 3 of 6
def test_weight_dp_steps_bound_the_takes_tried(inst):
    delays = _usable_delays(inst)
    sizes = _class_sizes(inst.weights)
    takes = [0]
    run_takes = algorithms._run_takes

    def counted(radix, strides):
        for vector_takes in run_takes(radix, strides):
            takes[0] += len(vector_takes)
            yield vector_takes

    path_takes = [0]
    vector_run_takes = algorithms._vector_run_takes

    def counted_path(v, radix, strides):
        vector_takes = vector_run_takes(v, radix, strides)
        path_takes[0] += len(vector_takes)
        return vector_takes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithms, "_run_takes", counted)
        patch.setattr(algorithms, "_vector_run_takes", counted_path)
        solution = dp_few_weights(inst)
    vectors = prod(s + 1 for s in Counter(inst.weights).values())
    m, cost_rows = len(delays), len(set(delays))
    steps = algorithms._weight_dp_steps(m, cost_rows, sizes)
    assert takes[0] == (algorithms._run_take_count(sizes) if m > 1 else 0)
    assert path_takes[0] <= (m - 1) * vectors
    assert takes[0] + path_takes[0] <= steps
    assert steps >= (m + cost_rows) * vectors
    assert solution == reference_dp_few_weights(inst)


# The trim: greedy_nash, both exact DPs and the oracle walk run on the
# first m' resources, and must give exactly what the untrimmed references
# give, on tied boundary delay classes as well.

TRIMMED = [
    Instance((F(4),), (F(1), F(3))),  # n = 1, m' = 1
    Instance((F(4),), (F(2), F(2), F(3))),  # n = 1, a tied boundary class of two
    Instance((F(2), F(1)), (F(1), F(2), F(2), F(2), F(3))),  # m' = 4 of 5
    Instance((F(1), F(1), F(2)), (F(1), F(1), F(1), F(1), F(2))),  # m' = 4 of 5
    Instance((F(3), F(1), F(3)), (F(1), F(2), F(3), F(3), F(3))),  # m' = 5: nothing trimmed
    Instance((F(1), F(2), F(3), F(4)), (F(1), F(2))),  # n > m
]


def _trimmed_examples(test):
    for inst in TRIMMED:
        test = example(inst)(test)
    return test


@PROPERTY
@given(trimmed_instances(max_n=12, max_m=30))
@_trimmed_examples
def test_trimmed_greedy_nash_equals_reference(inst):
    assert greedy_nash(inst) == reference_greedy_nash(inst)


@PROPERTY
@given(trimmed_instances())
@_trimmed_examples
def test_trimmed_delay_dp_equals_reference(inst):
    assert dp_few_delays(inst) == reference_dp_few_delays(inst)


@PROPERTY
@given(trimmed_instances())
@_trimmed_examples
def test_trimmed_weight_dp_equals_reference(inst):
    assert dp_few_weights(inst) == reference_dp_few_weights(inst)


@PROPERTY
@given(trimmed_instances())
@_trimmed_examples
def test_trimmed_walk_equals_reference(inst):
    assert enumerate_extremes(inst, 4096) == reference_enumerate_extremes(inst)


@st.composite
def widened_instances(draw):
    """An instance with m >= n and one to three delays above its d_(n),
    which sort after its first m' resources, so every index stays."""
    inst = draw(trimmed_instances(max_n=5, max_m=6).filter(lambda inst: inst.m >= inst.n))
    boundary = inst.delays[inst.n - 1]
    extra = draw(st.lists(st.builds(boundary.__add__, draw(VALUES)), min_size=1, max_size=3))
    return inst, tuple(extra)


@PROPERTY
@given(widened_instances())
@example((Instance((F(2), F(1)), (F(1), F(3))), (F(4), F(7, 2))))  # m = n: d_(n) is the largest
@example((Instance((F(4),), (F(2), F(2), F(3))), (F(5, 2),)))  # between d_(n) and the largest
@example((Instance((F(1),) * 3, (F(1), F(2), F(2))), (F(3),)))  # identical weights
def test_slower_resources_change_no_result(case):
    inst, extra = case
    wider = Instance(inst.weights, inst.delays + extra)
    assert algorithms._usable(wider._kernel.delays, wider.n) == (
        algorithms._usable(inst._kernel.delays, inst.n))
    assert greedy_nash(wider) == greedy_nash(inst)
    assert dp_few_delays(wider) == dp_few_delays(inst)
    assert dp_few_weights(wider) == dp_few_weights(inst)
    assert enumerate_extremes(wider, 10**5) == enumerate_extremes(inst, 10**5)
    if inst.identical_weights:
        assert find_opt(wider).to_assignment() == find_opt(inst).to_assignment()
        assert find_opt_nash(wider).to_assignment() == find_opt_nash(inst).to_assignment()


def _reference_approx(inst, rounding, dp):
    solution = dp(rounding.rounded)
    return DPSolution(naive_cost(inst.weights, inst.delays, solution.assignment.target),
                      solution.assignment)


@PROPERTY
@given(instances(max_n=6, max_m=5), EPSILONS)
@example(Instance((F(3),), (F(1), F(2))), F(1))  # n = 1
@example(Instance((F(1), F(4)), (F(1), F(2), F(4), F(8))), F(1, 2))  # m > n
def test_approximation_equals_reference(inst, epsilon):
    assert approx_solve_weights(inst, epsilon) == _reference_approx(
        inst, round_weights(inst, epsilon), reference_dp_few_weights)
    assert approx_solve_delays(inst, epsilon) == _reference_approx(
        inst, round_delays(inst, epsilon), reference_dp_few_delays)


@PROPERTY
@given(spread_weight_instances())
@example(Instance((F(1), F(5, 4), F(2)), (F(1),)))  # one resource takes every class
@example(Instance((F(1), F(9, 8), F(5, 4), F(3, 2), F(2), F(2)), (F(1), F(2), F(3))))
def test_weight_approximation_on_three_rounded_classes_equals_reference(inst):
    rounding = round_weights(inst, F(1, 2))
    assert len(rounding.rounded.distinct_weight_values) == 3
    assert approx_solve_weights(inst, F(1, 2)) == _reference_approx(
        inst, rounding, reference_dp_few_weights)


@st.composite
def perfect_power_grids(draw, max_n=6, max_m=5):
    """(instance, epsilon) whose weights and delays span lo * root**k for a
    rational root = 1 + epsilon, so every grid point lo * root**t is
    rational; the values are grid points or lie between them."""
    root = draw(st.builds(F, st.integers(2, 7), st.integers(1, 3)).filter(lambda r: r > 1))

    def side(size):
        lo, k = draw(WIDE), draw(st.integers(1, 4))
        between = st.builds(lambda t, x: lo * root**t * (1 + x * (root - 1)),
                            st.integers(0, k - 1), st.sampled_from((F(1, 3), F(1, 2), F(1))))
        return (lo, lo * root**k) + tuple(draw(st.lists(between, max_size=size - 2)))

    return Instance(side(max_n), side(max_m)), root - 1


@PROPERTY
@given(st.one_of(st.tuples(instances(max_n=6, max_m=5), EPSILONS), perfect_power_grids()))
@example((Instance((1, F(3, 2), 3, 5, 8), (F(1, 2), F(2, 3))), F(1)))  # grid 1, 2, 4, 8
# k = 9 and grid points 3**(t/3): 5/2 rounds to 3, and 2, in an irrational
# cell, stays the largest value of its cell
@example((Instance((1, 2, F(5, 2), 27), (1,)), F(1, 2)))
# the rounded ints (2, 4, 8) over the scale 2 are the instance (1, 2, 4)
@example((Instance((1, F(3, 2), 4), (1,)), F(1)))
@example((Instance((1,), (1, F(3, 2), 4)), F(1)))
def test_rounding_equals_fraction_reference(case):
    inst, epsilon = case
    weights, k = reference_round_up_geometric(inst.weights, epsilon)
    rounding = round_weights(inst, epsilon)
    assert rounding.k == k and rounding.epsilon == epsilon
    assert rounding.rounded.weights == tuple(weights)
    assert rounding.rounded == Instance(weights, inst.delays)
    delays, k = reference_round_up_geometric(inst.delays, epsilon)
    rounding = round_delays(inst, epsilon)
    assert rounding.k == k
    assert rounding.rounded.delays == tuple(delays)
    assert rounding.rounded == Instance(inst.weights, delays)


@st.composite
def rounding_ints(draw):
    """(sorted distinct positive ints, epsilon) with up to five values next
    below the largest and a few anywhere, on grids of up to about 1700 cells."""
    lo = draw(st.integers(1, 40))
    hi = lo + draw(st.integers(1, 4000))
    near = (hi - j for j in range(1, draw(st.integers(1, 6))))
    inner = draw(st.lists(st.integers(lo, hi), max_size=6))
    epsilon = draw(st.sampled_from((F(1, 200), F(1, 50), F(1, 7), F(1, 2), F(1))))
    return sorted({lo, hi, *(v for v in near if v > lo), *inner}), epsilon


# The grid search gallops over cells where the reference sweep steps one
# cell at a time; both must find every value's cell, so the rounded values.
@PROPERTY
@given(rounding_ints())
@example(([1, 2**12 - 2, 2**12 - 1], F(1, 200)))  # two values next to hi on k = 1668
@example(([5, 6, 7, 8], F(1)))  # k = 1: every value in cell 1
@example(([1, 3, 2**10 - 2, 2**10 - 1, 2**10], F(1)))  # k = 10, grid points 2**t
def test_grid_search_equals_one_cell_sweep(case):
    values, epsilon = case
    assert algorithms._round_up_geometric(values, epsilon) == \
        reference_sweep_round_up_geometric(values, epsilon)


# Exact DPs equal brute force; the approximation lies in [opt, (1+eps) opt].

@PROPERTY
@given(few_valued_instances(max_n=5, max_m=4))
@example(Instance((F(5),), (F(2), F(3))))  # n = 1
@example(Instance((F(1), F(3)), (F(2),) * 4))  # m > n, one class
def test_exact_dps_equal_brute_force(inst):
    optimum = brute_min_cost(inst)
    solutions = [dp_few_delays(inst), dp_few_weights(inst)]
    if inst.identical_delays:
        solutions.append(dp_identical_delays(inst))
    for solution in solutions:
        assert solution.cost == optimum
        assert naive_cost(inst.weights, inst.delays, solution.assignment.target) == optimum


@PROPERTY
@given(instances(max_n=5, max_m=4), EPSILONS)
def test_approximation_within_factor_of_optimum(inst, epsilon):
    optimum = brute_min_cost(inst)
    for solution in (approx_solve_weights(inst, epsilon), approx_solve_delays(inst, epsilon)):
        assert optimum <= solution.cost <= (1 + epsilon) * optimum
        assert naive_cost(inst.weights, inst.delays, solution.assignment.target) == solution.cost


@PROPERTY
@given(st.one_of(instances(max_n=5, max_m=4), few_valued_instances(max_n=5, max_m=4)))
@example(Instance((F(3),), (F(2),)))  # n = 1, m = 1
@example(Instance((F(2), F(1), F(3), F(1)), (F(5, 2),)))  # m = 1
@example(Instance((F(7, 3),), (F(1), F(2), F(2), F(9, 4))))  # n = 1
@example(Instance((F(1), F(2)), (F(1), F(1), F(3), F(3), F(3))))  # m > n, tied delays
@example(Instance((F(2), F(1, 3), F(3), F(1, 3)), (F(4, 3),) * 3))  # identical delays
@example(Instance((F(1), F(1), F(2), F(2)), (F(1), F(1), F(1))))  # tied costs everywhere
@example(Instance((F(10**12, 7), F(1, 10**9), F(10**12, 7)), (F(97, 5), F(10**9, 11), F(3))))
# the canonical floor: equal weights apart in task order, the last task included
@example(Instance((F(2), F(1), F(3), F(2), F(1), F(2)), (F(2), F(1), F(3))))
@example(Instance((F(1), F(1), F(1), F(1), F(3), F(1)), (F(1), F(1), F(2))))  # one class of five
@example(Instance((F(1), F(3, 2), F(1), F(3, 2), F(1), F(3, 2), F(1)), (F(1), F(3, 2))))  # m = 2
@example(Instance((F(3), F(1), F(1), F(3)), (F(5), F(5))))  # m = 2, tied delays
# resources of equal delay: each class's used resources are a prefix of it
@example(Instance((F(1), F(2), F(3), F(4)), (F(2),) * 4))  # n = m, distinct weights
@example(Instance((F(1), F(3, 2), F(2)), (F(1),) * 5))  # m > n
@example(Instance((F(1), F(1), F(2), F(3)), (F(1), F(1), F(2), F(2))))  # witnesses on 2 and 4
@example(Instance((F(1), F(2), F(3), F(4)), (F(1), F(2), F(2), F(3))))
def test_oracle_walk_equals_reference(inst):
    assert enumerate_extremes(inst) == reference_enumerate_extremes(inst)


@PROPERTY
@given(tied_delay_instances())
def test_oracle_walk_equals_reference_on_tied_delays(inst):
    assert enumerate_extremes(inst, 4096) == reference_enumerate_extremes(inst)


@PROPERTY
@given(identical_weight_instances(max_n=9, max_m=4))
@example(Instance((F(3),), (F(2),)))  # n = 1, m = 1
@example(Instance((F(5, 3),) * 9, (F(7),)))  # m = 1: no head/tail split
@example(Instance((F(1),) * 7, (F(1), F(2))))  # m = 2: empty head
@example(Instance((F(3, 2),) * 4, (F(2), F(2))))  # m = 2, tied delays
@example(Instance((F(1),) * 6, (F(1), F(1), F(2), F(5))))  # heads that alone break equilibrium
@example(Instance((F(2),), (F(3), F(1), F(2))))  # n = 1
@example(Instance((F(2),) * 3, (F(1),) * 7))  # m > n, all delays tied
@example(Instance((F(10**12, 7),) * 6, (F(97, 5), F(10**9, 11), F(1, 10**9))))
def test_count_vector_walk_equals_reference(inst):
    # the closed form enumerates nothing, so a budget of one state answers
    assert enumerate_extremes(inst, 1) == reference_enumerate_extremes(inst)
    assert reference_nash_count_vectors(inst) == [
        CountAssignment(vec)
        for vec in reference_count_vectors(inst.n, inst.m)
        if is_nash(inst, CountAssignment(vec).to_assignment())  # the per-task check
    ]


TIE_HEAVY_DELAYS = st.sampled_from((F(1), F(2), F(3), F(4), F(6), F(12)))
MILLION_DELAYS = st.builds(F, st.integers(1, 10**6), st.integers(1, 50))
WALKABLE_VECTORS = 20_000  # count vectors the reference walk covers in about 10 ms


@st.composite
def walkable_identical_weight_instances(draw, max_n=44, max_m=8):
    """Identical weights with at most WALKABLE_VECTORS count vectors: up to
    `max_n` tasks on few resources, fewer on more; delays tie-heavy or up to
    10^6 with denominators up to 50."""
    m = draw(st.integers(1, max_m))
    most = max(n for n in range(1, max_n + 1) if comb(n + m - 1, m - 1) <= WALKABLE_VECTORS)
    n = draw(st.integers(1, most))
    delays = draw(st.lists(draw(st.sampled_from((TIE_HEAVY_DELAYS, MILLION_DELAYS))),
                           min_size=m, max_size=m))
    return Instance((draw(draw(VALUES)),) * n, tuple(delays))


@PROPERTY
@given(walkable_identical_weight_instances())
@example(Instance((F(3, 2),) * 44, (F(7),)))  # m = 1
@example(Instance((F(2),) * 3, (F(1), F(2), F(2), F(3), F(5))))  # m > n
@example(Instance((F(1),) * 12, (F(3),) * 5))  # all delays tied
# every resource flexible at the Nash level L = 6, three of them of delay 3;
# two or three of the five take one more task
@example(Instance((F(1),) * 7, (F(2), F(3), F(3), F(3), F(6))))
@example(Instance((F(5, 3),) * 8, (F(1, 2), F(3, 4), F(3, 4), F(3, 4), F(3, 2))))
def test_closed_form_equals_count_vector_walk(inst):
    assert enumerate_extremes(inst) == reference_walk_extremes(inst)
    assert reference_nash_count_vectors(inst) == [
        CountAssignment(vec)
        for vec in reference_count_vectors(inst.n, inst.m)
        if is_nash(inst, CountAssignment(vec))
    ]


@PROPERTY
@given(st.integers(1, 200), st.lists(TIE_HEAVY_DELAYS, min_size=1, max_size=10), st.one_of(TIED, WIDE))
@example(7, [F(2), F(3), F(3), F(3), F(6)], F(1))  # h = 2 of five flexible resources
@example(8, [F(2), F(3), F(3), F(3), F(6)], F(5, 3))  # h = 3
@example(12, [F(3)] * 5, F(1))  # all delays tied
@example(2, [F(1), F(2), F(4), F(4), F(12)], F(1))  # m > n
def test_cheapest_nash_is_find_opt_nash(n, delays, weight):
    """The oracle's cheapest Nash vector is `find_opt_nash`'s, and that is
    the lexicographically largest of the cheapest Nash vectors, as a walk
    in `reference_count_vectors` order keeps it."""
    inst = Instance((weight,) * n, tuple(delays))
    witness = enumerate_extremes(inst).min_nash_witness.target
    counts = find_opt_nash(inst).counts
    assert tuple(map(witness.count, range(1, inst.m + 1))) == counts
    cheapest = min(reference_nash_count_vectors(inst),
                   key=lambda c: (cost(inst, c), [-x for x in c.counts]))
    assert counts == cheapest.counts == heap_find_opt_nash(inst.n, inst._kernel.delays)


# The evaluators and greedy_nash on the integer kernel against the Fraction
# programs they replaced: equal values, returned as Fractions.

@st.composite
def kernel_cases(draw, max_n=9, max_m=6):
    """An instance, with identical weights half the time, and an assignment
    (arbitrary, or a greedy equilibrium with at most one task moved); values
    are small integers, p/q or p/q up to 10^30/10^20."""
    values = draw(DP_VALUES)
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        weights = (draw(values),) * n
    else:
        weights = tuple(draw(st.lists(values, min_size=n, max_size=n)))
    inst = Instance(weights, tuple(draw(st.lists(values, min_size=1, max_size=max_m))))
    resources = st.integers(1, inst.m)
    if draw(st.booleans()):
        target = draw(st.lists(resources, min_size=n, max_size=n))
    else:
        target = list(reference_greedy_nash(inst).target)
        if draw(st.booleans()):
            target[draw(st.integers(0, n - 1))] = draw(resources)
    return inst, Assignment(tuple(target))


def _assert_fraction_equal(value, expected):
    assert type(value) is F and value == expected


@PROPERTY
@given(kernel_cases())
@example((Instance((F(7, 3),), (F(2), F(1, 5))), Assignment((2,))))  # n = 1
@example((Instance((F(2), F(1)), (F(1), F(3), F(3), F(5))), Assignment((4, 1))))  # m > n
@example((Instance((F(3, 2),) * 4, (F(1), F(2))), Assignment((1, 1, 1, 2))))  # identical weights
@example((Instance((F(1), F(1), F(2)), (F(1), F(1))), Assignment((1, 1, 2))))  # tied loads
@example((Instance((F(10**30, 7), F(1, 10**20), F(10**30, 7)), (F(10**25, 11), F(3, 10**20))),
          Assignment((1, 2, 2))))
@example((Instance((F(10**400), F(1, 10**400), F(3)), (F(3, 7), F(1, 10**400))),  # beyond float range
          Assignment((1, 2, 2))))
def test_evaluators_equal_fraction_references(case):
    inst, a = case
    # the instance's properties that the report's digest renders
    total = sum(inst.weights, F(0))
    _assert_fraction_equal(inst.total_weight, total)
    _assert_fraction_equal(inst.average_load, total / inst.m)
    _assert_fraction_equal(inst.weight_spread, max(inst.weights) / min(inst.weights))
    _assert_fraction_equal(inst.throughput, sum(1 / d for d in inst.delays))
    evaluated = [a]
    if inst.identical_weights:
        counts = [0] * inst.m
        for resource in a.target:
            counts[resource - 1] += 1
        evaluated.append(CountAssignment(tuple(counts)))
    for x in evaluated:
        _assert_fraction_equal(cost(inst, x), reference_cost(inst, x))
        assert is_nash(inst, x) == reference_is_nash(inst, x)
        loads = resource_loads(inst, x)
        assert len(loads) == inst.m
        for r, load in enumerate(loads, start=1):
            expected = reference_resource_load(inst, x, r)
            _assert_fraction_equal(resource_load(inst, x, r), expected)
            _assert_fraction_equal(load, expected)
    moves = improving_moves(inst, a)
    assert moves == reference_improving_moves(inst, a)
    assert all(type(load) is F for _, _, load in moves)
    for task in range(1, inst.n + 1):
        _assert_fraction_equal(
            task_load(inst, a, task), reference_resource_load(inst, a, a.target[task - 1]))



def _spellings(value: F) -> list:
    """`value` written the ways an instance reads alike: 1 is written 1,
    "1", "2/2", "1.0", 1.0 and Fraction(1)."""
    p, q = value.numerator, value.denominator
    spelled = [value, f"{p}/{q}", f"{2 * p}/{2 * q}"]
    if q == 1:
        spelled += [p, str(p), f"{p}.0"] + ([float(p)] if p <= 2**53 else [])
    return spelled


@st.composite
def summary_weights(draw):
    """Weights of one value spelled several ways, or distinct, huge or
    wide-rational weights."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("one value", "distinct", "huge", "wide")))
    if kind == "one value":
        spellings = _spellings(draw(draw(st.sampled_from((TIED, WIDE, HUGE)))))
        return draw(st.lists(st.sampled_from(spellings), min_size=n, max_size=n))
    if kind == "distinct":
        return draw(st.lists(st.one_of(st.integers(1, 10**6), WIDE, HUGE),
                             min_size=2, max_size=12, unique=True))
    if kind == "huge":
        return draw(st.lists(st.sampled_from((F(10**400), F(1, 10**400), F(3), F(10**30, 7))),
                             min_size=n, max_size=n))
    return draw(st.lists(WIDE, min_size=n, max_size=n))


@PROPERTY
@given(summary_weights(), st.lists(DP_VALUES.flatmap(lambda values: values), min_size=1, max_size=6))
@example([1, "1", "2/2", "1.0", F(1)], [F(1)])
@example(["3/2", F(3, 2), "6/4"], [F(2), F(3)])
@example([F(10**400), F(1, 10**400)], [F(1, 10**400)])  # beyond float range
def test_weight_summary_and_digest_equal_their_definitions(weights, delays):
    """The quantities construction summarizes equal their definitions on
    the Fraction tuples, and the report's digest renders each property."""
    inst = Instance(weights, delays)
    values = inst.weights
    total = sum(values, F(0))
    assert inst.identical_weights == (len(set(values)) == 1)
    assert inst.unit_weights == (set(values) == {1})
    _assert_fraction_equal(inst.total_weight, total)
    _assert_fraction_equal(inst.weight_spread, max(values) / min(values))
    _assert_fraction_equal(inst.average_load, total / inst.m)
    _assert_fraction_equal(inst.throughput, sum((1 / d for d in inst.delays), F(0)))
    quantities = ("total_weight", "throughput", "average_load", "weight_spread")
    assert cli._instance_digest(inst) == {
        "tasks": inst.n,
        "resources": inst.m,
        **{name: cli._rat(*getattr(inst, name).as_integer_ratio()) for name in quantities},
    }

@PROPERTY
@given(instances(max_n=30, max_m=8))
@example(Instance((F(5, 3),), (F(2), F(1, 7))))  # n = 1
@example(Instance((F(2), F(2), F(1)), (F(1),) * 6))  # m > n, tied loads
@example(Instance((F(10**30, 7), F(1, 10**20), F(10**30, 7), F(3)), (F(10**25, 11), F(3, 10**20))))
def test_greedy_nash_equals_fraction_reference(inst):
    assert greedy_nash(inst) == reference_greedy_nash(inst)


@PROPERTY
@given(st.integers(1, 12), DP_VALUES.flatmap(lambda v: st.lists(v, min_size=1, max_size=16)))
@example(1, [F(3), F(1), F(2)])  # m > n: the two slowest resources are dropped
@example(4, [F(2)] * 4)  # n = m, tied delays
@example(5, [F(3, 2), F(3, 2), F(1, 2), F(7), F(7), F(7), F(7)])  # m > n, a tie at the cut
@example(3, [F(10**30, 7), F(1, 10**20), F(10**25, 11), F(3, 10**20), F(5)])  # wide, m > n
def test_fractional_opt_equals_fraction_reference(n, delays):
    inst = Instance((F(1),) * n, tuple(delays))
    opt, expected = fractional_opt(inst), reference_fractional_opt(inst)
    assert len(opt.masses) == min(n, inst.m)
    for value, reference in zip((opt.load, opt.cost, *opt.masses),
                                (expected.load, expected.cost, *expected.masses), strict=True):
        _assert_fraction_equal(value, reference)
    _assert_fraction_equal(inst.throughput, sum(1 / d for d in inst.delays))


@PROPERTY
@given(st.builds(F, st.integers(2, 10**6), st.integers(1, 1000)).filter(lambda r: r > 1),
       st.builds(F, st.integers(1, 50), st.integers(1, 200)))
@example(F(9), F(1, 4550))  # k = 9999
@example(F(9), F(1, 4551))  # k = 10001, bounded by the bits of its powers alone
@example(F(10001, 10000), F(1, 10**5))  # epsilon below 10**-4 with a small k = 10
def test_grid_steps_equal_counting_loop(ratio, epsilon):
    assert algorithms._grid_steps(ratio, epsilon) == count_grid_steps(ratio, epsilon)


def _counted(counts) -> Assignment:
    """The assignment a count vector expands to, keeping the vector, as
    `ratio`'s identical-weight witnesses are built."""
    return CountAssignment(tuple(counts)).to_assignment()


def _json_dumps(value) -> str:
    """json's own indent=2 text of a report, an assignment written as the
    array of its target."""
    return json.dumps(value, indent=2, default=lambda a: list(model._target(a)))


# Count vectors with empty resources (m > n and no task included), one
# resource and long runs; the writer writes them, and the assignments that
# expand them, from the counts.
COUNT_VECTORS = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=8),
    st.lists(st.sampled_from((0, 0, 1, 40, 300)), min_size=1, max_size=4),
)
COUNTED_ASSIGNMENTS = st.one_of(
    COUNT_VECTORS.map(lambda counts: CountAssignment(tuple(counts))),
    COUNT_VECTORS.map(_counted),
)
# The assignments a report holds: those and plain ones, written as their targets.
ASSIGNMENTS = COUNTED_ASSIGNMENTS | st.builds(
    Assignment, st.lists(st.integers(1, 5), max_size=30).map(tuple)
)

# Report-shaped JSON: str-keyed dicts and lists, ints (bools mixed into int
# lists), floats of every kind, any text, the 17-digit scientific strings
# the CLI writes for approximations outside float range, and assignments.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((5e-324, 2.2e-308, -0.0, 1e308, float("nan"), float("inf"), float("-inf"))),
    st.text(),
    st.text(st.characters(max_codepoint=0x20)),
    st.builds("{:.16e}".format, st.floats(allow_nan=False, allow_infinity=False)),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | ASSIGNMENTS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(st.text(), children, max_size=6),
    ),
    max_leaves=40,
)


@PROPERTY
@given(JSON_VALUES)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[], {}]})
@example([1, True, 2, False, None])
@example({"approximate": "1.0000000000000000e+400", "x": [5e-324, -0.0, 1e308]})
@example(["\u00e9\u2028\U0001f600", "\x00\x1f\x7f\"\\"])
@example({"\n": [-(10**30), 10**30, 0]})
@example((1, ("a", ()), [{}]))  # tuples are written as lists
@example(["\u00e9t\u00e9", 123456789012345678901234567890, "3/2", -7, "\U0001f600", ""])
@example({"a": _counted([0, 3, 0, 0, 1]), "b": [_counted([1]), {"c": [_counted([0, 0, 2])]}]})  # depths, zeros
@example([_counted([1, 0, 0, 0, 0, 0])])  # n = 1, m > n
@example(_counted([5]))  # one resource
@example({"x": _counted([0, 0]), "y": CountAssignment((0,))})  # no task: written as json writes an empty array
@example([CountAssignment((0, 2, 1)), Assignment((2, 2, 1, 3)), Assignment(())])
@example([{"a": CountAssignment((2, 1))}] * _TEMPLATE_MIN_ROWS)  # a record column of assignments
def test_writer_equals_json_dumps_indent_2(value):
    assert dumps_json(value) == _json_dumps(value)


@PROPERTY
@given(COUNT_VECTORS)
@example([0])
@example([1])
@example([0, 0, 1, 0])
def test_to_assignment_keeps_its_count_vector(counts):
    """A count vector's assignment fills resources in index order, its
    target a plain tuple, and keeps the vector it expands."""
    a = _counted(counts)
    assert a.target == tuple(r for r, c in enumerate(counts, 1) for _ in range(c))
    assert type(a.target) is tuple and a._counts == tuple(counts)


@PROPERTY
@given(st.lists(COUNTED_ASSIGNMENTS, min_size=1, max_size=6))
def test_count_vectors_never_reach_per_entry_rendering(assignments):
    """An assignment with a count vector is written from its counts:
    `_scalar_texts`, which renders a list entry by entry, is never called
    on one, bare or nested, and one whose target disagrees with its counts
    is written as the counts say."""
    seen = []
    render = model._scalar_texts
    value = {"runs": assignments, "nested": [{"a": a} for a in assignments]}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_scalar_texts", lambda items, kinds: seen.append(items) or render(items, kinds))
        assert dumps_json(value) == _json_dumps(value)
    assert seen == []
    for a in assignments:
        counts = a.counts if isinstance(a, CountAssignment) else a._counts
        decoy = Assignment._built(("x",) * sum(counts))
        object.__setattr__(decoy, "_counts", counts)
        assert dumps_json([decoy]) == _json_dumps([a])


# Long int arrays whose values repeat, as an assignment, a count vector or
# the to_resource column of improving moves do, which the writer writes from
# one text per distinct value; bare, as a tuple and as a record column.  The
# examples repeat equal values of different texts, which must not share one.
REPEATING_INTS = st.lists(
    st.one_of(st.sampled_from((0, -1, -(10**30), 10**30)), st.integers(-1000, 1000)),
    min_size=1, max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=10, max_size=300))


@PROPERTY
@given(REPEATING_INTS)
@example([1, True] * 4)
@example([True, 1] * 4)
@example([1, 1.0] * 4)
@example([0.0, -0.0] * 4)
@example([1, "1"] * 4)
def test_repeating_arrays_equal_json_dumps_indent_2(values):
    rows = [{"task": i, "to_resource": value} for i, value in enumerate(values, 1)]
    for value in (values, tuple(values), rows):
        assert dumps_json(value) == json.dumps(value, indent=2)


# Lists of records, which the writer fills from one template: one record
# shape is drawn, a list of rows is built from it, and one row is perturbed
# so that the list must go back to the item-by-item walk, or stays one shape.
class _Dict(dict):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


SHARED = {"exact": "1/2", "approximate": 0.5}
RECORD_KEYS = st.one_of(st.text(max_size=3), st.sampled_from(["%", "%s", "%%", "a%sb", "%(k)s", "exact"]))
RECORD_LEAVES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.sampled_from(["%", "%s", "%%s", "%(k)s", "1.0000000000000000e+400", True, False, None]),
)
ODD_LEAVES = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), True, None, [], [1, "%s"], ({"a": 1},),
    _Str("%s"), _Float(2.5), {}, {"%": 1}, _counted([2, 0, 3]), CountAssignment((1, 0)),
])
PERTURBATIONS = (
    "none", "reorder", "extra-key", "missing-key", "emptied", "odd-leaf", "dict-subclass", "str-subclass-key",
)


@st.composite
def record_shapes(draw, depth=3):
    """A non-empty list of (key, None for a leaf or a nested shape)."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=4, unique=True))
    nested = depth > 1 and draw(st.booleans())
    return [(key, draw(record_shapes(depth - 1)) if nested and draw(st.booleans()) else None) for key in keys]


def _record(draw, shape):
    return {key: draw(RECORD_LEAVES) if sub is None else _record(draw, sub) for key, sub in shape}


def _dicts(record):
    """The record and every dict nested in it."""
    yield record
    for value in record.values():
        if isinstance(value, dict):
            yield from _dicts(value)


@st.composite
def record_lists(draw):
    shape = draw(record_shapes())
    # lists on both sides of the shortest one written from a template
    rows = [_record(draw, shape) for _ in range(draw(st.integers(1, 2 * _TEMPLATE_MIN_ROWS)))]
    kind = draw(st.sampled_from(PERTURBATIONS))
    row = draw(st.integers(0, len(rows) - 1))
    target = draw(st.sampled_from(list(_dicts(rows[row]))))
    key = draw(st.sampled_from(list(target)))
    if kind == "reorder":
        items = list(target.items())
        target.clear()
        target.update(items[::-1])
    elif kind == "extra-key":
        target[draw(RECORD_KEYS)] = draw(RECORD_LEAVES)
    elif kind == "missing-key":
        del target[key]
    elif kind == "emptied":
        target.clear()
    elif kind == "odd-leaf":
        target[key] = draw(ODD_LEAVES)
    elif kind == "dict-subclass":
        target[key] = _Dict(target[key]) if isinstance(target[key], dict) else _Dict(x=target[key])
    elif kind == "str-subclass-key":
        target[_Str(key)] = target.pop(key)
    return tuple(rows) if draw(st.booleans()) else rows


@PROPERTY
@given(record_lists())
@example([{}])
@example([{"a": {}}] * _TEMPLATE_MIN_ROWS)
@example([{"a": 1}, {"a": 1.5}] * _TEMPLATE_MIN_ROWS)
@example([{"a": 1, "b": 2}] * _TEMPLATE_MIN_ROWS + [{"b": 2, "a": 1}])  # same keys, another order
@example([{"a": {"b": {"c": 1, "%s": "%"}}, "d": [2]}] * _TEMPLATE_MIN_ROWS)
@example([{"a": {"b": {"c": 1, "%s": "%"}}, "d": 2}, {"a": {"b": {"c": "x", "%s": None}}, "d": 2.5}]
         * _TEMPLATE_MIN_ROWS)
@example(({"exact": "1/1", "approximate": 1.0},) * _TEMPLATE_MIN_ROWS)  # one object in every row
@example([{"a": 1}, {"a": 1.5}, {"b": 2}])  # short: walked
@example([{"a": 1}, {"a": 1.5}, {"a": True}] * 2)  # one column of int, float and bool
@example([{"a": {"b": 1}}, {"a": 2}] * 3)  # a column of a record and a scalar
@example([{"a": {"b": 1}}, {"a": {"c": 1}}] * 3)  # nested records of two shapes
@example([{"x": SHARED}] * _TEMPLATE_MIN_ROWS + [{"x": dict(SHARED)}])  # shared, and an equal copy
@example([{"a": {"b": 1, "c": 2}}] * _TEMPLATE_MIN_ROWS + [{"a": {"c": 2, "b": 1}}])  # nested key order
def test_record_lists_equal_json_dumps_indent_2(value):
    assert dumps_json(value) == _json_dumps(value)
    assert dumps_json({"rows": value, "x": [value]}) == _json_dumps({"rows": value, "x": [value]})


# Strings of the number grammar: optional whitespace and sign, then "D/D" or
# a decimal D, D., .D or D.D with an optional exponent, then optional
# whitespace.  Fraction reads every one of them alike on every Python version.
DIGITS = st.text("0123456789", min_size=1, max_size=25)
SPACES = st.sampled_from(["", " ", "\t", "\n  "])


@st.composite
def grammar_strings(draw):
    if draw(st.booleans()):
        body = draw(DIGITS) + "/" + draw(DIGITS.filter(lambda d: d.strip("0")))
    else:
        form = draw(st.sampled_from(["D", "D.", ".D", "D.D"]))
        body = "".join(draw(DIGITS) if part == "D" else part for part in form)
        if draw(st.booleans()):
            body += draw(st.sampled_from(["e", "E", "e+", "E-", "e-"])) + draw(DIGITS.map(lambda d: d[:3]))
    sign = draw(st.sampled_from(["", "+", "-"]))
    return draw(SPACES) + sign + body + draw(SPACES)


@PROPERTY
@given(grammar_strings())
@example(" -007/010 ")
@example("5.e-3")
@example(".0E+000")
def test_grammar_equals_fraction(text):
    assert parse_rational(text) == F(text)


# Instance-file numbers: JSON ints, "p/q" strings (unreduced), integer and
# decimal strings, and integral floats.
FILE_NUMBERS = st.one_of(
    st.integers(1, 50),
    st.builds("{}/{}".format, st.integers(0, 400), st.integers(1, 97)),
    st.builds(str, st.integers(1, 10**30)),
    st.builds("{}.{}".format, st.integers(0, 9), st.integers(1, 99)),
    st.integers(1, 9).map(float),
)
# The constructor reads those and Fractions, which a file holds as "p/q".
CONSTRUCTOR_NUMBERS = st.one_of(FILE_NUMBERS, WIDE, st.integers(1, 2**53).map(float))


def _file_number(value):
    return f"{value.numerator}/{value.denominator}" if isinstance(value, F) else value


@PROPERTY
@given(st.lists(CONSTRUCTOR_NUMBERS, min_size=1, max_size=12),
       st.lists(CONSTRUCTOR_NUMBERS, min_size=1, max_size=6))
@example(["2/4", 1, "0.5", 3.0], ["6/3", "2"])
@example([1, "2/4", F(1, 2), "7e-1", 2.0**53], [F(6, 3), " 1.5 ", 2.0])
def test_reader_equals_parse_rational(weights, delays):
    """A file, the constructor on the same numbers and the constructor on
    their `parse_rational` Fractions build one instance, or fail alike."""
    text = json.dumps({"weights": list(map(_file_number, weights)),
                       "delays": list(map(_file_number, delays))})
    try:
        built = Instance(tuple(map(parse_rational, weights)), tuple(map(parse_rational, delays)))
    except ValueError as exc:  # a zero "0/q"
        for build in (lambda: loads_instance(text), lambda: Instance(weights, delays)):
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                build()
        return
    inst, _ = loads_instance(text)
    assert inst == built and hash(inst) == hash(built) and inst._kernel == built._kernel
    assert inst.weights == built.weights and inst.delays == built.delays
    assert loads_instance(dumps_instance(inst))[0]._kernel == built._kernel
    direct = Instance(weights, delays)
    assert direct == built and direct._kernel == built._kernel


@PROPERTY
@given(st.lists(st.one_of(st.integers(-5, 5), st.integers(-10**40, 10**40)), max_size=12),
       st.one_of(st.none(), st.booleans(), st.integers(-9, 2**53).map(float)),
       st.integers(0, 12))
@example([], None, 0)
@example([1, 2], True, 1)  # a bool is refused in an array of ints
@example([3, 1], 1.0, 0)  # an integral float is read
@example([2, 2], 2.0, 2)  # 2 and 2.0 are equal keys
def test_int_arrays_scale_as_the_general_path(ints, extra, at):
    """An array of ints is its own kernel with scale 1, the general path's
    result; with a bool in it, it is refused as there, and an integral float
    is read."""
    values = list(ints)
    if extra is not None:
        values.insert(at, extra)
    try:
        expected = reference_scaled(values)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            model._scaled(tuple(values))
        assert type(extra) is bool
        return
    assert model._scaled(tuple(values)) == expected
    if extra is None:
        assert expected == (tuple(ints), 1)
    text = json.dumps({"weights": [1, *values], "delays": [1]})
    if all(v > 0 for v in values):
        assert loads_instance(text)[0]._kernel.weights == (1, *expected[0])


@PROPERTY
@given(st.integers(0, 2**80), st.integers(1, 70), st.integers(-1, 1))
@example(10, 9999, 0)  # a k of ten thousand, as a rounding grid may take
@example(10, 9999, -1)
@example(2**80 + 3, 7, 0)  # a root wider than a float's mantissa
@example(2**80 - 1, 2, 1)
@example(0, 3, 1)
def test_int_kth_root_equals_bisection(r, k, shift):
    """`_int_kth_root` on a k-th power and its neighbours, against the
    bit-by-bit floor root."""
    x = max(0, r**k + shift)
    assert algorithms._int_kth_root(x, k) == reference_int_kth_root(x, k)


# The random family: drawn in batches and built from its kernel, against
# the value-by-value reference, down to the bytes of the instance file.
RANGE_ENDS = st.builds(F, st.integers(1, 40), st.integers(1, 12))


@st.composite
def ranges(draw):
    """(lo, hi): a single point or a proper range."""
    lo = draw(RANGE_ENDS)
    return (lo, lo) if draw(st.booleans()) else (lo, lo + draw(RANGE_ENDS))


@PROPERTY
@given(st.integers(1, 2000), st.integers(1, 40), ranges(), ranges(), st.integers(0, 2**64 + 9))
@example(2000, 25, (F(1), F(1)), (F(1), F(4)), 1)  # unit weights
@example(300, 7, (F(1), F(9)), (F(5, 2), F(5, 2)), 2)  # one delay value
@example(3, 2, (F(7, 3), F(7, 3)), (F(1, 2), F(1, 2)), 3)  # single points on both sides
@example(1, 1, (F(1), F(2)), (F(1), F(2)), 3)  # integral draws from a fractional grid
def test_gen_random_equals_value_by_value_reference(n, m, weight_range, delay_range, seed):
    inst = gen_random(n, m, weight_range, delay_range, seed)
    reference = reference_gen_random(n, m, weight_range, delay_range, seed)
    assert inst == reference and inst._kernel == reference._kernel
    assert inst.weights == reference.weights and inst.delays == reference.delays
    assert dumps_instance(inst) == dumps_instance(reference)


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.integers(0, 300),
       st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**70)))
@example(2**64 - 1, 300, 1)  # the state wraps
@example(2**64 - 2, 3, 9)
def test_draws_equal_repeated_below(seed, count, bound):
    batch, single = SplitMix64(seed), OneDrawSplitMix64(seed)
    assert batch.draws(count, bound) == [single.below(bound) for _ in range(count)]
    assert batch.state == single.state
