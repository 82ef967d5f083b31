"""Property tests: the fast equilibrium scan, greedy builders, integer
dynamic programs and the incremental oracle walk against the straightforward
loops in helpers.py and against brute force, on generated instances.

Examples are derandomized and bounded, so every run checks the same cases.
Values are drawn either from small integers (many exact ties) or from
independent p/q fractions (wide denominators).
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfish_assign import (
    Assignment,
    CountAssignment,
    DPSolution,
    Instance,
    approx_solve_delays,
    approx_solve_weights,
    cost,
    dp_few_delays,
    dp_few_weights,
    dp_identical_delays,
    enumerate_extremes,
    enumerate_nash_count_vectors,
    find_opt,
    find_opt_nash,
    greedy_nash,
    improving_moves,
    is_nash,
    iter_count_vectors,
    round_delays,
    round_weights,
)

from helpers import (
    brute_min_cost,
    heap_find_opt,
    heap_find_opt_nash,
    naive_cost,
    naive_is_nash,
    reference_count_vectors,
    reference_dp_few_delays,
    reference_dp_few_weights,
    reference_dp_identical_delays,
    reference_enumerate_extremes,
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


@PROPERTY
@given(assigned())
def test_is_nash_agrees_with_naive_predicate_and_moves(case):
    inst, a = case
    expected = naive_is_nash(inst.weights, inst.delays, a.target)
    assert is_nash(inst, a) == expected
    assert (not improving_moves(inst, a)) == expected


@PROPERTY
@given(assigned(max_n=12, max_m=6))
def test_improving_moves_equal_per_task_scan(case):
    inst, a = case
    assert improving_moves(inst, a) == scan_improving_moves(inst.weights, inst.delays, a.target)


@PROPERTY
@given(instances(max_n=30, max_m=8))
def test_greedy_nash_equals_full_scan(inst):
    assert greedy_nash(inst).target == scan_greedy_nash(inst.weights, inst.delays)


@PROPERTY
@given(identical_weight_instances())
@example(Instance((F(1),), (F(3), F(1), F(2))))  # n = 1
@example(Instance((F(2),) * 3, (F(1),) * 7))  # m > n, tied delays
@example(Instance((F(1),) * 100, (F(1), F(1), F(2), F(2), F(4))))
@example(Instance((F(5, 3),) * 97, (F(311, 97), F(13, 89), F(1, 2), F(400, 3))))
def test_seeded_builders_equal_unseeded_heap_loops(inst):
    assert find_opt(inst).counts == heap_find_opt(inst.n, inst.delays)
    assert find_opt_nash(inst).counts == heap_find_opt_nash(inst.n, inst.delays)


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


# The integer dynamic programs against the Fraction references: the same
# DPSolution, so cost, assignment and every tie-break agree.

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


@PROPERTY
@given(few_valued_instances(max_n=7, max_m=5, max_delays=5))
@example(Instance((F(4),), (F(1), F(3))))  # n = 1
@example(Instance((F(1, 2), F(3)), (F(1), F(2), F(5), F(7))))  # m > n
@example(Instance((F(2, 3),) * 4, (F(5, 7),)))  # one class, one resource
@example(Instance((F(10**30, 3), F(1, 10**20), F(1, 10**20)), (F(97, 5), F(10**18, 7))))
def test_few_weight_dp_equals_reference(inst):
    assert dp_few_weights(inst) == reference_dp_few_weights(inst)


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
def test_oracle_walk_equals_reference(inst):
    assert enumerate_extremes(inst) == reference_enumerate_extremes(inst)


@PROPERTY
@given(identical_weight_instances(max_n=9, max_m=4))
@example(Instance((F(3),), (F(2),)))  # n = 1, m = 1
@example(Instance((F(5, 3),) * 9, (F(7),)))  # m = 1
@example(Instance((F(2),), (F(3), F(1), F(2))))  # n = 1
@example(Instance((F(2),) * 3, (F(1),) * 7))  # m > n, all delays tied
@example(Instance((F(10**12, 7),) * 6, (F(97, 5), F(10**9, 11), F(1, 10**9))))
def test_count_vector_walk_equals_reference(inst):
    assert enumerate_extremes(inst) == reference_enumerate_extremes(inst)
    vectors = list(iter_count_vectors(inst.n, inst.m))
    assert vectors == list(reference_count_vectors(inst.n, inst.m))
    assert enumerate_nash_count_vectors(inst) == [
        CountAssignment(vec)
        for vec in vectors
        if is_nash(inst, CountAssignment(vec).to_assignment())  # the per-task check
    ]
