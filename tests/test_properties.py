"""Property tests: the fast equilibrium scan and greedy builders against the
straightforward loops in helpers.py, on generated instances.

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
    Instance,
    cost,
    find_opt,
    find_opt_nash,
    greedy_nash,
    improving_moves,
    is_nash,
)

from helpers import (
    heap_find_opt,
    heap_find_opt_nash,
    naive_is_nash,
    scan_greedy_nash,
    scan_improving_moves,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

TIED = st.integers(1, 3).map(F)
WIDE = st.builds(F, st.integers(1, 400), st.integers(1, 97))
VALUES = st.sampled_from((TIED, WIDE))


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
