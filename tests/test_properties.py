"""Property tests: the fast equilibrium scan, the evaluators and greedy
builders on the integer kernel, the integer dynamic programs and the
incremental oracle walk against the straightforward loops and Fraction
programs in helpers.py and against brute force, on generated instances.

The report writer is checked against `json.dumps(value, indent=2)`, the
instance-file reader against `parse_rational` on generated documents, and
`parse_rational` against `Fraction` on strings of the number grammar.

Examples are derandomized and bounded, so every run checks the same cases.
Values are drawn either from small integers (many exact ties) or from
independent p/q fractions (wide denominators).
"""

import json
from fractions import Fraction as F

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
    enumerate_nash_count_vectors,
    find_opt,
    find_opt_nash,
    gen_random,
    greedy_nash,
    improving_moves,
    is_nash,
    dumps_instance,
    iter_count_vectors,
    loads_instance,
    parse_rational,
    resource_load,
    resource_loads,
    round_delays,
    round_weights,
    task_load,
)
from selfish_assign.model import dumps_json

from helpers import (
    brute_min_cost,
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
    reference_gen_random,
    reference_greedy_nash,
    reference_improving_moves,
    reference_is_nash,
    reference_resource_load,
    reference_threshold_counts,
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
# the canonical floor: equal weights apart in task order, the last task included
@example(Instance((F(2), F(1), F(3), F(2), F(1), F(2)), (F(2), F(1), F(3))))
@example(Instance((F(1), F(1), F(1), F(1), F(3), F(1)), (F(1), F(1), F(2))))  # one class of five
@example(Instance((F(1), F(3, 2), F(1), F(3, 2), F(1), F(3, 2), F(1)), (F(1), F(3, 2))))  # m = 2
@example(Instance((F(3), F(1), F(1), F(3)), (F(5), F(5))))  # m = 2, tied delays
def test_oracle_walk_equals_reference(inst):
    assert enumerate_extremes(inst) == reference_enumerate_extremes(inst)


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
    assert enumerate_extremes(inst) == reference_enumerate_extremes(inst)
    vectors = list(iter_count_vectors(inst.n, inst.m))
    assert vectors == list(reference_count_vectors(inst.n, inst.m))
    assert enumerate_nash_count_vectors(inst) == [
        CountAssignment(vec)
        for vec in vectors
        if is_nash(inst, CountAssignment(vec).to_assignment())  # the per-task check
    ]


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
def test_evaluators_equal_fraction_references(case):
    inst, a = case
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


@PROPERTY
@given(instances(max_n=30, max_m=8))
@example(Instance((F(5, 3),), (F(2), F(1, 7))))  # n = 1
@example(Instance((F(2), F(2), F(1)), (F(1),) * 6))  # m > n, tied loads
@example(Instance((F(10**30, 7), F(1, 10**20), F(10**30, 7), F(3)), (F(10**25, 11), F(3, 10**20))))
def test_greedy_nash_equals_fraction_reference(inst):
    assert greedy_nash(inst) == reference_greedy_nash(inst)


@PROPERTY
@given(st.builds(F, st.integers(2, 10**6), st.integers(1, 1000)).filter(lambda r: r > 1),
       st.builds(F, st.integers(1, 50), st.integers(1, 200)))
@example(F(9), F(1, 4550))  # the largest k under the bound
@example(F(10001, 10000), F(1, 10**5))  # epsilon below 1 / MAX_GRID_STEPS, k = 10
def test_grid_steps_equal_counting_loop(ratio, epsilon):
    assert algorithms._grid_steps(ratio, epsilon) == count_grid_steps(ratio, epsilon)


# Report-shaped JSON: str-keyed dicts and lists, ints (bools mixed into int
# lists), floats of every kind, any text, and the 17-digit scientific
# strings the CLI writes for approximations outside float range.
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
    JSON_SCALARS,
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
def test_writer_equals_json_dumps_indent_2(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


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


@PROPERTY
@given(st.lists(FILE_NUMBERS, min_size=1, max_size=12), st.lists(FILE_NUMBERS, min_size=1, max_size=6))
@example(["2/4", 1, "0.5", 3.0], ["6/3", "2"])
def test_reader_equals_parse_rational(weights, delays):
    text = json.dumps({"weights": weights, "delays": delays})
    try:
        built = Instance(tuple(map(parse_rational, weights)), tuple(map(parse_rational, delays)))
    except ValueError as exc:  # a zero "0/q"
        with pytest.raises(ValueError, match=str(exc)):
            loads_instance(text)
        return
    inst, _ = loads_instance(text)
    assert inst == built and hash(inst) == hash(built) and inst._kernel == built._kernel
    assert inst.weights == built.weights and inst.delays == built.delays
    assert loads_instance(dumps_instance(inst))[0]._kernel == built._kernel


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
    batch, single = SplitMix64(seed), SplitMix64(seed)
    assert batch.draws(count, bound) == [single.below(bound) for _ in range(count)]
    assert batch.state == single.state
