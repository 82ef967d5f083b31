"""The public API of the package."""

import selfish_assign


def test_public_names():
    """The exported API, name by name: any change to it is a diff here."""
    assert selfish_assign.__all__ == [
        "Assignment",
        "BoundCheck",
        "BudgetExceededError",
        "CountAssignment",
        "DEFAULT_DISTINCT_VALUES",
        "DPSolution",
        "FractionalOptimum",
        "Instance",
        "NumberTooLongError",
        "RatioReport",
        "RoundedInstance",
        "SplitMix64",
        "approx_solve_delays",
        "approx_solve_weights",
        "cost",
        "dp_few_delays",
        "dp_few_weights",
        "dp_identical_delays",
        "dumps_instance",
        "enumerate_extremes",
        "find_opt",
        "find_opt_nash",
        "format_rational",
        "fractional_opt",
        "gen_big_nash",
        "gen_nash_ratio_lb",
        "gen_random",
        "gen_uniform_gap",
        "greedy_nash",
        "improving_moves",
        "instance_from_jsonable",
        "instance_to_jsonable",
        "is_nash",
        "loads_instance",
        "parse_rational",
        "resource_load",
        "resource_loads",
        "round_delays",
        "round_weights",
        "task_load",
        "verify_bounds",
    ]
    assert all(hasattr(selfish_assign, name) for name in selfish_assign.__all__)
