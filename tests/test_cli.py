"""Command-line interface: dispatch, report shape, exit codes, file round-trips."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selfish_assign
from selfish_assign import (
    Instance,
    algorithms,
    dumps_instance,
    format_rational,
    gen_uniform_gap,
    loads_instance,
    oracle,
    parse_rational,
)
from selfish_assign import cli, model
from selfish_assign.cli import main
from selfish_assign.instances import MAX_GEN_SIZE
from selfish_assign.model import MAX_NUMBER_DIGITS

from helpers import brute_min_cost, reference_read_text


def write_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    path.write_text(dumps_instance(inst), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestSolve:
    def test_auto_on_uneven_pair(self, tmp_path, capsys):
        path = write_instance(tmp_path, gen_uniform_gap(F(1, 10)))
        code, report, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert report["result"]["cost"]["exact"] == "8/5"
        assert report["result"]["algorithm"] == "find-opt"
        assert report["result"]["approximate"] is False
        assert report["result"]["counts"] == [1, 1]

    def test_single_task(self, tmp_path, capsys):
        inst = Instance(weights=(F(3),), delays=(F(2),))
        code, report, _ = run_cli(capsys, "solve", write_instance(tmp_path, inst))
        assert code == 0
        assert report["result"]["assignment"] == [1]
        assert report["result"]["cost"]["exact"] == "6/1"

    def test_solve_agrees_with_ratio_minimum(self, tmp_path, capsys):
        inst = Instance(weights=(F(1), F(1), F(3), F(3)), delays=(F(1), F(2)))
        path = write_instance(tmp_path, inst)
        _, solved, _ = run_cli(capsys, "solve", path, "--algorithm", "dp-weights")
        _, ratio, _ = run_cli(capsys, "ratio", path)
        assert solved["result"]["cost"]["exact"] == ratio["result"]["min_cost"]["exact"]

    def test_auto_uses_delay_dp_for_identical_delays(self, tmp_path, capsys):
        inst = Instance(weights=(F(4), F(1), F(1)), delays=(F(1), F(1)))
        code, report, _ = run_cli(capsys, "solve", write_instance(tmp_path, inst))
        assert code == 0
        assert report["result"]["algorithm"] == "dp-delays"
        assert report["result"]["cost"]["exact"] == "8/1"

    def test_approx_is_flagged(self, tmp_path, capsys):
        inst = Instance(weights=(F(3), F(2), F(1)), delays=(F(1), F(2)))
        path = write_instance(tmp_path, inst)
        code, report, _ = run_cli(capsys, "solve", path, "--algorithm", "approx", "--epsilon", "1/2")
        assert code == 0
        assert report["result"]["approximate"] is True
        assert report["result"]["epsilon"]["exact"] == "1/2"

    def test_dp_table_guard_fails_precondition(self, tmp_path, capsys, monkeypatch):
        # n = 3 on one class of 2 resources: 2 rows of at most 16 candidates
        # and a path of at most 2 scans of n + 1, 40 steps
        inst = Instance(weights=(F(4), F(1), F(1)), delays=(F(1), F(1)))
        monkeypatch.setattr(algorithms, "MAX_DP_STEPS", 5)
        code, report, err = run_cli(capsys, "solve", write_instance(tmp_path, inst))
        assert code == 3
        assert report is None
        assert err == "error: dynamic programming would need 40 steps, above the bound 5\n"

    @pytest.mark.parametrize("weights, delays, options, steps", [
        # auto routes 4 weight classes of 11 tasks on 100 distinct delays to
        # dp-weights, which runs on the 44 fastest (`_usable`):
        # 43 * 4240512 + 88 * 12**4 steps
        ([w for w in range(1, 5) for _ in range(11)], range(1, 101), [], 184166784),
        # n = 2000 on 4 delay classes of 10 resources, routed to dp-delays:
        # 4 * 10 * 11**3 rows of 2001 * 13 candidates, and the path
        (range(1, 2001), [d for d in range(1, 5) for _ in range(10)], [], 1385252280),
        # weights 1..24 rounded at epsilon 1/20 (k = 66) fall in 23 classes,
        # one of them two tasks, and the few-weights DP runs on m = 2
        (range(1, 25), [1, 1000], ["--algorithm", "approx", "--epsilon", "1/20"], 1078984704),
    ], ids=["auto-dp-weights", "auto-dp-delays", "approx-weights"])
    def test_dp_step_guard_refuses_long_runs_at_once(self, tmp_path, capsys, weights, delays,
                                                      options, steps):
        # each would run for minutes; the guard refuses before any table exists
        inst = Instance(weights=tuple(map(F, weights)), delays=tuple(map(F, delays)))
        path = write_instance(tmp_path, inst)
        started = time.perf_counter()
        code, report, err = run_cli(capsys, "solve", path, *options)
        assert time.perf_counter() - started < 2
        assert code == 3
        assert report is None
        assert err == (f"error: dynamic programming would need {steps} steps,"
                       f" above the bound {algorithms.MAX_DP_STEPS}\n")

    def test_dp_delays_answers_on_five_delay_classes(self, tmp_path, capsys):
        # more delay classes than auto routes to a DP, and 1035 predicted steps
        inst = Instance(weights=(F(1), F(2)), delays=tuple(map(F, range(1, 6))))
        path = write_instance(tmp_path, inst)
        code, report, _ = run_cli(capsys, "solve", path, "--algorithm", "dp-delays")
        assert code == 0
        assert report["result"]["algorithm"] == "dp-delays"
        optimum = brute_min_cost(inst)
        assert report["result"]["cost"]["exact"] == f"{optimum.numerator}/{optimum.denominator}"

    def test_approx_grid_bound_fails_precondition_at_once(self, tmp_path, capsys):
        # k = 2.2e30 grid steps; counting them one multiply at a time never
        # returned, and the doubling refuses (1 + 10**-30)**4096 unbuilt
        inst = Instance(weights=(F(1), F(3), F(5), F(7), F(9)), delays=(F(1), F(2), F(3), F(5), F(7), F(11)))
        path = write_instance(tmp_path, inst)
        started = time.perf_counter()
        code, report, err = run_cli(capsys, "solve", path, "--algorithm", "approx", "--epsilon", "1e-30")
        assert time.perf_counter() - started < 0.5
        assert code == 3
        assert report is None
        assert err == "error: geometric rounding needs powers of 409600 bits, above the bound 262144\n"

    def test_approx_without_epsilon_fails_precondition(self, tmp_path, capsys):
        inst = Instance(weights=(F(3), F(2), F(1)), delays=(F(1), F(2)))
        path = write_instance(tmp_path, inst)
        code, report, err = run_cli(capsys, "solve", path, "--algorithm", "approx")
        assert code == 3
        assert report is None
        assert "epsilon" in err

    def test_find_opt_on_mixed_weights_fails_precondition(self, tmp_path, capsys):
        inst = Instance(weights=(F(1), F(2)), delays=(F(1),))
        path = write_instance(tmp_path, inst)
        code, _, _ = run_cli(capsys, "solve", path, "--algorithm", "find-opt")
        assert code == 3

    def test_unreadable_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert err

    def test_missing_file_is_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "/does/not/exist.json")
        assert code == 2

    def test_reference_assignments_not_an_object_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "refs.json"
        path.write_text('{"weights": [1, 2], "delays": [1, 2], "reference_assignments": ["x"]}',
                        encoding="utf-8")
        code, report, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_auto_uses_weight_dp_for_few_weights(self, tmp_path, capsys):
        # five distinct delays rule out the delay DP, two distinct weights allow the weight DP
        inst = Instance(weights=(F(1), F(3), F(1)), delays=tuple(map(F, range(1, 6))))
        code, report, _ = run_cli(capsys, "solve", write_instance(tmp_path, inst))
        assert code == 0
        assert report["result"]["algorithm"] == "dp-weights"
        assert report["result"]["cost"]["exact"] == "8/1"  # 3 on resource 1, the 1s on 2 and 3

    def test_auto_approximates_when_no_exact_algorithm_applies(self, tmp_path, capsys):
        # five distinct weights and five distinct delays rule out every exact DP
        inst = Instance(weights=tuple(range(1, 6)), delays=tuple(range(1, 6)))
        code, report, _ = run_cli(capsys, "solve", write_instance(tmp_path, inst), "--epsilon", "1")
        assert code == 0
        assert report["result"]["algorithm"] == "approx"
        assert report["result"]["approximate"] is True


class TestNash:
    def test_any_separates_heavy_pair(self, tmp_path, capsys):
        inst = Instance(weights=(F(100), F(100)) + (F(1),) * 8, delays=(F(1), F(1)))
        code, report, _ = run_cli(capsys, "nash", write_instance(tmp_path, inst))
        assert code == 0
        target = report["result"]["assignment"]
        assert target[0] != target[1]
        assert report["result"]["is_nash"] is True

    def test_everyone_alone_when_resources_abound(self, tmp_path, capsys):
        inst = Instance(weights=(F(2), F(2)), delays=(F(1), F(1)))
        code, report, _ = run_cli(capsys, "nash", write_instance(tmp_path, inst))
        assert code == 0
        assert sorted(report["result"]["assignment"]) == [1, 2]

    def test_best_matches_oracle_nash_minimum(self, tmp_path, capsys):
        inst = Instance(weights=(F(1),) * 5, delays=(F(1), F(1), F(3)))
        path = write_instance(tmp_path, inst)
        _, best, _ = run_cli(capsys, "nash", path, "--mode", "best")
        _, ratio, _ = run_cli(capsys, "ratio", path)
        assert best["result"]["cost"]["exact"] == ratio["result"]["min_nash_cost"]["exact"]

    def test_best_needs_identical_weights(self, tmp_path, capsys):
        inst = Instance(weights=(F(1), F(2)), delays=(F(1),))
        code, _, _ = run_cli(capsys, "nash", write_instance(tmp_path, inst), "--mode", "best")
        assert code == 3


class TestRatio:
    def test_four_thirds_gap(self, tmp_path, capsys):
        path = write_instance(tmp_path, gen_uniform_gap(F(0)))
        code, report, _ = run_cli(capsys, "ratio", path)
        assert code == 0
        assert report["result"]["nash_gap"]["exact"] == "4/3"
        bounds = {b["bound"]: b for b in report["result"]["bounds"]}
        assert bounds["nash-gap-identical-weights"]["slack"]["exact"] == "0/1"

    def test_heavy_pair_gap(self, tmp_path, capsys):
        inst = Instance(weights=(F(100), F(100)) + (F(1),) * 8, delays=(F(1), F(1)))
        code, report, _ = run_cli(capsys, "ratio", write_instance(tmp_path, inst))
        assert code == 0
        assert F(report["result"]["opt_gap"]["exact"]) >= 2

    def test_single_resource_ratios_are_one(self, tmp_path, capsys):
        inst = Instance(weights=(F(2), F(3)), delays=(F(5),))
        code, report, _ = run_cli(capsys, "ratio", write_instance(tmp_path, inst))
        assert code == 0
        result = report["result"]
        assert result["coordination_ratio"]["exact"] == "1/1"
        assert result["nash_gap"]["exact"] == "1/1"
        assert result["opt_gap"]["exact"] == "1/1"

    def test_budget_flag_exceeded(self, tmp_path, capsys):
        inst = Instance(weights=(F(1), F(2), F(3)), delays=(F(1), F(2)))
        path = write_instance(tmp_path, inst)
        code, report, err = run_cli(capsys, "ratio", path, "--budget", "7")
        assert code == 4
        assert report is None
        assert "8" in err  # message states the required state count

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_non_positive_budget_fails_precondition(self, tmp_path, capsys, budget):
        inst = Instance(weights=(F(1), F(2), F(3)), delays=(F(1), F(2)))
        path = write_instance(tmp_path, inst)
        code, report, err = run_cli(capsys, "ratio", path, "--budget", budget)
        assert code == 3
        assert report is None
        assert err == f"error: --budget must be positive, got {budget}\n"

    def test_runs_in_one_process_echo_only_their_own_arguments(self, tmp_path, capsys):
        inst = Instance(weights=(F(1), F(2), F(3)), delays=(F(1), F(2)))
        path = write_instance(tmp_path, inst)
        code, report, _ = run_cli(capsys, "ratio", path, "--budget", "1")
        assert code == 4 and report is None
        code, report, _ = run_cli(capsys, "ratio", path)
        assert code == 0
        assert report["arguments"] == {"instance": path}
        code, report, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert report["arguments"] == {"algorithm": "auto", "instance": path}

    def test_identical_weights_answer_under_the_default_budget(self, tmp_path, capsys):
        # C(1009, 9) count vectors, which the closed form never visits
        inst = Instance(weights=(F(1),) * 1000, delays=tuple(F(k) for k in range(1, 11)))
        path = write_instance(tmp_path, inst)
        code, report, err = run_cli(capsys, "ratio", path)
        assert code == 0 and err == ""
        assert report["arguments"] == {"instance": path}
        code, wide, _ = run_cli(capsys, "ratio", path, "--budget", str(10**40))
        assert code == 0
        assert report["result"] == wide["result"]

    def test_huge_state_count_is_one_line(self, tmp_path, capsys):
        # 2^15000 assignments: more digits than an int prints by default
        inst = Instance(weights=(F(1), F(2), F(3)) * 5000, delays=(F(1), F(2)))
        code, report, err = run_cli(capsys, "ratio", write_instance(tmp_path, inst))
        assert code == 4 and report is None
        assert err == "error: enumeration needs more than 10**4515 states, budget allows 10000000\n"


class TestGen:
    def test_big_nash_weights(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        code, report, _ = run_cli(capsys, "gen", "big-nash", "--n", "3", "--out", str(out))
        assert code == 0
        assert report["result"]["written_to"] == str(out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["weights"] == [9, 9, 1]

    def test_gen_to_stdout_is_the_instance(self, capsys):
        code = main(["gen", "uniform-gap", "--epsilon", "1/10"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["delays"] == ["1/2", "11/10"]

    def test_random_is_byte_identical(self, tmp_path, capsys):
        args = ["gen", "random", "--n", "5", "--m", "2", "--weights", "1:4",
                "--delays", "1:2", "--seed", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_gen_output_reserializes_byte_identically(self, tmp_path, capsys):
        out = tmp_path / "gap.json"
        assert main(["gen", "uniform-gap", "--epsilon", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        from selfish_assign import loads_instance

        text = out.read_text(encoding="utf-8")
        inst, refs = loads_instance(text)
        assert dumps_instance(inst, refs or None) == text

    def test_nash_ratio_lb_ships_reference_assignments(self, tmp_path, capsys):
        out = tmp_path / "lb.json"
        code, _, _ = run_cli(capsys, "gen", "nash-ratio-lb", "--epsilon", "1/2", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["weights"]) == 37  # block size 4
        assert set(doc["reference_assignments"]) == {"N1", "N2"}
        from selfish_assign import is_nash, loads_instance

        inst, refs = loads_instance(out.read_text(encoding="utf-8"))
        assert is_nash(inst, refs["N1"]) and is_nash(inst, refs["N2"])

    def test_out_reports_the_time_to_build_and_write(self, tmp_path, capsys, monkeypatch):
        ticks = iter([10.0, 10.0125])
        calls = []

        def perf_counter():
            calls.append(None)
            return next(ticks)

        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=perf_counter))
        out = tmp_path / "big.json"
        code, report, err = run_cli(capsys, "gen", "big-nash", "--n", "3", "--out", str(out))
        assert (code, err, len(calls)) == (0, "", 2)
        assert report["elapsed_ms"] == 12.5
        assert out.is_file()

    def test_invalid_parameters_fail_precondition(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "big-nash", "--n", "2")
        assert code == 3
        code, _, _ = run_cli(capsys, "gen", "random", "--n", "2")
        assert code == 3

    def test_bad_range_is_parse_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "gen", "random", "--n", "2", "--m", "2",
            "--weights", "1-4", "--delays", "1:2",
        )
        assert code == 2


class TestVerify:
    def test_non_nash_assignment_gets_a_witness_move(self, tmp_path, capsys):
        path = write_instance(tmp_path, gen_uniform_gap(F(1, 10)))
        assignment = tmp_path / "a.json"
        assignment.write_text("[1, 2]", encoding="utf-8")
        code, report, _ = run_cli(capsys, "verify", path, str(assignment))
        assert code == 0
        assert report["result"]["is_nash"] is False
        assert report["result"]["improving_moves"] == [
            {"task": 2, "to_resource": 1, "new_load": {"exact": "1/1", "approximate": 1.0}}
        ]

    def test_nash_assignment_verifies(self, tmp_path, capsys):
        path = write_instance(tmp_path, gen_uniform_gap(F(1, 10)))
        assignment = tmp_path / "a.json"
        assignment.write_text("[1, 1]", encoding="utf-8")
        code, report, _ = run_cli(capsys, "verify", path, str(assignment))
        assert code == 0
        assert report["result"]["is_nash"] is True
        assert report["result"]["cost"]["exact"] == "2/1"
        assert report["result"]["resource_loads"][0]["exact"] == "1/1"

    def test_single_resource_is_always_nash(self, tmp_path, capsys):
        inst = Instance(weights=(F(2), F(1)), delays=(F(3),))
        path = write_instance(tmp_path, inst)
        assignment = tmp_path / "a.json"
        assignment.write_text("[1, 1]", encoding="utf-8")
        code, report, _ = run_cli(capsys, "verify", path, str(assignment))
        assert code == 0
        assert report["result"]["is_nash"] is True

    def test_length_mismatch_fails_precondition(self, tmp_path, capsys):
        path = write_instance(tmp_path, gen_uniform_gap(F(1, 10)))
        assignment = tmp_path / "a.json"
        assignment.write_text("[1]", encoding="utf-8")
        code, _, _ = run_cli(capsys, "verify", path, str(assignment))
        assert code == 3

    # the file's shape is checked first (exit 2), its fit to the instance by
    # the model (exit 3); the instance has 2 tasks on 2 resources
    @pytest.mark.parametrize("content, code, message", [
        pytest.param('{"a": 1}', 2, "bad assignment file {path}: expected a JSON array of resource indices",
                     id="not-an-array"),
        pytest.param("[1, 0]", 2, "bad assignment file {path}: resource indices are 1-based ints, got 0",
                     id="bad-entry"),
        pytest.param("[0]", 2, "bad assignment file {path}: resource indices are 1-based ints, got 0",
                     id="bad-entry-and-wrong-length"),
        pytest.param("[1, 2, 1]", 3, "assignment has 3 entries, instance has 2 tasks", id="wrong-length"),
        pytest.param("[1, 3]", 3, "task 2 uses resource 3, instance has 2", id="out-of-range"),
    ])
    def test_refusal_names_the_check(self, content, code, message, tmp_path, capsys):
        path = write_instance(tmp_path, gen_uniform_gap(F(1, 10)))
        assignment = tmp_path / "a.json"
        assignment.write_text(content, encoding="utf-8")
        got = run_cli(capsys, "verify", path, str(assignment))
        assert got == (code, None, f"error: {message.format(path=assignment)}\n")


class TestReportShape:
    def test_digest_and_timing(self, tmp_path, capsys):
        inst = Instance(weights=(F(1), F(3)), delays=(F(1), F(2)))
        code, report, err = run_cli(capsys, "ratio", write_instance(tmp_path, inst))
        assert code == 0
        assert err == ""
        assert report["command"] == "ratio"
        digest = report["instance"]
        assert digest["tasks"] == 2 and digest["resources"] == 2
        assert digest["total_weight"]["exact"] == "4/1"
        assert digest["throughput"]["exact"] == "3/2"
        assert isinstance(report["elapsed_ms"], float)

    def test_rational_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"weights": ["1e400", 1], "delays": [1, 2]}', encoding="utf-8")
        code, report, err = run_cli(capsys, "solve", str(path))
        assert code == 0 and err == ""
        digest = report["instance"]
        # beyond float range: a scientific-notation string, exactly rounded
        assert digest["weight_spread"] == {"exact": "1" + "0" * 400 + "/1",
                                           "approximate": "1.0000000000000000e+400"}
        assert digest["average_load"]["approximate"] == "5.0000000000000000e+399"
        assert report["result"]["cost"]["approximate"] == "1.0000000000000000e+400"
        # in range: still a float
        assert digest["throughput"]["approximate"] == 1.5

    def test_rational_beyond_int_string_limit(self, tmp_path, capsys):
        # 5001 digits, above Python's default int-to-string limit of 4300
        path = tmp_path / "huge.json"
        path.write_text('{"weights": ["1e5000", 1], "delays": [1, 2]}', encoding="utf-8")
        code, report, err = run_cli(capsys, "solve", str(path))
        assert code == 0 and err == ""
        assert report["result"]["algorithm"] == "dp-delays"
        assert report["result"]["assignment"] == [1, 2]
        assert report["result"]["cost"] == {"exact": "1" + "0" * 4999 + "2/1",
                                            "approximate": "1.0000000000000000e+5000"}
        assert report["instance"]["total_weight"]["exact"] == "1" + "0" * 4999 + "1/1"

    def test_written_integer_beyond_int_string_limit_reads_back(self, tmp_path, capsys):
        # dumps_instance writes 10**5000 as a "p/1" string of 5001 digits
        inst = Instance(weights=(F(10**5000), F(1)), delays=(F(1), F(2)))
        code, report, err = run_cli(capsys, "solve", write_instance(tmp_path, inst))
        assert code == 0 and err == ""
        assert report["result"]["assignment"] == [1, 2]
        assert report["result"]["cost"]["exact"] == "1" + "0" * 4999 + "2/1"

    def test_approximation_rounds_to_seventeen_digits(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"weights": ["2e400", 3], "delays": [1]}', encoding="utf-8")
        code, report, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert report["instance"]["weight_spread"]["approximate"] == "6.6666666666666667e+399"

    def test_approximation_below_float_range(self, tmp_path, capsys):
        tiny = f"1/{10**200}"
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"weights": [tiny, tiny], "delays": [tiny, tiny]}), encoding="utf-8")
        code, report, err = run_cli(capsys, "solve", str(path))
        assert code == 0 and err == ""
        # float() would give 0.0
        assert report["result"]["cost"] == {"exact": "1/5" + "0" * 399,
                                            "approximate": "2.0000000000000000e-400"}

    def test_subnormal_approximation_is_a_string_and_zero_stays_a_float(self, tmp_path, capsys):
        tiny = f"1/{10**155}"
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"weights": [tiny], "delays": [tiny, tiny]}), encoding="utf-8")
        assignment = tmp_path / "a.json"
        assignment.write_text("[1]", encoding="utf-8")
        code, report, err = run_cli(capsys, "verify", str(path), str(assignment))
        assert code == 0 and err == ""
        # float() would give the subnormal 1e-310, which keeps 16 significant bits
        assert report["result"]["resource_loads"] == [
            {"exact": f"1/{10**310}", "approximate": "1.0000000000000000e-310"},
            {"exact": "0/1", "approximate": 0.0},
        ]

    def test_stdout_is_single_json_document(self, tmp_path, capsys):
        path = write_instance(tmp_path, gen_uniform_gap(F(1, 10)))
        main(["solve", path])
        out = capsys.readouterr().out
        json.loads(out)  # would raise if stdout carried anything else


# Failure paths: (argv with {instance}, {wide} and {assignment} filled in,
# assignment file content (text, or bytes written as they are) or None for
# no file, exit code).
# {instance} has 2 tasks on 2 resources; {wide} has five distinct weights
# and five distinct delays, so no exact algorithm applies.
FAILURES = {
    "assignment-missing": (["verify", "{instance}", "{assignment}"], None, 2),
    "assignment-invalid-json": (["verify", "{instance}", "{assignment}"], "[1,", 2),
    "assignment-not-array": (["verify", "{instance}", "{assignment}"], '{"a": 1}', 2),
    "assignment-entry-zero": (["verify", "{instance}", "{assignment}"], "[0, 1]", 2),
    "assignment-entry-true": (["verify", "{instance}", "{assignment}"], "[true, 1]", 2),
    "assignment-beyond-m": (["verify", "{instance}", "{assignment}"], "[1, 3]", 3),
    # json refuses an int of more than 4300 digits with a plain ValueError
    "assignment-integer-too-long": (
        ["verify", "{instance}", "{assignment}"], f"[{'1' * 4301}, 1]", 2),
    "assignment-not-utf-8": (["verify", "{instance}", "{assignment}"], b"[1, \xff]", 2),
    "instance-not-utf-8": (["solve", "{assignment}"], b'{"weights": [\xff]}', 2),
    "solve-epsilon-not-rational": (["solve", "{instance}", "--epsilon", "abc"], None, 2),
    "solve-epsilon-zero": (["solve", "{instance}", "--epsilon", "0"], None, 3),
    "gen-epsilon-negative": (["gen", "uniform-gap", "--epsilon", "-1"], None, 3),
    "gen-big-nash-without-n": (["gen", "big-nash"], None, 3),
    "gen-random-without-ranges": (["gen", "random", "--n", "2", "--m", "2"], None, 3),
    "gen-random-range-dash": (
        ["gen", "random", "--n", "2", "--m", "2", "--weights", "1-2", "--delays", "1:2"], None, 2),
    "gen-random-range-not-rational": (
        ["gen", "random", "--n", "2", "--m", "2", "--weights", "a:b", "--delays", "1:2"], None, 2),
    "reference-assignment-beyond-m": (
        ["solve", "{assignment}"],
        '{"weights": [1, 2], "delays": [1, 2], "reference_assignments": {"a": [9, 1]}}', 2),
    "reference-assignment-too-short": (
        ["solve", "{assignment}"],
        '{"weights": [1, 2], "delays": [1, 2], "reference_assignments": {"a": [1]}}', 2),
    "reference-assignment-too-long": (
        ["ratio", "{assignment}"],
        '{"weights": [1, 2], "delays": [1, 2], "reference_assignments": {"a": [1, 2, 2]}}', 2),
    "solve-no-exact-algorithm": (["solve", "{wide}"], None, 3),
    "instance-number-too-long": (
        ["solve", "{assignment}"], f'{{"weights": ["1e{MAX_NUMBER_DIGITS}", 1], "delays": [1]}}', 4),
    "solve-epsilon-too-long": (["solve", "{instance}", "--epsilon", f"1e-{MAX_NUMBER_DIGITS}"], None, 4),
    "gen-epsilon-too-long": (["gen", "uniform-gap", "--epsilon", f"1e{MAX_NUMBER_DIGITS}"], None, 4),
    "gen-random-range-too-long": (
        ["gen", "random", "--n", "2", "--m", "2", "--weights", f"1:1e{MAX_NUMBER_DIGITS}", "--delays", "1:2"],
        None, 4),
    "gen-out-missing-directory": (["gen", "big-nash", "--n", "3", "--out", "{missing}"], None, 2),
    "gen-random-no-tasks": (
        ["gen", "random", "--n", "0", "--m", "2", "--weights", "1:2", "--delays", "1:2"], None, 3),
    # sizes above instances.MAX_GEN_SIZE, refused before any list is built
    "gen-big-nash-n-beyond-index": (["gen", "big-nash", "--n", str(10**20)], None, 3),
    "gen-nash-ratio-lb-epsilon-tiny": (["gen", "nash-ratio-lb", "--epsilon", "1e-30"], None, 3),
    "gen-big-nash-above-size-bound": (["gen", "big-nash", "--n", str(10**9)], None, 3),
    "gen-random-tasks-above-size-bound": (
        ["gen", "random", "--n", str(10**9), "--m", "2", "--weights", "1:2", "--delays", "1:2"], None, 3),
    "gen-random-resources-above-size-bound": (
        ["gen", "random", "--n", "2", "--m", str(10**9), "--weights", "1:2", "--delays", "1:2"], None, 3),
    "gen-nash-ratio-lb-above-size-bound": (["gen", "nash-ratio-lb", "--epsilon", "1/1000000000"], None, 3),
}

#: Deeper than the JSON reader of any supported Python recurses: 1000
#: levels reach the recursion limit of 3.10 and 3.11, and newer versions
#: have a larger one for C code.
TOO_DEEP = "[" * 100_000


class TestFailurePaths:
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_exit_code_and_one_error_line(self, case, tmp_path, capsys):
        argv, content, expected = FAILURES[case]
        assignment = tmp_path / "assignment.json"
        if isinstance(content, bytes):
            assignment.write_bytes(content)
        elif content is not None:
            assignment.write_text(content, encoding="utf-8")
        wide = Instance(weights=tuple(map(F, range(1, 6))), delays=tuple(map(F, range(1, 6))))
        paths = {
            "instance": write_instance(tmp_path, gen_uniform_gap(F(1, 10))),
            "wide": write_instance(tmp_path, wide, "wide.json"),
            "assignment": str(assignment),
            "missing": str(tmp_path / "missing" / "out.json"),
        }
        code, report, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == expected
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, argv", [("instance", ["nash", "{doc}"]),
                                            ("assignment", ["verify", "{instance}", "{doc}"])])
    def test_nesting_beyond_the_json_reader_is_a_parse_error(self, kind, argv, tmp_path, capsys):
        doc = tmp_path / "deep.json"
        doc.write_text(TOO_DEEP, encoding="utf-8")
        paths = {"doc": str(doc), "instance": write_instance(tmp_path, gen_uniform_gap(F(1, 10)))}
        code, report, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2 and report is None
        assert err == f"error: bad {kind} file {doc}: JSON nested too deeply to read\n"

    def test_number_beyond_float_range_says_so(self, tmp_path, capsys):
        doc = tmp_path / "huge.json"
        doc.write_text('{"weights": [1, 1e400], "delays": [1]}', encoding="utf-8")
        code, report, err = run_cli(capsys, "solve", str(doc))
        assert code == 2 and report is None
        assert err == (f"error: bad instance file {doc}:"
                       " JSON number beyond float range; quote it as a string\n")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_bare_json_constant_is_refused_by_name(self, constant, tmp_path, capsys):
        doc = tmp_path / "constant.json"
        doc.write_text(f'{{"weights": [1, {constant}], "delays": [1]}}', encoding="utf-8")
        code, report, err = run_cli(capsys, "solve", str(doc))
        assert code == 2 and report is None
        assert err == (f"error: bad instance file {doc}:"
                       f" JSON constant {constant} is not a rational number\n")

    @pytest.mark.parametrize("argv, size", [
        (["big-nash", "--n", str(MAX_GEN_SIZE - 1)], MAX_GEN_SIZE + 1),
        (["random", "--n", str(MAX_GEN_SIZE), "--m", "1", "--weights", "1:2", "--delays", "1:2"],
         MAX_GEN_SIZE + 1),
        (["nash-ratio-lb", "--epsilon", "1/1000000000"], 6 * 2 * 10**9 + 13 + 6),
        (["nash-ratio-lb", "--epsilon", "1e-4000"], "more than 10**4000"),
    ])
    def test_gen_above_the_size_bound_states_the_size(self, argv, size, capsys):
        code, report, err = run_cli(capsys, "gen", *argv)
        assert code == 3 and report is None
        assert err == (f"error: the instance would have {size} tasks and resources,"
                       f" above the bound {MAX_GEN_SIZE}\n")

    def test_empty_gen_range_prints_rationals(self, capsys):
        code, report, err = run_cli(capsys, "gen", "random", "--n", "2", "--m", "2",
                                    "--weights", "2:1", "--delays", "1:2")
        assert code == 3 and report is None
        assert err == "error: empty range: 2/1:1/1\n"

    def test_unwritable_out_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        code, report, err = run_cli(capsys, "gen", "big-nash", "--n", "3", "--out", str(out))
        assert code == 2 and report is None
        assert err.startswith(f"error: cannot write {out}: ")


# argparse rejections: argv, and a fragment of the one error line
ARGUMENT_ERRORS = {
    "bad-int-value": (["ratio", "x.json", "--budget", "abc"], "invalid int value: 'abc'"),
    "bad-choice": (["solve", "x.json", "--algorithm", "bogus"], "invalid choice: 'bogus'"),
    "no-subcommand": ([], "the following arguments are required: command"),
    "unknown-flag": (["nash", "x.json", "--fast"], "unrecognized arguments: --fast"),
}


class TestArgumentErrors:
    @pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
    def test_one_error_line_and_exit_2(self, case, capsys):
        argv, fragment = ARGUMENT_ERRORS[case]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_is_the_usage_block(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: selfish-assign") and captured.err == ""


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process run; argparse's
    SystemExit gives the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _nested_parse(argv):
    """argv read by the command's whole parser, the subcommand's parser
    nested in it."""
    return cli._build_parsers()[0].parse_args(argv)


# argv read by the subcommand's parser alone or, when argv[0] names no
# subcommand, by the whole parser; {instance}, {assignment} and {out} are paths
DISPATCH_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "solve"],
    ["solve", "-h"],
    ["solve", "{instance}", "-h"],
    ["solve", "{instance}", "-h", "--bogus"],
    ["gen", "--help"],
    ["solve", "{instance}", "--eps", "1/2", "--alg", "approx"],
    ["solve", "{instance}", "--epsilon=1/2", "--algorithm=approx"],
    ["solve", "{instance}", "--algorithm", "dp"],
    ["solve", "--", "{instance}"],
    ["solve", "{instance}", "--"],
    ["ratio", "--budget", "50", "--", "{instance}"],
    ["--", "solve", "{instance}"],
    ["bogus"],
    ["Solve", "{instance}"],
    ["sol", "{instance}"],
    ["--bogus", "solve", "{instance}"],
    ["nash", "{instance}", "--fast"],
    ["nash", "{instance}", "--mode"],
    ["nash", "{instance}", "--mode", "any", "--mode", "best"],
    ["nash", "{instance}", "-x", "--mode=any"],
    ["ratio", "{instance}", "--budget"],
    ["ratio", "{instance}", "--budget", "abc"],
    ["ratio", "{instance}", "--budget", "3", "--budget", "100"],
    ["solve"],
    ["verify", "{instance}"],
    ["verify", "{instance}", "{assignment}"],
    ["verify", "{instance}", "{assignment}", "extra"],
    ["gen", "--n", "3", "big-nash"],
    ["gen", "random", "--n", "3", "--m", "2", "--weights", "1:3", "--delays", "1:2", "--seed", "5"],
    ["gen", "big-nash", "--n", "4", "--out", "{out}"],
    ["gen", "uniform-gap", "--epsilon", "-1/2"],
    ["solve", "{instance}", "--epsilon", "-1"],
]


class TestArgumentDispatch:
    """`main` reads argv with one parse, and every outcome (exit code,
    stdout, stderr) equals that of the whole parser's nested parse."""

    @pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
    def test_equals_nested_parse(self, argv, tmp_path, capsys, monkeypatch):
        assignment = tmp_path / "assignment.json"
        assignment.write_text("[1, 2, 2, 1]", encoding="utf-8")
        paths = {"instance": write_instance(tmp_path, gen_uniform_gap(F(1, 10))),
                 "assignment": str(assignment), "out": str(tmp_path / "out.json")}
        argv = [arg.format(**paths) for arg in argv]
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        outcome = _outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args", _nested_parse)
        assert _outcome(capsys, argv) == outcome

    def test_reads_the_process_arguments(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, gen_uniform_gap(F(1, 10)))
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        monkeypatch.setattr(sys, "argv", ["selfish-assign", "nash", path, "--mode", "best"])
        outcome = _outcome(capsys, None)
        assert outcome[0] == 0 and json.loads(outcome[1])["result"]["mode"] == "best"
        assert _outcome(capsys, ["nash", path, "--mode", "best"]) == outcome
        monkeypatch.setattr(cli, "_parse_args", _nested_parse)
        assert _outcome(capsys, None) == outcome


# instances by the route `solve` takes on them: identical weights; one
# delay; two weights on five delays; and for `--algorithm approx`, a
# weight spread (2) at most the delay spread (4), then one above it
RUNNER_INSTANCES = {
    "identical": Instance(weights=(F(1), F(1)), delays=(F(1, 2), F(11, 10))),
    "one-delay": Instance(weights=(F(4), F(1), F(1)), delays=(F(1), F(1))),
    "two-weights": Instance(weights=(F(1), F(3), F(1)), delays=tuple(map(F, range(1, 6)))),
    "weight-side": Instance(weights=(F(2), F(1), F(1)), delays=(F(1), F(4))),
    "delay-side": Instance(weights=(F(4), F(1), F(1)), delays=(F(1), F(2))),
}

APPROX = ("--algorithm", "approx", "--epsilon", "1/2")

# each instance command's argv with the functions it must reach, of those
# perfbench/spans.py wraps: (module, attribute) by run
RUNNER_RUNS = {
    "solve find-opt": (["solve", "identical"], {"cli.cost", "algorithms.find_opt"}),
    "solve dp-delays": (["solve", "one-delay"], {"algorithms.dp_few_delays"}),
    "solve dp-weights": (["solve", "two-weights"], {"algorithms.dp_few_weights"}),
    "solve approx weights": (
        ["solve", "weight-side", *APPROX],
        {"algorithms.approx_solve_weights", "algorithms.dp_few_weights"},
    ),
    "solve approx delays": (
        ["solve", "delay-side", *APPROX],
        {"algorithms.approx_solve_delays", "algorithms.dp_few_delays"},
    ),
    "nash any": (["nash", "delay-side"], {"cli.cost", "cli.is_nash", "algorithms.greedy_nash"}),
    "nash best": (
        ["nash", "identical", "--mode", "best"],
        {"cli.cost", "cli.is_nash", "algorithms.find_opt_nash"},
    ),
    "ratio": (["ratio", "delay-side"], {"oracle.enumerate_extremes", "oracle.verify_bounds"}),
    "verify": (["verify", "delay-side", "{assignment}"], {"cli.cost", "cli.improving_moves"}),
}

RECORDED = {
    cli: ("loads_instance", "cost", "is_nash", "improving_moves"),
    algorithms: ("find_opt", "dp_few_delays", "dp_few_weights", "approx_solve_weights",
                 "approx_solve_delays", "greedy_nash", "find_opt_nash"),
    oracle: ("enumerate_extremes", "verify_bounds"),
}


class TestInstanceRunner:
    """One runner reads the instance file, times, maps a ValueError to exit
    3 and builds the report of every instance command; `solve`'s algorithms
    come from one table, and each assignment a command evaluates is walked
    once."""

    def _argv(self, tmp_path, argv):
        assignment = tmp_path / "assignment.json"
        assignment.write_text("[1, 2, 2]", encoding="utf-8")
        paths = {name: write_instance(tmp_path, inst, f"{name}.json")
                 for name, inst in RUNNER_INSTANCES.items()}
        return [paths.get(arg, arg.format(assignment=assignment)) for arg in argv]

    @pytest.mark.parametrize("run", sorted(RUNNER_RUNS))
    def test_each_run_reaches_its_own_functions_at_call_time(self, run, tmp_path, capsys, monkeypatch):
        argv, reached = RUNNER_RUNS[run]
        argv = self._argv(tmp_path, argv)
        events = []

        def recording(name, original):
            def wrapper(*args, **kwargs):
                events.append(name)
                return original(*args, **kwargs)
            return wrapper

        # module attributes replaced as perfbench's traced run replaces them,
        # after the table of solvers was built
        for module, attrs in RECORDED.items():
            prefix = module.__name__.rpartition(".")[2]
            for attr in attrs:
                monkeypatch.setattr(module, attr, recording(f"{prefix}.{attr}", getattr(module, attr)))
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=recording("perf_counter", lambda: 0.0)))
        code, report, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert report["command"] == argv[0] and report["elapsed_ms"] == 0.0
        # one timer around the instance read and the built result
        assert events[:2] == ["perf_counter", "cli.loads_instance"]
        assert events.count("perf_counter") == 2 and events[-1] == "perf_counter"
        assert set(events) - {"perf_counter", "cli.loads_instance"} == reached

    def test_algorithm_choices_are_the_table_in_autos_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "-h"])
        assert "{auto,find-opt,dp-delays,dp-weights,approx}" in capsys.readouterr().out
        assert list(cli._SOLVERS) == ["find-opt", "dp-delays", "dp-weights", "approx"]

    @pytest.mark.parametrize("argv, module, attr", [
        pytest.param(["solve", "identical"], algorithms, "find_opt", id="solve"),
        pytest.param(["nash", "delay-side"], algorithms, "greedy_nash", id="nash"),
        pytest.param(["ratio", "delay-side"], oracle, "verify_bounds", id="ratio"),
        pytest.param(["verify", "delay-side", "{assignment}"], cli, "improving_moves", id="verify"),
    ])
    def test_value_error_is_exit_3_with_one_line(self, argv, module, attr, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("refused\nhere")

        monkeypatch.setattr(module, attr, refuse)
        code, report, err = run_cli(capsys, *self._argv(tmp_path, argv))
        assert (code, report, err) == (3, None, "error: refused\\nhere\n")

    @pytest.mark.parametrize("argv, walks", [
        # cost, resource_loads and improving_moves of the assignment file
        pytest.param(["verify", "delay-side", "{assignment}"], 1, id="verify"),
        # cost and is_nash of greedy_nash's mixed-weight assignment
        pytest.param(["nash", "delay-side"], 1, id="nash"),
        # verify_bounds: cost of the optimum's witness, cost and is_nash of
        # each of the two Nash witnesses, (1, 1, 2) and (1, 1, 1)
        pytest.param(["ratio", "weight-side"], 3, id="ratio"),
    ])
    def test_each_assignment_is_walked_once(self, argv, walks, tmp_path, capsys, monkeypatch):
        """However many evaluators read an assignment, its tasks are walked
        once per instance; each walk checks the assignment first
        (`model._check_fits`)."""
        checked = []  # the targets walked, kept alive so that their ids differ
        original = model._check_fits

        def counting(inst, target):
            checked.append(target)
            return original(inst, target)

        monkeypatch.setattr(model, "_check_fits", counting)
        code, report, err = run_cli(capsys, *self._argv(tmp_path, argv))
        assert (code, err) == (0, "")
        if argv[0] == "ratio":
            witnesses = report["result"]["witnesses"]
            assert witnesses["min_nash"] != witnesses["max_nash"]
        assert len(set(map(id, checked))) == len(checked) == walks

    @pytest.mark.parametrize("argv, checks", [
        # the count vector alone: the assignment it expands to is built
        # from it, not checked again
        pytest.param(["solve", "identical"], 1, id="solve find-opt"),
        pytest.param(["nash", "identical", "--mode", "best"], 1, id="nash best"),
        # assignments the package builds itself are not checked
        pytest.param(["nash", "delay-side"], 0, id="nash any"),
        pytest.param(["solve", "one-delay"], 0, id="solve dp-delays"),
        pytest.param(["solve", "two-weights"], 0, id="solve dp-weights"),
        # the assignment file is input from outside
        pytest.param(["verify", "delay-side", "{assignment}"], 1, id="verify"),
    ])
    def test_each_outside_array_is_checked_once(self, argv, checks, tmp_path, capsys, monkeypatch):
        """The index arrays a command reads are checked entry by entry
        (`model._checked_indices`); an assignment the package built from
        ints it made is not."""
        calls = []
        original = model._checked_indices

        def counting(values, least, message):
            calls.append(message)
            return original(values, least, message)

        monkeypatch.setattr(model, "_checked_indices", counting)
        code, _, err = run_cli(capsys, *self._argv(tmp_path, argv))
        assert (code, err) == (0, "")
        assert len(calls) == checks


# Input files whose reading must give the lines a text-mode read gives:
# line breaks, a byte order mark, bytes that are not UTF-8
READ_CORPUS = {
    "crlf": b'{\r\n  "weights": [1, 2],\r\n  "delays": [1, 3]\r\n}\r\n',
    "lone-cr": b'{"weights": [1, 2],\r"delays": [1, 3]}\r',
    "cr-cr-lf": b'{"weights": [1, 2],\r\r\n"delays": [1, 3}',
    "crlf-in-a-string": b'{"weights": [1, "x\r\n"], "delays": [1]}',
    "cr-in-a-number": b'{"weights": [1, " 2\r"], "delays": [1, 3]}',
    "crlf-before-an-error": b'{\r\n"weights": [1, 2],\r\n"delays": [1,]\r\n}',
    "bom": b'\xef\xbb\xbf{"weights": [1, 2], "delays": [1, 3]}',
    "not-utf-8": b'{"weights": [1, \xff], "delays": [1]}',
    "not-utf-8-after-crlf": b'{\r\n"weights": [\xc3\x28]}',
    "truncated-utf-8": b'[1, 2] \xe2\x82',
    "empty": b"",
    "only-cr": b"\r",
    "assignment-crlf": b"[1,\r\n 2]\r\n",
    "assignment-crlf-error": b"[1,\r\n]",
}


class TestFileReading:
    """Input files are read as bytes and decoded once; the text, and every
    error line, equal those of a text-mode read."""

    @pytest.mark.parametrize("case", sorted(READ_CORPUS))
    def test_text_equals_text_mode(self, case, tmp_path):
        path = tmp_path / "file.json"
        path.write_bytes(READ_CORPUS[case])
        try:
            expected = reference_read_text(path)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                cli._read_text(str(path))
            assert str(raised.value) == str(exc)
            return
        assert cli._read_text(str(path)) == expected

    @pytest.mark.parametrize("case", sorted(READ_CORPUS) + ["directory", "nul", "missing"])
    @pytest.mark.parametrize("kind", ["instance", "assignment"])
    def test_outcome_equals_text_mode(self, case, kind, tmp_path, capsys, monkeypatch):
        path = {"directory": str(tmp_path), "nul": str(tmp_path / "a\0b"),
                "missing": str(tmp_path / "missing.json")}.get(case, str(tmp_path / "file.json"))
        if case in READ_CORPUS:
            Path(path).write_bytes(READ_CORPUS[case])
        instance = write_instance(tmp_path, Instance(weights=(F(1), F(2)), delays=(F(1), F(3))))
        argv = ["solve", path] if kind == "instance" else ["verify", instance, path]
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        outcome = _outcome(capsys, argv)
        monkeypatch.setattr(cli, "_read_text", reference_read_text)
        assert _outcome(capsys, argv) == outcome
        assert outcome[0] == 0 or outcome[2].count("\n") == 1


class TestReportBytes:
    """Every report is byte-identical to json.dumps(report, indent=2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{instance}"],
            ["solve", "{mixed}", "--algorithm", "approx", "--epsilon", "1/2"],
            ["nash", "{mixed}"],
            ["nash", "{instance}", "--mode", "best"],
            ["ratio", "{mixed}"],
            ["verify", "{mixed}", "{assignment}"],
            ["gen", "nash-ratio-lb", "--epsilon", "1/2"],
            ["gen", "big-nash", "--n", "4", "--out", "{out}"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("{")),
    )
    def test_stdout_equals_json_dumps_indent_2(self, argv, tmp_path, capsys):
        mixed = Instance(weights=(F(3), F(1, 3), F(2), F(2)), delays=(F(1), F(5, 2), F(10**400)))
        assignment = tmp_path / "assignment.json"
        assignment.write_text("[3, 3, 1, 2]", encoding="utf-8")
        paths = {
            "instance": write_instance(tmp_path, gen_uniform_gap(F(1, 10))),
            "mixed": write_instance(tmp_path, mixed, "mixed.json"),
            "assignment": str(assignment),
            "out": str(tmp_path / "out.json"),
        }
        assert main([arg.format(**paths) for arg in argv]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("argv", [["solve"], ["nash", "--mode", "best"], ["ratio"]],
                             ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
    @pytest.mark.parametrize("weights, delays", [
        pytest.param([1] * 3, [1, 2, 2, 3, 5, 8, 13], id="m-above-n"),
        pytest.param([5], [1, 2], id="one-task"),
        pytest.param([2] * 4, [3], id="one-resource"),
        pytest.param(["1/3"] * 200, [1, 1, 2, 3, 5, 8, 13, 21, 34], id="long-runs"),
    ])
    def test_count_vector_reports_equal_plain_tuples(self, argv, weights, delays, tmp_path, capsys,
                                                     monkeypatch):
        """`solve` (find-opt), `nash --mode best` and identical-weight
        `ratio` hand the writer each assignment a count vector expands as a
        run array; their reports equal the same document with plain tuples."""
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"weights": weights, "delays": delays}), encoding="utf-8")
        documents = []
        monkeypatch.setattr(cli, "dumps_json", lambda doc: documents.append(doc) or model.dumps_json(doc))
        assert main([argv[0], str(path), *argv[1:]]) == 0
        out = capsys.readouterr().out
        (document,) = documents

        found = []

        def plain(value):
            if isinstance(value, dict):
                return {key: plain(item) for key, item in value.items()}
            if isinstance(value, list):
                return list(map(plain, value))
            if type(value) is model._RunArray:
                found.append(value)
                return tuple(value)
            return value

        plain_document = plain(document)
        assert len(found) == (3 if argv[0] == "ratio" else 1)
        assert out == model.dumps_json(plain_document) + "\n" == json.dumps(document, indent=2) + "\n"


# One number grammar on every Python version: each form is read, or refused,
# alike by parse_rational, by the instance-file reader and by `solve`.
WIDE_NUMERATOR = 7 * (10**5000 - 1) // 9  # 5000 sevens, beyond the int-to-string limit
NUMBER_FORMS = [
    (" 1/2 ", F(1, 2)),
    ("+1/2", F(1, 2)),
    (".5", F(1, 2)),
    ("5.", F(5)),
    ("2E-2", F(1, 50)),
    ("7" * 5000 + "/3", F(WIDE_NUMERATOR, 3)),
    ("1_000", None),  # read by Fraction on 3.11 and later
    ("1 / 2", None),  # read by Fraction on 3.12 and later
    ("\u0661\u0662", None),  # Arabic-Indic digits, read by Fraction everywhere
    ("1/-2", None),
    (".", None),
    ("e5", None),
    ("0x10", None),
    ("nan", None),
    ("inf", None),
    ("1.5/2", None),
]


@pytest.mark.parametrize("text, value", NUMBER_FORMS, ids=[ascii(t)[:16] for t, _ in NUMBER_FORMS])
def test_number_grammar(tmp_path, capsys, text, value):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"weights": [text, 1], "delays": [1, 2]}), encoding="utf-8")
    code, report, err = run_cli(capsys, "solve", str(path))
    if value is None:
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)
        with pytest.raises(ValueError, match="not a rational number"):
            loads_instance(path.read_text(encoding="utf-8"))
        assert (code, report) == (2, None)
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert parse_rational(text) == value
    assert loads_instance(path.read_text(encoding="utf-8"))[0].weights == (value, 1)
    assert code == 0 and err == ""
    assert report["instance"]["total_weight"]["exact"] == format_rational(value + 1)


def _package_env():
    """The environment of a child process that imports this package."""
    src = str(Path(selfish_assign.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestNumberDigitBound:
    """A number that would expand past MAX_NUMBER_DIGITS digits is refused
    with exit 4 before any of it is built; without the bound, the 48-byte
    file below asks for an int of about 40 GB."""

    @pytest.mark.parametrize("argv, number, fragment", [
        (["solve", "{huge}"], "1e99999999999", "bad instance file"),
        (["solve", "{instance}", "--epsilon", "1e-99999999999"], "1e-99999999999", "bad --epsilon"),
    ], ids=["instance-file", "epsilon"])
    def test_exits_4_within_a_second(self, argv, number, fragment, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text('{"weights": ["1e99999999999", 1], "delays": [1]}', encoding="utf-8")
        assert huge.stat().st_size == 48
        paths = {"huge": str(huge), "instance": write_instance(tmp_path, gen_uniform_gap(F(1, 10)))}
        done = subprocess.run(
            [sys.executable, "-m", "selfish_assign", *(arg.format(**paths) for arg in argv)],
            capture_output=True, text=True, env=_package_env(), timeout=1,
        )
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr.startswith(f"error: {fragment}") and done.stderr.count("\n") == 1
        assert done.stderr.endswith(
            f"number '{number}' needs 100000000000 digits, at most {MAX_NUMBER_DIGITS} are allowed\n"
        )


class TestRoundingPowerBound:
    """Geometric rounding refuses powers of more than MAX_GRID_POWER_BITS
    bits before it builds one; unbounded, the runs below did not end in
    20 s (k = 2000 grid steps on 20000-digit values)."""

    @pytest.mark.parametrize("weights", [[1, "1e19999"], [1, "1e19999", 3]],
                             ids=["two-tasks", "three-tasks"])
    def test_exits_3_within_a_second(self, weights, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"weights": weights, "delays": [1, "1e19999"]}), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "selfish_assign", "solve", str(path),
             "--algorithm", "approx", "--epsilon", "1e10"],
            capture_output=True, text=True, env=_package_env(), timeout=1,
        )
        assert (done.returncode, done.stdout) == (3, "")
        bits = 2000 * (10**19999).bit_length()
        assert done.stderr == ("error: geometric rounding needs powers of"
                               f" {bits} bits, above the bound {algorithms.MAX_GRID_POWER_BITS}\n")


class TestVerifyReportBytes:
    def test_full_report(self, tmp_path, capsys, monkeypatch):
        # Tasks 1-3 share one (resource, weight) move group and task 5 moves
        # to the same load from another group.  Task 4's new load, the cost,
        # a resource load and three digest values are above float range.
        inst = Instance(weights=(F(1), F(1), F(1), F(10**309), F(1)), delays=(F(1), F(2), F(3)))
        path = write_instance(tmp_path, inst)
        assignment = tmp_path / "assignment.json"
        assignment.write_text("[2, 2, 2, 3, 3]", encoding="utf-8")
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        assert main(["verify", path, str(assignment)]) == 0
        z = "0" * 307
        move = '{\n        "task": %d,\n        "to_resource": 1,\n        "new_load": {\n' \
            '          "exact": "1/1",\n          "approximate": 1.0\n        }\n      }'
        assert capsys.readouterr().out == f"""{{
  "command": "verify",
  "arguments": {{
    "assignment": {json.dumps(str(assignment))},
    "instance": {json.dumps(path)}
  }},
  "instance": {{
    "tasks": 5,
    "resources": 3,
    "total_weight": {{
      "exact": "1{z}04/1",
      "approximate": "1.0000000000000000e+309"
    }},
    "throughput": {{
      "exact": "11/6",
      "approximate": 1.8333333333333333
    }},
    "average_load": {{
      "exact": "1{z}04/3",
      "approximate": "3.3333333333333333e+308"
    }},
    "weight_spread": {{
      "exact": "1{z}00/1",
      "approximate": "1.0000000000000000e+309"
    }}
  }},
  "result": {{
    "cost": {{
      "exact": "6{z}24/1",
      "approximate": "6.0000000000000000e+309"
    }},
    "resource_loads": [
      {{
        "exact": "0/1",
        "approximate": 0.0
      }},
      {{
        "exact": "6/1",
        "approximate": 6.0
      }},
      {{
        "exact": "3{z}03/1",
        "approximate": "3.0000000000000000e+309"
      }}
    ],
    "is_nash": false,
    "improving_moves": [
      {move % 1},
      {move % 2},
      {move % 3},
      {{
        "task": 4,
        "to_resource": 1,
        "new_load": {{
          "exact": "1{z}00/1",
          "approximate": "1.0000000000000000e+309"
        }}
      }},
      {move % 5}
    ]
  }},
  "elapsed_ms": 0.0
}}
"""


class TestClosedStdout:
    @staticmethod
    def _read_200_bytes_and_close(*argv):
        """(exit code, stderr) of a run whose reader closes stdout after 200 bytes."""
        process = subprocess.Popen(
            [sys.executable, "-m", "selfish_assign", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env(),
        )
        assert process.stdout.read(200).startswith(b"{")
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        return process.wait(timeout=60), err

    def test_reader_closing_the_pipe_exits_1_without_traceback(self, tmp_path):
        # the report lists 20000 resource indices, far more than a pipe buffers
        path = write_instance(tmp_path, Instance(weights=(F(1),) * 20000, delays=(F(1), F(2))))
        code, err = self._read_200_bytes_and_close("solve", path)
        assert code == 1
        assert b"Traceback" not in err

    def test_gen_to_a_closed_pipe_exits_1_without_traceback(self):
        # the instance document lists 20000 weights, far more than a pipe buffers
        code, err = self._read_200_bytes_and_close("gen", "big-nash", "--n", "20000")
        assert code == 1
        assert b"Traceback" not in err


# The CLI contract on generated runs: argv and the contents of the instance
# and assignment files are drawn at small sizes, and
# `main` runs in-process.  Every run ends with exit 0, 2, 3 or 4, or with
# argparse's SystemExit 0 (help) or 2; a failure writes nothing to stdout
# and one `error: ` line to stderr; no other exception escapes.  `gen` sizes
# are small or above `instances.MAX_GEN_SIZE`, which the family refuses
# before it builds anything.

# argv tokens that stand for paths in the run's directory
INSTANCE, ASSIGNMENT, MISSING, DIRECTORY, OUT = (
    "<instance>", "<assignment>", "<missing>", "<directory>", "<out>")
TEXT = st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**25) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
NUMBER_TEXTS = st.sampled_from([
    "3", "1/2", "7/3", "0", "-1", "2/0", "1e3", ".5", "5.", "1e-3", " 7/3 ", "e5", "1/0x",
    f"1e{MAX_NUMBER_DIGITS}", f"1e{MAX_NUMBER_DIGITS + 1}", f"1e-{MAX_NUMBER_DIGITS + 1}",
])
NUMBERS = st.sampled_from([
    st.integers(1, 4),  # many ties
    st.integers(1, 4),
    st.builds("{}/{}".format, st.integers(1, 10**30), st.integers(1, 10**20)),  # wide
    st.integers(-2, 10**25) | st.floats() | NUMBER_TEXTS | JSON_VALUES,  # mostly refused
])


def _weighted(*choices):
    """One of the strategies, drawn with the given weights."""
    return st.sampled_from([s for s, weight in choices for _ in range(weight)]).flatmap(lambda s: s)


_rarely = st.sampled_from([False] * 4 + [True])


@st.composite
def cli_files(draw):
    """The texts (or bytes) of an instance file and an assignment file.
    Mostly an instance document, whose numbers may be refused, with an
    assignment that fits it; else any JSON value, text or bytes."""
    others = _weighted((JSON_VALUES.map(json.dumps), 1), (TEXT, 1), (st.binary(max_size=8), 1))
    assignment = draw(_weighted((st.lists(st.integers(-1, 5), max_size=5).map(json.dumps), 1),
                                (others, 1)))
    if draw(_rarely):
        return draw(others), assignment  # JSON writes NaN and Infinity bare
    doc = {key: draw(st.lists(draw(NUMBERS), min_size=1, max_size=size))
           for key, size in (("weights", 4), ("delays", 3))}
    n, m = len(doc["weights"]), len(doc["delays"])
    fits = st.lists(st.integers(1, m), min_size=n, max_size=n)
    if draw(_rarely):
        doc["reference_assignments"] = {"a": draw(fits | st.lists(st.integers(-1, 4), max_size=5))}
    if draw(_rarely):
        del doc[draw(st.sampled_from(sorted(doc)))]
    if draw(st.booleans()):
        assignment = json.dumps(draw(fits))
    return json.dumps(doc), assignment


PATHS = _weighted((st.just(INSTANCE), 6), (st.sampled_from([MISSING, DIRECTORY]), 1), (TEXT, 1))
EPSILONS = st.sampled_from(["1/2", "1", "2", "1/3", "0", "-1", "abc", "3/0",
                            f"1e{MAX_NUMBER_DIGITS + 1}", f"1e-{MAX_NUMBER_DIGITS + 1}"])
# a gen size is small, or above the bound, where building it would take
# minutes or exhaust memory; so is a nash-ratio-lb epsilon's 6 * ceil(2/eps) + 19
GEN_SIZES = _weighted((st.integers(-1, 6), 6), (st.integers(MAX_GEN_SIZE + 1, 10**30), 1)).map(str)
GEN_EPSILONS = st.sampled_from(["1/1000000", "1/1000000000", "1e-30", "1e-4000"])
RANGES = st.sampled_from(["1:2", "1/2:3", "1:1", "2:1", "0:1", "1-2", "a:b",
                          f"1:1e{MAX_NUMBER_DIGITS + 1}"])


@st.composite
def cli_argv(draw):
    """argv for one subcommand, each of its options present or not, and
    sometimes one more token of any text."""
    command = draw(st.sampled_from(["solve", "nash", "ratio", "verify", "gen"]))
    options = {
        "solve": [("--algorithm", st.sampled_from(
                      ["auto", "find-opt", "dp-delays", "dp-weights", "approx", "bogus"])),
                  ("--epsilon", EPSILONS | TEXT)],
        "nash": [("--mode", st.sampled_from(["any", "best", "worst"]))],
        "ratio": [("--budget", _weighted((st.integers(-2, 300).map(str), 4), (st.just("x"), 1)))],
        "verify": [],
        "gen": [("--n", GEN_SIZES), ("--m", GEN_SIZES),
                ("--epsilon", EPSILONS | GEN_EPSILONS), ("--weights", RANGES), ("--delays", RANGES),
                ("--seed", st.integers(-(2**70), 2**70).map(str)),
                ("--out", st.sampled_from([OUT, MISSING, DIRECTORY, "a\x00b"]))],
    }[command]
    if command == "gen":
        argv = [command, draw(st.sampled_from(
            ["big-nash", "nash-ratio-lb", "uniform-gap", "random", "bogus"]))]
    else:
        argv = [command, draw(PATHS)]
        if command == "verify":
            argv.append(draw(_weighted((st.just(ASSIGNMENT), 6), (PATHS, 1))))
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(_rarely):
        argv.append(draw(TEXT))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(cli_argv(), cli_files())
@example(["verify", INSTANCE, ASSIGNMENT],  # json's digit limit: once a traceback
         ('{"weights": [1, 1], "delays": [1, 2]}', f"[{'1' * 4301}, 1]"))
@example(["solve", INSTANCE], (b"\xff", ""))  # not UTF-8: once a traceback
@example(["solve", "a\nb"], ("", ""))  # a line break in a missing path
@example(["gen", "big-nash", "--n", "3", "--out", "a\x00b"], ("", ""))
@example(["gen", "random", "--n", "3", "--m", "2", "--weights", "1:2", "--delays", "1/2:3",
          "--out", OUT], ("", ""))
@example(["gen", "nash-ratio-lb", "--epsilon", "1/2"], ("", ""))
@example(["gen", "random", "--n", str(10**9), "--m", "2", "--weights", "1:2", "--delays", "1:2"], ("", ""))
@example(["gen", "nash-ratio-lb", "--epsilon", "1/1000000000"], ("", ""))
def test_cli_contract(tmp_path_factory, argv, files):
    root = tmp_path_factory.getbasetemp() / "contract"
    root.mkdir(exist_ok=True)
    paths = {INSTANCE: root / "instance.json", ASSIGNMENT: root / "assignment.json",
             MISSING: root / "missing" / "file.json", DIRECTORY: root, OUT: root / "out.json"}
    for path, content in zip((paths[INSTANCE], paths[ASSIGNMENT]), files):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    argv = [str(paths.get(token, token)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)  # a generated relative path, such as `--ou=x`, stays in the run's directory
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # from argparse
        assert exc.code in (0, 2)
        if exc.code == 0:  # --help: the usage block
            return
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
    else:
        assert err.getvalue() == ""
