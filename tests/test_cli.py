"""Command-line interface: dispatch, report shape, exit codes, file round-trips."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import selfish_assign
from selfish_assign import (
    Instance,
    algorithms,
    dumps_instance,
    format_rational,
    gen_uniform_gap,
    loads_instance,
    parse_rational,
)
from selfish_assign.cli import main


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
        inst = Instance(weights=(F(4), F(1), F(1)), delays=(F(1), F(1)))
        monkeypatch.setattr(algorithms, "MAX_TABLE_STATES", 5)
        code, report, err = run_cli(capsys, "solve", write_instance(tmp_path, inst))
        assert code == 3
        assert report is None
        assert err == "error: dynamic programming table would need 12 states\n"

    def test_approx_grid_bound_fails_precondition_at_once(self, tmp_path, capsys):
        # k = 2.2e30 grid steps; counting them one multiply at a time never returned
        inst = Instance(weights=(F(1), F(3), F(5), F(7), F(9)), delays=(F(1), F(2), F(3), F(5), F(7), F(11)))
        path = write_instance(tmp_path, inst)
        started = time.perf_counter()
        code, report, err = run_cli(capsys, "solve", path, "--algorithm", "approx", "--epsilon", "1e-30")
        assert time.perf_counter() - started < 0.5
        assert code == 3
        assert report is None
        assert err == (
            "error: geometric rounding needs about 2.2e30 grid steps,"
            f" above the bound {algorithms.MAX_GRID_STEPS}; use a larger epsilon\n"
        )

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
        assert err.startswith("error:")

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

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        inst = Instance(weights=(F(1), F(2), F(3)), delays=(F(1), F(2)))
        path = write_instance(tmp_path, inst)
        monkeypatch.setenv("SELFISH_ASSIGN_BUDGET", "7")
        code, _, _ = run_cli(capsys, "ratio", path)
        assert code == 4
        monkeypatch.setenv("SELFISH_ASSIGN_BUDGET", "8")
        code, _, _ = run_cli(capsys, "ratio", path)
        assert code == 0


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
# assignment file content or None for no file, environment, exit code).
# {instance} has 2 tasks on 2 resources; {wide} has five distinct weights
# and five distinct delays, so no exact algorithm applies.
FAILURES = {
    "assignment-missing": (["verify", "{instance}", "{assignment}"], None, {}, 2),
    "assignment-invalid-json": (["verify", "{instance}", "{assignment}"], "[1,", {}, 2),
    "assignment-not-array": (["verify", "{instance}", "{assignment}"], '{"a": 1}', {}, 2),
    "assignment-entry-zero": (["verify", "{instance}", "{assignment}"], "[0, 1]", {}, 2),
    "assignment-entry-true": (["verify", "{instance}", "{assignment}"], "[true, 1]", {}, 2),
    "assignment-beyond-m": (["verify", "{instance}", "{assignment}"], "[1, 3]", {}, 3),
    "budget-env-not-int": (["ratio", "{instance}"], None, {"SELFISH_ASSIGN_BUDGET": "abc"}, 2),
    "budget-env-zero": (["ratio", "{instance}"], None, {"SELFISH_ASSIGN_BUDGET": "0"}, 2),
    "solve-epsilon-not-rational": (["solve", "{instance}", "--epsilon", "abc"], None, {}, 2),
    "solve-epsilon-zero": (["solve", "{instance}", "--epsilon", "0"], None, {}, 3),
    "gen-epsilon-negative": (["gen", "uniform-gap", "--epsilon", "-1"], None, {}, 3),
    "gen-big-nash-without-n": (["gen", "big-nash"], None, {}, 3),
    "gen-random-without-ranges": (["gen", "random", "--n", "2", "--m", "2"], None, {}, 3),
    "gen-random-range-dash": (
        ["gen", "random", "--n", "2", "--m", "2", "--weights", "1-2", "--delays", "1:2"], None, {}, 2),
    "gen-random-range-not-rational": (
        ["gen", "random", "--n", "2", "--m", "2", "--weights", "a:b", "--delays", "1:2"], None, {}, 2),
    "solve-no-exact-algorithm": (["solve", "{wide}"], None, {}, 3),
    "gen-out-missing-directory": (["gen", "big-nash", "--n", "3", "--out", "{missing}"], None, {}, 2),
}


class TestFailurePaths:
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_exit_code_and_one_error_line(self, case, tmp_path, capsys, monkeypatch):
        argv, content, env, expected = FAILURES[case]
        assignment = tmp_path / "assignment.json"
        if content is not None:
            assignment.write_text(content, encoding="utf-8")
        wide = Instance(weights=tuple(map(F, range(1, 6))), delays=tuple(map(F, range(1, 6))))
        paths = {
            "instance": write_instance(tmp_path, gen_uniform_gap(F(1, 10))),
            "wide": write_instance(tmp_path, wide, "wide.json"),
            "assignment": str(assignment),
            "missing": str(tmp_path / "missing" / "out.json"),
        }
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, report, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == expected
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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


class TestClosedStdout:
    def test_reader_closing_the_pipe_exits_1_without_traceback(self, tmp_path):
        # the report lists 20000 resource indices, far more than a pipe buffers
        path = write_instance(tmp_path, Instance(weights=(F(1),) * 20000, delays=(F(1), F(2))))
        src = str(Path(selfish_assign.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        process = subprocess.Popen(
            [sys.executable, "-m", "selfish_assign", "solve", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert process.stdout.read(200).startswith(b"{")
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=60) == 1
        assert b"Traceback" not in err
