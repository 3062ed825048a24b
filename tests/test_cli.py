import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import aqc, cli, pairing, tae, turing, zeno
from hyperlab.errors import DomainError, ValidationError, shown

from conftest import contents_doc, self_loop_doc, successor_doc

X_MINUS_2 = {"vars": 1, "terms": [[1, [1]], [-2, [0]]]}


def src_env() -> dict:
    """The environment of a child interpreter that imports hyperlab from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


class TestDispatch:
    def test_zeno_time_example(self):
        status, out, err = run_cli(["zeno", "time", "--n", "3"])
        assert status == 0 and err == ""
        report = json.loads(out)
        assert report["seconds"] == 1.875
        assert report["seconds_exact"] == "15/8"

    def test_zeno_budget_reports_both_indices(self):
        status, out, _ = run_cli(["zeno", "budget", "--seconds", "1.875"])
        report = json.loads(out)
        assert report["largest_step_index"] == 3
        status, out, _ = run_cli(["zeno", "budget", "--seconds", "64"])
        report = json.loads(out)
        assert report["largest_step_index"] == "unbounded"
        assert report["decelerated_step_index"] == 6

    def test_zeno_lamp(self):
        status, out, _ = run_cli(["zeno", "lamp", "--t", "0.5"])
        assert json.loads(out)["state"] == "on"
        status, out, _ = run_cli(["zeno", "lamp", "--t", "2"])
        assert json.loads(out)["state"] == "undefined"

    def test_zeno_halting(self, write_json):
        path = write_json("machine.json", successor_doc())
        status, out, _ = run_cli(["zeno", "halting", path, "--input", "11", "--fuel", "100"])
        report = json.loads(out)
        assert report["flag"] == 1 and report["elapsed_seconds"] < 2
        # a flag of 0 would be no non-halting proof: the report carries that caveat
        loop = write_json("loop.json", self_loop_doc())
        report = json.loads(run_cli(["zeno", "halting", loop, "--fuel", "1000"])[1])
        assert report["flag"] == 0 and report["fuel_bounded"] is True

    def test_zeno_halting_and_tm_run_share_the_default_fuel(self, write_json):
        path = write_json("loop.json", self_loop_doc())
        commands = [("zeno", "halting"), ("tm", "run")]
        fuel = [dict((name, default) for name, _, default in cli.COMMANDS[command][2])["--fuel"]
                for command in commands]
        steps = [json.loads(run_cli([*command, path])[1])["steps"] for command in commands]
        assert fuel == steps == [10**6] * 2

    def test_tm_run(self, write_json):
        path = write_json("machine.json", successor_doc())
        status, out, _ = run_cli(["tm", "run", path, "--input", "111", "--fuel", "50"])
        report = json.loads(out)
        assert report["outcome"] == "halted"
        assert report["tape"] == "1111"

    def test_tm_run_reports_every_tape_of_a_multi_tape_machine(self, write_json):
        # the machine blanks tape 0's input and copies it onto tape 1, then marks
        # both with x; a one-tape report has no "tapes" key
        two_tape = Path(__file__).resolve().parent / "golden" / "two_tape.json"
        for trace in ([], ["--trace"]):
            report = json.loads(run_cli(["tm", "run", str(two_tape), "--input", "111",
                                         *trace])[1])
            assert report["tape"] == "x" and report["tapes"] == ["x", "111x"]
        path = write_json("machine.json", successor_doc())
        report = json.loads(run_cli(["tm", "run", path, "--input", "111"])[1])
        assert "tapes" not in report

    def test_tm_run_with_trace(self, write_json):
        path = write_json("machine.json", successor_doc())
        status, out, _ = run_cli(["tm", "run", path, "--input", "1", "--trace"])
        report = json.loads(out)
        assert [c["state"] for c in report["trace"]][-1] == "done"

    @pytest.mark.parametrize("command", [["tm", "run"], ["zeno", "halting"]], ids=" ".join)
    def test_an_input_states_declaration_changes_no_report(self, write_json, command):
        # a key no command reads is ignored whole, like any other unknown key,
        # so a malformed oracle declaration is no error
        declarations = [{}, {"input_states": {"request": "scan", "resume": "done"}},
                        {"oracle_states": {"ask": "scan", "yes": "done", "no": "done"}},
                        {"oracle_states": ["scan"]}]
        reports = [run_cli([*command, write_json(f"machine{i}.json", successor_doc() | change),
                            "--input", "11", "--fuel", "100"])
                   for i, change in enumerate(declarations)]
        assert reports[0][0] == 0 and reports == reports[:1] * len(declarations)

    def test_tae_goldbach(self):
        status, out, _ = run_cli(["tae", "goldbach", "--horizon", "100"])
        report = json.loads(out)
        assert report["final_verdict"] is True and report["mind_changes"] == 0

    def test_tae_ashby_with_simulation(self):
        status, out, _ = run_cli([
            "tae", "ashby", "--wheels", "4", "--p", "0.5", "--strategy", "2",
            "--simulate", "--trials", "2000", "--seed", "5"])
        report = json.loads(out)
        assert report["expected_seconds"] == 8.0
        assert abs(report["simulated_mean_seconds"] - 8.0) \
            <= 4 * report["simulated_standard_error"]
        assert report["quoted_reference"]["asserted"] is False

    def test_tae_bogosort(self):
        status, out, _ = run_cli(["tae", "bogosort", "--len", "4", "--seed", "3"])
        report = json.loads(out)
        assert sorted(report["input"]) == report["sorted"]
        assert report["tries"] >= 1

    def test_bogosort_shuffles_independently_of_its_input(self):
        # an unsorted pair is sorted by the first shuffle half of the time;
        # shuffles that replayed the input's own draw sorted it every time
        unsorted = second_try = 0
        for seed in range(200):
            _, out, _ = run_cli(["tae", "bogosort", "--len", "2", "--seed", str(seed)])
            report = json.loads(out)
            if report["input"] != [0, 1]:
                unsorted += 1
                second_try += report["tries"] == 2
        assert unsorted > 50
        assert 0.3 <= second_try / unsorted <= 0.7

    def test_enum_value_that_underflows_prints_as_zero_beside_its_exact_value(self):
        index = pairing.pair_index(1, 400)
        status, out, _ = run_cli(["enum", "decode", "--index", str(index)])
        report = json.loads(out)
        assert status == 0 and (report["a"], report["b"]) == (1, 400)
        assert report["value"] == 0 and report["value_exact"] == "1/1" + "0" * 400

    def test_limits_report(self):
        status, out, _ = run_cli(["limits", "--symbols", "8", "--power", "1"])
        report = json.loads(out)
        assert report["max_frequency_from_alphabet_hz"] > 0
        assert report["relative_gap"] < 0.005

    def test_enum_commands(self):
        status, out, _ = run_cli(["enum", "decode", "--index", "4"])
        assert json.loads(out)["a"] == 1
        status, out, _ = run_cli(["enum", "encode", "--a", "1", "--b", "1"])
        assert json.loads(out)["index"] == 4
        status, out, _ = run_cli(["enum", "list", "--count", "5"])
        assert len(json.loads(out)) == 5

    def test_aqc_solve(self, write_json):
        path = write_json("poly.json", X_MINUS_2)
        status, out, _ = run_cli([
            "aqc", "solve", path, "--cutoff", "4", "--time", "50", "--dt", "0.01",
            "--shots", "500", "--seed", "2"])
        report = json.loads(out)
        assert report["verdict"] == "solvable-with-witness"
        assert report["witness"] == [2]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zeno_time_beyond_the_int_digit_limit(self, fmt):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{2**15001 - 1}/{2**15000}"
        finally:
            sys.set_int_max_str_digits(limit)
        status, out, err = run_cli(["--format", fmt, "zeno", "time", "--n", "15000"])
        assert status == 0 and err == ""
        if fmt == "json":
            report = json.loads(out)
        else:
            [report] = csv.DictReader(io.StringIO(out))
        assert report["seconds_exact"] == expected
        assert sys.get_int_max_str_digits() == limit

    def test_aqc_oracle_only(self, write_json):
        path = write_json("poly.json", X_MINUS_2)
        status, out, _ = run_cli(["aqc", "solve", path, "--cutoff", "4", "--oracle-only"])
        report = json.loads(out)
        assert report["ground_energy"] == 0
        assert report["minimizers"] == [[2]]

    def test_no_option_is_defined_both_globally_and_on_a_subcommand(self):
        # one way per value: a flag set in two places can disagree with itself
        top = {name for name, _, _ in cli.GLOBAL_OPTIONS}
        twice = {f"{' '.join(filter(None, key))} {name}"
                 for key, (_, _, arguments) in cli.COMMANDS.items()
                 for name, _, _ in arguments if name in top}
        assert not twice


# the sweep of x - 2 at cutoff 4, dt = 0.01, as recorded before the sweep moved
# onto the level path: (T, ground overlap, norm drift, steps)
OVERLAP_SWEEP_X_MINUS_2 = [
    (1, 0.22980919326586657, 4.4408920985006262e-16, 100),
    (5, 0.49405152036401379, 2.4424906541753444e-15, 500),
    (25, 0.99158021915623484, 2.4424906541753444e-15, 2500),
    (125, 0.99982138413013222, 4.6629367034256575e-15, 12500),
]


class TestExperiments:
    """`aqc sweep` and `tae wheels`, the two experiments the command table runs."""

    def sweep(self, path, times) -> dict:
        status, out, err = run_cli(["aqc", "sweep", path, "--cutoff", "4", "--times", times,
                                    "--dt", "0.01"])
        assert status == 0, err
        return json.loads(out)

    def test_overlap_sweep_runs_and_trends_upward(self, write_json):
        report = self.sweep(write_json("poly.json", X_MINUS_2), "1,25")
        assert report["exact_ground_energy"] == 0
        overlaps = [row["ground_overlap"] for row in report["sweep"]]
        assert overlaps[1] > overlaps[0]

    def test_overlap_sweep_keeps_its_recorded_rows(self, write_json):
        report = self.sweep(write_json("poly.json", X_MINUS_2), "1,5,25,125")
        assert {k: v for k, v in report.items() if k != "sweep"} == {
            "command": "aqc sweep", "cutoff": 4, "dt": 0.01, "exact_ground_energy": 0,
            "exact_minimizers": [[2]]}
        assert len(report["sweep"]) == len(OVERLAP_SWEEP_X_MINUS_2)
        for row, (total_time, overlap, drift, steps) in zip(report["sweep"],
                                                            OVERLAP_SWEEP_X_MINUS_2):
            assert set(row) == {"total_time", "ground_overlap", "norm_drift", "steps"}
            assert row["total_time"] == total_time and row["steps"] == steps
            assert abs(row["ground_overlap"] - overlap) <= 1e-12
            assert abs(row["norm_drift"] - drift) <= 1e-14

    def test_overlap_sweep_sums_a_degenerate_ground_level(self, write_json):
        # x**2 - 3x + 2 = (x - 1)(x - 2) vanishes at both 1 and 2
        path = write_json("two_roots.json", {"vars": 1, "terms": [[1, [2]], [-3, [1]], [2, [0]]]})
        report = self.sweep(path, "1,25")
        assert report["exact_ground_energy"] == 0
        assert report["exact_minimizers"] == [[1], [2]]
        overlaps = [row["ground_overlap"] for row in report["sweep"]]
        assert overlaps[1] > overlaps[0]
        assert overlaps[1] >= 0.9

    def test_strategy_choices_are_the_strategies_an_experiment_takes(self):
        choices = next(convert for name, convert, _ in cli.COMMANDS[("tae", "ashby")][2]
                       if name == "--strategy")

        def taken(strategy):
            try:
                tae.WheelExperiment(2, 0.5, strategy)
            except DomainError:
                return False
            return True

        assert [strategy for strategy in range(-8, 9) if taken(strategy)] == list(choices)

    @pytest.mark.parametrize("argv, rows", [
        (["--wheels", "2,4", "--trials", "2000", "--seed", "1"], ["2,0.5,", "4,0.5,"]),
        (["--wheels", "2,4", "--trials", "200"], ["2,0.5,", "4,0.5,"]),
        (["--wheels", "8", "--trials", "200", "--seed", "1"], ["8,0.5,"]),
    ], ids=["two-counts", "two-counts-seed-0", "one-count"])
    def test_wheel_table_has_a_row_per_wheel_count(self, argv, rows):
        status, out, err = run_cli(["--format", "csv", "tae", "wheels", *argv])
        assert status == 0, err
        header, *lines = out.splitlines()
        assert header.startswith("wheels,p,case1_analytic")
        assert len(lines) == len(rows)
        assert all(line.startswith(row) for line, row in zip(lines, rows))

    def test_wheel_table_prints_json_unless_csv_is_asked_for(self):
        status, out, _ = run_cli(["tae", "wheels", "--wheels", "3", "--trials", "200"])
        assert status == 0
        [row] = json.loads(out)
        assert (row["wheels"], row["p"], row["case1_analytic"]) == (3, 0.5, 8)

    def test_wheel_trials_are_budgeted_over_the_whole_list(self, monkeypatch):
        monkeypatch.setattr(tae, "TRIAL_BUDGET", 1000)
        assert run_cli(["tae", "wheels", "--wheels", "2", "--trials", "600"])[0] == 0
        simulated = []
        monkeypatch.setattr(tae, "ashby_simulate", lambda *a: simulated.append(a))
        status, out, err = run_cli(["tae", "wheels", "--wheels", "2,2", "--trials", "600"])
        assert status == 1 and out == "" and not simulated
        assert json.loads(err) == {"error": "resource-error", "message":
                                   "2 rows x 600 trials and the times of their laws are past "
                                   "the budget of 1000"}

    @pytest.mark.parametrize("p, wheels, trials, error, message", [
        # 29 rows whose two laws span 350,196 times each, about 0.14 s a row
        ("0.0004", ",".join(["3"] * 29), "2", "resource-error",
         "29 rows x 2 trials and the times of their laws are past the budget of 10000000"),
        # rows of 97 times whose fixed cost is counted as ROW_TIMES more: past 50,761
        # rows, which take about 5 s, a list is refused before its first row
        ("0.999999", ",".join(["1"] * 103092), "2", "resource-error",
         "103092 rows x 2 trials and the times of their laws are past the budget of 10000000"),
        # a second row whose one-at-a-time law alone is past CELL_BUDGET
        ("0.99999999", "2,1000000000", "2", "resource-error",
         "the law of one trial spans 297920 times, past the budget of 262144"),
        # a row is refused as its simulation would refuse it, in the same order:
        # a law past CELL_BUDGET, but a standard error needs two trials first
        ("0.0004", "3", "1", "domain-error", "a standard error needs at least two trials"),
        # all-or-nothing's 2**57 spins come before the laws, whose bounds pass the float range
        ("1e-310", "2", "2", "domain-error", "a simulated trial expects 2**2.06e+03 spins"),
        ("0.001", str(10**306), "2", "domain-error",
         "a simulated trial expects 2**9.97e+306 spins"),
        ("0.01", "2,100000", "2", "domain-error", "a simulated trial expects 2**6.64e+05 spins"),
    ], ids=["rows-of-long-laws", "rows-of-short-laws", "a-law-past-its-budget", "one-trial",
            "subnormal-p", "wheels-near-the-float-range", "a-second-row-past-2-to-the-57-spins"])
    def test_wheel_laws_are_budgeted_before_the_first_row(self, monkeypatch, p, wheels, trials,
                                                          error, message):
        simulated = []
        monkeypatch.setattr(tae, "ashby_simulate", lambda *a: simulated.append(a))
        start = time.monotonic()
        status, out, err = run_cli(["tae", "wheels", "--p", p, "--wheels", wheels,
                                    "--trials", trials])
        assert time.monotonic() - start < 1.0
        assert status == 1 and out == "" and not simulated
        assert json.loads(err)["error"] == error
        assert json.loads(err)["message"].startswith(message)

    def test_each_wheel_row_is_charged_its_fixed_cost(self, monkeypatch):
        # one wheel at p = 0.999999: 2 trials, laws of 95 times, and ROW_TIMES
        row = 2 + 95 + tae.ROW_TIMES
        argv = ["tae", "wheels", "--p", "0.999999", "--wheels", "1,1", "--trials", "2"]
        monkeypatch.setattr(tae, "TRIAL_BUDGET", 2 * row)
        assert run_cli(argv)[0] == 0
        monkeypatch.setattr(tae, "TRIAL_BUDGET", 2 * row - 1)
        status, out, err = run_cli(argv)
        assert status == 1 and out == "" and json.loads(err)["error"] == "resource-error"

    def test_sweep_steps_are_budgeted_over_the_whole_list(self, write_json, monkeypatch):
        path = write_json("poly.json", X_MINUS_2)
        monkeypatch.setattr(aqc, "STEP_BUDGET", 1000)
        assert len(self.sweep(path, "6")["sweep"]) == 1  # 600 steps
        scanned = []
        monkeypatch.setattr(aqc, "scan_levels", lambda *a: scanned.append(a))
        status, out, err = run_cli(["aqc", "sweep", path, "--times", "6,6", "--dt", "0.01"])
        assert status == 1 and out == "" and not scanned
        assert json.loads(err) == {"error": "resource-error", "message":
                                   "1200 steps over the sweep are past the budget of 1000"}

    def test_sweep_levels_are_budgeted_over_the_whole_list(self, write_json, monkeypatch):
        # x - 2 at cutoff 4 has the 3 levels 0, 1 and 4
        path = write_json("poly.json", X_MINUS_2)
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 900)
        assert len(self.sweep(path, "1,2")["sweep"]) == 2  # 3 levels x 300 steps
        assert len(self.sweep(path, "2.01")["sweep"]) == 1  # 3 levels x 201 steps
        status, out, err = run_cli(["aqc", "sweep", path, "--times", "1,2.01", "--dt", "0.01"])
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "resource-error"
        assert "more than 2 distinct levels" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv, kind", [
        (["tae", "wheels", "--wheels", "2", "--trials", "20000000"], "resource-error"),
        # 8 variables at cutoff 9: 10**8 lattice points, refused before the scan
        (["aqc", "sweep", "{big}", "--cutoff", "9"], "resource-error"),
        # 5000 variables: refused before the lattice's 5,001-digit size is computed
        (["aqc", "sweep", "{wide}", "--cutoff", "9"], "resource-error"),
        # D = 0 at cutoff 200,000: a ground level of 200,001 points, more than the
        # exact oracle lists
        (["aqc", "sweep", "{flat}", "--cutoff", "200000"], "resource-error"),
        (["aqc", "sweep", "{missing}"], "io-error"),
        # JSON the decoder cannot turn into values
        (["aqc", "sweep", "{long_integer}"], "parse-error"),
        (["aqc", "sweep", "{deep}"], "parse-error"),
        (["tm", "run", "{machine}", "--fuel", "0"], "domain-error"),
        (["tae", "bogosort", "--len", "3", "--max-tries", "0"], "domain-error"),
    ], ids=["trials-past-budget", "lattice-past-budget", "variables-past-budget",
            "minimisers-past-budget", "missing-document", "integer-past-digit-limit",
            "nesting-past-recursion-limit", "no-fuel", "no-tries"])
    def test_failures_are_structured_json(self, tmp_path, argv, kind):
        paths = {key: tmp_path / f"{key}.json" for key in
                 ("big", "wide", "flat", "missing", "long_integer", "deep", "machine")}
        paths["machine"].write_text(json.dumps(successor_doc()))
        paths["big"].write_text(json.dumps({"vars": 8, "terms": [[1, [1] * 8], [-1, [0] * 8]]}))
        paths["wide"].write_text(json.dumps({"vars": 5000, "terms": []}))
        paths["flat"].write_text(json.dumps({"vars": 1, "terms": []}))
        paths["long_integer"].write_text('{"vars": 1, "terms": [[' + "9" * 5000 + ", [1]]]}")
        paths["deep"].write_text("[" * 10**5 + "]" * 10**5)
        start = time.monotonic()
        status, out, err = run_cli([a.format(**paths) for a in argv])
        assert time.monotonic() - start < 10.0
        assert status == 1 and out == ""
        assert "Traceback" not in err
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == kind


class TestErrors:
    def test_domain_error_exits_one_with_structured_stderr(self):
        status, out, err = run_cli(["limits", "--symbols", "0"])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "domain-error"

    def test_missing_file_exits_one(self):
        status, _, err = run_cli(["aqc", "solve", "does-not-exist.json", "--cutoff", "2"])
        assert status == 1
        assert json.loads(err)["error"] == "io-error"

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["zeno", "time", "--bogus", "3"])
        assert exit_info.value.code == 2

    def test_invalid_machine_document(self, write_json):
        path = write_json("machine.json", {"blank": "_"})
        status, _, err = run_cli(["tm", "run", path])
        assert status == 1
        assert json.loads(err)["error"] == "validation-error"

    @pytest.mark.parametrize("doc", [
        {"vars": 1, "terms": 5},
        {"vars": 1, "terms": [[1, 5]]},
        {"vars": "x", "terms": []},
        {"vars": 1, "terms": [5]},
        {"vars": 1, "terms": [[1.5, [1]]]},
        {"vars": 1, "terms": [[1, ["a"]]]},
        {"vars": None, "terms": []},
        {"vars": 1, "terms": [[1, [-1]]]},
        [1, 2],
    ], ids=repr)
    def test_malformed_polynomial_document(self, write_json, doc):
        path = write_json("poly.json", doc)
        status, out, err = run_cli(["aqc", "solve", path, "--cutoff", "2"])
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "validation-error"

    def test_oversized_lattice_is_refused_before_any_work(self, write_json):
        # 8 variables at cutoff 9 is a lattice of 10**8 points
        doc = {"vars": 8, "terms": [[1, [1] * 8], [-1, [0] * 8]]}
        path = write_json("poly.json", doc)
        start = time.monotonic()
        status, out, err = run_cli(["aqc", "solve", path, "--cutoff", "9",
                                    "--time", "1", "--dt", "0.01"])
        assert time.monotonic() - start < 2.0
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "resource-error"

    @pytest.mark.parametrize("argv", [
        ["tm", "run", "{loop}", "--fuel", "1000000000"],
        ["tm", "run", "{loop}", "--fuel", "10000001", "--trace"],
        # a 20-character symbol at the fuel budget: 2 * 10**8 characters of tape text
        ["tm", "run", "{wide}", "--fuel", "10000000"],
        ["zeno", "halting", "{loop}", "--fuel", "1000000000"],
        ["zeno", "halting", "{loop}", "--fuel", "1000001"],
        ["zeno", "time", "--n", "1000001"],
        ["tae", "goldbach", "--horizon", "1000002"],
        ["enum", "list", "--count", "200001"],
        ["enum", "decode", "--index", str(10**400)],
        ["tae", "ashby", "--wheels", "10", "--p", "1e-7", "--strategy", "3"],
        ["tae", "ashby", "--wheels", "2", "--p", "0.5", "--strategy", "2", "--simulate",
         "--trials", str(10**12)],
        # the law of one trial spans about 470,000 and 380,000 times
        ["tae", "ashby", "--wheels", "10", "--p", "1e-4", "--strategy", "3", "--simulate",
         "--trials", str(10**7)],
        ["tae", "ashby", "--wheels", str(10**8), "--p", "0.5", "--strategy", "2",
         "--simulate", "--trials", "2"],
        ["aqc", "solve", "{poly}", "--cutoff", "4", "--time", "1e12"],
        ["aqc", "solve", "{poly}", "--cutoff", "4", "--time", "1e300", "--dt", "1e-300"],
        ["aqc", "solve", "{long}", "--cutoff", "6", "--oracle-only"],
        ["aqc", "solve", "{long}", "--cutoff", "6"],
        # 5000 and 10**7 variables, refused before (cutoff + 1)**k is computed:
        # printing 10**5000 raised, and computing 3**(10**7) took 7-9 s
        ["aqc", "solve", "{many}", "--cutoff", "9"],
        ["aqc", "solve", "{many}", "--cutoff", "9", "--oracle-only"],
        ["aqc", "solve", "{vast}", "--cutoff", "2"],
        # 19 levels x 10**7 steps
        ["aqc", "solve", "{poly}", "--cutoff", "20", "--time", "10000", "--dt", "0.001"],
    ], ids=" ".join)
    def test_budgets_are_refused_before_any_work(self, write_json, argv):
        loop = write_json("loop.json", self_loop_doc())
        poly = write_json("poly.json", X_MINUS_2)
        # x**(10**7) - 2: values of 3 * 10**7 bits at cutoff 6
        long = write_json("long.json", {"vars": 1, "terms": [[1, [10**7]], [-2, [0]]]})
        wide_doc = self_loop_doc()
        wide_doc["alphabet"].append("w" * 20)
        wide = write_json("wide.json", wide_doc)
        docs = dict(loop=loop, poly=poly, long=long, wide=wide,
                    many=write_json("many.json", {"vars": 5000, "terms": []}),
                    vast=write_json("vast.json", {"vars": 10**7, "terms": []}))
        start = time.monotonic()
        status, out, err = run_cli([arg.format(**docs) for arg in argv])
        assert time.monotonic() - start < 1.0
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "resource-error"
        assert "budget" in payload["message"]

    # one past each budget that a single argument meets; the first even
    # horizon past the Goldbach budget is two past it
    @pytest.mark.parametrize("argv, kind, budget", [
        (["tm", "run", "{loop}", "--fuel", turing.FUEL_BUDGET + 1], "resource-error",
         turing.FUEL_BUDGET),
        (["zeno", "halting", "{loop}", "--fuel", zeno.STEP_INDEX_BUDGET + 1], "resource-error",
         zeno.STEP_INDEX_BUDGET),
        (["zeno", "time", "--n", zeno.STEP_INDEX_BUDGET + 1], "resource-error",
         zeno.STEP_INDEX_BUDGET),
        (["tae", "goldbach", "--horizon", tae.GOLDBACH_HORIZON_BUDGET + 2], "resource-error",
         tae.GOLDBACH_HORIZON_BUDGET),
        (["tae", "bogosort", "--len", tae.MAX_BOGOSORT_LEN + 1], "resource-error",
         tae.MAX_BOGOSORT_LEN),
        (["tae", "ashby", "--wheels", "2", "--p", "0.5", "--strategy", "1", "--simulate",
          "--trials", tae.TRIAL_BUDGET + 1], "resource-error", tae.TRIAL_BUDGET),
        (["enum", "list", "--count", pairing.ENUMERATION_BUDGET + 1], "resource-error",
         pairing.ENUMERATION_BUDGET),
        (["aqc", "solve", "{poly}", "--cutoff", "4", "--shots", aqc.MAX_SHOTS + 1],
         "domain-error", aqc.MAX_SHOTS),
    ], ids=["tm-run-fuel", "zeno-halting-fuel", "zeno-time-n", "tae-goldbach-horizon",
            "tae-bogosort-len", "tae-ashby-trials", "enum-list-count", "aqc-solve-shots"])
    def test_one_past_a_single_argument_budget_is_refused(self, write_json, argv, kind, budget):
        docs = {"loop": write_json("loop.json", self_loop_doc()),
                "poly": write_json("poly.json", X_MINUS_2)}
        start = time.monotonic()
        status, out, err = run_cli([str(arg).format(**docs) for arg in argv])
        assert time.monotonic() - start < 2.0
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == kind
        assert re.search(rf"\b{budget}\b", payload["message"]), payload["message"]

    def test_tapes_past_their_budget_end_in_resource_error(self, write_json):
        path = write_json("machine.json", successor_doc() | {
            "tapes": turing.TAPE_BUDGET + 1, "transitions": []})
        status, out, err = run_cli(["tm", "run", path])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "resource-error"
        assert "budget" in payload["message"]

    def test_cell_contents_past_their_budget_end_in_resource_error(self, write_json):
        status, out, err = run_cli(["tm", "run", write_json("machine.json", contents_doc(17))])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "resource-error"
        assert "257 contents of a cell are past the budget of 256" in payload["message"]

    @pytest.mark.parametrize("tapes", [1, 2, turing.TAPE_BUDGET])
    def test_fuel_times_tapes_past_the_fuel_budget_ends_in_resource_error(self, write_json,
                                                                          tapes):
        # the machine marks every tape and halts after one step, so only a
        # check made before the first step can refuse it
        path = write_json("machine.json", {
            "blank": "_", "alphabet": ["_", "1"], "states": ["go", "done"], "initial": "go",
            "finals": ["done"], "tapes": tapes, "transitions": [
                {"from": "go", "read": ["_"] * tapes, "to": "done", "write": ["1"] * tapes,
                 "move": "n"}]})
        # fuel counts steps, and the tape text every tape may reach counts tapes
        fuel = min(turing.FUEL_BUDGET, turing.TAPE_TEXT_BUDGET // tapes)
        status, out, _ = run_cli(["tm", "run", path, "--fuel", str(fuel)])
        assert status == 0 and json.loads(out)["outcome"] == "halted"
        status, out, err = run_cli(["tm", "run", path, "--fuel", str(fuel + 1)])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "resource-error"
        if fuel == turing.FUEL_BUDGET:  # 1 and 2 tapes
            assert payload["message"] == (
                f"fuel of {fuel + 1} steps is past the budget of {turing.FUEL_BUDGET}")
        else:
            assert payload["message"].endswith(
                f"characters of tape text, past the budget of {turing.TAPE_TEXT_BUDGET}")

    def test_minimisers_past_their_budget_end_in_resource_error(self, write_json):
        # D = 0 everywhere: each of the MINIMIZER_BUDGET + 1 lattice points is a
        # minimiser, which only the scan finds out
        path = write_json("poly.json", {"vars": 1, "terms": []})
        status, out, err = run_cli(["aqc", "solve", path, "--cutoff",
                                    str(aqc.MINIMIZER_BUDGET), "--oracle-only"])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "resource-error"
        assert "budget" in payload["message"]

    def test_trace_past_its_text_budget_writes_nothing(self, write_json, tmp_path,
                                                        monkeypatch):
        # 100 marks keep about 100 characters a snapshot, 10**4 over 101 snapshots
        monkeypatch.setattr(turing, "TRACE_TEXT_BUDGET", 1000)
        path = write_json("machine.json", successor_doc())
        target = tmp_path / "trace.json"
        status, out, err = run_cli(["--output", str(target), "tm", "run", path,
                                    "--input", "1" * 100, "--trace"])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "resource-error"
        assert "budget" in payload["message"]
        assert not target.exists()

    @pytest.mark.parametrize("key", ["from", "to", "read", "write", "move"])
    def test_transition_missing_a_key(self, write_json, key):
        doc = successor_doc()
        del doc["transitions"][1][key]
        path = write_json("machine.json", doc)
        status, out, err = run_cli(["tm", "run", path, "--input", "1"])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation-error"
        assert repr(key) in payload["message"]

    @pytest.mark.parametrize("rule", [["scan", "1"], "scan", 7,
                                      {"from": "scan", "read": 1, "to": "done",
                                       "write": "1", "move": "n"},
                                      {"from": "scan", "read": "_", "to": "done",
                                       "write": "1", "move": "x"},
                                      {"from": "scan", "read": ["1", "_"], "to": "done",
                                       "write": "1", "move": "n"}], ids=repr)
    def test_malformed_transition(self, write_json, rule):
        doc = successor_doc()
        doc["transitions"].append(rule)
        path = write_json("machine.json", doc)
        status, out, err = run_cli(["tm", "run", path])
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "validation-error"

    @pytest.mark.parametrize("change", [
        {"transitions": 5},
        {"alphabet": "_1"},
        {"tapes": "two"},
        {"one_sided": "false"},
        {"one_sided": 0.5},
        {"tapes": 0},
        {"finals": ["nowhere"]},
    ], ids=repr)
    def test_malformed_machine_document(self, write_json, change):
        path = write_json("machine.json", successor_doc() | change)
        status, out, err = run_cli(["tm", "run", path])
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "validation-error"

    def test_machine_document_that_is_not_an_object(self, write_json):
        path = write_json("machine.json", [successor_doc()])
        status, _, err = run_cli(["zeno", "halting", path])
        assert status == 1
        assert json.loads(err)["error"] == "validation-error"

    def test_document_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "machine.json"
        path.write_bytes(b"\xff\xfe{}")
        status, _, err = run_cli(["tm", "run", str(path)])
        assert status == 1
        assert json.loads(err)["error"] == "parse-error"

    # JSON the decoder reads but cannot turn into values: an integer literal
    # past the interpreter's 4300-digit limit, and arrays nested past its
    # recursion limit
    @pytest.mark.parametrize("command, text", [
        ("tm run", json.dumps(successor_doc())[:-1] + ', "comment": ' + "7" * 5000 + "}"),
        ("zeno halting", "[" * 10**5 + "]" * 10**5),
        ("tm run", "[" * 10**5 + "]" * 10**5),
        ("aqc solve", '{"vars": 1, "terms": [[' + "9" * 5000 + ", [1]]]}"),
        ("aqc solve", "[" * 10**5 + "]" * 10**5),
    ], ids=["tm-run-long-integer", "zeno-halting-deep", "tm-run-deep", "aqc-solve-long-integer",
            "aqc-solve-deep"])
    def test_document_without_values_is_a_parse_error(self, tmp_path, command, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        cutoff = ["--cutoff", "2"] if command == "aqc solve" else []
        start = time.monotonic()
        status, out, err = run_cli([*command.split(), str(path), *cutoff])
        assert time.monotonic() - start < 1.0
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("command", ["tm run", "aqc solve"])
    def test_long_integer_literal_is_refused_by_its_digit_count(self, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_text('{"vars": 1, "terms": [[' + "9" * 5000 + ", [1]]]}")
        cutoff = ["--cutoff", "2"] if command == "aqc solve" else []
        status, out, err = run_cli([*command.split(), str(path), *cutoff])
        assert status == 1 and out == "" and len(err) < 1024
        assert json.loads(err) == {
            "error": "parse-error",
            "message": f"integer literal longer than {sys.get_int_max_str_digits()} digits"}

    # a message quotes a bounded prefix of a long value, not the value
    @pytest.mark.parametrize("command, doc", [
        ("aqc solve", {"vars": 1, "terms": [[1, list(range(200_000))]]}),
        ("aqc solve", [list(range(200_000))]),
        ("tm run", list(range(200_000))),
        ("tm run", successor_doc() | {"transitions": [
            {"from": "scan", "read": "x" * 100_000, "to": "done", "write": "1", "move": "n"}]}),
        ("tm run", successor_doc() | {"initial": "q" * 100_000}),
    ], ids=["exponents", "polynomial-array", "machine-array", "symbol", "state"])
    def test_validation_message_stays_short_on_a_long_value(self, write_json, command, doc):
        path = write_json("doc.json", doc)
        cutoff = ["--cutoff", "2"] if command == "aqc solve" else []
        start = time.monotonic()
        status, out, err = run_cli([*command.split(), path, *cutoff])
        assert time.monotonic() - start < 2.0
        assert status == 1 and out == "" and len(err) < 1024
        assert json.loads(err)["error"] == "validation-error"

    def test_a_document_that_is_not_an_object_is_refused_alike(self, write_json):
        path = write_json("doc.json", [1, 2])
        messages = [json.loads(run_cli(argv)[2])["message"]
                    for argv in (["tm", "run", path], ["aqc", "solve", path, "--cutoff", "2"])]
        assert messages == ["machine document must be a JSON object, got [1, 2]",
                            "polynomial document must be a JSON object, got [1, 2]"]

    # a lattice of 24 or more modes is past the budget at any cutoff from 1
    # on, so it is refused even at cutoff 0, where it has one point
    @pytest.mark.parametrize("flags", [[], ["--oracle-only"]], ids=["evolve", "oracle-only"])
    def test_one_point_lattices_are_answered_up_to_23_variables(self, write_json, flags):
        answered = write_json("23.json", {"vars": 23, "terms": [[1, [1] * 23]]})
        status, out, _ = run_cli(["aqc", "solve", answered, "--cutoff", "0", *flags])
        assert status == 0 and json.loads(out)["ground_energy"] == 0
        refused = write_json("24.json", {"vars": 24, "terms": [[1, [1] * 24]]})
        status, out, err = run_cli(["aqc", "solve", refused, "--cutoff", "0", *flags])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "resource-error"
        assert "(0+1)**24 points is past the budget" in payload["message"]

    def test_emission_error_leaves_no_output_file(self, tmp_path):
        # one trial has an infinite standard error, which no report may hold
        target = tmp_path / "report.json"
        status, out, err = run_cli(["--output", str(target), "tae", "ashby", "--wheels", "2",
                                    "--p", "0.5", "--strategy", "1", "--simulate",
                                    "--trials", "1"])
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "domain-error"
        assert list(tmp_path.iterdir()) == []

    def test_failed_emission_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("previous")
        status, _, _ = run_cli(["--output", str(target), "tae", "ashby", "--wheels", "2",
                                "--p", "0.5", "--strategy", "1", "--simulate", "--trials", "1"])
        assert status == 1
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert target.read_text() == "previous"

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        # a child that may write files of at most 100,000 bytes, ignoring the
        # signal past that limit so that the write fails with EFBIG
        target = tmp_path / "report.json"
        target.write_text("previous")
        script = (
            "import resource, signal, sys\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "from hyperlab import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        done = subprocess.run([sys.executable, "-c", script, "--output", str(target), "enum",
                               "list", "--count", "20000"],
                              env=src_env() | {"PYTHONDONTWRITEBYTECODE": "1"},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1 and done.stdout == ""
        assert json.loads(done.stderr)["error"] == "io-error"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert target.read_text() == "previous"

    def test_output_into_a_missing_directory(self, tmp_path):
        target = tmp_path / "absent" / "report.json"
        status, out, err = run_cli(["--output", str(target), "zeno", "time", "--n", "3"])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "io-error" and shown(str(target)) in payload["message"]

    def test_output_file_gets_the_usual_mode(self, tmp_path):
        target = tmp_path / "report.json"
        status, _, _ = run_cli(["--output", str(target), "zeno", "time", "--n", "3"])
        assert status == 0
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_output_keeps_the_mode_of_the_file_it_replaces(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("previous")
        target.chmod(0o600)
        status, _, _ = run_cli(["--output", str(target), "zeno", "time", "--n", "3"])
        assert status == 0
        assert target.stat().st_mode & 0o777 == 0o600
        assert json.loads(target.read_text())["seconds_exact"] == "15/8"

    def test_output_to_stdout_through_a_pipe(self):
        done = subprocess.run([sys.executable, "-m", "hyperlab.cli", "--output", "/dev/stdout",
                               "zeno", "time", "--n", "3"],
                              env=src_env() | {"PYTHONDONTWRITEBYTECODE": "1"},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["seconds_exact"] == "15/8"

    def test_output_to_the_null_device(self):
        status, out, err = run_cli(["--output", os.devnull, "zeno", "time", "--n", "3"])
        assert status == 0 and out == "" and err == ""
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_output_writes_through_a_symlink(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("previous")
        link = tmp_path / "report.json"
        link.symlink_to(real)
        status, _, _ = run_cli(["--output", str(link), "zeno", "time", "--n", "3"])
        assert status == 0
        assert link.is_symlink()
        assert json.loads(real.read_text())["seconds_exact"] == "15/8"

    def test_problem_operator_beyond_float_range(self, write_json):
        path = write_json("poly.json", {"vars": 1, "terms": [[1, [400]]]})
        status, out, err = run_cli(["aqc", "solve", path, "--cutoff", "9",
                                    "--time", "1", "--dt", "0.01"])
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "domain-error"
        status, out, _ = run_cli(["aqc", "solve", path, "--cutoff", "9", "--oracle-only"])
        assert status == 0
        assert json.loads(out)["minimizers"] == [[0]]

    @pytest.mark.parametrize("argv", [
        ["tae", "ashby", "--wheels", "2", "--p", "0.5", "--strategy", "1", "--simulate",
         "--trials", "1"],
        ["tae", "ashby", "--wheels", "2", "--p", "0.5", "--strategy", "3", "--simulate",
         "--trials", "0"],
    ], ids=" ".join)
    def test_simulation_without_a_standard_error_is_refused(self, argv):
        status, out, err = run_cli(argv)
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "domain-error" and "two trials" in payload["message"]

    def test_all_or_nothing_simulation_past_64_bit_counts(self):
        start = time.monotonic()
        status, out, err = run_cli(["tae", "ashby", "--wheels", "2000", "--p", "0.5",
                                    "--strategy", "1", "--simulate"])
        assert time.monotonic() - start < 2.0
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "domain-error"

    @pytest.mark.parametrize("strategy", ["1", "2", "3"])
    def test_wheel_count_past_the_float_range(self, strategy):
        start = time.monotonic()
        status, out, err = run_cli(["tae", "ashby", "--wheels", str(10**400), "--p", "0.5",
                                    "--strategy", strategy])
        assert time.monotonic() - start < 1.0
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "domain-error"

    def test_one_at_a_time_past_the_float_range(self):
        # N/p overflows although log2 N - log2 p is finite
        argv = ["tae", "ashby", "--wheels", str(10**308), "--p", "0.1", "--strategy", "2"]
        status, out, err = run_cli(argv)
        assert status == 0 and err == ""
        report = json.loads(out)
        assert report["expected_seconds"] is None
        assert report["expected_log2"] == math.log2(10**308) - math.log2(0.1)
        status, out, err = run_cli([*argv, "--simulate"])
        assert status == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "domain-error"
        assert "expects 2**1.03e+03 spins" in payload["message"]

    @pytest.mark.parametrize("flags", [
        ["--time", "nan"], ["--dt", "nan"], ["--time", "inf"], ["--shots", str(10**23)],
    ], ids=" ".join)
    def test_aqc_schedule_or_shots_out_of_range(self, write_json, flags):
        path = write_json("poly.json", X_MINUS_2)
        start = time.monotonic()
        status, out, err = run_cli(["aqc", "solve", path, "--cutoff", "4", *flags])
        assert time.monotonic() - start < 1.0
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "domain-error"

    @pytest.mark.parametrize("flags, message", [
        (["--shots", "0"], f"shots must lie in 1..{aqc.MAX_SHOTS}"),
        (["--time", "0"], "total time must be positive"),
        (["--cutoff", "-1"], "cutoff must be a natural number"),
    ], ids=["shots", "time", "cutoff"])
    def test_aqc_refusal_names_its_condition(self, write_json, flags, message):
        path = write_json("poly.json", X_MINUS_2)
        status, out, err = run_cli(["aqc", "solve", path, "--cutoff", "4", *flags])
        assert status == 1 and out == ""
        assert json.loads(err) == {"error": "domain-error", "message": message}

    @pytest.mark.parametrize("argv", [
        ["zeno", "budget", "--seconds", "1e99999"],
        ["zeno", "budget", "--seconds=-1e99999"],
        ["zeno", "budget", "--seconds", "1e-99999"],
        ["zeno", "lamp", "--t", "1e99999"],
        ["zeno", "lamp", "--t", "1e-99999"],
        # index w(w + 1)/2 opens diagonal w = 10**350: the pair is (10**350, 0)
        ["enum", "decode", "--index", str(10**350 * (10**350 + 1) // 2)],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_float_view_out_of_range(self, argv):
        start = time.monotonic()
        status, out, err = run_cli(argv)
        assert time.monotonic() - start < 1.0
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "domain-error"

    @pytest.mark.parametrize("argv, message", [
        (["zeno", "budget", "--seconds", "1e100000000"], "--seconds is past the float range"),
        (["zeno", "lamp", "--t", "1e100000000"], "--t is past the float range"),
        (["zeno", "budget", "--seconds", "1e-100000000"],
         "--seconds is nonzero but rounds to 0 as a float"),
        (["zeno", "lamp", "--t", " -1.5E-1_000_000_000 "],
         "--t is nonzero but rounds to 0 as a float"),
        (["zeno", "budget", "--seconds", "0e100000000"], "budget must be positive"),
        (["zeno", "lamp", "--t", "0e100000000"], None),
    ], ids=["budget-past-range", "lamp-past-range", "budget-rounds-to-0", "lamp-rounds-to-0",
            "budget-zero", "lamp-zero"])
    def test_a_long_exponent_is_read_without_its_power_of_ten(self, argv, message):
        # a child, capped at 5 s: 10**100000000 in full took more than a minute
        done = subprocess.run([sys.executable, "-m", "hyperlab.cli", *argv], env=src_env(),
                              capture_output=True, text=True, timeout=5)
        if message is None:  # the value is 0 whatever its exponent
            assert (done.returncode, done.stdout) == (0, run_cli(["zeno", "lamp", "--t", "0"])[1])
        else:
            assert (done.returncode, done.stdout) == (1, "")
            assert json.loads(done.stderr) == {"error": "domain-error", "message": message}

    def test_symbol_count_past_the_float_range(self):
        start = time.monotonic()
        status, out, err = run_cli(["limits", "--symbols", str(10**400)])
        assert time.monotonic() - start < 1.0
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "domain-error"

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1", "tae", "bogosort", "--len", "3"],
        ["tae", "bogosort", "--len", "3", "--seed", "-1"],
        ["tae", "bogosort", "--len", "-1"],
        ["tae", "ashby", "--wheels", "2", "--p", "0.5", "--strategy", "1", "--simulate",
         "--seed", "-1"],
        ["aqc", "solve", "{poly}", "--cutoff", "2", "--seed", "-1"],
        ["tae", "wheels", "--seed", "-1"],
    ], ids=" ".join)
    def test_negative_seed_or_length_is_a_usage_error(self, write_json, argv):
        poly = write_json("poly.json", X_MINUS_2)
        with pytest.raises(SystemExit) as exit_info:
            run_cli([arg.format(poly=poly) for arg in argv])
        assert exit_info.value.code == 2


def usage_error(argv) -> tuple[int, str]:
    """The exit status and stderr of a command line that main refuses."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    return exit_info.value.code, err.getvalue()


def argparse_reference():
    """An argparse parser built from cli's command table, without prefix
    abbreviations: the parser cli read its command lines with before."""
    import argparse

    def add(parser, arguments):
        for name, convert, default in arguments:
            if convert is None:
                parser.add_argument(name, action="store_true")
                continue
            if isinstance(convert, tuple):
                kwargs = {"type": type(convert[0]), "choices": convert}
            else:
                kwargs = {"type": convert}
            if default is not cli.REQUIRED:
                kwargs["default"] = default
            elif name.startswith("-"):
                kwargs["required"] = True
            parser.add_argument(name, **kwargs)

    top = argparse.ArgumentParser(prog="hyperlab", allow_abbrev=False)
    add(top, cli.GLOBAL_OPTIONS)
    groups = top.add_subparsers(dest="group", required=True)
    commands = {}
    for (group, command), (handler, _, arguments) in cli.COMMANDS.items():
        if command is None:
            leaf = groups.add_parser(group, allow_abbrev=False)
        else:
            if group not in commands:
                commands[group] = groups.add_parser(group, allow_abbrev=False) \
                    .add_subparsers(dest="command", required=True)
            leaf = commands[group].add_parser(command, allow_abbrev=False)
        add(leaf, arguments)
        leaf.set_defaults(handler=handler, command=command)
    return top


def parsed(parser, argv):
    """The namespace's attributes, or 2 where the line is refused."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


OPTIONS = sorted({name for _, _, arguments in cli.COMMANDS.values()
                  for name, _, _ in arguments + cli.GLOBAL_OPTIONS if name.startswith("-")})
VALUES = ["0", "3", "03", " 7", "-1", "-0.5", "-.5", "2.5", "5.", "1/2", "1/0", "1e3", "-1e3",
          "1,2", "x", "", "-", "-x", "-x y", "json", "csv", "tm", "run", "m.json"]
NAMES = sorted({word for key in cli.COMMANDS for word in key if word}) + ["bogus"]


def fitting(convert) -> list[str]:
    """Words that convert takes, or nearly so."""
    if isinstance(convert, tuple):
        return [str(choice) for choice in convert] + ["0"]
    return {int: ["0", "3", "03", " 7", "-2"], float: ["2.5", "-0.5", "5.", "1e3", "-1e3"],
            cli._natural_arg: ["0", "3", "-1"], cli._fraction_arg: ["1/2", "3", "-0.25"],
            cli._ints_arg: ["2,4", "3", "0,-1", "-1,2", "1,x", "1,"],
            cli._floats_arg: ["1,5.5", "0.5", "1e3,-2", "-1,2", "1,,2"],
            str: ["m.json", "-", "-1", ""]}[convert]


@st.composite
def command_lines(draw):
    """A command's words, most of its arguments given with fitting values, in
    any order, some as --opt=value, and now and then a word of any kind put in
    anywhere."""
    key = draw(st.sampled_from(list(cli.COMMANDS)))
    chunks = []
    for name, convert, default in cli.COMMANDS[key][2] + cli.GLOBAL_OPTIONS:
        if draw(st.integers(0, 7)) < (1 if default is cli.REQUIRED else 4):
            continue
        if convert is not None:
            value = draw(st.sampled_from(fitting(convert) if draw(st.integers(0, 5)) else VALUES))
        if not name.startswith("-"):
            chunks.append([value])
        elif convert is None:
            chunks.append([name])
        else:
            chunks.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    chunks = draw(st.permutations(chunks))
    glob = [c for c in chunks if c[0].startswith(("--format", "--output"))]
    argv = [w for c in glob for w in c] + [w for w in key if w] \
        + [w for c in chunks if c not in glob for w in c]
    noise = st.one_of(st.sampled_from(OPTIONS + VALUES + NAMES + ["--bogus", "--trace=1"]),
                      st.builds("{}={}".format, st.sampled_from(OPTIONS),
                                st.sampled_from(VALUES)))
    for word in draw(st.lists(noise, max_size=2)) if not draw(st.integers(0, 2)) else []:
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["tm"], ["tm", "walk"], ["zeno", "time", "--n", "3", "--bogus"],
        ["zeno", "time", "-x"], ["tm", "run"], ["tm", "run", "a.json", "b.json"],
        ["tae", "ashby", "--wheels", "3", "--p", "0.5"],
        ["zeno", "time", "--n", "x"], ["zeno", "time", "--n", "1.5"], ["zeno", "time", "--n"],
        ["zeno", "time", "--n", "--n", "3"],
        ["tae", "ashby", "--wheels", "3", "--p", "half", "--strategy", "1"],
        ["zeno", "budget", "--seconds", "1/0"], ["zeno", "lamp", "--t", "x"],
        ["tae", "ashby", "--wheels", "3", "--p", "0.5", "--strategy", "4"],
        ["--format", "xml", "zeno", "time", "--n", "3"],
        ["tm", "run", "m.json", "--trace=1"], ["aqc", "solve", "p.json", "--cutoff", "2",
                                               "--oracle-only=yes"],
        ["zeno", "time", "--n", "3", "--format", "csv"],
        ["zeno", "time", "--output", "-", "--n", "3"],
        ["--seed", "-1", "tae", "bogosort", "--len", "3"],
        ["aqc", "solve", "p.json", "--cut", "2"],
        ["zeno", "time", "--n", "1" * 5000],
        ["zeno", "time", "--", "--n", "3"],
    ], ids=lambda argv: " ".join(argv)[:40] or "empty")
    def test_a_bad_line_prints_its_usage_and_exits_two(self, argv):
        status, err = usage_error(argv)
        assert status == 2
        usage, error = err.splitlines()
        assert usage.startswith("usage: hyperlab ") and error.startswith("hyperlab: error: ")

    @pytest.mark.parametrize("argv, shown", [
        (["-h"], [" ".join(filter(None, key)) for key in cli.COMMANDS]),
        (["tae", "--help"], ["tae goldbach", "tae ashby", "tae wheels", "tae bogosort"]),
        (["aqc", "-h"], ["aqc solve", "aqc sweep"]),
        (["tae", "ashby", "-h"], ["tae ashby"]), (["limits", "-h"], ["limits"]),
        (["zeno", "time", "--bogus", "-h"], ["zeno time"]),
    ], ids=["top", "group", "group-aqc", "command", "limits", "after-an-unknown-option"])
    def test_help_prints_the_usage_and_the_commands_and_exits_zero(self, argv, shown):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        usage, blank, *listing = out.getvalue().splitlines()
        assert usage.startswith("usage: hyperlab ") and blank == ""
        named = [itertools.takewhile(lambda w: w.isalpha() and w.islower(), line.split())
                 for line in listing[::2]]
        assert list(map(" ".join, named)) == shown

    def test_the_accepted_forms(self):
        parse = cli.build_parser().parse_args
        args = parse(["--output=-", "--format", "csv", "tae", "ashby", "--p", "-0.5",
                      "--wheels=3", "--strategy", "03", "--seed", "1", "--seed=2"])
        assert (args.format, args.output, args.p, args.wheels, args.strategy, args.seed) \
            == ("csv", "-", -0.5, 3, 3, 2)
        args = parse(["tm", "run", "--input", "-1", "m.json", "--trace", "--fuel", "5"])
        assert (args.machine, args.input, args.trace, args.fuel) == ("m.json", "-1", True, 5)
        args = parse(["limits", "--symbols", "8"])
        assert (args.group, args.command, args.power, args.handler) \
            == ("limits", None, None, cli._cmd_limits)
        assert parse(["tae", "bogosort", "--len", "4"]).len == 4

    def test_a_default_is_its_value_and_an_option_is_its_own_name(self):
        # None stands for no other value: only limits' --power and --dt take
        # it, meaning "not given"; and no option reads under another name
        nones = {(key, name) for key, (_, _, arguments) in cli.COMMANDS.items()
                 for name, _, default in arguments if default is None}
        assert nones == {(("limits", None), "--power"), (("limits", None), "--dt")}
        for _, _, arguments in cli.COMMANDS.values():
            for name, _, _ in cli.GLOBAL_OPTIONS + arguments:
                assert cli._dest(name) == name.lstrip("-").replace("-", "_")

    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    def test_lines_parse_as_argparse_parsed_them(self, argv):
        assert parsed(cli.build_parser(), argv) == parsed(argparse_reference(), argv)


class TestDeterminism:
    COMMANDS = [
        ["tae", "ashby", "--wheels", "6", "--p", "0.5", "--strategy", "3",
         "--simulate", "--trials", "5000", "--seed", "11"],
        ["tae", "bogosort", "--len", "5", "--seed", "11"],
        ["enum", "list", "--count", "20"],
        ["zeno", "time", "--n", "10"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[1])
    def test_same_invocation_is_byte_identical(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0

    def test_csv_output_to_file(self, tmp_path):
        target = tmp_path / "report.csv"
        argv = ["--format", "csv", "--output", str(target),
                "tae", "ashby", "--wheels", "2", "--p", "0.5", "--strategy", "1"]
        status, out, _ = run_cli(argv)
        assert status == 0 and out == ""
        first = target.read_bytes()
        header = first.decode().splitlines()[0].split(",")
        assert header == [
            "command", "wheels", "p", "strategy", "expected_seconds",
            "expected_log2", "formula", "quoted_reference.case1_log2_seconds",
            "quoted_reference.case2_seconds", "quoted_reference.case3",
            "quoted_reference.asserted"]
        run_cli(argv)
        assert target.read_bytes() == first

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_file_holds_the_bytes_of_stdout_for_a_table(self, tmp_path, fmt):
        target = tmp_path / f"report.{fmt}"
        argv = ["--format", fmt, "enum", "list", "--count", "5000"]  # more than one block
        status, out, _ = run_cli(argv)
        assert status == 0
        assert run_cli(["--output", str(target), *argv]) == (0, "", "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "3a89f700b87c373f0ea44409f668548ed4824d8c4512ebd20105de11e39e0fa2"),
        ("csv", "b86020be855f1176698108c01ae4f4a2d248104823f7da37e81e86aa8fb91951"),
    ])
    def test_enumeration_at_its_budget_is_pinned(self, tmp_path, fmt, digest):
        # the golden corpus stops at 2,000 entries; by the budget the float
        # views have run through the subnormals to 0. A child writes the
        # report to a file, so the peak RSS of this process, which later
        # children inherit, stays where it was.
        target = tmp_path / "report"
        argv = ["--format", fmt, "--output", str(target), "enum", "list", "--count",
                str(pairing.ENUMERATION_BUDGET)]
        done = subprocess.run([sys.executable, "-m", "hyperlab.cli", *argv], env=src_env(),
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        with open(target, "rb") as report:
            assert hashlib.file_digest(report, "sha256").hexdigest() == digest

    def test_csv_quotes_a_carriage_return(self, write_json):
        doc = json.loads(json.dumps(successor_doc()).replace('"done"', '"h\\rx"'))
        path = write_json("cr.json", doc)
        status, out, _ = run_cli(["--format", "csv", "tm", "run", path, "--input", "11"])
        assert status == 0
        header, row = csv.reader(io.StringIO(out, newline=""))
        assert len(row) == len(header)
        assert dict(zip(header, row))["final_state"] == "h\rx"


# A child that imports cli and runs each command line of its argv, stdout and
# stderr caught, then prints the exit statuses, the stdouts and the modules it
# loaded past its bare start, site .pth files included. json, which a command
# may load, is imported only once those are read.
PROBE = (
    "import io, sys\n"
    "from contextlib import redirect_stderr, redirect_stdout\n"
    "bare = set(sys.modules)\n"
    "from hyperlab import cli\n"
    "statuses, outs = [], []\n"
    "for line in sys.argv[1:]:\n"
    "    out = io.StringIO()\n"
    "    with redirect_stdout(out), redirect_stderr(io.StringIO()):\n"
    "        try:\n"
    "            statuses.append(cli.main(line.split()))\n"
    "        except SystemExit as exc:\n"
    "            statuses.append(exc.code)\n"
    "    outs.append(out.getvalue())\n"
    "loaded = sorted(set(sys.modules) - bare)\n"
    "import json\n"
    "print(json.dumps([statuses, outs, loaded]))\n")


def probe(lines: list[str]) -> tuple[list, list[str], set[str]]:
    """Run the command lines, one after another, in one child interpreter: the
    exit status and stdout of each, and the modules the child loaded to import
    cli and run them all. A caller wanting a child per line calls once a line."""
    done = subprocess.run([sys.executable, "-c", PROBE, *lines], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    statuses, outs, loaded = json.loads(done.stdout)
    return statuses, outs, set(loaded)


class TestCosts:
    @pytest.mark.parametrize("strategy", ["1", "2", "3"])
    def test_ashby_sums_its_expectation_once(self, monkeypatch, strategy):
        calls = []
        expected = tae.ashby_expected
        monkeypatch.setattr(tae, "ashby_expected", lambda exp: calls.append(exp) or expected(exp))
        status, _, _ = run_cli(["tae", "ashby", "--wheels", "10", "--p", "0.5",
                                "--strategy", strategy])
        assert status == 0 and len(calls) == 1

    def test_exact_commands_never_import_numpy(self, tmp_path):
        machine = tmp_path / "machine.json"
        machine.write_text(json.dumps(successor_doc()))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(X_MINUS_2))
        commands = [f"tm run {machine} --input 11 --trace", "zeno time --n 50",
                    "zeno budget --seconds 64", "zeno lamp --t 1.5",
                    f"zeno halting {machine} --input 11 --fuel 100",
                    "enum list --count 30", "enum decode --index 4", "enum encode --a 1 --b 1",
                    "limits --symbols 8 --power 1 --dt 0.5",
                    "tae goldbach --horizon 100", "tae bogosort --len 6 --seed 3",
                    "tae bogosort --len 6 --memo --seed 3",
                    f"aqc solve {poly} --cutoff 4 --time 50 --dt 0.01 --shots 1000",
                    f"aqc solve {poly} --cutoff 4 --oracle-only",
                    f"aqc sweep {poly} --cutoff 4 --times 1 --dt 0.01",
                    "tae wheels --wheels 2,4 --trials 200"] + [
                    f"tae ashby --wheels 4 --p 0.5 --strategy {strategy} --simulate --trials 100"
                    for strategy in (1, 2, 3)]
        statuses, _, loaded = probe(commands)
        assert statuses == [0] * len(commands)
        assert "numpy" not in loaded

    def test_overlap_sweep_imports_no_numpy(self, write_json):
        poly = write_json("poly.json", X_MINUS_2)
        statuses, outs, loaded = probe([f"aqc sweep {poly} --cutoff 4 --times 1 --dt 0.01"])
        assert statuses == [0]
        assert json.loads(outs[0])["sweep"][0]["steps"] == 100
        assert "numpy" not in loaded

    def test_wheel_strategies_imports_no_numpy(self):
        statuses, outs, loaded = probe(["--format csv tae wheels --wheels 2,4 --trials 200"])
        assert statuses == [0]
        assert len(outs[0].splitlines()) == 3
        assert "numpy" not in loaded

    def test_each_command_imports_only_its_own_layer(self, tmp_path):
        machine = tmp_path / "machine.json"
        machine.write_text(json.dumps(successor_doc()))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(X_MINUS_2))

        def layers(*command: str) -> set[str]:
            """The layers one child loads to run the command, or only to import cli."""
            statuses, _, loaded = probe(list(command))
            assert statuses == [0] * len(command)
            return {m.split(".", 1)[1] for m in loaded if m.startswith("hyperlab.")}

        base = {"cli", "errors", "reporting"}
        assert layers() == base
        assert layers(f"aqc solve {poly} --cutoff 4 --time 5 --dt 0.01 --shots 100") \
            == base | {"aqc", "variates"}
        assert layers(f"aqc solve {poly} --cutoff 4 --oracle-only") == base | {"aqc", "variates"}
        assert layers(f"aqc sweep {poly} --times 1,5") == base | {"aqc", "variates"}
        assert layers("tae wheels --wheels 2,4 --trials 200") == base | {"tae", "variates"}
        assert layers("enum list --count 30") == base | {"pairing"}
        assert "turing" not in layers("zeno time --n 50")
        assert "turing" not in layers("tae goldbach --horizon 100")
        loaded = layers(f"tm run {machine} --input 11")
        assert "turing" in loaded and not loaded & {"tae", "zeno", "limits", "pairing"}

    def test_commands_load_no_dataclasses_and_rationals_only_to_print_them(self, tmp_path):
        machine = tmp_path / "machine.json"
        machine.write_text(json.dumps(successor_doc()))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(X_MINUS_2))

        def added(commands: list[str]) -> set[str]:
            statuses, _, loaded = probe(commands)
            assert statuses == [0] * len(commands)
            return loaded

        no_fraction = [
            f"tm run {machine} --input 11 --trace", "enum list --count 30",
            "enum encode --a 15 --b 1", "limits --symbols 8 --power 1 --dt 0.5",
            "tae goldbach --horizon 100", "tae bogosort --len 6 --memo --seed 3",
            "tae ashby --wheels 4 --p 0.5 --strategy 3 --simulate --trials 100",
            f"aqc solve {poly} --cutoff 4 --time 5 --dt 0.01 --shots 100",
            f"aqc solve {poly} --cutoff 4 --oracle-only", f"aqc sweep {poly} --times 1,5",
            "tae wheels --wheels 2,4 --trials 200", "enum decode --index 7"]
        loaded = added(no_fraction)
        assert "hyperlab.aqc" in loaded
        assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "_decimal",
                             "numbers"}
        loaded = added(["zeno time --n 50", "zeno budget --seconds 1.5", "zeno lamp --t 1.5",
                        f"zeno halting {machine} --input 11 --fuel 100"])
        assert "hyperlab.zeno" in loaded and not loaded & {"dataclasses", "inspect"}

    def test_no_command_loads_argparse_and_json_only_to_read_or_to_fail(self, tmp_path):
        machine = tmp_path / "machine.json"
        machine.write_text(json.dumps(successor_doc()))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(X_MINUS_2))

        def added(commands: list[str]) -> set[str]:
            return {name.split(".")[0] for name in probe(commands)[2]}

        never = {"argparse", "gettext", "locale"}
        no_document = [
            "zeno time --n 50", "zeno budget --seconds 1.5", "zeno lamp --t 1.5",
            "enum list --count 30", "enum decode --index 7", "enum encode --a 15 --b 1",
            "limits --symbols 8 --power 1 --dt 0.5", "tae goldbach --horizon 100",
            "tae bogosort --len 6 --memo --seed 3",
            "tae ashby --wheels 4 --p 0.5 --strategy 3 --simulate --trials 100",
            "tae wheels --wheels 2,4 --trials 200", "--format csv tae wheels --trials 200",
            "--format csv enum list --count 30", "-h", "tae ashby -h", "aqc sweep -h",
            "zeno time --n x", "bogus"]
        loaded = added(no_document)
        assert "hyperlab" in loaded and not loaded & (never | {"json"})
        documents = [f"tm run {machine} --input 11 --trace",
                     f"zeno halting {machine} --input 11 --fuel 100",
                     f"aqc solve {poly} --cutoff 4 --oracle-only", f"aqc sweep {poly} --times 1,5"]
        for failing in ("limits --symbols 0", "tm run does-not-exist.json"):
            assert "json" in added([failing]) - never
        loaded = added(documents)
        assert "json" in loaded and not loaded & never

    def test_traced_run_memory_is_linear_in_the_report(self, write_json, tmp_path):
        # 2001 snapshots of a 2000-symbol tape: about 8 MB of report text,
        # where a tape copy per snapshot held 2000 dicts of 2000 cells
        path = write_json("machine.json", successor_doc())
        target = tmp_path / "trace.json"
        tracemalloc.start()
        try:
            status, _, _ = run_cli(["--output", str(target), "tm", "run", path,
                                    "--input", "1" * 2000, "--trace"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert len(json.loads(target.read_text())["trace"]) == 2002
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("command", ["tm run", "zeno halting"])
    def test_declared_states_without_rules_cost_no_table_rows(self, tmp_path, command):
        # 2 * 10**5 declared states and one rule, a document of about 2 MB: a
        # row of 256 slots for each state peaked at about 450 MB
        doc = successor_doc()
        doc["states"] += [f"q{i:06d}" for i in range(2 * 10**5)]
        machine = tmp_path / "machine.json"
        machine.write_text(json.dumps(doc))
        script = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from hyperlab import cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0\n")
        # a child's peak RSS starts at its parent's, so a small interpreter,
        # not this process, starts the measured one and reads its peak
        measure = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen(sys.argv[1:])\n"
            "_, status, usage = os.wait4(child.pid, 0)\n"
            "print(usage.ru_maxrss)\n"
            "sys.exit(os.waitstatus_to_exitcode(status))\n")
        done = subprocess.run([sys.executable, "-c", measure, sys.executable, "-c", script,
                               *command.split(), str(machine), "--input", "11", "--fuel", "100"],
                              env=src_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 120 * 1024  # kilobytes, as Linux reports them


# -- totality: generated documents end in a report or a structured error ----------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
SYMBOLS = st.sampled_from(["_", "1", "a"])
STATES = st.sampled_from(["q", "h", "r"])


def _spoiled(draw, doc: dict):
    """doc as it is, doc with one key dropped or set to an arbitrary JSON
    value, or an arbitrary JSON value in its place, in about 4:3:1."""
    choice = draw(st.integers(0, 7))
    if choice == 7:
        return draw(JSON_VALUES)
    if choice >= 4:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON_VALUES)
    return doc


@st.composite
def machine_docs(draw):
    """Machine documents near a valid one over three states and three symbols,
    on one to four tapes. Some declare up to 20 symbols more and a state w with
    up to 300 rules, each writing what it reads, so that their cells may hold
    more contents than the budget allows."""
    tapes = draw(st.integers(1, 4))
    cells = SYMBOLS if tapes == 1 else st.lists(SYMBOLS, min_size=tapes, max_size=tapes)
    rule = st.fixed_dictionaries({"from": STATES, "read": cells, "to": STATES,
                                  "write": cells, "move": st.sampled_from("lnr")})
    alphabet = ["_", "1", "a"] + [f"w{i}" for i in range(draw(st.integers(0, 20)))]
    written = itertools.islice(itertools.product(alphabet, repeat=tapes), draw(st.integers(0, 300)))
    doc = {
        "blank": "_",
        "alphabet": alphabet,
        "states": ["q", "h", "r", "w"],
        "initial": draw(STATES),
        "finals": draw(st.lists(STATES, max_size=1)),
        "transitions": draw(st.lists(rule, max_size=6,
                                     unique_by=lambda r: (r["from"], str(r["read"])))) + [
            {"from": "w", "read": list(cell), "to": "w", "write": list(cell), "move": "r"}
            for cell in written],
        "tapes": tapes,
        "one_sided": draw(st.booleans()),
    }
    if draw(st.booleans()):
        doc["oracle_states"] = {"ask": "r", "yes": "q", "no": "h"}
    return _spoiled(draw, doc)


@st.composite
def polynomial_docs(draw):
    """Polynomial documents near a valid one in one to six variables."""
    k = draw(st.integers(1, 6))
    term = st.tuples(st.integers(-20, 20), st.lists(st.integers(0, 4), min_size=k, max_size=k))
    terms = draw(st.lists(term.map(list), max_size=4, unique_by=lambda t: tuple(t[1])))
    return _spoiled(draw, {"vars": k, "terms": terms})


# the first cutoff whose lattice is past LATTICE_BUDGET, by number of variables
PAST_LATTICE_BUDGET = {1: 10**7, 2: 3162, 3: 215}


@st.composite
def aqc_cases(draw):
    """A polynomial document with a cutoff up to 3 or a negative one, or in one to
    three variables also one whose lattice the scan splits into several runs:
    RUN_LENGTH to 9,000 in one variable, 64 to 100 in two and 16 to 21 in three;
    or the first cutoff past LATTICE_BUDGET."""
    doc = draw(polynomial_docs())
    cutoffs = st.integers(0, 3) | st.integers(-10**6, -1)
    for k, low, high in [(1, aqc.RUN_LENGTH, 9000), (2, 64, 100), (3, 16, 21)]:
        if isinstance(doc, dict) and doc.get("vars") == k:
            cutoffs |= st.integers(low, high) | st.just(PAST_LATTICE_BUDGET[k])
    return doc, draw(cutoffs)


@st.composite
def list_words(draw, numbers, words):
    """A list option's word: up to six numbers, or one of them 100 to 1,000
    times, and in about half the lists one item replaced by one of words."""
    if draw(st.booleans()):
        items = draw(st.lists(numbers, min_size=1, max_size=6))
    else:
        items = [draw(numbers)] * draw(st.integers(100, 1000))
    if draw(st.booleans()):
        items[draw(st.integers(0, len(items) - 1))] = draw(words)
    return ",".join(items)


# zero, negatives and numbers past the float range; empty items and words that
# are no number of the list's type
WHEEL_NUMBERS = st.integers(-1, 60).map(str) | st.sampled_from([str(10**306), str(10**400)])
WHEEL_WORDS = st.sampled_from(["", " ", "2.5", "nan", "inf", "1e400"])
TIME_NUMBERS = st.floats(0, 4).map(repr) | st.sampled_from(
    ["-0", "-1", "1e-300", "1e9", "nan", "inf", "-inf", "1e400"])
TIME_WORDS = st.sampled_from(["", " ", "x", "1/2"])


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the document a positional argument names, by command group
DOCUMENTS = {"tm": FIXTURES / "successor.json", "zeno": FIXTURES / "successor.json",
             "aqc": FIXTURES / "x_minus_2.json"}
# small words each converter takes; any argument may also get one of the
# malformed words or the values past every budget of OTHER_WORDS
SMALL_WORDS = {int: ["0", "1", "3"], float: ["0.5", "1", "3"], cli._natural_arg: ["0", "3"],
               cli._fraction_arg: ["1/2", "3"], cli._ints_arg: ["2,3"],
               cli._floats_arg: ["0.5,1"], str: ["", "1"]}
OTHER_WORDS = ["", "x", "nan", "1,2", "9" * 4300, "1e400"]


@st.composite
def table_lines(draw):
    """A command line from a row of cli.COMMANDS: --format and every argument
    of the row with a word, mostly a small one its converter takes, and each
    flag given or not."""
    key = draw(st.sampled_from(list(cli.COMMANDS)))
    words = {}
    for name, convert, _ in cli.GLOBAL_OPTIONS[:1] + cli.COMMANDS[key][2]:
        if convert is None:
            words[name] = [name] if draw(st.booleans()) else []
            continue
        if name[0] != "-":
            small = [str(DOCUMENTS[key[0]])]
        elif isinstance(convert, tuple):
            small = list(map(str, convert))
        else:
            small = SMALL_WORDS[convert]
        word = draw(st.sampled_from(small if draw(st.integers(0, 3)) else OTHER_WORDS))
        words[name] = [word] if name[0] != "-" else [name, word]
    return words.pop("--format") + [w for w in key if w] + [w for ws in words.values() for w in ws]


def assert_error_line(err: str) -> str:
    """The kind of a structured error: one JSON line of under 200 bytes."""
    assert err.endswith("\n") and len(err.encode("utf-8")) < 200, err
    return json.loads(err)["error"]


class TestTotality:
    """Every generated document or list ends in exit 0, or in exit 1 with a short
    JSON error; a list that does not parse ends in its usage and exit 2."""

    def test_a_closed_stdout_is_an_io_error(self):
        # the shell starts the child with file descriptor 1 closed: sys.stdout is None
        done = subprocess.run(["sh", "-c", '"$0" -m hyperlab.cli zeno time --n 5 >&-',
                               sys.executable], env=src_env(), stdin=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        assert done.returncode == 1
        assert json.loads(done.stderr) == {"error": "io-error",
                                           "message": "standard output is closed"}

    @pytest.mark.parametrize("argv, kind", [
        (["tae", "ashby", "--strategy", "1", "--simulate", "--p", "0.001",
          "--wheels", str(10**300)], "domain-error"),
        # the longest integers a command line or a document may hold, 4,300 digits
        (["aqc", "solve", "{huge}", "--cutoff", "9" * 4300, "--oracle-only"], "resource-error"),
        (["tm", "run", "{machine}", "--fuel", "9" * 4300], "resource-error"),
        (["zeno", "time", "--n", "9" * 4300], "resource-error"),
        (["enum", "encode", "--a", "-" + "9" * 4299, "--b", "1"], "domain-error"),
        (["tae", "bogosort", "--len", "9" * 4300], "resource-error"),
    ], ids=["spins", "lattice", "fuel", "step-index", "pair", "bogosort-length"])
    def test_refusals_of_huge_values_stay_short(self, write_json, argv, kind):
        paths = {"{huge}": write_json("huge.json", {"vars": 10**4299, "terms": []}),
                 "{machine}": write_json("machine.json", successor_doc())}
        status, out, err = run_cli([paths.get(word, word) for word in argv])
        assert status == 1 and out == ""
        assert assert_error_line(err) == kind

    @pytest.mark.parametrize("argv", [
        ["tm", "run", "{dir}/" + "m" * 250],
        ["--output", "{dir}/" + "d" * 200 + "/report.json", "zeno", "time", "--n", "3"],
    ], ids=["missing-machine", "output-in-a-missing-directory"])
    def test_io_errors_on_long_paths_stay_short(self, tmp_path, argv):
        status, out, err = run_cli([word.replace("{dir}", str(tmp_path)) for word in argv])
        assert status == 1 and out == ""
        assert assert_error_line(err) == "io-error"

    @staticmethod
    def _run_line(argv: list[str]) -> tuple[int, str]:
        """Run argv within 5 s to exit 0 with a report, 1 with a short JSON error
        line or 2 with its usage; the status and the report."""
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as stop:
                status = stop.code
        assert time.monotonic() - start < 5.0
        out, err = out.getvalue(), err.getvalue()
        if status == 2:
            assert out == "" and err.startswith("usage: hyperlab ")
        elif status == 1:
            assert out == "" and isinstance(assert_error_line(err), str)
        else:
            assert status == 0 and err == "" and out
        return status, out

    def _check_line(self, argv: list[str], rows: str) -> None:
        """Run argv as _run_line does; a report holds a row per item of the list rows."""
        status, out = self._run_line(argv)
        if status == 0:
            report = json.loads(out)
            assert len(report if isinstance(report, list) else report["sweep"]) == \
                len(rows.split(","))

    @settings(max_examples=300, deadline=None)
    @given(argv=table_lines())
    # a length past the budget used to be drawn before bogosort refused it
    @example(argv=["--format", "json", "tae", "bogosort", "--len", "9" * 4300,
                   "--max-tries", "3", "--seed", "0"])
    def test_every_command_from_its_table_row(self, argv):
        self._run_line(argv)

    @settings(max_examples=100, deadline=None)
    @given(wheels=list_words(WHEEL_NUMBERS, WHEEL_WORDS),
           p=st.sampled_from(["0.5", "0.9", "0.5", "nan", "0", "1e-310"]),
           trials=st.sampled_from(["2", "50", "2", "0", "1", "-3"]))
    @example(wheels=",".join(["50"] * 1000), p="0.5", trials="2")
    @example(wheels=",".join(["3"] * 29), p="0.0004", trials="2")
    @example(wheels="2,,4", p="0.5", trials="2")
    @example(wheels="2", p="1e-310", trials="2")
    @example(wheels=str(10**306), p="0.001", trials="2")
    def test_tae_wheels_lists(self, wheels, p, trials):
        self._check_line(["tae", "wheels", "--p", p, "--wheels", wheels, "--trials", trials],
                         wheels)

    @settings(max_examples=100, deadline=None)
    @given(times=list_words(TIME_NUMBERS, TIME_WORDS),
           dt=st.sampled_from(["0.01", "0.1", "1e-300", "0", "-0.1", "inf", "nan"]))
    @example(times=",".join(["3"] * 1000), dt="0.01")
    @example(times=",".join(["1e308"] * 2), dt="1e-300")
    def test_aqc_sweep_lists(self, tmp_path_factory, times, dt):
        path = tmp_path_factory.getbasetemp() / "fuzz-sweep.json"
        path.write_text(json.dumps(X_MINUS_2))
        self._check_line(["aqc", "sweep", str(path), "--times", times, "--dt", dt], times)

    @staticmethod
    def _check(path: Path, doc, argv: list[str]) -> str | None:
        """Run argv on doc written to path; the error's kind, or None on exit 0."""
        path.write_text(json.dumps(doc))
        status, out, err = run_cli(argv)
        assert status in (0, 1)
        if status == 1:
            assert out == ""
            return assert_error_line(err)
        assert err == "" and json.loads(out)
        return None

    @settings(max_examples=100, deadline=None)
    @given(doc=machine_docs(), text=st.sampled_from(["", "1", "1a_1"]))
    def test_tm_run(self, tmp_path_factory, doc, text):
        path = tmp_path_factory.getbasetemp() / "fuzz-machine.json"
        self._check(path, doc, ["tm", "run", str(path), "--fuel", "50", "--input", text])

    @pytest.mark.parametrize("flags", [["--oracle-only"], ["--time", "1", "--dt", "0.1"]],
                             ids=["oracle-only", "evolve"])
    @settings(max_examples=100, deadline=None)
    @given(case=aqc_cases(),
           shots=st.one_of(st.integers(1, aqc.MAX_SHOTS), st.just(aqc.MAX_SHOTS + 1)))
    def test_aqc_solve(self, tmp_path_factory, flags, case, shots):
        doc, cutoff = case
        path = tmp_path_factory.getbasetemp() / "fuzz-polynomial.json"
        error = self._check(path, doc, ["aqc", "solve", str(path), "--cutoff", str(cutoff),
                                        "--shots", str(shots), *flags])
        try:
            poly = aqc.parse_polynomial(doc)
        except ValidationError:
            return
        # a valid document on a refused lattice ends in the lattice's error,
        # unless decide refuses the shots first
        if shots <= aqc.MAX_SHOTS or "--oracle-only" in flags:
            if cutoff < 0:
                assert error == "domain-error"
            elif cutoff == PAST_LATTICE_BUDGET.get(poly.num_vars):
                assert error == "resource-error"
