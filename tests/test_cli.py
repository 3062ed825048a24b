import csv
import hashlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import aqc, cli, pairing, tae, turing

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

    def test_zeno_halting_and_tm_run_share_the_default_fuel(self, write_json):
        path = write_json("loop.json", self_loop_doc())
        steps = [json.loads(run_cli([*command, path])[1])["steps"]
                 for command in (["zeno", "halting"], ["tm", "run"])]
        assert steps == [turing.DEFAULT_FUEL] * 2

    def test_tm_run(self, write_json):
        path = write_json("machine.json", successor_doc())
        status, out, _ = run_cli(["tm", "run", path, "--input", "111", "--fuel", "50"])
        report = json.loads(out)
        assert report["outcome"] == "halted"
        assert report["tape"] == "1111"

    def test_tm_run_with_trace(self, write_json):
        path = write_json("machine.json", successor_doc())
        status, out, _ = run_cli(["tm", "run", path, "--input", "1", "--trace"])
        report = json.loads(out)
        assert [c["state"] for c in report["trace"]][-1] == "done"

    @pytest.mark.parametrize("command", [["tm", "run"], ["zeno", "halting"]], ids=" ".join)
    def test_an_input_states_declaration_changes_no_report(self, write_json, command):
        # a key no command reads is ignored, like any other unknown key
        plain = write_json("plain.json", successor_doc())
        declared = write_json("declared.json", successor_doc() | {
            "input_states": {"request": "scan", "resume": "done"}})
        reports = [run_cli([*command, path, "--input", "11", "--fuel", "100"])
                   for path in (plain, declared)]
        assert reports[0][0] == 0 and reports[0] == reports[1]

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
                                       "write": "1", "move": "n"}], ids=repr)
    def test_malformed_transition(self, write_json, rule):
        doc = successor_doc()
        doc["transitions"].append(rule)
        path = write_json("machine.json", doc)
        status, out, err = run_cli(["tm", "run", path])
        assert status == 1 and out == ""
        assert json.loads(err)["error"] == "validation-error"

    @pytest.mark.parametrize("change", [
        {"oracle_states": {"ask": "scan", "no": "done"}},
        {"oracle_states": ["scan"]},
        {"transitions": 5},
        {"alphabet": "_1"},
        {"tapes": "two"},
        {"one_sided": "false"},
        {"one_sided": 0.5},
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
        assert payload["error"] == "io-error" and str(target) in payload["message"]

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
        assert "expects 2**1026.5 spins" in payload["message"]

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
    ], ids=" ".join)
    def test_negative_seed_or_length_is_a_usage_error(self, write_json, argv):
        poly = write_json("poly.json", X_MINUS_2)
        with pytest.raises(SystemExit) as exit_info:
            run_cli([arg.format(poly=poly) for arg in argv])
        assert exit_info.value.code == 2


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

    def test_global_seed_flows_to_subcommand(self):
        a = run_cli(["--seed", "9", "tae", "bogosort", "--len", "5"])
        b = run_cli(["tae", "bogosort", "--len", "5", "--seed", "9"])
        assert json.loads(a[1]) == json.loads(b[1])

    def test_subcommand_seed_wins_over_the_global_one(self):
        local = run_cli(["tae", "bogosort", "--len", "5", "--seed", "9"])
        assert run_cli(["--seed", "5", "tae", "bogosort", "--len", "5", "--seed", "9"]) == local
        assert run_cli(["--seed", "5", "tae", "bogosort", "--len", "5"]) != local


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
        script = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from hyperlab import cli\n"
            "for argv in sys.argv[1:]:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv.split()) == 0, argv\n"
            "print('numpy' in sys.modules)\n")
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
                    f"aqc solve {poly} --cutoff 4 --oracle-only"] + [
                    f"tae ashby --wheels 4 --p 0.5 --strategy {strategy} --simulate --trials 100"
                    for strategy in (1, 2, 3)]
        env = src_env()
        done = subprocess.run([sys.executable, "-c", script, *commands], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_each_command_imports_only_its_own_layer(self, tmp_path):
        machine = tmp_path / "machine.json"
        machine.write_text(json.dumps(successor_doc()))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(X_MINUS_2))
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from hyperlab import cli\n"
            "argv = sys.argv[1].split()\n"
            "if argv:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules\n"
            "                        if m.startswith('hyperlab.'))))\n")
        env = src_env()

        def layers(command: str) -> set[str]:
            done = subprocess.run([sys.executable, "-c", script, command], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            return set(json.loads(done.stdout))

        base = {"cli", "errors", "reporting"}
        assert layers("") == base
        assert layers(f"aqc solve {poly} --cutoff 4 --time 5 --dt 0.01 --shots 100") \
            == base | {"aqc", "variates"}
        assert layers(f"aqc solve {poly} --cutoff 4 --oracle-only") == base | {"aqc", "variates"}
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
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "bare = set(sys.modules)\n"
            "from hyperlab import cli\n"
            "for argv in sys.argv[1:]:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv.split()) == 0, argv\n"
            "print(json.dumps(sorted(set(sys.modules) - bare)))\n")
        env = src_env()

        def added(commands: list[str]) -> set[str]:
            """The modules the commands add to what the interpreter had loaded
            before the first import of hyperlab, site .pth files included."""
            done = subprocess.run([sys.executable, "-c", script, *commands], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            return set(json.loads(done.stdout))

        no_fraction = [
            f"tm run {machine} --input 11 --trace", "enum list --count 30",
            "enum encode --a 15 --b 1", "limits --symbols 8 --power 1 --dt 0.5",
            "tae goldbach --horizon 100", "tae bogosort --len 6 --memo --seed 3",
            "tae ashby --wheels 4 --p 0.5 --strategy 3 --simulate --trials 100",
            f"aqc solve {poly} --cutoff 4 --time 5 --dt 0.01 --shots 100",
            f"aqc solve {poly} --cutoff 4 --oracle-only"]
        loaded = added(no_fraction)
        assert "hyperlab.aqc" in loaded
        assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "_decimal"}
        loaded = added(["zeno time --n 50", "zeno budget --seconds 1.5", "zeno lamp --t 1.5",
                        f"zeno halting {machine} --input 11 --fuel 100",
                        "enum decode --index 7"])
        assert "hyperlab.zeno" in loaded and not loaded & {"dataclasses", "inspect"}

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


@st.composite
def aqc_cases(draw):
    """A polynomial document with a cutoff up to 3, or in one to three variables
    also one whose lattice the scan splits into several runs: RUN_LENGTH to 9,000
    in one variable, 64 to 100 in two and 16 to 21 in three."""
    doc = draw(polynomial_docs())
    cutoffs = st.integers(0, 3)
    for k, low, high in [(1, aqc.RUN_LENGTH, 9000), (2, 64, 100), (3, 16, 21)]:
        if isinstance(doc, dict) and doc.get("vars") == k:
            cutoffs |= st.integers(low, high)
    return doc, draw(cutoffs)


class TestTotality:
    """Every generated document ends in exit 0 or in exit 1 with a JSON error."""

    @staticmethod
    def _check(path: Path, doc, argv: list[str]) -> None:
        path.write_text(json.dumps(doc))
        status, out, err = run_cli(argv)
        assert status in (0, 1)
        if status == 1:
            assert out == "" and isinstance(json.loads(err)["error"], str)
        else:
            assert err == "" and json.loads(out)

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
        self._check(path, doc, ["aqc", "solve", str(path), "--cutoff", str(cutoff),
                                "--shots", str(shots), *flags])
