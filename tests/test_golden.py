"""Golden report corpus: the exact bytes every listed invocation prints.

The files under ``tests/golden/`` were written by the CLI and are compared
byte for byte, so a refactor that changes any report byte fails here. To
change report bytes on purpose, regenerate the cases it changes from the
repository root and record the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py NAME...

Only the named cases are rewritten, and an unknown name rewrites nothing;
with no name the whole corpus is rewritten.
"""

import io
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hyperlab import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

ASHBY = ["tae", "ashby", "--wheels", "10", "--p", "0.5", "--strategy", "3",
         "--simulate", "--trials", "100000", "--seed", "7"]

# name -> argv, paths relative to the repository root. The first group is the
# README's command list (test_readme_command_list_is_in_the_corpus); the rest
# pin down traces, CSV and long outputs.
CASES = {
    "tm-run": ["tm", "run", "fixtures/successor.json", "--input", "111", "--fuel", "100"],
    "tm-run-trace": ["tm", "run", "fixtures/successor.json", "--input", "111", "--fuel", "100",
                     "--trace"],
    "tae-goldbach": ["tae", "goldbach", "--horizon", "10000"],
    "tae-ashby": ASHBY,
    "tae-bogosort": ["tae", "bogosort", "--len", "5", "--memo", "--seed", "7"],
    "zeno-time": ["zeno", "time", "--n", "3"],
    "zeno-budget": ["zeno", "budget", "--seconds", "64"],
    "zeno-lamp": ["zeno", "lamp", "--t", "1.9999"],
    "zeno-halting": ["zeno", "halting", "fixtures/successor.json", "--input", "11",
                     "--fuel", "1000"],
    "limits": ["limits", "--symbols", "8", "--power", "1", "--dt", "0.5"],
    "enum-decode": ["enum", "decode", "--index", "4"],
    "enum-encode": ["enum", "encode", "--a", "1", "--b", "1"],
    "enum-list": ["enum", "list", "--count", "20"],
    "aqc-solve": ["aqc", "solve", "fixtures/x_minus_2.json", "--cutoff", "4", "--time", "50",
                  "--dt", "0.01", "--shots", "1000", "--seed", "7"],
    "aqc-oracle": ["aqc", "solve", "fixtures/cubes_sum.json", "--cutoff", "10",
                   "--oracle-only"],
    # multi-character symbols and blank, erasures at both ends and inside,
    # writes left of cell 0
    "tm-trace-multichar": ["tm", "run", "tests/golden/multichar.json", "--input", "abba",
                           "--trace"],
    "tm-trace-multichar-csv": ["--format", "csv", "tm", "run", "tests/golden/multichar.json",
                               "--input", "abba", "--trace"],
    "tm-trace-two-tape": ["tm", "run", "tests/golden/two_tape.json", "--input", "111",
                          "--trace"],
    # traces that end otherwise than halting: out of fuel, stuck on a missing
    # rule after runs of one state, and past the left edge of a one-sided tape
    "tm-trace-out-of-fuel": ["tm", "run", "fixtures/successor.json", "--input", "11111",
                             "--fuel", "3", "--trace"],
    "tm-trace-multichar-stuck": ["tm", "run", "tests/golden/multichar.json", "--input", "aaab",
                                 "--trace"],
    "tm-trace-one-sided-edge": ["tm", "run", "tests/golden/one_sided.json", "--input", "abab",
                                "--trace"],
    "tae-ashby-csv": ["--format", "csv"] + ASHBY,
    "enum-list-2000": ["enum", "list", "--count", "2000"],
    "enum-list-2000-csv": ["--format", "csv", "enum", "list", "--count", "2000"],
    "zeno-time-long": ["zeno", "time", "--n", "15000"],
    # the finite inversion of the step-time sum, and budgets below step 0
    "zeno-budget-near-limit": ["zeno", "budget", "--seconds", "1.9999"],
    "zeno-budget-below-step-0": ["zeno", "budget", "--seconds", "0.75"],
    "zeno-lamp-first-step": ["zeno", "lamp", "--t", "0.5"],
    # two modes, d = 49, dt just under the guard's 0.5 / 30**2
    "aqc-solve-two-mode": ["aqc", "solve", "tests/golden/xy_minus_6.json", "--cutoff", "6",
                           "--time", "10", "--dt", "0.00055", "--shots", "1000", "--seed", "3"],
    # (x - 3)(x - 5000): the two minimisers fall in different runs of the lattice scan
    "aqc-oracle-two-chunks": ["aqc", "solve", "tests/golden/x_minus_3_times_x_minus_5000.json",
                              "--cutoff", "9999", "--oracle-only"],
    # samples over all three runs of 4096, in levels that +D and -D share
    "aqc-solve-three-runs": ["aqc", "solve", "tests/golden/x_minus_3_times_x_minus_5000.json",
                             "--cutoff", "9999", "--time", "1e-15", "--dt", "1.9e-16",
                             "--shots", "1000", "--seed", "5"],
    # three-variable lattices over several blocks of the scan: samples in
    # blocks 0, 1 and 2 of 9,261 points, and minimisers over 8 blocks
    "aqc-solve-cubes-three-blocks": ["aqc", "solve", "fixtures/cubes_sum.json", "--cutoff", "20",
                                     "--time", "1e-9", "--dt", "1e-9", "--shots", "1000",
                                     "--seed", "5"],
    "aqc-oracle-xyz-30": ["aqc", "solve", "tests/golden/x_plus_y_plus_z_minus_30.json",
                          "--cutoff", "30", "--oracle-only"],
    "error-enum-decode": ["enum", "decode", "--index", "-1"],
    # the engine's long loops: thousands of steps, erasures at both ends,
    # a fuel-bounded zeno run, and the prime-pair stream at 10**5
    "tm-run-doubling": ["tm", "run", "tests/golden/doubling.json", "--input", "1" * 40],
    "tm-run-palindrome-reject": ["tm", "run", "tests/golden/palindrome.json",
                                 "--input", "abbabaababbaababba"],
    "zeno-halting-out-of-fuel": ["zeno", "halting", "tests/golden/doubling.json",
                                 "--input", "1" * 40, "--fuel", "1000"],
    "tae-goldbach-100000": ["tae", "goldbach", "--horizon", "100000"],
    # long runs of one state over a block of cells: a one-sided machine's
    # left run into cell 0, and an untraced run on multi-character symbols
    # that mixes such runs with erasures
    "tm-run-one-sided-edge": ["tm", "run", "tests/golden/one_sided.json", "--input", "ab" * 150],
    "tm-run-multichar-long": ["tm", "run", "tests/golden/multichar.json",
                              "--input", "a" + "aaab" * 300 + "a" * 600],
    # the wheel strategies without a golden above, a mean past the float
    # range, the lamp at its limit and the smallest decelerated budget
    "tae-ashby-all-or-nothing": ["tae", "ashby", "--wheels", "10", "--p", "0.5", "--strategy",
                                 "1", "--simulate", "--trials", "2000", "--seed", "3"],
    "tae-ashby-one-at-a-time": ["tae", "ashby", "--wheels", "10", "--p", "0.5", "--strategy",
                                "2", "--simulate", "--trials", "2000", "--seed", "3"],
    "tae-ashby-past-float-range": ["tae", "ashby", "--wheels", "2000", "--p", "0.5",
                                   "--strategy", "1"],
    "zeno-lamp-at-limit": ["zeno", "lamp", "--t", "2"],
    "zeno-budget-one-second": ["zeno", "budget", "--seconds", "1"],
    # the two experiments: the overlap sweep of the README and the wheel
    # strategies' closed forms against Monte Carlo
    "aqc-sweep": ["aqc", "sweep", "fixtures/x_minus_2.json", "--cutoff", "4",
                  "--times", "1,5,25,125", "--dt", "0.01"],
    "tae-wheels-csv": ["--format", "csv", "tae", "wheels", "--p", "0.5", "--wheels", "2,4,8,12",
                       "--trials", "100000"],
    # exact values past the digit limit and in a CSV cell: the pair (1, 5000),
    # whose denominator has 5,001 digits, and a zeno run's elapsed time
    "enum-decode-long": ["enum", "decode", "--index", "12512501"],
    "zeno-halting-csv": ["--format", "csv", "zeno", "halting", "fixtures/successor.json",
                         "--input", "11", "--fuel", "1000"],
    # the defaults a command table row states (zeno's fuel, bogosort's tries),
    # a zeno run that sticks, fuel past zeno's budget, a plain bogosort that
    # sorts and one that gives up, and a sweep that starts at time 0
    "zeno-halting-default-fuel": ["zeno", "halting", "fixtures/successor.json",
                                  "--input", "111"],
    "zeno-halting-stuck": ["zeno", "halting", "tests/golden/multichar.json", "--input", "aaab",
                           "--fuel", "100"],
    "error-zeno-halting-past-budget": ["zeno", "halting", "fixtures/successor.json",
                                       "--input", "111", "--fuel", "1000001"],
    "tae-bogosort-plain": ["tae", "bogosort", "--len", "5", "--seed", "7"],
    "tae-bogosort-gives-up": ["tae", "bogosort", "--len", "6", "--max-tries", "3",
                              "--seed", "1"],
    "aqc-sweep-from-zero": ["aqc", "sweep", "fixtures/x_minus_2.json", "--cutoff", "4",
                            "--times", "0,1", "--dt", "0.01"],
}

# cases that end in a structured error on stderr with exit status 1
FAILING = {"error-enum-decode", "error-zeno-halting-past-budget", "tm-run-one-sided-edge",
           "tm-trace-one-sided-edge"}


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _expected(name: str, suffix: str) -> bytes:
    path = GOLDEN / f"{name}.{suffix}"
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_corpus(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    status, out, err = run_case(CASES[name])
    assert status == (1 if name in FAILING else 0)
    assert out == _expected(name, "out")
    assert err == _expected(name, "err")


def test_every_corpus_file_has_a_case():
    names = {p.stem for p in GOLDEN.iterdir() if p.suffix in (".out", ".err")}
    assert names == set(CASES)


def test_readme_command_list_is_in_the_corpus():
    # the sh block under README's "Command line" heading; a line with
    # [--trace] stands for the line with --trace and the line without
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", readme, re.M | re.S)[1]
    argvs = []
    for line in block.splitlines():
        if line.startswith("hyperlab "):
            words = shlex.split(line)[1:]
            argvs.append([word for word in words if word != "[--trace]"])
            if "[--trace]" in words:
                argvs.append([word.strip("[]") for word in words])
    assert argvs
    assert [argv for argv in argvs if argv not in CASES.values()] == []


def test_every_command_has_a_case():
    parse = cli.build_parser().parse_args
    assert {(args.group, args.command) for args in map(parse, CASES.values())} == set(cli.COMMANDS)


def regenerate(names: list[str]) -> None:
    """Rewrite the named cases from the current code, or the whole corpus when no
    name is given, one .out (and .err) per case. An unknown name rewrites nothing."""
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        raise SystemExit(f"no golden case named {', '.join(unknown)}")
    stale = ([GOLDEN / f"{name}.{suffix}" for name in names for suffix in ("out", "err")]
             if names else [p for p in GOLDEN.iterdir() if p.suffix in (".out", ".err")])
    for path in stale:
        path.unlink(missing_ok=True)
    for name in names or CASES:
        _, out, err = run_case(CASES[name])
        for suffix, data in (("out", out), ("err", err)):
            if data:
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)


def test_regenerate_rewrites_only_the_named_cases(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _expected("enum-decode", "out")
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    (tmp_path / "enum-decode.out").write_bytes(b"stale")
    (tmp_path / "enum-encode.out").write_bytes(b"stale")
    with pytest.raises(SystemExit, match="no golden case named nonesuch"):
        regenerate(["enum-decode", "nonesuch"])
    assert (tmp_path / "enum-decode.out").read_bytes() == b"stale"
    regenerate(["enum-decode", "error-enum-decode"])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "enum-decode.out", "enum-encode.out", "error-enum-decode.err"]
    assert (tmp_path / "enum-decode.out").read_bytes() == expected
    assert (tmp_path / "enum-encode.out").read_bytes() == b"stale"


if __name__ == "__main__":
    os.chdir(ROOT)
    regenerate(sys.argv[1:])
