import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, python_args=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, *python_args, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)


def test_overlap_sweep_runs_and_trends_upward():
    proc = run_script("overlap_sweep.py", "fixtures/x_minus_2.json",
                      "--cutoff", "4", "--times", "1", "25", "--dt", "0.01")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["exact_ground_energy"] == 0
    overlaps = [row["ground_overlap"] for row in report["sweep"]]
    assert overlaps[1] > overlaps[0]


# the sweep of x - 2 at cutoff 4, dt = 0.01, as recorded before the script moved
# onto the level path: (T, ground overlap, norm drift, steps)
OVERLAP_SWEEP_X_MINUS_2 = [
    (1, 0.22980919326586657, 4.4408920985006262e-16, 100),
    (5, 0.49405152036401379, 2.4424906541753444e-15, 500),
    (25, 0.99158021915623484, 2.4424906541753444e-15, 2500),
    (125, 0.99982138413013222, 4.6629367034256575e-15, 12500),
]


def test_overlap_sweep_keeps_its_recorded_rows():
    proc = run_script("overlap_sweep.py", "fixtures/x_minus_2.json", "--cutoff", "4",
                      "--times", "1", "5", "25", "125", "--dt", "0.01")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert {k: v for k, v in report.items() if k != "sweep"} == {
        "cutoff": 4, "dt": 0.01, "exact_ground_energy": 0, "exact_minimizers": [[2]]}
    assert len(report["sweep"]) == len(OVERLAP_SWEEP_X_MINUS_2)
    for row, (total_time, overlap, drift, steps) in zip(report["sweep"],
                                                        OVERLAP_SWEEP_X_MINUS_2):
        assert set(row) == {"total_time", "ground_overlap", "norm_drift", "steps"}
        assert row["total_time"] == total_time and row["steps"] == steps
        assert abs(row["ground_overlap"] - overlap) <= 1e-12
        assert abs(row["norm_drift"] - drift) <= 1e-14


# runs a script as __main__ and writes to stderr whether it imported numpy
NUMPY_PROBE = ("import runpy, sys\n"
               "sys.argv = sys.argv[1:]\n"
               "try:\n"
               "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
               "except SystemExit as done:\n"
               "    assert not done.code, done.code\n"
               "sys.stderr.write(repr('numpy' in sys.modules))\n")


def test_overlap_sweep_imports_no_numpy():
    proc = run_script("overlap_sweep.py", "fixtures/x_minus_2.json", "--cutoff", "4",
                      "--times", "1", "--dt", "0.01", python_args=("-c", NUMPY_PROBE))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sweep"][0]["steps"] == 100
    assert proc.stderr == "False"


def test_wheel_strategies_imports_no_numpy():
    proc = run_script("wheel_strategies.py", "--wheels", "2", "4", "--trials", "200",
                      python_args=("-c", NUMPY_PROBE))
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3
    assert proc.stderr == "False"


def test_overlap_sweep_sums_a_degenerate_ground_level(tmp_path):
    # x**2 - 3x + 2 = (x - 1)(x - 2) vanishes at both 1 and 2
    doc = tmp_path / "two_roots.json"
    doc.write_text(json.dumps(
        {"vars": 1, "terms": [[1, [2]], [-3, [1]], [2, [0]]]}))
    proc = run_script("overlap_sweep.py", str(doc),
                      "--cutoff", "4", "--times", "1", "25", "--dt", "0.01")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["exact_ground_energy"] == 0
    assert report["exact_minimizers"] == [[1], [2]]
    overlaps = [row["ground_overlap"] for row in report["sweep"]]
    assert overlaps[1] > overlaps[0]
    assert overlaps[1] >= 0.9


def test_wheel_strategies_emits_rows():
    proc = run_script("wheel_strategies.py", "--wheels", "2", "4",
                      "--trials", "2000", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("wheels,p,case1_analytic")
    assert len(lines) == 3


def test_wheel_strategies_emits_csv_for_one_wheel_count():
    proc = run_script("wheel_strategies.py", "--wheels", "8", "--trials", "200", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("wheels,p,case1_analytic")
    assert len(lines) == 2 and lines[1].startswith("8,0.5,")


@pytest.mark.parametrize("name, args, kind", [
    ("wheel_strategies.py", ["--wheels", "2", "--trials", "20000000"], "resource-error"),
    # 8 variables at cutoff 9: 10**8 lattice points, refused before the scan
    ("overlap_sweep.py", ["{big}", "--cutoff", "9"], "resource-error"),
    # 5000 variables: refused before the lattice's 5,001-digit size is computed
    ("overlap_sweep.py", ["{wide}", "--cutoff", "9"], "resource-error"),
    # D = 0 at cutoff 200,000: a ground level of 200,001 points, more than the
    # exact oracle lists
    ("overlap_sweep.py", ["{flat}", "--cutoff", "200000"], "resource-error"),
    ("overlap_sweep.py", ["{missing}"], "io-error"),
    # JSON the decoder cannot turn into values
    ("overlap_sweep.py", ["{long_integer}"], "parse-error"),
    ("overlap_sweep.py", ["{deep}"], "parse-error"),
], ids=["trials-past-budget", "lattice-past-budget", "variables-past-budget",
        "minimisers-past-budget", "missing-document", "integer-past-digit-limit", "nesting-past-recursion-limit"])
def test_failures_are_structured_json(tmp_path, name, args, kind):
    paths = {key: tmp_path / f"{key}.json"
             for key in ("big", "wide", "flat", "missing", "long_integer", "deep")}
    paths["big"].write_text(json.dumps({"vars": 8, "terms": [[1, [1] * 8], [-1, [0] * 8]]}))
    paths["wide"].write_text(json.dumps({"vars": 5000, "terms": []}))
    paths["flat"].write_text(json.dumps({"vars": 1, "terms": []}))
    paths["long_integer"].write_text('{"vars": 1, "terms": [[' + "9" * 5000 + ", [1]]]}")
    paths["deep"].write_text("[" * 10**5 + "]" * 10**5)
    start = time.monotonic()
    proc = run_script(name, *[a.format(**paths) for a in args])
    assert time.monotonic() - start < 10.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == kind
