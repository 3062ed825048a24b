import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)


def test_overlap_sweep_runs_and_trends_upward():
    proc = run_script("overlap_sweep.py", "fixtures/x_minus_2.json",
                      "--cutoff", "4", "--times", "1", "25", "--dt", "0.01")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["exact_ground_energy"] == 0
    overlaps = [row["ground_overlap"] for row in report["sweep"]]
    assert overlaps[1] > overlaps[0]


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


@pytest.mark.parametrize("name, args, kind", [
    ("wheel_strategies.py", ["--wheels", "2", "--trials", "20000000"], "resource-error"),
    # 8 variables at cutoff 9: 10**8 lattice points, refused before the scan
    ("overlap_sweep.py", ["{big}", "--cutoff", "9"], "resource-error"),
    ("overlap_sweep.py", ["{missing}"], "io-error"),
], ids=["trials-past-budget", "lattice-past-budget", "missing-document"])
def test_failures_are_structured_json(tmp_path, name, args, kind):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vars": 8, "terms": [[1, [1] * 8], [-1, [0] * 8]]}))
    missing = tmp_path / "missing.json"
    start = time.monotonic()
    proc = run_script(name, *[a.format(big=big, missing=missing) for a in args])
    assert time.monotonic() - start < 10.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == kind
