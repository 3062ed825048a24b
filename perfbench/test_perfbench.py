"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def in_checkout(monkeypatch):
    monkeypatch.chdir(ROOT)
    run.WORK_DIR.mkdir(exist_ok=True)
    yield
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)


def zeno_time(n: int, known: bool) -> workloads.Call:
    return workloads.Call(workloads.cli("zeno", "time", "--n", n), "zeno-time", {"n": n},
                          known_defect=workloads.ZENO_DIGIT_DEFECT if known else None)


def test_crash_is_counted_and_the_run_goes_on(in_checkout):
    calls = [zeno_time(14500, known=True), zeno_time(14500, known=False), zeno_time(3, False)]
    env = run.child_env()
    results = run.run_pass(calls, env, "t", run.Probes(env, invocations=10**9))
    verdicts = run.Verdicts()
    assert [verdicts.judge(r) for r in results] == [False, False, True]
    assert verdicts.attempted == 3 and len(verdicts.failures) == 2
    assert verdicts.failures[0]["reason"].startswith(workloads.ZENO_DIGIT_DEFECT)
    assert [f["known_defect"] for f in verdicts.unexpected] == [None]


def test_known_defect_failing_another_way_is_unexpected(in_checkout):
    call = zeno_time(14500, known=True)
    verdicts = run.Verdicts()
    for code, stderr in ((-9, b""), (1, b"Traceback (most recent call last):\nMemoryError\n")):
        out = run.WORK_DIR / "killed.out"
        out.write_bytes(b"")
        verdicts.judge(run.Result(call, False, 1.0, 0, code, out, stderr))
    assert len(verdicts.failures) == 2 and len(verdicts.unexpected) == 2


def test_zeno_digit_limit_sits_between_the_measured_sizes():
    assert not workloads.zeno_digits_exceeded(14000)
    assert workloads.zeno_digits_exceeded(14500)


def test_same_seed_gives_the_same_inputs(tmp_path):
    for name in workloads.BUILDERS:
        lists = []
        for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
            directory = tmp_path / name / sub
            directory.mkdir(parents=True)
            calls, cover = workloads.build(name, seed, directory)
            calls += cover
            docs = {p.name: p.read_text() for p in directory.iterdir()}
            lists.append(([c.argv for c in calls], docs))
        same = [[a.replace(str(tmp_path / name / "b"), "") for a in argv] for argv in lists[1][0]]
        first = [[a.replace(str(tmp_path / name / "a"), "") for a in argv] for argv in lists[0][0]]
        assert first == same and lists[0][1] == lists[1][1]
        assert lists[0][1] != lists[2][1] or lists[0][0] != lists[2][0]


def test_generated_machines_do_what_they_say():
    rng = random.Random(0)
    scan, (a, b) = workloads.scan_machine(rng)
    result = oracles.simulate(scan, a + a + b, fuel=100)
    assert (result["tape"], result["steps"], result["outcome"]) == (b + b + a + a, 4, "halted")
    pal, (a, b) = workloads.palindrome_machine(rng)
    result = oracles.simulate(pal, a + b + b + a, fuel=1000)
    assert result["tape"] == "" and result["state"] in pal["finals"][:1]
    assert oracles.simulate(pal, a + b, fuel=1000)["state"] == pal["finals"][1]
    dbl, one = workloads.doubling_machine(rng)
    result = oracles.simulate(dbl, one * 5, fuel=10**4)
    assert result["tape"] == one * 10 and result["outcome"] == "halted"


def test_oracles_reject_a_wrong_report():
    good = {"command": "zeno time", "n": 3, "seconds": 1.875, "seconds_exact": "15/8",
            "limit_seconds": 2.0}
    oracles.check("zeno-time", "json", json.dumps(good).encode(), {"n": 3})
    bad = dict(good, seconds_exact="16/8")
    with pytest.raises(oracles.Mismatch):
        oracles.check("zeno-time", "json", json.dumps(bad).encode(), {"n": 3})
    rows = "index,a,b,value,value_exact,canonical\n0,0,0,0,0/1,True\n1,1,0,1,1/1,True\n"
    oracles.check("enum-list", "csv", rows.encode(), {"count": 2})
    with pytest.raises(oracles.Mismatch):
        oracles.check("enum-list", "csv", rows.replace("1/1", "2/2").encode(), {"count": 2})


def test_tail_has_ten_invocations_beyond_it():
    value, percentile = run.tail([float(x) for x in range(1, 21)])
    assert (value, percentile) == (10.0, 50.0)
    with pytest.raises(SystemExit):
        run.tail([1.0] * 10)


def test_coverage_list_reaches_every_layer(tmp_path):
    for name in workloads.BUILDERS:
        _, cover = workloads.build(name, 1, tmp_path)
        checks = {call.check for call in cover}
        assert checks >= {"tm-run", "zeno-halting", "zeno-time", "goldbach", "bogosort", "ashby",
                          "enum-list", "limits", "aqc-solve"}
        assert not any(call.known_defect for call in cover)


def test_planted_polynomials_have_their_root_on_the_lattice():
    rng = random.Random(3)
    for k, cutoff, _ in workloads.EVOLVE_SLOTS:
        poly = workloads.planted_polynomial(rng, k, cutoff, cross=True)
        assert int(oracles.lattice_squares(poly, cutoff).min()) == 0


def test_traced_run_reports_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics, _ = tracer.layer_metrics([{"import_ns": 1, "spans": []}], interp_ms=1.0)
    assert [m["name"] for m in declared] == [*metrics, "trace.overhead"]
    assert all(metrics[m["name"]][1] == m["unit"] for m in declared if m["name"] in metrics)
