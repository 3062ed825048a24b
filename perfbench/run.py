"""Desk benchmark for the hyperlab command line.

    python3 perfbench/run.py --workload exact-heavy --seed 1 --seconds 45 --trace 0

Run from the root of a hyperlab checkout. One closed-loop client starts one
``python -m hyperlab.cli ...`` child at a time (``PYTHONPATH=src``) and waits
for it, running the workload's seeded invocation list for a fixed number of
passes. Every report is checked against the oracles in ``oracles.py``.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` one pass runs each invocation untraced and then traced; it
gives the per-layer metrics and the tracing overhead. A traced run also
traces the small coverage list, for the layers the workload never reaches.
The lines before the last describe the run: composition, environment, floors
and failures. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracer
import workloads

WORK_DIR = Path(".perfbench_work")
SETUP_PROBE = ("-c", "import hyperlab.cli as cli; cli.build_parser()")
INTERP_PROBE = ("-c", "pass")
PROBE_SAMPLES = 30
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10

# Seconds one pass of each list takes on a 2-core x86-64 machine at the seed
# commit. The pass count derives from --seconds and these constants only, so
# a faster program runs the same invocations, not more of them.
NOMINAL_PASS_S = {"exact-heavy": 17.5, "aqc-evolve": 10.5}

ENV_PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*")):
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), name, None)
        if fn is not None:
            threads = fn()
            break
print(json.dumps({"nproc": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas_threads": threads,
                  "machine": platform.machine()}))
"""


@dataclass
class Result:
    call: workloads.Call
    traced: bool
    wall_s: float
    rss_kb: int
    code: int
    stdout: Path
    stderr: bytes


def child_env() -> dict:
    """The environment of every child: src/ on the path and one BLAS thread.

    On a 2-vCPU machine shared with other tenants, OpenBLAS's default of one
    thread per core made the d >= 729 invocations 22-29 % slower and their
    spread from run to run 1.6-2.7 times wider (see README.md). With one
    thread the kernels are single-threaded, as the project README describes.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, out: Path) -> tuple[float, int, int, bytes]:
    """Run one interpreter child to completion: (wall s, max RSS KiB, exit code, stderr)."""
    err = out.with_suffix(".err")
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fout, stderr=ferr, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, err.read_bytes()


def probe(argv, env) -> float:
    """Wall seconds of one child that must succeed."""
    wall, _, code, err = run_child(argv, env, WORK_DIR / "probe.out")
    if code != 0:
        raise SystemExit(f"probe {argv} failed with exit {code}: {err[-400:]!r}")
    return wall


class Probes:
    """Set-up and interpreter floors, sampled at even intervals through a run.

    The machine's speed drifts over tens of seconds, so samples spread over
    the whole run give a steadier median than a burst taken at one moment.
    """

    def __init__(self, env, invocations: int):
        self.env = env
        self.stride = max(1, invocations // PROBE_SAMPLES)
        self.seen = 0
        self.setup_s: list[float] = []
        self.interp_s: list[float] = []

    def sample(self) -> None:
        self.setup_s.append(probe(SETUP_PROBE, self.env))
        self.interp_s.append(probe(INTERP_PROBE, self.env))

    def tick(self) -> None:
        """Called after each measured invocation."""
        self.seen += 1
        if self.seen % self.stride == 0 and len(self.setup_s) < PROBE_SAMPLES:
            self.sample()

    def medians(self) -> tuple[float, float]:
        while len(self.setup_s) < PROBE_SAMPLES:
            self.sample()
        return statistics.median(self.setup_s), statistics.median(self.interp_s)


def run_pass(calls, env, tag: str, probes: Probes, modes=(False,)) -> list[Result]:
    """One closed-loop pass over the list, one child at a time.

    With modes (False, True) each invocation runs untraced and then traced,
    back to back, so drift in machine speed hits both alike. Outputs stay on
    disk until checked after the pass; probe children run between
    invocations and are not part of any invocation's wall time.
    """
    results = []
    for i, call in enumerate(calls):
        for traced in modes:
            out = WORK_DIR / f"{tag}-{i}{'-traced' if traced else ''}.out"
            argv = call.argv
            if traced:
                argv = (str(Path(tracer.__file__).relative_to(Path.cwd())),
                        str(out.with_suffix(".spans")), *argv)
            wall, rss, code, err = run_child(argv, env, out)
            results.append(Result(call, traced, wall, rss, code, out, err))
        probes.tick()
    return results


class Verdicts:
    """Failure accounting and output checks across every pass of one run."""

    def __init__(self):
        self.digests: dict[tuple, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def judge(self, result: Result) -> bool:
        """True when the invocation succeeded with a correct report."""
        self.attempted += 1
        call = result.call
        reason = None
        if result.code != 0 or result.stderr:
            reason = "exit %d, %s" % (result.code, describe_stderr(result.stderr))
        else:
            stdout = result.stdout.read_bytes()
            digest = hashlib.sha256(stdout).hexdigest()
            known = self.digests.get(call.argv)
            if known is None:
                try:
                    oracles.check(call.check, call.fmt, stdout, call.params)
                    self.digests[call.argv] = digest
                except oracles.Mismatch as exc:
                    reason = f"mismatch: {exc}"
            elif known != digest:
                reason = "mismatch: stdout differs from an earlier run of the same invocation"
        if reason is None:
            return True
        self.failures.append({"call": call.label, "reason": reason[:300],
                              "known_defect": call.known_defect})
        return False

    @property
    def unexpected(self) -> list[dict]:
        """Failures other than a known defect failing the way it is known to."""
        return [f for f in self.failures
                if not (f["known_defect"] and f["reason"].startswith(f["known_defect"]))]


def describe_stderr(stderr: bytes) -> str:
    text = stderr.decode("utf-8", "replace").strip()
    lines = text.splitlines()
    if len(lines) == 1:
        try:
            doc = json.loads(lines[0])
            if isinstance(doc, dict) and "error" in doc:
                return f"structured error {doc['error']}"
        except json.JSONDecodeError:
            pass
    if "Traceback" in text:
        return "traceback: " + (lines[-1] if lines else "")
    return "stderr: " + text[-200:]


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND invocations beyond it: (value, percentile)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise SystemExit(f"{n} invocations are too few for a tail with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def emit(doc: dict) -> None:
    print(json.dumps(doc, allow_nan=False), flush=True)


def measure(calls, passes: int, env) -> tuple[dict, dict, Verdicts]:
    verdicts = Verdicts()
    probes = Probes(env, passes * len(calls))
    pass_walls, times_ms, rss_kb = [], [], 0
    for p in range(passes):
        results = run_pass(calls, env, f"p{p}", probes)
        pass_walls.append(sum(r.wall_s for r in results))
        for result in results:
            ok = verdicts.judge(result)
            times_ms.append(result.wall_s * 1000 if ok else math.inf)
            rss_kb = max(rss_kb, result.rss_kb)
            result.stdout.unlink()
    setup_s, interp_s = probes.medians()
    p50 = statistics.median(times_ms)
    tail_ms, percentile = tail(times_ms)
    if not math.isfinite(p50) or not math.isfinite(tail_ms):
        raise SystemExit("too many failed invocations to measure latency")
    emit({"cmd_ms.tail": {"percentile": round(percentile, 2), "n": len(times_ms),
                          "beyond": TAIL_BEYOND}})
    floors = {"interp_ms": interp_s * 1000, "setup_ms": setup_s * 1000}
    metrics = {
        "wall_s": (statistics.median(pass_walls), "s"),
        "cmd_ms.p50": (p50, "ms"),
        "cmd_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, floors, verdicts


def measure_traced(calls, cover, env) -> tuple[dict, dict, Verdicts]:
    verdicts = Verdicts()
    probes = Probes(env, len(calls) + len(cover))
    results = run_pass(calls, env, "t", probes, modes=(False, True))
    cover_results = run_pass(cover, env, "c", probes, modes=(False, True))
    plain_wall = sum(r.wall_s for r in results if not r.traced)
    traced_wall = sum(r.wall_s for r in results if r.traced)

    def spans_of(results):
        invocations = []
        for result in results:
            verdicts.judge(result)
            spans = result.stdout.with_suffix(".spans")
            if result.traced and spans.exists():  # a killed child leaves none
                invocations.append(json.loads(spans.read_text(encoding="utf-8")))
        return invocations

    setup_s, interp_s = probes.medians()
    metrics, by_dimension = tracer.layer_metrics(spans_of(results), interp_s * 1000)
    cover_metrics, _ = tracer.layer_metrics(spans_of(cover_results), interp_s * 1000)
    from_cover = [name for name, (value, _) in metrics.items() if value == 0]
    for name in from_cover:
        metrics[name] = cover_metrics[name]
    overhead = traced_wall / plain_wall - 1
    metrics["trace.overhead"] = (overhead, "ratio")
    emit({"trace_overhead": {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
                             "overhead": overhead}})
    emit({"from_coverage_list": from_cover,
          "note": "the workload never reaches these layers, so they are measured on the "
                  "coverage list"})
    if by_dimension:
        emit({"aqc_us_per_step_by_dimension": {str(d): round(v, 2)
                                               for d, v in by_dimension.items()},
              "note": "at small d the RK4 step cost is the interpreter floor (Python "
                      "overhead per step), not matvec arithmetic; only large d measures "
                      "the dense d x d products"})
    floors = {"interp_ms": interp_s * 1000, "import_ms": metrics["cli.import_ms"][0],
              "setup_ms": setup_s * 1000}
    return metrics, floors, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/hyperlab/cli.py").is_file():
        print("perfbench: run from the root of a hyperlab checkout "
              "(src/hyperlab/cli.py not found)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    sys.set_int_max_str_digits(0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    (WORK_DIR / "docs").mkdir(parents=True)
    try:
        env = child_env()
        calls, cover = workloads.build(args.workload, args.seed, WORK_DIR / "docs")
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        composition = Counter(f"{call.check} {call.fmt}" for call in calls)
        emit({"workload": args.workload, "seed": args.seed,
              "passes": 1 if args.trace else passes,
              "invocations_per_pass": len(calls), "composition": composition,
              "client": "closed loop, 1 client, 1 child at a time"})
        probe(SETUP_PROBE, env)  # untimed warm-up: bytecode caches exist, as for users
        out = WORK_DIR / "env.out"
        run_child(("-c", ENV_PROBE), env, out)
        emit({"environment": json.loads(out.read_text())})
        if args.trace:
            metrics, floors, verdicts = measure_traced(calls, cover, env)
        else:
            metrics, floors, verdicts = measure(calls, passes, env)
        emit({"floors": floors})
        failed = len(verdicts.failures)
        emit({"failed_ratio": failed / verdicts.attempted, "failed": failed,
              "attempted": verdicts.attempted,
              "known_defect_failures": failed - len(verdicts.unexpected),
              "failures": verdicts.failures[:20]})
        for name, (value, unit) in metrics.items():
            print(f"# {args.workload} {name} = {value:.6g} {unit}")
        emit({"correct": not verdicts.unexpected,
              "attempted": verdicts.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}})
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
