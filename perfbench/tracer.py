"""Span tracing of one hyperlab invocation, from outside the package.

Child side, started in place of the plain invocation:

    python perfbench/tracer.py SPANS.json -m hyperlab.cli ARGS...

It imports hyperlab, wraps the public functions of every module at every
module attribute that binds them (``emit_report`` is imported by name into
``cli``, ``run`` into ``tae`` and ``zeno``), runs the invocation and writes
the spans it kept in memory when the invocation ends, also when it crashes.

Parent side, ``layer_metrics`` turns the span files of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("linalg", "turing", "tae", "zeno", "limits", "pairing", "aqc", "reporting", "cli")

# Public helpers called once per element inside a layer's own loop. A span
# each would cost more than the work it measures, so they run unwrapped and
# their time is the self time of the function that loops over them.
INNER_LOOP = {
    "tae.is_prime", "tae.has_prime_pair",
    "pairing.real_value", "pairing.diag_start", "pairing.pair_index", "pairing.pair_decode",
    "pairing.integer_sqrt", "pairing.is_canonical_pair",
    "reporting.format_float", "reporting.to_json", "reporting.to_csv",
    "turing.step", "turing.initial_configuration",
    "linalg.c_add", "linalg.c_mul", "linalg.conj", "linalg.modulus", "linalg.c_distance",
}


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Work counts read from a layer's arguments and return value."""
    if name == "turing.run":
        return {"steps": result.config.steps}
    if name == "aqc.evolve":
        return {"steps": result.steps, "drift": result.norm_drift}
    if name == "aqc.build_problem_hamiltonian":
        space = args[1] if len(args) > 1 else kwargs["space"]
        return {"dimension": space.dimension}
    if name == "aqc.exact_ground_oracle":
        poly = args[0] if args else kwargs["poly"]
        cutoff = args[1] if len(args) > 1 else kwargs["cutoff"]
        return {"points": (cutoff + 1) ** poly.num_vars}
    if name == "aqc.decide":
        return {"candidate_shots": round(result.success_probability_estimate * result.shots),
                "shots": result.shots}
    if name == "tae.bogosort":
        return {"tries": result.tries}
    if name == "tae.goldbach_stream":
        return {"evens": len(result.answers)}
    if name == "pairing.enumerate_reals":
        return {"entries": len(result)}
    if name == "reporting.emit_report":
        return {"bytes": result}
    return None


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index, counts], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None,
                           self.open[-1] if self.open else -1, None])
        self.open.append(index)
        return index

    def end(self, index: int) -> None:
        self.open.pop()
        self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.spans[index][4] = _counts(name, args, kwargs, result)
            return result

        return traced


def _patch(recorder: Recorder, modules: dict) -> None:
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__ or name in INNER_LOOP):
                continue
            wrapped[id(obj)] = recorder.wrap(name, obj)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])

    cli = modules["cli"]
    build_parser = cli.build_parser

    def build_parser_with_parse_span():
        parser = build_parser()
        parser.parse_args = recorder.wrap("cli.parse_args", parser.parse_args)
        return parser

    cli.build_parser = build_parser_with_parse_span


def main(argv: list[str]) -> int:
    spans_path, flag, module, *args = argv
    if (flag, module) != ("-m", "hyperlab.cli"):
        raise SystemExit(f"tracer: cannot trace {flag} {module}")
    recorder = Recorder()
    import_start = time.perf_counter_ns()
    modules = {layer: importlib.import_module(f"hyperlab.{layer}") for layer in LAYERS}
    import_ns = time.perf_counter_ns() - import_start
    _patch(recorder, modules)
    try:
        return modules["cli"].main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ns": import_ns, "spans": recorder.spans}, fh)


# -- parent side ---------------------------------------------------------------------


def _durations(spans: list) -> tuple[list[float], list[float]]:
    """Inclusive and self milliseconds of every span."""
    total = [(end - start) / 1e6 for _, start, end, _, _ in spans]
    own = list(total)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= total[index]
    return total, own


def layer_metrics(invocations: list[dict], interp_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus µs per RK4 step by dimension.

    Times are summed over the pass; ``cli.import_ms`` is the median per
    invocation. A layer that did not run reports 0.
    """
    ms: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list] = {}
    per_dimension: dict[int, list[float]] = {}
    linalg_ms = 0.0  # outermost linalg spans only, so nested calls count once
    for inv in invocations:
        spans = inv["spans"]
        total, self_ms = _durations(spans)
        dimension = None
        for index, (name, _, _, parent, info) in enumerate(spans):
            if name.startswith("linalg.") and not (
                    parent >= 0 and spans[parent][0].startswith("linalg.")):
                linalg_ms += total[index]
            ms[name] = ms.get(name, 0.0) + total[index]
            own[name] = own.get(name, 0.0) + self_ms[index]
            calls[name] = calls.get(name, 0) + 1
            if info:
                counts.setdefault(name, []).append(info)
                if name == "aqc.build_problem_hamiltonian":
                    dimension = info["dimension"]
                if name == "aqc.evolve" and dimension and info["steps"]:
                    per_dimension.setdefault(dimension, []).append(
                        1000 * self_ms[index] / info["steps"])

    def total_of(*names):
        return sum(ms.get(n, 0.0) for n in names)

    def own_of(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    def count(name, key, combine=sum):
        values = [c[key] for c in counts.get(name, [])]
        return combine(values) if values else 0

    def rate(amount, millis):
        return amount / (millis / 1000) if millis > 0 else 0.0

    run_ms = total_of("turing.run")
    steps = count("turing.run", "steps")
    tries = count("tae.bogosort", "tries")
    entries = count("pairing.enumerate_reals", "entries")
    enumerate_ms = total_of("pairing.enumerate_reals")
    propagate_ms = own.get("aqc.evolve", 0.0)
    evolve_steps = count("aqc.evolve", "steps")
    oracle_ms = total_of("aqc.exact_ground_oracle")
    shots = count("aqc.decide", "shots")
    metrics = {
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (statistics.median(inv["import_ns"] / 1e6 for inv in invocations), "ms"),
        "cli.parse_ms": (total_of("cli.build_parser", "cli.parse_args"), "ms"),
        "cli.dispatch_self_ms": (own.get("cli.dispatch", 0.0), "ms"),
        "reporting.emit_ms": (total_of("reporting.emit_report"), "ms"),
        "reporting.bytes": (count("reporting.emit_report", "bytes"), "bytes"),
        "turing.load_ms": (total_of("turing.load_machine"), "ms"),
        "turing.run_ms": (run_ms, "ms"),
        "turing.steps": (steps, "count"),
        "turing.steps_per_s": (rate(steps, run_ms), "1/s"),
        "tae.goldbach_ms": (total_of("tae.goldbach_stream"), "ms"),
        "tae.evens_examined": (count("tae.goldbach_stream", "evens"), "count"),
        "tae.bogosort_ms": (total_of("tae.bogosort"), "ms"),
        "tae.bogosort_tries": (tries, "count"),
        "tae.bogosort_useful_ratio": (calls.get("tae.bogosort", 0) / tries if tries else 0.0,
                                      "ratio"),
        "tae.ashby_ms": (sum(v for k, v in ms.items() if k.startswith("tae.ashby_")), "ms"),
        "zeno.self_ms": (own_of("zeno."), "ms"),
        "pairing.enumerate_ms": (enumerate_ms, "ms"),
        "pairing.entries_per_s": (rate(entries, enumerate_ms), "1/s"),
        "limits.report_ms": (total_of("limits.limits_report"), "ms"),
        "aqc.parse_ms": (total_of("aqc.parse_polynomial"), "ms"),
        "aqc.build_ms": (total_of("aqc.build_problem_hamiltonian",
                                  "aqc.build_initial_hamiltonian"), "ms"),
        "aqc.norm_bound_ms": (total_of("aqc.spectral_norm_bound"), "ms"),
        "aqc.propagate_ms": (propagate_ms, "ms"),
        "aqc.steps": (evolve_steps, "count"),
        "aqc.us_per_step": (1000 * propagate_ms / evolve_steps if evolve_steps else 0.0, "us"),
        "aqc.dimension_max": (count("aqc.build_problem_hamiltonian", "dimension", max), "count"),
        "aqc.measure_ms": (total_of("aqc.measure_sample"), "ms"),
        "aqc.oracle_ms": (oracle_ms, "ms"),
        "aqc.oracle_points_per_s": (rate(count("aqc.exact_ground_oracle", "points"), oracle_ms),
                                    "1/s"),
        "aqc.success_ratio": (count("aqc.decide", "candidate_shots") / shots if shots else 0.0,
                              "ratio"),
        "aqc.norm_drift_max": (count("aqc.evolve", "drift", max), "ratio"),
        "linalg.calls": (sum(v for k, v in calls.items() if k.startswith("linalg.")), "count"),
        "linalg.ms": (linalg_ms, "ms"),
    }
    by_dimension = {d: statistics.median(v) for d, v in sorted(per_dimension.items())}
    return metrics, by_dimension


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
