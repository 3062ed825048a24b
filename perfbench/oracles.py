"""Independent reference answers for every invocation the benchmark runs.

Nothing here imports hyperlab: each check recomputes the report's facts from
the README's definitions (its own machine simulator, sieve, diagonal walk and
lattice scan) and raises Mismatch on the first disagreement.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np


class Mismatch(Exception):
    """A report disagrees with the reference answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def same_float(reported, exact, rel: float = 0.0) -> bool:
    """Reported float equals the correctly rounded exact value (or lies within rel)."""
    if rel == 0.0:
        return float(reported) == float(exact)
    return math.isclose(float(reported), float(exact), rel_tol=rel)


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# -- machines ----------------------------------------------------------------------

MOVES = {"l": -1, "n": 0, "r": 1}
TRACE_CAP = 10**4


def simulate(doc: dict, text: str, fuel: int, trace: bool = False) -> dict:
    """Run a single-tape machine document on a list-backed tape.

    Symbols are single characters, so a tape snapshot is a string: the cells
    from the leftmost to the rightmost non-blank one.
    """
    blank = doc["blank"]
    rules = {(r["from"], r["read"]): (r["to"], r["write"], MOVES[r["move"]])
             for r in doc["transitions"]}
    finals = set(doc["finals"])
    cells = list(text) or [blank]
    origin = 0  # list index of tape cell 0
    head, state, steps = 0, doc["initial"], 0
    snapshots = []

    def snapshot():
        body = "".join(cells)
        return {"state": state, "head": head, "steps": steps,
                "tape": body.strip(blank)}

    if trace:
        snapshots.append(snapshot())
    while True:
        if state in finals:
            outcome = "halted"
            break
        if steps >= fuel:
            outcome = "out-of-fuel"
            break
        rule = rules.get((state, cells[head + origin]))
        if rule is None:
            outcome = "stuck"
            break
        state, cells[head + origin], move = rule
        head += move
        if head + origin < 0:
            cells.insert(0, blank)
            origin += 1
        elif head + origin >= len(cells):
            cells.append(blank)
        steps += 1
        if trace and len(snapshots) < TRACE_CAP:
            snapshots.append(snapshot())
    final = snapshot()
    final.update(outcome=outcome, trace=snapshots if trace else None)
    return final


def check_tm_run(report: dict, p: dict) -> None:
    ref = simulate(p["machine"], p["input"], p["fuel"], p["trace"])
    expect(report["command"] == "tm run", "command")
    for key, got in (("outcome", report["outcome"]), ("steps", report["steps"]),
                     ("state", report["final_state"]), ("tape", report["tape"]),
                     ("head", report["head"])):
        expect(got == ref[key], f"tm run {key}: {got!r} != {ref[key]!r}")
    expect(report["oracle_consultations"] == 0, "oracle consultations")
    if p["trace"]:
        expect(report["trace"] == ref["trace"], "tm run trace differs")
    else:
        expect("trace" not in report, "untraced run carries a trace")


def zeno_elapsed(steps: int) -> Fraction:
    """Time through step index n of the base-1, ratio-1/2 cascade: 2 - 2**-n."""
    return Fraction(2**(steps + 1) - 1, 2**steps)


def check_zeno_halting(report: dict, p: dict) -> None:
    ref = simulate(p["machine"], p["input"], p["fuel"])
    elapsed = zeno_elapsed(ref["steps"])
    expect(report["flag"] == (1 if ref["outcome"] == "halted" else 0), "halting flag")
    expect(report["steps"] == ref["steps"], "halting steps")
    expect(report["outcome"] == ref["outcome"], "halting outcome")
    expect(report["elapsed_exact"] == fraction_text(elapsed), "elapsed_exact")
    expect(same_float(report["elapsed_seconds"], elapsed), "elapsed_seconds")
    expect(report["fuel_bounded"] is True, "fuel_bounded")


def check_zeno_time(report: dict, p: dict) -> None:
    exact = zeno_elapsed(p["n"])
    expect(report["n"] == p["n"], "zeno n")
    expect(report["seconds_exact"] == fraction_text(exact), "seconds_exact != 2 - 2**-n")
    expect(same_float(report["seconds"], exact), "seconds")
    expect(report["limit_seconds"] == 2.0, "limit_seconds")


# -- trial and error ----------------------------------------------------------------


def check_goldbach(report: dict, p: dict) -> None:
    horizon = p["horizon"]
    sieve = bytearray([1]) * (horizon + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(horizon) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, horizon + 1, i)))
    primes = [i for i in range(2, horizon + 1) if sieve[i]]
    answers, verdicts = 0, []
    for even in range(4, horizon + 1, 2):
        ok = False
        for q in primes:
            if q > even // 2:
                break
            if sieve[even - q]:
                ok = True
                break
        answers += 1
        verdicts.append(ok)
        last = even
        if not ok:
            break
    changes = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    expect(report["horizon"] == horizon, "goldbach horizon")
    expect(report["final_verdict"] == verdicts[-1], "goldbach verdict")
    expect(report["answers"] == answers, "goldbach answer count")
    expect(report["last_examined"] == last, "goldbach last examined")
    expect(report["mind_changes"] == changes, "goldbach mind changes")


def check_bogosort(report: dict, p: dict) -> None:
    n = p["length"]
    expect(sorted(report["input"]) == list(range(n)), "bogosort input is not a permutation")
    expect(report["sorted"] == list(range(n)), "bogosort result is not sorted")
    expect(report["gave_up"] is False, "bogosort gave up")
    expect(1 <= report["tries"] <= math.factorial(n), "memoized bogosort tried more than n!")
    expect(report["memoized"] is True and report["seed"] == p["seed"], "bogosort echo")


def wheel_mean(n: int, p: float) -> float:
    """Mean spins to grand success under strategy 3, by inclusion-exclusion over wheels."""
    q = 1.0 - p
    return sum((-1) ** (k + 1) * math.comb(n, k) / (1.0 - q**k) for k in range(1, n + 1))


def check_monte_carlo(mean, stderr, expected: float) -> None:
    expect(float(stderr) > 0 and abs(float(mean) - expected) <= 6 * float(stderr),
           f"Monte Carlo mean {mean} is more than 6 standard errors from {expected}")


def check_ashby(report: dict, p: dict) -> None:
    expected = wheel_mean(p["wheels"], p["p"])
    expect(report["wheels"] == p["wheels"], "ashby wheels")
    expect(same_float(report["expected_seconds"], expected, rel=1e-8), "ashby expected")
    expect(same_float(report["expected_log2"], math.log2(expected), rel=1e-8), "ashby log2")
    check_monte_carlo(report["simulated_mean_seconds"], report["simulated_standard_error"],
                      expected)
    expect(report["trials"] == p["trials"] and report["seed"] == p["seed"], "ashby echo")


# -- limits ---------------------------------------------------------------------

C, H, BOHR = 299_792_458.0, 6.62607015e-34, 5.29177210903e-11


def check_limits(report: dict, p: dict) -> None:
    z = p["symbols"]
    distance = 2 * BOHR * z ** (1 / 3)
    want = {
        "min_symbol_volume_m3": 4 / 3 * math.pi * BOHR**3 * z,
        "min_symbol_distance_m": distance,
        "max_frequency_from_alphabet_hz": C / distance,
        "max_frequency_from_power_hz": math.sqrt(2 * math.pi * p["power"] / H),
        "min_step_energy_j": H / (2 * math.pi * p["dt"]),
        "computed_half_c_over_a": C / BOHR / 2,
    }
    for key, value in want.items():
        expect(same_float(report[key], value, rel=1e-12), f"limits {key}")
    expect(report["frequency_alphabet_product_ok"] is True, "limits product check")


# -- enumeration ----------------------------------------------------------------


def diagonal_pairs(count: int):
    """Walk the diagonals x + y = w in order of y: (w, 0), (w-1, 1), ..., (0, w)."""
    w = y = 0
    for index in range(count):
        yield index, w - y, y
        y += 1
        if y > w:
            w, y = w + 1, 0


def check_enum_entry(entry: dict, index: int, a: int, b: int) -> None:
    scale = 10**b
    g = math.gcd(a, scale)
    canonical = b == 0 if a == 0 else a % 10 != 0
    expect((entry["index"], entry["a"], entry["b"]) == (index, a, b), f"enum entry {index}: pair")
    expect(entry["value_exact"] == f"{a // g}/{scale // g}", f"enum entry {index}: value_exact")
    expect(float(entry["value"]) == a / scale, f"enum entry {index}: value")
    expect(entry["canonical"] is canonical, f"enum entry {index}: canonical")


def check_enum_list(entries: list, p: dict) -> None:
    expect(len(entries) == p["count"], "enum list length")
    for entry, (index, a, b) in zip(entries, diagonal_pairs(p["count"])):
        check_enum_entry(entry, index, a, b)


# -- polynomials ------------------------------------------------------------------


def lattice_squares(doc: dict, cutoff: int) -> np.ndarray:
    """D**2 at every lattice point, flattened in lexicographic order."""
    k = doc["vars"]
    grid = np.indices((cutoff + 1,) * k).reshape(k, -1)
    bound = sum(abs(c) * cutoff ** sum(e) for c, e in doc["terms"])
    exact_int64 = bound * bound < 2**62
    if not exact_int64:
        grid = grid.astype(object)
    total = np.zeros(grid.shape[1], dtype=np.int64 if exact_int64 else object)
    for coeff, exps in doc["terms"]:
        term = np.full(grid.shape[1], coeff, dtype=total.dtype)
        for axis, e in enumerate(exps):
            if e:
                term = term * grid[axis] ** e
        total = total + term
    return total * total


def evaluate(doc: dict, point) -> int:
    return sum(c * math.prod(x**e for x, e in zip(point, exps)) for c, exps in doc["terms"])


def occupation(index: int, k: int, cutoff: int) -> list[int]:
    digits = []
    for _ in range(k):
        index, n = divmod(index, cutoff + 1)
        digits.append(n)
    return digits[::-1]


def check_aqc_oracle(report: dict, p: dict) -> None:
    squares = lattice_squares(p["poly"], p["cutoff"])
    best = int(squares.min())
    winners = [occupation(int(i), p["poly"]["vars"], p["cutoff"])
               for i in np.flatnonzero(squares == best)]
    expect(report["ground_energy"] == best, "oracle ground energy")
    expect(report["minimizers"] == winners, "oracle minimizers")
    expect(report["solvable_up_to_cutoff"] == (best == 0), "oracle verdict")


def check_aqc_solve(report: dict, p: dict) -> None:
    poly, cutoff = p["poly"], p["cutoff"]
    expect(report["ground_energy"] == int(lattice_squares(poly, cutoff).min()),
           "ground_energy differs from the brute-force minimum of D**2")
    samples = {tuple(int(x) for x in key.split(",")): n for key, n in report["samples"].items()}
    expect(sum(samples.values()) == p["shots"] == report["shots"], "sample count")
    expect(all(len(t) == poly["vars"] and all(0 <= x <= cutoff for x in t) for t in samples),
           "sample outside the lattice")
    candidate = min(samples, key=lambda t: (-samples[t], t))
    expect(report["success_probability_estimate"] == samples[candidate] / p["shots"],
           "success estimate")
    zero = evaluate(poly, candidate) == 0
    expect(report["verdict"] == ("solvable-with-witness" if zero else "no-solution-up-to-cutoff"),
           "verdict")
    if zero:
        expect(report["witness"] == list(candidate), "witness")
        expect(evaluate(poly, report["witness"]) == 0, "D(witness) != 0")
    expect(report["norm_drift"] >= 0 and report["seed"] == p["seed"], "aqc echo")


# -- report decoding ----------------------------------------------------------------


def _cell(text: str):
    """Undo the CSV writer's flattening of one scalar cell."""
    if text in ("True", "False"):
        return text == "True"
    if text.lstrip("-").isdigit():
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(stdout: bytes, fmt: str):
    text = stdout.decode("utf-8")
    if fmt == "json":
        return json.loads(text)
    return [{key: _cell(value) for key, value in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


CHECKS = {
    "tm-run": check_tm_run,
    "zeno-halting": check_zeno_halting,
    "zeno-time": check_zeno_time,
    "goldbach": check_goldbach,
    "bogosort": check_bogosort,
    "ashby": check_ashby,
    "limits": check_limits,
    "enum-list": check_enum_list,
    "aqc-oracle": check_aqc_oracle,
    "aqc-solve": check_aqc_solve,
}

# Checks that read a list of records; the others read one record.
LIST_CHECKS = {"enum-list"}


def check(kind: str, fmt: str, stdout: bytes, params: dict) -> None:
    """Raise Mismatch unless stdout is the correct report for the invocation."""
    try:
        parsed = parse_report(stdout, fmt)
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        raise Mismatch(f"unreadable report: {exc}") from None
    if kind not in LIST_CHECKS:
        if isinstance(parsed, list):
            expect(len(parsed) == 1, "expected one record")
            parsed = parsed[0]
    try:
        CHECKS[kind](parsed, params)
    except (KeyError, TypeError, ValueError) as exc:
        raise Mismatch(f"{kind}: malformed report ({exc!r})") from None
