"""Seeded workloads: invocation lists and the documents they read.

A seed changes symbol and state names, tape contents, coefficients, planted
roots, RNG seeds and the order of the list, and moves sizes by at most a few
percent, so every seed costs about the same. Sizes are fixed per workload;
they are what each workload is for.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from oracles import lattice_squares

CLI = ("-m", "hyperlab.cli")

# CPython refuses int -> str beyond this many digits (4300 by default). zeno
# reports print the exact Fraction 2 - 2**-n, so past n ~ 14283 they crash,
# and the failure reason starts with this; any other failure is unexpected.
INT_STR_DIGITS = sys.int_info.default_max_str_digits
ZENO_DIGIT_DEFECT = (f"exit 1, traceback: ValueError: Exceeds the limit ({INT_STR_DIGITS} digits) "
                     "for integer string conversion")

@dataclass(frozen=True)
class Call:
    """One child invocation: interpreter arguments plus what the oracle needs."""

    argv: tuple[str, ...]
    check: str
    params: dict = field(hash=False)
    fmt: str = "json"
    known_defect: str | None = None  # the start of the expected failure reason

    @property
    def label(self) -> str:
        """Short name for reports: documents and long tape inputs are abbreviated."""
        words = []
        for word in self.argv[len(CLI):]:
            if word.endswith(".json"):
                word = "DOC"
            elif len(word) > 16:
                word = f"<{len(word)} symbols>"
            words.append(word)
        return " ".join(words[:8])


def cli(*args, fmt: str = "json") -> tuple[str, ...]:
    return CLI + (("--format", "csv") if fmt == "csv" else ()) + tuple(str(a) for a in args)


def zeno_digits_exceeded(n: int) -> bool:
    """Whether 2**(n+1) - 1, the numerator of 2 - 2**-n, has too many digits."""
    return math.floor((n + 1) * math.log10(2)) + 1 > INT_STR_DIGITS


class Documents:
    """Writes generated machine and polynomial documents under one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, doc: dict) -> str:
        path = self.directory / f"doc{self.count}.json"
        self.count += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


# -- machines ------------------------------------------------------------------------


def _names(rng: random.Random, n: int) -> list[str]:
    return [f"q{rng.randrange(16**4):04x}{i}" for i in range(n)]


def _symbols(rng: random.Random, n: int) -> tuple[str, list[str]]:
    blank, *rest = rng.sample("_#.~", 1) + rng.sample("abcdefghjkmnpqrstuvwxyz0123456789", n)
    return blank, rest


def _machine(blank, symbols, states, initial, finals, rules) -> dict:
    return {
        "blank": blank, "alphabet": [blank, *symbols], "states": states,
        "initial": initial, "finals": finals,
        "transitions": [{"from": f, "read": r, "to": t, "write": w, "move": m}
                        for f, r, t, w, m in rules],
    }


def scan_machine(rng: random.Random) -> tuple[dict, tuple[str, str]]:
    """Swap two symbols along the input, then append one mark: n + 1 steps."""
    blank, (a, b) = _symbols(rng, 2)
    scan, done = _names(rng, 2)
    rules = [(scan, a, scan, b, "r"), (scan, b, scan, a, "r"), (scan, blank, done, a, "n")]
    return _machine(blank, [a, b], [scan, done], scan, [done], rules), (a, b)


def palindrome_machine(rng: random.Random) -> tuple[dict, tuple[str, str]]:
    """Erase matching end symbols until the tape is empty: about n**2 / 2 steps."""
    blank, (a, b) = _symbols(rng, 2)
    start, carry_a, carry_b, check_a, check_b, back, accept, reject = _names(rng, 8)
    rules = [(start, a, carry_a, blank, "r"), (start, b, carry_b, blank, "r"),
             (start, blank, accept, blank, "n"),
             (back, a, back, a, "l"), (back, b, back, b, "l"), (back, blank, start, blank, "r")]
    for carry, check, keep, other in ((carry_a, check_a, a, b), (carry_b, check_b, b, a)):
        rules += [(carry, a, carry, a, "r"), (carry, b, carry, b, "r"),
                  (carry, blank, check, blank, "l"),
                  (check, keep, back, blank, "l"), (check, blank, accept, blank, "n"),
                  (check, other, reject, other, "n")]
    states = [start, carry_a, carry_b, check_a, check_b, back, accept, reject]
    return _machine(blank, [a, b], states, start, [accept, reject], rules), (a, b)


def doubling_machine(rng: random.Random) -> tuple[dict, str]:
    """Unary n -> 2n by marking and copying one mark at a time: about 3 n**2 steps."""
    blank, (one, mark, copy) = _symbols(rng, 3)
    take, right, left, convert, rewind, done = _names(rng, 6)
    rules = [(take, one, right, mark, "r"), (take, copy, convert, one, "r"),
             (take, blank, done, blank, "n"),
             (right, one, right, one, "r"), (right, copy, right, copy, "r"),
             (right, blank, left, copy, "l"),
             (left, one, left, one, "l"), (left, copy, left, copy, "l"),
             (left, mark, take, mark, "r"),
             (convert, copy, convert, one, "r"), (convert, blank, rewind, blank, "l"),
             (rewind, one, rewind, one, "l"), (rewind, mark, rewind, one, "l"),
             (rewind, blank, done, blank, "r")]
    states = [take, right, left, convert, rewind, done]
    return _machine(blank, [one, mark, copy], states, take, [done], rules), one


def _word(rng: random.Random, symbols, n: int) -> str:
    return "".join(rng.choice(symbols) for _ in range(n))


# -- polynomials -----------------------------------------------------------------------


def planted_polynomial(rng: random.Random, k: int, cutoff: int, cross: bool) -> dict:
    """Linear form with small coefficients (plus x0*x1 when asked), zero at a random point."""
    root = [rng.randint(0, cutoff) for _ in range(k)]
    terms = [[rng.choice((-2, -1, 1, 2)), [int(i == j) for j in range(k)]] for i in range(k)]
    if cross and k >= 2:
        terms.append([rng.choice((-1, 1)), [1, 1] + [0] * (k - 2)])
    constant = -sum(c * math.prod(x**e for x, e in zip(root, exps)) for c, exps in terms)
    return {"vars": k, "terms": terms + [[constant, [0] * k]]}


def cubic_polynomial(rng: random.Random, terms: int) -> dict:
    """Three variables, distinct monomials of total degree 1..3, coefficients in -3..3."""
    monomials = [[a, b, c] for a in range(4) for b in range(4) for c in range(4)
                 if 1 <= a + b + c <= 3]
    chosen = rng.sample(monomials, terms - 1)
    body = [[rng.choice((-3, -2, -1, 1, 2, 3)), exps] for exps in chosen]
    return {"vars": 3, "terms": body + [[rng.randint(-20, 20), [0, 0, 0]]]}


# -- workloads ---------------------------------------------------------------------------


def exact_heavy(rng: random.Random, docs: Documents) -> list[Call]:
    # The three long tm runs, the middle aqc scan and the ashby simulation
    # cost about the same, so the median invocation falls inside that group.
    # The traced tm run and the two enum lists also cost about the same, and
    # they are the slowest invocations that complete. With three passes the
    # 2 known crashes per pass, counted as infinitely slow, take the top 6
    # places, so the 11th-slowest invocation, which sets the tail, is the
    # median of these 9 rather than the edge of a smaller group.
    calls = []

    def tm_run(doc, text, trace=False):
        calls.append(Call(cli("tm", "run", docs.write(doc), "--input", text,
                              *(["--trace"] if trace else [])),
                          "tm-run", {"machine": doc, "input": text, "fuel": 10**6,
                                     "trace": trace}))

    scan, scan_symbols = scan_machine(rng)
    tm_run(scan, _word(rng, scan_symbols, 120000 - rng.randint(0, 999)))
    tm_run(scan, _word(rng, scan_symbols, 2700 + rng.randint(0, 20)), trace=True)
    pal, pal_symbols = palindrome_machine(rng)
    half = _word(rng, pal_symbols, 262 + rng.randint(0, 2))
    tm_run(pal, half + half[::-1])
    dbl, one = doubling_machine(rng)
    tm_run(dbl, one * (252 + rng.randint(0, 2)))

    scan_path = docs.write(scan)
    for length in (3 + rng.randint(0, 3), 2000 + rng.randint(0, 99),
                   12000 + rng.randint(0, 999), 100000 - rng.randint(0, 999)):
        text = _word(rng, scan_symbols, length)
        calls.append(Call(cli("zeno", "halting", scan_path, "--input", text), "zeno-halting",
                          {"machine": scan, "input": text, "fuel": 10**6},
                          known_defect=ZENO_DIGIT_DEFECT if zeno_digits_exceeded(length + 1)
                          else None))
    for n in (14000 - rng.randint(0, 999), 14500 + rng.randint(0, 999)):
        calls.append(Call(cli("zeno", "time", "--n", n), "zeno-time", {"n": n},
                          known_defect=ZENO_DIGIT_DEFECT if zeno_digits_exceeded(n) else None))

    horizon = 100000 - 2 * rng.randint(0, 499)
    calls.append(Call(cli("tae", "goldbach", "--horizon", horizon), "goldbach",
                      {"horizon": horizon}))
    for fmt in ("json", "csv"):
        count = 100000 - rng.randint(0, 999)
        calls.append(Call(cli("enum", "list", "--count", count, fmt=fmt), "enum-list",
                          {"count": count}, fmt=fmt))
    for _ in range(2):
        s = rng.randrange(10**6)
        calls.append(Call(cli("tae", "bogosort", "--len", 8, "--memo", "--seed", s),
                          "bogosort", {"length": 8, "seed": s}))
    for cutoff in (21, 39, 52):
        poly = cubic_polynomial(rng, 8)
        calls.append(Call(cli("aqc", "solve", docs.write(poly), "--cutoff", cutoff,
                              "--oracle-only"),
                          "aqc-oracle", {"poly": poly, "cutoff": cutoff}))
    s = rng.randrange(10**6)
    calls.append(Call(cli("tae", "ashby", "--wheels", 10, "--p", 0.5, "--strategy", 3,
                          "--simulate", "--trials", 800000, "--seed", s),
                      "ashby", {"wheels": 10, "p": 0.5, "trials": 800000, "seed": s}))
    z, power, dt = rng.randint(4, 16), rng.choice([0.5, 1, 2]), rng.choice([0.25, 0.5, 1])
    calls.append(Call(cli("limits", "--symbols", z, "--power", power, "--dt", dt), "limits",
                      {"symbols": z, "power": power, "dt": dt}))
    return calls


# (variables, cutoff, RK4 steps): lattice dimension (cutoff + 1) ** variables
# from 5 to 1000, with fewer steps where each step costs more. Up to d = 225
# the steps give each invocation about the same cost, so the median
# invocation falls inside that group; d = 512 and d = 729 also cost about the
# same, so the 11th-slowest invocation, which sets the tail, falls inside
# that pair rather than on the edge between two groups.
EVOLVE_SLOTS = [(1, 4, 4500), (1, 10, 4500), (1, 20, 4000), (2, 4, 4000), (2, 6, 3000),
                (3, 3, 2500), (2, 10, 2000), (2, 14, 600), (3, 7, 400), (3, 8, 150),
                (2, 30, 150), (3, 9, 150)]
GUARD_MARGIN = 1.001  # dt sits this factor under the dt * max||H|| <= 0.5 guard


def evolve_call(rng: random.Random, docs: Documents, k: int, cutoff: int, steps: int) -> Call:
    """aqc solve with evolution on a planted polynomial, dt just under the guard."""
    poly = planted_polynomial(rng, k, cutoff, cross=rng.random() < 0.5)
    norm = max(1, int(lattice_squares(poly, cutoff).max()))
    dt = 0.5 / (norm * GUARD_MARGIN)
    total_time = (steps - 0.5) * dt
    s = rng.randrange(10**6)
    return Call(cli("aqc", "solve", docs.write(poly), "--cutoff", cutoff,
                    "--time", repr(total_time), "--dt", repr(dt), "--shots", 1000, "--seed", s),
                "aqc-solve", {"poly": poly, "cutoff": cutoff, "shots": 1000, "seed": s})


def aqc_evolve(rng: random.Random, docs: Documents) -> list[Call]:
    return [evolve_call(rng, docs, k, cutoff, steps) for k, cutoff, steps in EVOLVE_SLOTS]


def coverage(rng: random.Random, docs: Documents) -> list[Call]:
    """One small invocation for each layer, run only in traced runs.

    A workload's per-layer metric whose layer its own invocations never reach
    (turing on aqc-evolve, propagation on exact-heavy) is taken from these,
    so every per-layer metric is a measurement on every workload.
    """
    scan, symbols = scan_machine(rng)
    scan_path = docs.write(scan)
    text = _word(rng, symbols, 20000 + rng.randint(0, 99))
    short = _word(rng, symbols, 1000 + rng.randint(0, 99))
    n = 1000 + rng.randint(0, 99)
    horizon = 10000 - 2 * rng.randint(0, 49)
    count = 10000 - rng.randint(0, 99)
    z, power, dt = rng.randint(4, 16), rng.choice([0.5, 1, 2]), rng.choice([0.25, 0.5, 1])
    bogo_seed, ashby_seed = rng.randrange(10**6), rng.randrange(10**6)
    return [
        Call(cli("tm", "run", scan_path, "--input", text), "tm-run",
             {"machine": scan, "input": text, "fuel": 10**6, "trace": False}),
        Call(cli("zeno", "halting", scan_path, "--input", short), "zeno-halting",
             {"machine": scan, "input": short, "fuel": 10**6}),
        Call(cli("zeno", "time", "--n", n), "zeno-time", {"n": n}),
        Call(cli("tae", "goldbach", "--horizon", horizon), "goldbach", {"horizon": horizon}),
        Call(cli("tae", "bogosort", "--len", 6, "--memo", "--seed", bogo_seed), "bogosort",
             {"length": 6, "seed": bogo_seed}),
        Call(cli("tae", "ashby", "--wheels", 8, "--p", 0.5, "--strategy", 3, "--simulate",
                 "--trials", 100000, "--seed", ashby_seed),
             "ashby", {"wheels": 8, "p": 0.5, "trials": 100000, "seed": ashby_seed}),
        Call(cli("enum", "list", "--count", count), "enum-list", {"count": count}),
        Call(cli("limits", "--symbols", z, "--power", power, "--dt", dt), "limits",
             {"symbols": z, "power": power, "dt": dt}),
        evolve_call(rng, docs, 2, 4, 1000),
    ]


BUILDERS = {"exact-heavy": exact_heavy, "aqc-evolve": aqc_evolve}


def build(workload: str, seed: int, directory: Path) -> tuple[list[Call], list[Call]]:
    """The workload's invocation list and its coverage list for this seed.

    Documents are written to directory.
    """
    rng = random.Random(f"{workload}:{seed}")
    docs = Documents(directory)
    calls = BUILDERS[workload](rng, docs)
    rng.shuffle(calls)
    return calls, coverage(random.Random(f"coverage:{workload}:{seed}"), docs)
