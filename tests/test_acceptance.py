"""Acceptance gate: one test per criterion, at the criterion's own tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Expected values are either fixed by the workbench's worked
examples, verified constants, or recomputed here by independent oracles
(characteristic-polynomial roots, a prime sieve, direct summation, exhaustive
scans) -- never copied from the implementation under test.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

from hyperlab import aqc, cli, linalg, tae, turing, zeno
from hyperlab.tae import WheelExperiment

from conftest import charpoly_eigenvalues, random_hermitian, self_loop_doc, successor_doc


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {name}")
        raise
    print(f"[PASS] criterion {num:02d}: {name}")


# norm drifts of every evolution performed by this module (criterion 6 sweeps them)
_DRIFTS: list[float] = []


def _evolve_x_minus_2(total_time: float, dt: float = 0.01):
    poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [1]], [-2, [0]]]})
    cutoff = 4
    scan = aqc.scan_levels(poly, cutoff)
    result = aqc.evolve_from_uniform(scan, total_time, dt)
    _DRIFTS.append(result.norm_drift)
    # summed population of every minimiser, found by the exact oracle; the
    # state is c_j / sqrt(m_j) at each of the m_j points of level j, the
    # levels being the distinct values of D**2 in increasing order
    order = [(x,) for x in range(cutoff + 1)]
    squares = [poly.evaluate(n) ** 2 for n in order]
    levels = sorted(set(squares))
    populations = [abs(result.amplitudes[levels.index(p)]) ** 2 / squares.count(p)
                   for p in squares]
    _, winners = aqc.exact_ground_oracle(poly, cutoff)
    overlap = sum(populations[order.index(w)] for w in winners) / sum(populations)
    return result, overlap


def test_criterion_01_rate_constant_consistency():
    with criterion(1, "frequency-alphabet rate constant"):
        from hyperlab import limits
        start = time.monotonic()
        check = limits.rate_constant_consistency()
        elapsed = time.monotonic() - start
        assert 2.80e18 <= check["computed_half_c_over_a"] <= 2.86e18
        assert check["relative_gap"] < 0.005
        assert elapsed < 1e-3


def test_criterion_02_zeno_accounting():
    with criterion(2, "exact dyadic step times and budget claims"):
        start = time.monotonic()
        for n in range(40):
            assert zeno.zeno_time(n) == sum(Fraction(1, 2**i) for i in range(n + 1))
        n = 10**6
        assert (2 - zeno.zeno_time(n)) * 2**n == 1  # exact dyadic at n = 1e6
        steps = zeno.decelerated_steps_within_budget
        assert steps(64) - steps(1) == 6
        assert steps(2**1000) - steps(1) == 1000
        assert time.monotonic() - start < 1.0


def test_criterion_03_tensor_fixture():
    with criterion(3, "NOT (x) NOT is the 4x4 anti-diagonal"):
        gate = linalg.matrix([[0, 1], [1, 0]])
        expected = np.zeros((4, 4), dtype=np.complex128)
        for i in range(4):
            expected[i, 3 - i] = 1.0
        got = linalg.tensor_product(gate, gate)
        assert got.shape == (4, 4)
        assert np.array_equal(got, expected)  # bit-exact on 0/1 entries


def test_criterion_04_eigensolver_against_charpoly_oracle():
    with criterion(4, "eigensolver vs determinant-based oracle, 200 matrices"):
        rng = np.random.default_rng(404)
        start = time.monotonic()
        for k in range(200):
            n = 1 + k % 8
            h = random_hermitian(rng, n)
            es = linalg.hermitian_eigensystem(h)
            assert np.max(np.abs(es.values - charpoly_eigenvalues(h))) < 1e-8
            scale = max(1.0, float(np.linalg.norm(h)))
            assert abs(es.values.sum() - np.trace(h).real) <= 1e-9 * scale
            shift = linalg.hermitian_eigensystem(h + 1.25 * np.eye(n))
            assert np.max(np.abs(shift.values - (es.values + 1.25))) <= 1e-9 * scale
        assert time.monotonic() - start < 10.0


def test_criterion_05_aqc_end_to_end():
    with criterion(5, "ground-state decision pipeline (cutoff-qualified)"):
        start = time.monotonic()
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [1]], [-2, [0]]]})
        report = aqc.decide(poly, cutoff=4, total_time=50.0, dt=0.01,
                            shots=1000, seed=7)
        assert report.verdict == "solvable-with-witness"
        assert report.witness == [2]
        _DRIFTS.append(report.norm_drift)

        _, overlap_50 = _evolve_x_minus_2(50.0)
        assert overlap_50 >= 0.9

        # no-solution fixture; dt chosen to respect the integrator's stability
        # bound for this operator's spectral radius of 225
        poly2 = aqc.parse_polynomial({"vars": 1, "terms": [[2, [1]], [-1, [0]]]})
        report2 = aqc.decide(poly2, cutoff=8, total_time=5.0, dt=1e-4,
                             shots=1000, seed=7)
        assert report2.verdict == "no-solution-up-to-cutoff"
        assert report2.ground_energy == 1
        assert "cutoff" in report2.note
        _DRIFTS.append(report2.norm_drift)

        overlaps = [(_evolve_x_minus_2(float(t))[1]) for t in (1, 5, 25, 125)]
        for earlier, later in zip(overlaps, overlaps[1:]):
            assert later >= earlier - 0.02
        assert time.monotonic() - start < 60.0


def test_criterion_06_norm_conservation_and_phases():
    with criterion(6, "unitarity of the integrator"):
        # every level equal to c: all H(s) commute, so psi evolves exactly to
        # e^{-icT/2} (e^{-iT/2} (psi - m) + m), m the mean amplitude of psi
        c, total_time = 3.0, 1.0
        # each of the 5 points its own level: the full 5-point Strang loop
        psi = np.array([0.1, 0.7, -0.2j, 0.3 + 0.1j, 0.5])
        psi = psi / np.linalg.norm(psi)
        result = aqc.evolve_levels([c] * 5, [1] * 5, psi.tolist(), total_time, 0.002)
        _DRIFTS.append(result.norm_drift)
        state = np.array(result.amplitudes)
        m = psi.mean()
        expected = np.exp(-0.5j * c * total_time) * (
            np.exp(-0.5j * total_time) * (psi - m) + m)
        assert np.max(np.abs(state / np.linalg.norm(state) - expected)) < 1e-12

        _evolve_x_minus_2(25.0)
        assert _DRIFTS, "no evolution ran"
        assert max(_DRIFTS) <= 1e-6


def test_criterion_07_pairing_roundtrip():
    with criterion(7, "pairing roundtrip, exact below 1e5"):
        from hyperlab import pairing
        start = time.monotonic()
        canonical = 0
        for idx in range(10**5):
            x, y = pairing.pair_decode(idx)
            if pairing.is_canonical_pair(x, y):
                assert pairing.pair_index(x, y) == idx
                canonical += 1
        assert canonical > 8 * 10**4
        assert time.monotonic() - start < 1.0


def test_criterion_08_goldbach_stream():
    with criterion(8, "prime-pair stream, horizon 1e4, vs sieve oracle"):
        start = time.monotonic()
        horizon = 10**4
        stream = tae.goldbach_stream(horizon)
        assert stream.mind_changes == 0
        assert stream.final_verdict is True
        # independent sieve oracle over the same range
        flags = [False, False] + [True] * (horizon - 1)
        for p in range(2, int(horizon**0.5) + 1):
            if flags[p]:
                flags[p * p::p] = [False] * len(flags[p * p::p])
        answered = dict(stream.answers)
        for even in range(4, horizon + 1, 2):
            oracle = any(flags[p] and flags[even - p]
                         for p in range(2, even // 2 + 1))
            assert answered[even] == oracle
        assert time.monotonic() - start < 5.0


def test_criterion_09_ashby():
    with criterion(9, "wheel strategies: closed forms and Monte Carlo"):
        start = time.monotonic()
        big = WheelExperiment(1000, 0.5, 1)
        assert tae.ashby_expected(big) == (2.0**1000, 1000.0)
        # quoted companion figures are recorded but deliberately not asserted
        assert tae.QUOTED_CASE2_SECONDS != tae.ashby_expected(WheelExperiment(1000, 0.5, 2))[0]
        for n in (2, 5, 12):
            for strategy in tae.STRATEGIES:
                exp = WheelExperiment(n, 0.5, strategy, seed=3300 + 10 * n + strategy)
                mean, stderr = tae.ashby_simulate(exp, 10**5)
                assert abs(mean - tae.ashby_expected(exp)[0]) <= 3 * stderr
        assert time.monotonic() - start < 30.0


def test_criterion_10_tm_engine():
    with criterion(10, "machine engine: fixture, fuel monotonicity, halting flag"):
        successor = turing.load_machine(successor_doc())
        outcome = turing.run(successor, "111", fuel=100)
        assert outcome.kind == "halted"
        assert outcome.config.tape_text() == "1111"

        rng = np.random.default_rng(1010)
        corpus = []
        for i in range(8):
            corpus.append((successor, "1" * i))
        loop = turing.load_machine(self_loop_doc())
        for _ in range(4):
            corpus.append((loop, ""))
        for _ in range(8):
            doc = _random_machine_doc(rng)
            corpus.append((turing.load_machine(doc), "1" * int(rng.integers(3))))
        assert len(corpus) == 20

        for machine, text in corpus:
            first = turing.run(machine, text, fuel=60)
            if first.kind != "out-of-fuel":
                for fuel in (first.config.steps + 1, 120, 700):
                    again = turing.run(machine, text, fuel=max(fuel, 1))
                    assert again.kind == first.kind
                    assert again.config.steps == first.config.steps
            flag, elapsed, _ = zeno.atm_halting_flag(machine, text, fuel=60)
            assert (flag == 1) == (
                turing.run(machine, text, fuel=60).kind == "halted")
            assert elapsed < 2


def _random_machine_doc(rng: np.random.Generator) -> dict:
    states = ["s0", "s1", "s2", "halt"]
    symbols = ["_", "1"]
    transitions = []
    for state in states[:-1]:
        for sym in symbols:
            if rng.random() < 0.85:
                transitions.append({
                    "from": state, "read": sym,
                    "to": states[int(rng.integers(len(states)))],
                    "write": symbols[int(rng.integers(2))],
                    "move": ["l", "n", "r"][int(rng.integers(3))],
                })
    return {"blank": "_", "alphabet": symbols, "states": states,
            "initial": "s0", "finals": ["halt"], "transitions": transitions}


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "seeded CLI reports are byte-identical"):
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(json.dumps({"vars": 1, "terms": [[1, [1]], [-2, [0]]]}))
        invocations = [
            ["tae", "ashby", "--wheels", "5", "--p", "0.5", "--strategy", "1",
             "--simulate", "--trials", "20000", "--seed", "31"],
            ["tae", "bogosort", "--len", "6", "--seed", "31"],
            ["aqc", "solve", str(poly_path), "--cutoff", "3", "--time", "5",
             "--dt", "0.01", "--shots", "400", "--seed", "31"],
            ["--format", "csv", "enum", "list", "--count", "25"],
        ]
        for argv in invocations:
            runs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    status = cli.main(argv)
                assert status == 0, err.getvalue()
                runs.append(out.getvalue().encode("utf-8"))
            assert runs[0] == runs[1]
