import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyperlab import aqc, linalg, variates
from hyperlab.errors import (
    DomainError,
    ResourceError,
    StabilityError,
    ValidationError,
)

from conftest import chi_square_upper, pooled_chi_square

X_MINUS_2 = {"vars": 1, "terms": [[1, [1]], [-2, [0]]]}
TWO_X_MINUS_1 = {"vars": 1, "terms": [[2, [1]], [-1, [0]]]}

# (x+1)**3 + (y+1)**3 + (z+1)**3 + c*x*y*z, pre-expanded, c = 1
CUBES_PLUS_XYZ = {"vars": 3, "terms": [
    [1, [3, 0, 0]], [3, [2, 0, 0]], [3, [1, 0, 0]],
    [1, [0, 3, 0]], [3, [0, 2, 0]], [3, [0, 1, 0]],
    [1, [0, 0, 3]], [3, [0, 0, 2]], [3, [0, 0, 1]],
    [3, [0, 0, 0]], [1, [1, 1, 1]],
]}


def lattice(num_vars: int, cutoff: int):
    """Every point of the lattice 0..cutoff per variable in lexicographic order, its
    basis order."""
    return itertools.product(range(cutoff + 1), repeat=num_vars)


def uniform_ket(num_vars: int, cutoff: int) -> np.ndarray:
    """The uniform superposition u over the lattice as a column vector."""
    d = (cutoff + 1) ** num_vars
    return np.full((d, 1), 1.0 / math.sqrt(d), dtype=np.complex128)


def start_operator(num_vars: int, cutoff: int) -> np.ndarray:
    """I - |u><u| as a dense d x d matrix, u the lattice's uniform ket."""
    u = uniform_ket(num_vars, cutoff)
    return linalg.identity(len(u)) - u @ u.conj().T


def interpolate_hamiltonian(num_vars: int, cutoff: int, diagonal: np.ndarray,
                            s: float) -> np.ndarray:
    """H(s) = (1 - s)(I - |u><u|) + s * diag(p) as a dense matrix; Hermitian for s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise DomainError("interpolation parameter must lie in [0, 1]")
    return ((1.0 - s) * start_operator(num_vars, cutoff)
            + s * np.diag(diagonal).astype(np.complex128))


def scan_diagonal(scan: aqc.LevelScan) -> np.ndarray:
    """D(n)**2 at every lattice point of the scan in basis order, term by term."""
    return np.array([float(scan.poly.evaluate(n) ** 2)
                     for n in lattice(scan.poly.num_vars, scan.cutoff)])


def level_index(scan: aqc.LevelScan) -> list[int]:
    """The level of every lattice point of the scan in basis order, from term-by-term
    values of D**2 numbered in increasing order."""
    squares = [scan.poly.evaluate(n) ** 2 for n in lattice(scan.poly.num_vars, scan.cutoff)]
    rank = {p: j for j, p in enumerate(sorted(set(squares)))}
    return [rank[p] for p in squares]


def problem_diagonal(poly: aqc.DiophantinePolynomial, cutoff: int) -> np.ndarray:
    return scan_diagonal(aqc.scan_levels(poly, cutoff))


def record_runs(patch) -> list[list[int]]:
    """Every run of D values the lattice scan yields from now on, in order."""
    runs, lattice_runs = [], aqc._lattice_runs
    patch.setattr(aqc, "_lattice_runs", lambda poly, cutoff: (
        runs.append(run) or (start, run) for start, run in lattice_runs(poly, cutoff)))
    return runs


def point_state(scan: aqc.LevelScan, evolution: aqc.LevelEvolution) -> np.ndarray:
    """The normalised amplitude at every point of a state constant on each level:
    coefficient c_j on level j is c_j / sqrt(m_j) at each of its m_j points."""
    per_level = np.array(evolution.amplitudes) / np.sqrt(scan.multiplicities)
    v = per_level[level_index(scan)]
    return v / np.linalg.norm(v)


class TestParsing:
    def test_linear_polynomial(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        assert poly.num_vars == 1
        assert poly.evaluate((2,)) == 0
        assert poly.evaluate((5,)) == 3

    def test_cubes_fixture_expands_to_eleven_monomials(self):
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        assert poly.num_vars == 3
        assert len(poly.terms) == 11
        for point in [(0, 0, 0), (1, 2, 3), (4, 5, 6)]:
            x, y, z = point
            assert poly.evaluate(point) == \
                (x + 1) ** 3 + (y + 1) ** 3 + (z + 1) ** 3 + x * y * z

    def test_duplicate_exponent_vectors_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            aqc.parse_polynomial({"vars": 1, "terms": [[1, [1]], [2, [1]]]})

    def test_zero_variables_rejected(self):
        with pytest.raises(ValidationError):
            aqc.parse_polynomial({"vars": 0, "terms": []})

    def test_zero_coefficients_dropped(self):
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[0, [1]], [3, [0]]]})
        assert len(poly.terms) == 1

    def test_exact_integer_evaluation(self):
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [20]]]})
        assert poly.evaluate((3,)) == 3**20  # exceeds float precision


class TestFockSpace:
    """The truncated mode space is the lattice 0..cutoff per variable, in basis order."""

    def test_dimension(self):
        # the scan counts (cutoff + 1)**k points, the d of the uniform start
        scan = aqc.scan_levels(aqc.parse_polynomial(CUBES_PLUS_XYZ), 4)
        assert sum(scan.multiplicities) == 125
        assert aqc.evolve_from_uniform(scan, 0.0, 0.01).amplitudes == [
            math.sqrt(m / 125) for m in scan.multiplicities]

    def test_lexicographic_order(self):
        assert list(lattice(2, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for num_vars, cutoff in [(1, 0), (1, 6), (2, 3), (3, 2), (4, 1), (2, 0)]:
            points = list(itertools.product(range(cutoff + 1), repeat=num_vars))
            assert len(points) == (cutoff + 1) ** num_vars
            assert [aqc._occupation(i, num_vars, cutoff) for i in range(len(points))] == points

    def test_negative_cutoff_is_refused_before_the_first_run(self, monkeypatch):
        poly = aqc.parse_polynomial(X_MINUS_2)
        scanned = record_runs(monkeypatch)
        for work in (lambda: aqc.exact_ground_oracle(poly, -1),
                     lambda: aqc.scan_levels(poly, -3),
                     lambda: aqc.decide(poly, -1, 1.0, 0.01, shots=10, seed=0)):
            with pytest.raises(DomainError, match="cutoff must be a natural number"):
                work()
        assert scanned == []


class TestProblemHamiltonian:
    def test_x_minus_2_diagonal(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        assert np.array_equal(problem_diagonal(poly, 4), [4, 1, 0, 1, 4])

    def test_entries_beyond_float_range_are_refused(self):
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [400]]]})
        with pytest.raises(DomainError, match="too large for a float"):
            aqc.decide(poly, 9, total_time=1.0, dt=0.01, shots=10, seed=0)

    def test_two_x_minus_1_has_positive_floor(self):
        poly = aqc.parse_polynomial(TWO_X_MINUS_1)
        assert np.min(problem_diagonal(poly, 8)) == 1.0

    def test_identity_polynomial_grounds_at_origin(self):
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [1]]]})
        assert problem_diagonal(poly, 6)[0] == 0.0

    def test_lattice_past_the_budget_is_refused_before_the_scan(self, monkeypatch):
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        scanned = record_runs(monkeypatch)
        with pytest.raises(ResourceError, match="budget"):
            aqc.scan_levels(poly, 500)
        assert scanned == []

    def test_ground_entry_matches_exact_oracle(self):
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        diagonal = problem_diagonal(poly, 3)
        energy, winners = aqc.exact_ground_oracle(poly, 3)
        assert np.min(diagonal) == energy
        assert diagonal[list(lattice(3, 3)).index(winners[0])] == energy

    def test_spectrum_agrees_with_eigensolver(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        h = np.diag(problem_diagonal(poly, 4))
        es = linalg.hermitian_eigensystem(h)
        energy, _ = aqc.exact_ground_oracle(poly, 4)
        assert abs(es.ground_value - energy) < 1e-9


class TestInitialHamiltonian:
    def test_dimension_two_matrix(self):
        assert np.allclose(start_operator(1, 1), [[0.5, -0.5], [-0.5, 0.5]])

    def test_uniform_state_is_ground(self):
        u = uniform_ket(1, 5)
        assert np.max(np.abs(start_operator(1, 5) @ u)) < 1e-14
        assert abs(linalg.norm(u) - 1) < 1e-12

    def test_spectrum_is_zero_then_ones(self):
        es = linalg.hermitian_eigensystem(start_operator(1, 3))
        assert np.allclose(es.values, [0, 1, 1, 1])


class TestInterpolation:
    @pytest.fixture
    def problem(self):
        return problem_diagonal(aqc.parse_polynomial(X_MINUS_2), 4)

    def test_endpoints(self, problem):
        assert np.array_equal(interpolate_hamiltonian(1, 4, problem, 0.0), start_operator(1, 4))
        assert np.array_equal(interpolate_hamiltonian(1, 4, problem, 1.0), np.diag(problem))

    def test_midpoint_is_mean_and_hermitian(self, problem):
        mid = interpolate_hamiltonian(1, 4, problem, 0.5)
        assert np.allclose(mid, (start_operator(1, 4) + np.diag(problem)) / 2)
        assert np.max(np.abs(mid - mid.conj().T)) < 1e-14

    def test_out_of_range_rejected(self, problem):
        with pytest.raises(DomainError):
            interpolate_hamiltonian(1, 4, problem, 1.5)


def _normalised_start(seed: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


class TestEvolve:
    """The level loop from the uniform start, and with unit multiplicities (each
    point its own level) from any start, which is the full d-point Strang loop."""

    # the largest step the guard lets through for x - 2 at cutoff 20, where max p = 18**2
    LARGEST_DT = aqc.STABILITY_LIMIT / 18**2

    def _evolve(self, total_time, dt, cutoff=4):
        """(scan, evolution, normalised point state) of x - 2 from the uniform start."""
        scan = aqc.scan_levels(aqc.parse_polynomial(X_MINUS_2), cutoff)
        result = aqc.evolve_from_uniform(scan, total_time, dt)
        return scan, result, point_state(scan, result)

    def test_zero_time_returns_initial_state(self):
        psi = _normalised_start(2, 5).tolist()
        result = aqc.evolve_levels([4.0, 1.0, 0.0, 1.0, 4.0], [1] * 5, psi, 0.0, 0.01)
        assert result.amplitudes == psi
        assert result.norm_drift == 0.0 and result.steps == 0
        scan, result, _ = self._evolve(0.0, 0.01)
        assert result.amplitudes == [math.sqrt(m / 5) for m in scan.multiplicities]

    def test_constant_diagonal_matches_analytic_phases(self):
        # every level equal to c: all H(s) commute, so psi evolves exactly to
        # e^{-icT/2} (e^{-iT/2} (psi - m) + m), m the mean amplitude of psi
        c, total_time = 7.0, 1.0
        psi = _normalised_start(4, 9)
        result = aqc.evolve_levels([c] * 9, [1] * 9, psi.tolist(), total_time, 0.002)
        state = np.array(result.amplitudes)
        m = psi.mean()
        expected = np.exp(-0.5j * c * total_time) * (
            np.exp(-0.5j * total_time) * (psi - m) + m)
        assert np.max(np.abs(state / np.linalg.norm(state) - expected)) < 1e-12

    def test_adiabatic_transfer_to_problem_ground(self):
        scan, _, state = self._evolve(50.0, 0.01)
        ground = linalg.hermitian_eigensystem(np.diag(scan_diagonal(scan))).ground_vector
        overlap = abs(linalg.inner_product(ground, linalg.ket(state))) ** 2
        assert overlap >= 0.9

    def test_norm_drift_small(self):
        assert self._evolve(25.0, 0.01)[1].norm_drift <= 1e-6

    def test_stability_guard(self):
        with pytest.raises(StabilityError, match="smaller step"):
            self._evolve(1.0, 0.2)  # dt * ||H|| = 0.8

    def test_largest_guarded_step_is_accurate(self):
        # cutoff 20, T = 50: 32,400 steps; the converged ground population is 0.390088
        dt = self.LARGEST_DT
        populations = [abs(self._evolve(50.0, step, cutoff=20)[2][2]) ** 2
                       for step in (dt, dt / 8)]
        assert abs(populations[0] - 0.390088) < 1e-5
        assert abs(populations[0] - populations[1]) < 1e-4

    def test_splitting_is_second_order(self):
        dt = self.LARGEST_DT
        coarse, fine, reference = [self._evolve(5.0, step, cutoff=20)[2]
                                   for step in (dt, dt / 2, dt / 16)]
        ratio = np.linalg.norm(coarse - reference) / np.linalg.norm(fine - reference)
        assert 3.0 <= ratio <= 5.0

    def test_structured_pair_keeps_the_norm(self):
        assert self._evolve(50.0, self.LARGEST_DT, cutoff=20)[1].norm_drift <= 1e-12


class TestMeasurement:
    # x - 2 at cutoff 4: level 0 is the point 2, level 1 the points 1 and 3
    SCAN = aqc.scan_levels(aqc.parse_polynomial(X_MINUS_2), 4)

    def test_basis_state_is_certain(self):
        assert aqc.sample_levels(self.SCAN, [1.0, 0.0, 0.0], shots=100, seed=3) == {(2,): 100}
        assert variates.multinomial(random.Random(3), 100, [0, 0, 1, 0, 0]) == {2: 100}

    def test_balanced_superposition_within_three_sigma(self):
        sigma = math.sqrt(10**5 * 0.25)
        within_level = aqc.sample_levels(self.SCAN, [0.0, 1.0, 0.0], shots=10**5, seed=11)
        across_levels = aqc.sample_levels(self.SCAN, [0.5, 0.5, 0.0], shots=10**5, seed=11)
        assert set(within_level) == {(1,), (3,)}
        for count in (within_level[(1,)], within_level[(3,)], across_levels[(2,)]):
            assert abs(count - 5e4) <= 3 * sigma

    def test_seed_determinism(self):
        a = aqc.sample_levels(self.SCAN, [0.2, 0.5, 0.3], shots=1000, seed=9)
        b = aqc.sample_levels(self.SCAN, [0.2, 0.5, 0.3], shots=1000, seed=9)
        assert a == b

    def test_zero_shots_rejected(self):
        with pytest.raises(DomainError):
            aqc.sample_levels(self.SCAN, [1.0, 0.0, 0.0], shots=0, seed=0)


class TestExactOracle:
    def test_x_minus_2(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        assert aqc.exact_ground_oracle(poly, 4) == (0, [(2,)])

    def test_cubes_with_negative_coupling(self):
        # c = -6 over an 11-point-per-mode lattice: the minimum is 9 at the
        # origin, where the polynomial evaluates to 3
        doc = dict(CUBES_PLUS_XYZ, terms=[
            t if t[1] != [1, 1, 1] else [-6, [1, 1, 1]]
            for t in CUBES_PLUS_XYZ["terms"]])
        poly = aqc.parse_polynomial(doc)
        energy, winners = aqc.exact_ground_oracle(poly, 10)
        assert energy == 9
        assert winners == [(0, 0, 0)]

    def test_resource_guard(self):
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        with pytest.raises(ResourceError):
            aqc.exact_ground_oracle(poly, 500)

    def test_values_past_the_bit_budget_are_refused_before_the_scan(self, monkeypatch):
        # x**(10**7) - 2 at cutoff 6: a short document whose values have 3 * 10**7 bits
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [10**7]], [-2, [0]]]})
        scanned = record_runs(monkeypatch)
        for work in (lambda: aqc.exact_ground_oracle(poly, 6),
                     lambda: aqc.scan_levels(poly, 6),
                     lambda: aqc.decide(poly, 6, 1.0, 0.01, shots=10, seed=0)):
            with pytest.raises(ResourceError, match="bits"):
                work()
        assert scanned == []

    def test_bit_budget_is_inclusive(self):
        # at cutoff 1, x**e - 1 has bits(1) + e * bits(1) + bits(2 terms) = e + 3
        at_budget = aqc.VALUE_BITS_BUDGET - 3
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [at_budget]], [-1, [0]]]})
        assert aqc.exact_ground_oracle(poly, 1) == (0, [(1,)])
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [at_budget + 1]], [-1, [0]]]})
        with pytest.raises(ResourceError, match="budget"):
            aqc.exact_ground_oracle(poly, 1)

    def test_minimiser_budget_is_inclusive_and_counts_only_the_final_minimum(
            self, monkeypatch):
        monkeypatch.setattr(aqc, "MINIMIZER_BUDGET", 5)
        monkeypatch.setattr(aqc, "RUN_LENGTH", 2)
        constant = _poly(1, [[3, [0]]])
        assert aqc.exact_ground_oracle(constant, 4) == (9, [(0,), (1,), (2,), (3,), (4,)])
        with pytest.raises(ResourceError, match="more than 5 minimisers"):
            aqc.exact_ground_oracle(constant, 5)
        # 1 - x + xy is 1 on the six points of the row x = 0, then 0 only at (1, 0)
        poly = _poly(2, [[1, [0, 0]], [-1, [1, 0]], [1, [1, 1]]])
        assert aqc.exact_ground_oracle(poly, 5) == (0, [(1, 0)])

    def test_memory_is_one_run_not_the_lattice(self):
        # x - 7 at cutoff 10**5: the last coordinate alone is 10**5 ints, 3.6 MB
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [1]], [-7, [0]]]})
        tracemalloc.start()
        try:
            assert aqc.exact_ground_oracle(poly, 10**5) == (0, [(7,)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDecide:
    def test_solvable_with_witness(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        report = aqc.decide(poly, cutoff=4, total_time=50.0, dt=0.01,
                            shots=1000, seed=7)
        assert report.verdict == "solvable-with-witness"
        assert report.witness == [2]
        assert poly.evaluate(report.witness) == 0
        assert report.success_probability_estimate >= 0.9

    def test_no_solution_up_to_cutoff(self):
        poly = aqc.parse_polynomial(TWO_X_MINUS_1)
        report = aqc.decide(poly, cutoff=8, total_time=5.0, dt=1e-4,
                            shots=1000, seed=7)
        assert report.verdict == "no-solution-up-to-cutoff"
        assert report.witness is None
        assert report.ground_energy == 1
        assert "cutoff" in report.note

    def test_two_variable_witness_is_verified(self):
        poly = aqc.parse_polynomial(
            {"vars": 2, "terms": [[1, [1, 0]], [1, [0, 1]], [-3, [0, 0]]]})
        report = aqc.decide(poly, cutoff=4, total_time=50.0, dt=0.01,
                            shots=1000, seed=7)
        assert report.verdict == "solvable-with-witness"
        assert poly.evaluate(report.witness) == 0

    def test_report_serialises(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        report = aqc.decide(poly, cutoff=2, total_time=5.0, dt=0.01,
                            shots=200, seed=1)
        doc = report._asdict()
        assert doc["verdict"] in {"solvable-with-witness", "no-solution-up-to-cutoff"}
        assert isinstance(doc["samples"], dict)

    def test_invalid_parameters(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        with pytest.raises(DomainError):
            aqc.decide(poly, cutoff=4, total_time=0.0, dt=0.01, shots=10, seed=0)

    def test_lattice_budget_checked_before_building(self):
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        with pytest.raises(ResourceError):
            aqc.decide(poly, cutoff=500, total_time=1.0, dt=0.01, shots=10, seed=0)

    @pytest.mark.parametrize("total_time, dt", [
        (math.nan, 0.01), (1.0, math.nan), (math.inf, 0.01), (1.0, math.inf), (1.0, 0.0)])
    def test_schedule_that_is_not_finite_and_positive_is_refused(self, total_time, dt):
        poly = aqc.parse_polynomial(X_MINUS_2)
        with pytest.raises(DomainError):
            aqc.decide(poly, cutoff=4, total_time=total_time, dt=dt, shots=10, seed=0)
        with pytest.raises(DomainError):
            aqc.evolve_levels([0.0], [1], [1.0], total_time, dt)

    def test_step_budget_is_inclusive_and_checked_before_building(self, monkeypatch):
        poly = aqc.parse_polynomial(X_MINUS_2)
        monkeypatch.setattr(aqc, "STEP_BUDGET", 100)
        # T / dt = 100 and 101 exactly, dt * max p = 0.5 at cutoff 4
        assert aqc.decide(poly, 4, total_time=100 * 0.125, dt=0.125, shots=10,
                          seed=0).ground_energy == 0
        scanned = record_runs(monkeypatch)
        with pytest.raises(ResourceError, match="budget"):
            aqc.decide(poly, 4, total_time=101 * 0.125, dt=0.125, shots=10, seed=0)
        assert scanned == []
        monkeypatch.undo()
        # the lattice is past its own budget too: the schedule is refused first
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        with pytest.raises(ResourceError, match="integrator steps"):
            aqc.decide(poly, cutoff=500, total_time=1e300, dt=1e-300, shots=10, seed=0)

    def test_level_budgets_are_inclusive_and_checked_before_evolving(self, monkeypatch):
        # x - 2 at cutoff 20 has 19 levels, (x - 2)**2 for x = 2..20
        poly = aqc.parse_polynomial(X_MINUS_2)
        evolved = []
        evolve_levels = aqc.evolve_levels
        monkeypatch.setattr(aqc, "evolve_levels", lambda *a: (
            evolved.append(a) or evolve_levels(*a)))
        run = lambda: aqc.decide(poly, cutoff=20, total_time=0.01, dt=0.001,  # 10 steps
                                 shots=10, seed=0)
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 19 * 10)
        assert run().ground_energy == 0
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 19 * 10 - 1)
        with pytest.raises(ResourceError, match="more than 18 distinct levels"):
            run()
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 10**8)
        monkeypatch.setattr(aqc, "LEVEL_BUDGET", 19)
        assert run().ground_energy == 0
        monkeypatch.setattr(aqc, "LEVEL_BUDGET", 18)
        with pytest.raises(ResourceError, match="more than 18 distinct levels"):
            run()
        assert len(evolved) == 2

    def test_scan_stops_at_the_first_level_past_its_cap(self, monkeypatch):
        poly = aqc.parse_polynomial(X_MINUS_2)
        assert len(aqc.scan_levels(poly, 20, steps=aqc.LEVEL_STEP_BUDGET // 19).levels) == 19
        monkeypatch.setattr(aqc, "RUN_LENGTH", 2)
        scanned = record_runs(monkeypatch)
        with pytest.raises(ResourceError, match="budget"):
            aqc.scan_levels(poly, 20, steps=aqc.LEVEL_STEP_BUDGET // 3)
        # D = -2, -1, 0, 1, 2 give three levels; D = 3 at x = 5 is the fourth,
        # in the third run, and no later run is evaluated
        assert scanned == [[-2, -1], [0, 1], [2, 3]]

    def test_level_step_budget_bounds_evolve_levels(self, monkeypatch):
        args = ([0.0, 1.0, 2.0, 3.0, 4.0], [1] * 5, [math.sqrt(0.2)] * 5, 1.0, 0.1)
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 5 * 10)
        assert aqc.evolve_levels(*args).steps == 10
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 5 * 10 - 1)
        with pytest.raises(ResourceError, match="5 levels x 10 steps"):
            aqc.evolve_levels(*args)

    def test_shots_past_the_sampler_range_are_refused(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        with pytest.raises(DomainError, match="shots"):
            aqc.decide(poly, cutoff=4, total_time=1.0, dt=0.01, shots=aqc.MAX_SHOTS + 1,
                       seed=0)
        # cutoff 1: level 0 is the point 1, where (x - 2)**2 = 1
        scan = aqc.scan_levels(poly, 1)
        with pytest.raises(DomainError, match="shots"):
            aqc.sample_levels(scan, [1.0, 0.0], shots=10**23, seed=0)
        assert aqc.sample_levels(scan, [1.0, 0.0], shots=aqc.MAX_SHOTS,
                                 seed=0) == {(1,): aqc.MAX_SHOTS}


def _chi_square(draws, n, p):
    """Pearson's statistic of draws against the exact Binomial(n, p) pmf, with its
    degrees of freedom."""
    return pooled_chi_square(Counter(draws), {
        k: len(draws) * math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)})


class TestBinomial:
    """The sampler's binomial draw against the exact pmf, in both of its methods."""

    @pytest.mark.parametrize("n, p", [
        (50, 0.1), (25, 0.35),  # n p < 10: geometric method
        (200, 0.3), (1000, 0.5),  # BTRS
        (30, 0.9), (200, 0.7),  # p > 1/2: drawn as n minus the lighter side
    ])
    def test_draws_follow_the_exact_pmf(self, n, p):
        rng = random.Random(n)
        draws = [variates.binomial(rng, n, p) for _ in range(20000)]
        statistic, df = _chi_square(draws, n, p)
        assert statistic < chi_square_upper(df)

    @pytest.mark.parametrize("p", [0.3, 0.75, 1e-18])
    def test_moments_at_two_to_the_62(self, p):
        # 1e-18: n p = 4.6, the geometric method with log(1 - p) below the float spacing of 1
        n, draws = 2**62, 20000
        rng = random.Random(62)
        values = [variates.binomial(rng, n, p) for _ in range(draws)]
        assert all(0 <= v <= n for v in values)
        variance = n * p * (1 - p)
        deviations = [v - n * p for v in values]
        mean = sum(deviations) / draws
        assert abs(mean) < 4 * math.sqrt(variance / draws)
        assert abs(sum((x - mean) ** 2 for x in deviations) / draws / variance - 1) < 0.05

    def test_edge_cases(self):
        rng = random.Random(0)
        assert variates.binomial(rng, 0, 0.3) == 0
        assert variates.binomial(rng, 10**6, 0.0) == 0
        assert variates.binomial(rng, aqc.MAX_SHOTS, 1.0) == aqc.MAX_SHOTS
        for n, p in [(40, 0.6), (10**6, 0.999)]:
            assert (variates.binomial(random.Random(5), n, p)
                    == n - variates.binomial(random.Random(5), n, 1 - p))

    @pytest.mark.parametrize("p", [5e-324, 1e-320])
    def test_subnormal_probability_draws_nothing(self, p):
        # the geometric gap log(u) / log1p(-p) is infinite here, past any n
        rng = random.Random(1)
        for n in (1, 10, aqc.MAX_SHOTS):
            assert [variates.binomial(rng, n, p) for _ in range(100)] == [0] * 100

    def test_geometric_method_keeps_the_draws_of_capped_gaps(self):
        # the geometric method with each gap capped at n, then floored: a gap of
        # n or more ends the draw, so stopping on it at once draws the same
        def capped(rng, n, p):
            x = y = 0
            c = math.log1p(-p)
            while True:
                y += math.floor(min(math.log(1.0 - rng.random()) / c, n)) + 1
                if y > n:
                    return x
                x += 1

        for n, p in [(1, 0.5), (7, 1e-6), (40, 0.2), (10**6, 1e-7),
                     (aqc.MAX_SHOTS, 1e-19), (3, 5e-324)]:
            a, b = random.Random(n), random.Random(n)
            assert ([variates.binomial(a, n, p) for _ in range(2000)]
                    == [capped(b, n, p) for _ in range(2000)])

    def test_subnormal_weight_takes_no_draw(self):
        counts = variates.multinomial(random.Random(1), 1000, [1.0, 1e-320, 0.5])
        assert set(counts) <= {0, 2} and sum(counts.values()) == 1000


# d <= 125 for every arity: 21, 121 and 125 points at the largest cutoffs
MAX_CUTOFF = {1: 20, 2: 10, 3: 4}


@st.composite
def lattice_problems(draw):
    k = draw(st.integers(1, 3))
    cutoff = draw(st.integers(0, MAX_CUTOFF[k]))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 2)] * k),
                              min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(exponents),
                           max_size=len(exponents)))
    poly = aqc.parse_polynomial(
        {"vars": k, "terms": [[c, list(e)] for c, e in zip(coeffs, exponents)]})
    return poly, cutoff


def _poly(k, terms):
    return aqc.parse_polynomial({"vars": k, "terms": terms})


def strang_reference(num_vars: int, cutoff: int, diagonal: np.ndarray, total_time: float,
                     dt: float, psi0: np.ndarray):
    """(steps, normalised final state) of the unmerged Strang product on dense matrices.

    Every step applies exp(-i a H_I) exp(-i b H_P) exp(-i a H_I) with
    a = (1 - s) dt / 2 and b = s dt at the midpoint s, each exponential taken
    through the Hermitian eigensystem of the dense operator, so no closed form
    and no merging of the halves between steps is shared with evolve_levels.
    """
    steps = max(1, math.ceil(total_time / dt))
    dt = total_time / steps

    def exponential(op):
        es = linalg.hermitian_eigensystem(op)
        return lambda theta, v: es.vectors @ (
            np.exp(-1j * theta * es.values) * (es.vectors.conj().T @ v))

    exp_i = exponential(start_operator(num_vars, cutoff))
    exp_p = exponential(np.diag(diagonal).astype(np.complex128))
    v = linalg.ket(psi0).reshape(-1)
    for k in range(steps):
        s = (k + 0.5) / steps
        half = 0.5 * dt * (1.0 - s)
        v = exp_i(half, exp_p(dt * s, exp_i(half, v)))
    return steps, v / linalg.norm(v)


def _sampler_tie(state, shots=1000) -> bool:
    """True when the sampler's binomial splitting meets an exact tie for these amplitudes.

    It draws category j from Binomial(shots left, p_j / mass of categories
    j..last). Each draw maps to the lighter side above a ratio of 1/2 and
    changes method where n * min(ratio, 1 - ratio) reaches 10. Symmetric
    lattice points or levels of equal population make the ratio exactly 1/2,
    or 10/n for some n <= shots, in exact arithmetic, and two states equal to
    rounding then fall on either side of it.
    """
    probs = np.abs(state.reshape(-1)) ** 2
    tails = np.cumsum(probs[::-1])[::-1]
    for p in np.minimum(probs / tails, 1 - probs / tails)[:-1]:
        if abs(p - 0.5) < 1e-9 or (p and 10 / p <= shots and abs(10 / p - round(10 / p)) < 1e-6):
            return True
    return False


def _guarded_schedule(problem, steps, guard_share):
    """(shape, scan, diagonal, total time, dt), shape the lattice's (num_vars, cutoff),
    with dt at guard_share of the guard's largest."""
    poly, cutoff = problem
    scan = aqc.scan_levels(poly, cutoff)
    # the norm bound is max(max p, 1), or max p at d = 1: this dt passes the guard
    dt = guard_share * aqc.STABILITY_LIMIT / max(float(scan.levels[-1]), 1.0)
    return (poly.num_vars, cutoff), scan, scan_diagonal(scan), steps * dt, dt


def _pointwise(diagonal, psi, total_time, dt) -> aqc.LevelEvolution:
    """evolve_levels with every point its own level: the full d-point Strang loop."""
    return aqc.evolve_levels(diagonal.tolist(), [1] * len(diagonal), list(psi), total_time, dt)


# the kernel's own run length and lengths that cut rows of up to 13 points at
# every offset, or span several rows
RUN_LENGTHS = [1, 2, 3, 7, 30, aqc.RUN_LENGTH]


@st.composite
def run_problems(draw):
    """(polynomial, cutoff, run length): up to five terms of degree up to 4 in each
    variable with coefficients of either sign, on 1-3 variables with a cutoff in
    0..12, 4 variables with a cutoff in 0..6, or 5-12 variables at cutoff 1."""
    k = draw(st.integers(1, 12))
    cutoff = draw(st.integers(0, 12) if k < 4 else st.integers(0, 6) if k == 4 else st.just(1))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 4)] * k), max_size=5, unique=True))
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=len(exponents),
                           max_size=len(exponents)))
    poly = _poly(k, [[c, list(e)] for c, e in zip(coeffs, exponents)])
    return poly, cutoff, draw(st.sampled_from(RUN_LENGTHS))


# no terms, so D = 0 and every point is a minimiser; no term holds the last
# variable; values of 4088 and 4083 bits at cutoff 12, near VALUE_BITS_BUDGET
EDGE_PROBLEMS = [
    (_poly(2, []), 12, 7),
    (_poly(3, [[2, [1, 1, 0]], [-3, [2, 0, 0]], [1, [0, 0, 0]]]), 5, 3),
    (_poly(1, [[-3, [1021]], [5, [1020]], [1, [0]]]), 12, 2),
    (_poly(3, [[1, [340, 340, 340]], [-1, [0, 0, 1]]]), 12, 7),
]


def _with_examples(test):
    for problem in EDGE_PROBLEMS:
        test = example(problem=problem)(test)
    return test


class TestLatticeRuns:
    """The run kernel against term-by-term evaluation at every point, at any run length."""

    def test_edge_problems_are_near_the_bit_budget(self):
        assert [aqc._value_bits_bound(poly, cutoff)
                for poly, cutoff, _ in EDGE_PROBLEMS[2:]] == [4088, 4083]
        assert aqc.VALUE_BITS_BUDGET == 4096

    @settings(max_examples=80, deadline=None)
    @given(problem=run_problems())
    @_with_examples
    def test_runs_are_d_at_every_point_in_basis_order(self, problem):
        poly, cutoff, run_length = problem
        d = (cutoff + 1) ** poly.num_vars
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aqc, "RUN_LENGTH", run_length)
            runs = list(aqc._lattice_runs(poly, cutoff))
        assert [value for _, run in runs for value in run] == [
            poly.evaluate(n) for n in lattice(poly.num_vars, cutoff)]
        # run r starts at basis index r * run_length and holds run_length points,
        # except a shorter last one
        assert [(start, len(run)) for start, run in runs] == [
            (start, min(run_length, d - start)) for start in range(0, d, run_length)]

    def test_short_rows_cost_no_more_than_long_ones(self):
        # x1 + ... + x20 - 20 at cutoff 1: 2**20 points in rows of 2, so a
        # Python-level cost per row would dominate the scan
        poly = _poly(20, [[1, [int(i == j) for i in range(20)]] for j in range(20)]
                     + [[-20, [0] * 20]])
        began = time.perf_counter()
        runs = aqc._lattice_runs(poly, 1)
        assert sum(run.count(0) for _, run in runs) == 1
        assert time.perf_counter() - began < 3.0

    def test_one_long_row_costs_no_more_than_its_blocks(self):
        # x - 7 at cutoff 4 * 10**6: one row of 4 * 10**6 + 1 points, so a list
        # of the row, or a slice of it per block, would dominate the scan
        poly = _poly(1, [[1, [1]], [-7, [0]]])
        began = time.perf_counter()
        runs = aqc._lattice_runs(poly, 4 * 10**6)
        assert sum(run.count(0) for _, run in runs) == 1
        assert time.perf_counter() - began < 3.0

    @settings(max_examples=80, deadline=None)
    @given(problem=run_problems())
    @_with_examples
    # (x - 1)(x - 4): the two minimisers in different runs
    @example(problem=(_poly(1, [[1, [2]], [-5, [1]], [4, [0]]]), 12, 3))
    def test_oracle_and_level_scan_match_brute_force(self, problem):
        poly, cutoff, run_length = problem
        squares = [poly.evaluate(n) ** 2 for n in lattice(poly.num_vars, cutoff)]
        low = min(squares)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aqc, "RUN_LENGTH", run_length)
            assert aqc.exact_ground_oracle(poly, cutoff) == (
                low, [n for n, p in zip(lattice(poly.num_vars, cutoff), squares) if p == low])
            scan = aqc.scan_levels(poly, cutoff)
        assert list(scan.levels) == sorted(set(squares))
        assert list(scan.multiplicities) == [squares.count(p) for p in scan.levels]


class TestStructuredOperators:
    """The O(d) closed forms of H(s) against the dense matrices they stand for."""

    @settings(max_examples=60, deadline=None)
    @given(problem=lattice_problems(), steps=st.integers(1, 80),
           guard_share=st.floats(0.05, 0.99), seed=st.integers(0, 2**32 - 1))
    # d = 1; a two-point ground level (x**2 - 3x + 2); every point a minimiser
    @example(problem=(_poly(2, [[1, [1, 1]], [-2, [0, 0]]]), 0),
             steps=40, guard_share=0.99, seed=3)
    @example(problem=(_poly(1, [[1, [2]], [-3, [1]], [2, [0]]]), 4),
             steps=80, guard_share=0.9, seed=5)
    @example(problem=(_poly(3, [[0, [1, 0, 0]]]), 4),
             steps=20, guard_share=0.5, seed=7)
    def test_evolution_matches_the_dense_path(self, problem, steps, guard_share, seed):
        shape, scan, diagonal, total_time, dt = _guarded_schedule(problem, steps, guard_share)
        exact = max(float(np.linalg.norm(start_operator(*shape), 2)),
                    float(np.linalg.norm(np.diag(diagonal), 2)))
        assert abs(aqc._norm_bound(diagonal.tolist(), len(diagonal)) - exact) <= 1e-14 * exact
        a = aqc.evolve_from_uniform(scan, total_time, dt)
        reference_steps, reference = strang_reference(*shape, diagonal, total_time, dt,
                                                      uniform_ket(*shape))
        assert a.steps == reference_steps
        assert np.max(np.abs(point_state(scan, a) - reference)) <= 1e-12
        populations = [abs(c) ** 2 for c in a.amplitudes]
        reference_populations = np.bincount(level_index(scan), np.abs(reference) ** 2)
        if not _sampler_tie(np.sqrt(reference_populations)):
            assert (aqc.sample_levels(scan, populations, 1000, seed)
                    == aqc.sample_levels(scan, reference_populations.tolist(), 1000, seed))

    @settings(max_examples=60, deadline=None)
    @given(problem=lattice_problems(), steps=st.integers(1, 80),
           guard_share=st.floats(0.05, 0.99), seed=st.integers(0, 2**32 - 1))
    def test_unit_multiplicities_match_the_dense_path_from_any_start(
            self, problem, steps, guard_share, seed):
        shape, _, diagonal, total_time, dt = _guarded_schedule(problem, steps, guard_share)
        psi = _normalised_start(seed, len(diagonal))
        a = _pointwise(diagonal, psi, total_time, dt)
        reference_steps, reference = strang_reference(*shape, diagonal, total_time, dt, psi)
        assert a.steps == reference_steps
        state = np.array(a.amplitudes)
        assert np.max(np.abs(state / np.linalg.norm(state) - reference)) <= 1e-12
        assert a.norm_drift <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(problem=lattice_problems(), steps=st.integers(1, 80),
           guard_share=st.floats(0.05, 0.99))
    def test_grouping_equal_points_keeps_the_pointwise_state(self, problem, steps, guard_share):
        shape, scan, diagonal, total_time, dt = _guarded_schedule(problem, steps, guard_share)
        grouped = aqc.evolve_from_uniform(scan, total_time, dt)
        pointwise = _pointwise(diagonal, uniform_ket(*shape).reshape(-1), total_time, dt)
        assert grouped.steps == pointwise.steps
        state = np.array(pointwise.amplitudes)
        assert np.max(np.abs(point_state(scan, grouped) - state / np.linalg.norm(state))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(problem=lattice_problems(), steps=st.integers(1, 80),
           guard_share=st.floats(0.05, 0.99))
    def test_decide_samples_the_level_populations_of_the_full_evolution(
            self, problem, steps, guard_share):
        shape, scan, diagonal, total_time, dt = _guarded_schedule(problem, steps, guard_share)
        poly, cutoff = problem
        sampled = []
        sample_levels = aqc.sample_levels
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aqc, "sample_levels", lambda scan, populations, shots, seed: (
                sampled.append(populations) or sample_levels(scan, populations, shots, seed)))
            aqc.decide(poly, cutoff, total_time, dt, shots=10, seed=0)
        state = np.array(_pointwise(diagonal, uniform_ket(*shape).reshape(-1), total_time,
                                    dt).amplitudes)
        full = np.bincount(level_index(scan), weights=np.abs(state) ** 2,
                           minlength=len(scan.levels))
        assert np.max(np.abs(np.array(sampled[0]) - full)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(problem=lattice_problems())
    def test_scan_levels_every_point_exactly(self, problem):
        poly, cutoff = problem
        scan = aqc.scan_levels(poly, cutoff)
        values = [poly.evaluate(n) ** 2 for n in lattice(poly.num_vars, cutoff)]
        assert list(scan.levels) == sorted(set(values))
        assert list(scan.multiplicities) == [values.count(p) for p in scan.levels]

    def test_symmetric_points_keep_bitwise_equal_amplitudes(self):
        # 2x in two variables: (1, 0) and (1, 1) are images under y <-> 1 - y,
        # and the pointwise loop keeps their amplitudes bitwise equal; split
        # point by point, they would be a sampler tie
        diagonal = problem_diagonal(_poly(2, [[2, [1, 0]]]), 1)
        state = np.array(_pointwise(diagonal, uniform_ket(2, 1).reshape(-1), 0.75,
                                    0.125).amplitudes)
        assert state[2] == state[3] and state[0] == state[1]
        assert _sampler_tie(state)

    def test_projector_complement_norm_is_zero_at_dimension_one(self):
        assert aqc._norm_bound([0.0], 1) == 0.0
        assert np.array_equal(start_operator(1, 0), [[0]])

    def test_closed_form_bound_drives_the_stability_guard(self):
        scan = aqc.scan_levels(aqc.parse_polynomial(X_MINUS_2), 4)
        assert aqc._norm_bound([float(p) for p in scan.levels], 5) == 4.0
        with pytest.raises(StabilityError):
            aqc.evolve_from_uniform(scan, 1.0, 0.126)  # dt * 4 = 0.504

    def test_state_of_the_wrong_dimension_rejected(self):
        with pytest.raises(DomainError):
            aqc.evolve_levels([0.0] * 5, [1] * 5, [1.0], 1.0, 0.01)

    def test_decide_allocates_no_dense_matrix(self):
        # x + y + z - 3 at cutoff 9: d = 1000, where one dense complex matrix
        # is 16 MB; the largest D**2 on the lattice is 24**2
        poly = aqc.parse_polynomial({"vars": 3, "terms": [
            [1, [1, 0, 0]], [1, [0, 1, 0]], [1, [0, 0, 1]], [-3, [0, 0, 0]]]})
        dt = aqc.STABILITY_LIMIT / 24**2
        tracemalloc.start()
        try:
            report = aqc.decide(poly, cutoff=9, total_time=20 * dt, dt=dt,
                                shots=100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ground_energy == 0
        assert peak < 2 * 2**20


# the largest cutoff per arity on lattices of up to 10**4 points, whose points
# fall in three runs of RUN_LENGTH
SAMPLED_CUTOFF = {1: 9999, 2: 99, 3: 20}


@st.composite
def sampled_problems(draw):
    """(polynomial, cutoff, populations): 1-3 variables, terms of degree up to 3
    in each variable with coefficients of either sign, and one population per
    level, about a third of them zero."""
    k = draw(st.integers(1, 3))
    top = SAMPLED_CUTOFF[k]
    cutoff = draw(st.integers(0, top) if k > 1 else
                  st.one_of(st.integers(0, 30), st.integers(aqc.RUN_LENGTH, top)))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 3)] * k), max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=len(exponents),
                           max_size=len(exponents)))
    poly = _poly(k, [[c, list(e)] for c, e in zip(coeffs, exponents)])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    levels = len(aqc.scan_levels(poly, cutoff).levels)
    populations = [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(levels)]
    populations[rng.randrange(levels)] += 1.0
    return poly, cutoff, populations


def reference_sample(poly, cutoff, populations, shots, seed) -> dict[tuple[int, ...], int]:
    """sample_levels with a per-point level index, from term-by-term values of
    D**2: both splits by multinomial over weight lists, and the points of the
    sampled levels listed by one walk over the index."""
    points = list(lattice(poly.num_vars, cutoff))
    squares = [poly.evaluate(n) ** 2 for n in points]
    rank = {p: j for j, p in enumerate(sorted(set(squares)))}
    level_of = [rank[p] for p in squares]
    multiplicities = Counter(level_of)
    rng = random.Random(seed)
    per_level = variates.multinomial(rng, shots, populations)
    per_point = {j: variates.multinomial(rng, count, [1] * multiplicities[j])
                 for j, count in per_level.items()}
    members: dict[int, list[int]] = {j: [] for j in per_point}
    for i, j in enumerate(level_of):
        if j in members:
            members[j].append(i)
    return {points[members[j][r]]: count
            for j, draws in per_point.items() for r, count in draws.items()}


class TestSecondScan:
    """Sampled points found by a second scan, against a per-point level index."""

    @settings(max_examples=40, deadline=None)
    @given(problem=sampled_problems(),
           shots=st.one_of(st.integers(1, 1000), st.integers(1, aqc.MAX_SHOTS)),
           seed=st.integers(0, 2**32 - 1))
    # one level of 10**4 points in three runs, every point drawn
    @example(problem=(_poly(1, []), 9999, [1.0]), shots=aqc.MAX_SHOTS, seed=0)
    # (x - 3)(x - 5000): 7,498 levels, two-point ones with their points in different runs
    @example(problem=(_poly(1, [[1, [2]], [-5003, [1]], [15000, [0]]]), 9999,
                      [1.0] * 7498), shots=1000, seed=5)
    def test_sample_levels_matches_the_per_point_index(self, problem, shots, seed):
        poly, cutoff, populations = problem
        scan = aqc.scan_levels(poly, cutoff)
        assert (aqc.sample_levels(scan, populations, shots, seed)
                == reference_sample(poly, cutoff, populations, shots, seed))

    @pytest.mark.parametrize("m", [1, 2, 7, 4097])
    def test_even_split_draws_as_equal_weights(self, m):
        for n in (1, 10, 1000, aqc.MAX_SHOTS):
            assert (variates.even_multinomial(random.Random(n), n, m)
                    == variates.multinomial(random.Random(n), n, [1] * m))

    def test_plus_and_minus_d_share_a_level(self, monkeypatch):
        # x - 7 at cutoff 14: |D| = 1 at x = 6 and x = 8, |D| = 7 at x = 0 and x = 14
        scan = aqc.scan_levels(_poly(1, [[1, [1]], [-7, [0]]]), 14)
        assert scan.levels == tuple(r * r for r in range(8))
        assert scan.multiplicities == (1,) + (2,) * 7
        monkeypatch.setattr(aqc, "RUN_LENGTH", 4)
        assert scan.members({1: {0: 1, 1: 1}, 7: {1: 1}}) == {1: [6, 8], 7: [14]}
        # the second scan stops in the run that holds the last wanted point
        scanned = record_runs(monkeypatch)
        assert scan.members({1: {0: 1}}) == {1: [6]}
        assert scanned == [[-7, -6, -5, -4], [-3, -2, -1, 0]]

    def test_decide_keeps_no_per_point_state(self):
        # D = 0 at cutoff 99,999: one level of 10**5 points, each sampled point
        # found by the second scan
        tracemalloc.start()
        try:
            report = aqc.decide(_poly(1, []), cutoff=99_999, total_time=1.0, dt=0.1,
                                shots=1000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ground_energy == 0 and sum(report.samples.values()) == 1000
        assert peak < 2**20
