import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyperlab import aqc, linalg
from hyperlab.aqc import TruncatedFockSpace, Verdict
from hyperlab.errors import (
    DomainError,
    ResourceError,
    ShapeError,
    StabilityError,
    ValidationError,
)

X_MINUS_2 = {"vars": 1, "terms": [[1, [1]], [-2, [0]]]}
TWO_X_MINUS_1 = {"vars": 1, "terms": [[2, [1]], [-1, [0]]]}

# (x+1)**3 + (y+1)**3 + (z+1)**3 + c*x*y*z, pre-expanded, c = 1
CUBES_PLUS_XYZ = {"vars": 3, "terms": [
    [1, [3, 0, 0]], [3, [2, 0, 0]], [3, [1, 0, 0]],
    [1, [0, 3, 0]], [3, [0, 2, 0]], [3, [0, 1, 0]],
    [1, [0, 0, 3]], [3, [0, 0, 2]], [3, [0, 0, 1]],
    [3, [0, 0, 0]], [1, [1, 1, 1]],
]}


def start_operator(space: TruncatedFockSpace) -> np.ndarray:
    """I - |u><u| as a dense d x d matrix, u the space's uniform ket."""
    u = aqc.uniform_ket(space)
    return linalg.identity(space.dimension) - u @ u.conj().T


def interpolate_hamiltonian(problem: aqc.AdiabaticProblem, s: float) -> np.ndarray:
    """H(s) = (1 - s)(I - |u><u|) + s * diag(p) as a dense matrix; Hermitian for s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise DomainError("interpolation parameter must lie in [0, 1]")
    return ((1.0 - s) * start_operator(problem.space)
            + s * np.diag(problem.h_problem).astype(np.complex128))


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
    def test_dimension(self):
        assert TruncatedFockSpace(3, 4).dimension == 125

    def test_index_tuple_bijection(self):
        space = TruncatedFockSpace(2, 3)
        seen = set()
        for i, tup in enumerate(space.basis()):
            assert space.index_of(tup) == i
            assert space.occupation_of(i) == tup
            seen.add(tup)
        assert len(seen) == space.dimension

    def test_lexicographic_order(self):
        space = TruncatedFockSpace(2, 1)
        assert list(space.basis()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestProblemHamiltonian:
    def test_x_minus_2_diagonal(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        levels = aqc.build_problem_hamiltonian(poly, TruncatedFockSpace(1, 4))
        h = np.diag(levels)
        assert np.array_equal(np.diag(h).real, [4, 1, 0, 1, 4])
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_entries_beyond_float_range_are_refused(self):
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [400]]]})
        with pytest.raises(DomainError, match="too large for a float"):
            aqc.build_problem_hamiltonian(poly, TruncatedFockSpace(1, 9))

    def test_two_x_minus_1_has_positive_floor(self):
        poly = aqc.parse_polynomial(TWO_X_MINUS_1)
        h = np.diag(aqc.build_problem_hamiltonian(poly, TruncatedFockSpace(1, 8)))
        assert np.min(np.diag(h).real) == 1.0

    def test_identity_polynomial_grounds_at_origin(self):
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [1]]]})
        h = np.diag(aqc.build_problem_hamiltonian(poly, TruncatedFockSpace(1, 6)))
        assert np.diag(h).real[0] == 0.0

    def test_arity_mismatch(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        with pytest.raises(ShapeError):
            aqc.build_problem_hamiltonian(poly, TruncatedFockSpace(2, 4))

    def test_lattice_past_the_budget_is_refused_before_the_scan(self, monkeypatch):
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        scanned = []
        monkeypatch.setattr(TruncatedFockSpace, "basis", lambda space: scanned.append(1))
        with pytest.raises(ResourceError, match="budget"):
            aqc.build_problem_hamiltonian(poly, TruncatedFockSpace(3, 500))
        assert scanned == []

    def test_ground_entry_matches_exact_oracle(self):
        poly = aqc.parse_polynomial(CUBES_PLUS_XYZ)
        space = TruncatedFockSpace(3, 3)
        h = np.diag(aqc.build_problem_hamiltonian(poly, space))
        energy, winners = aqc.exact_ground_oracle(poly, 3)
        assert np.min(np.diag(h).real) == energy
        idx = space.index_of(winners[0])
        assert h[idx, idx].real == energy

    def test_spectrum_agrees_with_eigensolver(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        h = np.diag(aqc.build_problem_hamiltonian(poly, TruncatedFockSpace(1, 4)))
        es = linalg.hermitian_eigensystem(h)
        energy, _ = aqc.exact_ground_oracle(poly, 4)
        assert abs(es.ground_value - energy) < 1e-9


class TestInitialHamiltonian:
    def test_dimension_two_matrix(self):
        assert np.allclose(start_operator(TruncatedFockSpace(1, 1)), [[0.5, -0.5], [-0.5, 0.5]])

    def test_uniform_state_is_ground(self):
        space = TruncatedFockSpace(1, 5)
        u = aqc.uniform_ket(space)
        assert np.max(np.abs(start_operator(space) @ u)) < 1e-14
        assert abs(linalg.norm(u) - 1) < 1e-12

    def test_spectrum_is_zero_then_ones(self):
        es = linalg.hermitian_eigensystem(start_operator(TruncatedFockSpace(1, 3)))
        assert np.allclose(es.values, [0, 1, 1, 1])


class TestInterpolation:
    @pytest.fixture
    def problem(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        space = TruncatedFockSpace(1, 4)
        h_p = aqc.build_problem_hamiltonian(poly, space)
        return aqc.AdiabaticProblem(space=space, h_problem=h_p, total_time=10.0, dt=0.01)

    def test_endpoints(self, problem):
        assert np.array_equal(interpolate_hamiltonian(problem, 0.0),
                              start_operator(problem.space))
        assert np.array_equal(interpolate_hamiltonian(problem, 1.0),
                              np.diag(problem.h_problem))

    def test_midpoint_is_mean_and_hermitian(self, problem):
        mid = interpolate_hamiltonian(problem, 0.5)
        assert np.allclose(mid, (start_operator(problem.space)
                                 + np.diag(problem.h_problem)) / 2)
        assert np.max(np.abs(mid - mid.conj().T)) < 1e-14

    def test_out_of_range_rejected(self, problem):
        with pytest.raises(DomainError):
            interpolate_hamiltonian(problem, 1.5)


class TestEvolve:
    # the largest step the guard lets through for x - 2 at cutoff 20, where max p = 18**2
    LARGEST_DT = aqc.STABILITY_LIMIT / 18**2

    def _problem(self, total_time, dt, cutoff=4):
        poly = aqc.parse_polynomial(X_MINUS_2)
        space = TruncatedFockSpace(1, cutoff)
        h_p = aqc.build_problem_hamiltonian(poly, space)
        problem = aqc.AdiabaticProblem(
            space=space, h_problem=h_p, total_time=total_time, dt=dt)
        return problem, aqc.uniform_ket(space)

    def test_zero_time_returns_initial_state(self):
        problem, u = self._problem(0.0, 0.01)
        result = aqc.evolve(problem, u)
        assert np.array_equal(result.state, u)
        assert result.norm_drift == 0.0

    def test_constant_diagonal_matches_analytic_phases(self):
        # every level equal to c: all H(s) commute, so psi evolves exactly to
        # e^{-icT/2} (e^{-iT/2} (psi - m) + m), m the mean amplitude of psi
        space = TruncatedFockSpace(2, 2)
        c, total_time = 7.0, 1.0
        problem = aqc.AdiabaticProblem(space=space, h_problem=np.full(9, c),
                                       total_time=total_time, dt=0.002)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi = psi / np.linalg.norm(psi)
        result = aqc.evolve(problem, linalg.ket(psi))
        m = psi.mean()
        expected = np.exp(-0.5j * c * total_time) * (
            np.exp(-0.5j * total_time) * (psi - m) + m)
        assert np.max(np.abs(result.state.reshape(-1) - expected)) < 1e-12

    def test_adiabatic_transfer_to_problem_ground(self):
        problem, u = self._problem(50.0, 0.01)
        result = aqc.evolve(problem, u)
        ground = linalg.hermitian_eigensystem(np.diag(problem.h_problem)).ground_vector
        overlap = abs(linalg.inner_product(ground, result.state)) ** 2
        assert overlap >= 0.9

    def test_norm_drift_small(self):
        problem, u = self._problem(25.0, 0.01)
        assert aqc.evolve(problem, u).norm_drift <= 1e-6

    def test_unnormalised_initial_state_rejected(self):
        problem, _ = self._problem(1.0, 0.01)
        with pytest.raises(DomainError, match="normalised"):
            aqc.evolve(problem, linalg.ket([1, 1, 0, 0, 0]))

    def test_stability_guard(self):
        problem, u = self._problem(1.0, 0.2)  # dt * ||H|| = 0.8
        with pytest.raises(StabilityError, match="smaller step"):
            aqc.evolve(problem, u)

    def test_largest_guarded_step_is_accurate(self):
        # cutoff 20, T = 50: 32,400 steps; the converged ground population is 0.390088
        dt = self.LARGEST_DT
        populations = []
        for step in (dt, dt / 8):
            problem, u = self._problem(50.0, step, cutoff=20)
            populations.append(abs(aqc.evolve(problem, u).state[2, 0]) ** 2)
        assert abs(populations[0] - 0.390088) < 1e-5
        assert abs(populations[0] - populations[1]) < 1e-4

    def test_splitting_is_second_order(self):
        dt = self.LARGEST_DT
        states = []
        for step in (dt, dt / 2, dt / 16):
            problem, u = self._problem(5.0, step, cutoff=20)
            states.append(aqc.evolve(problem, u).state)
        coarse, fine, reference = states
        ratio = np.linalg.norm(coarse - reference) / np.linalg.norm(fine - reference)
        assert 3.0 <= ratio <= 5.0

    def test_structured_pair_keeps_the_norm(self):
        problem, u = self._problem(50.0, self.LARGEST_DT, cutoff=20)
        assert aqc.evolve(problem, u).norm_drift <= 1e-12


class TestMeasurement:
    def test_basis_state_is_certain(self):
        space = TruncatedFockSpace(1, 4)
        psi = linalg.ket([0, 0, 1, 0, 0])
        hist = aqc.measure_sample(psi, space, shots=100, seed=3)
        assert hist == {(2,): 100}

    def test_balanced_superposition_within_three_sigma(self):
        space = TruncatedFockSpace(1, 1)
        psi = linalg.ket([1 / np.sqrt(2), 1 / np.sqrt(2)])
        hist = aqc.measure_sample(psi, space, shots=10**5, seed=11)
        sigma = np.sqrt(10**5 * 0.25)
        assert abs(hist[(0,)] - 5e4) <= 3 * sigma
        assert abs(hist[(1,)] - 5e4) <= 3 * sigma

    def test_seed_determinism(self):
        space = TruncatedFockSpace(1, 3)
        psi = linalg.ket(np.full(4, 0.5))
        a = aqc.measure_sample(psi, space, shots=1000, seed=9)
        b = aqc.measure_sample(psi, space, shots=1000, seed=9)
        assert a == b

    def test_zero_shots_rejected(self):
        space = TruncatedFockSpace(1, 1)
        with pytest.raises(DomainError):
            aqc.measure_sample(linalg.ket([1, 0]), space, shots=0, seed=0)


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
        space = TruncatedFockSpace(1, 6)
        monkeypatch.setattr(TruncatedFockSpace, "basis", lambda space: pytest.fail("scanned"))
        for work in (lambda: aqc.exact_ground_oracle(poly, 6),
                     lambda: aqc.build_problem_hamiltonian(poly, space),
                     lambda: aqc.decide(poly, 6, 1.0, 0.01, shots=10, seed=0)):
            with pytest.raises(ResourceError, match="bits"):
                work()

    def test_bit_budget_is_inclusive(self):
        # at cutoff 1, x**e - 1 has bits(1) + e * bits(1) + bits(2 terms) = e + 3
        at_budget = aqc.VALUE_BITS_BUDGET - 3
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [at_budget]], [-1, [0]]]})
        assert aqc.exact_ground_oracle(poly, 1) == (0, [(1,)])
        poly = aqc.parse_polynomial({"vars": 1, "terms": [[1, [at_budget + 1]], [-1, [0]]]})
        with pytest.raises(ResourceError, match="budget"):
            aqc.exact_ground_oracle(poly, 1)


class TestDecide:
    def test_solvable_with_witness(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        report = aqc.decide(poly, cutoff=4, total_time=50.0, dt=0.01,
                            shots=1000, seed=7)
        assert report.verdict is Verdict.SOLVABLE_WITH_WITNESS
        assert report.witness == (2,)
        assert poly.evaluate(report.witness) == 0
        assert report.success_probability_estimate >= 0.9

    def test_no_solution_up_to_cutoff(self):
        poly = aqc.parse_polynomial(TWO_X_MINUS_1)
        report = aqc.decide(poly, cutoff=8, total_time=5.0, dt=1e-4,
                            shots=1000, seed=7)
        assert report.verdict is Verdict.NO_SOLUTION_UP_TO_CUTOFF
        assert report.witness is None
        assert report.ground_energy == 1
        assert "cutoff" in report.note

    def test_two_variable_witness_is_verified(self):
        poly = aqc.parse_polynomial(
            {"vars": 2, "terms": [[1, [1, 0]], [1, [0, 1]], [-3, [0, 0]]]})
        report = aqc.decide(poly, cutoff=4, total_time=50.0, dt=0.01,
                            shots=1000, seed=7)
        assert report.verdict is Verdict.SOLVABLE_WITH_WITNESS
        assert poly.evaluate(report.witness) == 0

    def test_report_serialises(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        report = aqc.decide(poly, cutoff=2, total_time=5.0, dt=0.01,
                            shots=200, seed=1)
        doc = report.to_json_dict()
        assert doc["verdict"] in {v.value for v in Verdict}
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
            aqc.AdiabaticProblem(space=TruncatedFockSpace(1, 4), h_problem=np.zeros(5),
                                 total_time=total_time, dt=dt)

    def test_step_budget_is_inclusive_and_checked_before_building(self):
        space = TruncatedFockSpace(1, 4)
        at_budget = aqc.AdiabaticProblem(space=space, h_problem=np.zeros(5),
                                         total_time=aqc.STEP_BUDGET * 0.5, dt=0.5)
        assert at_budget.total_time / at_budget.dt == aqc.STEP_BUDGET
        with pytest.raises(ResourceError, match="budget"):
            aqc.AdiabaticProblem(space=space, h_problem=np.zeros(5),
                                 total_time=(aqc.STEP_BUDGET + 1) * 0.5, dt=0.5)
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
        space = TruncatedFockSpace(1, 20)
        assert len(aqc.scan_levels(poly, space, max_levels=19).levels) == 19
        values = aqc._lattice_values
        scanned = []
        monkeypatch.setattr(aqc, "_lattice_values", lambda poly, space: (
            scanned.append(v) or v for v in values(poly, space)))
        with pytest.raises(ResourceError, match="budget"):
            aqc.scan_levels(poly, space, max_levels=3)
        # D = -2, -1, 0, 1, 2 give three levels; D = 3 at x = 5 is the fourth
        assert scanned == [-2, -1, 0, 1, 2, 3]

    def test_level_step_budget_bounds_the_numpy_evolution(self, monkeypatch):
        space = TruncatedFockSpace(1, 4)
        problem = aqc.AdiabaticProblem(space=space, h_problem=np.arange(5.0),
                                       total_time=1.0, dt=0.1)
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 5 * 10)
        assert aqc.evolve(problem, aqc.uniform_ket(space)).steps == 10
        monkeypatch.setattr(aqc, "LEVEL_STEP_BUDGET", 5 * 10 - 1)
        with pytest.raises(ResourceError, match="5 levels x 10 steps"):
            aqc.evolve(problem, aqc.uniform_ket(space))

    def test_shots_past_the_sampler_range_are_refused(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        with pytest.raises(DomainError, match="shots"):
            aqc.decide(poly, cutoff=4, total_time=1.0, dt=0.01, shots=aqc.MAX_SHOTS + 1,
                       seed=0)
        psi = linalg.ket([1, 0])
        with pytest.raises(DomainError, match="shots"):
            aqc.measure_sample(psi, TruncatedFockSpace(1, 1), shots=10**23, seed=0)
        assert aqc.measure_sample(psi, TruncatedFockSpace(1, 1), shots=aqc.MAX_SHOTS,
                                  seed=0) == {(0,): aqc.MAX_SHOTS}


def _chi_square(draws, n, p):
    """Pearson's statistic of draws against the exact Binomial(n, p) pmf, with its
    degrees of freedom; neighbouring outcomes pool until each bin expects 5."""
    observed = Counter(draws)
    bins, expected, seen = [], 0.0, 0
    for k in range(n + 1):
        expected += len(draws) * math.comb(n, k) * p**k * (1 - p) ** (n - k)
        seen += observed[k]
        if expected >= 5:
            bins.append((seen, expected))
            expected, seen = 0.0, 0
    last_seen, last_expected = bins.pop()
    bins.append((last_seen + seen, last_expected + expected))
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


def _chi_square_upper(df, z=3.09):
    """The upper 0.1 % point of chi-square with df degrees of freedom (Wilson-Hilferty)."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


class TestBinomial:
    """The sampler's binomial draw against the exact pmf, in both of its methods."""

    @pytest.mark.parametrize("n, p", [
        (50, 0.1), (25, 0.35),  # n p < 10: geometric method
        (200, 0.3), (1000, 0.5),  # BTRS
        (30, 0.9), (200, 0.7),  # p > 1/2: drawn as n minus the lighter side
    ])
    def test_draws_follow_the_exact_pmf(self, n, p):
        rng = random.Random(n)
        draws = [aqc._binomial(rng, n, p) for _ in range(20000)]
        statistic, df = _chi_square(draws, n, p)
        assert statistic < _chi_square_upper(df)

    @pytest.mark.parametrize("p", [0.3, 0.75, 1e-18])
    def test_moments_at_two_to_the_62(self, p):
        # 1e-18: n p = 4.6, the geometric method with log(1 - p) below the float spacing of 1
        n, draws = 2**62, 20000
        rng = random.Random(62)
        values = [aqc._binomial(rng, n, p) for _ in range(draws)]
        assert all(0 <= v <= n for v in values)
        variance = n * p * (1 - p)
        deviations = [v - n * p for v in values]
        mean = sum(deviations) / draws
        assert abs(mean) < 4 * math.sqrt(variance / draws)
        assert abs(sum((x - mean) ** 2 for x in deviations) / draws / variance - 1) < 0.05

    def test_edge_cases(self):
        rng = random.Random(0)
        assert aqc._binomial(rng, 0, 0.3) == 0
        assert aqc._binomial(rng, 10**6, 0.0) == 0
        assert aqc._binomial(rng, aqc.MAX_SHOTS, 1.0) == aqc.MAX_SHOTS
        for n, p in [(40, 0.6), (10**6, 0.999)]:
            assert (aqc._binomial(random.Random(5), n, p)
                    == n - aqc._binomial(random.Random(5), n, 1 - p))


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


def strang_reference(problem: aqc.AdiabaticProblem, psi0: np.ndarray):
    """(steps, normalised final state) of the unmerged Strang product on dense matrices.

    Every step applies exp(-i a H_I) exp(-i b H_P) exp(-i a H_I) with
    a = (1 - s) dt / 2 and b = s dt at the midpoint s, each exponential taken
    through the Jacobi eigensystem of the dense operator, so no closed form
    and no merging of the halves between steps is shared with evolve.
    """
    steps = max(1, math.ceil(problem.total_time / problem.dt))
    dt = problem.total_time / steps

    def exponential(op):
        es = linalg.hermitian_eigensystem(op)
        return lambda theta, v: es.vectors @ (
            np.exp(-1j * theta * es.values) * (es.vectors.conj().T @ v))

    exp_i = exponential(start_operator(problem.space))
    exp_p = exponential(np.diag(problem.h_problem).astype(np.complex128))
    v = linalg.ket(psi0).reshape(-1)
    for k in range(steps):
        s = (k + 0.5) / steps
        half = 0.5 * dt * (1.0 - s)
        v = exp_i(half, exp_p(dt * s, exp_i(half, v)))
    return steps, (v / linalg.norm(v)).reshape(-1, 1)


def _sampler_tie(state, shots=1000) -> bool:
    """True when the sampler's binomial splitting meets an exact tie for this state.

    It draws point j from Binomial(shots left, p_j / mass of points j..d-1).
    Each draw maps to the lighter side above a ratio of 1/2 and changes
    method where n * min(ratio, 1 - ratio) reaches 10. Symmetric lattice
    points make the ratio exactly 1/2, or 10/n for some n <= shots, in exact
    arithmetic, and two states equal to rounding then fall on either side of it.
    """
    probs = np.abs(state.reshape(-1)) ** 2
    tails = np.cumsum(probs[::-1])[::-1]
    for p in np.minimum(probs / tails, 1 - probs / tails)[:-1]:
        if abs(p - 0.5) < 1e-9 or (p and 10 / p <= shots and abs(10 / p - round(10 / p)) < 1e-6):
            return True
    return False


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
        poly, cutoff = problem
        space = TruncatedFockSpace(poly.num_vars, cutoff)
        levels = aqc.build_problem_hamiltonian(poly, space)
        u = aqc.uniform_ket(space)

        # spectral_norm_bound is max(max p, 1), or max p at d = 1: this dt passes the guard
        dt = guard_share * aqc.STABILITY_LIMIT / max(float(np.max(levels)), 1.0)
        problem = aqc.AdiabaticProblem(space=space, h_problem=levels,
                                       total_time=steps * dt, dt=dt)
        exact = max(float(np.linalg.norm(start_operator(space), 2)),
                    float(np.linalg.norm(np.diag(levels), 2)))
        assert abs(aqc.spectral_norm_bound(problem) - exact) <= 1e-14 * exact
        a = aqc.evolve(problem, u)
        reference_steps, reference = strang_reference(problem, u)
        assert a.steps == reference_steps
        assert np.max(np.abs(a.state - reference)) <= 1e-12
        if not _sampler_tie(a.state):
            assert (aqc.measure_sample(a.state, space, 1000, seed)
                    == aqc.measure_sample(reference, space, 1000, seed))

    @settings(max_examples=40, deadline=None)
    @given(problem=lattice_problems(), steps=st.integers(1, 80),
           guard_share=st.floats(0.05, 0.99))
    def test_decide_samples_the_level_populations_of_the_full_evolution(
            self, problem, steps, guard_share):
        poly, cutoff = problem
        space = TruncatedFockSpace(poly.num_vars, cutoff)
        scan = aqc.scan_levels(poly, space)
        dt = guard_share * aqc.STABILITY_LIMIT / max(float(scan.levels[-1]), 1.0)
        sampled = []
        sample_levels = aqc.sample_levels
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aqc, "sample_levels", lambda scan, populations, shots, seed: (
                sampled.append(populations) or sample_levels(scan, populations, shots, seed)))
            aqc.decide(poly, cutoff, steps * dt, dt, shots=10, seed=0)
        problem = aqc.AdiabaticProblem(space=space, h_problem=aqc.build_problem_hamiltonian(
            poly, space), total_time=steps * dt, dt=dt)
        state = aqc.evolve(problem, aqc.uniform_ket(space)).state.reshape(-1)
        full = np.bincount(np.asarray(scan.level_of), weights=np.abs(state) ** 2,
                           minlength=len(scan.levels))
        assert np.max(np.abs(np.array(sampled[0]) - full)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(problem=lattice_problems())
    def test_scan_levels_every_point_exactly(self, problem):
        poly, cutoff = problem
        space = TruncatedFockSpace(poly.num_vars, cutoff)
        scan = aqc.scan_levels(poly, space)
        values = [poly.evaluate(n) ** 2 for n in space.basis()]
        assert list(scan.levels) == sorted(set(values))
        assert list(scan.multiplicities) == [values.count(p) for p in scan.levels]
        assert [scan.levels[j] for j in scan.level_of] == values

    def test_symmetric_points_keep_bitwise_equal_amplitudes(self):
        # 2x in two variables: (1, 0) and (1, 1) are images under y <-> 1 - y,
        # which is also the sampler tie that the comparison above steps round
        poly = _poly(2, [[2, [1, 0]]])
        space = TruncatedFockSpace(2, 1)
        levels = aqc.build_problem_hamiltonian(poly, space)
        problem = aqc.AdiabaticProblem(space=space, h_problem=levels,
                                       total_time=0.75, dt=0.125)
        state = aqc.evolve(problem, aqc.uniform_ket(space)).state.reshape(-1)
        assert state[2] == state[3] and state[0] == state[1]
        assert _sampler_tie(state)

    def test_projector_complement_norm_is_zero_at_dimension_one(self):
        space = TruncatedFockSpace(1, 0)
        problem = aqc.AdiabaticProblem(space=space, h_problem=np.zeros(1),
                                       total_time=1.0, dt=0.01)
        assert aqc.spectral_norm_bound(problem) == 0.0
        assert np.array_equal(start_operator(space), [[0]])

    def test_closed_form_bound_drives_the_stability_guard(self):
        poly = aqc.parse_polynomial(X_MINUS_2)
        space = TruncatedFockSpace(1, 4)
        problem = aqc.AdiabaticProblem(
            space=space, h_problem=aqc.build_problem_hamiltonian(poly, space),
            total_time=1.0, dt=0.126)  # dt * 4 = 0.504
        assert aqc.spectral_norm_bound(problem) == 4.0
        with pytest.raises(StabilityError):
            aqc.evolve(problem, aqc.uniform_ket(space))

    def test_state_of_the_wrong_dimension_rejected(self):
        problem = aqc.AdiabaticProblem(
            space=TruncatedFockSpace(1, 4), h_problem=np.zeros(5), total_time=1.0, dt=0.01)
        with pytest.raises(ShapeError):
            aqc.evolve(problem, linalg.ket([1.0]))

    def test_operator_of_the_wrong_dimension_rejected(self):
        space = TruncatedFockSpace(1, 4)
        for length in (4, 6):
            with pytest.raises(ShapeError):
                aqc.AdiabaticProblem(space=space, h_problem=np.zeros(length),
                                     total_time=1.0, dt=0.01)

    def test_problem_operator_that_is_not_a_real_diagonal_refused_at_construction(self):
        space = TruncatedFockSpace(1, 2)
        with pytest.raises(ShapeError):
            aqc.AdiabaticProblem(space=space, h_problem=np.diag([0.0, 1.0, 4.0]),
                                 total_time=1.0, dt=0.01)
        with pytest.raises(DomainError, match="Hermitian"):
            aqc.AdiabaticProblem(space=space, h_problem=np.array([0.0, 1.0, 4.0 + 0.5j]),
                                 total_time=1.0, dt=0.01)

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
