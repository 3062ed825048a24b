"""Ground-state search for Diophantine solvability on a truncated mode space.

The pipeline: an integer polynomial D in k unknowns becomes the diagonal
operator D(N1..Nk)**2 on a k-mode occupation basis truncated at a per-mode
cutoff (number operators act diagonally, so no operator algebra is needed --
the matrix entry at basis tuple n is just D(n)**2). The system starts in the
uniform superposition, the unique ground state of a rank-one projector
complement, and the Hamiltonian is interpolated linearly into the problem
operator over a total time T. If the schedule is slow enough the final state
concentrates on a tuple with minimal D**2; measuring it and substituting back
answers "is there a zero with all coordinates <= cutoff".

Every negative answer is cutoff-bounded by construction. Variables range over
the naturals; searches over negative integers need an explicit substitution
such as x -> x' - m before encoding.

An exhaustive integer scan of the truncated lattice serves as the exact
oracle for every quantum-path result.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    ResourceError,
    ShapeError,
    StabilityError,
    ValidationError,
)
from . import linalg

LATTICE_BUDGET = 10**7
STEP_BUDGET = 10**7
STABILITY_LIMIT = 0.5
MAX_SHOTS = 2**63 - 1  # numpy's multinomial counts in int64


# -- polynomials -----------------------------------------------------------------


@dataclass(frozen=True)
class DiophantinePolynomial:
    """Sparse integer polynomial: terms are (coefficient, exponent vector)."""

    num_vars: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.num_vars:
            raise ShapeError(
                f"polynomial in {self.num_vars} variables evaluated at "
                f"{len(point)}-tuple")
        total = 0
        for coeff, exps in self.terms:
            value = coeff
            for x, e in zip(point, exps):
                value *= x**e
            total += value
        return total


def _integer(value, what: str) -> int:
    """An exact JSON integer; floats, strings and booleans are not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def parse_polynomial(doc: dict) -> DiophantinePolynomial:
    """Validate a polynomial document {"vars": k, "terms": [[c, [e1..ek]], ...]}.

    Exponent vectors must be distinct (duplicates are an error, not merged);
    zero-coefficient terms are dropped as canonicalisation. Every malformed
    document raises :class:`ValidationError`.
    """
    try:
        num_vars = _integer(doc["vars"], "vars")
        raw_terms = doc["terms"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed polynomial document: {exc}") from None
    if num_vars < 1:
        raise ValidationError("polynomial needs at least one variable")
    if not isinstance(raw_terms, (list, tuple)):
        raise ValidationError(f"terms must be a list, got {raw_terms!r}")
    seen: set[tuple[int, ...]] = set()
    terms: list[tuple[int, tuple[int, ...]]] = []
    for entry in raw_terms:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[1], (list, tuple))):
            raise ValidationError(f"term must be [coefficient, exponents], got {entry!r}")
        coeff = _integer(entry[0], "coefficient")
        exps = tuple(_integer(e, "exponent") for e in entry[1])
        if len(exps) != num_vars:
            raise ValidationError(
                f"exponent vector {exps!r} does not match {num_vars} variables")
        if any(e < 0 for e in exps):
            raise ValidationError("exponents must be naturals")
        if exps in seen:
            raise ValidationError(f"duplicate exponent vector {exps!r}")
        seen.add(exps)
        if coeff != 0:
            terms.append((coeff, exps))
    return DiophantinePolynomial(num_vars=num_vars, terms=tuple(terms))


# -- truncated mode space -----------------------------------------------------------


@dataclass(frozen=True)
class TruncatedFockSpace:
    """k modes, occupation numbers 0..cutoff each, basis in lexicographic order."""

    num_modes: int
    cutoff: int

    def __post_init__(self):
        if self.num_modes < 1:
            raise DomainError("need at least one mode")
        if self.cutoff < 0:
            raise DomainError("cutoff must be a natural number")

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.num_modes

    def basis(self):
        return itertools.product(range(self.cutoff + 1), repeat=self.num_modes)

    def index_of(self, occupation: Sequence[int]) -> int:
        if len(occupation) != self.num_modes:
            raise ShapeError("occupation tuple arity mismatch")
        idx = 0
        for n in occupation:
            if not 0 <= n <= self.cutoff:
                raise DomainError(f"occupation number {n} outside 0..{self.cutoff}")
            idx = idx * (self.cutoff + 1) + n
        return idx

    def occupation_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dimension:
            raise DomainError("basis index out of range")
        digits = []
        for _ in range(self.num_modes):
            index, n = divmod(index, self.cutoff + 1)
            digits.append(n)
        return tuple(reversed(digits))


# -- Hamiltonians ----------------------------------------------------------------
#
# One Hamiltonian path, H(s) = (1 - s)(I - |u><u|) + s * diag(p), with u the
# space's uniform ket and p = D(n)**2; neither operator is ever a d x d array.


def uniform_ket(space: TruncatedFockSpace) -> np.ndarray:
    """The uniform superposition u as a column vector: the unique ground state
    of the start operator I - |u><u| (energy 0; every other eigenvalue is 1)."""
    return np.full((space.dimension, 1), 1.0 / math.sqrt(space.dimension),
                   dtype=np.complex128)


def _check_lattice_budget(space: TruncatedFockSpace) -> None:
    if space.dimension > LATTICE_BUDGET:
        raise ResourceError(
            f"lattice of {space.dimension} points exceeds the budget "
            f"{LATTICE_BUDGET}")


def build_problem_hamiltonian(
    poly: DiophantinePolynomial, space: TruncatedFockSpace
) -> np.ndarray:
    """Diagonal operator with entry D(n1..nk)**2 at each occupation tuple.

    Returned as its real diagonal (a length-d array); ``np.diag`` of it is
    the matrix. A lattice past LATTICE_BUDGET is refused before the scan.
    """
    if poly.num_vars != space.num_modes:
        raise ShapeError(
            f"polynomial has {poly.num_vars} variables but the space has "
            f"{space.num_modes} modes")
    _check_lattice_budget(space)
    try:
        return np.fromiter(
            (float(poly.evaluate(n) ** 2) for n in space.basis()),
            dtype=np.float64,
            count=space.dimension,
        )
    except OverflowError:
        raise DomainError(
            "some D(n)**2 on the lattice is too large for a float; lower the "
            "cutoff, or use --oracle-only for the exact scan") from None


def _check_schedule(total_time: float, dt: float) -> None:
    """Refuse a schedule that is not finite, or whose step count is past the budget."""
    if not (0 <= total_time < math.inf and 0 < dt < math.inf):
        raise DomainError("total time must be finite and non-negative, dt finite and positive")
    if total_time / dt > STEP_BUDGET:
        raise ResourceError(
            f"{total_time / dt:.3g} integrator steps are past the budget of {STEP_BUDGET}")


@dataclass(frozen=True)
class AdiabaticProblem:
    """H(s) = (1 - s)(I - |u><u|) + s * diag(h_problem), u the space's uniform ket.

    h_problem is a real 1-D diagonal of the space's dimension; any other shape
    is a :class:`ShapeError` and a complex diagonal, which is not Hermitian, a
    :class:`DomainError`, as is a time or step that is not finite; a schedule
    of more than STEP_BUDGET steps is a :class:`ResourceError`.
    """

    space: TruncatedFockSpace
    h_problem: np.ndarray
    total_time: float
    dt: float

    def __post_init__(self):
        _check_schedule(self.total_time, self.dt)
        if self.h_problem.shape != (self.space.dimension,):
            raise ShapeError("the problem diagonal must match the space dimension")
        if not np.isrealobj(self.h_problem):
            raise DomainError("a diagonal Hamiltonian must be real to be Hermitian")


def spectral_norm_bound(problem: AdiabaticProblem) -> float:
    """Upper bound on ||H(s)|| over the whole schedule (convexity).

    The larger of max|p| and ||I - |u><u|||, which is 1, or 0 when d = 1.
    """
    return max(float(problem.space.dimension > 1), float(np.max(np.abs(problem.h_problem))))


@dataclass(frozen=True)
class EvolveResult:
    state: np.ndarray
    norm_drift: float
    steps: int


def evolve(problem: AdiabaticProblem, psi0: np.ndarray) -> EvolveResult:
    """Integrate i dpsi/dt = H(t/T) psi from 0 to T by Strang splitting.

    Step k freezes H at its midpoint s_k and applies exp(-i a (I - |u><u|)),
    exp(-i b p), exp(-i a (I - |u><u|)) with a = (1 - s_k) dt / 2 and
    b = s_k dt; the halves that meet between steps run as one. Both are closed
    forms in O(d): the diagonal multiplies entrywise, and the start operator
    gives e^{-ia} (v - m) + m with m = sum(v) / d. Each factor is exactly
    unitary and the scheme is second order in dt, so the guard
    dt * max||H|| <= STABILITY_LIMIT bounds the splitting error. The drift of
    the final norm from 1 is returned with the renormalised state.
    """
    d = problem.space.dimension
    psi = linalg.ket(psi0).astype(np.complex128)
    if psi.shape[0] != d:
        raise ShapeError("initial state dimension does not match the space")
    nrm = linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-9:
        raise DomainError(f"initial state must be normalised, got norm {nrm}")
    t_total = problem.total_time
    if t_total == 0.0:
        return EvolveResult(state=psi.copy(), norm_drift=0.0, steps=0)

    bound = spectral_norm_bound(problem)
    if problem.dt * bound > STABILITY_LIMIT:
        raise StabilityError(
            f"dt * max||H|| = {problem.dt * bound:.3g} exceeds {STABILITY_LIMIT}; "
            "use a smaller step")

    steps = max(1, math.ceil(t_total / problem.dt))
    dt = t_total / steps
    rate = -1j * problem.h_problem

    def start_factor(theta: float, v: np.ndarray) -> np.ndarray:
        phase = cmath.exp(-1j * theta)
        return phase * v + (1.0 - phase) * (v.sum() / d)

    v = psi.reshape(-1)
    owed = 0.0  # the previous step's closing start half, merged into this step's opening one
    for k in range(steps):
        s = (k + 0.5) / steps
        half = 0.5 * dt * (1.0 - s)
        v = np.exp(dt * s * rate) * start_factor(owed + half, v)
        owed = half
    v = start_factor(owed, v)

    final_norm = linalg.norm(v)
    drift = abs(final_norm - 1.0)
    return EvolveResult(state=(v / final_norm).reshape(-1, 1), norm_drift=drift, steps=steps)


# -- measurement --------------------------------------------------------------------


def measure_sample(
    psi: np.ndarray, space: TruncatedFockSpace, shots: int, seed: int
) -> dict[tuple[int, ...], int]:
    """Sample occupation tuples from |amplitude|**2, deterministically per seed."""
    if not 1 <= shots <= MAX_SHOTS:
        raise DomainError(f"shots must lie in 1..{MAX_SHOTS}")
    state = linalg.ket(psi)
    if state.shape[0] != space.dimension:
        raise ShapeError("state dimension does not match the space")
    nrm = linalg.norm(state)
    if abs(nrm - 1.0) > 1e-6:
        raise DomainError(f"state must be normalised, got norm {nrm}")
    probs = np.abs(state.reshape(-1)) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {
        space.occupation_of(i): int(c) for i, c in enumerate(counts) if c > 0
    }


# -- exact oracle and the decision procedure ------------------------------------------


def exact_ground_oracle(
    poly: DiophantinePolynomial, cutoff: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustive integer scan of D**2 over the truncated lattice.

    Returns the exact minimum and every tuple attaining it. Arithmetic is
    plain Python integers, so no value is ever rounded.
    """
    space = TruncatedFockSpace(poly.num_vars, cutoff)
    _check_lattice_budget(space)
    best: Optional[int] = None
    winners: list[tuple[int, ...]] = []
    for n in space.basis():
        value = poly.evaluate(n) ** 2
        if best is None or value < best:
            best = value
            winners = [n]
        elif value == best:
            winners.append(n)
    assert best is not None
    return best, winners


class Verdict(Enum):
    SOLVABLE_WITH_WITNESS = "solvable-with-witness"
    NO_SOLUTION_UP_TO_CUTOFF = "no-solution-up-to-cutoff"


@dataclass(frozen=True)
class DecisionReport:
    verdict: Verdict
    witness: Optional[tuple[int, ...]]
    ground_energy: int
    success_probability_estimate: float
    samples: dict[tuple[int, ...], int]
    cutoff: int
    total_time: float
    dt: float
    shots: int
    seed: int
    norm_drift: float
    note: str

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "ground_energy": self.ground_energy,
            "success_probability_estimate": self.success_probability_estimate,
            "samples": {
                ",".join(map(str, tup)): count
                for tup, count in sorted(self.samples.items())
            },
            "cutoff": self.cutoff,
            "total_time": self.total_time,
            "dt": self.dt,
            "shots": self.shots,
            "seed": self.seed,
            "norm_drift": self.norm_drift,
            "note": self.note,
        }


def decide(
    poly: DiophantinePolynomial,
    cutoff: int,
    total_time: float,
    dt: float,
    shots: int,
    seed: int,
) -> DecisionReport:
    """Build, evolve, measure, and adjudicate by exact substitution.

    The most frequent measured tuple is the candidate; only D(candidate) = 0,
    an exact integer identity, produces a positive verdict. Anything else is a
    negative verdict scoped to the cutoff, with the exact scan's minimum
    attached. The success-probability estimate is the candidate's empirical
    frequency; there is deliberately no automatic rule for growing T or shots.
    """
    _check_schedule(total_time, dt)
    if cutoff < 0 or total_time == 0 or not 1 <= shots <= MAX_SHOTS:
        raise DomainError(
            f"cutoff must be a natural number, time positive and shots in 1..{MAX_SHOTS}")
    space = TruncatedFockSpace(poly.num_vars, cutoff)
    problem = AdiabaticProblem(space=space, h_problem=build_problem_hamiltonian(poly, space),
                               total_time=total_time, dt=dt)
    evolved = evolve(problem, uniform_ket(space))
    samples = measure_sample(evolved.state, space, shots, seed)

    candidate = max(samples.items(), key=lambda kv: (kv[1], tuple(-x for x in kv[0])))[0]
    frequency = samples[candidate] / shots
    e_ground, _winners = exact_ground_oracle(poly, cutoff)

    if poly.evaluate(candidate) == 0:
        verdict, witness = Verdict.SOLVABLE_WITH_WITNESS, candidate
        note = "witness verified by exact substitution"
    else:
        verdict, witness = Verdict.NO_SOLUTION_UP_TO_CUTOFF, None
        note = (f"negative verdict is bounded by the cutoff {cutoff}: it rules out "
                "zeros with every coordinate <= cutoff, nothing beyond")
    return DecisionReport(
        verdict=verdict,
        witness=witness,
        ground_energy=e_ground,
        success_probability_estimate=frequency,
        samples=samples,
        cutoff=cutoff,
        total_time=total_time,
        dt=dt,
        shots=shots,
        seed=seed,
        norm_drift=evolved.norm_drift,
        note=note,
    )
