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

An exact integer scan of the lattice, a run of the last coordinate at a time,
is the oracle for every quantum-path result. `decide` scans once and groups
the points by the distinct values of D**2 (the levels): from the uniform
start the state stays constant on each level, so it propagates one amplitude
per level and samples levels, then points within them, in the standard library.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import random
from array import array
from collections import Counter
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DomainError,
    ResourceError,
    ShapeError,
    StabilityError,
    ValidationError,
    shown,
)
from .variates import multinomial

LATTICE_BUDGET = 10**7
VALUE_BITS_BUDGET = 4096
RUN_LENGTH = 4096  # values of the last coordinate the scan evaluates D over at once
MINIMIZER_BUDGET = 2 * 10**5  # lattice points one --oracle-only report may list
STEP_BUDGET = 10**7
# distinct values of D**2 one scan may group: about 300 bytes each while they
# are grouped and evolved
LEVEL_BUDGET = 10**6
# levels x steps of one evolution: each costs about 0.35-0.5 us
LEVEL_STEP_BUDGET = 10**8
STABILITY_LIMIT = 0.5
MAX_SHOTS = 2**63 - 1  # a count any signed 64-bit reader of the report can hold


# -- polynomials -----------------------------------------------------------------


class DiophantinePolynomial(NamedTuple):
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
        raise ValidationError(f"{what} must be an integer, got {shown(value)}")
    return value


def parse_polynomial(doc: dict) -> DiophantinePolynomial:
    """Validate a polynomial document {"vars": k, "terms": [[c, [e1..ek]], ...]}.

    Exponent vectors must be distinct (duplicates are an error, not merged);
    zero-coefficient terms are dropped as canonicalisation. Every malformed
    document raises :class:`ValidationError`.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"polynomial document must be a JSON object, got {shown(doc)}")
    try:
        num_vars = _integer(doc["vars"], "vars")
        raw_terms = doc["terms"]
    except KeyError as exc:
        raise ValidationError(f"malformed polynomial document: {exc}") from None
    if num_vars < 1:
        raise ValidationError("polynomial needs at least one variable")
    if not isinstance(raw_terms, (list, tuple)):
        raise ValidationError(f"terms must be a list, got {shown(raw_terms)}")
    seen: set[tuple[int, ...]] = set()
    terms: list[tuple[int, tuple[int, ...]]] = []
    for entry in raw_terms:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[1], (list, tuple))):
            raise ValidationError(f"term must be [coefficient, exponents], got {shown(entry)}")
        coeff = _integer(entry[0], "coefficient")
        exps = tuple(_integer(e, "exponent") for e in entry[1])
        if len(exps) != num_vars:
            raise ValidationError(
                f"exponent vector {shown(exps)} does not match {num_vars} variables")
        if any(e < 0 for e in exps):
            raise ValidationError("exponents must be naturals")
        if exps in seen:
            raise ValidationError(f"duplicate exponent vector {shown(exps)}")
        seen.add(exps)
        if coeff != 0:
            terms.append((coeff, exps))
    return DiophantinePolynomial(num_vars=num_vars, terms=tuple(terms))


# -- truncated mode space -----------------------------------------------------------


class TruncatedFockSpace:
    """k modes, occupation numbers 0..cutoff each, basis in lexicographic order."""

    __slots__ = ("num_modes", "cutoff")

    def __init__(self, num_modes: int, cutoff: int):
        if num_modes < 1:
            raise DomainError("need at least one mode")
        if cutoff < 0:
            raise DomainError("cutoff must be a natural number")
        self.num_modes, self.cutoff = num_modes, cutoff

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.num_modes

    def occupation_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dimension:
            raise DomainError("basis index out of range")
        digits = []
        for _ in range(self.num_modes):
            index, n = divmod(index, self.cutoff + 1)
            digits.append(n)
        return tuple(reversed(digits))


# -- the exact scan -------------------------------------------------------------------


def _value_bits_bound(poly: DiophantinePolynomial, cutoff: int) -> int:
    """An upper bound on the bit length of D over the lattice 0..cutoff per variable.

    A term c * x1**e1 * ... has at most bits(|c|) + sum(ei) * bits(cutoff)
    bits there, and a sum of t terms at most bits(t) more than its longest.
    """
    longest = max((abs(coeff).bit_length() + sum(exps) * cutoff.bit_length()
                   for coeff, exps in poly.terms), default=0)
    return longest + len(poly.terms).bit_length()


def _descending(exponents) -> tuple[list[int], list[int]]:
    """Distinct exponents in descending order, and from each the gap down to
    the next one, or to 0 from the last."""
    order = sorted(exponents, reverse=True)
    return order, [e - f for e, f in zip(order, order[1:] + [0])]


def _horner(coeffs, gaps, xs: range) -> list[int]:
    """sum(c * x**e) at every x of xs, given the coefficients of descending
    exponents e and their gaps: one C-level pass over xs, a chain of maps."""
    values = itertools.repeat(0, len(xs))
    for c, gap in zip(coeffs, gaps):
        values = map(operator.add, values, itertools.repeat(c))
        if gap:
            values = map(operator.mul, values,
                         xs if gap == 1 else map(pow, xs, itertools.repeat(gap)))
    return list(values)


def _lattice_runs(poly: DiophantinePolynomial, space: TruncatedFockSpace) -> Iterator[list[int]]:
    """D at every lattice point, in basis order and exact integers, a run at a time.

    D is a polynomial in the last coordinate whose coefficients are
    polynomials in the second-to-last. For each setting of the coordinates
    before those two, the coefficients over the whole row of the
    second-to-last are one C-level Horner pass per exponent, and so is a run
    of up to RUN_LENGTH values of the last. A lattice past LATTICE_BUDGET
    points, or values past VALUE_BITS_BUDGET bits, is a
    :class:`ResourceError` before the first run. So is a lattice of as many
    modes as LATTICE_BUDGET has bits, before its size is computed: at any
    cutoff above 0 it is past the budget.
    """
    modes = LATTICE_BUDGET.bit_length() - 1  # 2**(modes + 1) points are past the budget
    if space.num_modes > modes or space.dimension > LATTICE_BUDGET:
        raise ResourceError(
            f"lattice of ({space.cutoff}+1)**{space.num_modes} points is past the budget of "
            f"{LATTICE_BUDGET} points and {modes} modes")
    bits = _value_bits_bound(poly, space.cutoff)
    if bits > VALUE_BITS_BUDGET:
        raise ResourceError(
            f"values of up to {bits} bits on the lattice are past the budget of "
            f"{VALUE_BITS_BUDGET} bits")
    top = space.cutoff + 1
    # one variable stands for two, the first of them fixed at 0
    terms, rows = (poly.terms, range(top)) if space.num_modes > 1 else (
        [(c, (0, *exps)) for c, exps in poly.terms], range(1))
    groups: dict[int, dict[int, list[tuple[int, tuple[int, ...]]]]] = {}
    for coeff, exps in terms:
        groups.setdefault(exps[-1], {}).setdefault(exps[-2], []).append((coeff, exps[:-2]))
    last, gaps = _descending(groups)
    inner = [_descending(groups[e]) for e in last]
    for outer in itertools.product(range(top), repeat=max(space.num_modes - 2, 0)):
        columns = [_horner([sum(c * math.prod(map(pow, outer, rest)) for c, rest in groups[e][f])
                            for f in fs], fgaps, rows)
                   for e, (fs, fgaps) in zip(last, inner)]
        for coeffs in zip(*columns) if columns else itertools.repeat((), len(rows)):
            for start in range(0, top, RUN_LENGTH):
                yield _horner(coeffs, gaps, range(start, min(start + RUN_LENGTH, top)))


def exact_ground_oracle(
    poly: DiophantinePolynomial, cutoff: int
) -> tuple[int, list[tuple[int, ...]]]:
    """The exact minimum of D**2 over the truncated lattice and every tuple attaining it.

    Arithmetic is plain Python integers, so no value is ever rounded, and
    memory does not grow with the lattice beyond the minimisers. Only a run
    whose least |D| ties or beats the best so far is searched for them; more than
    MINIMIZER_BUDGET is a :class:`ResourceError` once the scan is done.
    """
    space = TruncatedFockSpace(poly.num_vars, cutoff)
    best, winners, start = math.inf, [], 0
    for run in _lattice_runs(poly, space):
        low = min(map(abs, run))
        if low < best:
            best, winners = low, []
        if low == best:
            winners += itertools.compress(range(start, start + len(run)),
                                          map(low.__eq__, map(abs, run)))
            del winners[MINIMIZER_BUDGET + 1:]
        start += len(run)
    if len(winners) > MINIMIZER_BUDGET:
        raise ResourceError(f"more than {MINIMIZER_BUDGET} minimisers are past the budget")
    return best * best, [space.occupation_of(i) for i in winners]


class LevelScan(NamedTuple):
    """The lattice grouped by the exact value p = D(n)**2.

    ``levels`` are the distinct values in increasing order, level j is taken
    at ``multiplicities[j]`` points, and the point at basis index i is at
    level ``level_of[i]``.
    """

    space: TruncatedFockSpace
    levels: tuple[int, ...]
    multiplicities: tuple[int, ...]
    level_of: array

    def members(self, wanted) -> dict[int, list[int]]:
        """The basis indices at each wanted level, in basis order, from one pass."""
        found: dict[int, list[int]] = {j: [] for j in wanted}
        for i, j in enumerate(self.level_of):
            if j in found:
                found[j].append(i)
        return found


def scan_levels(
    poly: DiophantinePolynomial, cutoff: int, max_levels: int = LEVEL_BUDGET
) -> LevelScan:
    """Evaluate D**2 once at every lattice point up to the cutoff and group the points by value.

    Memory is one 4-byte index per point and one dictionary entry per
    distinct level; the lattice budgets are checked before the first
    evaluation, and the scan stops with :class:`ResourceError` after the run
    that holds the first level past ``max_levels``.
    """
    space = TruncatedFockSpace(poly.num_vars, cutoff)
    first_seen: dict[int, int] = {}
    seen = array("I")  # the first-seen rank of each point's value
    for run in _lattice_runs(poly, space):
        seen.extend(map(first_seen.setdefault, map(operator.mul, run, run),
                        map(len, itertools.repeat(first_seen))))
        if len(first_seen) > max_levels:
            raise ResourceError(
                f"the lattice has more than {max_levels} distinct levels, past the "
                f"budgets of {LEVEL_BUDGET} levels and {LEVEL_STEP_BUDGET} "
                "levels x steps")
    levels = sorted(first_seen)
    level = [0] * len(levels)
    for j, value in enumerate(levels):
        level[first_seen[value]] = j
    counts = Counter(seen)
    return LevelScan(
        space=space,
        levels=tuple(levels),
        multiplicities=tuple(counts[first_seen[value]] for value in levels),
        level_of=array("I", map(level.__getitem__, seen)),
    )


def _float_levels(levels: Sequence[int]) -> list[float]:
    try:
        return [float(p) for p in levels]
    except OverflowError:
        raise DomainError(
            "some D(n)**2 on the lattice is too large for a float; lower the "
            "cutoff, or use --oracle-only for the exact scan") from None


# -- Hamiltonians ----------------------------------------------------------------
#
# One Hamiltonian path, H(s) = (1 - s)(I - |u><u|) + s * diag(p), with u the
# space's uniform ket and p = D(n)**2; neither operator is ever a d x d array.


def _check_schedule(total_time: float, dt: float) -> None:
    """Refuse a schedule that is not finite, or whose step count is past the budget."""
    if not (0 <= total_time < math.inf and 0 < dt < math.inf):
        raise DomainError("total time must be finite and non-negative, dt finite and positive")
    if total_time / dt > STEP_BUDGET:
        raise ResourceError(
            f"{total_time / dt:.3g} integrator steps are past the budget of {STEP_BUDGET}")


def _step_count(total_time: float, dt: float) -> int:
    return max(1, math.ceil(total_time / dt))


def _norm_bound(levels: Sequence[float], dimension: int) -> float:
    """max||H(s)|| over the schedule (convexity): the larger of max|p| and
    ||I - |u><u|||, which is 1, or 0 when d = 1."""
    return max(float(dimension > 1), max(map(abs, levels)))


# -- propagation --------------------------------------------------------------------


class LevelEvolution(NamedTuple):
    """The final level coefficients, unnormalised, the drift of their norm and the step count."""

    amplitudes: list[complex]
    norm_drift: float
    steps: int


def evolve_levels(
    levels: Sequence[float],
    multiplicities: Sequence[int],
    amplitudes: Sequence[complex],
    total_time: float,
    dt: float,
) -> LevelEvolution:
    """Integrate i dpsi/dt = H(t/T) psi from 0 to T on the span of the level blocks.

    Level j holds multiplicities[j] points where p = levels[j]; e_j is the
    normalised indicator of those points and amplitudes[j] the coefficient of
    e_j. H(s) maps that span to itself: u = sum_j w_j e_j with
    w_j = sqrt(m_j / d), so exp(-i a (I - |u><u|)) takes c to
    e^{-ia} c + (1 - e^{-ia}) w (w . c), and exp(-i b p) multiplies c_j by
    e^{-i b p_j}; each costs O(k) for k levels.

    Step k freezes H at its midpoint s_k and applies the start factor with
    a = (1 - s_k) dt / 2, the problem factor with b = s_k dt, then the start
    factor again; the halves that meet between steps run as one. Each factor
    is exactly unitary and the scheme is second order in dt. The guard
    dt * max||H|| <= STABILITY_LIMIT, with the norm of the whole d-point
    operator, is a step-size guard that does not bound the splitting error:
    at ten times its dt the lowest level's population is off by 7e-7 on one
    lattice and by 6.7e-4 on another. More than LEVEL_STEP_BUDGET
    levels x steps is a :class:`ResourceError` before the first step; the
    schedule is checked as :func:`decide` checks it, and three sequences of
    unequal length are a :class:`ShapeError`. Returns the final
    coefficients, unnormalised, with the drift of their norm.
    """
    _check_schedule(total_time, dt)
    if not len(levels) == len(multiplicities) == len(amplitudes):
        raise ShapeError("levels, multiplicities and amplitudes must have one entry per level")
    d = sum(multiplicities)
    c = list(amplitudes)
    if total_time == 0.0:
        return LevelEvolution(amplitudes=c, norm_drift=0.0, steps=0)
    bound = _norm_bound(levels, d)
    if dt * bound > STABILITY_LIMIT:
        raise StabilityError(
            f"dt * max||H|| = {dt * bound:.3g} exceeds {STABILITY_LIMIT}; "
            "use a smaller step")

    steps = _step_count(total_time, dt)
    if len(levels) * steps > LEVEL_STEP_BUDGET:
        raise ResourceError(
            f"{len(levels)} levels x {steps} steps is past the budget of "
            f"{LEVEL_STEP_BUDGET}")
    dt = total_time / steps
    w = [math.sqrt(m / d) for m in multiplicities]
    rates = [-1j * dt * p for p in levels]
    start_norm = math.sqrt(sum(abs(x) ** 2 for x in c))

    def mix(theta: float, c: list[complex]) -> tuple[complex, complex]:
        """The start factor's e^{-i theta} and its rank-one weight (1 - e^{-i theta}) w . c."""
        phase = cmath.exp(-1j * theta)
        return phase, (1.0 - phase) * sum(map(operator.mul, w, c))

    owed = 0.0  # the previous step's closing start half, merged into this step's opening one
    for k in range(steps):
        s = (k + 0.5) / steps
        half = 0.5 * dt * (1.0 - s)
        phase, weight = mix(owed + half, c)
        c = [cmath.exp(s * r) * (phase * x + weight * wj) for r, x, wj in zip(rates, c, w)]
        owed = half
    phase, weight = mix(owed, c)
    c = [phase * x + weight * wj for x, wj in zip(c, w)]
    final_norm = math.sqrt(sum(abs(x) ** 2 for x in c))
    return LevelEvolution(amplitudes=c, norm_drift=abs(final_norm - start_norm), steps=steps)


def evolve_from_uniform(scan: LevelScan, total_time: float, dt: float) -> LevelEvolution:
    """Evolve the uniform superposition over the scanned lattice by :func:`evolve_levels`.

    Its coefficient on level j is sqrt(m_j / d), and the state stays
    constant on every level, so the point amplitudes are c_j / sqrt(m_j).
    """
    d = scan.space.dimension
    return evolve_levels(_float_levels(scan.levels), scan.multiplicities,
                         [math.sqrt(m / d) for m in scan.multiplicities], total_time, dt)


# -- measurement --------------------------------------------------------------------


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise DomainError(f"shots must lie in 1..{MAX_SHOTS}")


def sample_levels(
    scan: LevelScan, populations: Sequence[float], shots: int, seed: int
) -> dict[tuple[int, ...], int]:
    """Sample occupation tuples from a state constant on each level.

    The shots split over the levels by their populations, then each level's
    share splits evenly over its points; both splits draw from
    random.Random(seed), in that order.
    """
    _check_shots(shots)
    rng = random.Random(seed)
    per_level = multinomial(rng, shots, populations)
    per_point = {j: multinomial(rng, count, [1] * scan.multiplicities[j])
                 for j, count in per_level.items()}
    members = scan.members(per_point)
    space = scan.space
    return {space.occupation_of(members[j][rank]): count
            for j, draws in per_point.items() for rank, count in draws.items()}


# -- the decision procedure ------------------------------------------------------------


class Verdict(Enum):
    SOLVABLE_WITH_WITNESS = "solvable-with-witness"
    NO_SOLUTION_UP_TO_CUTOFF = "no-solution-up-to-cutoff"


class DecisionReport(NamedTuple):
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
    """Scan, evolve, measure, and adjudicate by exact substitution.

    The evolution starts from the uniform superposition, whose coefficient
    on level j is sqrt(m_j / d), and stays in the span of the levels. The
    most frequent measured tuple is the candidate; only D(candidate) = 0, an
    exact integer identity, produces a positive verdict. Anything else is a
    negative verdict scoped to the cutoff, with the exact scan's minimum
    attached. The success-probability estimate is the candidate's empirical
    frequency; there is deliberately no automatic rule for growing T or shots.
    The scan refuses a lattice of more than min(LEVEL_BUDGET,
    LEVEL_STEP_BUDGET // steps) levels before the evolution starts.
    """
    _check_schedule(total_time, dt)
    if cutoff < 0 or total_time == 0 or not 1 <= shots <= MAX_SHOTS:
        raise DomainError(
            f"cutoff must be a natural number, time positive and shots in 1..{MAX_SHOTS}")
    scan = scan_levels(poly, cutoff,
                       min(LEVEL_BUDGET, LEVEL_STEP_BUDGET // _step_count(total_time, dt)))
    evolved = evolve_from_uniform(scan, total_time, dt)
    samples = sample_levels(scan, [abs(x) ** 2 for x in evolved.amplitudes], shots, seed)

    candidate = max(samples.items(), key=lambda kv: (kv[1], tuple(-x for x in kv[0])))[0]
    frequency = samples[candidate] / shots

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
        ground_energy=scan.levels[0],
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
