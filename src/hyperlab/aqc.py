"""Ground-state search for Diophantine solvability on a truncated lattice.

The pipeline: an integer polynomial D in k unknowns becomes the diagonal
operator D(N1..Nk)**2 on the lattice of k-tuples with every coordinate in
0..cutoff, (cutoff + 1)**k points in lexicographic (basis) order, so the
polynomial and the cutoff name the lattice (number operators act diagonally,
so no operator algebra is needed -- the matrix entry at point n is just
D(n)**2). The system starts in the uniform superposition, the unique ground
state of a rank-one projector complement, and the Hamiltonian is
interpolated linearly into the problem operator over a total time T. If the
schedule is slow enough the final state concentrates on a tuple with minimal
D**2; measuring it and substituting back answers "is there a zero with all
coordinates <= cutoff".

Every negative answer is cutoff-bounded by construction. Variables range over
the naturals; searches over negative integers need an explicit substitution
such as x -> x' - m before encoding.

An exact integer scan of the lattice, a block of basis order at a time, is
the oracle for every quantum-path result. `decide` scans once and counts
the points at each distinct value of D**2 (the levels): from the uniform start
the state stays constant on each level, so it propagates one amplitude per
level, samples levels, then points within them, and scans again for those.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import random
from collections import Counter
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DomainError,
    ResourceError,
    StabilityError,
    ValidationError,
    shown,
)
from .variates import even_multinomial, multinomial

LATTICE_BUDGET = 10**7
VALUE_BITS_BUDGET = 4096
RUN_LENGTH = 4096  # consecutive lattice points in basis order that one pass of the scan evaluates
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
            raise DomainError(
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
            raise ValidationError(f"{len(exps)} exponents do not match {shown(num_vars)} variables")
        if any(e < 0 for e in exps):
            raise ValidationError("exponents must be naturals")
        if exps in seen:
            raise ValidationError(f"duplicate exponent vector {shown(exps)}")
        seen.add(exps)
        if coeff != 0:
            terms.append((coeff, exps))
    return DiophantinePolynomial(num_vars=num_vars, terms=tuple(terms))


# -- the truncated lattice -----------------------------------------------------------


def _occupation(index: int, num_vars: int, cutoff: int) -> tuple[int, ...]:
    """The lattice point at a basis index: the index's num_vars digits in base cutoff + 1."""
    digits = []
    for _ in range(num_vars):
        index, n = divmod(index, cutoff + 1)
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


def _nested(terms, j: int):
    """Horner's nesting of the terms in the first j variables: their sum if no term uses
    those, else (coefficient, gap) pairs in descending exponent e of variable j, each
    coefficient nested in the first j - 1 and each gap e minus the next e (or 0)."""
    if not any(any(exps[:j]) for _, exps in terms):
        return sum(coeff for coeff, _ in terms)
    groups: dict[int, list] = {}
    for coeff, exps in terms:
        groups.setdefault(exps[j - 1], []).append((coeff, exps))
    order = sorted(groups, reverse=True)
    return [(_nested(groups[e], j - 1), e - f) for e, f in zip(order, order[1:] + [0])]


def _block(nested, top: int, start: int, n: int) -> list[int]:
    """The nested polynomial at the n points from basis index start, each variable in
    0..top - 1: one C-level Horner pass over the last variable, each coefficient the same
    pass over the rows the points lie in, its value repeated over each row's points."""
    if not isinstance(nested, list):
        return [nested] * n
    row, offset = divmod(start, top)
    counts = [top - offset] + [top] * ((offset + n - 1) // top)  # the points in each row
    counts[-1] -= sum(counts) - n
    xs = list(itertools.islice(itertools.chain(range(offset, top),
                                               itertools.cycle(range(top))), n))
    values = None
    for coeff, gap in nested:
        column = itertools.chain.from_iterable(
            map(itertools.repeat, _block(coeff, top, row, len(counts)), counts))
        values = column if values is None else map(operator.add, values, column)
        if gap:
            values = map(operator.mul, values,
                         xs if gap == 1 else map(pow, xs, itertools.repeat(gap)))
    return list(values)


def _lattice_runs(poly: DiophantinePolynomial, cutoff: int) -> Iterator[tuple[int, list[int]]]:
    """D at every lattice point, in basis order and exact integers, a run at a time,
    as (start, run) with start the basis index of the run's first point.

    A run is RUN_LENGTH consecutive points, the last one shorter, each one :func:`_block`
    pass over D as :func:`_nested` nests it. A negative cutoff is a :class:`DomainError`,
    and a lattice past LATTICE_BUDGET points, or values past VALUE_BITS_BUDGET bits, a
    :class:`ResourceError`, before the first run. So is a lattice in as many variables as
    LATTICE_BUDGET has bits, before its size is computed: at any cutoff above 0 it is
    past the budget.
    """
    if cutoff < 0:
        raise DomainError("cutoff must be a natural number")
    modes = LATTICE_BUDGET.bit_length() - 1  # 2**(modes + 1) points are past the budget
    if poly.num_vars > modes or (cutoff + 1) ** poly.num_vars > LATTICE_BUDGET:
        raise ResourceError(
            f"lattice of ({shown(cutoff)}+1)**{shown(poly.num_vars)} points is past the budget "
            f"of {LATTICE_BUDGET} points and {modes} modes")
    bits = _value_bits_bound(poly, cutoff)
    if bits > VALUE_BITS_BUDGET:
        raise ResourceError(
            f"values of up to {shown(bits)} bits on the lattice are past the budget of "
            f"{VALUE_BITS_BUDGET} bits")
    nested, dimension = _nested(poly.terms, poly.num_vars), (cutoff + 1) ** poly.num_vars
    for start in range(0, dimension, RUN_LENGTH):
        yield start, _block(nested, cutoff + 1, start, min(RUN_LENGTH, dimension - start))


def exact_ground_oracle(
    poly: DiophantinePolynomial, cutoff: int
) -> tuple[int, list[tuple[int, ...]]]:
    """The exact minimum of D**2 over the truncated lattice and every tuple attaining it.

    Arithmetic is plain Python integers, so no value is ever rounded, and
    memory does not grow with the lattice beyond the minimisers. Only a run
    whose least |D| ties or beats the best so far is searched for them; more than
    MINIMIZER_BUDGET is a :class:`ResourceError` once the scan is done.
    """
    best, winners = math.inf, []
    for start, run in _lattice_runs(poly, cutoff):
        low = min(map(abs, run))
        if low < best:
            best, winners = low, []
        if low == best:
            winners += itertools.compress(itertools.count(start), map(low.__eq__, map(abs, run)))
            del winners[MINIMIZER_BUDGET + 1:]
    if len(winners) > MINIMIZER_BUDGET:
        raise ResourceError(f"more than {MINIMIZER_BUDGET} minimisers are past the budget")
    return best * best, [_occupation(i, poly.num_vars, cutoff) for i in winners]


class LevelScan(NamedTuple):
    """The lattice grouped by the exact value p = D(n)**2.

    ``levels`` are the distinct values in increasing order, and level j is
    taken at ``multiplicities[j]`` points; the points themselves are not kept.
    """

    poly: DiophantinePolynomial
    cutoff: int
    levels: tuple[int, ...]
    multiplicities: tuple[int, ...]

    def members(self, wanted) -> dict[int, list[int]]:
        """Each wanted level j's basis indices of its r-th points in basis order, for
        the ranks r in wanted[j], listed in rank order, from a second scan that counts
        each wanted level's points and stops at the last wanted one. +D and -D share
        a level."""
        roots = {math.isqrt(self.levels[j]): j for j in wanted}
        passed, found = dict.fromkeys(wanted, 0), {j: [] for j in wanted}
        left = sum(map(len, wanted.values()))
        for start, run in _lattice_runs(self.poly, self.cutoff):
            for i, root in itertools.compress(enumerate(map(abs, run), start),
                                              map(roots.__contains__, map(abs, run))):
                j = roots[root]
                if passed[j] in wanted[j]:
                    found[j].append(i)
                    left -= 1
                    if not left:
                        return found
                passed[j] += 1
        return found


def scan_levels(poly: DiophantinePolynomial, cutoff: int, steps: int = 1) -> LevelScan:
    """Evaluate D once at every lattice point up to the cutoff and count the points per level.

    Memory is one count per distinct |D|, the root of its level; the lattice
    budgets are checked before the first evaluation, and the scan stops with
    :class:`ResourceError` after the run that holds the first level past
    min(LEVEL_BUDGET, LEVEL_STEP_BUDGET // steps), so that the levels found
    can be evolved ``steps`` steps (0 steps counts as 1).
    """
    max_levels = min(LEVEL_BUDGET, LEVEL_STEP_BUDGET // max(1, steps))
    counts: Counter[int] = Counter()

    def magnitudes() -> Iterator[Iterator[int]]:
        # |D| a run at a time; counts holds the whole run when the next is asked for
        for _, run in _lattice_runs(poly, cutoff):
            yield map(abs, run)
            if len(counts) > max_levels:
                raise ResourceError(
                    f"the lattice has more than {max_levels} distinct levels, past the "
                    f"budgets of {LEVEL_BUDGET} levels and {LEVEL_STEP_BUDGET} "
                    "levels x steps")

    counts.update(itertools.chain.from_iterable(magnitudes()))
    roots = sorted(counts)
    return LevelScan(poly, cutoff, tuple(root * root for root in roots),
                     tuple(map(counts.__getitem__, roots)))


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
# lattice's uniform ket and p = D(n)**2; neither operator is ever a d x d array.


def _schedule_steps(total_time: float, dt: float) -> int:
    """The steps of a schedule, at least 1; refused where it is not finite, or past the budget."""
    if not (0 <= total_time < math.inf and 0 < dt < math.inf):
        raise DomainError("total time must be finite and non-negative, dt finite and positive")
    if total_time / dt > STEP_BUDGET:
        raise ResourceError(
            f"{total_time / dt:.3g} integrator steps are past the budget of {STEP_BUDGET}")
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
    unequal length are a :class:`DomainError`. Returns the final
    coefficients, unnormalised, with the drift of their norm.
    """
    steps = _schedule_steps(total_time, dt)
    if not len(levels) == len(multiplicities) == len(amplitudes):
        raise DomainError("levels, multiplicities and amplitudes must have one entry per level")
    d = sum(multiplicities)
    c = list(amplitudes)
    if total_time == 0.0:
        return LevelEvolution(amplitudes=c, norm_drift=0.0, steps=0)
    bound = _norm_bound(levels, d)
    if dt * bound > STABILITY_LIMIT:
        raise StabilityError(
            f"dt * max||H|| = {dt * bound:.3g} exceeds {STABILITY_LIMIT}; "
            "use a smaller step")

    if len(levels) * steps > LEVEL_STEP_BUDGET:
        raise ResourceError(
            f"{len(levels)} levels x {steps} steps is past the budget of "
            f"{LEVEL_STEP_BUDGET}")
    dt = total_time / steps
    w = [math.sqrt(m / d) for m in multiplicities]
    rates = [-1j * dt * p for p in levels]
    start_norm = math.sqrt(math.fsum(abs(x) ** 2 for x in c))  # the same on every Python

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
    final_norm = math.sqrt(math.fsum(abs(x) ** 2 for x in c))
    return LevelEvolution(amplitudes=c, norm_drift=abs(final_norm - start_norm), steps=steps)


def evolve_from_uniform(scan: LevelScan, total_time: float, dt: float) -> LevelEvolution:
    """Evolve the uniform superposition over the scanned lattice by :func:`evolve_levels`.

    Its coefficient on level j is sqrt(m_j / d), and the state stays
    constant on every level, so the point amplitudes are c_j / sqrt(m_j).
    """
    d = sum(scan.multiplicities)
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
    random.Random(seed), in that order, and a second scan finds the points.
    """
    _check_shots(shots)
    rng = random.Random(seed)
    per_level = multinomial(rng, shots, populations)
    per_point = {j: even_multinomial(rng, count, scan.multiplicities[j])
                 for j, count in per_level.items()}
    members = scan.members(per_point)  # each level's draws are in rank order
    return {_occupation(i, scan.poly.num_vars, scan.cutoff): count
            for j, draws in per_point.items()
            for i, count in zip(members[j], draws.values(), strict=True)}


# -- the decision procedure ------------------------------------------------------------


class DecisionReport(NamedTuple):
    verdict: str
    witness: Optional[list[int]]
    ground_energy: int
    success_probability_estimate: float
    samples: dict[str, int]  # "x,y,..." -> count, in basis order
    cutoff: int
    total_time: float
    dt: float
    shots: int
    seed: int
    norm_drift: float
    note: str


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
    negative verdict, with the exact scan's minimum attached as the ground
    energy. Its note scopes it to the cutoff where that minimum is positive;
    where it is 0, the note says the scan found a zero within the cutoff that
    the sampled candidate is not. The success-probability estimate is the
    candidate's empirical frequency; there is deliberately no automatic rule
    for growing T or shots. The scan, told the schedule's steps, refuses a
    lattice of more levels than they may evolve before the evolution starts.
    """
    steps = _schedule_steps(total_time, dt)
    if total_time == 0:
        raise DomainError("total time must be positive")
    _check_shots(shots)
    scan = scan_levels(poly, cutoff, steps)
    evolved = evolve_from_uniform(scan, total_time, dt)
    samples = sample_levels(scan, [abs(x) ** 2 for x in evolved.amplitudes], shots, seed)

    candidate = max(samples.items(), key=lambda kv: (kv[1], tuple(-x for x in kv[0])))[0]
    frequency = samples[candidate] / shots

    if poly.evaluate(candidate) == 0:
        verdict, witness = "solvable-with-witness", list(candidate)
        note = "witness verified by exact substitution"
    else:
        verdict, witness = "no-solution-up-to-cutoff", None
        if scan.levels[0]:
            note = (f"negative verdict is bounded by the cutoff {cutoff}: it rules out "
                    "zeros with every coordinate <= cutoff, nothing beyond")
        else:
            note = ("the sampled candidate is not a zero, but the exact scan found a zero "
                    f"with every coordinate <= cutoff {cutoff}")
    return DecisionReport(
        verdict=verdict,
        witness=witness,
        ground_energy=scan.levels[0],
        success_probability_estimate=frequency,
        samples={",".join(map(str, point)): count for point, count in sorted(samples.items())},
        cutoff=cutoff,
        total_time=total_time,
        dt=dt,
        shots=shots,
        seed=seed,
        norm_drift=evolved.norm_drift,
        note=note,
    )


def overlap_sweep(
    poly: DiophantinePolynomial, cutoff: int, times: Sequence[float], dt: float
) -> dict:
    """The population of the ground level, which holds exactly the minimisers, after
    each schedule length in times, from one scan. All the schedules' steps are refused
    past STEP_BUDGET before it, and its levels as in :func:`decide`; its minimisers, the
    ground level's points, past MINIMIZER_BUDGET before a second scan finds them."""
    steps = sum(_schedule_steps(total_time, dt) for total_time in times)
    if steps > STEP_BUDGET:
        raise ResourceError(f"{steps} steps over the sweep are past the budget of {STEP_BUDGET}")
    scan = scan_levels(poly, cutoff, steps)
    if scan.multiplicities[0] > MINIMIZER_BUDGET:
        raise ResourceError(f"more than {MINIMIZER_BUDGET} minimisers are past the budget")
    ground = scan.members({0: range(scan.multiplicities[0])})[0]
    rows = []
    for total_time in times:
        evolved = evolve_from_uniform(scan, total_time, dt)
        populations = [abs(c) ** 2 for c in evolved.amplitudes]
        rows.append({"total_time": total_time, "ground_overlap": populations[0] / sum(populations),
                     "norm_drift": evolved.norm_drift, "steps": evolved.steps})
    return {"cutoff": cutoff, "dt": dt, "exact_ground_energy": scan.levels[0],
            "exact_minimizers": [list(_occupation(i, poly.num_vars, cutoff)) for i in ground],
            "sweep": rows}
