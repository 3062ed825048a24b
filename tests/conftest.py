import json
import math
from collections import Counter

import numpy as np
import pytest

from hyperlab import tae, turing


def successor_doc() -> dict:
    """Unary successor: walk right over marks, write one more, halt."""
    return {
        "blank": "_",
        "alphabet": ["_", "1"],
        "states": ["scan", "done"],
        "initial": "scan",
        "finals": ["done"],
        "transitions": [
            {"from": "scan", "read": "1", "to": "scan", "write": "1", "move": "r"},
            {"from": "scan", "read": "_", "to": "done", "write": "1", "move": "n"},
        ],
    }


def self_loop_doc() -> dict:
    """Never halts: rewrites the blank under the head forever."""
    return {
        "blank": "_",
        "alphabet": ["_", "1"],
        "states": ["loop"],
        "initial": "loop",
        "finals": [],
        "transitions": [
            {"from": "loop", "read": "_", "to": "loop", "write": "_", "move": "n"},
            {"from": "loop", "read": "1", "to": "loop", "write": "1", "move": "n"},
        ],
    }


def contents_doc(symbols: int) -> dict:
    """A 2-tape machine over the blank and ``symbols`` - 1 more, whose one
    cell passes through every pair with a non-blank second symbol and halts.

    Its cells may hold the ``symbols`` input contents and 16 x 15 pairs, so
    256 contents at 16 symbols and 257 at 17.
    """
    names = ["_"] + [f"s{i}" for i in range(1, symbols)]
    pairs = [[a, b] for a in names[:16] for b in names[1:16]]
    return {"blank": "_", "alphabet": names, "tapes": 2, "states": ["go", "done"],
            "initial": "go", "finals": ["done"], "transitions": [
                {"from": "go", "read": read, "to": "go" if write != pairs[-1] else "done",
                 "write": write, "move": "n"}
                for read, write in zip([["_", "_"]] + pairs, pairs)]}


def plant_composites(monkeypatch, numbers) -> None:
    """Have tae's odd-prime sieve mark the given odd numbers composite, for
    the Goldbach stream and has_prime_pair below alike: no even
    counterexample exists in testable ranges, so tests plant one this way."""
    sieve = tae._odd_prime_flags

    def planted(limit: int) -> bytearray:
        flags = sieve(limit)
        for n in numbers:
            if n <= limit:
                flags[n // 2] = 0
        return flags

    monkeypatch.setattr(tae, "_odd_prime_flags", planted)


def has_prime_pair(even: int) -> bool:
    """True when the even number is a sum of two primes, read off tae's
    odd-prime flags sieved up to it: the per-even reference that the tests
    compare the Goldbach stream with."""
    if even % 2 != 0 or even < 4:
        raise ValueError("prime-pair check is defined for even numbers >= 4")
    if even == 4:
        return True  # 2 + 2; every larger even can only split into two odd primes
    flags = tae._odd_prime_flags(even)
    j = even // 2 - 1  # p = 2k + 1 leaves even - p = 2(j - k) + 1
    return any(flags[k] and flags[j - k] for k in range(1, (even - 2) // 4 + 1))


@pytest.fixture
def successor():
    return turing.load_machine(successor_doc())


@pytest.fixture
def self_loop():
    return turing.load_machine(self_loop_doc())


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def write_json(tmp_path):
    def _write(name: str, doc) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def charpoly_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: interpolate det(x*I - H) at Chebyshev
    nodes, solve the square Vandermonde system for the characteristic
    polynomial, and take its roots. Independent of the ``eigh`` it checks: it
    uses LU determinants and ``np.roots``, whose companion-matrix eigenvalues
    come from LAPACK's general (nonsymmetric) solver, not its Hermitian one."""
    n = h.shape[0]
    scale = max(1.0, float(np.linalg.norm(h, 2)))
    hs = h / scale
    k = np.arange(n + 1)
    nodes = 1.2 * np.cos(np.pi * (2 * k + 1) / (2 * (n + 1)))
    values = np.array([np.linalg.det(x * np.eye(n) - hs) for x in nodes]).real
    coeffs = np.linalg.solve(np.vander(nodes, n + 1), values)
    return np.sort(np.roots(coeffs).real) * scale


def chi_square_upper(df: int, z: float = 3.09) -> float:
    """The upper 0.1 % point of chi-square with df degrees of freedom (Wilson-Hilferty)."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def pooled_chi_square(observed: Counter, expected: dict) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom. Neighbouring outcomes, in
    key order, pool until each bin expects at least 5; the rest joins the last bin."""
    bins, seen, mass = [], 0, 0.0
    for key in sorted(expected):
        seen, mass = seen + observed[key], mass + expected[key]
        if mass >= 5:
            bins.append((seen, mass))
            seen, mass = 0, 0.0
    last_seen, last_mass = bins.pop()
    bins.append((last_seen + seen, last_mass + mass))
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1
