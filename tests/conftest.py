import json
import math
from collections import Counter

import numpy as np
import pytest

from hyperlab import turing


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
    polynomial, and take its roots. Shares no code path with the Jacobi
    iteration (LU determinants plus companion-matrix roots)."""
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
