"""Dense complex linear algebra, loaded by no command.

States are column vectors (kets) and operators are square matrices; everything
is a 2-D ``numpy`` array of ``complex128``. The eigensolver is numpy's
``eigh`` behind the square and Hermitian checks, and serves the tests as the
exact reference for the quantum module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# -- matrix construction and validation --------------------------------------


def matrix(entries) -> np.ndarray:
    """Build a complex matrix from a nested sequence (rows of entries)."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DomainError(f"matrix must be 2-D, got ndim={m.ndim}")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def ket(amplitudes) -> np.ndarray:
    """Column vector from a flat sequence of amplitudes."""
    v = np.asarray(amplitudes, dtype=np.complex128)
    if v.ndim == 2 and v.shape[1] == 1:
        return v.copy()
    if v.ndim != 1:
        raise DomainError("ket expects a flat amplitude sequence")
    return v.reshape(-1, 1)


# -- structural operations ---------------------------------------------------


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block matrix with blocks a[i,j] * b; dimensions multiply."""
    return np.kron(matrix(a), matrix(b))


def inner_product(phi: np.ndarray, psi: np.ndarray) -> complex:
    """Sum of conj(phi_i) * psi_i; conjugate-linear in the first argument."""
    p, q = ket(phi), ket(psi)
    if p.shape != q.shape:
        raise DomainError(f"shape mismatch: {p.shape} vs {q.shape}")
    return complex((p.conj().T @ q)[0, 0])


def norm(psi: np.ndarray) -> float:
    return math.sqrt(max(inner_product(psi, psi).real, 0.0))


def is_hermitian(a: np.ndarray) -> bool:
    """Square and within 1e-10 of its conjugate transpose, entry by entry."""
    a = matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T), initial=0.0) <= 1e-10)


# -- Hermitian eigensolver -----------------------------------------------------


class EigenSystem(NamedTuple):
    """Full spectrum of a Hermitian matrix.

    ``values`` is ascending and real; column j of ``vectors`` is the
    orthonormal eigenvector paired with ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def ground_value(self) -> float:
        return float(self.values[0])

    @property
    def ground_vector(self) -> np.ndarray:
        return self.vectors[:, :1].copy()


def hermitian_eigensystem(h: np.ndarray) -> EigenSystem:
    """Diagonalise a square Hermitian matrix with LAPACK's Hermitian solver
    (``numpy.linalg.eigh``), which returns the values in ascending order."""
    a = matrix(h)
    if a.shape[0] != a.shape[1]:
        raise DomainError("eigensystem requires a square matrix")
    if not is_hermitian(a):
        raise DomainError("matrix is not Hermitian within tolerance")
    return EigenSystem(*np.linalg.eigh(a))
