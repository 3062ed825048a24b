"""Dense complex linear algebra, loaded by no command.

States are column vectors (kets) and operators are square matrices; everything
is a 2-D ``numpy`` array of ``complex128``. The eigensolver is a cyclic Jacobi
iteration specialised to Hermitian matrices, small enough to audit and accurate
enough to serve the tests as the exact reference for the quantum module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, ShapeError

# -- matrix construction and validation --------------------------------------


def matrix(entries) -> np.ndarray:
    """Build a complex matrix from a nested sequence (rows of entries)."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got ndim={m.ndim}")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def ket(amplitudes) -> np.ndarray:
    """Column vector from a flat sequence of amplitudes."""
    v = np.asarray(amplitudes, dtype=np.complex128)
    if v.ndim == 2 and v.shape[1] == 1:
        return v.copy()
    if v.ndim != 1:
        raise ShapeError("ket expects a flat amplitude sequence")
    return v.reshape(-1, 1)


# -- structural operations ---------------------------------------------------


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block matrix with blocks a[i,j] * b; dimensions multiply."""
    return np.kron(matrix(a), matrix(b))


def inner_product(phi: np.ndarray, psi: np.ndarray) -> complex:
    """Sum of conj(phi_i) * psi_i; conjugate-linear in the first argument."""
    p, q = ket(phi), ket(psi)
    if p.shape != q.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {q.shape}")
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

MAX_SWEEPS = 100
OFF_DIAGONAL_TOL = 1e-12


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


def _off_diagonal_mass(h: np.ndarray) -> float:
    off = h - np.diag(np.diag(h))
    return float(np.linalg.norm(off))


def hermitian_eigensystem(h: np.ndarray) -> EigenSystem:
    """Diagonalise a Hermitian matrix by cyclic Jacobi rotations.

    Each pivot (p, q) is annihilated by a complex plane rotation: the pivot's
    phase is peeled off first, then a real 2x2 rotation zeroes it. Sweeps stop
    when the off-diagonal Frobenius mass drops below ``OFF_DIAGONAL_TOL``
    relative to the input scale; exceeding ``MAX_SWEEPS`` raises
    :class:`NumericError` with the residual attached.
    """
    a = matrix(h).copy()
    n = a.shape[0]
    if n != a.shape[1]:
        raise DomainError("eigensystem requires a square matrix")
    if not is_hermitian(a):
        raise DomainError("matrix is not Hermitian within tolerance")

    scale = max(1.0, float(np.linalg.norm(a)))
    threshold = OFF_DIAGONAL_TOL * scale
    v = identity(n)

    for _ in range(MAX_SWEEPS):
        if _off_diagonal_mass(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                hpq = a[p, q]
                r = abs(hpq)
                if r <= threshold / max(n, 1):
                    continue
                phase = hpq / r
                alpha = a[p, p].real
                beta = a[q, q].real
                tau = (beta - alpha) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c

                # columns: right-multiplication by the rotation
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                # rows: left-multiplication by its adjoint
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q

                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                a[p, q] = 0.0
                a[q, p] = 0.0

                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - s * np.conj(phase) * vcol_q
                v[:, q] = s * phase * vcol_p + c * vcol_q
    else:
        raise NumericError(
            "Jacobi iteration did not converge",
            residual=_off_diagonal_mass(a) / scale,
        )

    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    return EigenSystem(values=values[order], vectors=v[:, order].copy())
