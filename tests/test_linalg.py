import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlab import linalg
from hyperlab.errors import DomainError

from conftest import charpoly_eigenvalues, random_hermitian

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
complexes = st.builds(complex, finite, finite)

NOT = linalg.matrix([[0, 1], [1, 0]])

# the worked Hermitian example: equal to its own conjugate transpose
HERMITIAN_3X3 = linalg.matrix([
    [1, 2 + 1j, -1j],
    [2 - 1j, 5, -3 + 7j],
    [1j, -3 - 7j, 0],
])


class TestDagger:
    def test_hermitian_fixture_is_self_adjoint(self):
        assert linalg.is_hermitian(HERMITIAN_3X3)


class TestTensorProduct:
    def test_not_tensor_not_is_antidiagonal(self):
        expected = linalg.matrix([
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ])
        assert np.array_equal(linalg.tensor_product(NOT, NOT), expected)

    def test_identity_tensor_identity(self):
        assert np.array_equal(
            linalg.tensor_product(linalg.identity(2), linalg.identity(2)),
            linalg.identity(4))

    def test_mixed_product_property(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = linalg.ket(rng.normal(size=2))
        v = linalg.ket(rng.normal(size=3))
        lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(u, v)
        rhs = linalg.tensor_product(a @ u, b @ v)
        assert np.allclose(lhs, rhs)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_dimension_law(self, n, m, k, p):
        out = linalg.tensor_product(np.zeros((n, m)), np.zeros((k, p)))
        assert out.shape == (n * k, m * p)


class TestInnerProduct:
    def test_component_formula(self):
        a, b, c, d = 1 + 2j, -1j, 3.0, 2 - 1j
        got = linalg.inner_product(linalg.ket([a, b]), linalg.ket([c, d]))
        assert got == a.conjugate() * c + b.conjugate() * d

    def test_orthogonal_basis(self):
        assert linalg.inner_product(linalg.ket([1, 0]), linalg.ket([0, 1])) == 0

    def test_unit_superposition(self):
        psi = linalg.ket([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert abs(linalg.inner_product(psi, psi) - 1) < 1e-12

    @given(st.lists(complexes, min_size=1, max_size=5),
           st.lists(complexes, min_size=1, max_size=5))
    def test_conjugate_symmetry(self, xs, ys):
        n = min(len(xs), len(ys))
        phi, psi = linalg.ket(xs[:n]), linalg.ket(ys[:n])
        lhs = linalg.inner_product(phi, psi).conjugate()
        rhs = linalg.inner_product(psi, phi)
        assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            linalg.inner_product(linalg.ket([1, 0]), linalg.ket([1, 0, 0]))

    def test_self_adjointness_moves_across(self, rng):
        h = random_hermitian(rng, 4)
        phi = linalg.ket(rng.normal(size=4) + 1j * rng.normal(size=4))
        psi = linalg.ket(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert abs(linalg.inner_product(phi, h @ psi)
                   - linalg.inner_product(h @ phi, psi)) < 1e-10

class TestEigensystem:
    def test_three_sigma_x(self):
        es = linalg.hermitian_eigensystem(linalg.matrix([[0, 3], [3, 0]]))
        assert np.allclose(es.values, [-3.0, 3.0])

    def test_diagonal_spectrum_and_ground(self):
        es = linalg.hermitian_eigensystem(np.diag([4.0, 1.0, 0.0, 1.0, 4.0]))
        assert np.allclose(es.values, [0, 1, 1, 4, 4])
        assert np.allclose(np.abs(es.ground_vector.reshape(-1)), [0, 0, 1, 0, 0])

    def test_matches_characteristic_polynomial_oracle(self, rng):
        for _ in range(25):
            h = random_hermitian(rng, 6)
            es = linalg.hermitian_eigensystem(h)
            assert np.max(np.abs(es.values - charpoly_eigenvalues(h))) < 1e-8

    def test_worked_hermitian_fixture_spectrum(self):
        es = linalg.hermitian_eigensystem(HERMITIAN_3X3)
        assert np.max(np.abs(es.values - charpoly_eigenvalues(HERMITIAN_3X3))) < 1e-8
        assert abs(es.values.sum() - 6.0) < 1e-9  # trace of the fixture

    def test_residual_and_orthonormality(self, rng):
        distinct = random_hermitian(rng, 7)
        # a unitary conjugate of a spectrum with a triple and a double value: the
        # vectors must stay orthonormal inside each repeated eigenvalue
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        repeated = q @ np.diag([-4.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0]) @ q.conj().T
        for h in (distinct, repeated):
            es = linalg.hermitian_eigensystem(h)
            scale = max(1.0, np.linalg.norm(h))
            for j in range(7):
                v = es.vectors[:, j:j + 1]
                assert np.linalg.norm(h @ v - es.values[j] * v) <= 1e-9 * scale
            gram = es.vectors.conj().T @ es.vectors
            assert np.max(np.abs(gram - np.eye(7))) < 1e-9

    def test_trace_and_shift_invariants(self, rng):
        h = random_hermitian(rng, 6)
        es = linalg.hermitian_eigensystem(h)
        assert abs(es.values.sum() - np.trace(h).real) <= 1e-9 * max(1, np.linalg.norm(h))
        shifted = linalg.hermitian_eigensystem(h + 2.5 * np.eye(6))
        assert np.max(np.abs(shifted.values - (es.values + 2.5))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            linalg.hermitian_eigensystem(linalg.matrix([[0, 1], [0, 0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            linalg.hermitian_eigensystem(np.zeros((2, 3)))


class TestTwoQubitStates:
    """Entangled pairs built from tensor products of the standard basis."""

    KET0 = linalg.ket([1, 0])
    KET1 = linalg.ket([0, 1])

    def test_correlated_pair_is_normalised(self):
        psi = (linalg.tensor_product(self.KET0, self.KET0)
               + linalg.tensor_product(self.KET1, self.KET1)) / np.sqrt(2)
        assert abs(linalg.norm(psi) - 1) < 1e-12
        probs = np.abs(psi.reshape(-1)) ** 2
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_anticorrelated_pair_outcomes(self):
        psi = (linalg.tensor_product(self.KET0, self.KET1)
               + linalg.tensor_product(self.KET1, self.KET0)) / np.sqrt(2)
        probs = np.abs(psi.reshape(-1)) ** 2
        assert np.allclose(probs, [0, 0.5, 0.5, 0])
        # measuring the pair never shows agreeing bits
        assert probs[0] == probs[3] == 0

    def test_product_state_is_not_correlated(self):
        plus = linalg.ket([1 / np.sqrt(2), 1 / np.sqrt(2)])
        psi = linalg.tensor_product(plus, plus)
        assert np.allclose(np.abs(psi.reshape(-1)) ** 2, [0.25] * 4)
