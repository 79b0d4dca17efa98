import warnings

import numpy as np
import pytest

from qdilemma import linalg
from qdilemma.linalg import (
    ClampWarning,
    basis_density,
    basis_state,
    conjugate_by,
    dagger,
    herm_sqrt,
    kron,
    kron3,
    partial_trace_last,
    validate_density_matrix,
)
from qdilemma.game import entangler, rx

from helpers import oracle_partial_trace_last, random_mixed_density


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(linalg.I2, linalg.I2), np.eye(4))

    def test_flip_pair_is_permutation(self):
        # X⊗X maps |11> to |00>
        xx = kron(linalg.X, linalg.X)
        assert xx[0, 3] == 1
        assert np.count_nonzero(xx) == 4

    def test_triple_flip_moves_000_to_111(self):
        x3 = kron3(linalg.X, linalg.X, linalg.X)
        np.testing.assert_array_equal(x3 @ basis_state("000"), basis_state("111"))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            kron(np.eye(16), linalg.I2)

    @staticmethod
    def factors(size, rng):
        return {
            "complex": rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)),
            "real": rng.normal(size=(size, size)),
            "identity": np.eye(size),
        }

    def test_matches_np_kron_byte_for_byte(self, rng):
        pool = [m for size in (2, 4) for m in self.factors(size, rng).values()]
        for a in pool:
            for b in pool:
                expected = np.kron(a, b)
                got = kron(a, b)
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_kron3_matches_np_kron_byte_for_byte(self, rng):
        small = list(self.factors(2, rng).values()) + [linalg.X, linalg.Y, linalg.H]
        for a in small:
            for b in small:
                for c in small + list(self.factors(4, rng).values()):
                    expected = np.kron(np.kron(a, b), c)
                    assert kron3(a, b, c).tobytes() == expected.tobytes()

    def test_sixteen_dimension_cap(self):
        assert kron(np.eye(4), np.eye(4)).shape == (16, 16)
        with pytest.raises(ValueError, match="16-dimensional cap"):
            kron(np.eye(4), np.eye(8))
        with pytest.raises(ValueError, match="16-dimensional cap"):
            kron3(np.eye(4), np.eye(4), linalg.I2)


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(linalg.I2), linalg.I2)

    def test_rotation_inverse(self):
        np.testing.assert_allclose(dagger(rx(-np.pi / 2)), rx(np.pi / 2), atol=1e-15)

    def test_entangler_unitarity(self):
        j = entangler(np.pi / 2)
        np.testing.assert_allclose(dagger(j) @ j, np.eye(8), atol=1e-12)


class TestConjugateBy:
    def test_identity_leaves_state(self, rng):
        rho = random_mixed_density(rng)
        np.testing.assert_allclose(conjugate_by(np.eye(8), rho), rho, atol=1e-15)

    def test_triple_flip_on_000(self):
        x3 = kron3(linalg.X, linalg.X, linalg.X)
        np.testing.assert_allclose(
            conjugate_by(x3, basis_density("000")), basis_density("111"), atol=1e-15
        )

    def test_entangler_on_000_diagonal(self):
        # hand algebra: the maximally entangled output has half weight on each
        # of |000> and |111>
        out = conjugate_by(entangler(), basis_density("000"))
        expected_diag = np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5])
        np.testing.assert_allclose(np.diag(out).real, expected_diag, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            conjugate_by(np.eye(4), np.eye(8) / 8)

    def test_composition_property(self, rng):
        # conjugating twice equals conjugating by the product
        gates = (linalg.I2, linalg.H, linalg.X)
        for _ in range(20):
            u = kron3(*(gates[i] for i in rng.integers(0, 3, size=3))) @ entangler()
            v = kron3(*(gates[i] for i in rng.integers(0, 3, size=3))) @ dagger(entangler())
            rho = random_mixed_density(rng)
            np.testing.assert_allclose(
                conjugate_by(u, conjugate_by(v, rho)), conjugate_by(u @ v, rho), atol=1e-10
            )


class TestPartialTraceLast:
    def test_product_state(self):
        np.testing.assert_array_equal(
            partial_trace_last(basis_density("0000")), basis_density("000")
        )

    def test_ghz_style_mixture(self):
        # (sqrt(1-x)|0000> + sqrt(x)|1111>)(h.c.) traces to the two-point mixture
        x = 0.37
        psi = np.zeros(16, dtype=complex)
        psi[0] = np.sqrt(1 - x)
        psi[15] = np.sqrt(x)
        rho = np.outer(psi, psi.conj())
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1 - x
        expected[7, 7] = x
        result = partial_trace_last(rho)
        np.testing.assert_allclose(result, oracle_partial_trace_last(rho), atol=1e-15)
        np.testing.assert_allclose(result, expected, atol=1e-15)

    def test_trace_preserved(self, rng):
        rho = random_mixed_density(rng, qubits=4)
        np.testing.assert_allclose(np.trace(partial_trace_last(rho)), 1.0, atol=1e-12)

    def test_matches_oracle_on_random_states(self, rng):
        for _ in range(10):
            rho = random_mixed_density(rng, qubits=4)
            np.testing.assert_allclose(
                partial_trace_last(rho), oracle_partial_trace_last(rho), atol=1e-14
            )

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError, match="two qubits"):
            partial_trace_last(np.eye(2) / 2)

    def test_inverse_of_fresh_qubit_extension(self, rng):
        rho = random_mixed_density(rng, qubits=3)
        extended = kron(rho, basis_density("0"))
        np.testing.assert_allclose(partial_trace_last(extended), rho, atol=1e-14)


class TestHermSqrt:
    def test_identity(self):
        np.testing.assert_allclose(herm_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            herm_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_projector_idempotence(self):
        proj = basis_density("101")
        np.testing.assert_allclose(herm_sqrt(proj), proj, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_square_recovers_input(self, rng):
        for _ in range(10):
            rho = random_mixed_density(rng)
            s = herm_sqrt(rho)
            np.testing.assert_allclose(s @ s, rho, atol=1e-8)
            np.testing.assert_allclose(s, dagger(s), atol=1e-12)

    def test_square_recovers_clamped_input(self):
        a = np.diag([1.0, -0.25]).astype(complex)
        with pytest.warns(ClampWarning, match="2.5"):
            s = herm_sqrt(a)
        np.testing.assert_allclose(s @ s, np.diag([1.0, 0.0]), atol=1e-8)

    def test_small_negatives_clamped_silently(self):
        a = np.diag([1.0, -5e-11]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = herm_sqrt(a)
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)


class TestValidateDensityMatrix:
    def test_accepts_physical_state(self, rng):
        validate_density_matrix(random_mixed_density(rng))

    def test_rejects_wrong_qubit_count(self, rng):
        with pytest.raises(ValueError, match="3-qubit"):
            validate_density_matrix(random_mixed_density(rng, qubits=4))

    def test_rejects_non_hermitian(self):
        rho = basis_density("000")
        rho[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError) as info:
            validate_density_matrix(np.eye(8))
        assert str(info.value) == "density matrix trace 8 is not 1"

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density_matrix(rho)

    def test_raw_mode_skips_positivity(self):
        rho = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0]).astype(complex)
        validate_density_matrix(rho, raw=True)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="3-qubit"):
            validate_density_matrix(np.eye(3) / 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entry(self, bad):
        # NaN compares false against every tolerance, so it must be caught first
        rho = basis_density("000")
        rho[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(rho, raw=True)


class TestBasisStates:
    def test_101_is_index_5(self):
        psi = basis_state("101")
        assert psi[5] == 1.0
        assert np.count_nonzero(psi) == 1
        rho = basis_density("101")
        assert rho[5, 5] == 1.0
        assert np.count_nonzero(rho) == 1

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="bit string"):
            basis_state("10X")
