import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdilemma import linalg
from qdilemma.linalg import (
    ClampWarning,
    basis_density,
    basis_state,
    check_spectrum,
    clamp_spectrum,
    cnot,
    dagger,
    kron,
    kron3,
    validate_density_matrix,
)
from qdilemma.game import entangler, rx

from helpers import random_mixed_density


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

    def test_sixteen_dimensional_factor_matches_np_kron(self, rng):
        a = self.factors(16, rng)["complex"]
        for b in self.factors(2, rng).values():
            assert kron(a, b).tobytes() == np.kron(a, b).tobytes()
            assert kron(b, a).tobytes() == np.kron(b, a).tobytes()

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

    def test_products_past_sixteen_dimensions_match_np_kron(self):
        assert kron(np.eye(4), np.eye(8)).tobytes() == np.kron(np.eye(4), np.eye(8)).tobytes()
        expected = np.kron(np.kron(np.eye(4), np.eye(4)), linalg.I2)
        assert kron3(np.eye(4), np.eye(4), linalg.I2).tobytes() == expected.tobytes()


class TestCnot:
    #: C flips the first of two qubits when the second is 1, C' the second when the first is 1.
    C = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    C_PRIME = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

    def test_two_qubit_matrices(self):
        assert cnot(1, 0, 2).tobytes() == self.C.tobytes()
        assert cnot(0, 1, 2).tobytes() == self.C_PRIME.tobytes()

    def test_three_qubit_gates_of_the_entangler_decomposition(self):
        assert cnot(1, 0, 3).tobytes() == kron(self.C, linalg.I2).tobytes()
        assert cnot(1, 2, 3).tobytes() == kron(linalg.I2, self.C_PRIME).tobytes()

    @pytest.mark.parametrize("qubits", [2, 3, 4])
    def test_real_self_inverse_permutation(self, qubits):
        for control in range(qubits):
            for target in set(range(qubits)) - {control}:
                u = cnot(control, target, qubits)
                assert u.dtype == complex
                assert not u.imag.any()
                assert sorted(u.real.ravel()) == [0.0] * (4**qubits - 2**qubits) + [1.0] * 2**qubits
                np.testing.assert_array_equal(u.sum(axis=0), 1)
                np.testing.assert_array_equal(u.sum(axis=1), 1)
                np.testing.assert_array_equal(u @ u, np.eye(2**qubits))

    def test_flips_the_target_where_the_control_is_set(self):
        # control qubit 3, the ancilla, onto qubit 0 of a 4-qubit register
        assert cnot(3, 0, 4) @ basis_state("0001") @ basis_state("1001") == 1
        assert cnot(3, 0, 4) @ basis_state("0110") @ basis_state("0110") == 1

    @pytest.mark.parametrize("control, target, qubits", [
        (1, 1, 3), (0, 3, 3), (3, 0, 3), (-1, 0, 3), (0, -1, 2), (0, 0, 1),
    ])
    def test_rejects_a_repeated_or_outside_qubit(self, control, target, qubits):
        with pytest.raises(ValueError, match="^cnot needs two distinct qubits of a"):
            cnot(control, target, qubits)


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(linalg.I2), linalg.I2)

    def test_rotation_inverse(self):
        np.testing.assert_allclose(dagger(rx(-np.pi / 2)), rx(np.pi / 2), atol=1e-15)

    def test_entangler_unitarity(self):
        j = entangler(np.pi / 2)
        np.testing.assert_allclose(dagger(j) @ j, np.eye(8), atol=1e-12)


class TestCheckSpectrum:
    def test_slack_itself_passes(self):
        check_spectrum(np.array([-linalg.PSD_SLACK, 1.0]))

    def test_next_float_below_the_slack_is_refused(self):
        below = np.nextafter(-linalg.PSD_SLACK, -np.inf)
        message = "^density matrix has negative eigenvalue -1.000e-10$"
        with pytest.raises(ValueError, match=message):
            check_spectrum(np.array([below, 1.0]))


class TestClampSpectrum:
    def test_clamp_beyond_the_slack_warns_with_its_magnitude(self):
        message = "^clamped negative eigenvalue of magnitude 2.500e-01 to zero$"
        with pytest.warns(ClampWarning, match=message):
            w = clamp_spectrum(np.array([-0.25, 1.0]), 1.0)
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_small_negatives_clamped_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = clamp_spectrum(np.array([-5e-11, 1.0]), 1.0)
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_warning_starts_below_the_slack(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clamp_spectrum(np.array([-linalg.PSD_SLACK, 1.0]), 1.0)
        with pytest.warns(ClampWarning, match="magnitude 1.000e-10 "):
            clamp_spectrum(np.array([np.nextafter(-linalg.PSD_SLACK, -np.inf), 1.0]), 1.0)

    @pytest.mark.parametrize("scale", [1.0, 0.3, 7.0])
    def test_dust_floor_is_zeroed_and_the_next_float_kept(self, scale):
        # the comparison is strict: an eigenvalue equal to the floor is dust
        floor = linalg.DUST_RTOL * scale
        above = np.nextafter(floor, np.inf)
        np.testing.assert_array_equal(
            clamp_spectrum(np.array([floor, above, scale]), scale), [0.0, above, scale])

    def test_scale_argument_sets_the_floor(self):
        # 1e-14 is above 8 eps of the array's own maximum 1, but dust at scale 100
        w = np.array([1e-14, 1.0])
        np.testing.assert_array_equal(clamp_spectrum(w, 1.0), w)
        np.testing.assert_array_equal(clamp_spectrum(w, 100.0), [0.0, 1.0])

    @given(w=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8).map(sorted),
           scale=st.floats(1e-3, 1e3))
    def test_output_non_negative_and_unchanged_above_the_floor(self, w, scale):
        w = np.array(w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            out = clamp_spectrum(w, scale)
        assert (out >= 0.0).all()
        kept = w > linalg.DUST_RTOL * scale
        np.testing.assert_array_equal(out[kept], w[kept])


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

    @pytest.mark.parametrize("dim", [8, 4], ids=["8x8", "4x4"])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "hermitian-pair"])
    @pytest.mark.parametrize("part", [1, 1j], ids=["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_is_named_before_any_other_failure(self, dim, where, part, value):
        # the same message whichever check the entry makes fail first: the shape
        # check (4x4), or the Hermiticity check, whose residual it makes non-finite
        rho = np.eye(dim, dtype=complex) / dim
        if where == "diagonal":
            rho[1, 1] = value * part
        else:
            rho[0, 1] = value * part
            if where == "hermitian-pair":
                rho[1, 0] = np.conj(rho[0, 1])
        for raw in (False, True):
            with pytest.raises(ValueError, match=r"^density matrix has non-finite entries$"):
                validate_density_matrix(rho, raw=raw)

    def test_finite_entries_whose_residual_overflows_are_not_hermitian(self):
        rho = basis_density("000")
        rho[0, 1], rho[1, 0] = 1e308, -1e308
        with pytest.raises(ValueError, match=r"^density matrix is not Hermitian$"):
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
