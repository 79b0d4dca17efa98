import numpy as np
import pytest

from qdilemma import game, noise
from qdilemma.game import PayoffTable, parse_profile, payoff, play
from qdilemma.linalg import basis_density, max_abs, validate_density_matrix
from qdilemma.noise import ancilla_prepare, corrupted_input, theta_for_x

from helpers import oracle_partial_trace_last


class TestCorruptedInput:
    def test_pristine(self):
        np.testing.assert_array_equal(corrupted_input(0.0), basis_density("000"))

    def test_fully_corrupt(self):
        np.testing.assert_array_equal(corrupted_input(1.0), basis_density("111"))

    def test_quarter(self):
        rho = corrupted_input(0.25)
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 0.75
        expected[7, 7] = 0.25
        np.testing.assert_array_equal(rho, expected)

    @pytest.mark.parametrize("x", [-0.1, 1.1, np.nan])
    def test_out_of_range_rejected(self, x):
        with pytest.raises(ValueError, match="corruption"):
            corrupted_input(x)

    def test_always_a_valid_state(self, rng):
        for x in rng.uniform(0, 1, size=25):
            validate_density_matrix(corrupted_input(x), qubits=3)


class TestThetaForX:
    def test_endpoints(self):
        assert theta_for_x(0.0) == 0.0
        assert theta_for_x(1.0) == pytest.approx(np.pi, abs=1e-15)

    def test_half(self):
        # inverting x = sin^2(theta/2) at x = 1/2
        assert theta_for_x(0.5) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_roundtrip(self, rng):
        for x in rng.uniform(0, 1, size=25):
            assert np.sin(theta_for_x(x) / 2) ** 2 == pytest.approx(x, abs=1e-14)


class TestAncillaPrepare:
    def test_pristine(self):
        np.testing.assert_allclose(ancilla_prepare(0.0), basis_density("000"), atol=1e-15)

    def test_fully_corrupt(self):
        np.testing.assert_allclose(ancilla_prepare(1.0), basis_density("111"), atol=1e-12)

    def test_against_statevector_oracle(self):
        # the circuit's 4-qubit state is cos(t/2)|0000> + sin(t/2)|1111>;
        # trace the ancilla out by direct index summation
        x = 0.3
        theta = 2 * np.arcsin(np.sqrt(x))
        psi = np.zeros(16, dtype=complex)
        psi[0] = np.cos(theta / 2)
        psi[15] = np.sin(theta / 2)
        expected = oracle_partial_trace_last(np.outer(psi, psi.conj()))
        np.testing.assert_allclose(ancilla_prepare(x), expected, atol=1e-15)
        np.testing.assert_allclose(np.diag(ancilla_prepare(x)).real[[0, 7]], [0.7, 0.3], atol=1e-15)

    def test_equals_direct_mixture_on_grid(self):
        worst = max(
            max_abs(ancilla_prepare(x) - corrupted_input(x)) for x in np.linspace(0, 1, 101)
        )
        assert worst <= 1e-12


def test_all_flip_payoff_is_classical_equilibrium_line(rng):
    table = PayoffTable()
    profile = parse_profile("XXX")
    for x in rng.uniform(0, 1, size=25):
        assert payoff(play(profile, x), table).mean == pytest.approx(
            table.q * (1 - x), abs=1e-12
        )


def test_check_corruption_lives_in_game_and_is_importable_from_noise():
    assert noise.check_corruption is game.check_corruption
