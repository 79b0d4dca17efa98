from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilemma import linalg
from qdilemma.game import (
    PayoffTable,
    PayoffVector,
    Strategy,
    compose,
    decompose_entangler,
    disentangler,
    entangler,
    evolve,
    general_unitary,
    global_phase_distance,
    mean_payoff,
    parse_profile,
    payoff,
    play,
    rx,
    strategy_unitary,
)
from qdilemma.linalg import basis_density, basis_state, dagger, is_unitary, kron3

from helpers import oracle_game_probs, random_mixed_density

TABLE = PayoffTable()


class TestEntangler:
    def test_zero_strength_is_identity(self):
        np.testing.assert_array_equal(entangler(0.0), np.eye(8))

    def test_maximal_on_000(self):
        psi = entangler(np.pi / 2) @ basis_state("000")
        expected = (basis_state("000") + 1j * basis_state("111")) / np.sqrt(2)
        np.testing.assert_allclose(psi, expected, atol=1e-15)

    def test_unitary(self):
        j = entangler(np.pi / 2)
        np.testing.assert_allclose(j @ dagger(j), np.eye(8), atol=1e-12)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            entangler(np.pi)


class TestDisentangler:
    def test_maximal_closed_form(self):
        x3 = kron3(linalg.X, linalg.X, linalg.X)
        expected = (np.eye(8) - 1j * x3) / np.sqrt(2)
        np.testing.assert_allclose(disentangler(np.pi / 2), expected, atol=1e-12)

    def test_inverts_entangler(self):
        np.testing.assert_allclose(
            disentangler(np.pi / 2) @ entangler(np.pi / 2), np.eye(8), atol=1e-12
        )

    def test_zero_strength_is_identity(self):
        np.testing.assert_array_equal(disentangler(0.0), np.eye(8))


class TestStrategyUnitary:
    def test_general_at_zero_angles_is_identity(self):
        np.testing.assert_allclose(general_unitary(0.0, 0.0, 0.0), np.eye(2), atol=1e-15)

    def test_general_can_realize_flip(self):
        # theta=pi with lam=pi lines the signs up with the plain NOT gate
        np.testing.assert_allclose(
            general_unitary(np.pi, 0.0, np.pi), linalg.X, atol=1e-12
        )

    def test_flip_matrix(self):
        np.testing.assert_array_equal(strategy_unitary("X"), np.array([[0, 1], [1, 0]]))

    def test_hadamard_matrix(self):
        np.testing.assert_allclose(
            strategy_unitary("H"), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_all_strategies_unitary(self, rng):
        for letter in "IHX":
            assert is_unitary(strategy_unitary(letter))
        for _ in range(25):
            theta, phi, lam = rng.uniform(0, 2 * np.pi, size=3)
            assert is_unitary(strategy_unitary(Strategy.general(theta, phi, lam)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            Strategy("Z")
        with pytest.raises(ValueError, match="strategy"):
            strategy_unitary("Q")


class TestPlay:
    def test_all_identity_is_deterministic_000(self):
        probs = play(parse_profile("III"))
        np.testing.assert_allclose(probs, basis_state("000").real, atol=1e-12)

    def test_all_flip_reaches_111(self):
        probs = play(parse_profile("XXX"))
        np.testing.assert_allclose(
            probs, oracle_game_probs("XXX", basis_density("000"), np.pi / 2), atol=1e-12
        )
        np.testing.assert_allclose(probs, basis_state("111").real, atol=1e-12)

    def test_biased_best_response_reaches_101(self):
        probs = play(parse_profile("XIX"))
        np.testing.assert_allclose(probs, basis_state("101").real, atol=1e-12)

    def test_matches_oracle_on_random_inputs(self, rng):
        for _ in range(10):
            letters = "".join(rng.choice(list("IHX"), size=3))
            rho = random_mixed_density(rng)
            np.testing.assert_allclose(
                play(parse_profile(letters), rho),
                oracle_game_probs(letters, rho, np.pi / 2),
                atol=1e-12,
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3-qubit"):
            play(parse_profile("III"), np.eye(4) / 4)

    def test_non_normalized_input_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            play(parse_profile("III"), np.eye(8))

    def test_linear_in_the_input_state(self, rng):
        rho0 = basis_density("000")
        rho1 = basis_density("111")
        for _ in range(5):
            letters = "".join(rng.choice(list("IHX"), size=3))
            profile = parse_profile(letters)
            x = rng.uniform()
            mixed = (1 - x) * rho0 + x * rho1
            np.testing.assert_allclose(
                play(profile, mixed),
                (1 - x) * play(profile, rho0) + x * play(profile, rho1),
                atol=1e-12,
            )

    def test_classical_limit_at_zero_strength(self):
        # with no entanglement, each flip deterministically sets its own bit
        for letters in product("IX", repeat=3):
            probs = play(tuple(letters), gamma=0.0)
            outcome = "".join("1" if c == "X" else "0" for c in letters)
            np.testing.assert_allclose(probs, basis_state(outcome).real, atol=1e-12)

    def test_mixed_class_orderings_share_the_mean(self):
        means = [
            mean_payoff(ordering, TABLE) for ordering in set(permutations(("H", "X", "I")))
        ]
        assert len(means) == 6
        np.testing.assert_allclose(means, means[0], atol=1e-12)


class TestPayoff:
    def test_all_go_outcome(self):
        pay = payoff(basis_state("111").real, TABLE)
        assert (pay.player1, pay.player2, pay.player3) == (2, 2, 2)
        assert pay.mean == 2

    def test_two_go_outcome(self):
        pay = payoff(basis_state("101").real, TABLE)
        assert (pay.player1, pay.player2, pay.player3) == (9, 1, 9)
        assert pay.mean == pytest.approx(19 / 3, abs=1e-12)

    def test_nobody_goes(self):
        assert payoff(basis_state("000").real, TABLE) == PayoffVector(0, 0, 0)

    def test_reproduces_every_outcome_row(self):
        rows = TABLE.outcome_payoffs()
        for k in range(8):
            delta = np.zeros(8)
            delta[k] = 1.0
            pay = payoff(delta, TABLE)
            np.testing.assert_array_equal([pay.player1, pay.player2, pay.player3], rows[k])

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="probability"):
            payoff(np.full(8, 0.25), TABLE)

    @pytest.mark.parametrize("profile, mean", [("HIX", 1e308 / 3 * 2), ("IIX", -1e308 / 3 * 2),
                                               ("XXX", 3.0)])
    def test_huge_stakes_are_answered(self, profile, mean):
        # the sum of the three payoffs overflows before the division by 3
        table = PayoffTable(1.0, 3.0, 1e308)
        pay = payoff(play(parse_profile(profile)), table)
        assert pay.mean == pytest.approx(mean, rel=1e-15)

    @settings(deadline=None)
    @given(n=st.floats(2.0**1020, 1.7976931348623157e308),
           q_frac=st.floats(1e-300, 1.0, exclude_min=True, exclude_max=True),
           p_frac=st.floats(1e-300, 1.0, exclude_min=True, exclude_max=True),
           weights=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).filter(any))
    def test_mean_is_exact_wherever_unscaled_is_finite(self, n, q_frac, p_frac, weights):
        q = n * q_frac
        table = PayoffTable(q * p_frac, q, n)
        probs = np.array(weights) / sum(weights)
        if abs(probs.sum() - 1.0) > 1e-10:
            return
        pay = payoff(probs, table)
        players = [pay.player1, pay.player2, pay.player3]
        assert all(np.isfinite([*players, pay.mean]))
        with np.errstate(over="ignore", invalid="ignore"):
            unscaled = probs @ table.outcome_payoffs()
            unscaled_mean = (unscaled[0] + unscaled[1] + unscaled[2]) / 3
        for got, want in zip(players, unscaled):
            if np.isfinite(want):
                assert got == want
        if np.isfinite(unscaled).all() and np.isfinite(unscaled_mean):
            assert pay.mean == unscaled_mean


class TestPayoffTable:
    def test_rejects_bad_orderings(self):
        for p, q, n in [(2, 1, 9), (1, 9, 2), (0, 1, 2), (-1, 1, 2), (1, 1, 9)]:
            with pytest.raises(ValueError, match="0 < p < q < n"):
                PayoffTable(p, q, n)

    @pytest.mark.parametrize("stakes", [(1, 2, np.inf), (1, np.inf, np.inf), (1, 2, np.nan),
                                        (-np.inf, 2, 9), (np.nan, 2, 9)])
    def test_rejects_non_finite_stakes(self, stakes):
        with pytest.raises(ValueError, match="finite"):
            PayoffTable(*stakes)


class TestDecomposition:
    def test_five_steps(self):
        steps = decompose_entangler()
        assert len(steps) == 5
        assert [s.name for s in steps] == [
            "cnot q1->q0",
            "cnot q1->q2",
            "rx(-pi/2) q1",
            "cnot q1->q0",
            "cnot q1->q2",
        ]

    def test_product_equals_entangler_up_to_phase(self):
        u = compose(decompose_entangler())
        assert global_phase_distance(u, entangler(np.pi / 2)) <= 1e-12

    def test_product_on_000(self):
        psi = compose(decompose_entangler()) @ basis_state("000")
        expected = (basis_state("000") + 1j * basis_state("111")) / np.sqrt(2)
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_product_unitary(self):
        u = compose(decompose_entangler())
        np.testing.assert_allclose(u @ dagger(u), np.eye(8), atol=1e-12)

    def test_rotation_phase_convention(self):
        psi = rx(-np.pi / 2) @ basis_state("0")
        np.testing.assert_allclose(psi, np.array([1, 1j]) / np.sqrt(2), atol=1e-15)

    def test_phase_distance_detects_mismatch(self):
        assert global_phase_distance(np.eye(8), entangler(np.pi / 2)) > 0.1
        # exact phase multiples are recognized as equal
        assert global_phase_distance(1j * np.eye(8), np.eye(8)) <= 1e-15


class TestParseProfile:
    def test_accepts_lowercase(self):
        assert parse_profile("xhi") == (Strategy("X"), Strategy("H"), Strategy("I"))

    @pytest.mark.parametrize("text", ["", "XX", "XXXX", "XYZ", "ABC", "1HX"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="profile"):
            parse_profile(text)


class TestEvolve:
    def test_final_state_of_biased_best_response(self):
        np.testing.assert_allclose(
            evolve(parse_profile("XIX")), basis_density("101"), atol=1e-12
        )
