import hashlib
import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qdilemma import game
from qdilemma.game import (
    GATES,
    MAX_STAKE,
    NEG_PROB_TOL,
    PROB_SUM_TOL,
    PayoffTable,
    PayoffVector,
    amplitudes,
    check_gamma,
    decompose_entangler,
    entangler,
    evolve,
    outcomes,
    parse_profile,
    payoff,
    play,
    rx,
)
from qdilemma.linalg import (PSD_SLACK, TOL, basis_density, basis_state, kron3, max_abs,
                             validate_density_matrix)
from qdilemma.noise import ancilla_prepare, corrupted_input

from helpers import global_phase_distance, oracle_circuit, oracle_game_probs, ordered_product

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
        np.testing.assert_allclose(j @ j.conj().T, np.eye(8), atol=1e-12)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            entangler(np.pi)


class TestAmplitudes:
    @given(gamma=st.floats(0.0, np.pi / 2))
    def test_matches_the_oracle_for_every_profile(self, gamma):
        for letters in product("IHX", repeat=3):
            oracle = oracle_circuit(letters, gamma)[:, [0, 7]]
            assert max_abs(amplitudes(letters, gamma) - oracle) <= 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 1.0, np.pi / 2])
    def test_equals_the_two_matrix_products_bit_for_bit(self, gamma):
        # zeros included: at gamma 0 the products sum H's -0 entries onto +0
        j = entangler(gamma)
        for letters in product("IHX", repeat=3):
            products = j.conj().T @ kron3(*(GATES[c] for c in letters)) @ j
            assert amplitudes(letters, gamma).tobytes() == products[:, [0, 7]].tobytes()

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            amplitudes(("H", "I", "X"), np.pi)

    def test_a_changed_circuit_leaves_the_next_one_as_it_was(self):
        # the strategy columns are shared between calls, and each result is new
        columns = amplitudes(("H", "I", "X"), 0.7)
        expected = columns.tobytes()
        columns[:] = 0.0
        assert amplitudes(("H", "I", "X"), 0.7).tobytes() == expected


class TestCheckGamma:
    @pytest.mark.parametrize("gamma", [0, 1, np.float64(0.5), np.pi / 2])
    def test_returns_a_float(self, gamma):
        checked = check_gamma(gamma)
        assert type(checked) is float and checked == gamma

    @pytest.mark.parametrize("gamma", [-1e-300, np.nextafter(np.pi / 2, 2.0), np.nan, np.inf])
    def test_refuses_outside_zero_to_half_pi(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, pi/2\]"):
            check_gamma(gamma)


class TestGates:
    def test_flip_matrix(self):
        np.testing.assert_array_equal(GATES["X"], np.array([[0, 1], [1, 0]]))

    def test_hadamard_matrix(self):
        np.testing.assert_allclose(
            GATES["H"], np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_all_strategies_unitary(self):
        assert list(GATES) == ["I", "H", "X"]
        for u in GATES.values():
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    # parse_profile is the one letter rule; a tuple that bypasses it meets the table's KeyError
    @pytest.mark.parametrize("function", [outcomes, play, evolve])
    @pytest.mark.parametrize("profile", [("x", "I", "X"), ("I", "Q", "X"), ("I", "H", "Z")],
                             ids=["lower-case", "Q", "Z"])
    def test_unknown_letter_raises_key_error(self, function, profile):
        unknown = next(letter for letter in profile if letter not in GATES)
        # twice, as a failed lookup leaves nothing behind
        for _ in range(2):
            with pytest.raises(KeyError) as raised:
                function(profile)
            assert raised.value.args == (unknown,)

    def test_strategy_table_holds_each_profiles_columns_bit_for_bit(self):
        table = game._STRATEGIES
        assert table.shape == (3, 3, 3, 8, 2) and not table.flags.writeable
        for (i, a), (j, b), (k, c) in product(enumerate(GATES), repeat=3):
            product_columns = kron3(GATES[a], GATES[b], GATES[c])[:, [0, 7]]
            assert table[i, j, k].tobytes() == product_columns.tobytes()
        # the entangler's X⊗X⊗X, the reversal of the basis index
        assert game._XXX.tobytes() == kron3(GATES["X"], GATES["X"], GATES["X"]).tobytes()


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

    @given(profile=st.sampled_from(list(product("IHX", repeat=3))),
           gamma=st.floats(0.0, np.pi / 2), x=st.floats(0.0, 1.0))
    def test_matches_oracle_on_random_inputs(self, profile, gamma, x):
        # the oracle conjugates the full 8x8 input; play mixes two outcome rows
        expected = oracle_game_probs("".join(profile), corrupted_input(x), gamma)
        assert max_abs(play(profile, x, gamma) - expected) <= 1e-15

    @given(profile=st.sampled_from(list(product("IHX", repeat=3))),
           gamma=st.floats(0.0, np.pi / 2), end=st.sampled_from([(0.0, "000"), (1.0, "111")]))
    def test_endpoints_are_the_evolved_diagonal_bit_for_bit(self, profile, gamma, end):
        x, bits = end
        probs = np.clip(np.diag(evolve(profile, basis_density(bits), gamma)).real, 0.0, None)
        np.testing.assert_array_equal(play(profile, x, gamma), probs / probs.sum())

    @pytest.mark.parametrize("x", [-0.1, 1.5, float("nan")])
    def test_corruption_out_of_range_rejected(self, x):
        with pytest.raises(ValueError, match="corruption"):
            play(parse_profile("III"), x)

    @given(profile=st.sampled_from(list(product("IHX", repeat=3))),
           gamma=st.floats(0.0, np.pi / 2))
    def test_outcome_rows_are_the_two_pure_inputs(self, profile, gamma):
        rows = outcomes(profile, gamma)
        assert rows.shape == (2, 8)
        for row, bits in zip(rows, ("000", "111")):
            expected = oracle_game_probs("".join(profile), basis_density(bits), gamma)
            assert max_abs(row - expected) <= 1e-15

    def test_linear_in_the_input_state(self, rng):
        rho0 = basis_density("000")
        rho1 = basis_density("111")
        for _ in range(5):
            letters = "".join(rng.choice(list("IHX"), size=3))
            profile = parse_profile(letters)
            x = rng.uniform()
            mixed = (1 - x) * rho0 + x * rho1
            np.testing.assert_allclose(
                np.diag(evolve(profile, mixed)).real,
                (1 - x) * play(profile, 0.0) + x * play(profile, 1.0),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                play(profile, x),
                (1 - x) * play(profile, 0.0) + x * play(profile, 1.0),
                atol=1e-12,
            )

    def test_classical_limit_at_zero_strength(self):
        # with no entanglement, each flip deterministically sets its own bit
        for letters in product("IX", repeat=3):
            probs = play(tuple(letters), gamma=0.0)
            outcome = "".join("1" if c == "X" else "0" for c in letters)
            np.testing.assert_allclose(probs, basis_state(outcome).real, atol=1e-12)

    @given(profile=st.sampled_from(list(product("IHX", repeat=3))),
           gamma=st.floats(0.0, np.pi / 2), x=st.floats(0.0, 1.0))
    def test_outcomes_form_a_distribution(self, profile, gamma, x):
        probs = play(profile, x, gamma)
        assert probs.shape == (8,)
        assert (probs >= 0.0).all()
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_mixed_class_orderings_share_the_mean(self):
        means = [
            payoff(play(ordering), TABLE).mean
            for ordering in set(permutations(("H", "X", "I")))
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

    def test_rejects_a_distribution_that_is_not_8_long(self):
        with pytest.raises(ValueError, match=r"^expected 8 outcome probabilities, got shape \(7,\)$"):
            payoff(np.full(7, 1 / 7), TABLE)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="probability"):
            payoff(np.full(8, 0.25), TABLE)

    def test_tolerances_are_the_edges_of_a_distribution(self):
        # an entry down to -NEG_PROB_TOL is rounding, and so is a sum within PROB_SUM_TOL of 1
        payoff(np.r_[1.0 + NEG_PROB_TOL, -NEG_PROB_TOL, np.zeros(6)], TABLE)
        payoff(np.r_[1.0 + PROB_SUM_TOL / 2, np.zeros(7)], TABLE)
        for probs in (np.r_[1.0 + NEG_PROB_TOL, np.nextafter(-NEG_PROB_TOL, -1.0), np.zeros(6)],
                      np.r_[1.0 + 2 * PROB_SUM_TOL, np.zeros(7)],
                      np.r_[1.0 - 2 * PROB_SUM_TOL, np.zeros(7)]):
            with pytest.raises(ValueError, match="not a probability distribution"):
                payoff(probs, TABLE)

    @pytest.mark.parametrize("probs", [
        pytest.param(np.r_[np.nan, np.full(7, 1 / 7)], id="nan-in-one-slot"),
        pytest.param(np.full(8, np.nan), id="nan-in-every-slot"),
    ])
    def test_rejects_nan(self, probs):
        with pytest.raises(ValueError, match="not a probability distribution"):
            payoff(probs, TABLE)

    @pytest.mark.parametrize("profile, mean", [("HIX", MAX_STAKE / 3 * 2), ("IIX", -MAX_STAKE / 3 * 2),
                                               ("XXX", 3.0)])
    def test_stakes_at_the_bound_are_answered(self, profile, mean):
        table = PayoffTable(1.0, 3.0, MAX_STAKE)
        pay = payoff(play(parse_profile(profile)), table)
        assert pay.mean == pytest.approx(mean, rel=1e-15)


class TestPayoffTable:
    def test_rejects_bad_orderings(self):
        for p, q, n in [(2, 1, 9), (1, 9, 2), (0, 1, 2), (-1, 1, 2), (1, 1, 9)]:
            with pytest.raises(ValueError, match="0 < p < q < n"):
                PayoffTable(p, q, n)

    @pytest.mark.parametrize("stakes", [(1, 2, np.inf), (1, np.inf, np.inf), (1, 2, np.nan),
                                        (-np.inf, 2, 9), (np.nan, 2, 9), (1, 2, 10**400),
                                        (1.0, 3.0, 1e308), (1, 2, math.nextafter(MAX_STAKE, math.inf))])
    def test_rejects_non_finite_stakes(self, stakes):
        with pytest.raises(ValueError, match=r"^payoffs must be finite and at most 1e\+300, got "):
            PayoffTable(*stakes)


class TestDecomposition:
    def test_five_steps(self):
        steps = decompose_entangler()
        assert len(steps) == 5
        assert all(matrix.shape == (8, 8) for _, matrix in steps)
        assert [name for name, _ in steps] == [
            "cnot q1->q0",
            "cnot q1->q2",
            "rx(-pi/2) q1",
            "cnot q1->q0",
            "cnot q1->q2",
        ]

    def test_product_equals_entangler_up_to_phase(self):
        u = ordered_product(decompose_entangler())
        assert global_phase_distance(u, entangler(np.pi / 2)) <= 1e-12

    def test_product_on_000(self):
        psi = ordered_product(decompose_entangler()) @ basis_state("000")
        expected = (basis_state("000") + 1j * basis_state("111")) / np.sqrt(2)
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_product_unitary(self):
        u = ordered_product(decompose_entangler())
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)

    def test_rotation_phase_convention(self):
        psi = rx(-np.pi / 2) @ basis_state("0")
        np.testing.assert_allclose(psi, np.array([1, 1j]) / np.sqrt(2), atol=1e-15)

    def test_phase_distance_detects_mismatch(self):
        assert global_phase_distance(np.eye(8), entangler(np.pi / 2)) > 0.1
        # exact phase multiples are recognized as equal
        assert global_phase_distance(1j * np.eye(8), np.eye(8)) <= 1e-15


class TestParseProfile:
    def test_accepts_lowercase(self):
        assert parse_profile("xhi") == ("X", "H", "I")

    # "ı".upper() is "I", but only ASCII text is a profile, and None or a tuple is no text
    @pytest.mark.parametrize("text", ["", "XX", "XXXX", "XYZ", "ABC", "1HX", "ıxx", None,
                                      pytest.param(("X", "I", "X"), id="tuple")])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="profile"):
            parse_profile(text)


class TestEvolve:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3-qubit"):
            evolve(parse_profile("III"), np.eye(4) / 4)

    def test_non_normalized_input_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            evolve(parse_profile("III"), np.eye(8))

    def test_final_state_of_biased_best_response(self):
        np.testing.assert_allclose(
            evolve(parse_profile("XIX")), basis_density("101"), atol=1e-12
        )

    # the source emits |000> or |111>, so no other entry of its state may be set
    @pytest.mark.parametrize("rho", [
        pytest.param(basis_density("101"), id="basis-101"),
        pytest.param(np.eye(8) / 8, id="maximally-mixed"),
        pytest.param(corrupted_input(0.3) + 1e-300 * np.outer(basis_state("011"), basis_state("101")),
                     id="off-entry-1e-300"),
    ])
    def test_refuses_any_input_but_the_corrupted_source(self, rho):
        with pytest.raises(ValueError) as raised:
            evolve(parse_profile("HIX"), rho)
        assert str(raised.value) == "evolve's input must be p0|000><000| + p7|111><111|"

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("source", [corrupted_input, ancilla_prepare])
    def test_matches_the_oracle_on_the_corrupted_source(self, source, x):
        # as perfbench's tomo workload calls it, and on the hardware preparation, whose
        # other entries are exact zeros
        rho = source(x)
        for letters in product("IHX", repeat=3):
            u = oracle_circuit(letters, 0.7)
            assert max_abs(evolve(letters, rho, 0.7) - u @ rho @ u.conj().T) <= 1e-15

    def test_negative_weight_is_a_negative_eigenvalue(self):
        rho = np.diag(np.r_[1.5, np.zeros(6), -0.5]).astype(complex)
        with pytest.raises(ValueError, match=r"^density matrix has negative eigenvalue -5\.000e-01$"):
            evolve(parse_profile("HIX"), rho)

    # each input passes evolve's own input check: a trace 1e-12 short, a weight with
    # an imaginary part, which a raw state's diagonal may carry up to TOL/2, and a
    # negative weight at the slack, with a trace 5e-13 short
    @pytest.mark.parametrize("letters, weights, gamma", [
        pytest.param(("I", "I", "H"), (1 - 1e-12, 0.0), 0.0, id="short-trace"),
        pytest.param(("I", "I", "I"), (0.7 + 5e-13j, 0.3), 0.16110731556870733, id="imaginary-weight"),
        pytest.param(("I", "I", "H"), (-PSD_SLACK, 1 + PSD_SLACK - 5e-13), 0.7, id="negative-weight"),
    ])
    def test_a_state_its_input_check_accepts_evolves_to_a_valid_state(self, letters, weights, gamma):
        out = evolve(letters, np.diag(np.r_[weights[0], np.zeros(6), weights[1]]), gamma)
        validate_density_matrix(np.array(out))

    @given(profile=st.tuples(*[st.sampled_from("IHX")] * 3), gamma=st.floats(0.0, np.pi / 2),
           p0=st.floats(-PSD_SLACK, 1.0), trace_error=st.sampled_from([-TOL, TOL]) | st.floats(-TOL, TOL),
           imag=st.tuples(*[st.sampled_from([-TOL / 2, TOL / 2]) | st.floats(-TOL / 2, TOL / 2)] * 2))
    def test_every_input_its_check_accepts_evolves_to_a_valid_state(self, profile, gamma, p0,
                                                                      trace_error, imag):
        rho = np.diag(np.r_[p0 + 1j * imag[0], np.zeros(6), 1.0 - p0 + trace_error + 1j * imag[1]])
        try:
            validate_density_matrix(rho, raw=True)
        except ValueError:
            assume(False)
        out = evolve(profile, rho, gamma)
        validate_density_matrix(np.array(out))

    @pytest.mark.parametrize("source", [corrupted_input, ancilla_prepare])
    def test_leaves_its_argument_as_it_was(self, source):
        rho = source(0.3)
        expected = rho.tobytes()
        evolve(parse_profile("HIX"), rho, 0.7)
        assert rho.tobytes() == expected

    def test_golden_digest(self):
        # SHA-256 of the final states' bytes over 27 profiles x 4 gammas, on the
        # corrupted source at three x and on the default input; captured when
        # evolve still conjugated its input by the 8x8 game unitary
        digest = hashlib.sha256()
        for letters in product("IHX", repeat=3):
            for gamma in (0.0, 0.3, 1.0, np.pi / 2):
                for x in (0.0, 0.3, 1.0):
                    digest.update(evolve(letters, corrupted_input(x), gamma).tobytes())
                digest.update(evolve(letters, None, gamma).tobytes())
        assert digest.hexdigest() == (
            "3c9d6ef0bfcaaa987e7d6fc5c1f505e1f88196c801efedf369daf29cfebd21e0")
