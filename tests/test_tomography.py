import hashlib
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilemma import linalg
from qdilemma.game import evolve, parse_profile
from qdilemma.linalg import basis_density, dagger, max_abs, validate_density_matrix
from qdilemma.tomography import (
    estimate_expectations,
    expectations,
    fidelity,
    load_reference_state,
    parse_density_text,
    project_to_physical,
    read_density_matrix,
    reconstruct,
)

from helpers import crandn, random_mixed_density, random_pure_density


class TestExpectations:
    def test_unit_trace_entry(self, rng):
        t = expectations(random_mixed_density(rng))
        assert t[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zzz_on_000(self):
        t = expectations(basis_density("000"))
        assert t[3, 3, 3] == pytest.approx(1.0, abs=1e-12)

    def test_z_i_z_sign_product_on_101(self):
        # direct matrix oracle for the sign (-1)(+1)(-1) = +1
        string = np.kron(np.kron(linalg.Z, linalg.I2), linalg.Z)
        oracle = np.trace(basis_density("101") @ string).real
        t = expectations(basis_density("101"))
        assert oracle == pytest.approx(1.0, abs=1e-15)
        assert t[3, 0, 3] == pytest.approx(oracle, abs=1e-12)

    def test_entries_bounded_for_physical_states(self, rng):
        for _ in range(5):
            t = expectations(random_mixed_density(rng))
            assert np.all(np.abs(t) <= 1 + 1e-10)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="3-qubit"):
            expectations(np.eye(4) / 4)

    def test_imaginary_residue_rejected(self):
        # anti-Hermitian part 0.9e-12 passes the Hermiticity check, but
        # tr(rho · I⊗I⊗X) picks up 8 * 0.45e-12 = 3.6e-12 of imaginary part
        iix = np.kron(np.eye(4), linalg.X)
        rho = np.eye(8) / 8 + 0.45e-12j * iix
        validate_density_matrix(rho, raw=True)
        with pytest.raises(ValueError, match=r"expectation \(0, 0, 1\) has imaginary residue 3\.6"):
            expectations(rho)


class TestReconstruct:
    def test_round_trip_on_pure_states(self, rng):
        for _ in range(20):
            rho = random_pure_density(rng)
            assert max_abs(reconstruct(expectations(rho)) - rho) <= 1e-12

    def test_round_trip_on_mixed_states(self, rng):
        for _ in range(10):
            rho = random_mixed_density(rng)
            assert max_abs(reconstruct(expectations(rho)) - rho) <= 1e-12

    def test_bare_unit_entry_gives_maximally_mixed(self):
        t = np.zeros((4, 4, 4))
        t[0, 0, 0] = 1.0
        np.testing.assert_allclose(reconstruct(t), np.eye(8) / 8, atol=1e-15)

    def test_tensor_round_trip(self, rng):
        # any Hermitian unit-trace matrix induces a consistent tensor
        a = crandn((8, 8), rng)
        raw = (a + dagger(a)) / 2
        raw = raw / np.trace(raw).real
        t = expectations(raw)
        np.testing.assert_allclose(expectations(reconstruct(t)), t, atol=1e-12)

    def test_rejects_bad_unit_entry(self):
        t = np.zeros((4, 4, 4))
        t[0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="unit trace"):
            reconstruct(t)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="4x4x4"):
            reconstruct(np.ones((4, 4)))

    @pytest.mark.parametrize("index", [(0, 0, 0), (1, 2, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, index, bad):
        t = np.zeros((4, 4, 4))
        t[0, 0, 0] = 1.0
        t[index] = bad
        with pytest.raises(ValueError, match="non-finite"):
            reconstruct(t)


class TestEstimateExpectations:
    def test_deterministic_for_fixed_seed(self):
        rho = evolve(parse_profile("HIX"))
        first = estimate_expectations(rho, shots=2000, seed=42)
        second = estimate_expectations(rho, shots=2000, seed=42)
        assert np.array_equal(first, second)

    def test_identity_entry_needs_no_sampling(self):
        t = estimate_expectations(basis_density("101"), shots=3, seed=0)
        assert t[0, 0, 0] == 1.0

    def test_error_shrinks_with_shots(self):
        rho = evolve(parse_profile("HHI"))
        exact = expectations(rho)
        for seed in (0, 1, 2):
            coarse = max_abs(estimate_expectations(rho, shots=10**4, seed=seed) - exact)
            fine = max_abs(estimate_expectations(rho, shots=10**6, seed=seed) - exact)
            assert fine < coarse

    def test_million_shot_accuracy_on_101(self):
        rho = basis_density("101")
        t = estimate_expectations(rho, shots=10**6, seed=0)
        assert max_abs(t - expectations(rho)) <= 5e-3

    def test_rejects_non_physical_state(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            estimate_expectations(load_reference_state("class7_appendix"), shots=10)

    def test_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError, match="shots"):
            estimate_expectations(random_mixed_density(rng), shots=0)

    def test_shots_are_bounded_by_a_c_long(self):
        rho = basis_density("101")
        with pytest.raises(ValueError, match=r"^shots must be an integer in \[1, 2\*\*63 - 1\], got "):
            estimate_expectations(rho, shots=2**63)
        # the standard error at 2**63 - 1 shots is about 3e-10
        np.testing.assert_allclose(estimate_expectations(rho, shots=2**63 - 1),
                                   expectations(rho), rtol=0, atol=1e-8)


def fresh_stream_estimate(rho, shots, seed):
    """Reference estimator: a new Philox keyed [seed mod 2**64, string index] per string."""
    exact = expectations(rho)
    key = seed % 2**64
    t = np.empty((4, 4, 4))
    t[0, 0, 0] = 1.0
    for flat, idx in enumerate(product(range(4), repeat=3)):
        if idx == (0, 0, 0):
            continue
        p_plus = min(max((1.0 + exact[idx]) / 2.0, 0.0), 1.0)
        rng = np.random.Generator(np.random.Philox(key=np.array([key, flat], dtype=np.uint64)))
        wins = int(rng.binomial(shots, p_plus))
        t[idx] = (2.0 * wins - shots) / shots
    return t


class TestSeededStream:
    @settings(deadline=None, max_examples=40)
    @given(state_seed=st.integers(0, 2**32 - 1),
           shots=st.one_of(st.sampled_from([1, 7, 8192, 10**6, 2**31 - 1]),
                           st.integers(1, 10**7)),
           seed=st.integers(-2**70, 2**70))
    def test_matches_a_fresh_stream_per_string(self, state_seed, shots, seed):
        rho = random_mixed_density(np.random.default_rng(state_seed))
        expected = fresh_stream_estimate(rho, shots, seed)
        assert estimate_expectations(rho, shots, seed).tobytes() == expected.tobytes()

    def test_golden_digest(self):
        # SHA-256 of the tensor bytes, unchanged since the per-string generators
        t = estimate_expectations(evolve(parse_profile("HIX")), 8192, 42)
        assert hashlib.sha256(t.tobytes()).hexdigest() == (
            "3d89da3b9bb17076444b54ff3d31b66562770d83857b887abd1e3e807ebb479c")

    def test_negative_seed_is_its_own_stream(self):
        rho = evolve(parse_profile("HIX"))
        minus_one = estimate_expectations(rho, 8192, -1)
        assert not np.array_equal(minus_one, estimate_expectations(rho, 8192, 0))
        assert np.array_equal(minus_one, estimate_expectations(rho, 8192, 2**64 - 1))

    def test_seeds_above_2_63_do_not_collide(self):
        rho = evolve(parse_profile("HIX"))
        assert not np.array_equal(estimate_expectations(rho, 8192, 2**63),
                                  estimate_expectations(rho, 8192, 2**63 + 1))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        # rank-deficient (pure) inputs carry sqrt-amplified eigenvalue dust,
        # hence the 1e-6 output bound rather than 1e-8
        for make in (random_pure_density, random_mixed_density):
            rho = make(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_states(self):
        assert fidelity(basis_density("000"), basis_density("111")) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_reference_state_against_its_target(self):
        rho = load_reference_state("class7_appendix")
        value = fidelity(rho, basis_density("101"))
        assert value == pytest.approx(0.843, abs=1e-3)
        assert value == pytest.approx(np.sqrt(0.711), abs=1e-12)

    def test_symmetric_on_physical_states(self, rng):
        for _ in range(5):
            rho = random_mixed_density(rng)
            sigma = random_mixed_density(rng)
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-8)

    def test_bounded_on_physical_states(self, rng):
        for _ in range(10):
            value = fidelity(random_mixed_density(rng), random_mixed_density(rng))
            assert 0.0 <= value <= 1.0 + 1e-6

    def test_one_only_for_equal_states(self, rng):
        rho = random_mixed_density(rng)
        sigma = 0.99 * rho + 0.01 * basis_density("000")
        assert max_abs(rho - sigma) > 1e-3
        assert fidelity(rho, sigma) < 1.0 - 1e-8

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="3-qubit"):
            fidelity(random_mixed_density(rng), np.eye(4) / 4)


class TestProjectToPhysical:
    def test_repairs_the_reference_state(self):
        repaired = project_to_physical(load_reference_state("class7_appendix"))
        validate_density_matrix(repaired)

    def test_fixes_nothing_on_physical_states(self, rng):
        rho = random_mixed_density(rng)
        assert max_abs(project_to_physical(rho) - rho) <= 1e-12


class TestLoadReferenceState:
    def test_transcribed_entries(self):
        rho = load_reference_state("class7_appendix")
        assert rho[5, 5].real == pytest.approx(0.711, abs=1e-15)
        assert rho[0, 1].real == pytest.approx(-0.188, abs=1e-15)
        assert rho[1, 0].real == pytest.approx(-0.188, abs=1e-15)
        assert rho[0, 1].imag == pytest.approx(0.229, abs=1e-15)
        assert rho[1, 0].imag == pytest.approx(-0.229, abs=1e-15)

    def test_exactly_hermitian_as_printed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = load_reference_state("class7_appendix")
        assert max_abs(rho - dagger(rho)) == 0.0
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)

    def test_not_positive_as_printed(self):
        rho = load_reference_state("class7_appendix")
        assert np.linalg.eigvalsh(rho)[0] < -1e-3
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density_matrix(rho)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown reference state"):
            load_reference_state("class9_appendix")


class TestDensityFileFormat:
    def test_round_trip_through_file(self, tmp_path, rng):
        rho = random_mixed_density(rng)
        lines = [" ".join(format(v, ".17g") for v in row) for row in rho.real]
        lines.append("")
        lines += [" ".join(format(v, ".17g") for v in row) for row in rho.imag]
        path = tmp_path / "state.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        np.testing.assert_allclose(read_density_matrix(path), rho, atol=1e-15)

    def test_rejects_missing_blank_separator(self):
        with pytest.raises(ValueError, match="blank line"):
            parse_density_text("\n".join(["0 " * 8] * 17))

    def test_rejects_short_rows(self):
        text = "\n".join(["0 0 0"] * 8 + [""] + ["0 0 0"] * 8)
        with pytest.raises(ValueError, match="8 values"):
            parse_density_text(text)

    def test_rejects_non_numeric(self):
        rows = ["0 0 0 0 0 0 0 0"] * 8
        bad = ["a 0 0 0 0 0 0 0"] + ["0 0 0 0 0 0 0 0"] * 7
        with pytest.raises(ValueError, match="malformed"):
            parse_density_text("\n".join(rows + [""] + bad))


def test_matches_the_per_string_loop_bit_for_bit(rng):
    # the seeded estimator draws from these values, so the stacked forms must
    # reproduce the per-string trace and the ordered accumulation exactly
    strings = [np.kron(np.kron(linalg.PAULIS[i], linalg.PAULIS[j]), linalg.PAULIS[k])
               for i, j, k in product(range(4), repeat=3)]
    for rho in [random_mixed_density(rng) for _ in range(10)] + [
            evolve(parse_profile("HIX")), load_reference_state("class7_appendix")]:
        oracle = np.array([np.trace(rho @ s).real for s in strings]).reshape(4, 4, 4)
        t = expectations(rho)
        assert np.array_equal(t, oracle)
        acc = np.zeros((8, 8), dtype=complex)
        for value, s in zip(t.ravel(), strings):
            if value != 0.0:
                acc += value * s
        assert reconstruct(t).tobytes() == (acc / 8.0).tobytes()


def test_pauli_strings_cover_all_64(rng):
    # expectations must read every slot: perturbing any tensor entry changes the state
    t = expectations(random_mixed_density(rng))
    for idx in product(range(4), repeat=3):
        if idx == (0, 0, 0):
            continue
        bumped = t.copy()
        bumped[idx] += 0.25
        assert max_abs(reconstruct(bumped) - reconstruct(t)) > 1e-3
