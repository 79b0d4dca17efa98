import hashlib
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdilemma import linalg
from qdilemma.game import circuit_unitary, evolve, parse_profile
from qdilemma.linalg import basis_density, dagger, max_abs, validate_density_matrix
from qdilemma.noise import corrupted_input
from qdilemma.tomography import (
    _PAULI,
    _block_spectrum,
    check_shots,
    estimate_expectations,
    expectations,
    fidelity,
    load_reference_state,
    parse_density_text,
    project_to_physical,
    read_density_matrix,
    reconstruct,
)

from helpers import (
    crandn,
    oracle_block_spectrum,
    oracle_game_factor,
    oracle_game_target_roots,
    random_mixed_density,
    random_pure_density,
)

#: The maximally mixed state plus 0.45e-12j · I⊗I⊗X, within the Hermiticity tolerance.
NEAR_HERMITIAN_MATRIX = Path(__file__).with_name("data") / "matrix_near_hermitian.txt"


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

    def test_near_hermitian_state_reads_its_hermitian_part(self):
        # anti-Hermitian part 0.9e-12 passes the Hermiticity check;
        # tr(rho · I⊗I⊗X) picks up 8 * 0.45e-12 = 3.6e-12 of imaginary part,
        # which the tensor of the Hermitian part, eye(8)/8, does not carry
        iix = np.kron(np.eye(4), linalg.X)
        rho = np.eye(8) / 8 + 0.45e-12j * iix
        assert np.array_equal(read_density_matrix(NEAR_HERMITIAN_MATRIX), rho)
        validate_density_matrix(rho, raw=True)
        assert expectations(rho).tobytes() == expectations(np.eye(8) / 8).tobytes()


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

    @pytest.mark.parametrize("shots, seed", [(1.5, 2), (1, 2.7), (np.float64(8), 0)])
    def test_rejects_a_non_integer_shot_count_or_seed(self, shots, seed):
        with pytest.raises(TypeError):
            estimate_expectations(basis_density("101"), shots, seed)

    def test_check_shots_returns_an_int(self):
        shots = check_shots(np.int64(7))
        assert shots == 7 and type(shots) is int
        for bad in (0, -3, 2**63):
            message = rf"^shots must be an integer in \[1, 2\*\*63 - 1\], got {bad}$"
            with pytest.raises(ValueError, match=message):
                check_shots(bad)


def one_stream_estimate(rho, shots, seed):
    """Reference estimator: scalar draws from one Philox keyed [seed mod 2**64, 0], in flat order."""
    exact = expectations(rho)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64)))
    t = np.empty((4, 4, 4))
    t[0, 0, 0] = 1.0
    for idx in product(range(4), repeat=3):
        if idx == (0, 0, 0):
            continue
        p_plus = min(max((1.0 + exact[idx]) / 2.0, 0.0), 1.0)
        wins = int(rng.binomial(shots, p_plus))
        t[idx] = (2.0 * wins - shots) / shots
    return t


class TestSeededStream:
    @settings(max_examples=40)
    @given(state_seed=st.integers(0, 2**32 - 1),
           shots=st.one_of(st.sampled_from([1, 7, 8192, 10**6, 2**31 - 1]),
                           st.integers(1, 10**7)),
           seed=st.integers(-2**70, 2**70))
    def test_matches_one_stream_drawn_in_flat_order(self, state_seed, shots, seed):
        rho = random_mixed_density(np.random.default_rng(state_seed))
        expected = one_stream_estimate(rho, shots, seed)
        assert estimate_expectations(rho, shots, seed).tobytes() == expected.tobytes()

    def test_golden_digest(self):
        # SHA-256 of the tensor bytes, unchanged since the one stream in flat order
        t = estimate_expectations(evolve(parse_profile("HIX")), 8192, 42)
        assert hashlib.sha256(t.tobytes()).hexdigest() == (
            "30bde954af47c64e7caba7fb490707279e0852afeb94716fcecb15ccdd537357")

    def test_threads_with_interleaved_seeds_each_draw_the_one_stream(self):
        # each thread re-keys its own generator per call, so estimates that run
        # at once from several threads cannot take each other's draws
        rho = evolve(parse_profile("HIX"), corrupted_input(0.3), 0.7)
        calls = [(shots, seed) for shots in (7, 8192, 10**6)
                 for seed in (0, -1, 42, 2**63, 2**64 + 5)]
        expected = {call: one_stream_estimate(rho, *call).tobytes() for call in calls}
        start = threading.Barrier(4)

        def worker(offset):
            start.wait()
            return [(call, estimate_expectations(rho, *call).tobytes())
                    for _ in range(20) for call in calls[offset:] + calls[:offset]]

        with ThreadPoolExecutor(4) as pool:
            results = [pair for part in pool.map(worker, range(4)) for pair in part]
        assert len(results) == 4 * 20 * len(calls)
        assert all(got == expected[call] for call, got in results)

    def test_negative_seed_is_its_own_stream(self):
        rho = evolve(parse_profile("HIX"))
        minus_one = estimate_expectations(rho, 8192, -1)
        assert not np.array_equal(minus_one, estimate_expectations(rho, 8192, 0))
        assert np.array_equal(minus_one, estimate_expectations(rho, 8192, 2**64 - 1))

    def test_seeds_above_2_63_do_not_collide(self):
        rho = evolve(parse_profile("HIX"))
        assert not np.array_equal(estimate_expectations(rho, 8192, 2**63),
                                  estimate_expectations(rho, 8192, 2**63 + 1))


#: Probability that any of the 63 estimates leaves the Hoeffding bound below.
HOEFFDING_DELTA = 1e-9

#: A game state: one of the 27 profiles on the corrupted input, of rank 2
#: inside (0, 1) and 1 at its ends.
game_states = st.builds(lambda letters, x, gamma: evolve(letters, corrupted_input(x), gamma),
                        st.tuples(*[st.sampled_from("IHX")] * 3),
                        st.floats(0.0, 1.0), st.floats(0.0, np.pi / 2))

#: A physical state: a random mixed or pure state, or a game state, which
#: reaches expectations near but not on ±1 at small gamma and corruption.
physical_states = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda s: random_mixed_density(np.random.default_rng(s))),
    st.integers(0, 2**32 - 1).map(lambda s: random_pure_density(np.random.default_rng(s))),
    game_states,
)


#: A raw state: linear inversion of a finite-shot estimate of a physical state.
raw_states = st.builds(lambda rho, shots, seed: reconstruct(estimate_expectations(rho, shots, seed)),
                       physical_states, st.integers(1, 10**4), st.integers(0, 2**32 - 1))


def unit_vector(rng):
    """A random unit vector, drawn as :func:`random_pure_density` draws its state."""
    psi = crandn(8, rng)
    return psi / np.linalg.norm(psi)


#: A unit vector: a random one, or the pure game state on the pristine input.
unit_vectors = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda s: unit_vector(np.random.default_rng(s))),
    st.builds(lambda letters, gamma: circuit_unitary(letters, gamma)[:, 0],
              st.tuples(*[st.sampled_from("IHX")] * 3), st.floats(0.0, np.pi / 2)),
)

#: A physical state with the 8xk factor ``a`` of ``rho = a a†``: a random
#: full-rank one, or a game state.
factored_states = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda s: crandn((8, 8), np.random.default_rng(s)))
    .map(lambda a: a / np.linalg.norm(a)),
    st.builds(oracle_game_factor, st.tuples(*[st.sampled_from("IHX")] * 3),
              st.floats(0.0, 1.0), st.floats(0.0, np.pi / 2)),
)


def rounding(rho):
    """Bound on the rounding of ``v† rho v`` for a unit ``v``, with a margin of 8."""
    return 8 * np.finfo(float).eps * max(1.0, np.linalg.norm(np.abs(rho), 2))


def support_block(rho, target):
    """The block ``u† rho u`` on the target's support that :func:`fidelity` forms, and its scale."""
    w, v = np.linalg.eigh(target)
    w = linalg.clamp_spectrum(w, w[-1])
    u = (v * np.sqrt(w))[:, w > 0.0]
    return u.conj().T @ rho @ u, w[-1]


def decomposition_error(rho, target):
    """How far the target as :func:`fidelity` decomposes it moves ``tr(rho target)``.

    With ``target ≈ V W V†`` as ``eigh`` returns it, ``fidelity`` works on
    ``T = V clamp(W) V†``.  When ``rho`` or ``T`` has rank 1, the block's one
    eigenvalue (or its trace) is ``tr(rho T)``, which differs from
    ``tr(rho target)`` by at most ``‖rho‖₁ ‖T - target‖₂``.  The second factor
    is the rounding of the target's eigenpairs, measured here rather than
    assumed: it reaches 8.0 eps for the pure state of ``default_rng(713272268)``,
    whose eigenvalue 1 comes out 3.5 eps low and its eigenvector's squared
    norm 4 eps low.
    """
    w, v = np.linalg.eigh(target)
    kept = (v * linalg.clamp_spectrum(w, w[-1])) @ v.conj().T
    return np.abs(np.linalg.eigvalsh(rho)).sum() * np.linalg.norm(kept - target, 2)


def assert_root_of_overlap(value, psi, rho, slack):
    """``value`` is ``sqrt(max(0, <psi|rho|psi>))`` to rounding, plus ``slack`` on the square."""
    overlap = (psi.conj() @ rho @ psi).real
    if value == 0.0:
        # a negative overlap, or one that the clamp rule zeroes as dust
        assert overlap <= linalg.DUST_RTOL + rounding(rho) + slack
    else:
        # the squares, as near 0 the root's slope magnifies the overlap's rounding
        assert abs(value**2 - overlap) <= rounding(rho) + slack


class TestShotDistribution:
    @settings(max_examples=60)
    @given(rho=physical_states, shots=st.integers(1, 10**6), seed=st.integers(-2**70, 2**70))
    # string (0, 3, 1) has the exact value -0.9999973, where a normal-tail bound is too tight
    @example(rho=evolve(("I", "X", "H"), corrupted_input(0.8413), 0.00231),
             shots=8192, seed=3209852122)
    def test_every_string_lies_within_the_hoeffding_bound(self, rho, shots, seed):
        # each string averages `shots` outcomes in [-1, 1], so by Hoeffding and a union
        # bound over the 63 strings all lie this close to the exact value with
        # probability at least 1 - delta, near ±1 as well
        bound = np.sqrt(2 * np.log(2 * 63 / HOEFFDING_DELTA) / shots)
        error = np.abs(estimate_expectations(rho, shots, seed) - expectations(rho))
        assert error.max() <= bound


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        for make in (random_pure_density, random_mixed_density):
            rho = make(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-11)
        for letters in product("IHX", repeat=3):
            for x, gamma in product((0.0, 0.3, 0.5, 1.0), (0.0, 0.7, np.pi / 2)):
                rho = evolve(letters, corrupted_input(x), gamma)
                assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-14)

    def test_rank_deficient_pair_carries_no_rounding_dust(self):
        # both states have rank 2; the reference is mpmath at 40 digits on these
        # two float matrices
        state = evolve(parse_profile("XIX"), corrupted_input(0.3))
        target = evolve(parse_profile("HIX"), corrupted_input(0.3))
        assert fidelity(state, target) == pytest.approx(0.70710678118654742627, abs=1e-15)

    @settings(max_examples=100)
    @given(rho=st.one_of(physical_states, raw_states), psi=unit_vectors)
    # the overlap is -0.463, so the fidelity is exactly 0, not the root of rounding dust
    @example(rho=load_reference_state("class7_appendix"),
             psi=circuit_unitary(("H", "I", "H"), 1.0)[:, 0])
    def test_pure_target_gives_the_root_of_the_overlap(self, rho, psi):
        target = np.outer(psi, psi.conj())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", linalg.ClampWarning)
            value = fidelity(rho, target)
        assert_root_of_overlap(value, psi, rho, decomposition_error(rho, target))

    @settings(max_examples=100)
    @given(sigma=physical_states, psi=unit_vectors)
    # against this rank-2 target the block is singular and its other eigenvalue
    # is 0.0039, so the dust beside it is above 8 eps of it
    @example(sigma=evolve(("I", "I", "H"), corrupted_input(0.984375), 1.0),
             psi=circuit_unitary(("H", "H", "H"), 1.0)[:, 0])
    # both are the pure state of this seed, whose eigenpair from eigh gives
    # w |v|² 7.5 eps short of 1 = <psi|sigma|psi>: the fidelity squared is 8.5 eps short
    @example(sigma=random_pure_density(np.random.default_rng(713272268)),
             psi=unit_vector(np.random.default_rng(713272268)))
    def test_pure_state_gives_the_root_of_its_overlap_with_the_target(self, sigma, psi):
        # fidelity is symmetric on physical states
        state = np.outer(psi, psi.conj())
        assert_root_of_overlap(fidelity(state, sigma), psi, sigma, decomposition_error(state, sigma))

    @settings(max_examples=100)
    @given(a=factored_states, letters=st.tuples(*[st.sampled_from("IHX")] * 3),
           x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           gamma=st.floats(0.0, np.pi / 2))
    def test_rank_two_game_target_matches_its_known_decomposition(self, a, letters, x, gamma):
        rho = a @ a.conj().T
        value = fidelity(rho, evolve(letters, corrupted_input(x), gamma))
        roots = oracle_game_target_roots(a, letters, x, gamma)
        # each eigenvalue root**2 is computed to within the rounding, so its root is
        # within the rounding over the root, or within the clamp rule's dust of 0
        floor = linalg.DUST_RTOL + rounding(rho)
        allowed = sum(np.sqrt(floor) if root**2 <= floor else rounding(rho) / root for root in roots)
        assert abs(value - sum(roots)) <= allowed

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

    def test_unphysical_target_rejected(self):
        # the positivity rule, applied to the target's one eigendecomposition
        with pytest.raises(ValueError) as info:
            fidelity(basis_density("101"), load_reference_state("class7_appendix"))
        assert str(info.value) == "density matrix has negative eigenvalue -1.083e+00"

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="3-qubit"):
            fidelity(random_mixed_density(rng), np.eye(4) / 4)


#: The closed form's bound, in eps times the block's norm (its largest eigenvalue
#: in magnitude), on its distance from the exact eigenvalues.  Per unit roundoff
#: u = eps/2, to first order: m and (a - c)/2 round once, |b| three times (the
#: Hermitian part's two parts and the modulus) and the hypot once more, so the
#: root m ± h that is formed as written is within 6u times the norm.  The other is
#: ac/λ - |b|²/λ with |ac| + |b|² <= λ², each quotient 2 roundings plus λ's 6u
#: and |b|²'s 6u, then one for the difference: 15u, which is 7.5 eps.
CLOSED_FORM_EPS = 8
#: The same for ``eigvalsh``, a backward-stable solver with no published constant
#: at n = 2: over 1215 game blocks it came within 4.8 eps times the norm.
EIGVALSH_EPS = 8


class TestBlockSpectrum:
    def assert_matches_eigvalsh(self, block):
        spectrum = _block_spectrum(block)
        reference = np.linalg.eigvalsh((block + dagger(block)) / 2)
        if len(block) == 1:
            # the real part, which is what eigvalsh returns for the Hermitian part
            assert spectrum.tobytes() == reference.tobytes()
            return spectrum
        exact = oracle_block_spectrum(block)
        eps = np.finfo(float).eps * np.abs(exact).max()
        assert np.abs(spectrum - exact).max() <= CLOSED_FORM_EPS * eps
        assert np.abs(spectrum - reference).max() <= (CLOSED_FORM_EPS + EIGVALSH_EPS) * eps
        return spectrum

    @settings(max_examples=200)
    @given(target=game_states, rho=st.one_of(raw_states, physical_states),
           skew=st.sampled_from([0.0, 0.45e-12]))
    def test_game_target_block_matches_eigvalsh(self, target, rho, skew):
        # with an anti-Hermitian part as large as the Hermiticity check lets
        # through, as in the near-Hermitian matrix file
        rho = rho + skew * 1j * np.kron(np.eye(4), linalg.X)
        self.assert_matches_eigvalsh(support_block(rho, target)[0])

    @given(diagonal=st.lists(st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-300),
                             min_size=2, max_size=2))
    def test_diagonal_block_keeps_each_eigenvalue_to_a_few_ulps(self, diagonal):
        # where m - h would cancel away the smaller magnitude, the determinant
        # over the larger keeps its digits
        spectrum = _block_spectrum(np.diag(diagonal).astype(complex))
        np.testing.assert_allclose(spectrum, sorted(diagonal), rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_every_branch_runs_on_game_targets(self):
        # raw reconstructions at 3 and 8192 shots, the bundled raw state and pure
        # game states, against every profile's state at the ends and inside of
        # the corruption range
        seen = dict(rank_one=0, rank_two=0, negative=0, negative_mean=0, clamp_warning=0, dust=0)
        bundled = load_reference_state("class7_appendix")
        for k, (letters, x, gamma) in enumerate(
                product(product("IHX", repeat=3), (0.0, 0.3, 0.9, 1.0), (0.0, 0.7, np.pi / 2))):
            target = evolve(letters, corrupted_input(x), gamma)
            for rho in (reconstruct(estimate_expectations(target, 3, k)),
                        reconstruct(estimate_expectations(target, 8192, k)),
                        bundled, evolve(letters, None, gamma)):
                block, scale = support_block(rho, target)
                spectrum = self.assert_matches_eigvalsh(block)
                seen["rank_one" if len(block) == 1 else "rank_two"] += 1
                seen["negative"] += spectrum[0] < 0.0
                seen["negative_mean"] += len(block) == 2 and spectrum.sum() < 0.0
                seen["dust"] += np.sum((spectrum > 0.0) & (spectrum <= linalg.DUST_RTOL * scale))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", linalg.ClampWarning)
                    fidelity(rho, target)
                seen["clamp_warning"] += len(caught)
        assert all(seen.values()), seen


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

    def test_drops_blank_lines_around_the_matrix(self, rng):
        rho = random_mixed_density(rng)
        lines = [" ".join(format(v, ".17g") for v in row) for row in rho.real]
        lines.append("")
        lines += [" ".join(format(v, ".17g") for v in row) for row in rho.imag]
        text = "\n  \n\n" + "\n".join(lines) + "\n\n \n"
        np.testing.assert_array_equal(parse_density_text(text), rho)

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


#: The 64 Pauli strings as 8x8 matrices, in row-major (i, j, k) order.
PAULI_STRINGS = [np.kron(np.kron(linalg.PAULIS[i], linalg.PAULIS[j]), linalg.PAULIS[k])
                 for i, j, k in product(range(4), repeat=3)]


def random_raw_density(rng):
    """A Hermitian unit-trace matrix that is mostly not positive: a mixed state
    plus a traceless Hermitian kick."""
    a = crandn((8, 8), rng)
    kick = (a + dagger(a)) / 2
    kick -= np.trace(kick).real / 8 * np.eye(8)
    return random_mixed_density(rng) + 0.2 * kick


@settings(max_examples=200)
@given(rho=st.one_of(
    physical_states,
    st.integers(0, 2**32 - 1).map(lambda s: random_raw_density(np.random.default_rng(s)))))
@example(rho=load_reference_state("class7_appendix"))
def test_matrix_forms_match_the_per_string_sums(rho):
    # the matrix products sum in another order than one trace per string, so
    # they agree to rounding, not bit for bit
    oracle = np.array([np.trace(rho @ s).real for s in PAULI_STRINGS]).reshape(4, 4, 4)
    t = expectations(rho)
    assert max_abs(t - oracle) <= 1e-15
    acc = np.zeros((8, 8), dtype=complex)
    for value, s in zip(t.ravel(), PAULI_STRINGS):
        acc += value * s
    assert max_abs(reconstruct(t) - acc / 8.0) <= 1e-15


def test_pauli_matrix_rows_are_orthogonal_with_norm_8():
    # every entry is 0, ±1 or ±i, so the products are exact and conj(P) / 8
    # inverts P.T: reconstruct undoes expectations
    assert _PAULI.shape == (64, 64)
    assert np.array_equal(_PAULI.conj() @ _PAULI.T, 8 * np.eye(64))


def test_pauli_strings_cover_all_64(rng):
    # expectations must read every slot: perturbing any tensor entry changes the state
    t = expectations(random_mixed_density(rng))
    for idx in product(range(4), repeat=3):
        if idx == (0, 0, 0):
            continue
        bumped = t.copy()
        bumped[idx] += 0.25
        assert max_abs(reconstruct(bumped) - reconstruct(t)) > 1e-3
