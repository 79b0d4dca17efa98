import gc
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qdilemma import linalg
from qdilemma.game import evolve, parse_profile
from qdilemma.linalg import (
    ClampWarning,
    basis_density,
    basis_state,
    check_spectrum,
    clamp_spectrum,
    cnot,
    kron3,
    record_state,
    validate_density_matrix,
)
from qdilemma.noise import ancilla_prepare, corrupted_input
from qdilemma.tomography import estimate_expectations, load_reference_state, project_to_physical, reconstruct

from helpers import count_full_checks, random_mixed_density, tomography_request


class TestKron:
    def test_triple_flip_moves_000_to_111(self):
        x3 = kron3(linalg.X, linalg.X, linalg.X)
        np.testing.assert_array_equal(x3 @ basis_state("000"), basis_state("111"))

    @staticmethod
    def factors(size, rng):
        return {
            "complex": rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)),
            "real": rng.normal(size=(size, size)),
            "identity": np.eye(size),
        }

    def test_kron3_matches_np_kron_byte_for_byte(self, rng):
        small = list(self.factors(2, rng).values()) + [linalg.X, linalg.Y, linalg.H]
        for a in small:
            for b in small:
                for c in small + list(self.factors(4, rng).values()):
                    expected = np.kron(np.kron(a, b), c)
                    assert kron3(a, b, c).tobytes() == expected.tobytes()

    def test_products_past_sixteen_dimensions_match_np_kron(self):
        expected = np.kron(np.kron(np.eye(4), np.eye(4)), linalg.I2)
        assert kron3(np.eye(4), np.eye(4), linalg.I2).tobytes() == expected.tobytes()

    def test_stacks_give_every_triples_product_in_row_major_order(self, rng):
        a = np.stack([linalg.H, linalg.Y, self.factors(2, rng)["complex"]])
        b = np.stack(linalg.PAULIS)
        c = np.stack([linalg.X, self.factors(2, rng)["real"]])
        got = kron3(a, b, c)
        assert got.shape == (24, 8, 8)
        expected = np.stack([kron3(f, g, h) for f in a for g in b for h in c])
        assert got.tobytes() == expected.tobytes()


class TestCnot:
    #: C flips the first of two qubits when the second is 1, C' the second when the first is 1.
    C = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    C_PRIME = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

    def test_two_qubit_matrices(self):
        assert cnot(1, 0, 2).tobytes() == self.C.tobytes()
        assert cnot(0, 1, 2).tobytes() == self.C_PRIME.tobytes()

    def test_three_qubit_gates_of_the_entangler_decomposition(self):
        assert cnot(1, 0, 3).tobytes() == np.kron(self.C, linalg.I2).tobytes()
        assert cnot(1, 2, 3).tobytes() == np.kron(linalg.I2, self.C_PRIME).tobytes()

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
    def test_list_is_clamped_as_its_array_is(self, w, scale):
        with warnings.catch_warnings(record=True) as from_list:
            warnings.simplefilter("always")
            out = clamp_spectrum(w, scale)
        with warnings.catch_warnings(record=True) as from_array:
            warnings.simplefilter("always")
            expected = clamp_spectrum(np.array(w), scale)
        for clamped in (out, expected):
            assert type(clamped) is list and all(type(value) is float for value in clamped)
        assert np.array(out).tobytes() == np.array(expected).tobytes()
        assert [str(c.message) for c in from_list] == [str(c.message) for c in from_array]

    @given(w=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8).map(sorted),
           scale=st.floats(1e-3, 1e3))
    def test_output_non_negative_and_unchanged_above_the_floor(self, w, scale):
        w = np.array(w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            out = clamp_spectrum(w, scale)
        assert all(value >= 0.0 for value in out)
        kept = w > linalg.DUST_RTOL * scale
        np.testing.assert_array_equal(np.array(out)[kept], w[kept])


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

    def test_complex_trace_is_named_with_its_imaginary_part(self):
        # each imaginary part is within the Hermiticity tolerance, their sum is past TOL
        rho = np.eye(8) / 8 + np.diag([4.9e-13j] * 8)
        with pytest.raises(ValueError) as info:
            validate_density_matrix(rho, raw=True)
        assert str(info.value) == "density matrix trace 1+3.92e-12j is not 1"

    def test_complex_trace_within_tolerance_is_accepted(self):
        rho = np.eye(8) / 8 + np.diag([1.2e-13j] * 8)
        assert validate_density_matrix(rho, raw=True) is not None

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

    @pytest.mark.parametrize("diagonal, trace", [
        ([1e308, 1e308, -1e308, -1e308] * 2, "nan"),
        ([1e308] * 8, "inf"),
    ])
    def test_finite_diagonal_whose_trace_overflows_is_refused(self, diagonal, trace):
        # summed pairwise, the first is inf + -inf, a NaN that no comparison with 1 passes;
        # the overflow on the way raises no warning
        with pytest.raises(ValueError, match=rf"^density matrix trace {trace} is not 1$"):
            validate_density_matrix(np.diag(diagonal), raw=True)

    def test_numpy_error_state_is_left_as_found(self):
        # on acceptance and on each refusal, in the main thread and in a worker,
        # whose error state numpy keeps apart
        nan_entry, inf_entry, minus_inf_entry, overflow = (basis_density("000") for _ in range(4))
        nan_entry[0, 1], inf_entry[0, 1], minus_inf_entry[0, 1] = np.nan, np.inf, -np.inf
        overflow[0, 1], overflow[1, 0] = 1e308, -1e308
        refused = [
            (nan_entry, "non-finite"), (inf_entry, "non-finite"), (minus_inf_entry, "non-finite"),
            (overflow, "not Hermitian"),
            (np.diag([1e308, 1e308, -1e308, -1e308] * 2), "trace nan"),
        ]

        def check():
            outside = np.geterr()
            with np.errstate(divide="raise", over="print", under="ignore", invalid="warn"):
                found = np.geterr()
                for raw in (False, True):
                    validate_density_matrix(basis_density("000"), raw=raw)
                    assert np.geterr() == found
                for rho, message in refused:
                    with pytest.raises(ValueError, match=message):
                        validate_density_matrix(rho, raw=True)
                    assert np.geterr() == found
            assert np.geterr() == outside

        check()
        with ThreadPoolExecutor(1) as pool:
            pool.submit(check).result()


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


#: A state each producer makes and records as physical.
MADE_STATES = {
    "basis_density": lambda: basis_density("101"),
    "corrupted_input": lambda: corrupted_input(0.3),
    "ancilla_prepare": lambda: ancilla_prepare(0.3),
    "evolve": lambda: evolve(parse_profile("HIX"), corrupted_input(0.3), 0.7),
    "project_to_physical": lambda: project_to_physical(load_reference_state("class7_appendix")),
}


def set_entry(rho):
    rho[0, 1] += 0.5


def set_negative_spectrum(rho):
    # still a raw state, but no longer a physical one
    rho[...] = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0])


def set_shape(rho):
    rho.shape = (64,)


def set_dtype(rho):
    rho.dtype = np.float64


def set_byte_order(rho):
    # the same shape and bytes, read as other numbers
    rho.dtype = rho.dtype.newbyteorder()


def check_outcome(rho, raw):
    """The check's message for ``rho``, or None where it passes."""
    try:
        validate_density_matrix(rho, raw)
    except ValueError as exc:
        return str(exc)
    return None


def is_recorded_physical(rho):
    # a physical state is recorded with its eigenpairs, a raw one with None in their place
    entry = linalg._RECORD.get(id(rho))
    return entry is not None and entry[0]() is rho and entry[2] is not None


class TestRecordedStates:
    @pytest.mark.parametrize("make", MADE_STATES.values(), ids=MADE_STATES)
    def test_a_made_state_is_recorded_and_passes_unchecked(self, monkeypatch, make):
        rho = make()
        checked = count_full_checks(monkeypatch)
        assert is_recorded_physical(rho)
        for raw in (False, True):
            assert validate_density_matrix(rho, raw) is rho
        assert checked == []

    @pytest.mark.parametrize("change", [set_entry, set_negative_spectrum, set_shape, set_dtype, set_byte_order],
                             ids=["entry", "negative-spectrum", "shape", "dtype", "byte-order"])
    @pytest.mark.parametrize("make", MADE_STATES.values(), ids=MADE_STATES)
    def test_a_changed_made_state_gets_the_full_check(self, make, change):
        rho = make()
        change(rho)
        copy = np.array(rho)  # a plain array, checked in full
        assert check_outcome(copy, raw=False) is not None
        assert [check_outcome(rho, raw) for raw in (False, True)] == [
            check_outcome(copy, raw) for raw in (False, True)]

    def test_a_state_recorded_raw_is_checked_in_full_as_a_physical_one(self, monkeypatch):
        rho = record_state(load_reference_state("class7_appendix"), eigenpairs=None)
        checked = count_full_checks(monkeypatch)
        assert validate_density_matrix(rho, raw=True) is rho
        assert checked == []
        with pytest.raises(ValueError, match=r"^density matrix has negative eigenvalue -1\.083e\+00$"):
            validate_density_matrix(rho)
        assert checked == [rho]

    def test_a_copy_or_view_of_a_made_state_is_checked_in_full(self, monkeypatch):
        rho = corrupted_input(0.3)
        checked = count_full_checks(monkeypatch)
        for other in (np.array(rho), rho[:], rho.T):
            validate_density_matrix(other)
        assert len(checked) == 3

    def test_an_entry_that_is_not_the_arrays_own_does_not_pass_it(self, monkeypatch):
        # as if another array had died under this id and its entry had stayed:
        # the same bytes, but not this array's own reference
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1] = 0.5
        other = np.array(rho)
        monkeypatch.setitem(linalg._RECORD, id(rho), (weakref.ref(other), rho.tobytes(), None))
        with pytest.raises(ValueError, match=r"^density matrix is not Hermitian$"):
            validate_density_matrix(rho, raw=True)

    def test_an_entrys_callback_deletes_only_its_own_entry(self):
        rho = corrupted_input(0.3)
        old = linalg._RECORD[id(rho)]
        record_state(rho, linalg.eigenpairs(rho))
        newer = linalg._RECORD[id(rho)]
        # the old entry's callback, run late, as if its own array had died after the newer entry was made
        old[0].__callback__(old[0])
        assert linalg._RECORD[id(rho)] is newer
        del rho
        assert not any(entry is newer for entry in linalg._RECORD.values())

    @given(profile=st.tuples(*[st.sampled_from("IHX")] * 3), gamma=st.floats(0.0, np.pi / 2),
           x=st.floats(0.0, 1.0), source=st.sampled_from(["corrupted", "ancilla", "default"]))
    def test_every_evolved_state_passes_the_full_check(self, profile, gamma, x, source):
        rho = {"corrupted": corrupted_input, "ancilla": ancilla_prepare,
               "default": lambda x: None}[source](x)
        out = evolve(profile, rho, gamma)
        assert is_recorded_physical(out)
        validate_density_matrix(np.array(out))

    @given(upper=st.lists(st.complex_numbers(max_magnitude=1e8, allow_nan=False, allow_infinity=False),
                          min_size=28, max_size=28),
           diagonal=st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3))
    def test_every_repaired_state_passes_the_full_check(self, upper, diagonal):
        # a raw state with entries up to 1e8: each pair of opposite diagonal
        # entries sums to 0 exactly, and the two halves to 1
        raw = np.zeros((8, 8), dtype=complex)
        raw[np.triu_indices(8, 1)] = upper
        raw += raw.conj().T
        a, b, c = diagonal
        raw[np.diag_indices(8)] = [a, b, c, 0.5, -a, -b, -c, 0.5]
        assume(check_outcome(raw, raw=True) is None)
        out = project_to_physical(raw)
        assert is_recorded_physical(out)
        validate_density_matrix(np.array(out))

    @given(profile=st.tuples(*[st.sampled_from("IHX")] * 3), gamma=st.floats(0.0, np.pi / 2),
           x=st.floats(0.0, 1.0), bits=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
    def test_recorded_eigenpairs_form_their_state(self, profile, gamma, x, bits, seed):
        # a state of each maker in MADE_STATES; the repair's input is a raw
        # reconstruction from 100 shots, whose negative eigenvalues it clips
        source = corrupted_input(x)
        state = evolve(profile, source, gamma)
        raw = reconstruct(estimate_expectations(state, 100, seed))
        made = {"basis_density": basis_density(f"{bits:03b}"), "corrupted_input": source,
                "ancilla_prepare": ancilla_prepare(x), "evolve": state,
                "project_to_physical": project_to_physical(raw)}
        assert made.keys() == MADE_STATES.keys()
        eps = np.finfo(float).eps
        for name, rho in made.items():
            w, v = linalg.eigenpairs(rho)
            assert not (w.flags.writeable or v.flags.writeable)
            # the maker's own product of them, weights summing to 1 on orthonormal
            # columns, each to rounding: over 200 000 random circuits evolve's
            # columns' Gram matrix came within 5 eps of the identity.  The repair's
            # columns are eigh's, and its eight weights are divided by their sum:
            # over 150 000 random reconstructions its Gram matrix came within 17 eps
            # of the identity and its weights' sum within 2 eps of 1
            repair = name == "project_to_physical"
            assert ((v * w) @ v.conj().T).tobytes() == rho.tobytes()
            assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= (4 if repair else 1) * eps
            assert linalg.max_abs(v.conj().T @ v - np.eye(len(w))) <= (32 if repair else 8) * eps

    def test_an_unrecorded_or_unpaired_state_is_decomposed(self):
        # a plain copy, and a state recorded raw, with no eigenpairs
        copy = np.array(evolve(parse_profile("HIX"), corrupted_input(0.3)))
        for rho in (copy, record_state(np.array(copy), eigenpairs=None)):
            w, v = linalg.eigenpairs(rho)
            reference = np.linalg.eigh(rho)
            assert (w.tobytes(), v.tobytes()) == (reference[0].tobytes(), reference[1].tobytes())

    def test_the_record_holds_only_live_states(self):
        gc.collect()
        before = dict(linalg._RECORD)

        def added():
            return [entry[0]() for key, entry in linalg._RECORD.items() if before.get(key) is not entry]

        requests = [(profile, x, gamma) for profile in product("IHX", repeat=3)
                    for x in (0.0, 0.3, 1.0) for gamma in (0.0, 0.7, np.pi / 2)]
        class7 = load_reference_state("class7_appendix")
        kept = None
        for k in range(1000):
            kept = tomography_request(requests[k % len(requests)] if k % 5 else class7, seed=k)
        gc.collect()
        # the last request's made states, its evolved state and its repair, and no other
        assert all(entry[0]() is not None for entry in linalg._RECORD.values())
        assert sorted(map(id, added())) == sorted(id(a) for a in kept[:-1] if is_recorded_physical(a))
        assert len(added()) == 2
        del kept
        gc.collect()
        assert added() == []

    def test_threads_give_the_serial_outputs_bit_for_bit(self):
        class7 = load_reference_state("class7_appendix")
        requests = [((profile, x, gamma), seed) for seed, (profile, x, gamma) in enumerate(
            zip(product("IHX", repeat=3), np.linspace(0.0, 1.0, 27), np.linspace(0.0, np.pi / 2, 27)))]
        requests += [(class7, 0)] * 5

        def outputs(request):
            state, seed = request
            *arrays, fidelity = tomography_request(state, seed=seed)
            return [a.tobytes() for a in arrays] + [fidelity]

        serial = [outputs(request) for request in requests]
        start = threading.Barrier(4)

        def worker(offset):
            start.wait()
            order = list(range(offset, len(requests))) + list(range(offset))
            return [(i, outputs(requests[i])) for _ in range(5) for i in order]

        # more threads than cores, switching often, so that records and checks interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = [pair for part in pool.map(worker, range(4), timeout=300) for pair in part]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4 * 5 * len(requests)
        assert all(got == serial[i] for i, got in results)
