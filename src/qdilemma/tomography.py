"""Pauli-basis state tomography, shot-based estimation, and Uhlmann fidelity.

A 3-qubit state is fully described by the 4x4x4 tensor of expectation values
of the 64 Pauli strings.  With the strings flattened into the rows of one
64x64 matrix ``P``, the forward map is ``t = Re(conj(P) @ vec(rho))`` and linear
inversion is ``vec(rho) = t @ P / 8``; the one inverts the other because
``conj(P) @ P.T == 8 I`` holds exactly (every entry of ``P`` is 0, ±1 or ±i).
Both maps are real products with the float view of ``P``, whose rows
interleave real and imaginary parts: ``Re(conj(p)·r) = p_re·r_re +
p_im·r_im`` is one row of it against the interleaved parts of ``r``, and
the real ``t`` times it gives the interleaved parts of ``t @ P``.
Inversion of noisy data can produce "raw" matrices (Hermitian, unit trace,
but not positive); those are accepted wherever it is meaningful, in
particular by :func:`fidelity`.
"""

from __future__ import annotations

import math
import operator
import threading
from importlib import resources
from itertools import product

import numpy as np

from .linalg import (PAULIS, TOL, check_spectrum, clamp_spectrum, dagger, kron3,
                     validate_density_matrix)

#: The 64 Pauli strings s_i ⊗ s_j ⊗ s_k, flattened into rows in row-major (i, j, k) order.
_PAULI = np.stack([kron3(a, b, c).ravel() for a, b, c in product(PAULIS, repeat=3)])
#: Its float view: each row holds a string's real and imaginary parts, interleaved.
_PAULI_PARTS = _PAULI.view(float)
#: The inverse map's matrix, that view over 8: every entry is 0 or ±1/8, so it is exact.
_PAULI_INVERSE = _PAULI_PARTS / 8.0

#: Per-thread state of the estimator: its one Philox bit generator, re-keyed per call.
_THREAD = threading.local()


def expectations(rho: np.ndarray) -> np.ndarray:
    """4x4x4 tensor of Pauli-string expectation values tr(rho · s_i ⊗ s_j ⊗ s_k).

    Accepts raw (non-positive) states.  The tensor is that of the state's
    Hermitian part, which the density-matrix check puts within ``TOL`` of the
    state, so every entry is real.
    """
    return _expectations(validate_density_matrix(rho, raw=True))


def _expectations(rho: np.ndarray) -> np.ndarray:
    """:func:`expectations` of a state that has already been validated."""
    # tr(rho s) = sum_ab rho[a, b] s[b, a], and s[b, a] = conj(s[a, b]) for a Hermitian s;
    # the real part of that sum is the product of the interleaved parts
    return (_PAULI_PARTS @ rho.ravel().view(float)).reshape(4, 4, 4)


def reconstruct(t: np.ndarray) -> np.ndarray:
    """Linear-inversion density matrix from an expectation tensor.

    The result is Hermitian with unit trace but is *raw*: positivity is not
    enforced, matching what inversion of noisy data actually yields.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4, 4):
        raise ValueError(f"expectation tensor must be 4x4x4, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("expectation tensor has non-finite entries")
    if abs(t[0, 0, 0] - 1.0) > TOL:
        raise ValueError(f"t[0,0,0] = {float(t[0, 0, 0])!r} must be 1 (unit trace)")
    return (t.ravel() @ _PAULI_INVERSE).view(complex).reshape(8, 8)


def check_shots(shots: int) -> int:
    """Validate a shot count and return it as an int; the binomial draw takes an int64."""
    shots = operator.index(shots)
    if not 1 <= shots < 2**63:
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots}")
    return shots


def estimate_expectations(rho: np.ndarray, shots: int, seed: int = 0) -> np.ndarray:
    """Finite-shot estimate of the expectation tensor.

    Each of the 63 non-identity Pauli strings is measured independently:
    ``shots`` outcomes are drawn from its two-point (+1/-1) distribution under
    ``rho`` and averaged.  All strings are drawn from one counter-based stream
    keyed by the seed, in flat (i, j, k) order, so the result is reproducible.
    The seed is reduced mod 2**64 exactly, so any integer, negative ones
    included, is a distinct valid seed.
    """
    rho = validate_density_matrix(rho)
    shots = check_shots(shots)
    # clipped to [0, 1] by two ufuncs, without np.clip's dispatch
    p_plus = np.minimum(np.maximum((1.0 + _expectations(rho).ravel()) / 2.0, 0.0), 1.0)
    rng = np.random.Generator(_keyed_philox(operator.index(seed) % 2**64))
    t = np.empty(64)
    t[0] = 1.0
    t[1:] = (2.0 * rng.binomial(shots, p_plus[1:]) - shots) / shots
    return t.reshape(4, 4, 4)


def _keyed_philox(key: int) -> np.random.Philox:
    """This thread's Philox bit generator, set to the start of the stream keyed ``[key, 0]``.

    The state setter gives it the key, counter 0 and an empty buffer, which
    is the state ``Philox(key=[key, 0])`` starts in, without the OS entropy
    that constructor draws for a seed sequence the key then overrides.  One
    generator per thread, because a re-key and the draws after it are not
    atomic.
    """
    try:
        bitgen = _THREAD.philox
    except AttributeError:
        bitgen = _THREAD.philox = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    # the setter copies the words one by one, so plain ints serve as well as arrays
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return bitgen


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Closeness tr sqrt(sqrt(sigma) rho sqrt(sigma)) of ``rho`` to a physical ``sigma``.

    With ``sigma = V D V†``, the matrix under the root is unitarily similar
    to ``sqrt(D) V† rho V sqrt(D)``, which is zero outside the support of
    ``sigma``.  So one eigendecomposition of ``sigma`` suffices: with ``u``
    the columns of ``V sqrt(D)`` whose eigenvalue is nonzero after the clamp
    rule, the fidelity is the sum of the roots of the eigenvalues of the
    r x r block ``u† rho u``, r the rank of ``sigma``.  ``rho`` may be raw.
    A game target has rank at most 2 and a basis target rank 1, and such a
    block's eigenvalues are taken in closed form, with no second
    eigensolver: within 8 eps times the block's norm of the exact ones of its
    Hermitian part, and of a 1x1 block bit for bit what ``eigvalsh`` gives.
    The block's eigenvalues are clamped by
    :func:`~qdilemma.linalg.clamp_spectrum` (with a warning beyond rounding
    slack) at the scale of ``sigma``'s largest eigenvalue, whose rounding the
    block carries, so rounding dust adds 0 rather than a root of ~1e-8.  For a
    pure ``sigma = |psi><psi|`` the block is the number ``<psi|rho|psi>``, so
    the fidelity is ``sqrt(max(0, <psi|rho|psi>))`` to rounding.
    """
    rho = validate_density_matrix(rho, raw=True)
    w, v = np.linalg.eigh(validate_density_matrix(sigma, raw=True))
    check_spectrum(w)
    w = clamp_spectrum(w, w[-1])
    u = (v * np.sqrt(w))[:, w > 0.0]
    spectrum = _block_spectrum(dagger(u) @ rho @ u)
    return float(np.sqrt(clamp_spectrum(spectrum, w[-1])).sum())


def _block_spectrum(block: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a square ``block``.

    A 1x1 block's eigenvalue is its real part, and a 2x2 block's,
    ``m ± hypot((a - c)/2, |b|)`` with ``m = (a + c)/2``, are taken in
    closed form: the one whose two terms share a sign as written, and the
    other as the determinant ``ac - |b|²`` over it rather than as a
    difference that cancels.  That quotient scales each entry by a ratio of
    magnitude at most 1, so it cannot overflow.  A larger block goes
    through ``eigvalsh``.
    """
    if len(block) == 1:
        return block.real.ravel()
    if len(block) == 2:
        (a, b), (b_t, c) = block.tolist()
        a, c, b = a.real, c.real, abs((b + b_t.conjugate()) / 2)
        mean, radius = a / 2 + c / 2, math.hypot(a / 2 - c / 2, b)
        if mean >= 0.0:
            high = mean + radius
            low = a / high * c - b / high * b if high else 0.0
        else:
            low = mean - radius
            high = a / low * c - b / low * b
        return np.array([low, high])
    return np.linalg.eigvalsh((block + dagger(block)) / 2)


def project_to_physical(rho: np.ndarray) -> np.ndarray:
    """Physical repair of a raw state: negative eigenvalues clipped to zero, trace renormalized.

    A simple repair for raw tomography output when a physical state is
    required (for example as the second fidelity argument).  It is not the
    nearest physical state in Frobenius distance: clipping then renormalizing
    can land further away than projecting the spectrum onto the probability
    simplex does.
    """
    rho = validate_density_matrix(rho, raw=True)
    w, v = np.linalg.eigh(rho)
    out = (v * np.maximum(w, 0.0)) @ dagger(v)
    return out / out.trace().real


#: Names of the bundled reconstructed states.
REFERENCE_STATES = ("class7_appendix",)


def parse_density_text(text: str) -> np.ndarray:
    """Parse the plain-text matrix format: 8 rows of real parts, a blank line,
    8 rows of imaginary parts, each row 8 space-separated decimals."""
    lines = [line.strip() for line in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    if len(lines) != 17 or lines[8]:
        raise ValueError("expected 8 real rows, a blank line, and 8 imaginary rows")
    try:
        re = np.array([[float(v) for v in line.split()] for line in lines[:8]])
        im = np.array([[float(v) for v in line.split()] for line in lines[9:]])
    except ValueError as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from None
    if re.shape != (8, 8) or im.shape != (8, 8):
        raise ValueError("every row must hold exactly 8 values")
    return re + 1j * im


def read_density_matrix(path) -> np.ndarray:
    """Read a density matrix from a text file, returned exactly as written.

    Only the format is checked here; the function that uses the state checks
    it as a density matrix.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_density_text(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_reference_state(name: str) -> np.ndarray:
    """A bundled reconstructed density matrix, returned exactly as transcribed.

    The result may be raw (non-positive) and is never repaired; the
    function that uses the state checks it as a density matrix.
    """
    if name not in REFERENCE_STATES:
        raise KeyError(f"unknown reference state {name!r}; available: {', '.join(REFERENCE_STATES)}")
    text = resources.files("qdilemma").joinpath("data", f"{name}.txt").read_text(encoding="utf-8")
    return parse_density_text(text)
