"""Pauli-basis state tomography, shot-based estimation, and Uhlmann fidelity.

A 3-qubit state is fully described by the 4x4x4 tensor of expectation values
of the 64 Pauli strings.  With the strings flattened into the rows of one
64x64 matrix ``P``, the forward map is ``t = Re(conj(P) @ vec(rho))`` and linear
inversion is ``vec(rho) = t @ P / 8``; the one inverts the other because
``conj(P) @ P.T == 8 I`` holds exactly (every entry of ``P`` is 0, ±1 or ±i).
Inversion of noisy data can produce "raw" matrices (Hermitian, unit trace,
but not positive); those are accepted wherever it is meaningful, in
particular by :func:`fidelity`.
"""

from __future__ import annotations

import operator
from importlib import resources
from itertools import product

import numpy as np

from .linalg import (PAULIS, TOL, check_spectrum, clamp_spectrum, dagger, kron3,
                     validate_density_matrix)

#: The 64 Pauli strings s_i ⊗ s_j ⊗ s_k, flattened into rows in row-major (i, j, k) order.
_PAULI = np.stack([kron3(a, b, c).ravel() for a, b, c in product(PAULIS, repeat=3)])


def expectations(rho: np.ndarray) -> np.ndarray:
    """4x4x4 tensor of Pauli-string expectation values tr(rho · s_i ⊗ s_j ⊗ s_k).

    Accepts raw (non-positive) states.  The tensor is that of the state's
    Hermitian part, which the density-matrix check puts within ``TOL`` of the
    state, so every entry is real.
    """
    return _expectations(validate_density_matrix(rho, raw=True))


def _expectations(rho: np.ndarray) -> np.ndarray:
    """:func:`expectations` of a state that has already been validated."""
    # tr(rho s) = sum_ab rho[a, b] s[b, a], and s[b, a] = conj(s[a, b]) for a Hermitian s
    return (_PAULI.conj() @ rho.ravel()).real.reshape(4, 4, 4)


def reconstruct(t: np.ndarray) -> np.ndarray:
    """Linear-inversion density matrix from an expectation tensor.

    The result is Hermitian with unit trace but is *raw*: positivity is not
    enforced, matching what inversion of noisy data actually yields.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4, 4):
        raise ValueError(f"expectation tensor must be 4x4x4, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("expectation tensor has non-finite entries")
    if abs(t[0, 0, 0] - 1.0) > TOL:
        raise ValueError(f"t[0,0,0] = {float(t[0, 0, 0])!r} must be 1 (unit trace)")
    return (t.ravel() @ _PAULI / 8.0).reshape(8, 8)


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
    p_plus = np.clip((1.0 + _expectations(rho).ravel()) / 2.0, 0.0, 1.0)
    key = np.array([operator.index(seed) % 2**64, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    t = np.empty(64)
    t[0] = 1.0
    t[1:] = (2.0 * rng.binomial(shots, p_plus[1:]) - shots) / shots
    return t.reshape(4, 4, 4)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Closeness tr sqrt(sqrt(sigma) rho sqrt(sigma)) of ``rho`` to a physical ``sigma``.

    With ``sigma = V D V†``, the matrix under the root is unitarily similar
    to ``sqrt(D) V† rho V sqrt(D)``, which is zero outside the support of
    ``sigma``.  So one eigendecomposition of ``sigma`` suffices: with ``u``
    the columns of ``V sqrt(D)`` whose eigenvalue is nonzero after the clamp
    rule, the fidelity is the sum of the roots of the eigenvalues of the
    r x r block ``u† rho u``, r the rank of ``sigma``.  ``rho`` may be raw.
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
    block = dagger(u) @ rho @ u
    block = (block + dagger(block)) / 2
    return float(np.sqrt(clamp_spectrum(np.linalg.eigvalsh(block), w[-1])).sum())


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
    w = np.clip(w, 0.0, None)
    out = (v * w) @ dagger(v)
    return out / np.trace(out).real


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
