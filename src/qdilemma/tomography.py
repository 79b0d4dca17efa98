"""Pauli-basis state tomography, shot-based estimation, and Uhlmann fidelity.

A 3-qubit state is fully described by the 4x4x4 tensor of expectation values
of the 64 Pauli strings; linear inversion recovers the matrix as
``(1/8) sum_t t[i,j,k] s_i ⊗ s_j ⊗ s_k``.  Inversion of noisy data can
produce "raw" matrices (Hermitian, unit trace, but not positive); those are
accepted wherever it is meaningful, in particular by :func:`fidelity`.
"""

from __future__ import annotations

from importlib import resources
from itertools import product

import numpy as np

from . import linalg
from .linalg import TOL, dagger, herm_sqrt, kron3, validate_density_matrix

#: The 64 Pauli strings s_i ⊗ s_j ⊗ s_k stacked in row-major (i, j, k) order.
_PAULI_STRINGS = np.stack([
    kron3(linalg.PAULIS[i], linalg.PAULIS[j], linalg.PAULIS[k])
    for i, j, k in product(range(4), repeat=3)
])


def expectations(rho: np.ndarray) -> np.ndarray:
    """4x4x4 tensor of Pauli-string expectation values tr(rho · s_i ⊗ s_j ⊗ s_k).

    Accepts raw (non-positive) states; Hermiticity keeps every expectation
    real, and any imaginary residue beyond rounding raises.
    """
    return _expectations(validate_density_matrix(rho, raw=True))


def _expectations(rho: np.ndarray) -> np.ndarray:
    """:func:`expectations` of a state that has already been validated."""
    # tr(rho s) = sum_ab rho[a, b] s[b, a]; this summation order matches np.trace(rho @ s)
    # bit for bit, which keeps seeded estimates stable (a flattened matrix product does not)
    values = (rho * _PAULI_STRINGS.transpose(0, 2, 1)).sum(axis=2).sum(axis=1)
    worst = int(np.argmax(np.abs(values.imag)))
    if abs(values.imag[worst]) > TOL:
        idx = tuple(int(i) for i in np.unravel_index(worst, (4, 4, 4)))
        raise ValueError(f"expectation {idx} has imaginary residue {values.imag[worst]:.3e}")
    return values.real.reshape(4, 4, 4)


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
        raise ValueError(f"t[0,0,0] = {t[0, 0, 0]!r} must be 1 (unit trace)")
    return (t.reshape(64, 1, 1) * _PAULI_STRINGS).sum(axis=0) / 8.0


def estimate_expectations(rho: np.ndarray, shots: int, seed: int = 0) -> np.ndarray:
    """Finite-shot estimate of the expectation tensor.

    Each of the 63 non-identity Pauli strings is measured independently:
    ``shots`` outcomes are drawn from its two-point (+1/-1) distribution under
    ``rho`` and averaged.  Every string gets its own counter-based stream
    keyed by (seed, string index), so the result is reproducible and
    independent of evaluation order.  The seed is reduced mod 2**64 exactly,
    so any integer, negative ones included, is a distinct valid seed.
    """
    rho = validate_density_matrix(rho)
    shots = int(shots)
    # the binomial draw takes a C long
    if not 1 <= shots < 2**63:
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots}")
    p_plus = np.clip((1.0 + _expectations(rho).ravel()) / 2.0, 0.0, 1.0)
    bits = np.random.Philox(key=np.array([int(seed) % 2**64, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    # Re-keying one bit generator to counter 0 and an empty buffer gives the
    # stream a fresh Philox(key=[seed, flat]) would; the Generator's binomial
    # cache depends only on (shots, p), so it may carry over between strings.
    fresh = bits.state
    key = fresh["state"]["key"]
    t = np.empty(64)
    t[0] = 1.0
    for flat in range(1, 64):
        key[1] = flat
        bits.state = fresh
        wins = int(rng.binomial(shots, p_plus[flat]))
        t[flat] = (2.0 * wins - shots) / shots
    return t.reshape(4, 4, 4)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Closeness tr sqrt(sqrt(sigma) rho sqrt(sigma)) of ``rho`` to a physical ``sigma``.

    ``rho`` may be raw; negative eigenvalues met along the way are clamped by
    :func:`~qdilemma.linalg.herm_sqrt` (with a warning beyond rounding slack).
    For a pure ``sigma = |psi><psi|`` this reduces to
    ``sqrt(max(0, <psi|rho|psi>))``.
    """
    rho = validate_density_matrix(rho, raw=True)
    sigma = validate_density_matrix(sigma)
    root = herm_sqrt(sigma)
    mid = root @ rho @ root
    mid = (mid + dagger(mid)) / 2
    return float(np.trace(herm_sqrt(mid)).real)


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
    total = float(np.trace(out).real)
    if total <= 0.0:
        raise ValueError("state has no positive part to keep")
    return out / total


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
