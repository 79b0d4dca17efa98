"""Dense complex linear algebra for few-qubit operators and density matrices.

Everything here works on plain ``numpy`` arrays.  Basis convention: the bit
string ``b0 b1 b2`` (player 1 / qubit 0 leftmost) maps to index
``b0*4 + b1*2 + b2``, so ``|101>`` is index 5.
"""

from __future__ import annotations

import warnings

import numpy as np

# Single-qubit gates.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

#: Operator basis for one qubit: identity followed by the three Pauli gates.
PAULIS = (I2, X, Y, Z)

#: Largest operator dimension this toolkit handles (four qubits).
MAX_DIM = 16

#: Max-norm tolerance of the unitarity, Hermiticity, trace and imaginary-residue checks.
TOL = 1e-12
#: Eigenvalues in [-PSD_SLACK, 0) are treated as rounding noise.
PSD_SLACK = 1e-10


class ClampWarning(UserWarning):
    """A negative eigenvalue beyond the rounding slack was clamped to zero."""


def max_abs(a) -> float:
    """Largest entry magnitude (max norm)."""
    return float(np.max(np.abs(a)))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two operators, capped at 16x16 results.

    The same elementwise products as ``np.kron``, so bit-identical to it, but
    without its general n-dimensional shape handling, which costs most of the
    time for matrices this small.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    rows = a.shape[0] * b.shape[0]
    if rows > MAX_DIM:
        raise ValueError(
            f"tensor product of {a.shape[0]}x{a.shape[0]} and "
            f"{b.shape[0]}x{b.shape[0]} exceeds the {MAX_DIM}-dimensional cap"
        )
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, a.shape[1] * b.shape[1])


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Three-factor tensor product."""
    return kron(kron(a, b), c)


def is_unitary(u: np.ndarray) -> bool:
    """True when ``u u†`` is the identity within ``TOL`` in max norm."""
    u = np.asarray(u)
    return max_abs(u @ dagger(u) - np.eye(u.shape[0])) <= TOL


def conjugate_by(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Evolve a state under a unitary: ``rho -> u rho u†``."""
    u = np.asarray(u)
    rho = np.asarray(rho)
    if u.shape != rho.shape:
        raise ValueError(f"dimension mismatch: operator {u.shape}, state {rho.shape}")
    return u @ rho @ dagger(u)


def partial_trace_last(rho: np.ndarray) -> np.ndarray:
    """Trace out the last qubit of a multi-qubit density matrix."""
    rho = np.asarray(rho)
    d = rho.shape[0]
    if d < 4:
        raise ValueError("partial trace needs at least two qubits")
    h = d // 2
    return rho.reshape(h, 2, h, 2).trace(axis1=1, axis2=3)


def herm_sqrt(a: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a Hermitian matrix.

    Negative eigenvalues are clamped to zero before square-rooting.  Clamps
    within ``PSD_SLACK`` of zero are silent; anything larger raises a
    :class:`ClampWarning` carrying the clamped magnitude.
    """
    a = np.asarray(a)
    if max_abs(a - dagger(a)) > TOL:
        raise ValueError("herm_sqrt requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    if w[0] < -PSD_SLACK:
        warnings.warn(
            f"clamped negative eigenvalue of magnitude {-w[0]:.3e} to zero",
            ClampWarning,
            stacklevel=2,
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def validate_density_matrix(rho, raw: bool = False) -> np.ndarray:
    """Check the invariants of a 3-qubit density matrix and return it as a complex array.

    Finite entries, an 8x8 shape, Hermiticity and unit trace are always
    enforced; positivity (eigenvalues down to ``-PSD_SLACK``) is skipped for
    ``raw`` states such as linear-inversion tomography output.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if rho.shape != (8, 8):
        raise ValueError(f"expected a 3-qubit (8x8) density matrix, got shape {rho.shape}")
    if max_abs(rho - dagger(rho)) > TOL:
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(rho)
    if abs(trace - 1.0) > TOL:
        raise ValueError(f"density matrix trace {trace.real:.15g} is not 1")
    if not raw:
        lowest = np.linalg.eigvalsh(rho)[0]
        if lowest < -PSD_SLACK:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def basis_state(bits: str) -> np.ndarray:
    """Statevector for a computational-basis bit string such as ``"101"``."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    psi = np.zeros(2 ** len(bits), dtype=complex)
    psi[int(bits, 2)] = 1.0
    return psi


def basis_density(bits: str) -> np.ndarray:
    """Projector |bits><bits| as a density matrix."""
    psi = basis_state(bits)
    return np.outer(psi, psi.conj())
