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

#: Max-norm tolerance of the Hermiticity and trace checks.
TOL = 1e-12
#: Eigenvalues in [-PSD_SLACK, 0) are treated as rounding noise.
PSD_SLACK = 1e-10
#: Eigenvalues at most this fraction of a matrix's scale (its largest eigenvalue,
#: unless it was computed from larger numbers) are rounding dust, clamped to zero.
DUST_RTOL = 8 * np.finfo(float).eps


class ClampWarning(UserWarning):
    """A negative eigenvalue beyond the rounding slack was clamped to zero."""


def max_abs(a) -> float:
    """Largest entry magnitude (max norm)."""
    return float(abs(a).max())


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two matrices.

    The same elementwise products as ``np.kron``, so bit-identical to it, but
    without its general n-dimensional shape handling, which costs most of the
    time for matrices this small.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Three-factor tensor product."""
    return kron(kron(a, b), c)


def cnot(control: int, target: int, qubits: int) -> np.ndarray:
    """CNOT of a ``qubits``-qubit register: flips ``target`` where ``control`` is 1.

    In the basis convention above, qubit ``k`` is index bit ``qubits-1-k``.
    The gate permutes the basis states and is its own inverse.
    """
    if control == target or not (0 <= control < qubits and 0 <= target < qubits):
        raise ValueError(f"cnot needs two distinct qubits of a {qubits}-qubit register, "
                         f"got control {control} and target {target}")
    idx = np.arange(2**qubits)
    flip = (idx >> (qubits - 1 - control)) & 1
    return np.eye(2**qubits, dtype=complex)[idx ^ (flip << (qubits - 1 - target))]


def check_spectrum(w: np.ndarray) -> None:
    """The positivity rule: ascending eigenvalues ``w`` of a density matrix reach
    no lower than ``-PSD_SLACK``."""
    if w[0] < -PSD_SLACK:
        raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")


def clamp_spectrum(w: np.ndarray, scale: float) -> np.ndarray:
    """The clamp rule: ascending eigenvalues ``w`` with negatives and rounding dust zeroed.

    Eigenvalues at most ``DUST_RTOL`` of ``scale`` become zero: negative
    ones, and rounding dust, whose roots would be ~3e-9.  The scale is the
    matrix's largest eigenvalue, or, for a matrix computed from larger
    numbers, whose rounding it carries, theirs.  A negative eigenvalue
    beyond ``PSD_SLACK`` raises a :class:`ClampWarning` carrying the clamped
    magnitude.
    """
    if w[0] < -PSD_SLACK:
        warnings.warn(
            f"clamped negative eigenvalue of magnitude {-w[0]:.3e} to zero",
            ClampWarning,
            stacklevel=3,
        )
    return np.where(w > DUST_RTOL * scale, w, 0.0)


def _check_finite(rho: np.ndarray) -> None:
    """Raise the density-matrix check's error for a NaN or infinite entry."""
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")


def validate_density_matrix(rho, raw: bool = False) -> np.ndarray:
    """Check the invariants of a 3-qubit density matrix and return it as a complex array.

    Finite entries, an 8x8 shape, Hermiticity and unit trace are always
    enforced; positivity (:func:`check_spectrum`) is skipped for ``raw``
    states such as linear-inversion tomography output.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        _check_finite(rho)
        raise ValueError(f"expected a 3-qubit (8x8) density matrix, got shape {rho.shape}")
    # A non-finite entry makes the residual NaN or infinite, which fails the
    # comparison, so finiteness is tested only to name the failure.  Numpy is
    # not to warn of the NaN or overflow met on the way: the check reports it.
    # A finite diagonal can still sum to inf - inf, so the trace is compared
    # the same way, and a NaN trace fails too.
    with np.errstate(invalid="ignore", over="ignore"):
        residual = max_abs(rho - dagger(rho))
        trace = rho.trace()
    if not residual <= TOL:
        _check_finite(rho)
        raise ValueError("density matrix is not Hermitian")
    if not abs(trace - 1.0) <= TOL:
        shown = trace if trace.imag else trace.real  # a complex trace only where it is one
        raise ValueError(f"density matrix trace {shown:.15g} is not 1")
    if not raw:
        check_spectrum(np.linalg.eigvalsh(rho))
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
