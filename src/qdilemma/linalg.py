"""Dense complex linear algebra for few-qubit operators and density matrices.

Everything here works on plain ``numpy`` arrays.  Basis convention: the bit
string ``b0 b1 b2`` (player 1 / qubit 0 leftmost) maps to index
``b0*4 + b1*2 + b2``, so ``|101>`` is index 5.
"""

from __future__ import annotations

import warnings
import weakref

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


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Tensor product ``a ⊗ b ⊗ c`` by numpy's ``kron``, which works over every axis:
    stacks of matrices give the stack of every triple's product, in row-major order
    of the three stack indices, each bit for bit that triple's own product."""
    return np.kron(np.kron(a, b), c)


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


def clamp_spectrum(w, scale: float) -> list[float]:
    """The clamp rule: ascending eigenvalues ``w`` with negatives and rounding dust zeroed.

    Eigenvalues at most ``DUST_RTOL`` of ``scale`` become zero: negative
    ones, and rounding dust, whose roots would be ~3e-9.  The scale is the
    matrix's largest eigenvalue, or, for a matrix computed from larger
    numbers, whose rounding it carries, theirs.  A negative eigenvalue
    beyond ``PSD_SLACK`` raises a :class:`ClampWarning` carrying the clamped
    magnitude.  Any sequence, an array too, comes back as a list of floats.
    """
    if w[0] < -PSD_SLACK:
        warnings.warn(
            f"clamped negative eigenvalue of magnitude {-w[0]:.3e} to zero",
            ClampWarning,
            stacklevel=3,
        )
    dust = float(DUST_RTOL * scale)
    return [value if value > dust else 0.0 for value in map(float, w)]


def _check_finite(rho: np.ndarray) -> None:
    """Raise the density-matrix check's error for a NaN or infinite entry."""
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")


#: The states the package made valid, by ``id``: a weak reference to the array, its bytes,
#: and its eigenpairs if it is physical, else ``None``.  An entry dies with its array.
_RECORD = {}


def record_state(rho: np.ndarray, eigenpairs) -> np.ndarray:
    """Record ``rho``, an 8x8 complex array the package made or checked valid, and return it.

    ``eigenpairs`` is ``None`` for a raw state, and for a physical one its
    weights ``w`` and orthonormal columns ``v``, ``rho = (v * w) @ v†``, which
    :func:`eigenpairs` returns in place of decomposing it; both are made
    read-only.  While ``rho`` is that array, of that shape, dtype and bytes,
    :func:`validate_density_matrix` passes it unchecked: as a raw state, and
    as a physical one if it has eigenpairs.  The record keeps no state
    alive: the entry is deleted when its array dies.
    """
    key = id(rho)

    def forget(ref):
        # only this array's own entry, never a newer array's under the same id
        if _RECORD.get(key, (None,))[0] is ref:
            del _RECORD[key]

    for part in eigenpairs or ():
        part.flags.writeable = False
    _RECORD[key] = (weakref.ref(rho, forget), rho.tobytes(), eigenpairs)
    return rho


def _recorded(rho):
    """The record entry of ``rho`` while it is the recorded array, unchanged, else ``None``."""
    entry = _RECORD.get(id(rho))
    if (entry is not None and entry[0]() is rho
            and rho.shape == (8, 8) and rho.dtype == complex and rho.tobytes() == entry[1]):
        return entry
    return None


def validate_density_matrix(rho, raw: bool = False) -> np.ndarray:
    """Check the invariants of a 3-qubit density matrix and return it as a complex array.

    Finite entries, an 8x8 shape, Hermiticity and unit trace are always
    enforced; positivity (:func:`check_spectrum`) is skipped for ``raw``
    states such as linear-inversion tomography output.  An unchanged state
    recorded by :func:`record_state` is returned at once where it has
    eigenpairs or is asked ``raw``; any other array is checked in full.
    """
    entry = _recorded(rho)
    if entry is not None and (raw or entry[2] is not None):
        return rho
    return _check_density_matrix(rho, raw)


def eigenpairs(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` and orthonormal eigenvectors ``v`` (columns) of a physical state ``sigma``.

    The pairs recorded with an unchanged state, in its maker's order and not
    necessarily all eight; else ``eigh``'s, ascending, after the raw check
    and the positivity rule.
    """
    entry = _recorded(sigma)
    if entry is not None and entry[2] is not None:
        return entry[2]
    w, v = np.linalg.eigh(validate_density_matrix(sigma, raw=True))
    check_spectrum(w)
    return w, v


def _check_density_matrix(rho, raw: bool) -> np.ndarray:
    """The full check of :func:`validate_density_matrix`."""
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
        residual = abs(rho - rho.conj().T).max()
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
    """Projector |bits><bits| as a density matrix, recorded with its one eigenpair ``(1, |bits>)``."""
    psi = basis_state(bits)
    return record_state(np.outer(psi, psi.conj()), eigenpairs=(np.ones(1), psi[:, None]))
