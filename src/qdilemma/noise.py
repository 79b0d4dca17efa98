"""Corrupt-source model: the umpire hands out |111> with probability x.

The mixed input ``(1-x)|000><000| + x|111><111|`` is available both directly
and through the ancilla circuit a real device would use: rotate an ancilla by
``theta`` with ``x = sin^2(theta/2)``, fan out CNOTs onto the three game
qubits, and trace the ancilla out.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .game import check_corruption


def corrupted_input(x: float) -> np.ndarray:
    """Mixed 3-qubit input: |000> with probability 1-x, |111> with probability x."""
    x = check_corruption(x)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0 - x
    rho[7, 7] = x
    return rho


def theta_for_x(x: float) -> float:
    """Ancilla rotation angle in [0, pi] with x = sin^2(theta/2)."""
    x = check_corruption(x)
    return 2.0 * np.arcsin(np.sqrt(x))


def ancilla_prepare(x: float) -> np.ndarray:
    """Corrupted input built the hardware way, equal to ``corrupted_input(x)``.

    The 4-qubit register (ancilla last) starts as ``|000>`` times the rotated
    ancilla ``Ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>``, and a CNOT
    from the ancilla onto each game qubit copies it; the register stays a pure
    statevector until the ancilla is traced out, so the equivalence is exact
    to rounding.
    """
    half = theta_for_x(x) / 2
    psi = np.kron(linalg.basis_state("000"), [np.cos(half), np.sin(half)])
    for qubit in range(3):
        psi = linalg.cnot(3, qubit, 4) @ psi
    return np.outer(psi, psi.conj()).reshape(8, 2, 8, 2).trace(axis1=1, axis2=3)
