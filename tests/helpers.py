"""Shared random-state builders for the test suite."""

import os

import numpy as np

import qdilemma


def subprocess_env():
    """Environment for a child interpreter that imports this ``qdilemma``."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qdilemma.__file__)))


def crandn(shape, rng):
    """Standard complex normal samples."""
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def random_pure_density(rng, qubits=3):
    psi = crandn(2**qubits, rng)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_mixed_density(rng, qubits=3):
    d = 2**qubits
    a = crandn((d, d), rng)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_payoff_table(rng, high=100.0):
    """Random stakes with 0 < p < q < n, values in (0, high)."""
    from qdilemma import PayoffTable

    while True:
        p, q, n = np.sort(rng.uniform(0.0, high, size=3))
        if 0.0 < p < q < n:
            return PayoffTable(float(p), float(q), float(n))


def oracle_partial_trace_last(rho):
    """Direct index-summation partial trace over the last qubit."""
    d = rho.shape[0] // 2
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for a in range(2):
                out[i, j] += rho[2 * i + a, 2 * j + a]
    return out


def ordered_product(steps):
    """Product of ``(name, matrix)`` gate steps, the first step acting first."""
    out = np.eye(8, dtype=complex)
    for _, matrix in steps:
        out = matrix @ out
    return out


def oracle_game_probs(letters, rho, gamma):
    """Brute-force outcome distribution built from scratch with numpy only."""
    gates = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    }
    s = np.kron(np.kron(gates[letters[0]], gates[letters[1]]), gates[letters[2]])
    x3 = np.kron(np.kron(gates["X"], gates["X"]), gates["X"])
    j = np.cos(gamma / 2) * np.eye(8, dtype=complex) + 1j * np.sin(gamma / 2) * x3
    u = j.conj().T @ s @ j
    return np.diag(u @ rho @ u.conj().T).real
