"""Shared random-state builders for the test suite."""

import decimal
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


def global_phase_distance(a, b):
    """Max-norm distance between ``a`` and ``c*b`` for the aligning unit phase ``c``.

    ``c`` is the entry ratio at the largest-magnitude entry of ``b``,
    normalized to unit modulus.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    k = int(np.argmax(np.abs(b)))
    c = a.flat[k] / b.flat[k]
    c = c / abs(c) if abs(c) > 0 else 1.0
    return float(np.abs(a - c * b).max())


def oracle_circuit(letters, gamma):
    """Game unitary J† S J built from scratch with numpy only."""
    gates = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    }
    s = np.kron(np.kron(gates[letters[0]], gates[letters[1]]), gates[letters[2]])
    x3 = np.kron(np.kron(gates["X"], gates["X"]), gates["X"])
    j = np.cos(gamma / 2) * np.eye(8, dtype=complex) + 1j * np.sin(gamma / 2) * x3
    return j.conj().T @ s @ j


def oracle_game_probs(letters, rho, gamma):
    """Brute-force outcome distribution built from scratch with numpy only."""
    u = oracle_circuit(letters, gamma)
    return np.diag(u @ rho @ u.conj().T).real


def oracle_game_factor(letters, x, gamma):
    """The 8x2 factor ``a`` of the game state ``a a†`` on the corrupted input.

    Its columns are the circuit's columns 0 and 7, weighted by the roots of
    the input's probabilities 1-x and x.
    """
    return oracle_circuit(letters, gamma)[:, [0, 7]] * np.sqrt([1.0 - x, x])


def oracle_game_target_roots(a, letters, x, gamma):
    """Roots of the nonzero eigenvalues of sqrt(target) rho sqrt(target), largest first.

    ``rho = a a†`` and the target is the game state of ``letters`` at
    corruption ``x``, ``u u†`` for ``u = oracle_game_factor(letters, x, gamma)``.
    With ``c`` the two circuit columns, ``sqrt(target) = u c†``, and ``c†``
    keeps singular values, so the roots are the two singular values of
    ``k = a† u``, whose sum is the fidelity.  The larger eigenvalue of the
    2x2 matrix ``k†k = [[p, b], [b*, q]]`` is ``(p + q)/2 + hypot((p - q)/2, |b|)``,
    and the smaller one is ``det(k†k)`` over it, where by Cauchy-Binet
    ``det(k†k)`` is the sum of the squared 2x2 minors of ``k``.  So no step
    takes the root of a difference, and no eigendecomposition is used.
    """
    k = a.conj().T @ oracle_game_factor(letters, x, gamma)
    p, q = np.sum(np.abs(k) ** 2, axis=0)
    b = abs(np.vdot(k[:, 0], k[:, 1]))
    minors = k[:, None, 0] * k[None, :, 1] - k[:, None, 1] * k[None, :, 0]
    product = np.sqrt(np.sum(np.abs(np.triu(minors, 1)) ** 2))
    largest = np.sqrt((p + q) / 2 + np.hypot((p - q) / 2, b))
    return float(largest), float(product / largest) if largest else 0.0


def oracle_block_spectrum(block):
    """Eigenvalues of the Hermitian part of a 2x2 block, ascending, each rounded once.

    The parts of the Hermitian part's entries are floats, so exact as
    decimals; the roots ``m ± sqrt(((a - c)/2)² + |b|²)`` of its
    characteristic polynomial are taken at 60 significant digits.
    """
    h = (block + block.conj().T) / 2
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, c, b_re, b_im = (decimal.Decimal(float(v)) for v in
                            (h[0, 0].real, h[1, 1].real, h[0, 1].real, h[0, 1].imag))
        mean = (a + c) / 2
        radius = (((a - c) / 2) ** 2 + b_re**2 + b_im**2).sqrt()
        return np.array([float(mean - radius), float(mean + radius)])
