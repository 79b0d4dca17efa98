"""The three-player dilemma game circuit and its payoff accounting.

The umpire entangles ``|000>``, each player applies a local strategy gate to
their own qubit, the umpire disentangles, and the register is measured in the
computational basis.  Outcome bit 1 means "go to the party"; the stakes
``(p, q, n)`` turn the eight outcomes into per-player payoffs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import I2, H, X, dagger, kron3

#: Entanglement strength giving maximal correlation.
DEFAULT_GAMMA = np.pi / 2

#: Measurement outcomes as bit strings, index order.
OUTCOMES = tuple(f"{k:03b}" for k in range(8))

#: Negative probabilities above this magnitude are not rounding; :func:`payoff` refuses them.
NEG_PROB_TOL = 1e-12

#: Largest distance of a distribution's sum from 1 that :func:`payoff` accepts.
PROB_SUM_TOL = 1e-10


#: Each player's move as its 2x2 gate: ``"I"`` stays home, ``"X"`` goes to the
#: party, ``"H"`` goes with half probability.  Profile functions index it directly,
#: so an unknown letter raises ``KeyError``; :func:`parse_profile` is the letter rule.
GATES = {"I": I2, "H": H, "X": X}


def parse_profile(text: str) -> tuple[str, str, str]:
    """Parse a profile string like ``"XIX"`` into upper-case letters; the leftmost is player 1."""
    # ASCII text only: the dotless "ı" upper-cases to "I", and a tuple has no letters to parse
    letters = text.upper() if isinstance(text, str) and text.isascii() else ""
    if len(letters) != 3 or any(c not in GATES for c in letters):
        raise ValueError(f"profile must be three letters from I/H/X, got {text!r}")
    return tuple(letters)


def rx(angle: float) -> np.ndarray:
    """X-axis rotation, phased so that rx(-pi/2)|0> = (|0> + i|1>)/sqrt(2)."""
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * X


def check_gamma(gamma: float) -> float:
    """Validate an entanglement strength and return it as a float."""
    gamma = float(gamma)
    if not 0.0 <= gamma <= np.pi / 2:
        raise ValueError(f"gamma must lie in [0, pi/2], got {gamma}")
    return gamma


def check_corruption(x: float) -> float:
    """Validate a corruption probability and return it as a float."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"corruption must lie in [0, 1], got {x}")
    return x


#: X⊗X⊗X, the operator the entangler mixes with the identity.
_XXX = kron3(X, X, X)


def entangler(gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Three-qubit entangling gate cos(g/2) I + i sin(g/2) X⊗X⊗X."""
    check_gamma(gamma)
    return np.cos(gamma / 2) * np.eye(8, dtype=complex) + 1j * np.sin(gamma / 2) * _XXX


@dataclass(frozen=True)
class PayoffTable:
    """Stakes of the game, constrained to 0 < p < q < n.

    ``p`` rewards a lone (or left-behind) player, ``q`` the overcrowded
    all-go outcome, and ``n`` the win/loss magnitude when exactly two go.
    """

    p: float = 1.0
    q: float = 2.0
    n: float = 9.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q) and math.isfinite(self.n)):
            raise ValueError(
                f"payoffs must be finite, got p={self.p}, q={self.q}, n={self.n}"
            )
        if not 0.0 < self.p < self.q < self.n:
            raise ValueError(
                f"payoffs must satisfy 0 < p < q < n, got p={self.p}, q={self.q}, n={self.n}"
            )

    def outcome_payoffs(self) -> np.ndarray:
        """8x3 array of per-player payoffs, one row per outcome 000..111."""
        p, q, n = self.p, self.q, self.n
        return np.array(
            [
                [0, 0, 0],  # 000
                [-n, -n, p],  # 001
                [-n, p, -n],  # 010
                [p, n, n],  # 011
                [p, -n, -n],  # 100
                [n, p, n],  # 101
                [n, n, p],  # 110
                [q, q, q],  # 111
            ],
            dtype=float,
        )


@dataclass(frozen=True)
class PayoffVector:
    """Expected payoff per player; ``mean`` is their arithmetic average."""

    player1: float
    player2: float
    player3: float

    @property
    def mean(self) -> float:
        # Summed at 2**-e so that three payoffs near the float maximum cannot
        # overflow.  e is 0 below 2**1022, and scaling by a power of two is
        # exact in the normal range, so every finite unscaled mean is kept.
        largest = max(abs(self.player1), abs(self.player2), abs(self.player3))
        e = max(0, math.frexp(largest)[1] - 1022)
        total = (math.ldexp(self.player1, -e) + math.ldexp(self.player2, -e)
                 + math.ldexp(self.player3, -e))
        return math.ldexp(total / 3, e)


@functools.cache
def _strategy_product(s1: str, s2: str, s3: str) -> np.ndarray:
    """The players' kron product ``S1 ⊗ S2 ⊗ S3``, built once per profile and read-only."""
    strategies = kron3(GATES[s1], GATES[s2], GATES[s3])
    strategies.flags.writeable = False
    return strategies


def circuit_unitary(profile, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Full game unitary: J† · (S1 ⊗ S2 ⊗ S3) · J, with J the entangler.

    ``J = cI + isR`` has two terms, with ``R = X⊗X⊗X`` the reversal of the
    basis index, so ``J†S = cS - isRS`` reverses the rows of ``S`` and
    ``(J†S)J = c(J†S) + is(J†S)R`` its columns; no 8x8 product is taken.
    Each entry sums the same two products as the matrix products do, whose
    other terms are zeros; adding 0.0 turns the -0 that H's kron leaves in
    ``S`` at ``s = 0`` into the +0 that a product's sum ends in.  ``S`` is
    built once per profile and shared, read-only, by later calls.
    """
    s1, s2, s3 = profile
    gamma = check_gamma(gamma)
    c, s = np.cos(gamma / 2), np.sin(gamma / 2)
    strategies = _strategy_product(s1, s2, s3)
    left = c * strategies - 1j * s * strategies[::-1]
    return left * c + left[:, ::-1] * (1j * s) + 0.0


def evolve(profile, rho: np.ndarray | None = None, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Final 3-qubit state of the game circuit on ``rho`` (default pristine ``|000>``)."""
    if rho is None:
        rho = linalg.basis_density("000")
    else:
        rho = linalg.validate_density_matrix(rho)
    u = circuit_unitary(profile, gamma)
    return u @ rho @ dagger(u)


def outcomes(profile, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Outcome distributions on ``|000>`` and on ``|111>``, as two rows: the squared
    magnitudes of the circuit unitary's columns 0 and 7."""
    u = circuit_unitary(profile, gamma)[:, [0, 7]]
    return (u.real**2 + u.imag**2).T


def play(profile, x: float = 0.0, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Outcome distribution of the game on the corrupted input: eight
    computational-basis probabilities, ``1-x`` of the ``|000>`` row of
    :func:`outcomes` plus ``x`` of its ``|111>`` row, renormalized."""
    x = check_corruption(x)
    start, flipped = outcomes(profile, gamma)
    probs = (1.0 - x) * start + x * flipped
    return probs / probs.sum()


def payoff(probs: np.ndarray, table: PayoffTable) -> PayoffVector:
    """Expected per-player payoffs of an outcome distribution."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (8,):
        raise ValueError(f"expected 8 outcome probabilities, got shape {probs.shape}")
    # written so that a NaN, for which every comparison is false, is refused too
    if not (probs.min() >= -NEG_PROB_TOL and abs(probs.sum() - 1.0) <= PROB_SUM_TOL):
        raise ValueError("not a probability distribution")
    p1, p2, p3 = probs @ table.outcome_payoffs()
    return PayoffVector(float(p1), float(p2), float(p3))


def decompose_entangler():
    """Five-gate hardware realization of the maximal entangler, in application order.

    One middle-qubit rotation and four CNOTs, each a ``(name, matrix)`` pair
    with the full 8x8 matrix it applies; their ordered product equals
    ``entangler(pi/2)`` up to a global phase.
    """
    cnot_1_0 = linalg.cnot(1, 0, 3)
    cnot_1_2 = linalg.cnot(1, 2, 3)
    rot = kron3(I2, rx(-np.pi / 2), I2)
    return [
        ("cnot q1->q0", cnot_1_0),
        ("cnot q1->q2", cnot_1_2),
        ("rx(-pi/2) q1", rot),
        ("cnot q1->q0", cnot_1_0),
        ("cnot q1->q2", cnot_1_2),
    ]
