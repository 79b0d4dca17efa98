"""The three-player dilemma game circuit and its payoff accounting.

The umpire entangles ``|000>``, each player applies a local strategy gate to
their own qubit, the umpire disentangles, and the register is measured in the
computational basis.  Outcome bit 1 means "go to the party"; the stakes
``(p, q, n)`` turn the eight outcomes into per-player payoffs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import I2, H, X, kron3

#: Entanglement strength giving maximal correlation.
DEFAULT_GAMMA = np.pi / 2

#: Measurement outcomes as bit strings, index order.
OUTCOMES = tuple(f"{k:03b}" for k in range(8))

#: Negative probabilities above this magnitude are not rounding; :func:`payoff` refuses them.
NEG_PROB_TOL = 1e-12

#: Largest distance of a distribution's sum from 1 that :func:`payoff` accepts.
PROB_SUM_TOL = 1e-10

#: Largest stake magnitude :class:`PayoffTable` accepts: ``4n``, the largest value a
#: closed form takes, and a sum of three payoffs, at most ``3n``, stay far from overflow.
MAX_STAKE = 1e300


#: Each player's move as its 2x2 gate: ``"I"`` stays home, ``"X"`` goes to the
#: party, ``"H"`` goes with half probability.  Profile functions look each letter up
#: directly, so an unknown one raises ``KeyError``; :func:`parse_profile` is the letter rule.
GATES = {"I": I2, "H": H, "X": X}
#: Each letter's place in ``GATES`` and along the axes of ``_STRATEGIES``.
_GATE_INDEX = {letter: k for k, letter in enumerate(GATES)}
#: Columns 0 and 7 of the players' products ``S1 ⊗ S2 ⊗ S3`` of all 27 profiles, one
#: read-only table indexed by the three letters' places: one tensor product of the stacked gates.
_STRATEGIES = kron3(*[np.stack(list(GATES.values()))] * 3).reshape(3, 3, 3, 8, 8)[..., [0, 7]]
_STRATEGIES.flags.writeable = False


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


#: X⊗X⊗X, the operator the entangler mixes with the identity: the reversal of the basis index.
_XXX = np.eye(8, dtype=complex)[::-1]


def entangler(gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Three-qubit entangling gate cos(g/2) I + i sin(g/2) X⊗X⊗X."""
    gamma = check_gamma(gamma)
    return np.cos(gamma / 2) * np.eye(8, dtype=complex) + 1j * np.sin(gamma / 2) * _XXX


@dataclass(frozen=True)
class PayoffTable:
    """Stakes of the game, constrained to 0 < p < q < n, held as Python floats.

    ``p`` rewards a lone (or left-behind) player, ``q`` the overcrowded
    all-go outcome, and ``n`` the win/loss magnitude when exactly two go.
    """

    p: float = 1.0
    q: float = 2.0
    n: float = 9.0

    def __post_init__(self):
        stakes = (self.p, self.q, self.n)
        # abs refuses a non-number; each magnitude is compared as a Python float, so a NaN,
        # an infinity and an int too large for a float are refused, and a numpy scalar is
        # not compared in its own dtype, to which the bound would be cast and overflow
        try:
            bounded = all(float(abs(stake)) <= MAX_STAKE for stake in stakes)
        except OverflowError:
            bounded = False
        if not bounded:
            raise ValueError(
                f"payoffs must be finite and at most {MAX_STAKE}, "
                f"got p={self.p}, q={self.q}, n={self.n}"
            )
        p, q, n = map(float, stakes)
        if not 0.0 < p < q < n:
            raise ValueError(
                f"payoffs must satisfy 0 < p < q < n, got p={self.p}, q={self.q}, n={self.n}"
            )
        for name, value in zip("pqn", (p, q, n)):
            object.__setattr__(self, name, value)

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
        return (self.player1 + self.player2 + self.player3) / 3


def amplitudes(profile, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Columns 0 and 7 of the game unitary ``J† · (S1 ⊗ S2 ⊗ S3) · J``, as an 8x2 array:
    the final states of ``|000>`` and of ``|111>``, which are all the corrupted source feeds.

    ``J = cI + isR`` has two terms, with ``R = X⊗X⊗X`` the reversal of the
    basis index, so ``J†S = cS - isRS`` reverses the rows of ``S`` and
    ``(J†S)J = c(J†S) + is(J†S)R`` swaps columns 0 and 7; no 8x8 product is taken.
    Each entry sums the same two products as the matrix products do, whose
    other terms are zeros; adding 0.0 turns the -0 that H's kron leaves in
    ``S`` at ``s = 0`` into the +0 that a product's sum ends in.
    """
    s1, s2, s3 = profile
    gamma = check_gamma(gamma)
    c, s = np.cos(gamma / 2), np.sin(gamma / 2)
    columns = _STRATEGIES[_GATE_INDEX[s1], _GATE_INDEX[s2], _GATE_INDEX[s3]]
    left = c * columns - 1j * s * columns[::-1]
    return left * c + left[:, ::-1] * (1j * s) + 0.0


def evolve(profile, rho: np.ndarray | None = None, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Final 3-qubit state of the game circuit on ``rho = p0|000><000| + p7|111><111|`` (default
    ``|000>``): the columns of :func:`amplitudes` mixed by ``Re[p0, p7]``, negatives as 0, over their sum,
    recorded with those weights and columns as its eigenpairs."""
    weights = np.array([1.0, 0.0])
    if rho is not None:
        rho = linalg.validate_density_matrix(rho, raw=True).ravel()
        if rho[1:-1].any():
            raise ValueError("evolve's input must be p0|000><000| + p7|111><111|")
        # the spectrum of such a matrix is p0, p7 and six zeros; a negative one it passes is rounding
        linalg.check_spectrum(sorted(rho[[0, -1]].real))
        weights = np.maximum(rho[[0, -1]].real, 0.0)
        weights = weights / weights.sum()
    a = amplitudes(profile, gamma)
    # valid by construction: Hermitian, of unit trace and positive, each to rounding,
    # with eigenvalues the weights and eigenvectors the orthonormal columns of a
    return linalg.record_state((a * weights) @ a.conj().T, eigenpairs=(weights, a))


def outcomes(profile, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Outcome distributions on ``|000>`` and on ``|111>``, as two rows: the squared
    magnitudes of :func:`amplitudes`."""
    a = amplitudes(profile, gamma)
    return (a.real**2 + a.imag**2).T


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
