"""Strategy-class census, closed-form equilibrium payoffs, and parameter sweeps.

The 27 ordered strategy profiles over {I, H, X} cluster into ten classes, one
per unordered multiset.  Class labels are the roman numerals of the reference
experiment table, fixed in :data:`CLASS_MULTISETS`; the tests check that each
class simulates to its reference mean payoff on the pristine input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .game import DEFAULT_GAMMA, PayoffTable, _check_gamma, mean_payoff
from .noise import check_corruption, corrupted_input

#: Census label of each strategy class and its multiset as a sorted letter
#: triple.  Two ties in the reference payoffs are settled by convention: the
#: size-1 all-Hadamard class is I (its size-3 twin is II), and of the pair tied
#: at -1.833 the double-flip multiset is III and the double-identity one is X.
CLASS_MULTISETS = {
    "I": ("H", "H", "H"),
    "II": ("H", "H", "X"),
    "III": ("H", "X", "X"),
    "IV": ("X", "X", "X"),
    "V": ("I", "I", "I"),
    "VI": ("I", "I", "X"),
    "VII": ("I", "X", "X"),
    "VIII": ("H", "I", "X"),
    "IX": ("H", "H", "I"),
    "X": ("H", "I", "I"),
}

CLASS_LABELS = tuple(CLASS_MULTISETS)

#: Reference per-class mean payoffs on a pristine source with the default
#: (p, q, n) = (1, 2, 9) stakes, quoted to the precision of the source table.
REFERENCE_CLASS_MEANS = {
    "I": -3.75,
    "II": -3.75,
    "III": -1.833,
    "IV": 2.0,
    "V": 0.0,
    "VI": -5.67,
    "VII": 6.33,
    "VIII": 6.33,
    "IX": 4.75,
    "X": -1.833,
}

#: Absolute tolerance separating "tie" from a strict payoff advantage.
TIE_TOL = 1e-12

QUANTUM = "quantum"
CLASSICAL = "classical"
TIE = "tie"


@dataclass(frozen=True)
class StrategyClass:
    """One census class: a strategy multiset and all of its orderings."""

    label: str
    multiset: tuple[str, str, str]
    configurations: tuple[tuple[str, str, str], ...]

    @property
    def size(self) -> int:
        return len(self.configurations)


def simulated_class_mean(multiset, table: PayoffTable, x: float = 0.0,
                         gamma: float = DEFAULT_GAMMA) -> float:
    """Mean payoff of a class, simulated on the corrupted input.

    Any ordering of the multiset gives the same mean, so the sorted triple
    itself serves as the representative profile.
    """
    return mean_payoff(multiset, table, corrupted_input(x), gamma)


def label_classes():
    """Map every strategy multiset to its census label."""
    return {multiset: label for label, multiset in CLASS_MULTISETS.items()}


def enumerate_classes():
    """The ten strategy classes partitioning all 27 ordered profiles, labeled I..X."""
    return [
        StrategyClass(label=label, multiset=multiset,
                      configurations=tuple(sorted(set(permutations(multiset)))))
        for label, multiset in CLASS_MULTISETS.items()
    ]


def _scaled_stakes(p, q, n):
    """``p, q, n`` times ``2**-e``, with ``e`` the binary exponent of ``n``, and ``e``.

    The stakes are floats or float arrays alike, not ints (``np.ldexp`` of a
    Python int may return a half-precision float).  The scaled ``n`` lies in
    [1/2, 1), so ``4n`` cannot overflow.  Scaling by a power of two is exact
    unless a stake drops below the normal float range (``n/p > 2**1021``), so
    the closed forms below give their unscaled expressions' results bit for
    bit wherever those are finite.
    """
    e = np.frexp(n)[1]
    return np.ldexp(p, -e), np.ldexp(q, -e), np.ldexp(n, -e), e


# The closed forms over float stakes and corruption, scalars or arrays alike:
# the public functions below and the columnar ``sweep`` share them.

def _quantum_ne(p, q, n, x):
    p, _, n, e = _scaled_stakes(p, q, n)
    return np.ldexp((-4.0 * n * x + 2.0 * n + p) / 3.0, e)


def _classical_ne(q, x):
    return q * (1.0 - x)


def _crossing(p, q, n):
    """Numerator and value of the crossing level; the value is a level only
    where the numerator is positive."""
    p, q, n, _ = _scaled_stakes(p, q, n)
    numerator = 2.0 * n + p - 3.0 * q
    return numerator, numerator / (4.0 * n - 3.0 * q)


def quantum_ne_payoff(table: PayoffTable, x: float) -> float:
    """Per-player mean payoff of the mixed-strategy (quantum) equilibrium class."""
    check_corruption(x)
    return float(_quantum_ne(float(table.p), float(table.q), float(table.n), x))


def classical_ne_payoff(table: PayoffTable, x: float) -> float:
    """Per-player payoff of the all-flip (classical) equilibrium: q(1-x)."""
    check_corruption(x)
    return _classical_ne(table.q, x)


def critical_corruption(table: PayoffTable) -> float | None:
    """Corruption level where the two equilibrium payoff lines cross.

    Returns ``None`` when the quantum side never leads (non-positive
    numerator), a distinguished no-advantage outcome rather than a level.
    """
    numerator, x_c = _crossing(float(table.p), float(table.q), float(table.n))
    return float(x_c) if numerator > 0.0 else None


@dataclass(frozen=True)
class EquilibriumReport:
    """Both equilibrium payoffs at one corruption level and which side leads."""

    x: float
    quantum_ne_mean: float
    classical_ne_mean: float
    dominant: str

    def __post_init__(self):
        if self.dominant not in (QUANTUM, CLASSICAL, TIE):
            raise ValueError(f"unknown dominance verdict {self.dominant!r}")


def dominance(table: PayoffTable, x: float) -> EquilibriumReport:
    """Compare the two equilibrium payoffs at corruption ``x``."""
    qu = quantum_ne_payoff(table, x)
    cl = classical_ne_payoff(table, x)
    if qu > cl + TIE_TOL:
        verdict = QUANTUM
    elif cl > qu + TIE_TOL:
        verdict = CLASSICAL
    else:
        verdict = TIE
    return EquilibriumReport(x=x, quantum_ne_mean=qu, classical_ne_mean=cl, dominant=verdict)


SWEEPABLE = ("x", "n", "q")

#: Keys of a sweep row, in order.
SWEEP_COLUMNS = ("swept", "value", "p", "q", "n", "x", "quantum_ne_mean", "classical_ne_mean",
                 "x_c", "simulated_quantum_mean", "simulated_classical_mean", "valid", "error")


def sweep(table: PayoffTable, swept: str, grid, x: float = 0.0,
          gamma: float = DEFAULT_GAMMA) -> list[dict]:
    """Evaluate both equilibria and the crossing point over a parameter grid.

    ``swept`` is one of ``"x"``, ``"n"``, ``"q"``; the other parameters are
    held at ``table`` and ``x``.  Returns one flat dict per grid point, in
    grid order, with the keys :data:`SWEEP_COLUMNS`: ``value`` is the swept
    parameter's value and ``p, q, n, x`` echo the full effective parameter
    set.  Grid points whose stakes violate 0 < p < q < n, or whose corruption
    lies outside [0, 1], are kept with ``valid`` false and the message of
    :class:`~qdilemma.game.PayoffTable` or
    :func:`~qdilemma.noise.check_corruption` as ``error`` instead of numbers.

    The closed forms are evaluated as arrays over the whole grid, giving the
    per-point scalar functions' results bit for bit.  For a corruption sweep
    each row also carries simulated cross-checks: the mean payoff of a
    mixed-class profile and of the all-flip profile on the corrupted input.
    The circuit and the payoff are linear in the input
    ``(1-x)|000><000| + x|111><111|``, so both are simulated once at ``x = 0``
    and ``x = 1`` and interpolated along the grid.

    Raises on an out-of-range gamma or an empty grid.
    """
    if swept not in SWEEPABLE:
        raise ValueError(f"swept parameter must be one of {SWEEPABLE}, got {swept!r}")
    _check_gamma(gamma)
    values = np.asarray(grid, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"sweep grid must be one-dimensional, got shape {values.shape}")
    m = values.size
    if not m:
        raise ValueError("empty sweep grid")
    held = {"p": table.p, "q": table.q, "n": table.n, "x": x}
    echo = {key: [value] * m for key, value in held.items()}
    echo[swept] = values.tolist()
    arrays = {key: np.full(m, value, dtype=float) for key, value in held.items()}
    arrays[swept] = values
    p, q, n, xs = arrays["p"], arrays["q"], arrays["n"], arrays["x"]

    if swept == "x":
        mixed0, mixed1 = (simulated_class_mean(("H", "I", "X"), table, end, gamma)
                          for end in (0.0, 1.0))
        flip0, flip1 = (simulated_class_mean(("X", "X", "X"), table, end, gamma)
                        for end in (0.0, 1.0))

    # invalid points may hold any numbers here; they are replaced below
    with np.errstate(all="ignore"):
        valid = (0.0 < p) & (p < q) & (q < n) & np.isfinite(n) & (0.0 <= xs) & (xs <= 1.0)
        quantum = _quantum_ne(p, q, n, xs).tolist()
        classical = _classical_ne(q, xs).tolist()
        numerator, x_c = _crossing(p, q, n)
        x_c = x_c.tolist()
        if swept == "x":
            sim_quantum = ((1.0 - xs) * mixed0 + xs * mixed1).tolist()
            sim_classical = ((1.0 - xs) * flip0 + xs * flip1).tolist()
        else:
            sim_quantum, sim_classical = [None] * m, [None] * m

    for k in np.flatnonzero(valid & (numerator <= 0.0)).tolist():
        x_c[k] = None
    errors = [None] * m
    for k in np.flatnonzero(~valid).tolist():
        quantum[k] = classical[k] = x_c[k] = sim_quantum[k] = sim_classical[k] = None
        # the per-point constructors give the exact message
        try:
            PayoffTable(echo["p"][k], echo["q"][k], echo["n"][k])
            check_corruption(echo["x"][k])
        except ValueError as exc:
            errors[k] = str(exc)

    columns = ([swept] * m, echo[swept], echo["p"], echo["q"], echo["n"], echo["x"], quantum,
               classical, x_c, sim_quantum, sim_classical, valid.tolist(), errors)
    return [dict(zip(SWEEP_COLUMNS, row)) for row in zip(*columns)]
