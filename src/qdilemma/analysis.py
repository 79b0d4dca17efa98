"""Strategy-class census, closed-form equilibrium payoffs, and parameter sweeps.

The 27 ordered strategy profiles over {I, H, X} cluster into ten classes, one
per unordered multiset.  Class labels are the roman numerals of the reference
experiment table, fixed in :data:`CLASS_MULTISETS`; the tests check that each
class simulates to its reference mean payoff on the pristine input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

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


def _scaled_stakes(table: PayoffTable):
    """``p, q, n`` times ``2**-e``, with ``e`` the binary exponent of ``n``, and ``e``.

    The scaled ``n`` lies in [1/2, 1), so ``4n`` cannot overflow.  Scaling by a
    power of two is exact unless a stake drops below the normal float range
    (``n/p > 2**1021``), so the closed forms below give their unscaled
    expressions' results bit for bit wherever those are finite.
    """
    e = math.frexp(table.n)[1]
    return math.ldexp(table.p, -e), math.ldexp(table.q, -e), math.ldexp(table.n, -e), e


def quantum_ne_payoff(table: PayoffTable, x: float) -> float:
    """Per-player mean payoff of the mixed-strategy (quantum) equilibrium class."""
    check_corruption(x)
    p, _, n, e = _scaled_stakes(table)
    return math.ldexp((-4.0 * n * x + 2.0 * n + p) / 3.0, e)


def classical_ne_payoff(table: PayoffTable, x: float) -> float:
    """Per-player payoff of the all-flip (classical) equilibrium: q(1-x)."""
    check_corruption(x)
    return table.q * (1.0 - x)


def critical_corruption(table: PayoffTable) -> float | None:
    """Corruption level where the two equilibrium payoff lines cross.

    Returns ``None`` when the quantum side never leads (non-positive
    numerator), a distinguished no-advantage outcome rather than a level.
    """
    p, q, n, _ = _scaled_stakes(table)
    numerator = 2.0 * n + p - 3.0 * q
    if numerator <= 0.0:
        return None
    return numerator / (4.0 * n - 3.0 * q)


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


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a parameter sweep.

    ``value`` is the swept parameter's value; ``p, q, n, x`` echo the full
    effective parameter set.  Grid points whose stakes violate 0 < p < q < n
    are kept with ``valid=False`` and an error message instead of numbers.
    """

    swept: str
    value: float
    p: float
    q: float
    n: float
    x: float
    quantum_ne_mean: float | None = None
    classical_ne_mean: float | None = None
    x_c: float | None = None
    simulated_quantum_mean: float | None = None
    simulated_classical_mean: float | None = None
    valid: bool = True
    error: str | None = None


SWEEPABLE = ("x", "n", "q")


def sweep(table: PayoffTable, swept: str, grid, x: float = 0.0,
          gamma: float = DEFAULT_GAMMA):
    """Evaluate both equilibria and the crossing point over a parameter grid.

    ``swept`` is one of ``"x"``, ``"n"``, ``"q"``; the other parameters are
    held at ``table`` and ``x``.  Records come back in grid order (the points
    are independent, so evaluation order does not matter).  For a corruption
    sweep each record also carries simulated cross-checks: the mean payoff of
    a mixed-class profile and of the all-flip profile on the corrupted input.
    The circuit and the payoff are linear in the input
    ``(1-x)|000><000| + x|111><111|``, so both are simulated once at ``x = 0``
    and ``x = 1`` and interpolated along the grid.

    Raises on an out-of-range gamma or an empty grid; per-point constraint
    violations are flagged on the record, not dropped.
    """
    if swept not in SWEEPABLE:
        raise ValueError(f"swept parameter must be one of {SWEEPABLE}, got {swept!r}")
    _check_gamma(gamma)
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("empty sweep grid")
    if swept == "x":
        mixed0, mixed1 = (simulated_class_mean(("H", "I", "X"), table, end, gamma)
                          for end in (0.0, 1.0))
        flip0, flip1 = (simulated_class_mean(("X", "X", "X"), table, end, gamma)
                        for end in (0.0, 1.0))

    records = []
    for v in grid:
        pp, qq, nn, xx = table.p, table.q, table.n, x
        if swept == "x":
            xx = v
        elif swept == "n":
            nn = v
        else:
            qq = v
        try:
            point = PayoffTable(pp, qq, nn)
            check_corruption(xx)
        except ValueError as exc:
            records.append(
                SweepRecord(swept=swept, value=v, p=pp, q=qq, n=nn, x=xx,
                            valid=False, error=str(exc))
            )
            continue
        sim_quantum = sim_classical = None
        if swept == "x":
            sim_quantum = (1.0 - xx) * mixed0 + xx * mixed1
            sim_classical = (1.0 - xx) * flip0 + xx * flip1
        records.append(
            SweepRecord(
                swept=swept,
                value=v,
                p=pp,
                q=qq,
                n=nn,
                x=xx,
                quantum_ne_mean=quantum_ne_payoff(point, xx),
                classical_ne_mean=classical_ne_payoff(point, xx),
                x_c=critical_corruption(point),
                simulated_quantum_mean=sim_quantum,
                simulated_classical_mean=sim_classical,
            )
        )
    return records
