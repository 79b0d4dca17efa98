"""Strategy-class census, closed-form equilibrium payoffs, and parameter sweeps.

The 27 ordered strategy profiles over {I, H, X} cluster into ten classes, one
per unordered multiset.  Class labels are the roman numerals of the reference
experiment table, fixed in :data:`CLASS_MULTISETS`; the tests check that each
class simulates to its reference mean payoff on the pristine input.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .game import DEFAULT_GAMMA, PayoffTable, check_corruption, check_gamma, outcomes, payoff, play

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

#: Tolerance, relative to the larger payoff, separating "tie" from a strict advantage.
TIE_TOL = 1e-12


def class_size(multiset) -> int:
    """Number of ordered profiles in a class: the distinct orderings of its multiset."""
    return len(set(permutations(multiset)))


def simulated_class_mean(multiset, table: PayoffTable, x: float = 0.0,
                         gamma: float = DEFAULT_GAMMA) -> float:
    """Mean payoff of a class, simulated on the corrupted input.

    Any ordering of the multiset gives the same mean, so the sorted triple
    itself serves as the representative profile.
    """
    return payoff(play(multiset, x, gamma), table).mean


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
    where the numerator is positive, and capped at 1/2, which rounding can pass."""
    p, q, n, _ = _scaled_stakes(p, q, n)
    numerator = 2.0 * n + p - 3.0 * q
    return numerator, np.minimum(numerator / (4.0 * n - 3.0 * q), 0.5)


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


def dominance(table: PayoffTable, x: float) -> dict:
    """Compare the two equilibrium payoffs at corruption ``x``.

    Returns ``{"x", "quantum_ne_mean", "classical_ne_mean", "dominant"}`` in
    that key order; ``dominant`` is ``"quantum"``, ``"classical"`` or ``"tie"``.
    """
    qu = quantum_ne_payoff(table, x)
    cl = classical_ne_payoff(table, x)
    if abs(qu - cl) <= TIE_TOL * max(abs(qu), abs(cl)):
        verdict = "tie"
    else:
        verdict = "quantum" if qu > cl else "classical"
    return {"x": x, "quantum_ne_mean": qu, "classical_ne_mean": cl, "dominant": verdict}


SWEEPABLE = ("x", "n", "q")

#: Columns of a sweep, in order.
SWEEP_COLUMNS = ("swept", "value", "p", "q", "n", "x", "quantum_ne_mean", "classical_ne_mean",
                 "x_c", "simulated_quantum_mean", "simulated_classical_mean", "valid", "error")


def _cells(values, void):
    """A closed form's ``values`` as Python floats, ``None`` at the grid points in
    ``void``: one float if held and none is void, ``None`` if all are, else a list."""
    if not (np.ndim(values) or void.any()):
        return float(values)
    column = np.broadcast_to(values, void.shape).tolist()
    for k in np.flatnonzero(void).tolist():
        column[k] = None
    return None if void.all() else column


def sweep(table: PayoffTable, swept: str, grid, x: float = 0.0,
          gamma: float = DEFAULT_GAMMA) -> dict:
    """Evaluate both equilibria and the crossing point over a parameter grid.

    ``swept`` is one of ``"x"``, ``"n"``, ``"q"``; the other parameters are
    held at ``table`` and ``x``, and the swept one's field of ``table`` (or
    ``x``) is not read, so it need only make ``table`` valid.  Returns a
    column table, a dict keyed by :data:`SWEEP_COLUMNS` in that order.  A
    column whose cells differ along the grid is a list of one cell per grid
    point, in grid order; a column held over the grid is its one cell:
    ``swept``, the held parameters, and what depends on them alone, such as
    ``x_c`` of a corruption sweep (``None`` when there is no level) and the
    simulated columns of a stake sweep (``None``).  Callers that want lists
    broadcast ``[cell] * len(columns["value"])``.  ``value`` is the swept
    parameter's column itself, ``p, q, n, x`` echo the full effective
    parameter set, and ``simulated_classical_mean`` of a corruption sweep is
    ``classical_ne_mean`` itself when the two are equal bit for bit, as at the
    default stakes.  ``valid`` is ``True`` and ``error`` ``None`` unless a grid
    point's stakes violate 0 < p < q < n or its corruption lies outside
    [0, 1].  Such a point is kept: ``valid`` and ``error`` become lists, false
    and the message of :class:`~qdilemma.game.PayoffTable` or
    :func:`~qdilemma.game.check_corruption` there, and so does each numeric
    column, ``None`` there (a column with no number at any point is ``None``).

    The closed forms are evaluated as arrays over the whole grid, giving the
    per-point scalar functions' results bit for bit.  For a corruption sweep
    each point also carries simulated cross-checks: the mean payoff of a
    mixed-class profile and of the all-flip profile on the corrupted input.
    The payoff is linear in the input ``(1-x)|000><000| + x|111><111|``, so
    each mean is taken at ``x = 0`` and ``x = 1`` from the two rows of one
    :func:`~qdilemma.game.outcomes` call and interpolated along the grid.

    Raises on an out-of-range gamma or an empty grid.
    """
    if swept not in SWEEPABLE:
        raise ValueError(f"swept parameter must be one of {SWEEPABLE}, got {swept!r}")
    check_gamma(gamma)
    values = np.asarray(grid, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"sweep grid must be one-dimensional, got shape {values.shape}")
    if not values.size:
        raise ValueError("empty sweep grid")
    held = {"p": table.p, "q": table.q, "n": table.n, "x": x}
    # the held parameters stay scalars, so what depends on them alone is one value
    p, q, n, xs = (values if key == swept else float(value) for key, value in held.items())

    if swept == "x":
        (mixed0, mixed1), (flip0, flip1) = (
            [payoff(row / row.sum(), table).mean for row in outcomes(profile, gamma)]
            for profile in (("H", "I", "X"), ("X", "X", "X")))

    # invalid points may hold any numbers here; they are voided below
    with np.errstate(all="ignore"):
        void = ~((0.0 < p) & (p < q) & (q < n) & np.isfinite(n) & (0.0 <= xs) & (xs <= 1.0))
        quantum = _cells(_quantum_ne(p, q, n, xs), void)
        classical_values = _classical_ne(q, xs)
        classical = _cells(classical_values, void)
        numerator, x_c = _crossing(p, q, n)
        x_c = _cells(x_c, void | (numerator <= 0.0))
        sim_quantum = sim_classical = None
        if swept == "x":
            sim_quantum = _cells((1.0 - xs) * mixed0 + xs * mixed1, void)
            flip = (1.0 - xs) * flip0 + xs * flip1
            # one list for both classical columns when they are equal bit for bit
            same = flip.tobytes() == classical_values.tobytes()
            sim_classical = classical if same else _cells(flip, void)

    columns = dict(zip(SWEEP_COLUMNS, (swept, values.tolist(), *held.values(), quantum,
                                       classical, x_c, sim_quantum, sim_classical, True, None)))
    columns[swept] = columns["value"]
    invalid = np.flatnonzero(void).tolist()
    if invalid:
        columns.update(valid=(~void).tolist(), error=[None] * values.size)
    for k in invalid:
        # the per-point constructors give the exact message
        point = {**held, swept: columns["value"][k]}
        try:
            PayoffTable(point["p"], point["q"], point["n"])
            check_corruption(point["x"])
        except ValueError as exc:
            columns["error"][k] = str(exc)
    return columns
