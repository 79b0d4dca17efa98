import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilemma.analysis import (
    CLASS_LABELS,
    CLASS_MULTISETS,
    REFERENCE_CLASS_MEANS,
    SWEEP_COLUMNS,
    EquilibriumReport,
    classical_ne_payoff,
    critical_corruption,
    dominance,
    enumerate_classes,
    label_classes,
    quantum_ne_payoff,
    simulated_class_mean,
    sweep,
)
from qdilemma.game import PayoffTable
from qdilemma.noise import check_corruption

from helpers import random_payoff_table

TABLE = PayoffTable()


class TestEnumerateClasses:
    def test_census(self):
        classes = enumerate_classes()
        assert len(classes) == 10
        assert sum(c.size for c in classes) == 27
        sizes = sorted(c.size for c in classes)
        assert sizes == [1, 1, 1, 3, 3, 3, 3, 3, 3, 6]

    def test_labels_cover_i_through_x(self):
        labels = [c.label for c in enumerate_classes()]
        assert labels == list(CLASS_LABELS)

    def test_single_size_six_class_is_all_distinct(self):
        (big,) = [c for c in enumerate_classes() if c.size == 6]
        assert big.multiset == ("H", "I", "X")
        assert len(set(big.configurations)) == 6

    def test_uniform_classes(self):
        uniform = {c.multiset for c in enumerate_classes() if c.size == 1}
        assert uniform == {("H", "H", "H"), ("I", "I", "I"), ("X", "X", "X")}


class TestLabelClasses:
    def test_anchors(self):
        labels = label_classes()
        assert labels[("X", "X", "X")] == "IV"
        assert labels[("I", "I", "I")] == "V"
        assert labels[("I", "X", "X")] == "VII"
        assert labels[("H", "I", "X")] == "VIII"

    def test_double_hadamard_with_identity_matches_reference(self):
        labels = label_classes()
        assert labels[("H", "H", "I")] == "IX"
        assert simulated_class_mean(("H", "H", "I"), TABLE) == pytest.approx(4.75, abs=1e-12)

    def test_tied_pair_convention(self):
        labels = label_classes()
        assert labels[("H", "X", "X")] == "III"
        assert labels[("H", "I", "I")] == "X"

    def test_every_class_reproduces_reference_mean(self):
        labels = label_classes()
        for multiset, label in labels.items():
            simulated = simulated_class_mean(multiset, TABLE)
            assert simulated == pytest.approx(REFERENCE_CLASS_MEANS[label], abs=5e-3)

    def test_table_holds_each_sorted_triple_once(self):
        triples = sorted(CLASS_MULTISETS.values())
        assert triples == sorted(combinations_with_replacement("HIX", 3))


class TestEquilibriumPayoffs:
    def test_quantum_pristine(self):
        assert quantum_ne_payoff(TABLE, 0.0) == pytest.approx(19 / 3, abs=1e-12)

    def test_quantum_fully_corrupt(self):
        assert quantum_ne_payoff(TABLE, 1.0) == pytest.approx(-17 / 3, abs=1e-12)

    def test_classical_line(self):
        assert classical_ne_payoff(TABLE, 0.0) == 2.0
        assert classical_ne_payoff(TABLE, 1.0) == 0.0
        assert classical_ne_payoff(TABLE, 0.5) == 1.0

    def test_lines_cross_at_critical_corruption(self):
        x_c = critical_corruption(TABLE)
        assert quantum_ne_payoff(TABLE, x_c) == pytest.approx(
            classical_ne_payoff(TABLE, x_c), abs=1e-12
        )

    def test_formula_matches_simulation_on_grid(self):
        for x in np.linspace(0, 1, 101):
            assert simulated_class_mean(("H", "I", "X"), TABLE, x) == pytest.approx(
                quantum_ne_payoff(TABLE, x), abs=1e-10
            )
            assert simulated_class_mean(("X", "X", "X"), TABLE, x) == pytest.approx(
                classical_ne_payoff(TABLE, x), abs=1e-10
            )

    def test_both_payoffs_strictly_decrease_with_corruption(self, rng):
        for _ in range(10):
            table = random_payoff_table(rng)
            grid = np.linspace(0, 1, 21)
            quantum = [quantum_ne_payoff(table, x) for x in grid]
            classical = [classical_ne_payoff(table, x) for x in grid]
            assert all(a > b for a, b in zip(quantum, quantum[1:]))
            assert all(a > b for a, b in zip(classical, classical[1:]))


class TestCriticalCorruption:
    def test_default_table_value(self):
        assert critical_corruption(TABLE) == pytest.approx(13 / 30, abs=1e-12)

    def test_saturates_at_half_from_below(self):
        values = [critical_corruption(PayoffTable(1, 2, n)) for n in (3, 10, 100, 10_000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 0.5 for v in values)
        assert values[-1] == pytest.approx(0.5, abs=1e-3)

    def test_no_advantage_regime(self):
        # 2n + p <= 3q: the quantum line never leads
        assert critical_corruption(PayoffTable(1, 2.5, 3)) is None

    def test_below_half_for_random_tables(self, rng):
        for _ in range(200):
            x_c = critical_corruption(random_payoff_table(rng))
            assert x_c is None or 0 < x_c < 0.5

    def test_scaled_forms_match_unscaled_expressions_bit_for_bit(self, rng):
        # stakes from 1e-5 to 1e300, where 4n and the unscaled forms stay finite
        for _ in range(2000):
            n = 10.0 ** rng.uniform(-5, 300)
            q = n * rng.uniform(0.01, 1.0)
            p = q * rng.uniform(0.01, 1.0)
            if not 0.0 < p < q < n:
                continue
            table = PayoffTable(p, q, n)
            numerator = 2.0 * n + p - 3.0 * q
            expected = None if numerator <= 0.0 else numerator / (4.0 * n - 3.0 * q)
            assert critical_corruption(table) == expected
            x = rng.uniform(0.0, 1.0)
            assert quantum_ne_payoff(table, x) == (-4.0 * n * x + 2.0 * n + p) / 3.0

    def test_overflowing_stakes_are_answered(self):
        # 4n overflows in the unscaled form
        table = PayoffTable(1.0, 2.0, 1e308)
        assert critical_corruption(table) == 0.5
        assert quantum_ne_payoff(table, 0.0) == pytest.approx(1e308 / 3 * 2, rel=1e-15)
        assert math.isfinite(quantum_ne_payoff(table, 1.0))
        assert dominance(table, 0.0).dominant == "quantum"

    def test_rounds_to_half_near_n_1e17(self):
        # x_c < 1/2 exactly; in floating point it reaches 1/2 near n = 1e17
        assert critical_corruption(PayoffTable(1.0, 2.0, 1e16)) < 0.5
        assert critical_corruption(PayoffTable(1.0, 2.0, 1e17)) == 0.5


class TestDominance:
    def test_low_corruption_favors_quantum(self):
        assert dominance(TABLE, 0.2).dominant == "quantum"

    def test_high_corruption_favors_classical(self):
        assert dominance(TABLE, 0.6).dominant == "classical"

    def test_crossing_is_a_tie(self):
        assert dominance(TABLE, 13 / 30).dominant == "tie"

    def test_never_quantum_past_half(self, rng):
        for _ in range(100):
            table = random_payoff_table(rng)
            x = rng.uniform(0.5, 1.0)
            assert dominance(table, x).dominant != "quantum"

    @settings(deadline=None)
    @given(log_n=st.floats(-5.0, 307.0), q_frac=st.floats(1e-6, 1.0, exclude_max=True),
           p_frac=st.floats(1e-6, 1.0, exclude_max=True),
           x=st.floats(0.5, 1.0, exclude_min=True))
    def test_never_quantum_past_half_at_any_scale(self, log_n, q_frac, p_frac, x):
        n = 10.0 ** log_n
        table = PayoffTable(n * q_frac * p_frac, n * q_frac, n)
        assert dominance(table, x).dominant != "quantum"

    def test_report_echoes_both_payoffs(self):
        report = dominance(TABLE, 0.25)
        assert report.x == 0.25
        assert report.quantum_ne_mean == pytest.approx(quantum_ne_payoff(TABLE, 0.25))
        assert report.classical_ne_mean == pytest.approx(classical_ne_payoff(TABLE, 0.25))

    def test_rejects_unknown_verdict(self):
        with pytest.raises(ValueError, match="verdict"):
            EquilibriumReport(x=0.0, quantum_ne_mean=0.0, classical_ne_mean=0.0, dominant="both")


class TestSweep:
    def test_corruption_sweep_endpoints(self):
        records = sweep(TABLE, "x", [0.0, 1.0])
        assert [r["value"] for r in records] == [0.0, 1.0]
        assert records[0]["quantum_ne_mean"] == pytest.approx(19 / 3, abs=1e-12)
        assert records[0]["classical_ne_mean"] == pytest.approx(2.0, abs=1e-12)
        assert records[1]["quantum_ne_mean"] == pytest.approx(-17 / 3, abs=1e-12)
        assert records[1]["classical_ne_mean"] == pytest.approx(0.0, abs=1e-12)

    def test_corruption_sweep_carries_simulated_cross_checks(self):
        for record in sweep(TABLE, "x", np.linspace(0, 1, 11)):
            assert record["simulated_quantum_mean"] == pytest.approx(
                record["quantum_ne_mean"], abs=1e-10
            )
            assert record["simulated_classical_mean"] == pytest.approx(
                record["classical_ne_mean"], abs=1e-10
            )

    def test_stake_sweep_raises_crossing_with_n(self):
        records = sweep(TABLE, "n", range(3, 101))
        values = [r["x_c"] for r in records]
        assert all(r["valid"] for r in records)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_crossing_falls_as_q_approaches_n(self):
        records = sweep(TABLE, "q", np.linspace(1.5, 6.0, 10))
        values = [r["x_c"] for r in records]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_q_sweep_reaches_no_advantage(self):
        # beyond q = (2n+p)/3 the crossing disappears but the table stays legal
        (record,) = sweep(TABLE, "q", [7.0])
        assert record["valid"]
        assert record["x_c"] is None

    def test_classical_payoff_equals_q_on_pristine_source(self):
        for record in sweep(TABLE, "q", np.linspace(1.1, 8.9, 9), x=0.0):
            assert record["classical_ne_mean"] == pytest.approx(record["value"], abs=1e-12)

    def test_invalid_points_flagged_not_dropped(self):
        records = sweep(TABLE, "n", [1.5, 9.0])
        assert [r["valid"] for r in records] == [False, True]
        assert "0 < p < q < n" in records[0]["error"]
        assert records[0]["quantum_ne_mean"] is None
        assert records[0]["n"] == 1.5

    def test_record_order_follows_grid_order(self):
        grid = [0.9, 0.1, 0.5]
        assert [r["value"] for r in sweep(TABLE, "x", grid)] == grid

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(TABLE, "x", [])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="swept"):
            sweep(TABLE, "p", [1.0])

    @pytest.mark.parametrize("swept, grid", [("x", [0.5]), ("n", [9.0]), ("x", [2.0, 3.0])])
    @pytest.mark.parametrize("gamma", [-0.1, 5.0, float("nan")])
    def test_gamma_checked_whatever_is_swept(self, swept, grid, gamma):
        with pytest.raises(ValueError, match="gamma"):
            sweep(TABLE, swept, grid, gamma=gamma)

    def test_corruption_sweep_endpoints_are_the_simulated_endpoints(self):
        gamma = 0.7
        first, last = sweep(TABLE, "x", [0.0, 1.0], gamma=gamma)
        for record, x in ((first, 0.0), (last, 1.0)):
            assert record["simulated_quantum_mean"] == simulated_class_mean(
                ("H", "I", "X"), TABLE, x, gamma)
            assert record["simulated_classical_mean"] == simulated_class_mean(
                ("X", "X", "X"), TABLE, x, gamma)

    @settings(deadline=None)
    @given(n=st.floats(1e-3, 1e3), q_frac=st.floats(1e-3, 1.0, exclude_max=True),
           p_frac=st.floats(1e-3, 1.0, exclude_max=True),
           xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
           gamma=st.floats(0.0, math.pi / 2))
    def test_corruption_sweep_matches_the_circuit_oracle(self, n, q_frac, p_frac, xs, gamma):
        q = n * q_frac
        p = q * p_frac
        table = PayoffTable(p, q, n)
        tol = 1e-12 * (1.0 + n)
        for record, x in zip(sweep(table, "x", xs, gamma=gamma), xs):
            assert record["simulated_quantum_mean"] == pytest.approx(
                simulated_class_mean(("H", "I", "X"), table, x, gamma), abs=tol)
            assert record["simulated_classical_mean"] == pytest.approx(
                simulated_class_mean(("X", "X", "X"), table, x, gamma), abs=tol)


def per_point_sweep(table, swept, grid, x, gamma):
    """The per-point loop that ``sweep`` replaces: one PayoffTable, one
    corruption check and the scalar closed forms per grid point."""
    if swept == "x":
        mixed = [simulated_class_mean(("H", "I", "X"), table, end, gamma) for end in (0.0, 1.0)]
        flip = [simulated_class_mean(("X", "X", "X"), table, end, gamma) for end in (0.0, 1.0)]
    rows = []
    for v in grid:
        v = float(v)
        point = {"p": table.p, "q": table.q, "n": table.n, "x": x}
        point[swept] = v
        row = dict.fromkeys(SWEEP_COLUMNS)
        row.update(point, swept=swept, value=v, valid=True)
        try:
            stakes = PayoffTable(point["p"], point["q"], point["n"])
            xx = check_corruption(point["x"])
        except ValueError as exc:
            row.update(valid=False, error=str(exc))
            rows.append(row)
            continue
        row.update(quantum_ne_mean=quantum_ne_payoff(stakes, xx),
                   classical_ne_mean=classical_ne_payoff(stakes, xx),
                   x_c=critical_corruption(stakes))
        if swept == "x":
            row.update(simulated_quantum_mean=(1.0 - xx) * mixed[0] + xx * mixed[1],
                       simulated_classical_mean=(1.0 - xx) * flip[0] + xx * flip[1])
        rows.append(row)
    return rows


#: Grid values on and around the bounds of 0 < p < q < n and [0, 1]; the
#: names stand for the table's own stakes, and "tie" for the q at which the
#: crossing's numerator 2n + p - 3q vanishes.
EDGES = st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324,
                         "p", "q", "n", "tie"])


class TestColumnarSweep:
    @settings(deadline=None)
    @given(table=st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1.0, exclude_max=True),
                           st.floats(1e-6, 1.0, exclude_max=True)),
           swept=st.sampled_from(["x", "n", "q"]),
           grid=st.lists(st.one_of(st.floats(), st.floats(-1.0, 2.0), st.floats(0.0, 1e3), EDGES),
                         min_size=1, max_size=12),
           x=st.one_of(st.floats(0.0, 1.0), EDGES),
           gamma=st.floats(0.0, math.pi / 2))
    def test_matches_the_per_point_loop_bit_for_bit(self, table, swept, grid, x, gamma):
        n, q_frac, p_frac = table
        table = PayoffTable(n * q_frac * p_frac, n * q_frac, n)
        stakes = dict(vars(table), tie=(2.0 * table.n + table.p) / 3.0)
        grid = [stakes.get(v, v) for v in grid]
        x = stakes.get(x, x)
        # repr tells -0.0 from 0.0 and compares the error strings too
        assert repr(sweep(table, swept, grid, x=x, gamma=gamma)) == repr(
            per_point_sweep(table, swept, grid, x, gamma))

    def test_rejects_a_two_dimensional_grid(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            sweep(TABLE, "x", [[0.0, 1.0]])
