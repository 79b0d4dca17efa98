import math
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qdilemma.analysis import (
    CLASS_MULTISETS,
    REFERENCE_CLASS_MEANS,
    SWEEP_COLUMNS,
    class_size,
    classical_ne_payoff,
    critical_corruption,
    dominance,
    quantum_ne_payoff,
    simulated_class_mean,
    sweep,
)
from qdilemma.game import DEFAULT_GAMMA, PayoffTable, evolve, outcomes, payoff, play
from qdilemma.noise import check_corruption, corrupted_input
from qdilemma.tomography import fidelity

from helpers import random_payoff_table

TABLE = PayoffTable()


class TestEnumerateClasses:
    def test_census(self):
        sizes = [class_size(m) for m in CLASS_MULTISETS.values()]
        assert len(sizes) == 10
        assert sum(sizes) == 27
        assert sorted(sizes) == [1, 1, 1, 3, 3, 3, 3, 3, 3, 6]

    def test_labels_cover_i_through_x(self):
        assert list(CLASS_MULTISETS) == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII",
                                         "IX", "X"]

    def test_single_size_six_class_is_all_distinct(self):
        (big,) = [m for m in CLASS_MULTISETS.values() if class_size(m) == 6]
        assert big == ("H", "I", "X")

    def test_uniform_classes(self):
        uniform = {m for m in CLASS_MULTISETS.values() if class_size(m) == 1}
        assert uniform == {("H", "H", "H"), ("I", "I", "I"), ("X", "X", "X")}

    def test_classes_partition_the_27_profiles(self):
        sorted_profiles = [tuple(sorted(profile)) for profile in product("IHX", repeat=3)]
        for multiset in CLASS_MULTISETS.values():
            assert sorted_profiles.count(multiset) == class_size(multiset)


class TestLabelClasses:
    def test_anchors(self):
        assert CLASS_MULTISETS["IV"] == ("X", "X", "X")
        assert CLASS_MULTISETS["V"] == ("I", "I", "I")
        assert CLASS_MULTISETS["VII"] == ("I", "X", "X")
        assert CLASS_MULTISETS["VIII"] == ("H", "I", "X")

    def test_double_hadamard_with_identity_matches_reference(self):
        assert CLASS_MULTISETS["IX"] == ("H", "H", "I")
        assert simulated_class_mean(("H", "H", "I"), TABLE) == pytest.approx(4.75, abs=1e-12)

    def test_tied_pair_convention(self):
        assert CLASS_MULTISETS["III"] == ("H", "X", "X")
        assert CLASS_MULTISETS["X"] == ("H", "I", "I")

    def test_every_class_reproduces_reference_mean(self):
        for label, multiset in CLASS_MULTISETS.items():
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
        assert dominance(table, 0.0)["dominant"] == "quantum"

    @given(log_n=st.floats(-5.0, 308.0), log_ratio=st.floats(0.0, 20.0),
           p_frac=st.one_of(st.floats(0.0, 1.0), st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0**e)))
    def test_in_half_open_interval_for_random_tables(self, log_n, log_ratio, p_frac):
        # n / q up to 1e20 and p up to q, where x_c comes closest to 1/2
        n = 10.0**log_n
        q = n / 10.0**log_ratio
        p = q * p_frac
        assume(0.0 < p < q < n)
        x_c = critical_corruption(PayoffTable(p, q, n))
        assert x_c is None or 0.0 < x_c <= 0.5
        # exactly, 1/2 - x_c = (3q/2 - p) / (4n - 3q); x_c rounds to 1/2 only
        # where that is a few units in the last place of 1/2 (2**-54 each)
        gap = (Fraction(3, 2) * Fraction(q) - Fraction(p)) / (4 * Fraction(n) - 3 * Fraction(q))
        if x_c is not None and gap > 2.0**-51:
            assert x_c < 0.5

    def test_capped_at_half(self):
        # the unscaled and the scaled expression both round to 0.5000000000000001
        table = PayoffTable(0.99 * 2.4e-16, 2.4e-16, 1.0)
        assert critical_corruption(table) == 0.5
        assert sweep(table, "q", [2.4e-16])["x_c"] == [0.5]

    def test_below_half_below_n_2_53_at_the_default_stakes(self):
        # in sampled checks x_c stays below 1/2 up to n = 2**53; past it some n reach 1/2
        below = np.nextafter(2.0**53, 0.0) - np.arange(100.0)
        for n in [*np.geomspace(3.0, 2.0**53, 200, endpoint=False), *below]:
            assert critical_corruption(PayoffTable(1.0, 2.0, float(n))) < 0.5
        assert critical_corruption(PayoffTable(1.0, 2.0, 9415651814089914.0)) == 0.5

    def test_rounds_to_half_near_n_1e17(self):
        # x_c < 1/2 exactly; in floating point it reaches 1/2 near n = 1e17
        assert critical_corruption(PayoffTable(1.0, 2.0, 1e16)) < 0.5
        assert critical_corruption(PayoffTable(1.0, 2.0, 1e17)) == 0.5


class TestDominance:
    def test_low_corruption_favors_quantum(self):
        assert dominance(TABLE, 0.2)["dominant"] == "quantum"

    def test_high_corruption_favors_classical(self):
        assert dominance(TABLE, 0.6)["dominant"] == "classical"

    def test_crossing_is_a_tie(self):
        assert dominance(TABLE, 13 / 30)["dominant"] == "tie"

    def test_never_quantum_past_half(self, rng):
        for _ in range(100):
            table = random_payoff_table(rng)
            x = rng.uniform(0.5, 1.0)
            assert dominance(table, x)["dominant"] != "quantum"

    @given(log_n=st.floats(-5.0, 307.0), q_frac=st.floats(1e-6, 1.0, exclude_max=True),
           p_frac=st.floats(1e-6, 1.0, exclude_max=True),
           x=st.floats(0.5, 1.0, exclude_min=True))
    def test_never_quantum_past_half_at_any_scale(self, log_n, q_frac, p_frac, x):
        n = 10.0 ** log_n
        table = PayoffTable(n * q_frac * p_frac, n * q_frac, n)
        assert dominance(table, x)["dominant"] == "classical"

    @given(n=st.floats(1e-3, 1e3), q_frac=st.floats(1e-3, 1.0, exclude_max=True),
           p_frac=st.floats(1e-3, 1.0, exclude_max=True), x=st.floats(0.0, 1.0),
           k=st.integers(-60, 60))
    def test_verdict_does_not_depend_on_the_units_of_the_stakes(self, n, q_frac, p_frac, x, k):
        q = n * q_frac
        p = q * p_frac
        assume(0.0 < p < q < n)
        scale = 2.0**k
        scaled = PayoffTable(p * scale, q * scale, n * scale)
        assert dominance(scaled, x)["dominant"] == dominance(PayoffTable(p, q, n), x)["dominant"]

    @pytest.mark.parametrize("scale", [2.0**-40, 2.0**-7, 2.0**7, 2.0**40])
    def test_crossing_is_a_tie_at_any_scale(self, scale):
        table = PayoffTable(TABLE.p * scale, TABLE.q * scale, TABLE.n * scale)
        assert dominance(table, 13 / 30)["dominant"] == "tie"

    def test_report_echoes_both_payoffs(self):
        report = dominance(TABLE, 0.25)
        assert list(report) == ["x", "quantum_ne_mean", "classical_ne_mean", "dominant"]
        assert report["x"] == 0.25
        assert report["quantum_ne_mean"] == pytest.approx(quantum_ne_payoff(TABLE, 0.25))
        assert report["classical_ne_mean"] == pytest.approx(classical_ne_payoff(TABLE, 0.25))


PROFILES = st.sampled_from(list(product("IHX", repeat=3)))


def corruption_delta(profile, gamma=DEFAULT_GAMMA):
    """Mean payoff of the ``|111>`` row of ``outcomes`` minus that of its ``|000>`` row."""
    pristine, flipped = outcomes(profile, gamma)
    return payoff(flipped, TABLE).mean - payoff(pristine, TABLE).mean


class TestFidelityAgainstPayoffError:
    """Corruption x costs every class the same fidelity, sqrt(1 - x), but a payoff
    error x·Δ with |Δ| from 2 to 12: fidelity cannot rank the classes by that error."""

    @given(profile=PROFILES, gamma=st.floats(0.0, np.pi / 2), x=st.floats(0.0, 1.0))
    def test_fidelity_to_the_pristine_state_is_root_one_minus_x(self, profile, gamma, x):
        # the square, since the root is ill-conditioned near x = 1
        f = fidelity(evolve(profile, corrupted_input(x), gamma), evolve(profile, None, gamma))
        assert abs(f**2 - (1.0 - x)) <= 1e-14

    @given(profile=PROFILES, gamma=st.floats(0.0, np.pi / 2), x=st.floats(0.0, 1.0))
    def test_payoff_error_is_x_times_delta(self, profile, gamma, x):
        error = (payoff(play(profile, x, gamma), TABLE).mean
                 - payoff(play(profile, 0.0, gamma), TABLE).mean)
        expected = x * corruption_delta(profile, gamma)
        # relative where |x·Δ| >= 1; below, the bound must also cover the
        # rounding of the two means, which is absolute (~1e-14 at these stakes)
        assert abs(error - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_delta_of_each_class(self):
        deltas = {label: corruption_delta(m) for label, m in CLASS_MULTISETS.items()}
        assert deltas == pytest.approx({"I": 8.5, "II": 8.5, "III": 5.0, "IV": -2.0, "V": 2.0,
                                        "VI": 12.0, "VII": -12.0, "VIII": -12.0, "IX": -8.5,
                                        "X": 5.0}, abs=1e-12)


class TestSweep:
    def test_corruption_sweep_endpoints(self):
        columns = sweep(TABLE, "x", [0.0, 1.0])
        assert columns["value"] == [0.0, 1.0]
        assert columns["quantum_ne_mean"][0] == pytest.approx(19 / 3, abs=1e-12)
        assert columns["classical_ne_mean"][0] == pytest.approx(2.0, abs=1e-12)
        assert columns["quantum_ne_mean"][1] == pytest.approx(-17 / 3, abs=1e-12)
        assert columns["classical_ne_mean"][1] == pytest.approx(0.0, abs=1e-12)

    def test_corruption_sweep_carries_simulated_cross_checks(self):
        columns = sweep(TABLE, "x", np.linspace(0, 1, 11))
        assert columns["simulated_quantum_mean"] == pytest.approx(
            columns["quantum_ne_mean"], abs=1e-10
        )
        assert columns["simulated_classical_mean"] == pytest.approx(
            columns["classical_ne_mean"], abs=1e-10
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, np.pi / 2])
    def test_bit_identical_classical_columns_are_one_list(self, gamma):
        columns = sweep(TABLE, "x", np.linspace(0, 1, 2001), gamma=gamma)
        assert columns["simulated_classical_mean"] is columns["classical_ne_mean"]

    def test_classical_columns_one_ulp_apart_are_two_lists(self):
        columns = sweep(PayoffTable(0.05, 0.1, 1.0), "x", np.linspace(0, 1, 2001))
        simulated, closed = columns["simulated_classical_mean"], columns["classical_ne_mean"]
        assert simulated is not closed
        assert simulated[0] != closed[0]
        assert simulated[0] == pytest.approx(closed[0], rel=1e-15)

    def test_stake_sweep_raises_crossing_with_n(self):
        columns = sweep(TABLE, "n", range(3, 101))
        values = columns["x_c"]
        assert columns["valid"] is True
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_crossing_falls_as_q_approaches_n(self):
        values = sweep(TABLE, "q", np.linspace(1.5, 6.0, 10))["x_c"]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_q_sweep_reaches_no_advantage(self):
        # beyond q = (2n+p)/3 the crossing disappears but the table stays legal
        columns = sweep(TABLE, "q", [6.0, 7.0])
        assert columns["valid"] is True
        assert columns["x_c"][0] > 0.0
        assert columns["x_c"][1] is None
        # a column with no level at any point is no level
        assert sweep(TABLE, "q", [7.0])["x_c"] is None

    def test_classical_payoff_equals_q_on_pristine_source(self):
        columns = sweep(TABLE, "q", np.linspace(1.1, 8.9, 9), x=0.0)
        assert columns["classical_ne_mean"] == pytest.approx(columns["value"], abs=1e-12)

    def test_invalid_points_flagged_not_dropped(self):
        columns = sweep(TABLE, "n", [1.5, 9.0])
        assert columns["valid"] == [False, True]
        assert "0 < p < q < n" in columns["error"][0]
        assert columns["quantum_ne_mean"][0] is None
        assert columns["n"][0] == 1.5

    def test_record_order_follows_grid_order(self):
        grid = [0.9, 0.1, 0.5]
        assert sweep(TABLE, "x", grid)["value"] == grid

    def test_held_values_are_one_object_per_column(self):
        # what the grid does not vary is the column itself, formatted once when emitted
        columns = sweep(TABLE, "x", np.linspace(0, 1, 5))
        assert [columns[key] for key in ("swept", "p", "q", "n", "x_c", "valid", "error")] == [
            "x", TABLE.p, TABLE.q, TABLE.n, critical_corruption(TABLE), True, None]

    @pytest.mark.parametrize("swept, grid, held, closed_form, value", [
        ("x", np.linspace(0, 1, 5), {"swept", "p", "q", "n", "x_c", "valid", "error"},
         "x_c", critical_corruption(TABLE)),
        ("n", np.linspace(3, 30, 5), {"swept", "p", "q", "x", "classical_ne_mean",
                                      "simulated_quantum_mean", "simulated_classical_mean",
                                      "valid", "error"},
         "classical_ne_mean", classical_ne_payoff(TABLE, 0.3)),
        ("q", np.linspace(1.5, 8, 5), {"swept", "p", "n", "x", "quantum_ne_mean",
                                       "simulated_quantum_mean", "simulated_classical_mean",
                                       "valid", "error"},
         "quantum_ne_mean", quantum_ne_payoff(TABLE, 0.3)),
    ], ids=["x", "n", "q"])
    def test_a_column_is_a_list_only_where_its_cells_differ(self, swept, grid, held,
                                                            closed_form, value):
        columns = sweep(TABLE, swept, grid, x=0.3)
        assert {key for key, column in columns.items() if not isinstance(column, list)} == held
        for key in set(SWEEP_COLUMNS) - held:
            assert len(columns[key]) == len(grid), key
        if swept != "x":
            assert columns["simulated_quantum_mean"] is columns["simulated_classical_mean"] is None
        # a held closed form is the per-point function's value, bit for bit
        assert repr(columns[closed_form]) == repr(value)

    def test_x_sweep_without_a_crossing_holds_no_level(self):
        # 2n + p - 3q = -2 < 0: the quantum side never leads
        columns = sweep(PayoffTable(1, 5, 6), "x", np.linspace(0, 1, 5))
        assert columns["x_c"] is None
        assert columns["valid"] is True

    @pytest.mark.parametrize("swept, grid, invalid, numeric", [
        ("x", [-0.5, 0.25, 1.5], [0, 2], ("quantum_ne_mean", "classical_ne_mean", "x_c",
                                          "simulated_quantum_mean", "simulated_classical_mean")),
        ("n", [9.0, 1.5, 30.0], [1], ("quantum_ne_mean", "classical_ne_mean", "x_c")),
        ("q", [0.5, 2.0, 9.5], [0, 2], ("quantum_ne_mean", "classical_ne_mean", "x_c")),
    ])
    def test_an_invalid_point_makes_lists_with_none_there(self, swept, grid, invalid, numeric):
        columns = sweep(TABLE, swept, grid)
        assert columns["valid"] == [k not in invalid for k in range(3)]
        assert [k for k, error in enumerate(columns["error"]) if error] == invalid
        for key in numeric:
            assert isinstance(columns[key], list), key
            assert [k for k, cell in enumerate(columns[key]) if cell is None] == invalid, key
        if swept == "x":
            # the held crossing, broadcast where there is a number
            assert columns["x_c"][1] == critical_corruption(TABLE)
        else:
            assert columns["simulated_quantum_mean"] is columns["simulated_classical_mean"] is None

    def test_a_column_with_no_number_at_any_point_is_none(self):
        columns = sweep(TABLE, "x", [-0.5, 1.5])
        assert columns["valid"] == [False, False]
        for key in ("quantum_ne_mean", "classical_ne_mean", "x_c", "simulated_quantum_mean",
                    "simulated_classical_mean"):
            assert columns[key] is None, key

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
        columns = sweep(TABLE, "x", [0.0, 1.0], gamma=gamma)
        for k, x in enumerate((0.0, 1.0)):
            assert columns["simulated_quantum_mean"][k] == simulated_class_mean(
                ("H", "I", "X"), TABLE, x, gamma)
            assert columns["simulated_classical_mean"][k] == simulated_class_mean(
                ("X", "X", "X"), TABLE, x, gamma)

    @given(n=st.floats(1e-3, 1e3), q_frac=st.floats(1e-3, 1.0, exclude_max=True),
           p_frac=st.floats(1e-3, 1.0, exclude_max=True),
           xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
           gamma=st.floats(0.0, math.pi / 2))
    def test_corruption_sweep_matches_the_circuit_oracle(self, n, q_frac, p_frac, xs, gamma):
        q = n * q_frac
        p = q * p_frac
        table = PayoffTable(p, q, n)
        tol = 1e-12 * (1.0 + n)
        columns = sweep(table, "x", xs, gamma=gamma)
        for k, x in enumerate(xs):
            assert columns["simulated_quantum_mean"][k] == pytest.approx(
                simulated_class_mean(("H", "I", "X"), table, x, gamma), abs=tol)
            assert columns["simulated_classical_mean"][k] == pytest.approx(
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
        rows = per_point_sweep(table, swept, grid, x, gamma)
        columns = sweep(table, swept, grid, x=x, gamma=gamma)
        assert (columns["valid"] is True) == all(row["valid"] for row in rows)
        # repr tells -0.0 from 0.0 and compares the error strings too
        assert repr({key: column if isinstance(column, list) else [column] * len(grid)
                     for key, column in columns.items()}) == repr(
            {key: [row[key] for row in rows] for key in SWEEP_COLUMNS})

    def test_rejects_a_two_dimensional_grid(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            sweep(TABLE, "x", [[0.0, 1.0]])
