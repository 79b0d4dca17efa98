"""Acceptance suite: one test per release criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

from itertools import product

import numpy as np

from qdilemma.analysis import (
    CLASS_MULTISETS,
    REFERENCE_CLASS_MEANS,
    classical_ne_payoff,
    critical_corruption,
    dominance,
    quantum_ne_payoff,
    simulated_class_mean,
)
from qdilemma.game import (
    PayoffTable,
    decompose_entangler,
    entangler,
    play,
)
from qdilemma.linalg import basis_density, basis_state, max_abs
from qdilemma.noise import ancilla_prepare, corrupted_input
from qdilemma.tomography import (
    estimate_expectations,
    expectations,
    fidelity,
    load_reference_state,
    reconstruct,
)

from helpers import (
    global_phase_distance,
    ordered_product,
    random_payoff_table,
    random_pure_density,
)

TABLE = PayoffTable()


def _passed(number, text):
    print(f"criterion {number} PASS: {text}")


def test_criterion_1_class_census_payoffs():
    """All ten class payoffs on a pristine source match the reference column."""
    simulated = {label: simulated_class_mean(multiset, TABLE, x=0.0)
                 for label, multiset in CLASS_MULTISETS.items()}

    expected = sorted(REFERENCE_CLASS_MEANS.values())
    observed = sorted(simulated.values())
    assert np.allclose(observed, expected, atol=5e-3)

    for label in ("IV", "V", "VII", "VIII"):
        assert abs(simulated[label] - REFERENCE_CLASS_MEANS[label]) <= 5e-3
    _passed(1, "ten class payoffs match the reference values within 5e-3")


def test_criterion_2_critical_corruption_closed_form():
    """The default-table crossing is exactly 13/30 (the quoted 0.428 is a
    documented discrepancy, not a target)."""
    assert abs(critical_corruption(TABLE) - 13 / 30) <= 1e-12
    _passed(2, "critical corruption for (1, 2, 9) equals 13/30 within 1e-12")


def test_criterion_3_equilibrium_formulas_match_simulation():
    """Closed forms and circuit simulation agree over a 101-point grid."""
    for x in np.linspace(0.0, 1.0, 101):
        mixed = simulated_class_mean(("H", "I", "X"), TABLE, x)
        all_flip = simulated_class_mean(("X", "X", "X"), TABLE, x)
        assert abs(mixed - quantum_ne_payoff(TABLE, x)) <= 1e-10
        assert abs(all_flip - classical_ne_payoff(TABLE, x)) <= 1e-10
    _passed(3, "both equilibrium formulas match simulation within 1e-10 on 101 points")


def test_criterion_4_reference_state_fidelity():
    """The bundled reconstructed state scores 0.843 against its pure target."""
    rho = load_reference_state("class7_appendix")
    value = fidelity(rho, basis_density("101"))
    assert abs(value - 0.843) <= 1e-3
    _passed(4, f"reference-state fidelity {value:.6f} is 0.843 within 1e-3")


def test_criterion_5_entangler_decomposition():
    """The five-gate product reproduces the maximal entangler up to global phase."""
    u = ordered_product(decompose_entangler())
    assert global_phase_distance(u, entangler(np.pi / 2)) <= 1e-12
    psi = u @ basis_state("000")
    expected = (basis_state("000") + 1j * basis_state("111")) / np.sqrt(2)
    assert max_abs(psi - expected) <= 1e-12
    _passed(5, "five-gate decomposition equals the entangler up to global phase")


def test_criterion_6_noise_circuit_equivalence():
    """The ancilla preparation circuit reproduces the direct mixture on a grid."""
    worst = max(
        max_abs(ancilla_prepare(x) - corrupted_input(x)) for x in np.linspace(0.0, 1.0, 101)
    )
    assert worst <= 1e-12
    _passed(6, f"ancilla circuit equals the direct mixture, worst entry error {worst:.2e}")


def test_criterion_7_tomography_round_trip_and_shots():
    """Linear inversion is exact on pure states; the shot estimator converges."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        rho = random_pure_density(rng)
        worst = max(worst, max_abs(reconstruct(expectations(rho)) - rho))
    assert worst <= 1e-12

    target = basis_density("101")
    estimated = estimate_expectations(target, shots=10**6, seed=0)
    shot_error = max_abs(estimated - expectations(target))
    assert shot_error <= 5e-3
    _passed(7, f"round-trip error {worst:.2e}, million-shot tensor error {shot_error:.2e}")


def test_criterion_8_dominance_boundary():
    """The crossing stays below one half, rises with the stakes, and corruption
    beyond one half never favors the quantum side."""
    rng = np.random.default_rng(8)
    for _ in range(1000):
        x_c = critical_corruption(random_payoff_table(rng))
        assert x_c is None or x_c < 0.5

    crossings = [critical_corruption(PayoffTable(1, 2, n)) for n in range(3, 101)]
    assert all(a < b for a, b in zip(crossings, crossings[1:]))

    for _ in range(200):
        table = random_payoff_table(rng)
        x = rng.uniform(np.nextafter(0.5, 1.0), 1.0)
        assert dominance(table, x)["dominant"] != "quantum"
    _passed(8, "crossing < 0.5, strictly increasing in n, never quantum past 0.5")


def test_criterion_9_classical_limit():
    """With no entanglement every identity/flip profile is a classical game."""
    for letters in product("IX", repeat=3):
        outcome = "".join("1" if c == "X" else "0" for c in letters)
        probs = play(tuple(letters), gamma=0.0)
        assert max_abs(probs - basis_state(outcome).real) <= 1e-12
    _passed(9, "at zero entanglement the eight identity/flip profiles are classical")
