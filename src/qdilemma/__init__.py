"""Exact simulator and analysis toolkit for the noisy three-player quantum dilemma game."""

from .analysis import (
    classical_ne_payoff,
    critical_corruption,
    dominance,
    quantum_ne_payoff,
    simulated_class_mean,
    sweep,
)
from .game import (
    DEFAULT_GAMMA,
    PayoffTable,
    PayoffVector,
    decompose_entangler,
    entangler,
    evolve,
    outcomes,
    parse_profile,
    payoff,
    play,
)
from .linalg import (
    basis_density,
    basis_state,
    dagger,
    kron,
    validate_density_matrix,
)
from .noise import ancilla_prepare, corrupted_input, theta_for_x
from .tomography import (
    estimate_expectations,
    expectations,
    fidelity,
    load_reference_state,
    project_to_physical,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GAMMA",
    "PayoffTable",
    "PayoffVector",
    "ancilla_prepare",
    "basis_density",
    "basis_state",
    "classical_ne_payoff",
    "corrupted_input",
    "critical_corruption",
    "dagger",
    "decompose_entangler",
    "dominance",
    "entangler",
    "estimate_expectations",
    "evolve",
    "expectations",
    "fidelity",
    "kron",
    "load_reference_state",
    "outcomes",
    "parse_profile",
    "payoff",
    "play",
    "project_to_physical",
    "quantum_ne_payoff",
    "reconstruct",
    "simulated_class_mean",
    "sweep",
    "theta_for_x",
    "validate_density_matrix",
]
