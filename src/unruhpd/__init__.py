"""Quantum prisoner's dilemma between an inertial and a uniformly accelerated player.

The engine builds the entangled two-player state, passes the accelerated
player's qubit through the single-mode acceleration channel, applies both
moves, disentangles, and scores the diagonal against a classical payoff
table. Closed-form oracles and an equilibrium analyzer sit alongside the
simulation so every published result can be cross-checked numerically.
"""

from .closed_forms import (
    CLASSICAL_PROFILES,
    max_entangled_classical,
    miracle_vs_classical,
    q_vs_arbitrary,
    unentangled_classical,
)
from .equilibrium import (
    EquilibriumReport,
    analyze,
    best_response,
    find_dominant,
    find_nash,
    pareto_front,
    payoff_table,
    set_best_responses,
)
from .game import GAMMA_MAX, NAMED_STRATEGIES, Strategy, entangler, named_strategy_matrix
from .payoff import GameSetup, Payoffs, PayoffTable, play
from .unruh import R_MAX, r_from_acceleration
from .verify import SUITE_NAMES, VerifyOutcome, run_suite

__all__ = [
    "CLASSICAL_PROFILES",
    "EquilibriumReport",
    "GAMMA_MAX",
    "GameSetup",
    "NAMED_STRATEGIES",
    "Payoffs",
    "PayoffTable",
    "R_MAX",
    "Strategy",
    "SUITE_NAMES",
    "VerifyOutcome",
    "analyze",
    "best_response",
    "entangler",
    "find_dominant",
    "find_nash",
    "max_entangled_classical",
    "miracle_vs_classical",
    "named_strategy_matrix",
    "pareto_front",
    "payoff_table",
    "play",
    "q_vs_arbitrary",
    "r_from_acceleration",
    "run_suite",
    "set_best_responses",
    "unentangled_classical",
]

__version__ = "0.1.0"
