"""Strategy space and initial-state preparation for the quantized Prisoner's Dilemma.

The game starts from |00> shared by Alice (most significant qubit) and Bob.
An entangling unitary J(gamma) = cos(gamma/2) I + i sin(gamma/2) (D1 x D1)
prepares cos(gamma/2)|00> + i sin(gamma/2)|11>; each player then applies a
local move U(alpha, theta), and J is undone before measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
GAMMA_MAX = math.pi / 2.0

# Decimal-rounded endpoint literals (e.g. 1.5707963) must not be rejected.
EDGE_SLACK = 1e-6

# Generator of the entangling operation.
D1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def clamp_to_domain(value: float, upper: float, name: str, span: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < -EDGE_SLACK or value > upper + EDGE_SLACK:
        raise ValueError(f"{name} must lie in {span}, got {value}")
    return min(max(value, 0.0), upper)


def clamp_array_to_domain(values, upper: float, name: str, span: str) -> np.ndarray:
    """`clamp_to_domain` for a whole array: one check of every element, then one clip."""
    values = np.asarray(values, dtype=float)
    # NaN fails both comparisons, so it is rejected with the infinities.
    outside = ~((values >= -EDGE_SLACK) & (values <= upper + EDGE_SLACK))
    if outside.any():
        raise ValueError(f"{name} must lie in {span}, got {values[outside].flat[0]}")
    return np.clip(values, 0.0, upper)


def validate_gamma(gamma: float) -> float:
    return clamp_to_domain(gamma, GAMMA_MAX, "entanglement gamma", "[0, pi/2]")


def validate_strategy_params(alpha: float, theta: float) -> tuple[float, float]:
    return (
        clamp_to_domain(alpha, TWO_PI, "strategy alpha", "[0, 2*pi]"),
        clamp_to_domain(theta, math.pi, "strategy theta", "[0, pi]"),
    )


@dataclass(frozen=True)
class Strategy:
    """A two-parameter local move; named moves carry a one-letter label."""

    alpha: float
    theta: float
    label: str = "custom"

    def __post_init__(self):
        alpha, theta = validate_strategy_params(self.alpha, self.theta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)

    def __str__(self) -> str:
        if self.label != "custom":
            return self.label
        return f"{self.alpha:.17g},{self.theta:.17g}"


COOPERATE = Strategy(0.0, 0.0, "C")
DEFECT = Strategy(0.0, math.pi, "D")
# Q is the diagonal phase move diag(i, -i); in the (alpha, theta)
# parametrization that matrix sits at (pi/2, 0).
Q_MOVE = Strategy(math.pi / 2.0, 0.0, "Q")
MIRACLE = Strategy(math.pi / 2.0, math.pi / 2.0, "M")

NAMED_STRATEGIES = {"C": COOPERATE, "D": DEFECT, "Q": Q_MOVE, "M": MIRACLE}


def strategy_matrix(alpha: float, theta: float) -> np.ndarray:
    """Unitary move [[e^{ia} cos(t/2), i sin(t/2)], [i sin(t/2), e^{-ia} cos(t/2)]]."""
    return _move(*validate_strategy_params(alpha, theta))


def _move(alpha: float, theta: float) -> np.ndarray:
    return _as_matrix(_move_entries(alpha, theta))


def _move_entries(alpha: float, theta: float) -> tuple:
    """Entries ((u00, u01), (u10, u11)) of the move, each a (real, imaginary) pair of floats."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    re = math.cos(alpha) * c
    im = math.sin(alpha) * c
    return (((re, im), (0.0, s)), ((0.0, s), (re, -im)))


# diag(i, -i) as (real, imaginary) pairs: the parts of the complex literals 1j, 0.0 and -1j.
_Q_ENTRIES = (((0.0, 1.0), (0.0, 0.0)), ((0.0, 0.0), (-0.0, -1.0)))


def move_entries(strategy: Strategy) -> tuple:
    """Entries of a strategy's move as `_move_entries` lays them out; Q gives diag(i, -i) exactly.

    A Strategy validated its angles when it was built, so they are not checked again.
    """
    if strategy.label == "Q":
        return _Q_ENTRIES
    return _move_entries(strategy.alpha, strategy.theta)


def named_strategy_matrix(strategy: Strategy) -> np.ndarray:
    """Move matrix for a strategy: the complex form of `move_entries`."""
    return _as_matrix(move_entries(strategy))


def _as_matrix(entries: tuple) -> np.ndarray:
    return np.array(entries, dtype=float).view(complex)[..., 0]


def entangler(gamma: float) -> np.ndarray:
    """Closed form of exp[i gamma/2 (D1 x D1)], a 4x4 unitary."""
    gamma = validate_gamma(gamma)
    return math.cos(gamma / 2.0) * np.eye(4, dtype=complex) + 1j * math.sin(gamma / 2.0) * np.kron(D1, D1)


def initial_state(gamma: float) -> np.ndarray:
    """Entangled start cos(gamma/2)|00> + i sin(gamma/2)|11> as a dim-4 vector."""
    gamma = validate_gamma(gamma)
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(gamma / 2.0)
    psi[3] = 1j * math.sin(gamma / 2.0)
    return psi
