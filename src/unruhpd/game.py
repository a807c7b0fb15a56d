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
    if 0.0 <= value <= upper:  # the common case; NaN fails it
        return value
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


# Angles (alpha, theta) of the named moves. Q is the diagonal phase move
# diag(i, -i); in the (alpha, theta) parametrization that matrix sits at (pi/2, 0).
_NAMED_ANGLES = {"C": (0.0, 0.0), "D": (0.0, math.pi), "Q": (math.pi / 2.0, 0.0), "M": (math.pi / 2.0, math.pi / 2.0)}


@dataclass(frozen=True)
class Strategy:
    """A two-parameter local move; named moves carry their one-letter label and angles."""

    alpha: float
    theta: float
    label: str = "custom"

    def __init__(self, alpha: float, theta: float, label: str = "custom"):
        alpha = clamp_to_domain(alpha, TWO_PI, "strategy alpha", "[0, 2*pi]")
        theta = clamp_to_domain(theta, math.pi, "strategy theta", "[0, pi]")
        # The label picks the move that `move_entries` scores, so it must agree with the angles.
        if label != "custom" and _NAMED_ANGLES.get(label) != (alpha, theta):
            raise ValueError(f"strategy label {label!r} does not name the move at alpha={alpha}, theta={theta}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "label", label)

    def __str__(self) -> str:
        if self.label != "custom":
            return self.label
        return f"{self.alpha:.17g},{self.theta:.17g}"


NAMED_STRATEGIES = {label: Strategy(*angles, label) for label, angles in _NAMED_ANGLES.items()}


def _move_entries(alpha: float, theta: float) -> tuple:
    """Coordinates (q0, q1, q3) of the move U(alpha, theta) = q0 I + i q1 X + i q3 Z."""
    return _trig_move_entries(math.cos(alpha), math.sin(alpha), math.cos(theta / 2.0), math.sin(theta / 2.0))


def _trig_move_entries(cos_a, sin_a, cos_t, sin_t) -> tuple:
    """`_move_entries` from cos and sin of alpha and of theta/2: floats, or arrays broadcast together."""
    return (cos_a * cos_t, sin_t, sin_a * cos_t)


_Q_ENTRIES = (0.0, 0.0, 1.0)  # diag(i, -i) = i Z


def move_entries(strategy: Strategy) -> tuple:
    """Coordinates of a strategy's move as `_move_entries` gives them; Q gives diag(i, -i) exactly.

    A Strategy validated its angles when it was built, so they are not checked again.
    """
    if strategy.label == "Q":
        return _Q_ENTRIES
    return _move_entries(strategy.alpha, strategy.theta)


def named_strategy_matrix(strategy: Strategy) -> np.ndarray:
    """Move matrix [[q0 + i q3, i q1], [i q1, q0 - i q3]] of a strategy's `move_entries`.

    A custom move is [[e^{ia} cos(t/2), i sin(t/2)], [i sin(t/2), e^{-ia} cos(t/2)]]; Q is diag(i, -i).
    """
    q0, q1, q3 = move_entries(strategy)
    return np.array([[complex(q0, q3), complex(0.0, q1)], [complex(0.0, q1), complex(q0, -q3)]])


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
