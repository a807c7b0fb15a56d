"""Strategy space and initial-state preparation for the quantized Prisoner's Dilemma.

The game starts from |00> shared by Alice (most significant qubit) and Bob.
An entangling unitary J(gamma) = cos(gamma/2) I + i sin(gamma/2) (D1 x D1)
prepares cos(gamma/2)|00> + i sin(gamma/2)|11>; each player then applies a
local move U(alpha, theta), and J is undone before measurement. A Strategy is
its two angles; at a named move's angles it is that move; its coordinates `q` are derived state, not a field.
Strategies and move coordinates are Python floats: on them it makes no numpy call and loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
GAMMA_MAX = math.pi / 2.0

# Decimal-rounded endpoint literals (e.g. 1.5707963) must not be rejected.
EDGE_SLACK = 1e-6

# Generator of the entangling operation.
D1 = ((0j, 1 + 0j), (-1 + 0j, 0j))


def is_finite(value) -> bool:
    """`math.isfinite`, but False for a value that is no real number, that overflows a float or that is a signaling NaN."""
    try:
        return math.isfinite(value)
    except (TypeError, ValueError, OverflowError):
        return False


def safe_repr(value) -> str:
    """`repr(value)` for an error message, or its type's name where repr raises (an int of more than 4300 digits)."""
    try:
        return repr(value)
    except Exception:  # any repr may raise; the message it goes into must not
        return f"<unprintable {type(value).__name__}>"


def clamp_to_domain(value: float, upper: float, name: str, span: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must lie in {span}, got {safe_repr(value)}") from None
    if 0.0 <= value <= upper:  # the common case; NaN fails it
        return value
    if not math.isfinite(value) or value < -EDGE_SLACK or value > upper + EDGE_SLACK:
        raise ValueError(f"{name} must lie in {span}, got {value}")
    return min(max(value, 0.0), upper)


def validate_gamma(gamma: float) -> float:
    return clamp_to_domain(gamma, GAMMA_MAX, "entanglement gamma", "[0, pi/2]")


# Angles (alpha, theta) of the named moves, and their names by angles. Q is the diagonal phase move
# diag(i, -i); in the (alpha, theta) parametrization that matrix sits at (pi/2, 0).
_NAMED_ANGLES = {"C": (0.0, 0.0), "D": (0.0, math.pi), "Q": (math.pi / 2.0, 0.0), "M": (math.pi / 2.0, math.pi / 2.0)}
_NAMES = {angles: label for label, angles in _NAMED_ANGLES.items()}
_Q_ALPHA = math.pi / 2.0
_Q_ENTRIES = (0.0, 0.0, 1.0)  # diag(i, -i) = i Z


def _move_entries(alpha: float, theta: float) -> tuple:
    """Coordinates (q0, q1, q3) of the move U(alpha, theta) = q0 I + i q1 X + i q3 Z; Q's are exact, not rounded."""
    if theta == 0.0 and alpha == _Q_ALPHA:
        return _Q_ENTRIES
    cos_t = math.cos(theta / 2.0)
    return (math.cos(alpha) * cos_t, math.sin(theta / 2.0), math.sin(alpha) * cos_t)


@dataclass(frozen=True)
class Strategy:
    """A two-parameter local move U(alpha, theta), nothing more: at a named move's angles it is that move.

    Its coordinates `q` = (q0, q1, q3) are derived state set in `__init__`, omitted by `fields`, `asdict`, repr, == and hash.
    """

    alpha: float
    theta: float

    def __init__(self, alpha: float, theta: float):
        alpha = clamp_to_domain(alpha, TWO_PI, "strategy alpha", "[0, 2*pi]")
        theta = clamp_to_domain(theta, math.pi, "strategy theta", "[0, pi]")
        # One item write per attribute to the instance dict: cheaper to build than `object.__setattr__` past the
        # frozen `__setattr__`, though on CPython 3.11 a written dict makes each later field read slower.
        fields = self.__dict__
        fields["alpha"] = alpha
        fields["theta"] = theta
        fields["q"] = _move_entries(alpha, theta)

    def __setstate__(self, state: dict) -> None:
        # Through `__init__`: the angles are checked again and `q` is set, also for an old pickle; its label is ignored.
        self.__init__(state["alpha"], state["theta"])

    def __str__(self) -> str:
        return _NAMES.get((self.alpha, self.theta)) or f"{self.alpha:.17g},{self.theta:.17g}"


NAMED_STRATEGIES = {label: Strategy(*angles) for label, angles in _NAMED_ANGLES.items()}


def named_strategy_matrix(strategy: Strategy) -> np.ndarray:
    """Move matrix [[q0 + i q3, i q1], [i q1, q0 - i q3]] of a strategy's coordinates `Strategy.q`.

    A custom move is [[e^{ia} cos(t/2), i sin(t/2)], [i sin(t/2), e^{-ia} cos(t/2)]]; Q is diag(i, -i).
    """
    import numpy as np
    q0, q1, q3 = strategy.q
    return np.array([[complex(q0, q3), complex(0.0, q1)], [complex(0.0, q1), complex(q0, -q3)]])


def entangler(gamma: float) -> np.ndarray:
    """Closed form of exp[i gamma/2 (D1 x D1)], a 4x4 unitary."""
    import numpy as np
    gamma = validate_gamma(gamma)
    return math.cos(gamma / 2.0) * np.eye(4, dtype=complex) + 1j * math.sin(gamma / 2.0) * np.kron(D1, D1)


def initial_state(gamma: float) -> np.ndarray:
    """Entangled start cos(gamma/2)|00> + i sin(gamma/2)|11> as a dim-4 vector."""
    import numpy as np
    gamma = validate_gamma(gamma)
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(gamma / 2.0)
    psi[3] = 1j * math.sin(gamma / 2.0)
    return psi
