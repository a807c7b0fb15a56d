"""Game pipeline: entangle, accelerate, move, disentangle, score.

Tracing region II out of the single-mode Rindler expansion of Bob's qubit is
the operator-sum channel with Kraus operators K0 = diag(cos r, 1) and
K1 = sin r |1><0| on his qubit, so the probability of outcome k is
sum_j |<k| J^dag (UA x UB)(I x K_j)|psi>|^2 with
|psi> = cos(gamma/2)|00> + i sin(gamma/2)|11>. Each amplitude vector is
handled as a 2x2 block Phi[a, b] over (Alice, Bob) bits, on which UA x UB acts
as UA Phi UB^T.

The engine is one formula, `_probabilities`, written out per outcome, with no
loop or list, in real arithmetic on each move's three real coordinates
(q0, q1, q3), where U = q0 I + i q1 X + i q3 Z, and one entry to it,
`play_entries`, which takes the moves as `game.move_entries` gives them.
On Python floats it makes no numpy call; that is how `play` scores a game.
On arrays, broadcast together, it scores whole grids of games in one call.
Each real operation rounds once, in the same order on floats and on arrays,
and the cos and sin of a Python-float gamma or r come from `math` in both, so
a game scores bit for bit the same through `play` as in any batch at the same
float gamma and r.

`final_density` and `payoffs` score one game from its 4x4 density matrix.
With `unruh.unruh_channel` (Rindler expansion, `unruh.partial_trace` of
region II) they are the reference the engine is tested against.

Expected payoffs weight the outcomes CC, CD, DC, DD with a classical payoff
table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import Strategy, entangler, move_entries, validate_gamma
from .game import named_strategy_matrix  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .game import initial_state  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import unruh_channel  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import validate_r

UNITARITY_TOL = 1e-9

PROFILE_ORDER = ("CC", "CD", "DC", "DD")

# Largest |entry| of a payoff table. The outcome probabilities sum to 1 plus a
# few ulps, so a four-term expected payoff of entries this size stays finite.
PAYOFF_ENTRY_MAX = sys.float_info.max / 4.0


class Payoffs(NamedTuple):
    alice: float
    bob: float


@dataclass(frozen=True)
class PayoffTable:
    """Classical payoff pairs (Alice, Bob) per joint outcome.

    Defaults are the usual Prisoner's Dilemma values: reward 3, sucker 0,
    temptation 5, punishment 1. Every entry must be a pair of finite numbers of
    magnitude at most `PAYOFF_ENTRY_MAX`; it is stored as a tuple of two Python
    floats, so tables hash, compare and score as floats whatever sequence of
    numbers they were given.
    """

    cc: tuple[float, float] = (3.0, 3.0)
    cd: tuple[float, float] = (0.0, 5.0)
    dc: tuple[float, float] = (5.0, 0.0)
    dd: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        for profile, pair in zip(PROFILE_ORDER, self.entries()):
            try:  # NaN fails the comparison; math.fabs refuses complex numbers, strings and None
                ok = len(pair) == 2 and math.fabs(pair[0]) <= PAYOFF_ENTRY_MAX and math.fabs(pair[1]) <= PAYOFF_ENTRY_MAX
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise ValueError(
                    "payoff entries must be pairs of finite numbers of magnitude at most "
                    f"{PAYOFF_ENTRY_MAX!r}, got {profile.lower()}={pair!r}"
                )
            if not (type(pair) is tuple and type(pair[0]) is float and type(pair[1]) is float):
                object.__setattr__(self, profile.lower(), (float(pair[0]), float(pair[1])))

    @classmethod
    def from_scalars(cls, reward: float, sucker: float, temptation: float, punishment: float) -> "PayoffTable":
        return cls(
            cc=(reward, reward),
            cd=(sucker, temptation),
            dc=(temptation, sucker),
            dd=(punishment, punishment),
        )

    def entries(self) -> tuple[tuple[float, float], ...]:
        return (self.cc, self.cd, self.dc, self.dd)


# The class itself, bound at import: benchmarks/tracer.py rebinds the name `PayoffTable` here to a wrapper function.
_PAYOFF_TABLE_TYPE = PayoffTable


@dataclass(frozen=True)
class GameSetup:
    gamma: float
    r: float
    table: PayoffTable

    def __init__(self, gamma: float, r: float, table: PayoffTable = PayoffTable()):
        object.__setattr__(self, "gamma", validate_gamma(gamma))
        object.__setattr__(self, "r", validate_r(r))
        if not isinstance(table, _PAYOFF_TABLE_TYPE):
            raise ValueError(f"table must be a PayoffTable, got {table!r}")
        object.__setattr__(self, "table", table)


def play(setup: GameSetup, alice: Strategy, bob: Strategy) -> Payoffs:
    """Expected payoffs for one strategy profile, scored on Python floats."""
    return play_entries(setup.gamma, setup.r, move_entries(alice), move_entries(bob), setup.table)


def play_entries(gamma, r, alice: tuple, bob: tuple, table: PayoffTable) -> Payoffs:
    """Expected payoffs of two moves given by their coordinates, as `game.move_entries` gives them.

    `gamma`, `r` and every coordinate are Python floats or arrays, all broadcast
    together; each payoff is a float or an array of the broadcast shape.
    Inputs are taken as valid: gamma in [0, pi/2], r in [0, pi/4], unitary moves.
    """
    # A Python-float angle takes its cos and sin from `math`, with no numpy call; an array angle from numpy.
    if isinstance(gamma, (float, int)):
        half = gamma / 2.0
        cos_g, sin_g = math.cos(half), math.sin(half)
    else:
        half = np.asarray(gamma, dtype=float) / 2.0
        cos_g, sin_g = np.cos(half), np.sin(half)
    if isinstance(r, (float, int)):
        cos_r, sin_r = math.cos(r), math.sin(r)
    else:
        cos_r, sin_r = np.cos(r), np.sin(r)
    return Payoffs(*_expected(_probabilities(alice, bob, cos_g, sin_g, cos_r, sin_r), table))


def _probabilities(a, b, cos_g, sin_g, cos_r, sin_r) -> tuple:
    """Probabilities of CC, CD, DC, DD for Alice's move coordinates `a` and Bob's `b`.

    Moves are given as `game.move_entries` gives them. Every value is a
    Python float or an array, all broadcast together. The formula is written
    out per outcome: only +, - and * are used, on real numbers, in the same
    order for both, and each rounds once, so a game scores bit for bit the
    same on floats as in any batch.
    """
    # (I x K0)|psi> = cos(g/2) cos r |00> + i sin(g/2) |11> and
    # (I x K1)|psi> = cos(g/2) sin r |01>. After the moves their blocks over
    # (Alice, Bob) bits are cos(g/2) cos r A0 B0^T + i sin(g/2) A1 B1^T (kept,
    # k_ij) and cos(g/2) sin r A0 B1^T (lost, l_ij), with Ak and Bk the k-th
    # columns of the moves [[q0 + i q3, i q1], [i q1, q0 - i q3]]. Each term is
    # the complex product with its zero parts dropped, which changes at most
    # the sign of a zero (squared away below), and its negations moved outward.
    a0, a1, a3 = a
    b0, b1, b3 = b
    a0b0, a0b1, a0b3 = a0 * b0, a0 * b1, a0 * b3
    a1b0, a1b1, a1b3 = a1 * b0, a1 * b1, a1 * b3
    a3b0, a3b1, a3b3 = a3 * b0, a3 * b1, a3 * b3
    c0, c1 = cos_g * cos_r, cos_g * sin_r
    s, t = a0b0 - a3b3, a0b3 + a3b0  # (a0 + i a3)(b0 + i b3) = s + i t, shared by k00 and k11
    k00r, k00i = c0 * s, c0 * t - sin_g * a1b1
    k01r, k01i = -c0 * a3b1 - sin_g * a1b0, c0 * a0b1 + sin_g * a1b3
    k10r, k10i = -c0 * a1b3 - sin_g * a0b1, c0 * a1b0 + sin_g * a3b1
    k11r, k11i = sin_g * t - c0 * a1b1, sin_g * s
    l00r, l00i = -c1 * a3b1, c1 * a0b1
    l01r, l01i = c1 * (a0b0 + a3b3), c1 * (a3b0 - a0b3)
    l10r = -c1 * a1b1  # l10 is real
    l11r, l11i = c1 * a1b3, c1 * a1b0
    # J^dag = cos(g/2) I - i sin(g/2) D1 x D1. D1 x D1 maps outcome 3 - k to
    # outcome k, with sign + for CC and DD and - for CD and DC.
    kr, ki = cos_g * k00r + sin_g * k11i, cos_g * k00i - sin_g * k11r
    lr, li = cos_g * l00r + sin_g * l11i, cos_g * l00i - sin_g * l11r
    p_cc = kr * kr + ki * ki + (lr * lr + li * li)
    kr, ki = cos_g * k01r - sin_g * k10i, cos_g * k01i + sin_g * k10r
    lr, li = cos_g * l01r, cos_g * l01i + sin_g * l10r
    p_cd = kr * kr + ki * ki + (lr * lr + li * li)
    kr, ki = cos_g * k10r - sin_g * k01i, cos_g * k10i + sin_g * k01r
    lr, li = cos_g * l10r - sin_g * l01i, sin_g * l01r
    p_dc = kr * kr + ki * ki + (lr * lr + li * li)
    kr, ki = cos_g * k11r + sin_g * k00i, cos_g * k11i - sin_g * k00r
    lr, li = cos_g * l11r + sin_g * l00i, cos_g * l11i - sin_g * l00r
    p_dd = kr * kr + ki * ki + (lr * lr + li * li)
    return p_cc, p_cd, p_dc, p_dd


def _expected(probs: tuple, table: PayoffTable) -> tuple:
    """(alice, bob) expected payoffs, each summed over the outcomes in CC, CD, DC, DD order, as in `payoffs`."""
    p_cc, p_cd, p_dc, p_dd = probs
    (a_cc, b_cc), (a_cd, b_cd), (a_dc, b_dc), (a_dd, b_dd) = table.entries()
    return (
        p_cc * a_cc + p_cd * a_cd + p_dc * a_dc + p_dd * a_dd,
        p_cc * b_cc + p_cd * b_cd + p_dc * b_dc + p_dd * b_dd,
    )


def final_density(rho: np.ndarray, u_alice: np.ndarray, u_bob: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the joint move and undo the entangler: J^dag (uA x uB) rho (.)^dag J."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    for name, u in (("alice", u_alice), ("bob", u_bob)):
        u = np.asarray(u, dtype=complex)
        # Negated <=, so that a NaN entry fails it too.
        if u.shape != (2, 2) or not np.abs(u.conj().T @ u - np.eye(2)).max() <= UNITARITY_TOL:
            raise ValueError(f"{name} move is not a 2x2 unitary")
    j = entangler(gamma)
    moves = np.kron(u_alice, u_bob)
    return j.conj().T @ moves @ rho @ moves.conj().T @ j


def payoffs(rho_final: np.ndarray, table: PayoffTable) -> Payoffs:
    """Diagonal-weighted expectation of the classical payoff table."""
    rho_final = np.asarray(rho_final, dtype=complex)
    if rho_final.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho_final.shape}")
    diag = np.real(np.diag(rho_final))
    alice = float(sum(pair[0] * p for pair, p in zip(table.entries(), diag)))
    bob = float(sum(pair[1] * p for pair, p in zip(table.entries(), diag)))
    return Payoffs(alice, bob)
