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
(q0, q1, q3), where U = q0 I + i q1 X + i q3 Z. gamma and r enter it only
through six coefficients, which `_coefficients` computes from the cos and
sin of gamma/2 and r. Its entry is `play_entries`, which takes the moves as
`Strategy.q` holds them and computes the coefficients once per call.
On Python floats it makes no numpy call and loads no numpy; that is how `play` scores a game.
On arrays, broadcast together, it scores whole grids of games in one call.
Its second caller, `_reply_scorer`, scores one player's moves against a fixed
opponent for `equilibrium.best_response`, with the coefficients and that
player's payoffs computed once per reply; it gives bit for bit what `play_entries` gives.
Each real operation rounds once, in the same order on floats and on arrays,
and the cos and sin of a Python-float gamma or r come from `math` in both, so
a game scores bit for bit the same through `play` as in any batch at the same
float gamma and r.

`final_density` and `payoffs` score one game from its 4x4 density matrix.
With `unruh.unruh_channel` (Bob's Rindler expansion, region II traced out of
that pure state) they are the reference the engine is tested against.

Expected payoffs weight the outcomes CC, CD, DC, DD with a classical payoff
table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .game import Strategy, entangler, safe_repr, validate_gamma
from .game import named_strategy_matrix  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .game import initial_state  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import unruh_channel  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import validate_r

UNITARITY_TOL = 1e-9

PROFILE_ORDER = ("CC", "CD", "DC", "DD")

# Largest |entry| of a payoff table. The outcome probabilities sum to 1 plus a
# few ulps, so a four-term expected payoff of entries this size stays finite.
PAYOFF_ENTRY_MAX = sys.float_info.max / 4.0
# The fixed start of `_payoff_pair`'s rejection message, formatted once: the repr of that bound is most of its cost.
_PAYOFF_PAIR_REJECTED = f"payoff entries must be pairs of finite numbers of magnitude at most {PAYOFF_ENTRY_MAX!r}, got "


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

    cc: tuple[float, float]
    cd: tuple[float, float]
    dc: tuple[float, float]
    dd: tuple[float, float]

    def __init__(
        self,
        cc: tuple[float, float] = (3.0, 3.0),
        cd: tuple[float, float] = (0.0, 5.0),
        dc: tuple[float, float] = (5.0, 0.0),
        dd: tuple[float, float] = (1.0, 1.0),
    ):
        # One item write per field to the instance dict: cheaper to build than `object.__setattr__` past the
        # frozen `__setattr__`, though on CPython 3.11 a written dict makes each later field read slower.
        fields = self.__dict__
        fields["cc"] = _payoff_pair("cc", cc)
        fields["cd"] = _payoff_pair("cd", cd)
        fields["dc"] = _payoff_pair("dc", dc)
        fields["dd"] = _payoff_pair("dd", dd)

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


def _payoff_pair(profile: str, pair) -> tuple[float, float]:
    """`pair` as a tuple of two Python floats, or ValueError if it is not two numbers within ±PAYOFF_ENTRY_MAX."""
    if type(pair) is tuple and len(pair) == 2:  # already two Python floats, as stored: kept as it is
        alice, bob = pair
        if type(alice) is float and type(bob) is float:
            if -PAYOFF_ENTRY_MAX <= alice <= PAYOFF_ENTRY_MAX and -PAYOFF_ENTRY_MAX <= bob <= PAYOFF_ENTRY_MAX:
                return pair
    # NaN fails the comparison; math.fabs refuses complex numbers, strings, None and a signaling NaN;
    # a mapping has no pair[0].
    try:
        ok = len(pair) == 2 and math.fabs(pair[0]) <= PAYOFF_ENTRY_MAX and math.fabs(pair[1]) <= PAYOFF_ENTRY_MAX
    except (TypeError, ValueError, OverflowError, LookupError):
        ok = False
    if not ok:
        raise ValueError(f"{_PAYOFF_PAIR_REJECTED}{profile}={safe_repr(pair)}")
    return (float(pair[0]), float(pair[1]))


# The class itself, bound at import: benchmarks/tracer.py rebinds the name `PayoffTable` here to a wrapper function.
_PAYOFF_TABLE_TYPE = PayoffTable


@dataclass(frozen=True)
class GameSetup:
    gamma: float
    r: float
    table: PayoffTable

    def __init__(self, gamma: float, r: float, table: PayoffTable = PayoffTable()):
        fields = self.__dict__
        fields["gamma"] = validate_gamma(gamma)
        fields["r"] = validate_r(r)
        if not isinstance(table, _PAYOFF_TABLE_TYPE):
            raise ValueError(f"table must be a PayoffTable, got {safe_repr(table)}")
        fields["table"] = table


def play(setup: GameSetup, alice: Strategy, bob: Strategy) -> Payoffs:
    """Expected payoffs for one strategy profile, scored on Python floats."""
    return play_entries(setup.gamma, setup.r, alice.q, bob.q, setup.table)


def play_entries(gamma, r, alice: tuple, bob: tuple, table: PayoffTable) -> Payoffs:
    """Expected payoffs of two moves given by their coordinates, as `Strategy.q` holds them.

    `gamma`, `r` and every coordinate are Python floats or arrays, all broadcast
    together; each payoff is a float or an array of the broadcast shape.
    Inputs are taken as valid: gamma in [0, pi/2], r in [0, pi/4], unitary moves.
    """
    # A Python-float angle takes its cos and sin from `math`, with no numpy call; an array angle from numpy.
    if isinstance(gamma, (float, int)):
        half = gamma / 2.0
        cos_g, sin_g = math.cos(half), math.sin(half)
    else:
        import numpy as np
        half = np.asarray(gamma, dtype=float) / 2.0
        cos_g, sin_g = np.cos(half), np.sin(half)
    if isinstance(r, (float, int)):
        cos_r, sin_r = math.cos(r), math.sin(r)
    else:
        import numpy as np
        cos_r, sin_r = np.cos(r), np.sin(r)
    return Payoffs(*_expected(_probabilities(alice, bob, _coefficients(cos_g, sin_g, cos_r, sin_r)), table))


def _coefficients(cos_g, sin_g, cos_r, sin_r) -> tuple:
    """The six numbers (P, M, S, T, e, f) through which gamma and r enter `_probabilities`.

    With c0 = cos(g/2) cos r and c1 = cos(g/2) sin r: P, M = cos(g/2) c0 +- sin^2(g/2),
    S, T = sin(g/2) (cos(g/2) +- c0), e = cos(g/2) c1 and f = sin(g/2) c1.
    `cos_g` and `sin_g` are the cos and sin of gamma/2, `cos_r` and `sin_r`
    those of r, all Python floats or arrays broadcast together. Only + - and *
    are used, so on floats and arrays they round alike, and at r = 0
    (cos_r = 1.0, sin_r = 0.0) T, e and f are exactly 0.0.
    """
    c0, c1 = cos_g * cos_r, cos_g * sin_r
    q, s2 = cos_g * c0, sin_g * sin_g
    return q + s2, q - s2, sin_g * (cos_g + c0), sin_g * (cos_g - c0), cos_g * c1, sin_g * c1


def _probabilities(a, b, coefficients) -> tuple:
    """Probabilities of CC, CD, DC, DD for Alice's move coordinates `a` and Bob's `b`.

    Moves are given as `Strategy.q` holds them, and gamma and r as
    `_coefficients` gives them. Every value is a Python float or an array,
    all broadcast together. The formula is written out per outcome: only +,
    - and * are used, on real numbers, in the same order for both, and each
    rounds once, so a game scores bit for bit the same on floats as in any batch.
    """
    # (I x K0)|psi> = cos(g/2) cos r |00> + i sin(g/2) |11> and
    # (I x K1)|psi> = cos(g/2) sin r |01>. After the moves their blocks over
    # (Alice, Bob) bits are cos(g/2) cos r A0 B0^T + i sin(g/2) A1 B1^T (kept)
    # and cos(g/2) sin r A0 B1^T (lost), with Ak and Bk the k-th columns of the
    # moves [[q0 + i q3, i q1], [i q1, q0 - i q3]]. J^dag = cos(g/2) I - i sin(g/2) D1 x D1
    # then mixes outcome k with outcome 3 - k. Multiplied out, each amplitude is a sum of
    # move products weighted by the coefficients: the same polynomial, expanded without
    # using cos^2 + sin^2 = 1. Overall signs are dropped: they are squared away.
    P, M, S, T, e, f = coefficients
    a0, a1, a3 = a
    b0, b1, b3 = b
    a0b0, a0b1, a0b3 = a0 * b0, a0 * b1, a0 * b3
    a1b0, a1b1, a1b3 = a1 * b0, a1 * b1, a1 * b3
    a3b0, a3b1, a3b3 = a3 * b0, a3 * b1, a3 * b3
    s, t = a0b0 - a3b3, a0b3 + a3b0  # (a0 + i a3)(b0 + i b3) = s + i t
    u, v = a0b0 + a3b3, a3b0 - a0b3  # (a0 + i a3)(b0 - i b3) = u + i v
    kr, ki = P * s, M * t - T * a1b1  # kept and lost amplitudes of each outcome, real and imaginary parts
    lr, li = f * a1b0 - e * a3b1, e * a0b1 - f * a1b3
    p_cc = kr * kr + ki * ki + (lr * lr + li * li)
    kr, ki = P * a3b1 + S * a1b0, M * a0b1 + T * a1b3
    lr, li = e * u, e * v - f * a1b1
    p_cd = kr * kr + ki * ki + (lr * lr + li * li)
    kr, ki = P * a1b3 + S * a0b1, M * a1b0 + T * a3b1
    lr, li = e * a1b1 + f * v, f * u
    p_dc = kr * kr + ki * ki + (lr * lr + li * li)
    kr, ki = S * t - P * a1b1, T * s
    lr, li = e * a1b3 + f * a0b1, e * a1b0 + f * a3b1
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


def _reply_scorer(gamma: float, r: float, opponent: tuple, player: int, table: PayoffTable):
    """`score(own)`: the payoff of `player` (0 Alice, 1 Bob) for own move coordinates against `opponent`'s.

    `gamma` and `r` are Python floats, and `score` takes Python floats or
    arrays of coordinates. It equals `play_entries(gamma, r, ..., table)[player]`
    with the moves in the players' order bit for bit: the cos and sin come
    from `math`, as `play_entries` takes them for a Python float, and the sum
    over the player's payoff column runs in `_expected`'s order. What does not
    change during a reply (the coefficients, the column, the opponent) is computed here once.
    """
    half = gamma / 2.0
    coefficients = _coefficients(math.cos(half), math.sin(half), math.cos(r), math.sin(r))
    w_cc, w_cd, w_dc, w_dd = (pair[player] for pair in table.entries())
    alice = player == 0

    def score(own):
        p_cc, p_cd, p_dc, p_dd = (
            _probabilities(own, opponent, coefficients) if alice else _probabilities(opponent, own, coefficients)
        )
        return p_cc * w_cc + p_cd * w_cd + p_dc * w_dc + p_dd * w_dd

    return score


def _density_4x4(rho) -> np.ndarray:
    """`rho` as a complex array, or ValueError if it is not 4x4 or has an entry that is not finite."""
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix entries must be finite")
    return rho


def final_density(rho: np.ndarray, u_alice: np.ndarray, u_bob: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the joint move and undo the entangler: J^dag (uA x uB) rho (.)^dag J."""
    import numpy as np
    rho = _density_4x4(rho)
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
    import numpy as np
    rho_final = _density_4x4(rho_final)
    diag = np.real(np.diag(rho_final))
    alice = float(sum(pair[0] * p for pair, p in zip(table.entries(), diag)))
    bob = float(sum(pair[1] * p for pair, p in zip(table.entries(), diag)))
    return Payoffs(alice, bob)
