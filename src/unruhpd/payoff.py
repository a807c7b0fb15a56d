"""Game pipeline: entangle, accelerate, move, disentangle, score.

Tracing region II out of the single-mode Rindler expansion of Bob's qubit is
the operator-sum channel with Kraus operators K0 = diag(cos r, 1) and
K1 = sin r |1><0| on his qubit, so the probability of outcome k is
sum_j |<k| J^dag (UA x UB)(I x K_j)|psi>|^2 with
|psi> = cos(gamma/2)|00> + i sin(gamma/2)|11>. Each amplitude vector is
handled as a 2x2 block Phi[a, b] over (Alice, Bob) bits, on which UA x UB acts
as UA Phi UB^T.

The engine is one formula, `_probabilities`, written in real arithmetic on
the real and imaginary parts of the move entries. `play` evaluates it on
Python floats, with no numpy call; `outcome_probabilities` and `play_batch`
evaluate the same text on whole arrays of games. Each real operation rounds
once, in the same order on floats and on arrays, and the cos and sin of a
Python-float gamma or r come from `math` in both, so a game scores bit for
bit the same through `play` as in any batch at the same float gamma and r.

`final_density` and `payoffs` score one game from its 4x4 density matrix.
With `unruh.unruh_channel` (Rindler expansion, `unruh.partial_trace` of
region II) they are the reference the engine is tested against.

Expected payoffs weight the outcomes CC, CD, DC, DD with a classical payoff
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .game import Strategy, entangler, move_entries, validate_gamma
from .game import named_strategy_matrix  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .game import initial_state  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import unruh_channel  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import validate_r

UNITARITY_TOL = 1e-9

PROFILE_ORDER = ("CC", "CD", "DC", "DD")


class Payoffs(NamedTuple):
    alice: float
    bob: float


@dataclass(frozen=True)
class PayoffTable:
    """Classical payoff pairs (Alice, Bob) per joint outcome.

    Defaults are the usual Prisoner's Dilemma values: reward 3, sucker 0,
    temptation 5, punishment 1. Every entry must be finite.
    """

    cc: tuple[float, float] = (3.0, 3.0)
    cd: tuple[float, float] = (0.0, 5.0)
    dc: tuple[float, float] = (5.0, 0.0)
    dd: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        for profile, pair in zip(PROFILE_ORDER, self.entries()):
            if not all(math.isfinite(value) for value in pair):
                raise ValueError(f"payoff entries must be finite, got {profile.lower()}={pair}")

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


@dataclass(frozen=True)
class GameSetup:
    gamma: float
    r: float
    table: PayoffTable = field(default_factory=PayoffTable)

    def __post_init__(self):
        object.__setattr__(self, "gamma", validate_gamma(self.gamma))
        object.__setattr__(self, "r", validate_r(self.r))


def outcome_probabilities(gamma, r, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """Probabilities of the outcomes CC, CD, DC, DD, shape (..., 4).

    `gamma` and `r` are scalars or arrays, `u_alice` and `u_bob` 2x2 moves or
    stacks of them, all broadcast against each other. Inputs are taken as
    valid: gamma in [0, pi/2], r in [0, pi/4], unitary moves.
    """
    return np.stack(_outcomes(gamma, r, u_alice, u_bob), axis=-1)


def play_batch(gamma, r, u_alice: np.ndarray, u_bob: np.ndarray, table: PayoffTable) -> np.ndarray:
    """Expected (alice, bob) payoffs, shape (..., 2); arguments as in `outcome_probabilities`."""
    return np.stack(_expected(_outcomes(gamma, r, u_alice, u_bob), table), axis=-1)


def play(setup: GameSetup, alice: Strategy, bob: Strategy) -> Payoffs:
    """Expected payoffs for one strategy profile, scored on Python floats."""
    return _play_entries(setup, move_entries(alice), move_entries(bob))


def _play_entries(setup: GameSetup, alice: tuple, bob: tuple) -> Payoffs:
    """`play` for two moves given by their entries, laid out as `game.move_entries` gives them."""
    half = setup.gamma / 2.0
    probs = _probabilities(alice, bob, math.cos(half), math.sin(half), math.cos(setup.r), math.sin(setup.r))
    return Payoffs(*_expected(probs, setup.table))


def _outcomes(gamma, r, u_alice: np.ndarray, u_bob: np.ndarray) -> tuple:
    """`_probabilities` on views of the move stacks' entries."""
    if not isinstance(gamma, (float, int)):
        gamma = np.asarray(gamma, dtype=float)
    cos_g, sin_g = _cos_sin(gamma / 2.0)
    cos_r, sin_r = _cos_sin(r)
    return _probabilities(_entries(u_alice), _entries(u_bob), cos_g, sin_g, cos_r, sin_r)


def _cos_sin(angle) -> tuple:
    """cos and sin of a Python float through `math`, the values `play` takes, on any host; of an array through numpy."""
    if isinstance(angle, (float, int)):
        return math.cos(angle), math.sin(angle)
    angle = np.asarray(angle, dtype=float)
    return np.cos(angle), np.sin(angle)


def _entries(u: np.ndarray) -> tuple:
    """Entries of a move stack laid out as `game.move_entries` gives them, as views of shape u.shape[:-2]."""
    u = np.asarray(u, dtype=complex)
    return tuple(tuple((u[..., i, k].real, u[..., i, k].imag) for k in (0, 1)) for i in (0, 1))


def _probabilities(a, b, cos_g, sin_g, cos_r, sin_r) -> tuple:
    """Probabilities of CC, CD, DC, DD for Alice's move entries `a` and Bob's `b`.

    Moves are laid out as `game.move_entries` gives them. Every value is a
    Python float or an array, all broadcast together. Only +, - and * are
    used, on real numbers, in the same order for both, and each rounds once,
    so a game scores bit for bit the same on floats as in any batch.
    """
    # (I x K0)|psi> = cos(g/2) cos r |00> + i sin(g/2) |11> and
    # (I x K1)|psi> = cos(g/2) sin r |01>. After the moves their blocks over
    # (Alice, Bob) bits are cos(g/2) cos r A0 B0^T + i sin(g/2) A1 B1^T and
    # cos(g/2) sin r A0 B1^T, with Ak and Bk the k-th columns of the moves.
    # Entries are listed in outcome order, as (real, imaginary) pairs.
    c0 = cos_g * cos_r
    c1 = cos_g * sin_r
    kept, lost = [], []
    for (a0r, a0i), (a1r, a1i) in a:
        for (b0r, b0i), (b1r, b1i) in b:
            a1b1_r = a1r * b1r - a1i * b1i
            a1b1_i = a1r * b1i + a1i * b1r
            kept.append(
                (
                    c0 * (a0r * b0r - a0i * b0i) - sin_g * a1b1_i,
                    c0 * (a0r * b0i + a0i * b0r) + sin_g * a1b1_r,
                )
            )
            lost.append((c1 * (a0r * b1r - a0i * b1i), c1 * (a0r * b1i + a0i * b1r)))
    # J^dag = cos(g/2) I - i sin(g/2) D1 x D1. D1 x D1 maps outcome 3 - k to
    # outcome k, with sign + for CC and DD and - for CD and DC.
    probs = []
    for k, plus in enumerate((True, False, False, True)):
        squares = []
        for block in (kept, lost):
            (mr, mi), (nr, ni) = block[k], block[3 - k]
            if plus:
                fr, fi = cos_g * mr + sin_g * ni, cos_g * mi - sin_g * nr
            else:
                fr, fi = cos_g * mr - sin_g * ni, cos_g * mi + sin_g * nr
            squares.append(fr * fr + fi * fi)
        probs.append(squares[0] + squares[1])
    return tuple(probs)


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
