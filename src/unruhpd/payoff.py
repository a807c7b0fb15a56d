"""Game pipeline: entangle, accelerate, move, disentangle, score.

Games are scored by `outcome_probabilities`, which works on whole arrays of
games at once. Tracing region II out of the single-mode Rindler expansion of
Bob's qubit is the operator-sum channel with Kraus operators
K0 = diag(cos r, 1) and K1 = sin r |1><0| on his qubit, so the probability of
outcome k is sum_j |<k| J^dag (UA x UB)(I x K_j)|psi>|^2 with
|psi> = cos(gamma/2)|00> + i sin(gamma/2)|11>. Each amplitude vector is
handled as a 2x2 block Phi[a, b] over (Alice, Bob) bits, on which UA x UB acts
as UA Phi UB^T.

`final_density` and `payoffs` score one game from its 4x4 density matrix.
With `unruh.unruh_channel` (Rindler expansion, `unruh.partial_trace` of
region II) they are the reference the engine is tested against.

Expected payoffs weight the outcomes CC, CD, DC, DD with a classical payoff
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .game import Strategy, entangler, named_strategy_matrix, validate_gamma
from .game import initial_state  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import unruh_channel  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)
from .unruh import validate_r

UNITARITY_TOL = 1e-9

PROFILE_ORDER = ("CC", "CD", "DC", "DD")

# D1 x D1 maps the amplitude block [[M00, M01], [M10, M11]] to
# [[M11, -M10], [-M01, M00]]: reverse both axes, then apply these signs.
# Stored times i, the factor it carries in J^dag.
_I_FLIP_SIGNS = np.array([[1j, -1j], [-1j, 1j]])


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

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only (4, 2) array: rows CC, CD, DC, DD; columns Alice, Bob."""
        m = np.array(self.entries(), dtype=float)
        m.flags.writeable = False
        return m


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
    valid: gamma in [0, pi/2], r in [0, pi/4], unitary moves. Only
    element-wise operations are used, so a game scores the same in a batch
    as on its own.
    """
    gamma = np.asarray(gamma, dtype=float)[..., None, None]
    r = np.asarray(r, dtype=float)[..., None, None]
    half = gamma / 2.0
    cos_g, sin_g = np.cos(half), np.sin(half)
    # Columns 0 and 1 of each move, laid out so that products are outer products.
    a0, a1 = u_alice[..., :, 0, None], u_alice[..., :, 1, None]
    b0, b1 = u_bob[..., None, :, 0], u_bob[..., None, :, 1]
    # (I x K0)|psi> = cos(g/2) cos r |00> + i sin(g/2) |11> and
    # (I x K1)|psi> = cos(g/2) sin r |01>; their blocks after the moves:
    branches = (
        (cos_g * np.cos(r)) * (a0 * b0) + sin_g * (a1 * (1j * b1)),
        (cos_g * np.sin(r)) * (a0 * b1),
    )
    probs = 0.0
    for m in branches:
        # J^dag = cos(g/2) I - i sin(g/2) D1 x D1.
        f = cos_g * m - sin_g * (_I_FLIP_SIGNS * m[..., ::-1, ::-1])
        probs = probs + (f.real**2 + f.imag**2)
    return probs.reshape(probs.shape[:-2] + (4,))


def play_batch(gamma, r, u_alice: np.ndarray, u_bob: np.ndarray, table: PayoffTable) -> np.ndarray:
    """Expected (alice, bob) payoffs, shape (..., 2); arguments as in `outcome_probabilities`.

    The sum runs over the outcomes in order, as in `payoffs`.
    """
    return (outcome_probabilities(gamma, r, u_alice, u_bob)[..., None] * table.matrix).sum(axis=-2)


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


def play(setup: GameSetup, alice: Strategy, bob: Strategy) -> Payoffs:
    """Expected payoffs for one strategy profile: `play_batch` for a single game."""
    u_alice, u_bob = named_strategy_matrix(alice), named_strategy_matrix(bob)
    return Payoffs(*play_batch(setup.gamma, setup.r, u_alice, u_bob, setup.table).tolist())
