"""Independent Kraus-form reference for the game, used to check the engine.

Written from the protocol's definition and sharing no code with the engine:
start from cos(g/2)|00> + i sin(g/2)|11> (Alice most significant), degrade
Bob's qubit with the Kraus operators K0 = diag(cos r, 1) and K1 = sin r |1><0|,
apply UA x UB, undo J(g) = cos(g/2) I + i sin(g/2) D1 x D1 and read the
diagonal. A move U(alpha, theta) is q0 I + i q1 X + i q3 Z with
q = (cos(theta/2) cos(alpha), sin(theta/2), cos(theta/2) sin(alpha)).
Every function works on whole arrays of games at once.
"""

from __future__ import annotations

import numpy as np

# Classical payoff pairs (alice, bob) for the outcomes CC, CD, DC, DD.
DEFAULT_TABLE = np.array([[3.0, 3.0], [0.0, 5.0], [5.0, 0.0], [1.0, 1.0]])

_D1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_D1D1 = np.kron(_D1, _D1)

# Unit vectors whose payoffs fix a real quadratic form on R^3 by polarization.
_POLAR_QS = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
    ]
)
_POLAR_QS /= np.linalg.norm(_POLAR_QS, axis=1, keepdims=True)
_PAIRS = ((0, 1, 3), (0, 2, 4), (1, 2, 5))


def move_from_q(q: np.ndarray) -> np.ndarray:
    """(..., 2, 2) moves q0 I + i q1 X + i q3 Z from (..., 3) vectors q."""
    q0, q1, q3 = q[..., 0], q[..., 1], q[..., 2]
    u = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = q0 + 1j * q3
    u[..., 0, 1] = 1j * q1
    u[..., 1, 0] = 1j * q1
    u[..., 1, 1] = q0 - 1j * q3
    return u


def q_from_angles(alpha, theta) -> np.ndarray:
    alpha, theta = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(theta, dtype=float))
    c = np.cos(theta / 2.0)
    return np.stack([c * np.cos(alpha), np.sin(theta / 2.0), c * np.sin(alpha)], axis=-1)


def move(alpha, theta) -> np.ndarray:
    return move_from_q(q_from_angles(alpha, theta))


def outcome_probabilities(gamma, r, u_alice: np.ndarray, u_bob: np.ndarray) -> np.ndarray:
    """(N, 4) probabilities of CC, CD, DC, DD for N games."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    n = np.broadcast_shapes(gamma.shape, r.shape, u_alice.shape[:-2], u_bob.shape[:-2])[0]
    cg, sg = np.cos(gamma / 2.0), np.sin(gamma / 2.0)
    psi = np.zeros((n, 4), dtype=complex)
    psi[:, 0] = cg
    psi[:, 3] = 1j * sg
    kraus = np.zeros((2, n, 2, 2), dtype=complex)
    kraus[0, :, 0, 0] = np.cos(r)
    kraus[0, :, 1, 1] = 1.0
    kraus[1, :, 1, 0] = np.sin(r)
    eye2 = np.eye(2)
    moves = np.einsum("nac,nbd->nabcd", np.broadcast_to(u_alice, (n, 2, 2)), np.broadcast_to(u_bob, (n, 2, 2)))
    moves = moves.reshape(n, 4, 4)
    j_dag = cg[:, None, None] * np.eye(4) - 1j * sg[:, None, None] * _D1D1
    total = j_dag @ moves
    probs = np.zeros((n, 4))
    for k in kraus:
        on_bob = np.einsum("ac,nbd->nabcd", eye2, k).reshape(n, 4, 4)
        phi = np.einsum("nij,nj->ni", total @ on_bob, psi)
        probs += np.abs(phi) ** 2
    return probs


def play(gamma, r, u_alice, u_bob, table: np.ndarray = DEFAULT_TABLE) -> np.ndarray:
    """(N, 2) expected (alice, bob) payoffs."""
    return outcome_probabilities(gamma, r, u_alice, u_bob) @ table


def best_reply_values(gamma, r, u_opponent: np.ndarray, responder_is_alice: np.ndarray) -> np.ndarray:
    """Exact best-reply payoff for each of N (gamma, r, opponent, responder) tasks.

    The responder's payoff is a real quadratic form q^T A q in its move
    vector q, so its maximum over the unit sphere (every move) is the top
    eigenvalue of A. A is built by polarization from six payoff evaluations.
    """
    gamma = np.asarray(gamma, dtype=float)
    r = np.asarray(r, dtype=float)
    alice = np.asarray(responder_is_alice, dtype=bool)
    n = len(gamma)
    own = np.broadcast_to(move_from_q(_POLAR_QS), (n, 6, 2, 2)).reshape(n * 6, 2, 2)
    opp = np.repeat(u_opponent, 6, axis=0)
    rep_alice = np.repeat(alice, 6)
    u_alice = np.where(rep_alice[:, None, None], own, opp)
    u_bob = np.where(rep_alice[:, None, None], opp, own)
    payoffs = play(np.repeat(gamma, 6), np.repeat(r, 6), u_alice, u_bob)
    f = np.where(rep_alice, payoffs[:, 0], payoffs[:, 1]).reshape(n, 6)
    a = np.zeros((n, 3, 3))
    for i in range(3):
        a[:, i, i] = f[:, i]
    for i, j, k in _PAIRS:
        a[:, i, j] = a[:, j, i] = f[:, k] - 0.5 * (f[:, i] + f[:, j])
    return np.linalg.eigvalsh(a)[:, -1]
