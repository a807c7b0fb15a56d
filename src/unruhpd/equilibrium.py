"""Solution concepts over finite strategy sets plus a continuous best response.

Nash, dominance and Pareto classification are exhaustive deviation checks on
an explicit payoff table; the continuous search scores an (alpha, theta) grid
in one `play_batch` call and polishes the winner by coordinate descent on
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import Strategy, TWO_PI, _move_entries, move_entries, named_strategy_matrix
from .payoff import GameSetup, Payoffs, _play_entries, play_batch
from .payoff import play  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps it by name)

# Far above arithmetic noise, far below any payoff gap in this game.
DEVIATION_TOL = 1e-9

REFINE_MIN_STEP = 1e-6


def validate_strategy_set(strategies: list[Strategy]) -> list[Strategy]:
    if not strategies:
        raise ValueError("strategy set must not be empty")
    seen: set[tuple[float, float]] = set()
    for s in strategies:
        key = (s.alpha, s.theta)
        if key in seen:
            raise ValueError(f"duplicate strategy in set: {s}")
        seen.add(key)
    return list(strategies)


def payoff_table(setup: GameSetup, strategies: list[Strategy]) -> list[list[Payoffs]]:
    """Full |set| x |set| table; entry [i][j] plays strategies[i] vs strategies[j].

    All n^2 games are scored in one `play_batch` call, element-wise, so each
    entry equals `play` of that profile exactly.
    """
    strategies = validate_strategy_set(strategies)
    moves = np.stack([named_strategy_matrix(s) for s in strategies])
    scores = play_batch(setup.gamma, setup.r, moves[:, None], moves[None, :], setup.table)
    return [[Payoffs(*pair) for pair in row] for row in scores.tolist()]


def find_nash(table: list[list[Payoffs]]) -> list[tuple[int, int]]:
    """Index pairs where no unilateral deviation gains more than the tolerance."""
    n = _check_square(table)
    out = []
    for i in range(n):
        for j in range(n):
            alice_ok = all(table[k][j].alice <= table[i][j].alice + DEVIATION_TOL for k in range(n))
            bob_ok = all(table[i][k].bob <= table[i][j].bob + DEVIATION_TOL for k in range(n))
            if alice_ok and bob_ok:
                out.append((i, j))
    return out


def find_dominant(table: list[list[Payoffs]], player: str) -> tuple[int, str] | None:
    """Index of a strategy optimal against every opponent choice, with strictness.

    Returns (index, "strict") when it beats every alternative against every
    opponent move, (index, "weak") when never worse and somewhere better,
    None otherwise.
    """
    n = _check_square(table)
    _check_player("player", player)

    def against(own: int, opp: int) -> float:
        if player == "alice":
            return table[own][opp].alice
        return table[opp][own].bob

    for cand in range(n):
        strict = True
        weak = True
        somewhere_better = n == 1
        for alt in range(n):
            if alt == cand:
                continue
            for opp in range(n):
                gap = against(cand, opp) - against(alt, opp)
                if gap <= DEVIATION_TOL:
                    strict = False
                if gap < -DEVIATION_TOL:
                    weak = False
                if gap > DEVIATION_TOL:
                    somewhere_better = True
        if strict:
            return cand, "strict"
        if weak and somewhere_better:
            return cand, "weak"
    return None


def pareto_front(table: list[list[Payoffs]]) -> list[tuple[int, int]]:
    """Profiles not strictly improvable for both players at once.

    Payoffs within DEVIATION_TOL count as equal, so roundoff noise cannot
    make one of two tied profiles dominate the other.
    """
    n = _check_square(table)
    cells = [(i, j) for i in range(n) for j in range(n)]

    def dominated(cell: tuple[int, int]) -> bool:
        pa, pb = table[cell[0]][cell[1]]
        for other in cells:
            qa, qb = table[other[0]][other[1]]
            no_worse = qa >= pa - DEVIATION_TOL and qb >= pb - DEVIATION_TOL
            if no_worse and (qa > pa + DEVIATION_TOL or qb > pb + DEVIATION_TOL):
                return True
        return False

    return [cell for cell in cells if not dominated(cell)]


def set_best_responses(table: list[list[Payoffs]], responder: str) -> dict[int, int]:
    """Within-set argmax reply per opponent strategy.

    Scores within DEVIATION_TOL of the maximum count as tied and the lowest
    index wins, so roundoff noise cannot flip the reported reply.
    """
    n = _check_square(table)
    _check_player("responder", responder)
    out: dict[int, int] = {}
    for opp in range(n):
        if responder == "alice":
            scores = [table[i][opp].alice for i in range(n)]
        else:
            scores = [table[opp][j].bob for j in range(n)]
        top = max(scores)
        out[opp] = next(i for i in range(n) if scores[i] >= top - DEVIATION_TOL)
    return out


@dataclass
class EquilibriumReport:
    strategies: list[Strategy]
    table: list[list[Payoffs]]
    nash: list[tuple[int, int]]
    dominant_alice: tuple[int, str] | None
    dominant_bob: tuple[int, str] | None
    pareto: list[tuple[int, int]]
    best_responses_alice: dict[int, int]
    best_responses_bob: dict[int, int]


def analyze(setup: GameSetup, strategies: list[Strategy]) -> EquilibriumReport:
    table = payoff_table(setup, strategies)
    return EquilibriumReport(
        strategies=list(strategies),
        table=table,
        nash=find_nash(table),
        dominant_alice=find_dominant(table, "alice"),
        dominant_bob=find_dominant(table, "bob"),
        pareto=pareto_front(table),
        best_responses_alice=set_best_responses(table, "alice"),
        best_responses_bob=set_best_responses(table, "bob"),
    )


def best_response(
    setup: GameSetup,
    opponent: Strategy,
    responder: str,
    grid: int = 32,
    refine: int = 100,
) -> tuple[Strategy, float]:
    """Argmax reply over the whole (alpha, theta) move space.

    Grid scan over [0, 2*pi] x [0, pi] (inclusive endpoints), scored in one
    `play_batch` call, then coordinate descent from the best grid point with
    step halving until the step drops below 1e-6, each step scored on Python
    floats as `play` scores a game. Grid and steps agree bit for bit with
    per-game `play` calls. Deterministic: only strict improvements are
    accepted and grid ties resolve to the lexicographically smallest
    (alpha, theta).
    """
    for name, count in (("grid", grid), ("refine", refine)):
        if not isinstance(count, int):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if grid < 8:
        raise ValueError("grid must be at least 8 points per axis")
    if refine < 0:
        raise ValueError("refine must be >= 0")
    _check_player("responder", responder)

    player = 0 if responder == "alice" else 1

    def ordered(own, other):
        return (own, other) if player == 0 else (other, own)

    alpha_step = TWO_PI / (grid - 1)
    theta_step = math.pi / (grid - 1)
    alphas = [min(i * alpha_step, TWO_PI) for i in range(grid)]
    thetas = [min(j * theta_step, math.pi) for j in range(grid)]
    moves = ordered(_grid_moves(alphas, thetas), named_strategy_matrix(opponent))
    values = play_batch(setup.gamma, setup.r, *moves, setup.table)[..., player]
    # argmax takes the first maximum in row-major order: the smallest (alpha, theta).
    i, j = np.unravel_index(np.argmax(values), values.shape)
    best_alpha, best_theta, best_value = alphas[i], thetas[j], float(values[i, j])

    opponent_entries = move_entries(opponent)
    step_a, step_t = alpha_step, theta_step
    for _ in range(refine):
        if max(step_a, step_t) < REFINE_MIN_STEP:
            break
        improved = False
        for da, dt in ((-step_a, 0.0), (step_a, 0.0), (0.0, -step_t), (0.0, step_t)):
            alpha = min(max(best_alpha + da, 0.0), TWO_PI)
            theta = min(max(best_theta + dt, 0.0), math.pi)
            value = _play_entries(setup, *ordered(_move_entries(alpha, theta), opponent_entries))[player]
            if value > best_value:
                best_alpha, best_theta, best_value = alpha, theta, value
                improved = True
        if not improved:
            step_a /= 2.0
            step_t /= 2.0

    return Strategy(best_alpha, best_theta), best_value


def _grid_moves(alphas: list[float], thetas: list[float]) -> np.ndarray:
    """Stack whose entry [i, j] is `_move(alphas[i], thetas[j])`: the same `math` values and products."""
    cos_a, sin_a = (np.array([f(a) for a in alphas]) for f in (math.cos, math.sin))
    cos_t, sin_t = (np.array([f(t / 2.0) for t in thetas]) for f in (math.cos, math.sin))
    moves = np.zeros((len(alphas), len(thetas), 2, 2), dtype=complex)
    moves.real[..., 0, 0] = moves.real[..., 1, 1] = cos_a[:, None] * cos_t
    moves.imag[..., 0, 0] = sin_a[:, None] * cos_t
    moves.imag[..., 1, 1] = -moves.imag[..., 0, 0]
    moves.imag[..., 0, 1] = moves.imag[..., 1, 0] = sin_t
    return moves


def _check_square(table: list[list[Payoffs]]) -> int:
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise ValueError("payoff table must be square and nonempty")
    return n


def _check_player(name: str, player: str) -> None:
    if player not in ("alice", "bob"):
        raise ValueError(f"{name} must be 'alice' or 'bob', got {player!r}")
