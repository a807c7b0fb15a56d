"""Solution concepts over finite strategy sets plus a continuous best response.

Nash, dominance and Pareto classification are exhaustive deviation checks on
an explicit payoff table, each entry scored by `play`. Nash, dominance and
within-set best replies read it through one player view, `_own_payoffs`, and
Nash and those replies share one tolerant reply rule, `_replies`. The
continuous search scores an (alpha, theta) grid and then each step of a
coordinate descent through `payoff.play_entries`, the engine entry behind
`play`: on arrays of move coordinates for the grid, on Python floats for the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import Strategy, TWO_PI, _move_entries, _trig_move_entries, move_entries
from .payoff import GameSetup, Payoffs, play, play_entries

# Far above arithmetic noise, far below any payoff gap in this game.
DEVIATION_TOL = 1e-9

# The best reply's search: grid points per axis, descent rounds, and the step below which it stops.
GRID_POINTS = 32
REFINE_ROUNDS = 100
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
    """Full |set| x |set| table; entry [i][j] is `play` of strategies[i] vs strategies[j]."""
    strategies = validate_strategy_set(strategies)
    return [[play(setup, a, b) for b in strategies] for a in strategies]


def find_nash(table: list[list[Payoffs]]) -> list[tuple[int, int]]:
    """Index pairs where no unilateral deviation gains more than the tolerance."""
    alice, bob = (_own_payoffs(table, player) for player in Payoffs._fields)
    n = len(alice)
    return [(i, j) for i in range(n) for j in range(n) if i in _replies(alice, j) and j in _replies(bob, i)]


def find_dominant(table: list[list[Payoffs]], player: str) -> tuple[int, str] | None:
    """Index of a strategy optimal against every opponent choice, with strictness.

    Returns (index, "strict") when it beats every alternative against every
    opponent move, (index, "weak") when never worse and somewhere better,
    None otherwise.
    """
    own = _own_payoffs(table, player)
    for cand, row in enumerate(own):
        gaps = [mine - theirs for alt, other in enumerate(own) if alt != cand for mine, theirs in zip(row, other)]
        if not any(gap <= DEVIATION_TOL for gap in gaps):
            return cand, "strict"
        if not any(gap < -DEVIATION_TOL for gap in gaps) and any(gap > DEVIATION_TOL for gap in gaps):
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
    own = _own_payoffs(table, responder, "responder")
    return {opp: _replies(own, opp)[0] for opp in range(len(own))}


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


def best_response(setup: GameSetup, opponent: Strategy, responder: str) -> tuple[Strategy, float]:
    """Argmax reply over the whole (alpha, theta) move space.

    Scans a GRID_POINTS x GRID_POINTS grid over [0, 2*pi] x [0, pi]
    (inclusive endpoints) in one `payoff.play_entries` call on arrays of
    move coordinates, then runs at most REFINE_ROUNDS rounds of coordinate
    descent from the best grid point, halving the step until it drops below
    REFINE_MIN_STEP; each step is one `play_entries` call on Python floats.
    Grid and steps agree bit for bit with per-game `play` calls.
    Deterministic: only strict improvements are accepted and grid ties
    resolve to the lexicographically smallest (alpha, theta).
    """
    player = _check_player("responder", responder)

    def ordered(own, other):
        return (own, other) if player == 0 else (other, own)

    alpha_step = TWO_PI / (GRID_POINTS - 1)
    theta_step = math.pi / (GRID_POINTS - 1)
    alphas = [min(i * alpha_step, TWO_PI) for i in range(GRID_POINTS)]
    thetas = [min(j * theta_step, math.pi) for j in range(GRID_POINTS)]
    # Per-axis cos and sin from `math`, as `_move_entries` takes them: each grid point is its move to the bit.
    cos_a, sin_a = (np.array([f(a) for a in alphas])[:, None] for f in (math.cos, math.sin))
    cos_t, sin_t = (np.array([f(t / 2.0) for t in thetas]) for f in (math.cos, math.sin))
    opponent_entries = move_entries(opponent)
    grid = _trig_move_entries(cos_a, sin_a, cos_t, sin_t)
    values = play_entries(setup.gamma, setup.r, *ordered(grid, opponent_entries), setup.table)[player]
    # argmax takes the first maximum in row-major order: the smallest (alpha, theta).
    i, j = np.unravel_index(np.argmax(values), values.shape)
    best_alpha, best_theta, best_value = alphas[i], thetas[j], float(values[i, j])

    step_a, step_t = alpha_step, theta_step
    for _ in range(REFINE_ROUNDS):
        if max(step_a, step_t) < REFINE_MIN_STEP:
            break
        improved = False
        for da, dt in ((-step_a, 0.0), (step_a, 0.0), (0.0, -step_t), (0.0, step_t)):
            alpha = min(max(best_alpha + da, 0.0), TWO_PI)
            theta = min(max(best_theta + dt, 0.0), math.pi)
            move = _move_entries(alpha, theta)
            value = play_entries(setup.gamma, setup.r, *ordered(move, opponent_entries), setup.table)[player]
            if value > best_value:
                best_alpha, best_theta, best_value = alpha, theta, value
                improved = True
        if not improved:
            step_a /= 2.0
            step_t /= 2.0

    return Strategy(best_alpha, best_theta), best_value


def _own_payoffs(table: list[list[Payoffs]], player: str, name: str = "player") -> list[list[float]]:
    """One player's view of the table: entry [own][opp] is their payoff for move own against move opp.

    Alice owns the table's rows and Bob its columns; no other code reads that orientation.
    """
    _check_square(table)
    index = _check_player(name, player)
    rows = table if index == 0 else list(zip(*table))
    return [[cell[index] for cell in row] for row in rows]


def _replies(own: list[list[float]], opp: int) -> list[int]:
    """Own moves scoring within DEVIATION_TOL of the best reply to `opp`, lowest index first."""
    scores = [row[opp] for row in own]
    top = max(scores)
    return [k for k, v in enumerate(scores) if top <= v + DEVIATION_TOL]


def _check_square(table: list[list[Payoffs]]) -> int:
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise ValueError("payoff table must be square and nonempty")
    return n


def _check_player(name: str, player: str) -> int:
    """The player's index in `Payoffs`, whose field order names the players."""
    if player not in Payoffs._fields:
        raise ValueError(f"{name} must be {' or '.join(map(repr, Payoffs._fields))}, got {player!r}")
    return Payoffs._fields.index(player)
