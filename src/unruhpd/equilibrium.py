"""Solution concepts over finite strategy sets plus a continuous best response.

Nash, dominance and Pareto classification are exhaustive deviation checks on
an explicit payoff table, each entry scored by `play`. Nash, dominance and
within-set best replies read it through one player view, `_own_payoffs`, and
Nash and those replies share one tolerant reply rule, `_replies`. The
continuous search finds the best point of an (alpha, theta) grid and then
refines it by coordinate descent, scoring through one `payoff._reply_scorer`
per reply, which gives what `payoff.play_entries` gives with the trig and the
responder's payoffs read once. The grid is prefiltered through the
responder's quadratic form, `_reply_form`, so the scorer sees only the grid
points near the form's maximum, and no point twice.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

from .game import Strategy, TWO_PI, _move_entries, is_finite, move_entries, safe_repr
from .payoff import GameSetup, Payoffs, _reply_scorer, play

# Far above arithmetic noise, far below any payoff gap in this game.
DEVIATION_TOL = 1e-9

# The best reply's search: grid points per axis, descent rounds, and the step below which it stops.
GRID_POINTS = 32
REFINE_ROUNDS = 100
REFINE_MIN_STEP = 1e-6
# At most this many grid candidates are scored one by one on Python floats; more are scored on arrays.
FEW_CANDIDATES = 16

# The class itself, bound at import: benchmarks/tracer.py rebinds the name `Strategy` here to a wrapper function.
_STRATEGY_TYPE = Strategy


def validate_strategy_set(strategies: Iterable[Strategy]) -> list[Strategy]:
    """The strategies as a new list, read once, so an iterator gives what its list gives."""
    strategies = list(strategies or ())  # None and an empty container are refused as empty, below
    if not strategies:
        raise ValueError("strategy set must not be empty")
    seen: set[tuple[float, float]] = set()
    for s in strategies:
        if not isinstance(s, _STRATEGY_TYPE):
            raise ValueError(f"strategy set members must be Strategy objects, got {safe_repr(s)}")
        key = (s.alpha, s.theta)
        if key in seen:
            raise ValueError(f"duplicate strategy in set: {s}")
        seen.add(key)
    return strategies


def payoff_table(setup: GameSetup, strategies: Iterable[Strategy]) -> list[list[Payoffs]]:
    """Full |set| x |set| table; entry [i][j] is `play` of strategies[i] vs strategies[j]."""
    _check_setup(setup)
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
    table = _check_square(table)
    n = len(table)
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


def analyze(setup: GameSetup, strategies: Iterable[Strategy]) -> EquilibriumReport:
    strategies = validate_strategy_set(strategies)
    table = payoff_table(setup, strategies)
    return EquilibriumReport(
        strategies=strategies,
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

    Takes the first maximum, in row-major order, of the payoff over the
    GRID_POINTS x GRID_POINTS grid of `_search_grid` over [0, 2*pi] x [0, pi]
    (inclusive endpoints), then runs at most REFINE_ROUNDS rounds of coordinate
    descent from it, halving the step until it drops below REFINE_MIN_STEP.
    Every payoff is a call of the reply's `payoff._reply_scorer`, which gives
    what `payoff.play_entries` gives, so grid and steps agree bit for bit with `play`.
    Only the grid's `_candidates` under the responder's quadratic form are scored:
    on Python floats when at most FEW_CANDIDATES, else on arrays. The descent
    scores each (alpha, theta) once: a point scored before never beats the best.
    Deterministic: only strict improvements are accepted and grid ties
    resolve to the lexicographically smallest (alpha, theta).
    """
    player = _check_player("responder", responder)
    _check_setup(setup)
    if not isinstance(opponent, _STRATEGY_TYPE):
        raise ValueError(f"opponent must be a Strategy, got {safe_repr(opponent)}")
    score = _reply_scorer(setup.gamma, setup.r, move_entries(opponent), player, setup.table)
    alphas, thetas, grid = _search_grid()
    weight = max(abs(pair[player]) for pair in setup.table.entries())
    candidates = _candidates(_reply_form(score), weight)
    if len(candidates) <= FEW_CANDIDATES:
        best, best_value = -1, -math.inf
        for k in candidates.tolist():
            value = score(_move_entries(alphas[k // GRID_POINTS], thetas[k % GRID_POINTS]))  # the grid's point k
            if value > best_value:  # the first maximum in row-major order: the smallest (alpha, theta)
                best, best_value = k, value
    else:
        import numpy as np
        values = score(tuple(axis.reshape(-1)[candidates] for axis in grid))
        at = int(np.argmax(values))  # the first maximum, as above
        best, best_value = int(candidates[at]), float(values[at])
    i, j = divmod(best, GRID_POINTS)
    best_alpha, best_theta = alphas[i], thetas[j]

    # Each scored (alpha, theta) as one complex, equal exactly when both angles are: it keeps a quarter of the
    # memory of a tuple and its two floats, which matters to the benchmark's peak RSS.
    seen = {complex(best_alpha, best_theta)}
    step_a, step_t = alphas[1], thetas[1]  # the grid's spacing
    for _ in range(REFINE_ROUNDS):
        if max(step_a, step_t) < REFINE_MIN_STEP:
            break
        improved = False
        for da, dt in ((-step_a, 0.0), (step_a, 0.0), (0.0, -step_t), (0.0, step_t)):
            alpha = min(max(best_alpha + da, 0.0), TWO_PI)
            theta = min(max(best_theta + dt, 0.0), math.pi)
            point = complex(alpha, theta)
            if point in seen:
                continue
            seen.add(point)
            value = score(_move_entries(alpha, theta))
            if value > best_value:
                best_alpha, best_theta, best_value = alpha, theta, value
                improved = True
        if not improved:
            step_a /= 2.0
            step_t /= 2.0

    return Strategy(best_alpha, best_theta), best_value


def _reply_form(score) -> tuple[tuple[float, float, float], ...]:
    """The symmetric 3x3 matrix A with `score(q) = q^T A q` for move coordinates q = (q0, q1, q3).

    Each outcome amplitude is linear in the responder's coordinates, so the payoff is a
    quadratic form in them. Six float calls of `score`: the diagonal at the unit vectors
    e0, e1, e3, and each off-diagonal term by polarization at (e_i + e_j)/sqrt(2).
    """
    h = math.sqrt(0.5)
    a00, a11, a33 = score((1.0, 0.0, 0.0)), score((0.0, 1.0, 0.0)), score((0.0, 0.0, 1.0))
    a01 = score((h, h, 0.0)) - (a00 + a11) / 2.0
    a03 = score((h, 0.0, h)) - (a00 + a33) / 2.0
    a13 = score((0.0, h, h)) - (a11 + a33) / 2.0
    return (a00, a01, a03), (a01, a11, a13), (a03, a13, a33)


def _candidates(form: tuple, weight: float):
    """Row-major indices of the grid points whose `form` value is within a margin of its grid maximum.

    The margin is 1e-9 of `weight`, the largest |payoff| of the responder's column, plus
    1e-300, which covers tables of subnormal entries, where 1e-9 of them rounds to 0. The form
    differs from the scorer by about 1e-15 of `weight`, far inside the margin, so the scorer's
    maximum is always among these points. A form that is not finite keeps every point.
    """
    import numpy as np
    (a00, a01, a03), (_, a11, a13), (_, _, a33) = form
    q00, q11, q33, q01, q03, q13 = _grid_products()
    values = a00 * q00 + a11 * q11 + a33 * q33 + a01 * q01 + a03 * q03 + a13 * q13
    top, bottom = float(values.max()), float(values.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        return np.arange(values.size)
    delta = 1e-9 * weight + 1e-300
    return np.flatnonzero(values >= top - delta)


@functools.cache
def _search_grid() -> tuple:
    """The best reply's grid, built once, read-only: alphas, thetas, and (q0, q1, q3) arrays of each `_move_entries`."""
    import numpy as np
    alphas = tuple(min(i * (TWO_PI / (GRID_POINTS - 1)), TWO_PI) for i in range(GRID_POINTS))
    thetas = tuple(min(j * (math.pi / (GRID_POINTS - 1)), math.pi) for j in range(GRID_POINTS))
    entries = np.array([[_move_entries(alpha, theta) for theta in thetas] for alpha in alphas])
    entries.setflags(write=False)
    return alphas, thetas, tuple(np.moveaxis(entries, -1, 0))


@functools.cache
def _grid_products():
    """The grid's q0^2, q1^2, q3^2, 2 q0 q1, 2 q0 q3 and 2 q1 q3, each over the points in row-major order, read-only."""
    import numpy as np
    q0, q1, q3 = (axis.reshape(-1) for axis in _search_grid()[2])
    products = np.array((q0 * q0, q1 * q1, q3 * q3, 2.0 * q0 * q1, 2.0 * q0 * q3, 2.0 * q1 * q3))
    products.setflags(write=False)
    return products


def _own_payoffs(table: list[list[Payoffs]], player: str, name: str = "player") -> list[list[float]]:
    """One player's view of the table: entry [own][opp] is their payoff for move own against move opp.

    Alice owns the table's rows and Bob its columns; no other code reads that orientation.
    """
    table = _check_square(table)
    index = _check_player(name, player)
    rows = table if index == 0 else list(zip(*table))
    return [[cell[index] for cell in row] for row in rows]


def _replies(own: list[list[float]], opp: int) -> list[int]:
    """Own moves scoring within DEVIATION_TOL of the best reply to `opp`, lowest index first."""
    scores = [row[opp] for row in own]
    top = max(scores)
    return [k for k, v in enumerate(scores) if top <= v + DEVIATION_TOL]


def _check_square(table: list[list[Payoffs]]) -> list[list[tuple[float, float]]]:
    """The table's cells as pairs of Python floats, or ValueError unless it is square, nonempty and all finite reals.

    The four table functions read their table only through here, so a NaN cannot slip past the
    tolerance tests and a numpy float32 cell cannot overflow in arithmetic with a Python float.
    """
    try:
        n = len(table)
        square = n > 0 and all(len(row) == n for row in table)
    except TypeError:  # the table or a row has no length
        square = False
    if not square:
        raise ValueError("payoff table must be square and nonempty")
    return [[_payoff_cell(cell) for cell in row] for row in table]


def _payoff_cell(cell) -> tuple[float, float]:
    """(cell[0], cell[1]) as Python floats, read as `Payoffs` fields are; ValueError unless both are finite real numbers."""
    try:
        alice, bob = cell[0], cell[1]
        ok = len(cell) == 2 and all(isinstance(v, numbers.Real) and is_finite(v) for v in (alice, bob))
    except (TypeError, LookupError):  # no len or no items 0 and 1
        ok = False
    if not ok:
        raise ValueError(f"payoff table cells must be pairs of finite real numbers, got {safe_repr(cell)}")
    return float(alice), float(bob)


def _check_setup(setup: GameSetup) -> None:
    if not isinstance(setup, GameSetup):
        raise ValueError(f"setup must be a GameSetup, got {safe_repr(setup)}")


def _check_player(name: str, player: str) -> int:
    """The player's index in `Payoffs`, whose field order names the players."""
    if player not in Payoffs._fields:
        raise ValueError(f"{name} must be {' or '.join(map(repr, Payoffs._fields))}, got {safe_repr(player)}")
    return Payoffs._fields.index(player)
