"""Solution concepts over finite strategy sets plus a continuous best response.

Nash, dominance and Pareto classification are exhaustive deviation checks on
an explicit payoff table, each entry scored by `play`. Nash, dominance and
within-set best replies read it through one player view, `_own_payoffs`, and
Nash and those replies share one tolerant reply rule, `_replies`. The
continuous search finds the best point of an (alpha, theta) grid and then
refines it by coordinate descent, scoring on Python floats through one
`payoff._reply_scorer` per reply, which gives what `payoff.play_entries` gives
with the trig and the responder's payoffs read once. The grid is prefiltered
through the responder's quadratic form, `_reply_form`, so the scorer sees only
the grid points near the form's maximum, and the descent scores only the moves
that the form says can beat its best, each built from the trig of the angle it keeps.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

from .game import Strategy, TWO_PI, _Q_ALPHA, _Q_ENTRIES, _move_entries, is_finite, safe_repr
from .payoff import GameSetup, Payoffs, _reply_scorer, play

# Far above arithmetic noise, far below any payoff gap in this game.
DEVIATION_TOL = 1e-9

# The best reply's search: grid points per axis, descent rounds, and the step below which it stops.
GRID_POINTS = 32
REFINE_ROUNDS = 100
REFINE_MIN_STEP = 1e-6

# The class itself, bound at import: benchmarks/tracer.py rebinds the name `Strategy` here to a wrapper function.
_STRATEGY_TYPE = Strategy


def validate_strategy_set(strategies: Iterable[Strategy]) -> list[Strategy]:
    """The strategies as a new list, read once, so an iterator gives what its list gives."""
    strategies = list(strategies or ())  # None and an empty container are refused as empty, below
    if not strategies:
        raise ValueError("strategy set must not be empty")
    seen: set[Strategy] = set()
    for s in strategies:
        if not isinstance(s, _STRATEGY_TYPE):
            raise ValueError(f"strategy set members must be Strategy objects, got {safe_repr(s)}")
        if s in seen:
            raise ValueError(f"duplicate strategy in set: {s}")
        seen.add(s)
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
    The descent takes alpha modulo 2*pi, where the moves repeat, and clamps theta to [0, pi].
    Every payoff is a call of the reply's `payoff._reply_scorer`, which gives
    what `payoff.play_entries` gives, so grid and steps agree bit for bit with `play`.
    Only the grid's `_candidates` under the responder's quadratic form are scored,
    one by one on Python floats. The descent scores a step only where the form is
    at least the best value less the margin `delta` (1e-10 of the largest |payoff|):
    the form stays within delta / 4 of the scorer, so no step that the scorer would
    accept is skipped. A step keeps one angle, and its coordinates are those of
    `_move_entries` built from the cos and sin of the kept angle at the best point.
    Deterministic: only strict improvements are accepted and grid ties
    resolve to the lexicographically smallest (alpha, theta).
    """
    player = _check_player("responder", responder)
    _check_setup(setup)
    if not isinstance(opponent, _STRATEGY_TYPE):
        raise ValueError(f"opponent must be a Strategy, got {safe_repr(opponent)}")
    score = _reply_scorer(setup.gamma, setup.r, opponent.q, player, setup.table)
    (a00, a01, a03), (_, a11, a13), (_, _, a33) = form = _reply_form(score)
    alphas, thetas, products = _search_grid()
    weight = max(abs(pair[player]) for pair in setup.table.entries())
    delta = 1e-10 * weight + 1e-300  # the margin of `_candidates` and of the descent's prune
    best, best_value = -1, -math.inf
    for k in _candidates(form, products, delta):
        value = score(_move_entries(alphas[k // GRID_POINTS], thetas[k % GRID_POINTS]))  # the grid's point k
        if value > best_value:  # the first maximum in row-major order: the smallest (alpha, theta)
            best, best_value = k, value
    i, j = divmod(best, GRID_POINTS)
    best_alpha, best_theta = alphas[i], thetas[j]

    # Each step keeps one angle and reuses its trig: the cos and sin of the best alpha (wrapped as a theta step
    # wraps it) and of half the best theta.
    cos_a, sin_a = math.cos(best_alpha), math.sin(best_alpha)
    cos_t, sin_t = math.cos(best_theta / 2.0), math.sin(best_theta / 2.0)
    step_a, step_t = alphas[1], thetas[1]  # the grid's spacing
    for _ in range(REFINE_ROUNDS):
        if max(step_a, step_t) < REFINE_MIN_STEP:
            break
        improved = False
        for steps_alpha, step in ((True, -step_a), (True, step_a), (False, -step_t), (False, step_t)):
            if steps_alpha:  # U(0, theta) = U(2*pi, theta): alpha wraps, it is not clamped
                alpha, theta = (best_alpha + step) % TWO_PI, best_theta
                c, s = math.cos(alpha), math.sin(alpha)
                q = (c * cos_t, sin_t, s * cos_t)
            else:
                alpha, theta = (best_alpha + 0.0) % TWO_PI, min(max(best_theta + step, 0.0), math.pi)
                if alpha != best_alpha:  # 2*pi wrapped to 0.0, whose trig is not that of 2*pi
                    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
                c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
                q = (cos_a * c, s, sin_a * c)
            if theta == 0.0 and alpha == _Q_ALPHA:  # Q's exact entries, as `_move_entries` gives them
                q = _Q_ENTRIES
            q0, q1, q3 = q
            if (a00 * (q0 * q0) + a11 * (q1 * q1) + a33 * (q3 * q3) + a01 * (2.0 * q0 * q1) + a03 * (2.0 * q0 * q3)
                    + a13 * (2.0 * q1 * q3) < best_value - delta):  # the form, in `_candidates`' term order
                continue
            value = score(q)
            if value > best_value:
                best_alpha, best_theta, best_value = alpha, theta, value
                if steps_alpha:  # the step's new angle is the best one now, and its trig the pair to reuse
                    cos_a, sin_a = c, s
                else:
                    cos_t, sin_t = c, s
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


def _candidates(form: tuple, products, delta: float) -> list[int]:
    """Row-major indices of the grid points whose `form` value, from `_search_grid`'s `products`, is near its maximum.

    The margin `delta` from `best_response` is 1e-10 of the largest |payoff| of the responder's column, plus 1e-300,
    which covers tables of subnormal entries, where 1e-10 of them rounds to 0. The form differs from
    the scorer by about 1e-15 of that payoff, far inside the margin, so the scorer's maximum is always
    among these points. The values are finite: the form's coefficients are at most max/4 (the bound
    `PAYOFF_ENTRY_MAX`) up to rounding, and the products' sizes sum to at most 3.
    """
    import numpy as np
    (a00, a01, a03), (_, a11, a13), (_, _, a33) = form
    q00, q11, q33, q01, q03, q13 = products
    values = a00 * q00 + a11 * q11 + a33 * q33 + a01 * q01 + a03 * q03 + a13 * q13
    return np.flatnonzero(values >= values.max() - delta).tolist()


@functools.cache
def _search_grid() -> tuple:
    """The best reply's grid, built once: alphas, thetas, and the read-only monomial rows of its points, row-major."""
    import numpy as np
    alphas = tuple(min(i * (TWO_PI / (GRID_POINTS - 1)), TWO_PI) for i in range(GRID_POINTS))
    thetas = tuple(min(j * (math.pi / (GRID_POINTS - 1)), math.pi) for j in range(GRID_POINTS))
    q0, q1, q3 = np.array([_move_entries(alpha, theta) for alpha in alphas for theta in thetas]).T
    products = np.array((q0 * q0, q1 * q1, q3 * q3, 2.0 * q0 * q1, 2.0 * q0 * q3, 2.0 * q1 * q3))
    products.setflags(write=False)
    return alphas, thetas, products


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
