"""Solution concepts over finite strategy sets plus a continuous best response.

Nash, dominance and Pareto classification are exhaustive deviation checks on
an explicit payoff table, each entry `play` of one profile, all scored through
the engine's entry after one check of the setup and the set. The four table
functions read a table only through `_views`, which checks it once, and Nash
and within-set best replies share one tolerant reply rule, `_replies`. The
continuous search takes the best point of an (alpha, theta) grid and refines it
by coordinate descent, in which a theta step keeps alpha. It scores each move on
Python floats through `payoff.play_entries`, the engine's one entry, with the
coefficients of gamma and r and the table's pairs that the setup holds, and only
the moves that the responder's quadratic form, `_reply_form`, says can beat its
best. The reply's value is `play` at the reply.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .game import _STRATEGY_TYPE, Strategy, TWO_PI, _move_entries, is_finite, safe_repr
from .payoff import GameSetup, Payoffs, _check_setup, play, play_entries

# Far above arithmetic noise, far below any payoff gap in this game.
DEVIATION_TOL = 1e-9

# The best reply's search: grid points per axis, descent rounds, and the step below which it stops.
GRID_POINTS = 32
REFINE_ROUNDS = 100
REFINE_MIN_STEP = 1e-6

def validate_strategy_set(strategies: Iterable[Strategy]) -> list[Strategy]:
    """The strategies as a new list, read once, so an iterator gives what its list gives."""
    try:
        strategies = list(() if strategies is None else strategies)  # None is refused as empty, below
    except TypeError:  # not iterable: a number, or a bare Strategy
        raise ValueError(f"strategy set must be an iterable of Strategy objects, got {safe_repr(strategies)}") from None
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
    return _score_table(setup, validate_strategy_set(strategies))


def _score_table(setup: GameSetup, strategies: list[Strategy]) -> list[list[Payoffs]]:
    """`payoff_table` of a checked setup and set: `play`'s entry, on the coefficients and pairs the setup holds."""
    coeffs, pairs = setup.coefficients, setup.table.entries
    return [[Payoffs(*play_entries(coeffs, a.q, b.q, pairs)) for b in strategies] for a in strategies]


def find_nash(table: list[list[Payoffs]]) -> list[tuple[int, int]]:
    """Index pairs where no unilateral deviation gains more than the tolerance."""
    alice, bob = _views(table)
    n = len(alice)
    return [(i, j) for i in range(n) for j in range(n) if i in _replies(alice, j) and j in _replies(bob, i)]


def find_dominant(table: list[list[Payoffs]], player: str) -> tuple[int, str] | None:
    """Index of a strategy optimal against every opponent choice, with strictness.

    Returns (index, "strict") when it beats every alternative against every
    opponent move, (index, "weak") when never worse and somewhere better,
    None otherwise.
    """
    own = _views(table)[_check_player("player", player)]
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
    alice, bob = _views(table)
    n = len(alice)
    cells = [(i, j) for i in range(n) for j in range(n)]

    def dominated(cell: tuple[int, int]) -> bool:
        pa, pb = alice[cell[0]][cell[1]], bob[cell[1]][cell[0]]
        for i, j in cells:
            qa, qb = alice[i][j], bob[j][i]
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
    own = _views(table)[_check_player("responder", responder)]
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
    table = _score_table(_check_setup(setup), strategies)
    views = _views(table)  # checked once here, and passed on as checked
    return EquilibriumReport(
        strategies=strategies,
        table=table,
        nash=find_nash(views),
        dominant_alice=find_dominant(views, "alice"),
        dominant_bob=find_dominant(views, "bob"),
        pareto=pareto_front(views),
        best_responses_alice=set_best_responses(views, "alice"),
        best_responses_bob=set_best_responses(views, "bob"),
    )


def best_response(setup: GameSetup, opponent: Strategy, responder: str) -> tuple[Strategy, float]:
    """Argmax reply over the whole (alpha, theta) move space.

    Takes the first maximum, in row-major order, of the payoff over the
    GRID_POINTS x GRID_POINTS grid of `_search_grid` over [0, 2*pi] x [0, pi]
    (inclusive endpoints), then runs at most REFINE_ROUNDS rounds of coordinate
    descent from it. A round steps alpha by -step and +step, then theta by half of
    each, as the grid's spacings are; a round that accepts no step halves the step,
    until it drops below REFINE_MIN_STEP. An alpha step wraps modulo 2*pi, where
    the moves repeat; a theta step keeps alpha and is clamped to [0, pi]. Payoffs
    are scored one by one on Python floats as `payoff.play_entries(...)[player]`,
    with the players in order, on the coefficients and pairs the setup holds:
    at the grid's `_candidates` under the responder's quadratic form, one
    matrix-vector product on the grid's monomials, each at the coordinates the
    grid keeps for it; and at each step whose form is at least the best value less
    the margin `delta` (1e-12 of the largest |payoff|), which skips no step the
    engine would accept, as the form stays within delta / 4 of the engine. A theta
    step that the clamp sends back onto the best theta is skipped: it would score
    the best point itself. A step's coordinates are `_move_entries`' formula,
    without Q's exact entries, on the cos and sin of its angles, one of them kept
    from the best point. The reply's value is `play` at the reply. Deterministic:
    only strict improvements are accepted and grid ties resolve to the
    lexicographically smallest (alpha, theta).
    """
    player = _check_player("responder", responder)
    _check_setup(setup)
    if not isinstance(opponent, _STRATEGY_TYPE):
        raise ValueError(f"opponent must be a Strategy, got {safe_repr(opponent)}")
    coeffs, other, pairs = setup.coefficients, opponent.q, setup.table.entries
    score = ((lambda own: play_entries(coeffs, own, other, pairs)[0]) if player == 0
             else (lambda own: play_entries(coeffs, other, own, pairs)[1]))
    (a00, a01, a03), (_, a11, a13), (_, _, a33) = _reply_form(score)
    # The form's weights on `_search_grid`'s monomials, off the diagonal doubled once: 2.0 * a is exact.
    form_weights = (a00, a11, a33, 2.0 * a01, 2.0 * a03, 2.0 * a13)
    w00, w11, w33, w01, w03, w13 = form_weights
    alphas, thetas, points, products = _search_grid()
    weight = max(abs(pair[player]) for pair in pairs)
    delta = 1e-12 * weight + 1e-300  # the margin of `_candidates` and of the descent's prune
    best_value = -math.inf
    for k in _candidates(form_weights, products, delta):
        value = score(points[k])
        if value > best_value:  # the first maximum in row-major order: the smallest (alpha, theta)
            best_k, best_value = k, value
    best_alpha, best_theta = alphas[best_k // GRID_POINTS], thetas[best_k % GRID_POINTS]  # the grid's point best_k

    # Each step keeps one angle and reuses its trig: the cos and sin of the best alpha and of half the best theta.
    cos_a, sin_a = math.cos(best_alpha), math.sin(best_alpha)
    cos_t, sin_t = math.cos(best_theta / 2.0), math.sin(best_theta / 2.0)
    step = alphas[1]  # the grid's alpha spacing; theta's is exactly half of it, at every halving
    for _ in range(REFINE_ROUNDS):
        if step < REFINE_MIN_STEP:
            break
        round_value = best_value
        for steps_alpha, move in ((True, -step), (True, step), (False, -step / 2.0), (False, step / 2.0)):
            if steps_alpha:  # U(0, theta) = U(2*pi, theta): alpha wraps, it is not clamped
                alpha, theta = (best_alpha + move) % TWO_PI, best_theta
                ca, sa = math.cos(alpha), math.sin(alpha)
                ct, st = cos_t, sin_t
            else:
                alpha, theta = best_alpha, best_theta + move
                if theta < 0.0:  # the sum is finite and never -0.0: `min(max(theta, 0.0), math.pi)` to the bit
                    theta = 0.0
                elif theta > math.pi:
                    theta = math.pi
                if theta == best_theta:  # clamped back onto the best point, which it cannot strictly beat
                    continue
                ca, sa = cos_a, sin_a
                ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
            q0, q1, q3 = ca * ct, st, sa * ct
            if (w00 * (q0 * q0) + w11 * (q1 * q1) + w33 * (q3 * q3) + w01 * (q0 * q1) + w03 * (q0 * q3)
                    + w13 * (q1 * q3) < best_value - delta):  # the form, in `_search_grid`'s monomial order
                continue
            value = score((q0, q1, q3))
            if value > best_value:  # the step's angles are the best now, and their trig the pairs to reuse
                best_alpha, best_theta, best_value = alpha, theta, value
                cos_a, sin_a, cos_t, sin_t = ca, sa, ct, st
        if best_value == round_value:  # no step was accepted: only strict improvements are, and values are finite
            step /= 2.0

    reply = Strategy(best_alpha, best_theta)
    return reply, play(setup, *((reply, opponent) if player == 0 else (opponent, reply)))[player]


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


def _candidates(weights: tuple, products, delta: float) -> list[int]:
    """Row-major indices of the grid points whose form value, `products @ weights`, is near its maximum.

    `weights` are the responder's form on `_search_grid`'s six monomials, as `best_response` builds them. The margin
    `delta` from `best_response` is 1e-12 of the largest |payoff| of the responder's column, plus 1e-300, which covers
    tables of subnormal entries, where 1e-12 of them rounds to 0. The form differs from the engine by at most about
    1e-15 of that payoff, inside a quarter of the margin, so the engine's maximum is always among these points. The
    values are finite: the form's coefficients are at most max/4 (the bound `PAYOFF_ENTRY_MAX`) up to rounding, so
    each value is at most max/4 times (|q0| + |q1| + |q3|)^2 <= 3.
    """
    import numpy as np
    values = products @ weights
    return np.flatnonzero(values >= values.max() - delta).tolist()


@functools.cache
def _search_grid() -> tuple:
    """The best reply's grid, built once, row-major: alphas, thetas, each point's `_move_entries` on Python floats,
    and their monomials q0^2, q1^2, q3^2, q0 q1, q0 q3, q1 q3 as a read-only C-contiguous (GRID_POINTS**2, 6) array."""
    import numpy as np
    alphas = tuple(min(i * (TWO_PI / (GRID_POINTS - 1)), TWO_PI) for i in range(GRID_POINTS))
    thetas = tuple(min(j * (math.pi / (GRID_POINTS - 1)), math.pi) for j in range(GRID_POINTS))
    points = tuple(_move_entries(alpha, theta) for alpha in alphas for theta in thetas)
    q0, q1, q3 = np.array(points).T
    products = np.stack((q0 * q0, q1 * q1, q3 * q3, q0 * q1, q0 * q3, q1 * q3), axis=1)
    products.setflags(write=False)
    return alphas, thetas, points, products


def _replies(own: list[list[float]], opp: int) -> list[int]:
    """Own moves scoring within DEVIATION_TOL of the best reply to `opp`, lowest index first."""
    scores = [row[opp] for row in own]
    top = max(scores)
    return [k for k, v in enumerate(scores) if top <= v + DEVIATION_TOL]


# Both players' views of a checked table: entry [own][opp] is the player's payoff for move own against move opp.
class _Views(NamedTuple):
    alice: list[list[float]]
    bob: list[list[float]]


def _views(table: list[list[Payoffs]] | _Views) -> _Views:
    """Both players' views of the table, or ValueError unless it is square, nonempty and all finite reals.

    The only reader of a table, whose rows Alice owns and columns Bob. Each cell is read once as two Python floats:
    a NaN cannot slip past the tolerance tests, nor a float32 overflow. A `_Views` is a checked table, returned as is.
    """
    if isinstance(table, _Views):
        return table
    try:
        n = len(table)
        square = n > 0 and all(len(row) == n for row in table)
    except TypeError:  # the table or a row has no length
        square = False
    if not square:
        raise ValueError("payoff table must be square and nonempty")
    cells = [[_payoff_cell(cell) for cell in row] for row in table]
    return _Views([[a for a, _ in row] for row in cells], [[b for _, b in column] for column in zip(*cells)])


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


def _check_player(name: str, player: str) -> int:
    """The player's index in `Payoffs`, whose field order names the players."""
    if player not in Payoffs._fields:
        raise ValueError(f"{name} must be {' or '.join(map(repr, Payoffs._fields))}, got {safe_repr(player)}")
    return Payoffs._fields.index(player)
