"""Finite-set equilibrium classification and continuous best-response search."""

import math
import re

import numpy as np
import pytest

from unruhpd import equilibrium, payoff
from unruhpd.closed_forms import miracle_vs_classical
from unruhpd.equilibrium import (
    DEVIATION_TOL,
    GRID_POINTS,
    REFINE_MIN_STEP,
    _candidates,
    _reply_form,
    _search_grid,
    _check_player,
    _Views,
    _views,
    analyze,
    best_response,
    find_dominant,
    find_nash,
    pareto_front,
    payoff_table,
    set_best_responses,
    validate_strategy_set,
)
from unruhpd.game import NAMED_STRATEGIES, TWO_PI, Strategy, _move_entries
from unruhpd.payoff import PAYOFF_ENTRY_MAX, GameSetup, Payoffs, PayoffTable, play, play_entries

C = NAMED_STRATEGIES["C"]
D = NAMED_STRATEGIES["D"]
Q = NAMED_STRATEGIES["Q"]
M = NAMED_STRATEGIES["M"]

CLASSICAL_SET = [C, D]


def classical_setup(r=0.0, gamma=0.0):
    return GameSetup(gamma=gamma, r=r)


def test_validate_strategy_set():
    assert validate_strategy_set([C, D]) == [C, D]
    with pytest.raises(ValueError):
        validate_strategy_set([])
    with pytest.raises(ValueError):
        validate_strategy_set([C, Strategy(0.0, 0.0)])


def test_a_set_refuses_a_pair_exactly_when_the_moves_are_equal():
    near_half_pi = math.nextafter(math.pi / 2, 0.0)
    moves = [*NAMED_STRATEGIES.values(), Strategy(math.pi / 2, 0.0), Strategy(0.0, 3.1415927), Strategy(-0.0, 0.0),
             Strategy(near_half_pi, 0.0), Strategy(math.pi / 2, 5e-324), Strategy(1.0, 2.0), Strategy(1.0, 2.0)]
    for a in moves:
        for b in moves:
            if a == b:
                with pytest.raises(ValueError, match=f"^duplicate strategy in set: {re.escape(str(b))}$"):
                    validate_strategy_set([a, b])
            else:
                assert validate_strategy_set([a, b]) == [a, b]


def test_payoff_table_inertial_classical_game():
    table = payoff_table(classical_setup(), CLASSICAL_SET)
    want = [[(3.0, 3.0), (0.0, 5.0)], [(5.0, 0.0), (1.0, 1.0)]]
    for i in range(2):
        for j in range(2):
            assert abs(table[i][j].alice - want[i][j][0]) <= 1e-12
            assert abs(table[i][j].bob - want[i][j][1]) <= 1e-12


def test_payoff_table_infinite_acceleration_values():
    table = payoff_table(classical_setup(r=math.pi / 4), CLASSICAL_SET)
    want = [[(1.5, 4.0), (1.5, 4.0)], [(3.0, 0.5), (3.0, 0.5)]]
    for i in range(2):
        for j in range(2):
            assert abs(table[i][j].alice - want[i][j][0]) <= 1e-12
            assert abs(table[i][j].bob - want[i][j][1]) <= 1e-12


def test_payoff_table_singleton():
    table = payoff_table(classical_setup(), [C])
    assert len(table) == 1 and len(table[0]) == 1
    assert abs(table[0][0].alice - 3.0) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_payoff_table_equals_per_game_play_exactly(seed):
    rng = np.random.default_rng(seed)
    setup = GameSetup(
        rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, math.pi / 4), PayoffTable.from_scalars(*rng.normal(0.0, 3.0, 4))
    )
    strategies = [C, D, Q, M] + [Strategy(rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, math.pi)) for _ in range(3)]
    table = payoff_table(setup, strategies)
    assert table == [[play(setup, a, b) for b in strategies] for a in strategies]
    assert all(type(entry) is Payoffs for row in table for entry in row)


def test_a_table_checks_its_input_once_and_takes_the_coefficients_once(monkeypatch):
    # `payoff_table` and `analyze` check the setup and the set once and score every profile through `play`'s entry
    # on the coefficients the setup holds, not through n x n calls of `play`, each of which checks the setup again:
    # no coefficients are computed.
    counts = {}

    def counted(name, f):
        def counting(*args):
            counts[name] = counts.get(name, 0) + 1
            return f(*args)
        return counting

    for name in ("validate_strategy_set", "_check_setup", "play"):
        monkeypatch.setattr(equilibrium, name, counted(name, getattr(equilibrium, name)))
    monkeypatch.setattr(payoff, "_coefficients", counted("_coefficients", payoff._coefficients))
    setup = GameSetup(0.7, 0.2)
    for table_of in (payoff_table, analyze):
        counts.clear()
        table_of(setup, [C, D, Q, M])
        assert counts == {"validate_strategy_set": 1, "_check_setup": 1}


def test_nash_inertial_classical_game():
    table = payoff_table(classical_setup(), CLASSICAL_SET)
    assert find_nash(table) == [(1, 1)]


@pytest.mark.parametrize("r", [0.0, 0.3, math.pi / 8, math.pi / 4])
def test_nash_max_entanglement_is_mutual_cooperation(r):
    table = payoff_table(classical_setup(r=r, gamma=math.pi / 2), CLASSICAL_SET)
    assert find_nash(table) == [(0, 0)]


def test_nash_unentangled_interior_acceleration():
    # Deviation checks on the closed forms put (D,D) in the Nash set for
    # every r below pi/4: the defector's alternatives are strictly worse.
    table = payoff_table(classical_setup(r=math.pi / 8), CLASSICAL_SET)
    assert find_nash(table) == [(1, 1)]


def test_dominance_examples():
    inertial = payoff_table(classical_setup(), CLASSICAL_SET)
    assert find_dominant(inertial, "alice") == (1, "strict")
    assert find_dominant(inertial, "bob") == (1, "strict")

    interior = payoff_table(classical_setup(r=math.pi / 8), CLASSICAL_SET)
    assert find_dominant(interior, "alice") == (1, "strict")

    maxent = payoff_table(classical_setup(r=0.3, gamma=math.pi / 2), CLASSICAL_SET)
    assert find_dominant(maxent, "alice") == (0, "strict")
    assert find_dominant(maxent, "bob") == (0, "strict")


def test_dominance_vanishes_for_bob_at_infinite_acceleration():
    # Bob's two columns coincide there, so no strategy is ever better.
    table = payoff_table(classical_setup(r=math.pi / 4), CLASSICAL_SET)
    assert find_dominant(table, "bob") is None
    assert find_dominant(table, "alice") == (1, "strict")


def test_strict_dominance_for_both_implies_nash_membership():
    for gamma, r in ((0.0, 0.0), (0.0, 0.2), (math.pi / 2, 0.0), (math.pi / 2, math.pi / 4)):
        table = payoff_table(classical_setup(r=r, gamma=gamma), CLASSICAL_SET)
        alice = find_dominant(table, "alice")
        bob = find_dominant(table, "bob")
        if alice and bob and alice[1] == "strict" and bob[1] == "strict":
            assert (alice[0], bob[0]) in find_nash(table)


def test_weak_dominance_and_one_move_sets():
    # At gamma = pi/4, r = 0, C is never worse than M and strictly better against C.
    report = analyze(GameSetup(math.pi / 4, 0.0), [M, C])
    assert report.dominant_alice == report.dominant_bob == (1, "weak")
    assert report.nash == [(0, 0), (1, 1)]
    # A lone move has no alternative to beat, so it counts as strictly dominant.
    report = analyze(GameSetup(math.pi / 4, 0.0), [M])
    assert report.dominant_alice == report.dominant_bob == (0, "strict")
    assert report.nash == [(0, 0)]


def test_pareto_front_classical():
    table = payoff_table(classical_setup(), CLASSICAL_SET)
    assert set(pareto_front(table)) == {(0, 0), (0, 1), (1, 0)}


def test_pareto_front_max_entanglement_contains_cooperation():
    table = payoff_table(classical_setup(r=0.0, gamma=math.pi / 2), CLASSICAL_SET)
    front = set(pareto_front(table))
    assert (0, 0) in front
    # Mutual defection is payoff-dominated by mutual cooperation here.
    assert (1, 1) not in front


def test_pareto_front_treats_roundoff_as_a_tie():
    # Two profiles one ulp apart must not dominate each other.
    table = [
        [Payoffs(4.0, 0.1), Payoffs(4.0, math.nextafter(0.1, 1.0))],
        [Payoffs(0.0, 0.0), Payoffs(0.0, 0.0)],
    ]
    assert pareto_front(table) == [(0, 0), (0, 1)]


def test_pareto_front_counts_a_payoff_within_the_tolerance_below_as_no_worse():
    # (0, 1) is half a tolerance worse for Alice, a tie, and better for Bob: it dominates (0, 0).
    table = [
        [Payoffs(1.0, 1.0), Payoffs(1.0 - DEVIATION_TOL / 2, 2.0)],
        [Payoffs(0.0, 0.0), Payoffs(0.0, 0.0)],
    ]
    assert pareto_front(table) == [(0, 1)]


def test_pareto_front_drops_a_profile_improved_for_one_player_only():
    # (0, 1) ties (0, 0) for Alice and beats it for Bob, so (0, 0) is dominated.
    table = [[Payoffs(1.0, 1.0), Payoffs(1.0, 2.0)], [Payoffs(0.0, 0.0), Payoffs(0.0, 0.0)]]
    assert pareto_front(table) == [(0, 1)]


def test_pareto_front_singleton():
    table = payoff_table(classical_setup(), [C])
    assert pareto_front(table) == [(0, 0)]


def test_set_best_responses_tie_breaks_to_lowest_index():
    table = payoff_table(classical_setup(r=math.pi / 4), CLASSICAL_SET)
    # Bob's payoffs tie across his own moves, so the reply is index 0.
    assert set_best_responses(table, "bob") == {0: 0, 1: 0}
    assert set_best_responses(table, "alice") == {0: 1, 1: 1}


def test_analyze_bundles_consistent_report():
    setup = classical_setup(r=0.1, gamma=math.pi / 2)
    strategies = [C, D, Q, M]
    report = analyze(setup, strategies)
    assert report.table == payoff_table(setup, strategies)
    assert report.nash == find_nash(report.table)
    assert report.pareto == pareto_front(report.table)
    assert report.dominant_alice == find_dominant(report.table, "alice")
    assert report.best_responses_bob == set_best_responses(report.table, "bob")


def test_best_response_classical_defection():
    strat, value = best_response(classical_setup(), C, "alice")
    assert abs(value - 5.0) <= 1e-9
    assert strat.alpha == 0.0
    assert abs(strat.theta - math.pi) <= 1e-12


def test_best_response_hits_table_maximum_at_max_entanglement():
    _, value = best_response(GameSetup(gamma=math.pi / 2, r=0.0), D, "alice")
    assert value >= 5.0 - 1e-6


def test_best_response_against_miracle_beats_classical_replies():
    r = math.pi / 8
    _, value = best_response(GameSetup(gamma=math.pi / 2, r=r), M, "bob")
    floor = max(miracle_vs_classical(r, 0.0).bob, miracle_vs_classical(r, math.pi).bob)
    assert value >= floor - 1e-6


@pytest.mark.parametrize("opponent", [C, D, Q, M])
def test_best_response_at_least_named_strategies(opponent):
    setup = GameSetup(gamma=math.pi / 2, r=0.3)
    _, value = best_response(setup, opponent, "bob")
    floor = max(play(setup, opponent, s).bob for s in (C, D, Q, M))
    assert value >= floor - 1e-6


def test_best_response_invariant_under_affine_rescaling():
    base = GameSetup(gamma=math.pi / 2, r=0.3)
    scaled_table = PayoffTable(cc=(7.0, 7.0), cd=(1.0, 11.0), dc=(11.0, 1.0), dd=(3.0, 3.0))
    scaled = GameSetup(gamma=math.pi / 2, r=0.3, table=scaled_table)
    strat_base, value_base = best_response(base, D, "alice")
    strat_scaled, value_scaled = best_response(scaled, D, "alice")
    assert strat_base.alpha == strat_scaled.alpha
    assert strat_base.theta == strat_scaled.theta
    assert abs(value_scaled - (2.0 * value_base + 1.0)) <= 1e-9


def test_best_response_is_deterministic():
    setup = GameSetup(gamma=0.7, r=0.2)
    first = best_response(setup, M, "bob")
    second = best_response(setup, M, "bob")
    assert first == second


def test_best_response_argument_validation():
    with pytest.raises(ValueError, match="responder must be"):
        best_response(classical_setup(), C, "carol")


def reference_best_response(setup, opponent, responder, grid=32, refine=100):
    """The per-game search `best_response` replaced: one `Strategy` and one `play` per evaluation."""

    def score(alpha: float, theta: float) -> float:
        mover = Strategy(alpha, theta)
        if responder == "alice":
            return play(setup, mover, opponent).alice
        return play(setup, opponent, mover).bob

    alpha_step = TWO_PI / (grid - 1)
    theta_step = math.pi / (grid - 1)
    best_alpha = best_theta = 0.0
    best_value = -math.inf
    for i in range(grid):
        alpha = min(i * alpha_step, TWO_PI)
        for j in range(grid):
            theta = min(j * theta_step, math.pi)
            value = score(alpha, theta)
            if value > best_value:
                best_alpha, best_theta, best_value = alpha, theta, value

    step_a, step_t = alpha_step, theta_step
    for _ in range(refine):
        if max(step_a, step_t) < REFINE_MIN_STEP:
            break
        improved = False
        for da, dt in ((-step_a, 0.0), (step_a, 0.0), (0.0, -step_t), (0.0, step_t)):
            alpha = (best_alpha + da) % TWO_PI
            theta = min(max(best_theta + dt, 0.0), math.pi)
            value = score(alpha, theta)
            if value > best_value:
                best_alpha, best_theta, best_value = alpha, theta, value
                improved = True
        if not improved:
            step_a /= 2.0
            step_t /= 2.0

    return Strategy(best_alpha, best_theta), best_value


_RNG = np.random.default_rng(2024)
# gamma = 0 ties many grid points, which exercises the first-maximum rule.
GAMMAS = (0.0, math.pi / 2, float(_RNG.uniform(0.0, math.pi / 2)))
RS = (0.0, math.pi / 4, float(_RNG.uniform(0.0, math.pi / 4)))
OPPONENTS = [C, D, Q, M] + [Strategy(*_RNG.uniform((0.0, 0.0), (TWO_PI, math.pi))) for _ in range(2)]
CONFIGS = [(gamma, r) for gamma in GAMMAS for r in RS]


@pytest.mark.parametrize("k,config", enumerate(CONFIGS))
def test_best_response_equals_per_game_search_with_default_knobs(k, config):
    # The reference's default knobs are best_response's constants; every opponent meets every configuration.
    setup = GameSetup(*config)
    for opponent in OPPONENTS:
        for responder in ("alice", "bob"):
            got = best_response(setup, opponent, responder)
            # Strategy equality compares alpha and theta: a reply is its two angles.
            assert got == reference_best_response(setup, opponent, responder)
            assert type(got[1]) is float


# Replies whose optimum lies just below alpha = 2*pi: a descent that clamped alpha to [0, 2*pi] stopped at the
# alpha = 0 edge, 0.029 (default table) and 0.039 below the optimum.
WRAPPING_REPLIES = [
    (GameSetup(math.pi / 2, 0.0), Strategy(0.552, 2.018)),
    (GameSetup(1.4076887045517399, 0.0, PayoffTable.from_scalars(2.68, -4.24, 3.69, 0.43)), Strategy(0.511, 2.212)),
]


@pytest.mark.parametrize("setup,opponent", WRAPPING_REPLIES, ids=range(len(WRAPPING_REPLIES)))
def test_the_descent_wraps_alpha_past_zero_to_the_optimum(setup, opponent):
    # The moves cover the unit sphere of coordinates up to sign, so the optimum is the top eigenvalue of the form.
    reply, value = best_response(setup, opponent, "alice")
    score = reply_scorer(setup.gamma, setup.r, opponent.q, 0, setup.table)
    optimum = np.linalg.eigvalsh(np.array(_reply_form(score))).max()
    assert 6.0 < reply.alpha < TWO_PI
    assert value >= optimum - 1e-9


SCORER_TABLES = [
    PayoffTable(),
    PayoffTable(cc=(-0.0, 0.0), cd=(0.0, -0.0), dc=(-0.0, -0.0), dd=(0.0, 0.0)),
    PayoffTable(cc=(-0.0, -0.0), cd=(-0.0, -0.0), dc=(-0.0, -0.0), dd=(-0.0, -0.0)),
    PayoffTable(
        cc=(PAYOFF_ENTRY_MAX, -PAYOFF_ENTRY_MAX),
        cd=(-PAYOFF_ENTRY_MAX, PAYOFF_ENTRY_MAX),
        dc=(PAYOFF_ENTRY_MAX, PAYOFF_ENTRY_MAX),
        dd=(-PAYOFF_ENTRY_MAX, -PAYOFF_ENTRY_MAX),
    ),
    PayoffTable.from_scalars(*_RNG.normal(0.0, 3.0, 4)),
    PayoffTable(*(tuple(_RNG.uniform(-10.0, 10.0, 2)) for _ in range(4))),
]


def reply_scorer(gamma, r, opponent, player, table):
    """`score(own)`: the payoff of `player` (0 Alice, 1 Bob) for own move coordinates against `opponent`'s.

    Built as `best_response` builds its scorer: the coefficients once, then `play_entries` with the players in order.
    """
    coeffs = GameSetup(gamma, r).coefficients
    if player == 0:
        return lambda own: play_entries(coeffs, own, opponent, table.entries)[0]
    return lambda own: play_entries(coeffs, opponent, own, table.entries)[1]


def grid_points():
    """The search grid's (q0, q1, q3) of each point in row-major order, as (GRID_POINTS**2, 3), built per point here."""
    alphas, thetas, _, _ = _search_grid()
    return np.array([_move_entries(alpha, theta) for alpha in alphas for theta in thetas])


def monomial_weights(form) -> tuple:
    """The form's weights on `_search_grid`'s monomials, as `best_response` builds them: off the diagonal doubled."""
    (a00, a01, a03), (_, a11, a13), (_, _, a33) = form
    return a00, a11, a33, 2.0 * a01, 2.0 * a03, 2.0 * a13


# The scorer's tables, an all-zero table, and tables scaled down to and near the subnormal range: at 5e-324, 1e-12
# of the largest entry rounds to 0, and only the margin's 1e-300 floor keeps the scorer's maximum a candidate.
PREFILTER_TABLES = SCORER_TABLES + [
    PayoffTable(cc=(0.0, 0.0), cd=(0.0, 0.0), dc=(0.0, 0.0), dd=(0.0, 0.0)),
    *(PayoffTable.from_scalars(*(scale * x for x in (3.0, 0.0, 5.0, 1.0))) for scale in (5e-324, 1e-310, 1e-300)),
]
# Replies checked against the per-game reference for each table: one opponent per configuration, in turn.
REFERENCE_REPLIES = [(config, OPPONENTS[k % len(OPPONENTS)]) for k, config in enumerate(CONFIGS)]


@pytest.mark.parametrize("table", PREFILTER_TABLES, ids=range(len(PREFILTER_TABLES)))
def test_the_prefilter_keeps_the_grids_first_maximum_and_the_replies_bits(table):
    # The responder's quadratic form must track the scorer on the whole grid to within a quarter of the
    # margin, so the scorer's first maximum (the grid point best_response takes) is always a candidate. That holds
    # for the form summed as the einsum sums it and for the prefilter's own matrix-vector product.
    products = _search_grid()[3]
    q = grid_points()
    for gamma, r in CONFIGS:
        for opponent in OPPONENTS:
            for player in (0, 1):
                score = reply_scorer(gamma, r, opponent.q, player, table)
                form = _reply_form(score)
                matrix = np.array(form)
                assert np.array_equal(matrix, matrix.T)
                values = np.einsum("...i,ij,...j->...", q, matrix, q)
                kernel = score(tuple(q.T))
                weight = max(abs(pair[player]) for pair in table.entries)
                delta = 1e-12 * weight + 1e-300
                assert np.abs(values - kernel).max() <= delta / 4
                weights = monomial_weights(form)
                assert np.abs(products @ weights - kernel).max() <= delta / 4
                candidates = _candidates(weights, products, delta)
                assert all(type(k) is int for k in candidates)
                assert candidates == sorted(set(candidates))
                assert int(np.argmax(kernel)) in candidates
    for config, opponent in REFERENCE_REPLIES:
        setup = GameSetup(*config, table)
        for responder in ("alice", "bob"):
            bits = [
                (reply.alpha.hex(), reply.theta.hex(), value.hex())
                for reply, value in (f(setup, opponent, responder) for f in (best_response, reference_best_response))
            ]
            assert bits[0] == bits[1]


# Tables of +-PAYOFF_ENTRY_MAX entries, the largest a table takes: the extreme scorer table and seeded sign mixes.
EXTREME_TABLES = [SCORER_TABLES[3]] + [
    PayoffTable(*(tuple(float(x) for x in _RNG.choice((-PAYOFF_ENTRY_MAX, PAYOFF_ENTRY_MAX), 2)) for _ in range(4)))
    for _ in range(5)
]


@pytest.mark.parametrize("table", EXTREME_TABLES, ids=range(len(EXTREME_TABLES)))
def test_the_form_on_the_grid_is_finite_for_the_largest_entries(table):
    # _candidates has no fallback for a form that is not finite: its coefficients are at most PAYOFF_ENTRY_MAX
    # up to rounding and (|q0| + |q1| + |q3|)^2 is at most 3, so no value may overflow, and the scorer's first
    # maximum must still be a candidate.
    products = _search_grid()[3]
    q = grid_points()
    for gamma, r in CONFIGS:
        for opponent in OPPONENTS:
            for player in (0, 1):
                score = reply_scorer(gamma, r, opponent.q, player, table)
                delta = 1e-12 * max(abs(pair[player]) for pair in table.entries) + 1e-300  # best_response's margin
                with np.errstate(over="raise", invalid="raise"):
                    weights = monomial_weights(_reply_form(score))
                    values = products @ weights  # the prefilter's values, as `_candidates` computes them
                    candidates = _candidates(weights, products, delta)
                    kernel = score(tuple(q.T))
                assert np.isfinite(values).all()
                assert np.abs(values).max() <= PAYOFF_ENTRY_MAX * (1.0 + 1e-14)
                assert int(np.argmax(kernel)) in candidates


def descent_points():
    """The (q0, q1, q3) of points the descent can reach off the grid, as (n, 3).

    Seeded (alpha, theta), the edges theta = 0, pi and alpha just below 2*pi, and each one's four neighbours at every
    step from the grid's spacing down to REFINE_MIN_STEP, wrapped and clamped as `best_response` takes them.
    """
    rng = np.random.default_rng(25)
    alphas, thetas, _, _ = _search_grid()
    below_two_pi = math.nextafter(TWO_PI, 0.0)
    bases = [tuple(rng.uniform((0.0, 0.0), (TWO_PI, math.pi))) for _ in range(24)]
    bases += [(float(rng.uniform(0.0, TWO_PI)), edge) for edge in (0.0, math.pi)]
    bases += [(below_two_pi, float(rng.uniform(0.0, math.pi))), (below_two_pi, 0.0), (below_two_pi, math.pi)]
    points = []
    for alpha, theta in bases:
        points.append(_move_entries(alpha, theta))
        step_a, step_t = alphas[1], thetas[1]
        while max(step_a, step_t) >= REFINE_MIN_STEP:
            for da, dt in ((-step_a, 0.0), (step_a, 0.0), (0.0, -step_t), (0.0, step_t)):
                points.append(_move_entries((alpha + da) % TWO_PI, min(max(theta + dt, 0.0), math.pi)))
            step_a /= 2.0
            step_t /= 2.0
    return np.array(points)


BOUND_TABLES = PREFILTER_TABLES + EXTREME_TABLES[1:]  # EXTREME_TABLES[0] is SCORER_TABLES[3]


@pytest.mark.parametrize("table", BOUND_TABLES, ids=range(len(BOUND_TABLES)))
def test_the_form_stays_within_a_quarter_of_the_margin_off_the_grid(table):
    # The descent skips a step whose form value is below best_value - delta. That skips no step the scorer would
    # accept only while the form, summed in the descent's term order on its weights, stays within delta / 4 of the
    # scorer at every point the descent reaches, not only on the grid; and no value may overflow for the largest
    # entries.
    q0, q1, q3 = descent_points().T
    for gamma, r in CONFIGS:
        for opponent in OPPONENTS:
            for player in (0, 1):
                score = reply_scorer(gamma, r, opponent.q, player, table)
                delta = 1e-12 * max(abs(pair[player]) for pair in table.entries) + 1e-300
                with np.errstate(over="raise", invalid="raise"):
                    (a00, a01, a03), (_, a11, a13), (_, _, a33) = matrix = _reply_form(score)
                    w00, w11, w33, w01, w03, w13 = monomial_weights(matrix)
                    form = (
                        w00 * (q0 * q0) + w11 * (q1 * q1) + w33 * (q3 * q3)
                        + w01 * (q0 * q1) + w03 * (q0 * q3) + w13 * (q1 * q3)
                    )
                    # Doubling the weight, not the monomial, moves no bit: 2.0 * x is exact.
                    doubled_monomials = (
                        a00 * (q0 * q0) + a11 * (q1 * q1) + a33 * (q3 * q3)
                        + a01 * (2.0 * q0 * q1) + a03 * (2.0 * q0 * q3) + a13 * (2.0 * q1 * q3)
                    )
                    assert np.array_equal(form.view(np.int64), doubled_monomials.view(np.int64))
                    kernel = score((q0, q1, q3))
                    assert np.isfinite(form).all() and np.isfinite(kernel).all()
                    assert np.abs(form - kernel).max() <= delta / 4


# Replies on tables of entries near 1e-320, where 1e-12 of the largest entry rounds to 0: at some step of each
# descent the scorer beats the best value while the form, a few units of 5e-324 off, falls below it. Only the
# margin's 1e-300 floor keeps the prune from skipping that step.
SUBNORMAL_REPLIES = [
    (GameSetup(0.18015362880690788, math.pi / 4, PayoffTable.from_scalars(1e-320, -1e-320, 2e-320, 7e-320)),
     Strategy(0.48161643961125661, 1.7287391238282623), "alice"),
    (GameSetup(math.pi / 2, 0.6334136963232025, PayoffTable.from_scalars(-1e-320, -3e-320, 3e-320, 1e-320)),
     Strategy(5.7128148864702881, 0.92370233445649208), "bob"),
    (GameSetup(1.0840181202236705, 0.0, PayoffTable.from_scalars(2e-320, -3e-320, 0.0, 7.1e-322)),
     Strategy(1.9815053401876253, 1.5511006857280862), "bob"),
    (GameSetup(math.pi / 2, 0.0, PayoffTable.from_scalars(0.0, -3e-320, 2e-320, 3e-320)),
     Strategy(1.4622136952005598, 2.0691624700321172), "alice"),
]


@pytest.mark.parametrize("setup,opponent,responder", SUBNORMAL_REPLIES, ids=range(len(SUBNORMAL_REPLIES)))
def test_the_prune_keeps_each_step_the_scorer_accepts_on_subnormal_tables(setup, opponent, responder):
    bits = [
        (reply.alpha.hex(), reply.theta.hex(), value.hex())
        for reply, value in (f(setup, opponent, responder) for f in (best_response, reference_best_response))
    ]
    assert bits[0] == bits[1]


def hexes(values) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in values)


def record_scored_moves(monkeypatch) -> list:
    """Patch `best_response`'s engine entry: each profile (alice, bob) it scores is appended to the list returned."""
    scored = []

    def recording_entry(coeffs, alice, bob, pairs):
        scored.append((alice, bob))
        return play_entries(coeffs, alice, bob, pairs)

    monkeypatch.setattr(equilibrium, "play_entries", recording_entry)
    return scored


def assert_the_value_is_play_at_the_reply(setup, opponent, responder) -> tuple[Strategy, float]:
    """`best_response`'s (reply, value), after checking that the value is, bit for bit, `play` at the reply."""
    reply, value = best_response(setup, opponent, responder)
    profile = (reply, opponent) if responder == "alice" else (opponent, reply)
    assert value.hex() == getattr(play(setup, *profile), responder).hex(), (setup, opponent, responder)
    return reply, value


def assert_the_reply_is_the_references(setup, opponent, responder) -> Strategy:
    """`best_response`'s reply, after checking that it gives the per-game search's bits and `play` at the reply."""
    got = assert_the_value_is_play_at_the_reply(setup, opponent, responder)
    want = reference_best_response(setup, opponent, responder)
    assert hexes((got[0].alpha, got[0].theta, got[1])) == hexes((want[0].alpha, want[0].theta, want[1]))
    return got[0]


def seeded_axis_replies(seed: int, n: int):
    """n seeded replies to C, D and Q on `from_scalars` tables, both players in turn."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        table = PayoffTable.from_scalars(*rng.normal(0.0, 3.0, 4))
        setup = GameSetup(float(rng.uniform(0.0, math.pi / 2)), float(rng.uniform(0.0, math.pi / 4)), table)
        yield setup, (C, D, Q)[k % 3], ("alice", "bob")[k % 2]


def test_a_reply_ending_at_q_equals_the_reference():
    # Against C, D and Q with Prisoner's-Dilemma-like tables the descent often stops at (pi/2, 0), reached from
    # the grid as (8h - h/4) % 2*pi == pi/2 for the grid's alpha spacing h. There the descent, which builds its
    # moves from kept trig, scores (cos(pi/2), 0, 1), while `play` and the reference take Q's exact (0, 0, 1).
    at_q = 0
    for setup, opponent, responder in seeded_axis_replies(28, 60):
        reply = assert_the_reply_is_the_references(setup, opponent, responder)
        at_q += (reply.alpha, reply.theta) == (math.pi / 2, 0.0)
    assert at_q >= 10, at_q


# Replies whose grid maximum lies in the alpha = 2*pi column. A theta step from there keeps alpha = 2*pi, whose
# move differs from that of the reference's wrapped alpha = 0.0 by sin(2*pi) = -2.4e-16 in one coordinate.
TWO_PI_COLUMN_REPLIES = [
    (GameSetup(0.6647827677704942, 0.013437752210979061), Strategy(6.179109574382424, 2.6909736925585936), "bob"),
    (GameSetup(1.2345735635821855, 0.17528755393991094), Strategy(1.405398278466647, 2.4227789814658363), "alice"),
    (GameSetup(1.0461802878630289, 0.06381950494325994,
               PayoffTable.from_scalars(2.3205915672791226, 1.595816657603451, 5.3558705123691235, -6.696557744441968)),
     Strategy(2.774653646180262, 1.5520655727683927), "bob"),
    (GameSetup(1.5250439779327856, 0.21521277230897382,
               PayoffTable.from_scalars(-0.898137055478094, -4.79343349121966, 3.2386063426290805, -5.289903338846528)),
     Strategy(0.5274671710190749, 2.208800480204055), "bob"),
]


@pytest.mark.parametrize("setup,opponent,responder", TWO_PI_COLUMN_REPLIES, ids=range(len(TWO_PI_COLUMN_REPLIES)))
def test_a_reply_from_the_two_pi_column_equals_the_reference(setup, opponent, responder):
    player = ("alice", "bob").index(responder)
    kernel = reply_scorer(setup.gamma, setup.r, opponent.q, player, setup.table)(tuple(grid_points().T))
    assert int(np.argmax(kernel)) // GRID_POINTS == GRID_POINTS - 1  # the grid's first maximum is at alpha = 2*pi
    assert_the_reply_is_the_references(setup, opponent, responder)


# Replies ending at Q against moves within 1e-7 of it, on tables that pay the responder 0 at CC and less elsewhere,
# so that its payoff at Q is about -1e-17. There the descent's (cos(pi/2), 0, 1) scores up to 6e-8 of the payoff
# away from Q's exact (0, 0, 1). Against C, D and Q the reply form is diagonal, and q0 = cos(pi/2) enters the payoff
# only as its square, so it moves no bit.
NEAR_Q_REPLIES = [
    (GameSetup(math.pi / 2, 0.0, PayoffTable((1.0, 0.0), (1.0, -3.699985992092315), (1.0, -2.8747956163082664),
                                             (1.0, -4.800057266997334))),
     Strategy(1.5707963248335866, 0.0), "bob"),
    (GameSetup(math.pi / 2, 0.0, PayoffTable((0.0, 1.0), (-3.544340423868647, 1.0), (-2.2141256935370524, 1.0),
                                             (-3.296918289109219, 1.0))),
     Strategy(math.pi / 2, 1.2224122184498477e-09), "alice"),
    (GameSetup(math.pi / 2, 0.0, PayoffTable((1.0, 0.0), (1.0, -4.728269536305678), (1.0, -5.20058875683932),
                                             (1.0, -1.0434311099656064))),
     Strategy(1.57079629140747, 0.0), "bob"),
    (GameSetup(math.pi / 2, 0.0, PayoffTable((0.0, 1.0), (-4.471920485573971, 1.0), (-1.5814243743729757, 1.0),
                                             (-0.9874647918760768, 1.0))),
     Strategy(math.pi / 2, 6.0795354631842263e-09), "alice"),
]


def test_a_reply_value_is_play_at_the_reply():
    # The reported value is `play` at the reply, not the descent's own best value, which it scored on coordinates
    # built from kept trig: at (pi/2, 0) they are not Q's exact entries, which `play` takes.
    at_q = 0
    for setup, opponent, responder in seeded_axis_replies(30, 600):
        reply, _ = assert_the_value_is_play_at_the_reply(setup, opponent, responder)
        at_q += (reply.alpha, reply.theta) == (math.pi / 2, 0.0)
    assert at_q >= 10, at_q
    for setup, opponent, responder in TWO_PI_COLUMN_REPLIES:
        assert_the_value_is_play_at_the_reply(setup, opponent, responder)
    for setup, opponent, responder in NEAR_Q_REPLIES:
        assert assert_the_reply_is_the_references(setup, opponent, responder) == Q


# Replies still improving when the REFINE_ROUNDS rounds run out: near theta = pi the payoff hardly depends on alpha,
# so alpha creeps one step a round. Every round counts there, the first one at the grid's spacing included.
ROUND_CAPPED_REPLIES = [
    (GameSetup(0.04011837485156681, 0.5837922780808924), Strategy(0.0679467036373306, 3.048781079403662), "alice"),
    (GameSetup(0.06491655849042766, 0.08088210321515703), Strategy(0.19756534493414107, 0.06170297193412431), "bob"),
]


@pytest.mark.parametrize("setup,opponent,responder", ROUND_CAPPED_REPLIES, ids=range(len(ROUND_CAPPED_REPLIES)))
def test_a_reply_that_uses_every_round_equals_the_reference(setup, opponent, responder):
    reply = best_response(setup, opponent, responder)
    assert reply == reference_best_response(setup, opponent, responder)
    assert reply != reference_best_response(setup, opponent, responder, refine=equilibrium.REFINE_ROUNDS + 1)


def best_reply_tasks(seed):
    """The benchmark's best-reply tasks of one seed: 3 (gamma, r) points, each against C, D, Q, M and 8 seeded
    custom moves, for both players, 72 in all (in the benchmark's draw order, not its shuffled order)."""
    rng = np.random.default_rng([seed, 2])
    tasks = []
    for _ in range(3):
        setup = GameSetup(float(rng.uniform(0.0, math.pi / 2)), float(rng.uniform(0.0, math.pi / 4)))
        opponents = [C, D, Q, M]
        opponents += [Strategy(float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, math.pi))) for _ in range(8)]
        tasks += [(setup, opponent, responder) for opponent in opponents for responder in ("alice", "bob")]
    return tasks


def record_candidates(monkeypatch) -> list:
    """Patch `best_response`'s grid prefilter: the candidate indices of each reply are appended to the list returned."""
    found, grid_candidates = [], equilibrium._candidates

    def recording_candidates(*args):
        found.append(grid_candidates(*args))
        return found[-1]

    monkeypatch.setattr(equilibrium, "_candidates", recording_candidates)
    return found


def test_the_work_per_reply_is_pinned(monkeypatch):
    # Engine calls, with `_reply_form`'s 6 probes: 78.8 a reply with a 1e-9 margin, 71.1 with 1e-10, 55.4 with 1e-12,
    # 49.8 once a theta step clamped back onto the best theta is skipped. `_move_entries` only builds the grid: each
    # candidate is scored at the grid's kept coordinates, and the descent builds its own from kept trig.
    tasks = best_reply_tasks(1)
    alphas, thetas, _, _ = _search_grid()  # built, and cached, before `_move_entries` is counted
    entries, move_entries = [], equilibrium._move_entries

    def recording_move_entries(alpha, theta):
        entries.append((alpha, theta))
        return move_entries(alpha, theta)

    calls = record_scored_moves(monkeypatch)
    found = record_candidates(monkeypatch)
    monkeypatch.setattr(equilibrium, "_move_entries", recording_move_entries)
    for setup, opponent, responder in tasks:
        start = len(calls)
        best_response(setup, opponent, responder)
        player = ("alice", "bob").index(responder)
        # After the form's 6 probes the candidates are scored in row-major order, each at `_move_entries` of its point.
        scored = [hexes(pair[player]) for pair in calls[start + 6:start + 6 + len(found[-1])]]
        assert scored == [hexes(move_entries(alphas[k // GRID_POINTS], thetas[k % GRID_POINTS])) for k in found[-1]]
    assert len(tasks) == len(found) == 72
    assert len(calls) / len(tasks) <= 50
    assert entries == []
    assert sum(map(len, found)) / len(tasks) < 12


def test_the_margin_is_taken_over_the_responders_own_column(monkeypatch):
    # The other player's column is the default's times 1e300: a margin taken over it would pass every grid point.
    found = record_candidates(monkeypatch)
    products = _search_grid()[3]
    for player, responder in enumerate(("alice", "bob")):
        pairs = [(a, 1e300 * b) if player == 0 else (1e300 * a, b) for a, b in PayoffTable().entries]
        setup = GameSetup(1.0, 0.3, PayoffTable(*pairs))
        for opponent in (C, D, M, Strategy(1.0, 2.0)):
            best_response(setup, opponent, responder)
            weights = monomial_weights(_reply_form(reply_scorer(setup.gamma, setup.r, opponent.q, player, setup.table)))
            assert found[-1] == _candidates(weights, products, 1e-12 * 5.0 + 1e-300), (opponent, responder)
            assert len(found[-1]) < GRID_POINTS ** 2 // 4, (opponent, responder)


def test_no_descent_step_scores_the_best_point(monkeypatch):
    # A theta step that the clamp to [0, pi] sends back onto the best theta is skipped before its trig: it would score
    # the best point's own coordinates, which cannot strictly beat the best value. Checked on the replies that end at
    # theta = 0 or pi, where a descent that scored it did so in every round from its arrival there on.
    calls = record_scored_moves(monkeypatch)
    found = record_candidates(monkeypatch)
    at_edge = 0
    for setup, opponent, responder in best_reply_tasks(1) + best_reply_tasks(2):
        start = len(calls)
        reply, _ = best_response(setup, opponent, responder)
        if reply.theta not in (0.0, math.pi):
            continue
        at_edge += 1
        player = ("alice", "bob").index(responder)
        score = reply_scorer(setup.gamma, setup.r, opponent.q, player, setup.table)
        best, best_value = None, -math.inf
        for n, pair in enumerate(calls[start + 6:]):  # the grid's candidates, then the descent's steps
            if n >= len(found[-1]):
                assert pair[player] != best, (setup, opponent, responder)
            value = score(pair[player])
            if value > best_value:
                best, best_value = pair[player], value
        # At Q the descent scores (cos(pi/2), 0, 1), not Q's exact coordinates.
        assert best == reply.q or (reply.alpha, reply.theta) == (math.pi / 2, 0.0)
    assert at_edge >= 40, at_edge


def test_a_reply_to_c_d_or_q_is_never_below_the_best_of_c_d_and_q():
    # Against an axis move the reply form is diagonal (tests/test_axis_replies.py), so the best of C, D and Q is the
    # best reply over the whole move space: the search must reach it, with no tolerance.
    rng = np.random.default_rng(16)
    replies = 0
    for k in range(500):
        table = PayoffTable.from_scalars(*rng.normal(0.0, 3.0, 4)) if k % 2 else PayoffTable()
        setup = GameSetup(float(rng.uniform(0.0, math.pi / 2)), float(rng.uniform(0.0, math.pi / 4)), table)
        for opponent in (C, D, Q):
            for responder, player in (("alice", 0), ("bob", 1)):
                moves = [(own, opponent) if player == 0 else (opponent, own) for own in (C, D, Q)]
                best_axis = max(play(setup, *pair)[player] for pair in moves)
                assert best_response(setup, opponent, responder)[1] >= best_axis, (setup, opponent, responder)
                replies += 1
    assert replies == 3000


def test_search_grid_is_built_once_and_read_only():
    assert _search_grid() is _search_grid()
    alphas, thetas, points, products = _search_grid()
    assert type(alphas) is type(thetas) is type(points) is tuple and len(alphas) == len(thetas) == GRID_POINTS
    assert len(points) == GRID_POINTS**2
    assert all(type(q) is tuple and len(q) == 3 and all(type(x) is float for x in q) for q in points)
    assert products.shape == (GRID_POINTS**2, 6) and products.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        products[0, 0] = 0.0


def test_the_theta_step_is_half_the_alpha_step_at_every_halving():
    # The descent keeps one step, alpha's, steps theta by half of it and stops on alpha's step alone. That holds
    # because the grid's spacings are in ratio 2 exactly and each halving keeps them so, down to REFINE_MIN_STEP.
    alphas, thetas, _, _ = _search_grid()
    step_a, step_t = alphas[1], thetas[1]
    halvings = 0
    while True:
        assert step_t == step_a / 2.0 and max(step_a, step_t) == step_a
        if step_a < REFINE_MIN_STEP:
            break
        step_a, step_t = step_a / 2.0, step_t / 2.0
        halvings += 1
    assert halvings == 18


def test_search_grid_is_move_entries_at_each_point_and_the_former_per_axis_grid_bit_for_bit():
    alphas, thetas, points, products = _search_grid()
    assert alphas == tuple(min(i * (TWO_PI / (GRID_POINTS - 1)), TWO_PI) for i in range(GRID_POINTS))
    assert thetas == tuple(min(j * (math.pi / (GRID_POINTS - 1)), math.pi) for j in range(GRID_POINTS))
    assert [hexes(q) for q in points] == [hexes(_move_entries(alpha, theta)) for alpha in alphas for theta in thetas]

    def monomials(q0, q1, q3):
        return np.array((q0 * q0, q1 * q1, q3 * q3, q0 * q1, q0 * q3, q1 * q3)).T

    got = products.view(np.int64)
    assert np.array_equal(got, monomials(*grid_points().T).view(np.int64))
    # One point at a time on Python floats: row-major order puts alpha along the rows.
    for k in (0, 1, GRID_POINTS, GRID_POINTS**2 - 1, 517):
        q0, q1, q3 = _move_entries(alphas[k // GRID_POINTS], thetas[k % GRID_POINTS])
        want = (q0 * q0, q1 * q1, q3 * q3, q0 * q1, q0 * q3, q1 * q3)
        assert [x.hex() for x in products[k].tolist()] == [x.hex() for x in want]
    # The grid best_response built on every call before: per-axis cos and sin from `math`, multiplied by numpy.
    cos_a, sin_a = (np.array([f(a) for a in alphas])[:, None] for f in (math.cos, math.sin))
    cos_t, sin_t = (np.array([f(t / 2.0) for t in thetas]) for f in (math.cos, math.sin))
    former = (axis.reshape(-1) for axis in np.broadcast_arrays(cos_a * cos_t, sin_t, sin_a * cos_t))
    assert np.array_equal(got, monomials(*former).view(np.int64))


def test_find_dominant_rejects_unknown_player():
    table = payoff_table(classical_setup(), CLASSICAL_SET)
    with pytest.raises(ValueError):
        find_dominant(table, "carol")
    with pytest.raises(ValueError, match="responder must be"):
        set_best_responses(table, "carol")


def test_square_table_required():
    with pytest.raises(ValueError):
        find_nash([[], []])


def test_an_iterator_of_strategies_gives_what_its_list_gives():
    # The set used to be read twice: `payoff_table` returned [] for an iterator, and `analyze` raised
    # "payoff table must be square and nonempty".
    setup = GameSetup(0.3, 0.2)
    assert payoff_table(setup, iter([C, D])) == payoff_table(setup, [C, D])
    assert analyze(setup, iter([C, D, Q])) == analyze(setup, [C, D, Q])
    assert analyze(setup, (s for s in (Q, M))).strategies == [Q, M]


REFUSED_SETS = {
    "None": (lambda: None, "must not be empty"),
    "[]": (lambda: [], "must not be empty"),
    "()": (lambda: (), "must not be empty"),
    "iter([])": (lambda: iter([]), "must not be empty"),
    "[C, D, C]": (lambda: [C, D, Strategy(0.0, 0.0)], "duplicate strategy in set"),
    "iter([Q, Q])": (lambda: iter([Q, Q]), "duplicate strategy in set: Q"),
    # 5 and C used to raise TypeError from list() ("'int' object is not iterable"); 0 was refused as empty.
    "5": (lambda: 5, "must be an iterable of Strategy objects, got 5"),
    "0": (lambda: 0, "must be an iterable of Strategy objects, got 0"),
    "C": (lambda: C, r"must be an iterable of Strategy objects, got Strategy\(alpha=0.0"),
}


@pytest.mark.parametrize("name", REFUSED_SETS)
def test_a_refused_strategy_set_is_refused_by_both_readers(name):
    make, message = REFUSED_SETS[name]
    for call in (payoff_table, analyze):
        with pytest.raises(ValueError, match=message):
            call(GameSetup(0.3, 0.2), make())


TABLE_FUNCTIONS = {
    "find_nash": find_nash,
    "pareto_front": pareto_front,
    "find_dominant alice": lambda table: find_dominant(table, "alice"),
    "set_best_responses alice": lambda table: set_best_responses(table, "alice"),
}


# Each used to raise TypeError from len(): "object of type 'int' has no len()".
WITHOUT_A_LENGTH = {
    "None": None,
    "[1, 2]": [1, 2],
    "[[cell, cell], 1]": [[(3.0, 3.0), (0.0, 5.0)], 1],
    "iter([[cell]])": iter([[(3.0, 3.0)]]),
}


@pytest.mark.parametrize("name", WITHOUT_A_LENGTH)
@pytest.mark.parametrize("function", TABLE_FUNCTIONS)
def test_a_table_or_row_without_a_length_is_a_value_error(name, function):
    with pytest.raises(ValueError, match="^payoff table must be square and nonempty$"):
        TABLE_FUNCTIONS[function](WITHOUT_A_LENGTH[name])


@pytest.mark.parametrize("name", TABLE_FUNCTIONS)
@pytest.mark.parametrize("alice_cc", [math.nan, math.inf, -math.inf, "3", None, 1j], ids=repr)
def test_a_cell_that_is_not_two_finite_reals_is_a_value_error(name, alice_cc):
    # Alice's CC payoff of the default game replaced. Before the cells were checked, NaN put the dominated
    # (D,D) on the Pareto front and made `set_best_responses` raise IndexError, inf gave answers, and "3"
    # raised TypeError.
    table = payoff_table(classical_setup(), CLASSICAL_SET)
    table[0][0] = (alice_cc, table[0][0].bob)
    with pytest.raises(ValueError, match=re.escape(f"finite real numbers, got {(alice_cc, 3.0)!r}")):
        TABLE_FUNCTIONS[name](table)


@pytest.mark.parametrize("name", TABLE_FUNCTIONS)
@pytest.mark.parametrize("cell", [1, (1.0,)], ids=repr)
def test_a_cell_without_items_0_and_1_is_a_value_error(name, cell):
    # A number has no item 0 and a one-tuple no item 1: both are refused with the cell message, not TypeError
    # or IndexError.
    with pytest.raises(ValueError, match=re.escape(f"finite real numbers, got {cell!r}")):
        TABLE_FUNCTIONS[name]([[cell]])


@pytest.mark.parametrize("name", TABLE_FUNCTIONS)
def test_a_float32_cell_is_read_as_a_python_float(name):
    # Compared with a Python float past float32's range, a float32 payoff used to warn "overflow encountered in cast".
    table = [[(np.float32(1.25), PAYOFF_ENTRY_MAX), (5e-324, np.float32(-0.5))], [(-PAYOFF_ENTRY_MAX, 0.0), (2, 1.0)]]
    floats = [[tuple(map(float, cell)) for cell in row] for row in table]
    assert TABLE_FUNCTIONS[name](table) == TABLE_FUNCTIONS[name](floats)


def test_analyze_and_each_table_function_check_each_cell_once(monkeypatch):
    # `_views` reads a table once, and `analyze` passes the views of the table it scored to the four functions: it
    # used to check that table seven times (7 n^2 cells) and `find_nash` its table twice (2 n^2).
    cells = []
    check = equilibrium._payoff_cell
    monkeypatch.setattr(equilibrium, "_payoff_cell", lambda cell: cells.append(cell) or check(cell))
    setup, strategies = GameSetup(1.2, 0.3), [C, D, Q, M]
    table = payoff_table(setup, strategies)
    calls = {
        "analyze": lambda: analyze(setup, strategies),
        "find_dominant bob": lambda: find_dominant(table, "bob"),
        "set_best_responses bob": lambda: set_best_responses(table, "bob"),
        **{name: (lambda f=f: f(table)) for name, f in TABLE_FUNCTIONS.items()},
    }
    for name, call in calls.items():
        cells.clear()
        call()
        assert len(cells) == len(strategies) ** 2, name


def test_a_plain_tuple_of_two_rows_is_checked_as_a_table_not_taken_as_views():
    # Only a `_Views` passes unchecked. A tuple of two rows is a 2 x 2 table, read as the list of the same rows is;
    # taken as views, its rows of numbers would be Alice's and Bob's payoffs.
    rows = (Payoffs(3.0, 3.0), Payoffs(0.0, 5.0)), (Payoffs(5.0, 0.0), Payoffs(1.0, 1.0))
    assert _views(rows) == _Views([[3.0, 0.0], [5.0, 1.0]], [[3.0, 0.0], [5.0, 1.0]])
    for name, f in TABLE_FUNCTIONS.items():
        assert f(rows) == f(list(rows)), name
        with pytest.raises(ValueError, match="^payoff table cells must be pairs of finite real numbers, got 3.0$"):
            f(((3.0, 0.0), (5.0, 1.0)))


def reference_find_nash(table):
    """`find_nash` before the player view: its own index bookkeeping and tolerance test per player."""
    n = len(_views(table).alice)
    out = []
    for i in range(n):
        for j in range(n):
            alice_ok = all(table[k][j].alice <= table[i][j].alice + DEVIATION_TOL for k in range(n))
            bob_ok = all(table[i][k].bob <= table[i][j].bob + DEVIATION_TOL for k in range(n))
            if alice_ok and bob_ok:
                out.append((i, j))
    return out


def reference_find_dominant(table, player):
    """`find_dominant` before the player view."""
    n = len(_views(table).alice)
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


def reference_set_best_responses(table, responder):
    """`set_best_responses` before the player view."""
    n = len(_views(table).alice)
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


def reference_pareto_front(table):
    """`pareto_front` before the player views: each profile's pair read from the table's cell."""
    n = len(_views(table).alice)
    cells = [(i, j) for i in range(n) for j in range(n)]

    def dominated(cell):
        pa, pb = table[cell[0]][cell[1]]
        for other in cells:
            qa, qb = table[other[0]][other[1]]
            no_worse = qa >= pa - DEVIATION_TOL and qb >= pb - DEVIATION_TOL
            if no_worse and (qa > pa + DEVIATION_TOL or qb > pb + DEVIATION_TOL):
                return True
        return False

    return [cell for cell in cells if not dominated(cell)]


# Per base, entries DEVIATION_TOL / 2, DEVIATION_TOL and 2 * DEVIATION_TOL apart (exactly so at base 0),
# drawn from few enough values that ties and near-ties at the tolerance are common.
TIE_OFFSETS = (0.0, DEVIATION_TOL / 2, DEVIATION_TOL, 2 * DEVIATION_TOL)
TIE_VALUES = [base + offset for base in (0.0, 1.0, 3.0) for offset in TIE_OFFSETS]


def seeded_tables(count, seed):
    """`count` square tables of sizes 1 to 4: tie-heavy, uniform, and entry by entry mixed."""
    rng = np.random.default_rng(seed)

    def tie():
        return TIE_VALUES[rng.integers(len(TIE_VALUES))]

    def uniform():
        return float(rng.uniform(-5.0, 5.0))

    def mixed():
        return tie() if rng.random() < 0.5 else uniform()

    for k in range(count):
        n = k % 4 + 1
        draw = (tie, uniform, mixed)[k // 4 % 3]
        yield [[Payoffs(draw(), draw()) for _ in range(n)] for _ in range(n)]


def test_solution_concepts_equal_the_former_per_player_code():
    tables = list(seeded_tables(12_000, 10))
    weak = 0
    for table in tables:
        assert find_nash(table) == reference_find_nash(table)
        assert pareto_front(table) == reference_pareto_front(table)
        for player in ("alice", "bob"):
            dominant = find_dominant(table, player)
            assert dominant == reference_find_dominant(table, player)
            assert set_best_responses(table, player) == reference_set_best_responses(table, player)
            weak += dominant is not None and dominant[1] == "weak"
    # The tie-heavy tables reach every branch, weak dominance included.
    assert weak > 100
