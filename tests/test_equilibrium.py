"""Finite-set equilibrium classification and continuous best-response search."""

import math

import numpy as np
import pytest

from unruhpd.closed_forms import miracle_vs_classical
from unruhpd.equilibrium import (
    REFINE_MIN_STEP,
    _grid_moves,
    analyze,
    best_response,
    find_dominant,
    find_nash,
    pareto_front,
    payoff_table,
    set_best_responses,
    validate_strategy_set,
)
from unruhpd.game import NAMED_STRATEGIES, TWO_PI, Strategy, _move
from unruhpd.payoff import GameSetup, Payoffs, PayoffTable, play

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
    with pytest.raises(ValueError):
        best_response(classical_setup(), C, "alice", grid=4)
    with pytest.raises(ValueError):
        best_response(classical_setup(), C, "alice", refine=-1)
    with pytest.raises(ValueError):
        best_response(classical_setup(), C, "carol")
    with pytest.raises(ValueError, match="grid must be an integer"):
        best_response(classical_setup(), C, "alice", grid=8.5)
    with pytest.raises(ValueError, match="refine must be an integer"):
        best_response(classical_setup(), C, "alice", refine=2.5)
    with pytest.raises(ValueError, match="grid must be an integer"):
        best_response(classical_setup(), C, "alice", grid="32")


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
            alpha = min(max(best_alpha + da, 0.0), TWO_PI)
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


def assert_same_reply(setup, opponent, responder, **knobs):
    got = best_response(setup, opponent, responder, **knobs)
    want = reference_best_response(setup, opponent, responder, **knobs)
    # Strategy equality compares alpha, theta and label.
    assert got == want
    assert type(got[1]) is float


@pytest.mark.parametrize("gamma,r", CONFIGS)
def test_best_response_equals_per_game_search_on_a_coarse_grid(gamma, r):
    setup = GameSetup(gamma, r)
    for opponent in OPPONENTS:
        for responder in ("alice", "bob"):
            assert_same_reply(setup, opponent, responder, grid=8, refine=0)


@pytest.mark.parametrize("k,config", enumerate(CONFIGS))
def test_best_response_equals_per_game_search_with_default_knobs(k, config):
    # Each configuration meets one opponent, so all six are covered within the time budget.
    setup = GameSetup(*config)
    opponent = OPPONENTS[k % len(OPPONENTS)]
    for responder in ("alice", "bob"):
        assert_same_reply(setup, opponent, responder)


@pytest.mark.parametrize("k,config", enumerate(CONFIGS[::2]))
def test_best_response_equals_per_game_search_on_an_odd_grid(k, config):
    setup = GameSetup(*config)
    opponent = OPPONENTS[(k + 3) % len(OPPONENTS)]
    for responder in ("alice", "bob"):
        assert_same_reply(setup, opponent, responder, grid=9)


@pytest.mark.parametrize("grid", [8, 9, 32])
def test_grid_moves_equal_move_at_every_grid_point(grid):
    alphas = [min(i * (TWO_PI / (grid - 1)), TWO_PI) for i in range(grid)]
    thetas = [min(j * (math.pi / (grid - 1)), math.pi) for j in range(grid)]
    moves = _grid_moves(alphas, thetas)
    assert moves.shape == (grid, grid, 2, 2)
    for i, alpha in enumerate(alphas):
        for j, theta in enumerate(thetas):
            assert np.array_equal(moves[i, j], _move(alpha, theta))


def test_find_dominant_rejects_unknown_player():
    table = payoff_table(classical_setup(), CLASSICAL_SET)
    with pytest.raises(ValueError):
        find_dominant(table, "carol")


def test_square_table_required():
    with pytest.raises(ValueError):
        find_nash([[], []])
