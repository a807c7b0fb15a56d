"""Finite-set equilibrium classification and continuous best-response search."""

import math
import re

import numpy as np
import pytest

from unruhpd.closed_forms import miracle_vs_classical
from unruhpd.equilibrium import (
    DEVIATION_TOL,
    GRID_POINTS,
    REFINE_MIN_STEP,
    _candidates,
    _reply_form,
    _search_grid,
    _check_player,
    _check_square,
    analyze,
    best_response,
    find_dominant,
    find_nash,
    pareto_front,
    payoff_table,
    set_best_responses,
    validate_strategy_set,
)
from unruhpd.game import NAMED_STRATEGIES, TWO_PI, Strategy, _move_entries, move_entries
from unruhpd.payoff import PAYOFF_ENTRY_MAX, GameSetup, Payoffs, PayoffTable, _reply_scorer, play, play_entries

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


@pytest.mark.parametrize("k,config", enumerate(CONFIGS))
def test_best_response_equals_per_game_search_with_default_knobs(k, config):
    # The reference's default knobs are best_response's constants; every opponent meets every configuration.
    setup = GameSetup(*config)
    for opponent in OPPONENTS:
        for responder in ("alice", "bob"):
            got = best_response(setup, opponent, responder)
            # Strategy equality compares alpha, theta and label.
            assert got == reference_best_response(setup, opponent, responder)
            assert type(got[1]) is float


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


@pytest.mark.parametrize("table", SCORER_TABLES, ids=range(len(SCORER_TABLES)))
def test_reply_scorer_equals_play_entries_bit_for_bit(table):
    # The search's scorer must give what the engine entry gives, on floats and on the grid's arrays,
    # for each player: best_response's replies rest on it.
    _, _, grid = _search_grid()
    rng = np.random.default_rng(17)
    moves = [move_entries(s) for s in OPPONENTS] + [_move_entries(*rng.uniform((0.0, 0.0), (TWO_PI, math.pi)))]
    for gamma, r in CONFIGS:
        setup = GameSetup(gamma, r, table)
        for opponent in OPPONENTS:
            other = move_entries(opponent)
            for player in (0, 1):
                score = _reply_scorer(setup.gamma, setup.r, other, player, table)

                def engine(own):
                    alice, bob = (own, other) if player == 0 else (other, own)
                    return play_entries(gamma, r, alice, bob, table)[player]

                for own in moves:
                    got, want = score(own), engine(own)
                    assert type(got) is type(want) is float
                    assert got.hex() == want.hex()
                got, want = score(grid), engine(grid)
                assert got.shape == want.shape == (GRID_POINTS, GRID_POINTS)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


# The scorer's tables, an all-zero table, and tables scaled down to and near the subnormal range: at 5e-324, 1e-9
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
    # margin, so the scorer's first maximum (the grid point best_response takes) is always a candidate.
    _, _, grid = _search_grid()
    q = np.stack(grid, axis=-1)
    for gamma, r in CONFIGS:
        for opponent in OPPONENTS:
            for player in (0, 1):
                score = _reply_scorer(gamma, r, move_entries(opponent), player, table)
                form = _reply_form(score)
                matrix = np.array(form)
                assert np.array_equal(matrix, matrix.T)
                values = np.einsum("...i,ij,...j->...", q, matrix, q)
                kernel = score(grid)
                weight = max(abs(pair[player]) for pair in table.entries())
                delta = 1e-9 * weight + 1e-300
                assert np.abs(values - kernel).max() <= delta / 4
                candidates = _candidates(form, weight)
                assert list(candidates) == sorted(set(candidates))
                assert np.argmax(kernel) in candidates
    for config, opponent in REFERENCE_REPLIES:
        setup = GameSetup(*config, table)
        for responder in ("alice", "bob"):
            bits = [
                (reply.alpha.hex(), reply.theta.hex(), value.hex())
                for reply, value in (f(setup, opponent, responder) for f in (best_response, reference_best_response))
            ]
            assert bits[0] == bits[1]


def test_search_grid_is_built_once_and_read_only():
    assert _search_grid() is _search_grid()
    alphas, thetas, grid = _search_grid()
    assert type(alphas) is type(thetas) is tuple and len(alphas) == len(thetas) == GRID_POINTS
    for values in grid:
        assert values.shape == (GRID_POINTS, GRID_POINTS)
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 0.0


def test_search_grid_is_move_entries_at_each_point_and_the_former_per_axis_grid_bit_for_bit():
    alphas, thetas, grid = _search_grid()
    assert alphas == tuple(min(i * (TWO_PI / (GRID_POINTS - 1)), TWO_PI) for i in range(GRID_POINTS))
    assert thetas == tuple(min(j * (math.pi / (GRID_POINTS - 1)), math.pi) for j in range(GRID_POINTS))
    got = np.stack(grid, axis=-1).view(np.int64)
    want = np.array([[_move_entries(alpha, theta) for theta in thetas] for alpha in alphas])
    assert np.array_equal(got, want.view(np.int64))
    # The grid best_response built on every call before: per-axis cos and sin from `math`, multiplied by numpy.
    cos_a, sin_a = (np.array([f(a) for a in alphas])[:, None] for f in (math.cos, math.sin))
    cos_t, sin_t = (np.array([f(t / 2.0) for t in thetas]) for f in (math.cos, math.sin))
    former = np.broadcast_arrays(cos_a * cos_t, sin_t, sin_a * cos_t)
    assert np.array_equal(got, np.stack(former, axis=-1).view(np.int64))


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
def test_a_float32_cell_is_read_as_a_python_float(name):
    # Compared with a Python float past float32's range, a float32 payoff used to warn "overflow encountered in cast".
    table = [[(np.float32(1.25), PAYOFF_ENTRY_MAX), (5e-324, np.float32(-0.5))], [(-PAYOFF_ENTRY_MAX, 0.0), (2, 1.0)]]
    floats = [[tuple(map(float, cell)) for cell in row] for row in table]
    assert TABLE_FUNCTIONS[name](table) == TABLE_FUNCTIONS[name](floats)


def reference_find_nash(table):
    """`find_nash` before the player view: its own index bookkeeping and tolerance test per player."""
    n = len(_check_square(table))
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
    n = len(_check_square(table))
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
    n = len(_check_square(table))
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
        for player in ("alice", "bob"):
            dominant = find_dominant(table, player)
            assert dominant == reference_find_dominant(table, player)
            assert set_best_responses(table, player) == reference_set_best_responses(table, player)
            weak += dominant is not None and dominant[1] == "weak"
    # The tie-heavy tables reach every branch, weak dominance included.
    assert weak > 100
