"""Full game pipeline against the analytic oracles and direct scoring checks."""

import math

import numpy as np
import pytest

from unruhpd.closed_forms import (
    max_entangled_classical,
    miracle_vs_classical,
    q_vs_arbitrary,
    unentangled_classical,
)
from unruhpd.game import NAMED_STRATEGIES, Strategy, named_strategy_matrix
from unruhpd.linalg import basis_ket, identity, sup_norm
from unruhpd.payoff import GameSetup, PayoffTable, final_density, payoffs, play

RNG = np.random.default_rng(20240813)

C = NAMED_STRATEGIES["C"]
D = NAMED_STRATEGIES["D"]
Q = NAMED_STRATEGIES["Q"]
M = NAMED_STRATEGIES["M"]

R_GRID = np.linspace(0.0, math.pi / 4, 9)


def projector(index):
    ket = basis_ket(4, index)
    return np.outer(ket, ket.conj())


def test_default_table_and_scalar_constructor():
    table = PayoffTable()
    assert table.entries() == ((3.0, 3.0), (0.0, 5.0), (5.0, 0.0), (1.0, 1.0))
    rebuilt = PayoffTable.from_scalars(3.0, 0.0, 5.0, 1.0)
    assert rebuilt == table


def test_setup_validation():
    with pytest.raises(ValueError):
        GameSetup(gamma=2.0, r=0.0)
    with pytest.raises(ValueError):
        GameSetup(gamma=0.0, r=1.0)


def test_final_density_identity_case():
    rho = projector(0)
    out = final_density(rho, identity(2), identity(2), gamma=0.0)
    assert sup_norm(out - rho) <= 1e-15


def test_final_density_cooperate_defect_at_max_entanglement():
    # Unilateral defection against the maximally entangled start state lands
    # on the opposite pure outcome with certainty.
    from unruhpd.game import initial_state
    from unruhpd.unruh import unruh_channel

    rho = unruh_channel(initial_state(math.pi / 2), 0.0)
    out = final_density(rho, named_strategy_matrix(C), named_strategy_matrix(D), math.pi / 2)
    assert sup_norm(out - projector(2)) <= 1e-14


def test_final_density_q_vs_cooperate_at_max_entanglement():
    from unruhpd.game import initial_state
    from unruhpd.unruh import unruh_channel

    rho = unruh_channel(initial_state(math.pi / 2), 0.0)
    out = final_density(rho, named_strategy_matrix(Q), named_strategy_matrix(C), math.pi / 2)
    assert sup_norm(out - projector(3)) <= 1e-14


def test_final_density_rejects_non_unitary_moves():
    with pytest.raises(ValueError):
        final_density(projector(0), np.array([[1.0, 1.0], [0.0, 1.0]]), identity(2), 0.0)


def test_final_density_preserves_trace_and_hermiticity():
    from unruhpd.game import initial_state, strategy_matrix
    from unruhpd.unruh import unruh_channel

    rho = unruh_channel(initial_state(0.9), 0.4)
    out = final_density(rho, strategy_matrix(1.0, 2.0), strategy_matrix(4.0, 0.5), 0.9)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert sup_norm(out - out.conj().T) <= 1e-13


def test_payoffs_pure_and_mixed_diagonals():
    table = PayoffTable()
    assert payoffs(projector(0), table) == (3.0, 3.0)
    assert payoffs(identity(4) / 4.0, table) == (9.0 / 4.0, 9.0 / 4.0)
    got = payoffs(np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex), table)
    assert abs(got.alice - 0.5) <= 1e-15 and abs(got.bob - 3.0) <= 1e-15


def test_play_classical_inertial_game():
    got = play(GameSetup(gamma=0.0, r=0.0), C, C)
    assert abs(got.alice - 3.0) <= 1e-14 and abs(got.bob - 3.0) <= 1e-14


@pytest.mark.parametrize("r", [0.0, 0.3, math.pi / 4])
def test_play_defect_vs_cooperate_shape(r):
    got = play(GameSetup(gamma=0.0, r=r), D, C)
    assert abs(got.alice - (3.0 + 2.0 * math.cos(2 * r))) <= 1e-12
    assert abs(got.bob - math.sin(r) ** 2) <= 1e-12


def test_play_cooperation_value_at_infinite_acceleration():
    got = play(GameSetup(gamma=math.pi / 2, r=math.pi / 4), C, C)
    want = 1.0 + math.sqrt(2.0) / 2.0 + 0.5 + 5.0 / 8.0
    assert abs(got.alice - want) <= 1e-12
    assert abs(got.bob - want) <= 1e-12


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("profile", ["CC", "CD", "DC", "DD"])
def test_engine_matches_unentangled_forms(r, profile):
    setup = GameSetup(gamma=0.0, r=float(r))
    got = play(setup, NAMED_STRATEGIES[profile[0]], NAMED_STRATEGIES[profile[1]])
    want = unentangled_classical(float(r), profile)
    assert abs(got.alice - want.alice) <= 1e-12
    assert abs(got.bob - want.bob) <= 1e-12


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("profile", ["CC", "CD", "DC", "DD"])
def test_engine_matches_max_entangled_forms(r, profile):
    setup = GameSetup(gamma=math.pi / 2, r=float(r))
    got = play(setup, NAMED_STRATEGIES[profile[0]], NAMED_STRATEGIES[profile[1]])
    want = max_entangled_classical(float(r), profile)
    assert abs(got.alice - want.alice) <= 1e-12
    assert abs(got.bob - want.bob) <= 1e-12


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("alpha_b", [0.0, math.pi / 4])
@pytest.mark.parametrize("theta_b", [0.0, math.pi / 2, math.pi])
def test_engine_matches_q_move_forms(r, alpha_b, theta_b):
    setup = GameSetup(gamma=math.pi / 2, r=float(r))
    got = play(setup, Q, Strategy(alpha_b, theta_b))
    want = q_vs_arbitrary(float(r), alpha_b, theta_b)
    assert abs(got.alice - want.alice) <= 1e-12
    assert abs(got.bob - want.bob) <= 1e-12


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("reply,theta_b", [("C", 0.0), ("D", math.pi)])
def test_engine_matches_miracle_forms(r, reply, theta_b):
    setup = GameSetup(gamma=math.pi / 2, r=float(r))
    got = play(setup, M, NAMED_STRATEGIES[reply])
    want = miracle_vs_classical(float(r), theta_b)
    assert abs(got.alice - want.alice) <= 1e-12
    assert abs(got.bob - want.bob) <= 1e-12


def test_payoff_bounds_with_default_table():
    for _ in range(40):
        gamma = float(RNG.uniform(0.0, math.pi / 2))
        r = float(RNG.uniform(0.0, math.pi / 4))
        alice = Strategy(float(RNG.uniform(0.0, 2 * math.pi)), float(RNG.uniform(0.0, math.pi)))
        bob = Strategy(float(RNG.uniform(0.0, 2 * math.pi)), float(RNG.uniform(0.0, math.pi)))
        got = play(GameSetup(gamma=gamma, r=r), alice, bob)
        assert -1e-12 <= got.alice <= 5.0 + 1e-12
        assert -1e-12 <= got.bob <= 5.0 + 1e-12


@pytest.mark.parametrize("pair", [("C", "D"), ("D", "C"), ("C", "C"), ("D", "D")])
def test_swap_symmetry_at_max_entanglement(pair):
    setup = GameSetup(gamma=math.pi / 2, r=0.37)
    forward = play(setup, NAMED_STRATEGIES[pair[0]], NAMED_STRATEGIES[pair[1]])
    reverse = play(setup, NAMED_STRATEGIES[pair[1]], NAMED_STRATEGIES[pair[0]])
    assert abs(forward.alice - reverse.bob) <= 1e-12
    assert abs(forward.bob - reverse.alice) <= 1e-12


def test_custom_table_flows_through():
    table = PayoffTable.from_scalars(2.0, 1.0, 4.0, 0.0)
    got = play(GameSetup(gamma=0.0, r=0.0, table=table), C, C)
    assert abs(got.alice - 2.0) <= 1e-14 and abs(got.bob - 2.0) <= 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_payoff_table_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        PayoffTable(cd=(0.0, bad))
    with pytest.raises(ValueError):
        PayoffTable.from_scalars(3.0, 0.0, bad, 1.0)
