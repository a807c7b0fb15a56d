"""Full game pipeline against the analytic oracles and direct scoring checks."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from linalg import basis_ket
from unruhpd.closed_forms import (
    max_entangled_classical,
    miracle_vs_classical,
    q_vs_arbitrary,
    unentangled_classical,
)
from unruhpd.game import NAMED_STRATEGIES, Strategy, named_strategy_matrix
from unruhpd.payoff import PAYOFF_ENTRY_MAX, GameSetup, PayoffTable, final_density, payoffs, play

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


def test_a_table_states_its_defaults_in_its_constructor_only():
    assert [f.name for f in dataclasses.fields(PayoffTable)] == ["cc", "cd", "dc", "dd"]
    for f in dataclasses.fields(PayoffTable):
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        assert f.name not in vars(PayoffTable)
    assert PayoffTable().entries() == ((3.0, 3.0), (0.0, 5.0), (5.0, 0.0), (1.0, 1.0))
    assert PayoffTable(**dataclasses.asdict(PayoffTable())) == PayoffTable()


def test_setup_validation():
    with pytest.raises(ValueError):
        GameSetup(gamma=2.0, r=0.0)
    with pytest.raises(ValueError):
        GameSetup(gamma=0.0, r=1.0)
    with pytest.raises(ValueError, match="entanglement gamma must lie in"):
        dataclasses.replace(GameSetup(0.3, 0.2), gamma=99.0)
    with pytest.raises(ValueError, match="entanglement gamma must lie in"):
        GameSetup(gamma=2.0, r=1.0)
    with pytest.raises(ValueError, match="table must be a PayoffTable"):
        GameSetup(0.1, 0.1, None)
    with pytest.raises(ValueError, match="table must be a PayoffTable"):
        GameSetup(0.1, 0.1, ((3, 3),) * 4)


def test_setup_keeps_dataclass_behaviour():
    setup = GameSetup(0.3, 0.2)
    assert setup == GameSetup(gamma=0.3, r=0.2, table=PayoffTable()) == GameSetup(0.3, r=0.2)
    assert setup.table == PayoffTable()
    assert hash(setup) == hash(GameSetup(0.3, 0.2))
    assert setup != GameSetup(0.3, 0.2, PayoffTable.from_scalars(2.0, 0.0, 5.0, 1.0))
    assert repr(setup) == (
        "GameSetup(gamma=0.3, r=0.2, table=PayoffTable(cc=(3.0, 3.0), cd=(0.0, 5.0), dc=(5.0, 0.0), dd=(1.0, 1.0)))"
    )
    assert GameSetup(1.5707964, 0.1).gamma == math.pi / 2
    assert dataclasses.replace(setup, r=0.5) == GameSetup(0.3, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setup.r = 0.5


def test_final_density_identity_case():
    rho = projector(0)
    out = final_density(rho, np.eye(2), np.eye(2), gamma=0.0)
    assert np.abs(out - rho).max() <= 1e-15


def test_final_density_cooperate_defect_at_max_entanglement():
    # Unilateral defection against the maximally entangled start state lands
    # on the opposite pure outcome with certainty.
    from unruhpd.game import initial_state
    from unruhpd.unruh import unruh_channel

    rho = unruh_channel(initial_state(math.pi / 2), 0.0)
    out = final_density(rho, named_strategy_matrix(C), named_strategy_matrix(D), math.pi / 2)
    assert np.abs(out - projector(2)).max() <= 1e-14


def test_final_density_q_vs_cooperate_at_max_entanglement():
    from unruhpd.game import initial_state
    from unruhpd.unruh import unruh_channel

    rho = unruh_channel(initial_state(math.pi / 2), 0.0)
    out = final_density(rho, named_strategy_matrix(Q), named_strategy_matrix(C), math.pi / 2)
    assert np.abs(out - projector(3)).max() <= 1e-14


def test_final_density_rejects_non_unitary_moves():
    with pytest.raises(ValueError):
        final_density(projector(0), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), 0.0)
    with pytest.raises(ValueError):
        final_density(projector(0), np.eye(2), np.full((2, 2), np.nan), 0.0)


@pytest.mark.parametrize("shape", [(2, 2), (4,), (16,), (4, 4, 1)])
def test_final_density_and_payoffs_reject_a_matrix_that_is_not_4x4(shape):
    rho = np.zeros(shape, dtype=complex)
    message = "^" + re.escape(f"expected a 4x4 density matrix, got shape {shape}") + "$"
    with pytest.raises(ValueError, match=message):
        final_density(rho, np.eye(2), np.eye(2), 0.0)
    with pytest.raises(ValueError, match=message):
        payoffs(rho, PayoffTable())


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_final_density_rejects_a_non_finite_entry(bad):
    rho = projector(0)
    rho[2, 1] = bad
    with pytest.raises(ValueError, match="^density matrix entries must be finite$"):
        final_density(rho, np.eye(2), np.eye(2), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_payoffs_rejects_a_non_finite_entry(bad):
    rho = projector(0)
    rho[1, 1] = bad
    with pytest.raises(ValueError, match="^density matrix entries must be finite$"):
        payoffs(rho, PayoffTable())


def test_final_density_preserves_trace_and_hermiticity():
    from unruhpd.game import initial_state
    from unruhpd.unruh import unruh_channel

    rho = unruh_channel(initial_state(0.9), 0.4)
    u_alice, u_bob = named_strategy_matrix(Strategy(1.0, 2.0)), named_strategy_matrix(Strategy(4.0, 0.5))
    out = final_density(rho, u_alice, u_bob, 0.9)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.abs(out - out.conj().T).max() <= 1e-13


def test_payoffs_pure_and_mixed_diagonals():
    table = PayoffTable()
    assert payoffs(projector(0), table) == (3.0, 3.0)
    assert payoffs(np.eye(4) / 4.0, table) == (9.0 / 4.0, 9.0 / 4.0)
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
    # Any pair of real numbers is an entry: ints, lists.
    assert play(GameSetup(0.0, 0.0, PayoffTable(cc=(3, 3), cd=[0.0, 5.0])), C, C) == (3.0, 3.0)
    # Entries near the largest accepted magnitude still give finite expected payoffs.
    moves = [Strategy(3.8833572991210827, 0.7865899118780634), Strategy(5.713206487480548, 3.085946394758231)]
    rng = np.random.default_rng(7)
    moves += [Strategy(a, t) for a, t in rng.uniform(0.0, 1.0, (50, 2)) * (2 * math.pi, math.pi)]
    for big in (4.4e307, PAYOFF_ENTRY_MAX, -PAYOFF_ENTRY_MAX):
        setup = GameSetup(0.442485415707535, 0.5895272792426347, PayoffTable.from_scalars(big, big, big, big))
        for alice, bob in zip(moves, moves[::-1]):
            assert all(math.isfinite(x) and abs(x) <= abs(big) * (1 + 1e-15) for x in play(setup, alice, bob))


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, sys.float_info.max, -sys.float_info.max, pytest.param(10**400, id="int-1e400")]
)
def test_payoff_table_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="pairs of finite numbers"):
        PayoffTable(cd=(0.0, bad))
    with pytest.raises(ValueError):
        PayoffTable.from_scalars(3.0, 0.0, bad, 1.0)


@pytest.mark.parametrize("bad", [(1.0, 2.0, 3.0), (1.0,), (), 3.0, ("3", "3"), "33", (1j, 0.0), None])
def test_payoff_table_rejects_entries_that_are_not_pairs_of_numbers(bad):
    # Each of these used to be accepted, or to raise TypeError, at construction.
    with pytest.raises(ValueError, match="pairs of finite numbers"):
        PayoffTable(cc=bad)


def test_payoff_table_pairs_are_tuples_of_floats():
    table = PayoffTable(cc=(3, 3), cd=[0.0, 5.0], dc=np.array([5.0, 0.0]), dd=(np.float64(1.0), True))
    assert table.entries() == ((3.0, 3.0), (0.0, 5.0), (5.0, 0.0), (1.0, 1.0))
    assert all(type(x) is float for pair in table.entries() for x in pair)
    assert all(type(pair) is tuple for pair in table.entries())
    # The bound applies to the value, not to arithmetic in the entry's own type: float32 near its maximum is fine.
    assert PayoffTable(cc=(np.float32(3e38), 0.0)).cc == (float(np.float32(3e38)), 0.0)


def test_setup_with_a_list_pair_is_hashable():
    setup = GameSetup(0.1, 0.1, PayoffTable(cd=[0.0, 5.0]))
    assert hash(setup) == hash(GameSetup(0.1, 0.1))


def test_tables_with_array_pairs_compare():
    assert PayoffTable(cc=np.array([3.0, 3.0])) == PayoffTable(cc=np.array([3.0, 3.0])) == PayoffTable()


def test_play_with_an_array_pair_returns_floats():
    got = play(GameSetup(0.3, 0.2, PayoffTable(cc=np.array([3.0, 3.0]))), C, D)
    assert type(got.alice) is float and type(got.bob) is float
    assert got == play(GameSetup(0.3, 0.2), C, D)
