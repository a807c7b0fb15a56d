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
from unruhpd.payoff import (
    PAYOFF_ENTRY_MAX,
    GameSetup,
    PayoffTable,
    _coefficients,
    final_density,
    grid_payoffs,
    payoffs,
    play,
)
from unruhpd.unruh import R_MAX

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
    assert table.entries == ((3.0, 3.0), (0.0, 5.0), (5.0, 0.0), (1.0, 1.0))
    rebuilt = PayoffTable.from_scalars(3.0, 0.0, 5.0, 1.0)
    assert rebuilt == table


def test_a_table_states_its_defaults_in_its_constructor_only():
    assert [f.name for f in dataclasses.fields(PayoffTable)] == ["cc", "cd", "dc", "dd"]
    for f in dataclasses.fields(PayoffTable):
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        assert f.name not in vars(PayoffTable)
    assert PayoffTable().entries == ((3.0, 3.0), (0.0, 5.0), (5.0, 0.0), (1.0, 1.0))
    assert PayoffTable(**dataclasses.asdict(PayoffTable())) == PayoffTable()


def test_a_table_holds_its_entries_once_as_one_tuple():
    table = PayoffTable(cc=[1, -0.0], dd=(2, 2))
    fields = (table.cc, table.cd, table.dc, table.dd)
    assert vars(table)["entries"] is table.entries  # held, not rebuilt on each read
    assert table.entries == fields and all(got is field for got, field in zip(table.entries, fields))
    rebuilt = dataclasses.replace(table, cd=(7, 8))
    assert rebuilt.entries == (table.cc, (7.0, 8.0), table.dc, table.dd)


def test_a_tables_entries_tuple_is_derived_state_that_stays_frozen():
    table = PayoffTable(cc=[1, -0.0], dd=(2, 2))
    assert [f.name for f in dataclasses.fields(PayoffTable)] == ["cc", "cd", "dc", "dd"]
    assert dataclasses.asdict(table) == {"cc": (1.0, -0.0), "cd": (0.0, 5.0), "dc": (5.0, 0.0), "dd": (2.0, 2.0)}
    assert repr(table) == "PayoffTable(cc=(1.0, -0.0), cd=(0.0, 5.0), dc=(5.0, 0.0), dd=(2.0, 2.0))"
    # A table whose tuple says otherwise still compares and hashes by its four fields alone.
    other = PayoffTable(cc=[1, -0.0], dd=(2, 2))
    other.__dict__["entries"] = PayoffTable().entries
    assert other == table and hash(other) == hash(table) == hash((table.cc, table.cd, table.dc, table.dd))
    with pytest.raises(TypeError, match="'entries'"):
        dataclasses.replace(table, entries=PayoffTable().entries)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.entries = PayoffTable().entries
    with pytest.raises(dataclasses.FrozenInstanceError):
        del table.entries
    assert not hasattr(table, "_entries")


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


def hexes(values) -> list[str]:
    return [x.hex() for x in values]


def coefficients(gamma: float, r: float) -> tuple:
    """`_coefficients` of float angles, each cos and sin taken from `math`."""
    return _coefficients(math.cos(gamma / 2), math.sin(gamma / 2), math.cos(r), math.sin(r))


@pytest.mark.parametrize(
    "gamma, r", [(0.0, 0.0), (0.3, 0.2), (math.pi / 2, math.pi / 4), (1.5707965, 0.7853985), (-5e-7, -5e-7), (1, 0)]
)
def test_a_setup_holds_the_coefficients_of_its_checked_gamma_and_r(gamma, r):
    setup = GameSetup(gamma, r)
    assert hexes(setup.coefficients) == hexes(coefficients(setup.gamma, setup.r))
    assert all(type(x) is float for x in setup.coefficients)


def test_a_setup_takes_its_coefficients_from_the_clamped_values_not_its_arguments():
    # 1.5707965 and 0.7853985 lie within the slack past pi/2 and pi/4, and are clamped onto them.
    setup = GameSetup(1.5707965, 0.7853985)
    assert (setup.gamma, setup.r) == (math.pi / 2, math.pi / 4)
    assert hexes(setup.coefficients) == hexes(coefficients(math.pi / 2, math.pi / 4))
    assert hexes(setup.coefficients) != hexes(coefficients(1.5707965, 0.7853985))


def test_a_grid_clamps_its_r_as_a_setup_does_and_scores_each_profile_on_its_own_moves():
    # -5e-7 and pi/4 + 5e-7 lie within the slack past 0 and pi/4, and are scored as those bounds.
    strategies = [C, D, Q, M, Strategy(1.0, 2.0)]
    profiles = [(a.q, b.q) for a in strategies for b in strategies]
    table = PayoffTable.from_scalars(2.5, -1.0, 7.25, 0.5)
    got = grid_payoffs(0.9, np.array([-5e-7, 0.3, R_MAX + 5e-7]), profiles, table.entries)
    clamped = grid_payoffs(0.9, np.array([0.0, 0.3, R_MAX]), profiles, table.entries)
    assert len(got) == len(profiles)
    assert [[v.tobytes() for v in pair] for pair in got] == [[v.tobytes() for v in pair] for pair in clamped]
    # At r = 0 both trig sources give exactly 1 and 0, so each profile scores bit for bit as `play` scores it.
    setup = GameSetup(0.9, 0.0, table)
    plays = [play(setup, a, b) for a in strategies for b in strategies]
    assert [(alice[0], bob[0]) for alice, bob in got] == plays


def test_a_setups_coefficients_are_derived_state_that_stays_frozen():
    setup = GameSetup(0.3, 0.2, PayoffTable.from_scalars(2.0, 0.0, 5.0, 1.0))
    assert [f.name for f in dataclasses.fields(GameSetup)] == ["gamma", "r", "table"]
    assert "coefficients" not in dataclasses.asdict(setup) and "coefficients" not in repr(setup)
    # A setup whose coefficients say otherwise still compares and hashes by its three fields alone.
    other = GameSetup(0.3, 0.2, PayoffTable.from_scalars(2.0, 0.0, 5.0, 1.0))
    other.__dict__["coefficients"] = GameSetup(1.0, 0.5).coefficients
    assert other == setup and hash(other) == hash(setup) == hash((setup.gamma, setup.r, setup.table))
    with pytest.raises(TypeError, match="'coefficients'"):
        dataclasses.replace(setup, coefficients=(0.0,) * 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setup.coefficients = (0.0,) * 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        del setup.coefficients
    # `replace` builds through `__init__`: the new setup holds the coefficients of its own gamma and r.
    for changes in ({"r": 0.5}, {"gamma": 1.5707965}, {"table": PayoffTable()}):
        rebuilt = dataclasses.replace(setup, **changes)
        assert hexes(rebuilt.coefficients) == hexes(coefficients(rebuilt.gamma, rebuilt.r)), changes


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
    assert table.entries == ((3.0, 3.0), (0.0, 5.0), (5.0, 0.0), (1.0, 1.0))
    assert all(type(x) is float for pair in table.entries for x in pair)
    assert all(type(pair) is tuple for pair in table.entries)
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
