"""Strategy space, named moves, entangling operator, initial state."""

import copy
import dataclasses
import math
import pickle
import random
import re

import numpy as np
import pytest

from linalg import basis_ket, is_unitary, matrix_exp
from unruhpd.game import (
    _NAMED_ANGLES,
    D1,
    EDGE_SLACK,
    GAMMA_MAX,
    NAMED_STRATEGIES,
    TWO_PI,
    Strategy,
    clamp_to_domain,
    entangler,
    initial_state,
    named_strategy_matrix,
    validate_gamma,
)
from unruhpd.payoff import GameSetup, PayoffTable, play


def test_cooperate_matrix_is_identity():
    assert np.array_equal(named_strategy_matrix(Strategy(0.0, 0.0)), np.eye(2))


def test_defect_matrix_is_i_times_bit_flip():
    want = np.array([[0.0, 1j], [1j, 0.0]])
    assert np.abs(named_strategy_matrix(Strategy(0.0, math.pi)) - want).max() <= 1e-12


def test_miracle_matrix():
    want = (1j / math.sqrt(2)) * np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.abs(named_strategy_matrix(Strategy(math.pi / 2, math.pi / 2)) - want).max() <= 1e-12


def test_named_matrices():
    assert np.array_equal(named_strategy_matrix(NAMED_STRATEGIES["Q"]), np.diag([1j, -1j]))
    assert np.array_equal(named_strategy_matrix(NAMED_STRATEGIES["C"]), np.eye(2))
    want_d = np.array([[0.0, 1j], [1j, 0.0]])
    assert np.abs(named_strategy_matrix(NAMED_STRATEGIES["D"]) - want_d).max() <= 1e-12


def test_q_label_matrix_sits_at_alpha_half_pi():
    # The diagonal phase move equals the parametrized move at (pi/2, 0).
    assert np.abs(np.diag([1j, -1j]) - named_strategy_matrix(Strategy(math.pi / 2, 0.0))).max() <= 1e-12


def test_move_coordinates_are_the_matrix_and_a_unit_vector():
    # The engine takes a move as (q0, q1, q3) with U = q0 I + i q1 X + i q3 Z.
    assert NAMED_STRATEGIES["Q"].q == (0.0, 0.0, 1.0)
    assert NAMED_STRATEGIES["C"].q == (1.0, 0.0, 0.0)
    eye, x, z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    rng = np.random.default_rng(2024)
    custom = [Strategy(a, t) for a, t in rng.uniform(0.0, 1.0, (200, 2)) * (TWO_PI, math.pi)]
    for s in [*NAMED_STRATEGIES.values(), *custom]:
        q0, q1, q3 = s.q
        assert np.array_equal(named_strategy_matrix(s), q0 * eye + 1j * q1 * x + 1j * q3 * z)
        assert abs(q0**2 + q1**2 + q3**2 - 1.0) <= 4e-16


def test_unitarity_on_dense_parameter_grid():
    for alpha in np.linspace(0.0, TWO_PI, 50):
        for theta in np.linspace(0.0, math.pi, 50):
            u = named_strategy_matrix(Strategy(float(alpha), float(theta)))
            assert is_unitary(u, tol=1e-12)
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12


def test_strategy_domain_errors():
    with pytest.raises(ValueError):
        Strategy(-0.5, 0.0)
    with pytest.raises(ValueError):
        Strategy(0.0, math.pi + 0.2)
    with pytest.raises(ValueError):
        Strategy(TWO_PI + 0.5, 0.0)
    with pytest.raises(ValueError, match="strategy alpha must lie in"):
        dataclasses.replace(Strategy(1.0, 2.0), alpha=99.0)


def test_near_edge_values_are_clamped_not_rejected():
    # Decimal-rounded endpoints like theta = 3.1415927 must be accepted.
    s = Strategy(0.0, 3.1415927)
    assert s.theta == math.pi
    assert Strategy(0.0, 3.1415927) == NAMED_STRATEGIES["D"]
    assert validate_gamma(1.5707964) == GAMMA_MAX


@pytest.mark.parametrize("upper", [GAMMA_MAX, math.pi / 4, TWO_PI, math.pi])
def test_clamp_to_domain_equals_the_clamp_expression(upper):
    # In-domain values return at once; each must be what the clamp gives, -0.0 included.
    values = (0.0, -0.0, upper, math.nextafter(upper, math.inf), -EDGE_SLACK, upper + EDGE_SLACK)
    for value in values + (int(upper), np.float64(upper / 3.0), "0.25"):
        got = clamp_to_domain(value, upper, "x", "[0, u]")
        want = min(max(float(value), 0.0), upper)
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    below, above = math.nextafter(-EDGE_SLACK, -math.inf), math.nextafter(upper + EDGE_SLACK, math.inf)
    for bad in (below, above, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(f"x must lie in [0, u], got {bad}")):
            clamp_to_domain(bad, upper, "x", "[0, u]")


def test_strategy_keeps_dataclass_behaviour():
    strategy = Strategy(1.0, 2.0)
    assert strategy == Strategy(alpha=1.0, theta=2.0) == Strategy(1.0, theta=2.0)
    assert not hasattr(strategy, "label")
    assert hash(strategy) == hash(Strategy(1.0, 2.0))
    assert strategy != Strategy(1.0, 2.5) and NAMED_STRATEGIES["D"] == Strategy(0.0, math.pi)
    assert repr(strategy) == "Strategy(alpha=1.0, theta=2.0)"
    assert repr(NAMED_STRATEGIES["D"]) == "Strategy(alpha=0.0, theta=3.141592653589793)"
    assert dataclasses.replace(strategy, theta=0.5) == Strategy(1.0, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        strategy.alpha = 0.5


def coordinate_bits(strategy):
    """A Strategy's coordinates `q` down to the sign of a zero: each float's hex form."""
    return tuple(value.hex() for value in strategy.q)


def rebuildable_moves():
    rng = random.Random(27)
    return [*NAMED_STRATEGIES.values(), *(Strategy(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, math.pi)) for _ in range(40))]


def test_a_strategys_fields_are_its_two_angles_and_rebuild_it_as_a_dict_and_as_a_tuple():
    assert [f.name for f in dataclasses.fields(Strategy)] == ["alpha", "theta"]
    assert Strategy.__match_args__ == ("alpha", "theta")
    for strategy in rebuildable_moves():
        assert dataclasses.asdict(strategy) == {"alpha": strategy.alpha, "theta": strategy.theta}
        assert dataclasses.astuple(strategy) == (strategy.alpha, strategy.theta)
        for clone in (Strategy(**dataclasses.asdict(strategy)), Strategy(*dataclasses.astuple(strategy))):
            assert clone == strategy and str(clone) == str(strategy)
            assert coordinate_bits(clone) == coordinate_bits(strategy)


def test_a_strategys_coordinates_are_derived_state_that_stays_frozen():
    strategy = Strategy(1.0, 2.0)
    assert coordinate_bits(strategy) == coordinate_bits(dataclasses.replace(strategy))
    with pytest.raises(TypeError, match="'q'"):
        dataclasses.replace(strategy, q=(1.0, 0.0, 0.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        strategy.q = (1.0, 0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del strategy.q


def test_a_strategy_pickled_without_its_coordinates_unpickles_with_them():
    # A pickle as written before `Strategy.q` existed: the state holds the angles only.
    for strategy in (Strategy(1.0, 2.0), NAMED_STRATEGIES["Q"]):
        old = copy.copy(strategy)
        del old.__dict__["q"]
        clone = pickle.loads(pickle.dumps(old))
        assert clone == strategy and clone.q == strategy.q
        setup = GameSetup(0.3, 0.2)
        assert play(setup, clone, NAMED_STRATEGIES["D"]) == play(setup, strategy, NAMED_STRATEGIES["D"])


def test_a_strategy_pickled_with_a_label_unpickles_as_the_move_at_its_angles():
    # A pickle as written while a Strategy held a label: the label is ignored, the angles name the move.
    for label in ("Q", "custom"):
        old = copy.copy(Strategy(math.pi / 2, 0.0))
        old.__dict__["label"] = label
        clone = pickle.loads(pickle.dumps(old))
        assert vars(clone) == vars(NAMED_STRATEGIES["Q"]) and str(clone) == "Q"


def test_a_pickled_strategy_with_an_angle_out_of_its_domain_is_refused():
    strategy = copy.copy(Strategy(1.0, 2.0))
    strategy.__dict__["alpha"] = math.nan
    data = pickle.dumps(strategy)
    with pytest.raises(ValueError, match=r"^strategy alpha must lie in \[0, 2\*pi\], got nan$"):
        pickle.loads(data)


def test_strategy_labels_and_custom_rendering():
    assert str(NAMED_STRATEGIES["C"]) == "C"
    for label, strategy in NAMED_STRATEGIES.items():
        assert str(strategy) == label and Strategy(strategy.alpha, strategy.theta) == strategy
    assert str(Strategy(0.5, 1.25)) == "0.5,1.25"
    assert str(Strategy(0.1, math.pi / 3)) == "0.10000000000000001,1.0471975511965976"


def test_a_named_moves_angles_are_that_move():
    # Written as its angles, or with a decimal-rounded endpoint, a named move is that move: one ==, hash, name and q.
    written = {label: [Strategy(*angles)] for label, angles in _NAMED_ANGLES.items()}
    written["D"].append(Strategy(0.0, 3.1415927))
    written["C"].append(Strategy(-5e-7, -5e-7))
    for label, strategies in written.items():
        named = NAMED_STRATEGIES[label]
        for s in strategies:
            assert s == named and hash(s) == hash(named) and str(s) == str(named) == label
            assert s.q == named.q
    assert NAMED_STRATEGIES["Q"].q == Strategy(math.pi / 2, 0.0).q == (0.0, 0.0, 1.0)
    # Near Q's angles the move is a custom one, with the coordinates of its angles.
    near = Strategy(math.nextafter(math.pi / 2, 0.0), 0.0)
    assert str(near) == f"{near.alpha:.17g},0" and near.q[0] > 0.0


def test_q_written_as_angles_scores_as_q_in_both_seats():
    rng = random.Random(26)
    q, q_as_angles = NAMED_STRATEGIES["Q"], Strategy(math.pi / 2, 0.0)
    named = list(NAMED_STRATEGIES.values())
    for _ in range(10_000):
        table = PayoffTable.from_scalars(*(rng.uniform(-5.0, 5.0) for _ in range(4)))
        setup = GameSetup(rng.uniform(0.0, GAMMA_MAX), rng.uniform(0.0, math.pi / 4), table)
        other = rng.choice(named) if rng.random() < 0.2 else Strategy(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, math.pi))
        for got, want in ((play(setup, q_as_angles, other), play(setup, q, other)),
                          (play(setup, other, q_as_angles), play(setup, other, q))):
            assert [x.hex() for x in got] == [x.hex() for x in want], (setup, other)


def test_entangler_at_zero_is_exact_identity():
    assert np.array_equal(entangler(0.0), np.eye(4))


def test_entangler_on_ground_state_at_max_entanglement():
    state = entangler(math.pi / 2) @ basis_ket(4, 0)
    want = (basis_ket(4, 0) + 1j * basis_ket(4, 3)) / math.sqrt(2)
    assert np.abs(state - want).max() <= 1e-15


@pytest.mark.parametrize("gamma", [0.0, math.pi / 4, math.pi / 2])
def test_entangler_unitary_and_matches_series_exponential(gamma):
    j = entangler(gamma)
    assert is_unitary(j, tol=1e-12)
    series = matrix_exp(1j * (gamma / 2) * np.kron(D1, D1))
    assert np.abs(j - series).max() <= 1e-13


def test_entangler_domain_error():
    with pytest.raises(ValueError):
        entangler(math.pi)


@pytest.mark.parametrize("gamma", [0.0, 0.3, math.pi / 4, math.pi / 2])
def test_entangler_commutes_with_equal_classical_pairs(gamma):
    j = entangler(gamma)
    for name in ("C", "D"):
        u = np.kron(named_strategy_matrix(NAMED_STRATEGIES[name]), named_strategy_matrix(NAMED_STRATEGIES[name]))
        assert np.abs(j @ u - u @ j).max() <= 1e-12


def test_entangler_does_not_commute_with_mixed_classical_pairs():
    j = entangler(math.pi / 2)
    c = named_strategy_matrix(NAMED_STRATEGIES["C"])
    d = named_strategy_matrix(NAMED_STRATEGIES["D"])
    assert np.abs(j @ np.kron(c, d) - np.kron(c, d) @ j).max() > 0.1
    assert np.abs(j @ np.kron(d, c) - np.kron(d, c) @ j).max() > 0.1


def test_initial_state_values():
    assert np.array_equal(initial_state(0.0), basis_ket(4, 0))
    want = (basis_ket(4, 0) + 1j * basis_ket(4, 3)) / math.sqrt(2)
    assert np.abs(initial_state(math.pi / 2) - want).max() <= 1e-15


@pytest.mark.parametrize("gamma", [0.0, 0.2, 0.9, math.pi / 2])
def test_initial_state_equals_entangler_on_ground_state(gamma):
    assert np.abs(initial_state(gamma) - entangler(gamma) @ basis_ket(4, 0)).max() <= 1e-15
    assert abs(np.linalg.norm(initial_state(gamma)) - 1.0) <= 1e-12
