"""Batched Kraus-form engine: differential tests against the density-matrix
reference and property tests of the physics invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg import basis_ket
import unruhpd.game
import unruhpd.payoff
from unruhpd import closed_forms
from unruhpd.game import NAMED_STRATEGIES, Strategy, entangler, initial_state, named_strategy_matrix, strategy_matrix
from unruhpd.payoff import (
    GameSetup,
    PayoffTable,
    final_density,
    outcome_probabilities,
    payoffs,
    play,
    play_batch,
)
from unruhpd.unruh import unruh_channel

GAMMAS = st.floats(0.0, math.pi / 2)
RS = st.floats(0.0, math.pi / 4)
ALPHAS = st.floats(0.0, 2 * math.pi)
THETAS = st.floats(0.0, math.pi)
TABLES = st.tuples(*[st.floats(-10.0, 10.0)] * 8).map(
    lambda v: PayoffTable(cc=v[0:2], cd=v[2:4], dc=v[4:6], dd=v[6:8])
)
SEEDED = settings(max_examples=300, derandomize=True, deadline=None)

UPPER = np.array([math.pi / 2, math.pi / 4, 2 * math.pi, math.pi, 2 * math.pi, math.pi])


def kraus_operators(r):
    """K0 = diag(cos r, 1) and K1 = sin r |1><0| on Bob's qubit."""
    k0 = np.array([[math.cos(r), 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [math.sin(r), 0.0]], dtype=complex)
    return k0, k1


def reference_payoffs(gamma, r, u_alice, u_bob, table):
    """The density-matrix pipeline: Rindler expansion and partial trace, then J^dag (UA x UB)."""
    rho = unruh_channel(initial_state(gamma), r)
    return np.array(payoffs(final_density(rho, u_alice, u_bob, gamma), table))


R_ARRAYS = st.lists(RS, min_size=1, max_size=64).map(np.array)


def named(label):
    return named_strategy_matrix(NAMED_STRATEGIES[label])


def random_games(seed, n):
    """n seeded rows of (gamma, r, alpha_a, theta_a, alpha_b, theta_b) plus their move stacks."""
    params = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 6)) * UPPER
    u_alice = np.stack([strategy_matrix(a, t) for a, t in params[:, 2:4]])
    u_bob = np.stack([strategy_matrix(a, t) for a, t in params[:, 4:6]])
    return params, u_alice, u_bob


@SEEDED
@given(GAMMAS, RS, ALPHAS, THETAS, ALPHAS, THETAS, TABLES)
def test_engine_matches_density_matrix_reference(gamma, r, alpha_a, theta_a, alpha_b, theta_b, table):
    u_alice, u_bob = strategy_matrix(alpha_a, theta_a), strategy_matrix(alpha_b, theta_b)
    got = play_batch(gamma, r, u_alice, u_bob, table)
    want = reference_payoffs(gamma, r, u_alice, u_bob, table)
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_single_plays(seed):
    params, u_alice, u_bob = random_games(seed, 200)
    table = PayoffTable.from_scalars(*np.random.default_rng([seed, 1]).normal(0.0, 3.0, 4))
    batch = play_batch(params[:, 0], params[:, 1], u_alice, u_bob, table)
    single = np.array(
        [play(GameSetup(g, r, table), Strategy(aa, ta), Strategy(ab, tb)) for g, r, aa, ta, ab, tb in params]
    )
    assert batch.shape == (200, 2)
    assert np.max(np.abs(batch - single)) <= 1e-15


MOVES = st.one_of(st.sampled_from(sorted(NAMED_STRATEGIES.values(), key=str)), st.builds(Strategy, ALPHAS, THETAS))


@SEEDED
@given(GAMMAS, RS, st.lists(MOVES, min_size=1, max_size=5), TABLES)
def test_play_equals_its_batch_entry_bit_for_bit(gamma, r, strategies, table):
    # `play` scores on Python floats, `play_batch` on arrays: the same real
    # formula, rounded in the same order, so equal to the last bit.
    setup = GameSetup(gamma, r, table)
    moves = np.stack([named_strategy_matrix(s) for s in strategies])
    batch = play_batch(setup.gamma, setup.r, moves[:, None], moves[None, :], table).tolist()
    for i, alice in enumerate(strategies):
        for j, bob in enumerate(strategies):
            assert tuple(batch[i][j]) == play(setup, alice, bob)


def test_batch_broadcasts_grids_against_move_stacks():
    params, u_alice, u_bob = random_games(3, 3)
    rs = np.linspace(0.0, math.pi / 4, 5)
    got = outcome_probabilities(0.8, rs, u_alice[:, None], u_bob[0])
    assert got.shape == (3, 5, 4)
    for i in range(3):
        for j, r in enumerate(rs):
            assert np.array_equal(got[i, j], outcome_probabilities(0.8, r, u_alice[i], u_bob[0]))


@SEEDED
@given(RS)
def test_kraus_operators_are_complete(r):
    k0, k1 = kraus_operators(r)
    total = k0.conj().T @ k0 + k1.conj().T @ k1
    assert np.max(np.abs(total - np.eye(2))) <= 1e-15


@SEEDED
@given(RS, st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_kraus_form_equals_rindler_trace_out(r, parts):
    psi = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(psi)
    if norm < 1e-3:
        return
    psi = psi / norm
    rho = np.outer(psi, psi.conj())
    kraus_form = sum(np.kron(np.eye(2), k) @ rho @ np.kron(np.eye(2), k).conj().T for k in kraus_operators(r))
    assert np.max(np.abs(kraus_form - unruh_channel(psi, r))) <= 1e-15


@SEEDED
@given(R_ARRAYS, st.sampled_from(closed_forms.CLASSICAL_PROFILES))
def test_engine_matches_classical_closed_forms_over_r_arrays(rs, profile):
    u_alice, u_bob = named(profile[0]), named(profile[1])
    for gamma, form in ((0.0, closed_forms.unentangled_classical), (math.pi / 2, closed_forms.max_entangled_classical)):
        engine = play_batch(gamma, rs, u_alice, u_bob, PayoffTable())
        assert np.max(np.abs(engine - np.stack(form(rs, profile), axis=-1))) <= 1e-12


@SEEDED
@given(R_ARRAYS, ALPHAS, THETAS)
def test_engine_matches_q_and_miracle_closed_forms_over_r_arrays(rs, alpha_b, theta_b):
    q_engine = play_batch(math.pi / 2, rs, named("Q"), strategy_matrix(alpha_b, theta_b), PayoffTable())
    q_formula = np.stack(closed_forms.q_vs_arbitrary(rs, alpha_b, theta_b), axis=-1)
    assert np.max(np.abs(q_engine - q_formula)) <= 1e-12
    m_engine = play_batch(math.pi / 2, rs, named("M"), strategy_matrix(0.0, theta_b), PayoffTable())
    m_formula = np.stack(closed_forms.miracle_vs_classical(rs, theta_b), axis=-1)
    assert np.max(np.abs(m_engine - m_formula)) <= 1e-12


@SEEDED
@given(GAMMAS, RS)
def test_post_channel_state_is_a_density_matrix(gamma, r):
    rho = unruh_channel(initial_state(gamma), r)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
    assert abs(np.trace(rho) - 1.0) <= 1e-13
    assert np.linalg.eigvalsh(rho).min() >= -1e-13


@SEEDED
@given(GAMMAS, RS, ALPHAS, THETAS, ALPHAS, THETAS)
def test_probabilities_are_a_distribution(gamma, r, alpha_a, theta_a, alpha_b, theta_b):
    p = outcome_probabilities(gamma, r, strategy_matrix(alpha_a, theta_a), strategy_matrix(alpha_b, theta_b))
    assert p.shape == (4,)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-13


@SEEDED
@given(GAMMAS, RS, ALPHAS, THETAS, ALPHAS, THETAS, TABLES)
def test_payoffs_lie_within_the_table_range(gamma, r, alpha_a, theta_a, alpha_b, theta_b, table):
    got = play_batch(gamma, r, strategy_matrix(alpha_a, theta_a), strategy_matrix(alpha_b, theta_b), table)
    entries = np.array(table.entries())
    slack = 1e-13 * max(1.0, float(np.max(np.abs(entries))))
    assert np.all(got >= entries.min(axis=0) - slack)
    assert np.all(got <= entries.max(axis=0) + slack)


@SEEDED
@given(GAMMAS, ALPHAS, THETAS, ALPHAS, THETAS)
def test_zero_acceleration_is_the_inertial_game(gamma, alpha_a, theta_a, alpha_b, theta_b):
    u_alice, u_bob = strategy_matrix(alpha_a, theta_a), strategy_matrix(alpha_b, theta_b)
    j = entangler(gamma)
    final = j.conj().T @ np.kron(u_alice, u_bob) @ j @ basis_ket(4, 0)
    got = outcome_probabilities(gamma, 0.0, u_alice, u_bob)
    assert np.max(np.abs(got - np.abs(final) ** 2)) <= 1e-14


def test_play_does_not_use_the_density_matrix_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("density-matrix path called")

    for module, name in (
        (unruhpd.payoff, "entangler"),
        (unruhpd.payoff, "initial_state"),
        (unruhpd.payoff, "unruh_channel"),
        (unruhpd.payoff, "final_density"),
        (unruhpd.payoff, "payoffs"),
        (unruhpd.game, "entangler"),
    ):
        monkeypatch.setattr(module, name, refuse)
    got = play(GameSetup(math.pi / 2, 0.3), Strategy(1.0, 2.0), Strategy(4.0, 0.5))
    assert len(got) == 2
