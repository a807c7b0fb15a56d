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
from unruhpd.game import NAMED_STRATEGIES, Strategy, entangler, initial_state, move_entries, named_strategy_matrix
from unruhpd.payoff import GameSetup, PayoffTable, _probabilities, final_density, payoffs, play, play_entries
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

# Each table pays one outcome to Alice and one to Bob, so its payoffs are those two probabilities exactly.
INDICATOR_TABLES = (
    PayoffTable(cc=(1.0, 0.0), cd=(0.0, 1.0), dc=(0.0, 0.0), dd=(0.0, 0.0)),
    PayoffTable(cc=(0.0, 0.0), cd=(0.0, 0.0), dc=(1.0, 0.0), dd=(0.0, 1.0)),
)


def named(label):
    return move_entries(NAMED_STRATEGIES[label])


def move(alpha, theta):
    return move_entries(Strategy(alpha, theta))


def stacked(moves):
    """Coordinates of a stack of moves, as `move_entries` gives them, each an array over the stack axes.

    `moves` is an array of shape (..., 3), or a list of coordinate triples.
    """
    moves = np.asarray(moves, dtype=float)
    return tuple(moves[..., k] for k in range(3))


def outcome_probabilities(gamma, r, alice, bob):
    """Probabilities of CC, CD, DC, DD, shape (..., 4), read through `play_entries` with the indicator tables."""
    return np.stack([p for table in INDICATOR_TABLES for p in play_entries(gamma, r, alice, bob, table)], axis=-1)


def random_games(seed, n):
    """n seeded rows of (gamma, r, alpha_a, theta_a, alpha_b, theta_b) plus the two move stacks `stacked` takes."""
    params = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 6)) * UPPER
    alice = np.array([move(a, t) for a, t in params[:, 2:4]])
    bob = np.array([move(a, t) for a, t in params[:, 4:6]])
    return params, alice, bob


@SEEDED
@given(GAMMAS, RS, ALPHAS, THETAS, ALPHAS, THETAS, TABLES)
def test_engine_matches_density_matrix_reference(gamma, r, alpha_a, theta_a, alpha_b, theta_b, table):
    got = play_entries(gamma, r, move(alpha_a, theta_a), move(alpha_b, theta_b), table)
    u_alice = named_strategy_matrix(Strategy(alpha_a, theta_a))
    u_bob = named_strategy_matrix(Strategy(alpha_b, theta_b))
    want = reference_payoffs(gamma, r, u_alice, u_bob, table)
    assert np.max(np.abs(np.array(got) - want)) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_single_plays(seed):
    params, alice, bob = random_games(seed, 200)
    table = PayoffTable.from_scalars(*np.random.default_rng([seed, 1]).normal(0.0, 3.0, 4))
    batch = np.stack(play_entries(params[:, 0], params[:, 1], stacked(alice), stacked(bob), table), axis=-1)
    single = np.array(
        [play(GameSetup(g, r, table), Strategy(aa, ta), Strategy(ab, tb)) for g, r, aa, ta, ab, tb in params]
    )
    assert batch.shape == (200, 2)
    assert np.max(np.abs(batch - single)) <= 1e-15


MOVES = st.one_of(st.sampled_from(sorted(NAMED_STRATEGIES.values(), key=str)), st.builds(Strategy, ALPHAS, THETAS))


@SEEDED
@given(GAMMAS, RS, st.lists(MOVES, min_size=1, max_size=5), TABLES)
def test_play_equals_its_batch_entry_bit_for_bit(gamma, r, strategies, table):
    # `play` scores on Python floats, `play_entries` here on arrays: the same
    # real formula, rounded in the same order, so equal to the last bit.
    setup = GameSetup(gamma, r, table)
    moves = np.array([move_entries(s) for s in strategies])
    batch = play_entries(setup.gamma, setup.r, stacked(moves[:, None]), stacked(moves[None, :]), table)
    for i, alice in enumerate(strategies):
        for j, bob in enumerate(strategies):
            assert (batch.alice[i, j].item(), batch.bob[i, j].item()) == play(setup, alice, bob)


def expanded(q):
    """The entries ((u00, u01), (u10, u11)) of the move with coordinates `q`, each a (real, imaginary) pair."""
    q0, q1, q3 = q
    return (((q0, q3), (0.0, q1)), ((0.0, q1), (q0, -q3)))


def nested_loop_probabilities(a, b, cos_g, sin_g, cos_r, sin_r):
    """The general complex kernel as loops over the outcomes, on `expanded` move entries.

    `payoff._probabilities` is this with the entries' zero parts dropped, and must equal it bit for bit.
    """
    c0 = cos_g * cos_r
    c1 = cos_g * sin_r
    kept, lost = [], []
    for (a0r, a0i), (a1r, a1i) in a:
        for (b0r, b0i), (b1r, b1i) in b:
            a1b1_r = a1r * b1r - a1i * b1i
            a1b1_i = a1r * b1i + a1i * b1r
            kept.append(
                (
                    c0 * (a0r * b0r - a0i * b0i) - sin_g * a1b1_i,
                    c0 * (a0r * b0i + a0i * b0r) + sin_g * a1b1_r,
                )
            )
            lost.append((c1 * (a0r * b1r - a0i * b1i), c1 * (a0r * b1i + a0i * b1r)))
    probs = []
    for k, plus in enumerate((True, False, False, True)):
        squares = []
        for block in (kept, lost):
            (mr, mi), (nr, ni) = block[k], block[3 - k]
            if plus:
                fr, fi = cos_g * mr + sin_g * ni, cos_g * mi - sin_g * nr
            else:
                fr, fi = cos_g * mr - sin_g * ni, cos_g * mi + sin_g * nr
            squares.append(fr * fr + fi * fi)
        probs.append(squares[0] + squares[1])
    return tuple(probs)


ANGLE_PAIRS = st.tuples(
    st.one_of(st.sampled_from((0.0, math.pi / 2)), GAMMAS), st.one_of(st.sampled_from((0.0, math.pi / 4)), RS)
)


@SEEDED
@given(st.lists(ANGLE_PAIRS, min_size=1, max_size=4), st.lists(MOVES, min_size=1, max_size=5))
def test_probabilities_equal_the_nested_loop_reference(angles, strategies):
    # Same operations on the same operands in the same order, less the terms
    # with a zero factor, which change at most the sign of a zero before it is
    # squared: equal to the last bit on floats and on broadcast arrays.
    moves = [move_entries(s) for s in strategies]
    for gamma, r in angles:
        trig = (math.cos(gamma / 2.0), math.sin(gamma / 2.0), math.cos(r), math.sin(r))
        for a in moves:
            for b in moves:
                assert _probabilities(a, b, *trig) == nested_loop_probabilities(expanded(a), expanded(b), *trig)
    half = np.array([gamma for gamma, _ in angles])[:, None, None] / 2.0
    rs = np.array([r for _, r in angles])[:, None, None]
    trig = (np.cos(half), np.sin(half), np.cos(rs), np.sin(rs))
    stack = np.array(moves)
    a, b = stacked(stack[:, None]), stacked(stack[None, :])
    reference = nested_loop_probabilities(expanded(a), expanded(b), *trig)
    for got, want in zip(_probabilities(a, b, *trig), reference, strict=True):
        assert got.shape == (len(angles), len(moves), len(moves))
        assert np.array_equal(got, want)


def test_batch_broadcasts_grids_against_move_stacks():
    params, alice, bob = random_games(3, 3)
    rs = np.linspace(0.0, math.pi / 4, 5)
    got = outcome_probabilities(0.8, rs, stacked(alice[:, None]), stacked(bob[0]))
    assert got.shape == (3, 5, 4)
    for i in range(3):
        for j, r in enumerate(rs):
            assert np.array_equal(got[i, j], outcome_probabilities(0.8, r, stacked(alice[i]), stacked(bob[0])))


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
    alice, bob = named(profile[0]), named(profile[1])
    for gamma, form in ((0.0, closed_forms.unentangled_classical), (math.pi / 2, closed_forms.max_entangled_classical)):
        engine = np.stack(play_entries(gamma, rs, alice, bob, PayoffTable()), axis=-1)
        assert np.max(np.abs(engine - np.stack(form(rs, profile), axis=-1))) <= 1e-12


@SEEDED
@given(R_ARRAYS, ALPHAS, THETAS)
def test_engine_matches_q_and_miracle_closed_forms_over_r_arrays(rs, alpha_b, theta_b):
    q_engine = np.stack(play_entries(math.pi / 2, rs, named("Q"), move(alpha_b, theta_b), PayoffTable()), axis=-1)
    q_formula = np.stack(closed_forms.q_vs_arbitrary(rs, alpha_b, theta_b), axis=-1)
    assert np.max(np.abs(q_engine - q_formula)) <= 1e-12
    m_engine = np.stack(play_entries(math.pi / 2, rs, named("M"), move(0.0, theta_b), PayoffTable()), axis=-1)
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
    p = outcome_probabilities(gamma, r, move(alpha_a, theta_a), move(alpha_b, theta_b))
    assert p.shape == (4,)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-13


@SEEDED
@given(GAMMAS, RS, ALPHAS, THETAS, ALPHAS, THETAS, TABLES)
def test_payoffs_lie_within_the_table_range(gamma, r, alpha_a, theta_a, alpha_b, theta_b, table):
    got = np.array(play_entries(gamma, r, move(alpha_a, theta_a), move(alpha_b, theta_b), table))
    entries = np.array(table.entries())
    slack = 1e-13 * max(1.0, float(np.max(np.abs(entries))))
    assert np.all(got >= entries.min(axis=0) - slack)
    assert np.all(got <= entries.max(axis=0) + slack)


@SEEDED
@given(GAMMAS, ALPHAS, THETAS, ALPHAS, THETAS)
def test_zero_acceleration_is_the_inertial_game(gamma, alpha_a, theta_a, alpha_b, theta_b):
    u_alice = named_strategy_matrix(Strategy(alpha_a, theta_a))
    u_bob = named_strategy_matrix(Strategy(alpha_b, theta_b))
    j = entangler(gamma)
    final = j.conj().T @ np.kron(u_alice, u_bob) @ j @ basis_ket(4, 0)
    got = outcome_probabilities(gamma, 0.0, move(alpha_a, theta_a), move(alpha_b, theta_b))
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
