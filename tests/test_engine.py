"""Batched Kraus-form engine: differential tests against the density-matrix
reference and property tests of the physics invariants."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg import basis_ket
from rational import C, D, INDICATOR_TABLES, Q, circle_point, kraus_probabilities, probabilities, sphere_point
import unruhpd.game
import unruhpd.payoff
from unruhpd import cli, closed_forms
from unruhpd.equilibrium import analyze, payoff_table
from unruhpd.game import NAMED_STRATEGIES, Strategy, entangler, initial_state, named_strategy_matrix
from unruhpd.payoff import (
    GameSetup,
    PayoffTable,
    _coefficients,
    final_density,
    grid_payoffs,
    payoffs,
    play,
    play_entries,
)
from unruhpd.unruh import unruh_channel
from unruhpd.verify import PAYOFF_SUITES, run_suite

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
    return NAMED_STRATEGIES[label].q


def move(alpha, theta):
    return Strategy(alpha, theta).q


def stacked(moves):
    """Coordinates of a stack of moves, as `Strategy.q` holds them, each an array over the stack axes.

    `moves` is an array of shape (..., 3), or a list of coordinate triples.
    """
    moves = np.asarray(moves, dtype=float)
    return tuple(moves[..., k] for k in range(3))


def outcome_probabilities(gamma, r, alice, bob):
    """Probabilities of CC, CD, DC, DD, shape (..., 4), read through the engine with the indicator tables.

    A float `r` is scored on the coefficients its `GameSetup` holds, an array of r through `grid_payoffs`.
    """
    if isinstance(r, float):
        coeffs = GameSetup(gamma, r).coefficients
        pairs = [play_entries(coeffs, alice, bob, table) for table in INDICATOR_TABLES]
    else:
        pairs = [grid_payoffs(gamma, r, [(alice, bob)], table)[0] for table in INDICATOR_TABLES]
    return np.stack([p for pair in pairs for p in pair], axis=-1)


def random_games(seed, n):
    """n seeded rows of (gamma, r, alpha_a, theta_a, alpha_b, theta_b) plus the two move stacks `stacked` takes."""
    params = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 6)) * UPPER
    alice = np.array([move(a, t) for a, t in params[:, 2:4]])
    bob = np.array([move(a, t) for a, t in params[:, 4:6]])
    return params, alice, bob


@SEEDED
@given(GAMMAS, RS, ALPHAS, THETAS, ALPHAS, THETAS, TABLES)
def test_engine_matches_density_matrix_reference(gamma, r, alpha_a, theta_a, alpha_b, theta_b, table):
    got = play_entries(GameSetup(gamma, r).coefficients, move(alpha_a, theta_a), move(alpha_b, theta_b), table.entries)
    u_alice = named_strategy_matrix(Strategy(alpha_a, theta_a))
    u_bob = named_strategy_matrix(Strategy(alpha_b, theta_b))
    want = reference_payoffs(gamma, r, u_alice, u_bob, table)
    assert np.max(np.abs(np.array(got) - want)) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_single_plays(seed):
    params, alice, bob = random_games(seed, 200)
    table = PayoffTable.from_scalars(*np.random.default_rng([seed, 1]).normal(0.0, 3.0, 4))
    # The one test with an array of gammas: their coefficients from numpy's trig, as `grid_payoffs` takes r's.
    halves, rs = params[:, 0] / 2.0, params[:, 1]
    coeffs = _coefficients(np.cos(halves), np.sin(halves), np.cos(rs), np.sin(rs))
    batch = np.stack(play_entries(coeffs, stacked(alice), stacked(bob), table.entries), axis=-1)
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
    moves = np.array([s.q for s in strategies])
    batch = play_entries(setup.coefficients, stacked(moves[:, None]), stacked(moves[None, :]), table.entries)
    for i, alice in enumerate(strategies):
        for j, bob in enumerate(strategies):
            assert (batch[0][i, j].item(), batch[1][i, j].item()) == play(setup, alice, bob)


# Rational points: (cos, sin) of gamma/2 and of r for angles up to pi/2, and moves on the unit sphere.
CIRCLE_POINTS = st.fractions(0, 1, max_denominator=16).map(circle_point)
RATIONALS = st.fractions(-12, 12, max_denominator=12)
SPHERE_POINTS = st.one_of(
    st.sampled_from((C, D, Q)),
    st.builds(sphere_point, RATIONALS, RATIONALS),
)


@SEEDED
@given(CIRCLE_POINTS, CIRCLE_POINTS, SPHERE_POINTS, SPHERE_POINTS)
def test_probabilities_are_the_kraus_polynomial(half, rotation, a, b):
    # On Fractions both sides are exact, so `==` shows that the multiplied-out kernel is the Kraus form's polynomial.
    trig = (*half, *rotation)
    got = probabilities(_coefficients(*trig), a, b)
    assert all(type(p) is Fraction for p in got), got
    assert got == kraus_probabilities(a, b, *trig)


ANGLE_PAIRS = st.tuples(
    st.one_of(st.sampled_from((0.0, math.pi / 2)), GAMMAS), st.one_of(st.sampled_from((0.0, math.pi / 4)), RS)
)


@SEEDED
@given(st.lists(ANGLE_PAIRS, min_size=1, max_size=4), st.lists(MOVES, min_size=1, max_size=5))
def test_probabilities_round_alike_on_floats_and_arrays(angles, strategies):
    # On (angles, moves, moves) broadcast arrays of the same trig values the kernel rounds as on floats, so it
    # equals them to the last bit. How far the floats are from the exact value is `test_exact`'s rounding budget.
    moves = [s.q for s in strategies]
    trigs = [(math.cos(gamma / 2.0), math.sin(gamma / 2.0), math.cos(r), math.sin(r)) for gamma, r in angles]
    singles = [probabilities(_coefficients(*trig), a, b) for trig in trigs for a in moves for b in moves]
    trig = tuple(np.array(column)[:, None, None] for column in zip(*trigs))
    stack = np.array(moves)
    batch = np.stack(probabilities(_coefficients(*trig), stacked(stack[:, None]), stacked(stack[None, :])), axis=-1)
    assert batch.shape == (len(angles), len(moves), len(moves), 4)
    assert np.array_equal(batch.reshape(-1, 4), np.array(singles))


# Symmetric tables whose sucker's payoff is 0, as in the default table: then Alice's and Bob's sums add the same
# terms in the same order. With another sucker's payoff the CD and DC terms are added in swapped order.
SYMMETRIC_TABLES = st.builds(
    lambda reward, temptation, punishment: PayoffTable.from_scalars(reward, 0.0, temptation, punishment),
    *[st.floats(-10.0, 10.0)] * 3,
)


@SEEDED
@given(GAMMAS, st.lists(MOVES, min_size=1, max_size=4), SYMMETRIC_TABLES)
def test_swapping_the_players_of_the_inertial_game_swaps_their_payoffs_bit_for_bit(gamma, strategies, table):
    # At r = 0 the lost amplitudes' coefficients e, f and the kept ones' T are exactly 0, so each outcome's
    # amplitudes are the same float products with the players' coordinates swapped.
    half = gamma / 2.0
    assert _coefficients(math.cos(half), math.sin(half), math.cos(0.0), math.sin(0.0))[3:] == (0.0, 0.0, 0.0)
    setup = GameSetup(gamma, 0.0, table)
    moves = np.array([s.q for s in strategies])
    batch = play_entries(setup.coefficients, stacked(moves[:, None]), stacked(moves[None, :]), table.entries)
    for i, alice in enumerate(strategies):
        for j, bob in enumerate(strategies):
            assert play(setup, alice, bob) == play(setup, bob, alice)[::-1]
            assert (batch[0][i, j], batch[1][i, j]) == (batch[1][j, i], batch[0][j, i])


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
        engine = np.stack(grid_payoffs(gamma, rs, [(alice, bob)], PayoffTable().entries)[0], axis=-1)
        assert np.max(np.abs(engine - np.stack(form(rs, profile), axis=-1))) <= 1e-12


@SEEDED
@given(R_ARRAYS, ALPHAS, THETAS)
def test_engine_matches_q_and_miracle_closed_forms_over_r_arrays(rs, alpha_b, theta_b):
    profiles = [(named("Q"), move(alpha_b, theta_b)), (named("M"), move(0.0, theta_b))]
    pairs = grid_payoffs(math.pi / 2, rs, profiles, PayoffTable().entries)
    q_engine, m_engine = (np.stack(pair, axis=-1) for pair in pairs)
    q_formula = np.stack(closed_forms.q_vs_arbitrary(rs, alpha_b, theta_b), axis=-1)
    assert np.max(np.abs(q_engine - q_formula)) <= 1e-12
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
    coeffs = GameSetup(gamma, r).coefficients
    got = np.array(play_entries(coeffs, move(alpha_a, theta_a), move(alpha_b, theta_b), table.entries))
    entries = np.array(table.entries)
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


def source_trees():
    """(module name, parsed source) of each of the package's modules."""
    for path in sorted(Path(unruhpd.payoff.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def references(name: str, calls_only: bool = False) -> list[tuple[str, str | None]]:
    """(module, enclosing definitions) of each use of `name` in the package's source, its definition excepted.

    A use is the name itself, an attribute of that name, or an import of it; with `calls_only`, a call of either.
    The enclosing classes and functions are named with dots, innermost last, as in `GameSetup.__init__`.
    """
    found = []
    for module, tree in source_trees():

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name if owner is None else f"{owner}.{node.name}"
            target = node
            if calls_only:
                target = node.func if isinstance(node, ast.Call) else None
            used = (
                (isinstance(target, ast.Name) and target.id == name)
                or (isinstance(target, ast.Attribute) and target.attr == name)
                or (isinstance(target, ast.alias) and name in (target.name, target.asname))
            )
            if used:
                found.append((module, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(tree, None)
    return found


def attribute_reads(module: str, function: str) -> list[str]:
    """The attributes read anywhere in the body of the top-level `function` of `module`, as dotted source text."""
    tree = dict(source_trees())[module]
    (definition,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    return [ast.unparse(node) for node in ast.walk(definition) if isinstance(node, ast.Attribute)]


def test_one_payoff_path_reaches_the_kernel():
    # Every payoff the package computes goes through `play_entries`, the engine, with gamma and r folded in by
    # `_coefficients`, which no module imports. A single game's coefficients are computed once, from floats, by the
    # setup that holds them; an r grid's, from a float gamma and an array of r, by `grid_payoffs`.
    assert references("_coefficients") == [("payoff", "GameSetup.__init__"), ("payoff", "grid_payoffs")]
    assert references("coefficients", calls_only=True) == []
    # The entry is named only in `payoff` and `equilibrium`: the r grids of the CLI and `verify` reach the engine
    # through `grid_payoffs` alone, called once in each.
    assert {module for module, _ in references("play_entries")} == {"payoff", "equilibrium"}
    assert references("grid_payoffs", calls_only=True) == [("cli", "_grid_payoffs"), ("verify", "_checks")]
    # The engine takes numbers: it reads no attribute of any record.
    assert attribute_reads("payoff", "play_entries") == []


def test_each_r_grid_takes_one_coefficient_block(monkeypatch, capsys):
    # The trig and coefficients of an r grid are computed once for all its profiles: once per payoff suite of
    # `verify`, once per GRID_BLOCK points of `sweep` and `fig2`, and never by the table functions, which score on
    # the coefficients their setup holds.
    blocks = []
    monkeypatch.setattr(unruhpd.payoff, "_coefficients", lambda *trig: blocks.append(trig) or _coefficients(*trig))
    for suite in PAYOFF_SUITES:
        blocks.clear()
        run_suite(suite, grid=101)
        assert [len(trig[2]) for trig in blocks] == [101], suite
    steps = str(2 * cli.GRID_BLOCK + 1)
    for argv in (["sweep", "--gamma", "pi/3", "--steps", steps], ["fig2", "--steps", steps]):
        blocks.clear()
        assert cli.main(argv) == 0
        assert [len(trig[2]) for trig in blocks] == [cli.GRID_BLOCK, cli.GRID_BLOCK, 1], argv[0]
    capsys.readouterr()
    setup = GameSetup(0.7, 0.2)
    strategies = list(NAMED_STRATEGIES.values())
    blocks.clear()
    payoff_table(setup, strategies)
    analyze(setup, strategies)
    assert blocks == []
