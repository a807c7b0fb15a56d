"""The package root: one public name per capability, its input checks, and what it imports."""

import dataclasses
import math
import numbers
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hostile
import unruhpd
import unruhpd.verify
from hostile import HUGE_INT

SRC = str(Path(__file__).resolve().parents[1] / "src")

PUBLIC_NAMES = [
    "CLASSICAL_PROFILES",
    "EquilibriumReport",
    "GAMMA_MAX",
    "GameSetup",
    "NAMED_STRATEGIES",
    "Payoffs",
    "PayoffTable",
    "R_MAX",
    "Strategy",
    "SUITE_NAMES",
    "VerifyOutcome",
    "analyze",
    "best_response",
    "entangler",
    "find_dominant",
    "find_nash",
    "max_entangled_classical",
    "miracle_vs_classical",
    "named_strategy_matrix",
    "pareto_front",
    "payoff_table",
    "play",
    "q_vs_arbitrary",
    "r_from_acceleration",
    "run_suite",
    "set_best_responses",
    "unentangled_classical",
]


def test_package_root_exports_exactly_the_public_names():
    assert sorted(unruhpd.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(unruhpd.__all__)) == len(unruhpd.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(unruhpd, name) is not None


# Each call is a bad value given to the Python API; every one must be refused with a ValueError.
BAD_API_CALLS = [
    ("Strategy(None, 0.0)", lambda: unruhpd.Strategy(None, 0.0), "strategy alpha must lie in"),
    ("Strategy([], 0.0)", lambda: unruhpd.Strategy([], 0.0), "strategy alpha must lie in"),
    ("Strategy(0.0, 'pi')", lambda: unruhpd.Strategy(0.0, "pi"), "strategy theta must lie in"),
    ("GameSetup(1 + 0j, 0.1)", lambda: unruhpd.GameSetup(1 + 0j, 0.1), "entanglement gamma must lie in"),
    ("GameSetup(0.1, None)", lambda: unruhpd.GameSetup(0.1, None), "acceleration parameter r must lie in"),
    ("Strategy(10**400, 0.0)", lambda: unruhpd.Strategy(10**400, 0.0), "strategy alpha must lie in"),
    ("run_suite tol 10**400", lambda: unruhpd.run_suite("eq8", 3, 10**400), "tolerance must be"),
    ("r_from_acceleration 10**400", lambda: unruhpd.r_from_acceleration(10**400, 1.0, 1.0), "omega must be"),
    # Quoted: unquoted, the string "1" read "got 1", the text of an accepted number.
    (
        "r_from_acceleration '1'",
        lambda: unruhpd.r_from_acceleration("1", 1.0, 1.0),
        re.escape("omega must be positive and finite, got '1'"),
    ),
    ("r_from_acceleration None", lambda: unruhpd.r_from_acceleration(1.0, 1.0, None), "c must be"),
    # An int of more than 4300 digits has no repr; each message used to be Python's int-to-str limit instead.
    ("Strategy(10**5000, 0.0)", lambda: unruhpd.Strategy(HUGE_INT, 0.0), "^strategy alpha must lie in"),
    ("GameSetup(10**5000, 0.1)", lambda: unruhpd.GameSetup(HUGE_INT, 0.1), "^entanglement gamma must lie in"),
    ("PayoffTable(cc=(10**5000, 1.0))", lambda: unruhpd.PayoffTable(cc=(HUGE_INT, 1.0)), "^payoff entries must be pairs"),
    ("run_suite tol 10**5000", lambda: unruhpd.run_suite("eq8", 3, HUGE_INT), "^tolerance must be"),
    ("r_from_acceleration 10**5000", lambda: unruhpd.r_from_acceleration(HUGE_INT, 1, 1), "^omega must be"),
    ("run_suite suite 10**5000", lambda: unruhpd.run_suite(HUGE_INT), "^unknown suite"),
    ("GameSetup table 10**5000", lambda: unruhpd.GameSetup(0.1, 0.1, HUGE_INT), "^table must be a PayoffTable"),
    (
        "best_response responder 10**5000",
        lambda: unruhpd.best_response(unruhpd.GameSetup(0.1, 0.1), unruhpd.NAMED_STRATEGIES["C"], HUGE_INT),
        "^responder must be",
    ),
    # Found by the input-contract property below; each raised TypeError, KeyError or a ValueError of float().
    ("PayoffTable(cc={1: 2, 3: 4})", lambda: unruhpd.PayoffTable(cc={1: 2.0, 3: 4.0}), "^payoff entries must be pairs"),
    ("PayoffTable sNaN", lambda: unruhpd.PayoffTable(cc=(Decimal("sNaN"), 1.0)), "^payoff entries must be pairs"),
    ("r_from_acceleration sNaN", lambda: unruhpd.r_from_acceleration(Decimal("sNaN"), 1, 1), "^omega must be"),
    # Past numpy's array-size limit the grid used to reach numpy: its ValueErrors, or an IndexError at 2**63 - 1.
    ("run_suite grid MAX_GRID + 1", lambda: unruhpd.run_suite("eq8", unruhpd.verify.MAX_GRID + 1), "^grid must be"),
    ("run_suite grid 2**61", lambda: unruhpd.run_suite("eq8", 2**61), "^grid must be"),
    ("run_suite grid 2**63 - 1", lambda: unruhpd.run_suite("eq8", 2**63 - 1), "^grid must be"),
    ("run_suite grid 10**5000", lambda: unruhpd.run_suite("eq8", HUGE_INT), "^grid must be"),
    # Objects of the wrong type; each used to raise AttributeError from reading a field they lack.
    ("analyze set 'CD'", lambda: unruhpd.analyze(unruhpd.GameSetup(0.1, 0.1), "CD"), "^strategy set members must be"),
    ("analyze set [1, 2]", lambda: unruhpd.analyze(unruhpd.GameSetup(0.1, 0.1), [1, 2]), "got 1$"),
    ("analyze setup None", lambda: unruhpd.analyze(None, [unruhpd.NAMED_STRATEGIES["C"]]), "^setup must be a Game"),
    ("payoff_table setup None", lambda: unruhpd.payoff_table(None, [unruhpd.NAMED_STRATEGIES["C"]]), "got None$"),
    (
        "payoff_table setup 10**5000",
        lambda: unruhpd.payoff_table(HUGE_INT, [unruhpd.NAMED_STRATEGIES["C"]]),
        "^setup must be a GameSetup, got <unprintable int>$",
    ),
    (
        "best_response setup None",
        lambda: unruhpd.best_response(None, unruhpd.NAMED_STRATEGIES["C"], "alice"),
        "^setup must be a GameSetup, got None$",
    ),
    (
        "best_response opponent 'C'",
        lambda: unruhpd.best_response(unruhpd.GameSetup(0.1, 0.1), "C", "alice"),
        re.escape("opponent must be a Strategy, got 'C'"),
    ),
    # A table or a row with no length used to raise TypeError.
    ("find_nash [1, 2]", lambda: unruhpd.find_nash([1, 2]), "^payoff table must be square and nonempty$"),
    ("find_nash None", lambda: unruhpd.find_nash(None), "^payoff table must be square and nonempty$"),
]


@pytest.mark.parametrize("call,message", [case[1:] for case in BAD_API_CALLS], ids=[case[0] for case in BAD_API_CALLS])
def test_non_numeric_or_overflowing_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_accepted_inputs_are_unchanged():
    # Whatever float() takes within the domain is still taken, strings and huge-but-finite ints included.
    assert unruhpd.Strategy("0.25", True) == unruhpd.Strategy(0.25, 1.0)
    assert unruhpd.GameSetup(np.float64(0.5), 0).gamma == 0.5
    assert unruhpd.r_from_acceleration(10**300, 10**300, 1) == unruhpd.r_from_acceleration(1.0, 1.0, 1.0)
    assert unruhpd.run_suite("eq8", 3, 10**300).passed


# Run in a fresh interpreter: each step must leave numpy unloaded, then the array commands load it.
NUMPY_FREE_SCRIPT = r"""
import os, sys, tempfile

def unloaded(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"

import unruhpd
from unruhpd import cli
cli.build_parser()
unloaded("import unruhpd, build_parser")
assert cli.main(["play", "--gamma", "pi/2", "--r", "0.3", "--alice", "Q", "--bob", "1.0,2.0"]) == 0
assert cli.main(["play", "--gamma", "pi/2", "--r", "0.3", "--alice", "C", "--bob", "D", "--json"]) == 0
assert cli.main(["equilibria", "--gamma", "pi/2", "--r", "0.3", "--set", "C,D,Q,M"]) == 0
unloaded("play and equilibria")
setup = unruhpd.GameSetup(1.0, 0.5, unruhpd.PayoffTable.from_scalars(3, 0, 5, 1))
unruhpd.play(setup, unruhpd.NAMED_STRATEGIES["M"], unruhpd.Strategy(1.0, 2.0))
unruhpd.analyze(setup, list(unruhpd.NAMED_STRATEGIES.values()))
unloaded("play, analyze and PayoffTable.from_scalars")
from fractions import Fraction
unruhpd.max_entangled_classical(Fraction(1, 3), "CD")
unruhpd.q_vs_arbitrary("0.5", 1.0, 2.0)
unloaded("closed forms on a Fraction and a string r")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sweep.csv")
    assert cli.main(["sweep", "--gamma", "pi/2", "--steps", "3", "--out", path]) == 0
    with open(path) as handle:
        assert len(handle.read().splitlines()) == 1 + 3 * 4
assert "numpy" in sys.modules
assert cli.main(["fig2", "--steps", "3"]) == 0
assert cli.main(["verify", "--grid", "5"]) == 0
print("ok")
"""


def test_one_game_paths_leave_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("ok\n")


def assert_finite_floats(value):
    """Every number in a result is an int or a finite Python float, however deep it sits."""
    if isinstance(value, float):
        assert type(value) is float and math.isfinite(value), repr(value)
    elif isinstance(value, (str, int, type(None))):
        pass
    elif dataclasses.is_dataclass(value):
        assert_finite_floats(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
        if isinstance(value, unruhpd.Strategy):  # its coordinates are derived state, not a field
            assert_finite_floats(value.q)
    elif isinstance(value, dict):
        assert_finite_floats(tuple(value.items()))
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_finite_floats(item)
    else:
        raise AssertionError(f"unexpected {type(value).__name__} in a result")


def finite_or_value_error(call, *args):
    """`call(*args)` with its result checked, or None when it raised ValueError."""
    try:
        result = call(*args)
    except ValueError:
        return None
    assert_finite_floats(result)
    return result


def shaped(x, kind):
    """x as the r of a closed form: itself, in a list, or in an array (of objects where numpy makes no other)."""
    if kind == "scalar":
        return x
    if kind == "list":
        return [x, 0.5]
    try:
        return np.array([x, 0.5])
    except ValueError:  # x is a list or a tuple: no rectangular array holds it with 0.5
        return np.array([x, 0.5], dtype=object)


def closed_form_or_value_error(form, r, *args):
    """A closed form on r: finite Python floats for a scalar, finite float arrays shaped like an array r, or None."""
    if not (isinstance(r, (list, tuple)) or (isinstance(r, np.ndarray) and r.ndim)):
        return finite_or_value_error(form, r, *args)
    try:
        result = form(r, *args)
    except ValueError:
        return None
    for values in result:
        assert values.dtype == np.float64 and values.shape == np.shape(r) and np.isfinite(values).all(), (r, result)
    return result


number = st.sampled_from(hostile.NUMBERS)
# A valid value half of the time, so that the calls behind the constructors are reached too.
angle = st.one_of(number, st.floats(0.0, math.pi / 4))
positive = st.one_of(number, st.floats(1e-300, 1e300))
floats = st.sampled_from(hostile.FLOATS)
pair = st.one_of(st.sampled_from(hostile.PAIR_SHAPES), st.tuples(floats, floats))
move = st.tuples(angle, angle)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    angle, angle, st.lists(pair, max_size=4), move, move, st.sampled_from(hostile.PLAYERS),
    st.sampled_from(hostile.SUITES), st.sampled_from(hostile.GRIDS), positive, st.tuples(positive, positive, positive),
    st.sampled_from(hostile.PROFILES), angle, st.sampled_from(["scalar", "list", "array"]),
)
def test_every_api_call_raises_value_error_or_returns_finite_floats(
    gamma, r, pairs, alice, bob, player, suite, grid, tol, acceleration, profile, form_r, form_r_kind
):
    """The input contract of the Python API: hostile values into every entry point give a ValueError or finite floats."""
    table = finite_or_value_error(unruhpd.PayoffTable, *pairs)
    setup = finite_or_value_error(unruhpd.GameSetup, gamma, r, *([] if table is None else [table]))
    # A refused move is replaced by a named one, so that the game calls still run.
    moves = [finite_or_value_error(unruhpd.Strategy, *m) or unruhpd.NAMED_STRATEGIES[k] for m, k in zip((alice, bob), "MQ")]
    if setup is not None:
        finite_or_value_error(unruhpd.play, setup, *moves)
        finite_or_value_error(unruhpd.analyze, setup, moves)
        finite_or_value_error(unruhpd.best_response, setup, moves[1], player)
    # The closed forms take a hostile r, alone or in a list or an array, and Bob's hostile angles as his move.
    form_r = shaped(form_r, form_r_kind)
    closed_form_or_value_error(unruhpd.unentangled_classical, form_r, profile)
    closed_form_or_value_error(unruhpd.max_entangled_classical, form_r, profile)
    closed_form_or_value_error(unruhpd.q_vs_arbitrary, form_r, *bob)
    closed_form_or_value_error(unruhpd.miracle_vs_classical, form_r, bob[1])
    finite_or_value_error(unruhpd.r_from_acceleration, *acceleration)
    finite_or_value_error(unruhpd.run_suite, suite, grid, tol)


def finite_real(x) -> bool:
    """x is a real number with a finite float value."""
    try:
        return isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:  # an int or a Fraction past the float range
        return False


table_entry = st.one_of(number, st.floats(-5.0, 5.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(st.tuples(table_entry, table_entry), min_size=n, max_size=n),
                                                  min_size=n, max_size=n)),
    st.sampled_from(["alice", "bob"]),
)
def test_table_functions_refuse_every_entry_that_is_not_a_finite_real(table, player):
    """The four functions on payoff tables give a ValueError exactly when some entry is not a finite real number."""
    calls = [unruhpd.find_nash, unruhpd.pareto_front]
    calls += [lambda t: unruhpd.find_dominant(t, player), lambda t: unruhpd.set_best_responses(t, player)]
    valid = all(finite_real(x) for row in table for cell in row for x in cell)
    for call in calls:
        if valid:
            assert_finite_floats(call(table))
        else:
            with pytest.raises(ValueError, match="^payoff table cells must be pairs of finite real numbers, got "):
                call(table)


def test_r_from_acceleration_computes_in_python_floats():
    # Found by the property above: a float32 argument overflowed in float32, and a Decimal raised TypeError.
    big = np.float32(3e38)
    assert unruhpd.r_from_acceleration(0.3, 0.3, big) == unruhpd.r_from_acceleration(0.3, 0.3, float(big))
    assert unruhpd.r_from_acceleration(Decimal("0.25"), 1, 1) == unruhpd.r_from_acceleration(0.25, 1.0, 1.0)
