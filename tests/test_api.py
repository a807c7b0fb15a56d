"""The package root: one public name per capability, its input checks, and what it imports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unruhpd

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
    ("r_from_acceleration '1'", lambda: unruhpd.r_from_acceleration("1", 1.0, 1.0), "omega must be"),
    ("r_from_acceleration None", lambda: unruhpd.r_from_acceleration(1.0, 1.0, None), "c must be"),
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
