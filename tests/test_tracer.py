"""The benchmark tracer still finds every call site it wraps, and puts each one back."""

import importlib
import importlib.util
from pathlib import Path

from unruhpd import payoff
from unruhpd.game import NAMED_STRATEGIES

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves_and_install_is_undone():
    tracer = load_tracer()
    originals = {
        (module_name, attr): getattr(importlib.import_module(module_name), attr)
        for module_name, names in tracer.CALL_SITES.items()
        for attr in names
    }
    t = tracer.Tracer()
    t.install()
    try:
        for (module_name, attr), original in originals.items():
            assert getattr(importlib.import_module(module_name), attr).__wrapped__ is original
    finally:
        t.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is original


def test_game_setup_and_play_work_while_installed():
    # The tracer rebinds `payoff.PayoffTable` to a wrapper function; `GameSetup` must still accept a real table.
    t = load_tracer().Tracer()
    t.install()
    try:
        setup = payoff.GameSetup(0.3, 0.2, payoff.PayoffTable())
        got = payoff.play(setup, NAMED_STRATEGIES["C"], NAMED_STRATEGIES["D"])
    finally:
        t.uninstall()
    assert got == payoff.play(payoff.GameSetup(0.3, 0.2), NAMED_STRATEGIES["C"], NAMED_STRATEGIES["D"])
