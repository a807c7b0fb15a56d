"""Spans around the calls into each unruhpd module, recorded from outside the engine.

The engine's modules bind each other's functions with `from .x import y`, so a
call is intercepted by replacing the name in the namespace of the module that
makes it, not only in the module that defines it. `CALL_SITES` lists, per
calling module, the names to wrap and the span name each gets
(`<defining module>.<function>`). The benchmark's own calls go through module
attributes (`payoff.play`, `game.Strategy`, ...), which the same table covers.

Spans are kept in memory in flat typed arrays (name, start, end, parent,
operation id) and written out when the benchmark ends. A span's self time is
its duration minus the durations of its direct children; the engine is single
threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

CALL_SITES = {
    "unruhpd.cli": {
        "main": "cli.main",
        "cmd_sweep": "cli.sweep",
        "cmd_fig2": "cli.fig2",
        "cmd_verify": "cli.verify",
        "run_suite": "verify.run_suite",
        "GameSetup": "payoff.GameSetup",
        "Strategy": "game.Strategy",
        "play": "payoff.play",
    },
    "unruhpd.verify": {
        "run_suite": "verify.run_suite",
        "GameSetup": "payoff.GameSetup",
        "Strategy": "game.Strategy",
        "play": "payoff.play",
        "entangler": "game.entangler",
        "named_strategy_matrix": "game.named_strategy_matrix",
    },
    "unruhpd.closed_forms": {
        "unentangled_classical": "closed_forms.unentangled_classical",
        "max_entangled_classical": "closed_forms.max_entangled_classical",
        "q_vs_arbitrary": "closed_forms.q_vs_arbitrary",
        "miracle_vs_classical": "closed_forms.miracle_vs_classical",
    },
    "unruhpd.equilibrium": {
        "best_response": "equilibrium.best_response",
        "Strategy": "game.Strategy",
        "play": "payoff.play",
    },
    "unruhpd.payoff": {
        "GameSetup": "payoff.GameSetup",
        "PayoffTable": "payoff.PayoffTable",
        "play": "payoff.play",
        "initial_state": "game.initial_state",
        "unruh_channel": "unruh.unruh_channel",
        "named_strategy_matrix": "game.named_strategy_matrix",
        "final_density": "payoff.final_density",
        "entangler": "game.entangler",
        "payoffs": "payoff.payoffs",
    },
    "unruhpd.game": {"Strategy": "game.Strategy"},
    "unruhpd.unruh": {"partial_trace": "linalg.partial_trace"},
}

# Modules whose spans make up the game pipeline under `payoff.play`.
PIPELINE_MODULES = ("payoff", "game", "unruh", "linalg")


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.rejected: Counter[str] = Counter()
        self.op = 0
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn):
        nid = self._name_id(span_name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op_id.append(self.op)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except ValueError:
                self.rejected[span_name] += 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, names in CALL_SITES.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays(), Counter(self.rejected))

    def write(self, path) -> None:
        """One tab-separated line per span: op_id, index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("op_id\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i, (op, parent, nid, t0, t1) in enumerate(
                zip(self.op_id, self.parent, self.name, self.start, self.end)
            ):
                handle.write(f"{op}\t{i}\t{parent}\t{names[nid]}\t{t0}\t{t1}\n")


class SpanSummary:
    """Per-name counts and times of one traced unit of work."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray], rejected: Counter):
        self.rejected = rejected
        n_names = len(names)
        ids = spans["name"]
        self._ids = {name: i for i, name in enumerate(names)}
        self._calls = np.bincount(ids, minlength=n_names)
        self._total_ns = np.bincount(ids, weights=spans["dur"], minlength=n_names)
        self._self_ns = np.bincount(ids, weights=spans["self"], minlength=n_names)
        self._spans = spans
        self.pipeline_self_ns = {m: 0.0 for m in PIPELINE_MODULES}
        play = self._mask("payoff.play")
        if play.any():
            inside = self.within(np.ones(len(ids), dtype=bool), play)
            for i, name in enumerate(names):
                module = name.split(".", 1)[0]
                if module in self.pipeline_self_ns:
                    self.pipeline_self_ns[module] += float(spans["self"][inside & (ids == i)].sum())

    def _mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name, -1)
        return self._spans["name"] == nid

    def within(self, child: np.ndarray, outer: np.ndarray) -> np.ndarray:
        """Spans selected by `child` that lie inside some span selected by `outer`.

        Spans of one name never nest in this engine, so the outer spans are
        disjoint intervals sorted by start.
        """
        starts = self._spans["start"][outer]
        ends = self._spans["end"][outer]
        s = self._spans["start"]
        k = np.searchsorted(starts, s, side="right") - 1
        ok = k >= 0
        kk = np.where(ok, k, 0)
        return child & ok & (s >= starts[kk]) & (self._spans["end"] <= ends[kk]) if len(starts) else child & False

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return int(self._calls[nid]) if nid is not None else 0

    def total_us(self, name: str) -> float:
        nid = self._ids.get(name)
        return float(self._total_ns[nid]) / 1e3 if nid is not None else 0.0

    def self_us(self, name: str) -> float:
        nid = self._ids.get(name)
        return float(self._self_ns[nid]) / 1e3 if nid is not None else 0.0

    def us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_us(name) / calls if calls else 0.0

    def self_us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_us(name) / calls if calls else 0.0

    def calls_inside(self, name: str, outer: str) -> int:
        return int(self.within(self._mask(name), self._mask(outer)).sum())
