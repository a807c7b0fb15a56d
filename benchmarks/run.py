#!/usr/bin/env python3
"""Benchmark of the unruhpd engine, run from the repository root:

    python3 benchmarks/run.py --workload curves --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

- `curves`: `sweep --gamma pi/2 --steps 2000` (4 profiles), `fig2 --steps 2000`
  and `verify --grid 1001 --tol 1e-12`, through `unruhpd.cli.main` in process,
  CSV written to files under `benchmarks/out/`.
- `best-reply`: `best_response` for both players against C, D, Q, M and
  eight seeded custom moves at three seeded (gamma, r) points: 72 replies a
  round, 48 of them against custom moves, so that the search's known misses
  show on every seed.
- `random-play`: one `play` per seeded request, each building its own
  PayoffTable, GameSetup and Strategy objects; a fixed share is invalid.

Load is one closed loop in one process and one thread: each operation starts
when the previous one ends. The loop repeats whole units of work (a pass of the
three commands, a round of replies, a batch of 2000 requests) until `--seconds`
have passed. Every output is checked against closed forms or an independent
Kraus-form reference.

Timings are medians over units, scaled to the host's reference speed by a
calibration kernel sampled while the work runs (see hostspeed.py): on a shared
host other tenants slow the CPU by up to 1.7x for tens of seconds at a time.
`setup_s` is the median of several fresh interpreters, each scaled by kernel
samples taken just before and after it.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates an untraced
and a traced unit, wrapping the calls into each module (see tracer.py), and
reports per-layer metrics per unit as the median over traced units; these
times are raw, without the calibration kernel. Spans of
the last traced unit are written to `benchmarks/out/spans-<workload>.tsv`.

The last line of stdout is the result JSON; the line before it records the
seed, Python and numpy versions, nproc, git SHA and per-workload detail.
Exits 2 without a result if the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
SETUP_CODE = "import unruhpd.cli as cli; cli.build_parser()"

CLOSED_FORMS = (
    "closed_forms.unentangled_classical",
    "closed_forms.max_entangled_classical",
    "closed_forms.q_vs_arbitrary",
    "closed_forms.miracle_vs_classical",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curves", "best-reply", "random-play"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup_s() -> float:
    """Median time of a fresh interpreter importing unruhpd.cli and building its parser.

    One unmeasured start first writes the bytecode caches, which later runs
    reuse. Each start is scaled by the kernel times measured around it, on the
    same CPU: the interpreters inherit this process's pinning to one CPU.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for i in range(SETUP_SAMPLES + 1):
            before = hostspeed.kernel_s(repeats=5)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
            took = time.perf_counter() - t0
            after = hostspeed.kernel_s(repeats=5)
            if i:
                times.append(took * hostspeed.KERNEL_REF_S / ((before + after) / 2.0))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def git_sha() -> str | None:
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_units(workload, seconds: float, traced: bool):
    """Run units until `seconds` pass.

    Untraced: calibrated units. Traced: pairs of a plain and a traced unit,
    both uncalibrated, so that their ratio is the tracing overhead.
    """
    plain, traced_units, summaries = [], [], []
    spans = Tracer() if traced else None
    clock = hostspeed.RawClock() if traced else hostspeed.HostSpeed()
    deadline = time.perf_counter() + seconds
    k = 0
    with contextlib.nullcontext() if traced else clock:
        while True:
            plain.append(workload.unit(k, clock))
            k += 1
            if traced:
                spans.reset()
                spans.install()
                try:
                    traced_units.append(workload.unit(k, clock, spans))
                finally:
                    spans.uninstall()
                summaries.append(spans.summary())
                k += 1
            if time.perf_counter() >= deadline:
                break
    return plain, traced_units, summaries, spans, clock


def layer_metrics(s, unit, plain_s: float) -> dict[str, float]:
    """Per-layer values of one traced unit; counts are per unit."""
    games = s.calls("payoff.play")
    replies = s.calls("equilibrium.best_response")
    closed_calls = sum(s.calls(n) for n in CLOSED_FORMS)
    closed_us = sum(s.total_us(n) for n in CLOSED_FORMS)

    def per_game(x):
        return x / games if games else 0.0

    m = {
        "payoff.play.calls": games,
        "payoff.play.us_per_call": s.us_per_call("payoff.play"),
        "payoff.final_density.us_per_call": s.us_per_call("payoff.final_density"),
        "payoff.final_density.self_us": s.self_us_per_call("payoff.final_density"),
        "payoff.payoffs.us_per_call": s.us_per_call("payoff.payoffs"),
        "payoff.GameSetup.us_per_call": s.us_per_call("payoff.GameSetup"),
        "game.entangler.calls_per_game": per_game(s.calls_inside("game.entangler", "payoff.play")),
        "game.entangler.us_per_call": s.us_per_call("game.entangler"),
        "game.named_strategy_matrix.us_per_call": s.us_per_call("game.named_strategy_matrix"),
        "game.initial_state.us_per_call": s.us_per_call("game.initial_state"),
        "game.Strategy.us_per_call": s.us_per_call("game.Strategy"),
        "unruh.unruh_channel.calls_per_game": per_game(s.calls_inside("unruh.unruh_channel", "payoff.play")),
        "unruh.unruh_channel.us_per_call": s.us_per_call("unruh.unruh_channel"),
        "linalg.partial_trace.us_per_call": s.us_per_call("linalg.partial_trace"),
        "game.Strategy.rejected": s.rejected["game.Strategy"],
        "payoff.GameSetup.rejected": s.rejected["payoff.GameSetup"],
        "payoff.PayoffTable.rejected": s.rejected["payoff.PayoffTable"],
        "equilibrium.best_response.evals_per_reply": (
            s.calls_inside("payoff.play", "equilibrium.best_response") / replies if replies else 0.0
        ),
        "equilibrium.best_response.self_ms_per_reply": s.self_us_per_call("equilibrium.best_response") / 1e3,
        "equilibrium.best_response.miss_ratio": unit.detail.get("misses", 0) / unit.ops,
        "verify.run_suite.self_s": s.self_us("verify.run_suite") / 1e6,
        "closed_forms.calls": closed_calls,
        "closed_forms.us_per_call": closed_us / closed_calls if closed_calls else 0.0,
        "cli.sweep.self_s": s.self_us("cli.sweep") / 1e6,
        "cli.fig2.self_s": s.self_us("cli.fig2") / 1e6,
        "cli.verify.self_s": s.self_us("cli.verify") / 1e6,
        "cli.bytes_written": unit.detail.get("bytes_written", 0),
        "trace.overhead_ratio": unit.timed_s / plain_s,
    }
    for module, self_ns in s.pipeline_self_ns.items():
        m[f"{module}.self_us_per_game"] = per_game(self_ns / 1e3)
    return m


UNITS = {
    "calls": "count",
    "rejected": "count",
    "bytes_written": "B",
    "calls_per_game": "ratio",
    "evals_per_reply": "count",
    "miss_ratio": "ratio",
    "overhead_ratio": "ratio",
    "self_ms_per_reply": "ms",
    "self_s": "s",
}


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return UNITS.get(stat, "us")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "unruhpd" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = None if args.trace else measure_setup_s()

    import numpy

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, OUT) if cls is workloads.Curves else cls(args.seed)
    plain, traced, summaries, spans, clock = run_units(workload, args.seconds, bool(args.trace))
    units = plain + traced
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    summary = workload.summarize(plain)
    correct = summary["correct"] and all(u.wrong == 0 for u in units)

    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans.write(OUT / f"spans-{args.workload}.tsv")
        plain_s = statistics.median(u.timed_s for u in plain)
        per_unit = [layer_metrics(s, u, plain_s) for s, u in zip(summaries, traced)]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_unit), "unit": unit_of(name)}
            for name in per_unit[0]
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_per_s": {"value": summary["throughput_per_s"], "unit": "1/s"},
            "latency_p50_us": {"value": summary["latency_p50_us"], "unit": "us"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "failed_ratio": failed / attempted,
        "kernel_median_s": clock.median_kernel_s(),
        "units": len(plain) + len(traced),
        **summary["detail"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
