"""Tiny-size smoke run of the benchmark: every workload untraced and traced.

Run from the repository root with `python -m pytest benchmarks/test_smoke.py`.
A plain `pytest` run does not collect it: `testpaths` in pyproject.toml is `tests`.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_INVALID = {
    "setup_out_of_domain": 2,
    "setup_non_finite": 2,
    "move_out_of_domain": 2,
    "move_non_finite": 2,
    "payoff_non_finite": 4,
}


def tiny(name: str, tmp_path: Path):
    if name == "curves":
        return workloads.Curves(0, tmp_path, steps=20, grid=5)
    if name == "best-reply":
        return workloads.BestReply(3, points=1, customs=1, named=("Q",))
    return workloads.RandomPlay(5, batch=60, invalid=TINY_INVALID)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_checks_clean_and_adds_up(name, tmp_path):
    workload = tiny(name, tmp_path)
    plain, traced, summaries, _, _ = run.run_units(workload, 0.0, True)
    assert len(plain) == len(traced) == 1
    assert all(u.wrong == 0 for u in plain + traced)
    assert workload.summarize(plain)["correct"]
    m = run.layer_metrics(summaries[0], traced[0], plain[0].timed_s)
    pipeline = sum(m[f"{module}.self_us_per_game"] for module in tracer.PIPELINE_MODULES)
    assert pipeline == pytest.approx(m["payoff.play.us_per_call"], rel=1e-9)
    assert m["game.entangler.calls_per_game"] == 1.0
    assert m["unruh.unruh_channel.calls_per_game"] == 1.0
    if name == "curves":
        assert m["payoff.play.calls"] == 8 * 20 + workloads.VERIFY_GAMES_PER_R * 5
        assert m["closed_forms.calls"] > 0 and m["cli.bytes_written"] > 0
    if name == "best-reply":
        assert m["equilibrium.best_response.evals_per_reply"] > 100
    if name == "random-play":
        assert m["payoff.GameSetup.rejected"] == 4
        assert m["game.Strategy.rejected"] == 4
        assert m["payoff.PayoffTable.rejected"] == 0
        # The known defect: non-finite payoff tables are accepted, and only they fail.
        assert traced[0].failed == TINY_INVALID["payoff_non_finite"]


def test_reference_best_reply_is_the_maximum_over_moves():
    rng = np.random.default_rng(7)
    for responder_is_alice in (True, False):
        gamma, r = rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi / 4)
        opponent = reference.move(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
        best = reference.best_reply_values(
            np.array([gamma]), np.array([r]), opponent[None], np.array([responder_is_alice])
        )[0]
        own = reference.move(rng.uniform(0, 2 * math.pi, 4000), rng.uniform(0, math.pi, 4000))
        pair = (own, opponent[None]) if responder_is_alice else (opponent[None], own)
        sampled = reference.play(gamma, r, *pair)[:, 0 if responder_is_alice else 1]
        assert sampled.max() <= best + 1e-12
        assert sampled.max() >= best - 1e-2


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = _run(ROOT, "--workload", "random-play", "--seed", "1", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert {"seed", "python", "numpy", "nproc", "git_sha"} <= set(record)


def test_exits_nonzero_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
