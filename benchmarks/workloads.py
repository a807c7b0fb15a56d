"""The three benchmark workloads, each a repeatable unit of work plus its output checks.

A workload's `unit(k, clock, tracer)` runs the k-th unit, checks every output
after the timed part, and returns a `Unit`. Times exclude the clock's own
samples and are scaled by its factor (see hostspeed.py). Units of `curves` and `best-reply` repeat
the same work; every unit of `random-play` is a fresh seeded batch with the
same composition. The engine is reached only through module attributes
(`cli.main`, `payoff.play`, ...), so that the tracer can wrap these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from unruhpd import cli, equilibrium, game, payoff
from unruhpd.closed_forms import max_entangled_classical

TOL = 1e-12
REPLY_TOL = 1e-9
GAMMA_MAX = math.pi / 2.0
R_MAX = math.pi / 4.0

# Engine games behind one `verify --suite all` grid point: table2 4, eq8 4,
# eq11 6 custom moves plus 2 identity games, eq13 2.
VERIFY_GAMES_PER_R = 18


@dataclass
class Unit:
    timed_s: float
    attempted: int
    failed: int
    ops: int
    wrong: int = 0
    latencies_us: list[float] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def _mark(tracer, op: int) -> None:
    if tracer is not None:
        tracer.op = op


def _work_s(clock, t0: float, t1: float, spent: float) -> float:
    """Seconds of work between perf_counter readings t0 and t1, at reference speed.

    `spent` is the change of `clock.spent` read straight after t0 and straight
    before t1, so that it covers only samples taken inside the interval.
    """
    return (t1 - t0 - spent) * clock.factor(t0, t1)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if len(values) else 0.0


def _hashed_rows(path: Path, digest):
    """Data rows of a CSV file, read one at a time; all its bytes go into `digest`.

    Streaming keeps the checks' memory small, so that the workload's peak RSS
    shows the engine's own rows.
    """
    with path.open("rb") as f:
        for i, line in enumerate(f):
            digest.update(line)
            if i:
                yield line.decode().rstrip("\r\n")


class Curves:
    """`sweep --gamma pi/2` (4 profiles) and `fig2` at `steps` points, then `verify`."""

    def __init__(self, seed: int, out_dir: Path, steps: int = 2000, grid: int = 1001):
        del seed  # the paper's curves have no random inputs
        self.steps = steps
        self.grid = grid
        self.games = 8 * steps + VERIFY_GAMES_PER_R * grid
        out_dir.mkdir(parents=True, exist_ok=True)
        self.sweep_path = out_dir / "sweep.csv"
        self.fig2_path = out_dir / "fig2.csv"
        self.commands = {
            "sweep": ["sweep", "--gamma", "pi/2", "--steps", str(steps), "--out", str(self.sweep_path)],
            "fig2": ["fig2", "--steps", str(steps), "--out", str(self.fig2_path)],
            "verify": ["verify", "--grid", str(grid), "--tol", repr(TOL)],
        }

    def unit(self, k: int, clock, tracer=None) -> Unit:
        times = {}
        codes = {}
        verify_out = io.StringIO()
        for i, (name, argv) in enumerate(self.commands.items()):
            _mark(tracer, 3 * k + i)
            sink = contextlib.redirect_stdout(verify_out) if name == "verify" else contextlib.nullcontext()
            with sink:
                t0 = time.perf_counter()
                spent0 = clock.spent
                codes[name] = cli.main(argv)
                spent1 = clock.spent
                t1 = time.perf_counter()
                times[name] = _work_s(clock, t0, t1, spent1 - spent0)
        verify_text = verify_out.getvalue()
        digest = hashlib.sha256()
        failed = 0
        failed += 4 * self.steps if codes["sweep"] != 0 else self._check_sweep(digest)
        failed += 4 * self.steps if codes["fig2"] != 0 else self._check_fig2(digest)
        if codes["verify"] != 0 or not verify_text.rstrip().endswith("overall=pass"):
            failed += VERIFY_GAMES_PER_R * self.grid
        return Unit(
            timed_s=sum(times.values()),
            attempted=self.games,
            failed=failed,
            ops=self.games,
            wrong=failed,
            detail={
                "times": times,
                "csv_sha256": digest.hexdigest(),
                "bytes_written": (
                    self.sweep_path.stat().st_size + self.fig2_path.stat().st_size + len(verify_text.encode())
                ),
            },
        )

    def _check_sweep(self, digest) -> int:
        """Games in the sweep CSV that miss the closed form by more than TOL."""
        failed = rows = 0
        for row in _hashed_rows(self.sweep_path, digest):
            rows += 1
            gamma, r, a, b, alice, bob = row.split(",")
            expected = max_entangled_classical(float(r), a + b)
            if (
                abs(float(gamma) - GAMMA_MAX) > TOL
                or abs(float(alice) - expected.alice) > TOL
                or abs(float(bob) - expected.bob) > TOL
            ):
                failed += 1
        return failed + abs(4 * self.steps - rows)

    def _check_fig2(self, digest) -> int:
        failed = rows = 0
        for row in _hashed_rows(self.fig2_path, digest):
            rows += 1
            r, *values = (float(x) for x in row.split(","))
            for value, profile in zip(values, ("CC", "DD", "CD", "DC")):
                if abs(value - max_entangled_classical(r, profile).alice) > TOL:
                    failed += 1
        return failed + 4 * abs(self.steps - rows)

    def summarize(self, units: list[Unit]) -> dict:
        per_call = {name: _median([u.detail["times"][name] for u in units]) for name in self.commands}
        games_per_s = self.games / sum(per_call.values())
        digests = sorted({u.detail["csv_sha256"] for u in units})
        return {
            "throughput_per_s": games_per_s,
            "latency_p50_us": 1e6 / games_per_s,
            "detail": {
                "games_per_pass": self.games,
                "passes": len(units),
                "games_per_s": games_per_s,
                "median_call_s": per_call,
                "csv_sha256": digests,
            },
            "correct": len(digests) == 1,
        }


NAMED_OPPONENTS = ("C", "D", "Q", "M")
# Move vectors q of the named moves, for the reference; Q is diag(i, -i).
NAMED_Q = {
    "C": ref.q_from_angles(0.0, 0.0),
    "D": ref.q_from_angles(0.0, math.pi),
    "Q": np.array([0.0, 0.0, 1.0]),
    "M": ref.q_from_angles(math.pi / 2.0, math.pi / 2.0),
}


class BestReply:
    """`best_response` for both players against named and seeded custom opponents."""

    def __init__(self, seed: int, points: int = 3, customs: int = 8, named=NAMED_OPPONENTS):
        rng = np.random.default_rng([seed, 2])
        tasks = []
        for _ in range(points):
            gamma = float(rng.uniform(0.0, GAMMA_MAX))
            r = float(rng.uniform(0.0, R_MAX))
            opponents = [(label, None) for label in named]
            for _ in range(customs):
                opponents.append(("custom", (float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.0, math.pi)))))
            for label, angles in opponents:
                for responder in ("alice", "bob"):
                    tasks.append((gamma, r, label, angles, responder))
        self.tasks = [tasks[i] for i in rng.permutation(len(tasks))]
        gammas = np.array([t[0] for t in self.tasks])
        rs = np.array([t[1] for t in self.tasks])
        q_opp = np.array([NAMED_Q[label] if angles is None else ref.q_from_angles(*angles) for _, _, label, angles, _ in self.tasks])
        self.u_opponent = ref.move_from_q(q_opp)
        self.alice = np.array([t[4] == "alice" for t in self.tasks])
        self.gammas, self.rs = gammas, rs
        self.optimum = ref.best_reply_values(gammas, rs, self.u_opponent, self.alice)

    def unit(self, k: int, clock, tracer=None) -> Unit:
        """One round of replies; each reply is scaled by the host speed sampled during it."""
        n = len(self.tasks)
        work_s = []
        replies = []
        now = time.perf_counter
        for i, (gamma, r, label, angles, responder) in enumerate(self.tasks):
            _mark(tracer, k * n + i)
            t0 = now()
            spent0 = clock.spent
            try:
                setup = payoff.GameSetup(gamma, r)
                opponent = game.NAMED_STRATEGIES[label] if angles is None else game.Strategy(*angles)
                replies.append(equilibrium.best_response(setup, opponent, responder))
            except Exception as exc:  # counted as a failed reply
                replies.append(exc)
            spent1 = clock.spent
            t1 = now()
            work_s.append(_work_s(clock, t0, t1, spent1 - spent0))
        failed, misses = self._check(replies)
        return Unit(sum(work_s), n, failed, n, failed, [x * 1e6 for x in work_s], {"misses": misses})

    def _check(self, replies) -> tuple[int, int]:
        """(failed, missed) replies against the reference.

        A reply fails if it raised, claims more than the exact optimum plus
        REPLY_TOL, or reports a value that differs by more than TOL from the
        reference payoff at its own move. It misses if it is good but more
        than REPLY_TOL below the optimum.
        """
        ok = np.array([not isinstance(x, Exception) for x in replies])
        alpha = np.array([x[0].alpha if good else 0.0 for x, good in zip(replies, ok)])
        theta = np.array([x[0].theta if good else 0.0 for x, good in zip(replies, ok)])
        value = np.array([x[1] if good else np.nan for x, good in zip(replies, ok)])
        u_own = ref.move(alpha, theta)
        u_alice = np.where(self.alice[:, None, None], u_own, self.u_opponent)
        u_bob = np.where(self.alice[:, None, None], self.u_opponent, u_own)
        at_move = ref.play(self.gammas, self.rs, u_alice, u_bob)
        at_move = np.where(self.alice, at_move[:, 0], at_move[:, 1])
        good = ok & (np.abs(value - at_move) <= TOL) & (value <= self.optimum + REPLY_TOL)
        misses = int((good & (value < self.optimum - REPLY_TOL)).sum())
        return int((~good).sum()), misses

    def summarize(self, units: list[Unit]) -> dict:
        replies_per_s = _median([u.ops / u.timed_s for u in units])
        latencies = [x for u in units for x in u.latencies_us]
        misses = {u.detail["misses"] for u in units}
        return {
            "throughput_per_s": replies_per_s,
            "latency_p50_us": _median(latencies),
            "detail": {
                "replies_per_round": len(self.tasks),
                "rounds": len(units),
                "replies_per_s": replies_per_s,
                "reply_p90_us": _quantile(latencies, 0.9),
                "reply_samples": len(latencies),
                "reply_miss_ratio": units[0].detail["misses"] / units[0].ops,
            },
            "correct": len(misses) == 1,
        }


# Invalid requests in every random-play batch, by kind. The last kind is the
# known defect: PayoffTable accepts non-finite entries, so those requests are
# accepted and count as failed.
INVALID_PER_BATCH = {
    "setup_out_of_domain": 50,
    "setup_non_finite": 50,
    "move_out_of_domain": 50,
    "move_non_finite": 50,
    "payoff_non_finite": 100,
}
KINDS = ("valid",) + tuple(INVALID_PER_BATCH)
DEFAULT_PAIRS = ((3.0, 3.0), (0.0, 5.0), (5.0, 0.0), (1.0, 1.0))
NON_FINITE = (math.nan, math.inf, -math.inf)
REJECTED = object()  # result of a request refused at construction
# Upper ends of (gamma, r, alpha_a, theta_a, alpha_b, theta_b).
UPPER = np.array([GAMMA_MAX, R_MAX, 2.0 * math.pi, math.pi, 2.0 * math.pi, math.pi])


class RandomPlay:
    """Single `play` calls, each on its own seeded request and its own objects."""

    def __init__(self, seed: int, batch: int = 2000, invalid: dict | None = None):
        self.seed = seed
        self.invalid = INVALID_PER_BATCH if invalid is None else invalid
        self.batch = batch
        self.valid = batch - sum(self.invalid.values())
        if self.valid <= 0:
            raise ValueError("batch too small for its invalid requests")

    def requests(self, k: int):
        """Batch k: a list of (kind, gamma, r, alpha_a, theta_a, alpha_b, theta_b, pairs)."""
        rng = np.random.default_rng([self.seed, 3, k])
        kinds = np.repeat(np.arange(len(KINDS)), [self.valid] + [self.invalid[k] for k in KINDS[1:]])
        kinds = rng.permutation(kinds)
        params = rng.uniform(0.0, 1.0, (self.batch, 6)) * UPPER
        # Kinds 1 and 2 spoil gamma or r, kinds 3 and 4 one of the four move angles.
        bad_col = np.where(kinds <= 2, rng.integers(0, 2, self.batch), rng.integers(2, 6, self.batch))
        outside = np.where(rng.random(self.batch) < 0.5, -rng.uniform(0.01, 1.0, self.batch), UPPER[bad_col] + rng.uniform(0.01, 1.0, self.batch))
        non_finite = np.array(NON_FINITE)[rng.integers(0, 3, self.batch)]
        rows = np.arange(self.batch)
        odd = (kinds == KINDS.index("setup_out_of_domain")) | (kinds == KINDS.index("move_out_of_domain"))
        nan = (kinds == KINDS.index("setup_non_finite")) | (kinds == KINDS.index("move_non_finite"))
        params[rows[odd], bad_col[odd]] = outside[odd]
        params[rows[nan], bad_col[nan]] = non_finite[nan]
        bad_entry = rng.integers(0, 8, self.batch)
        out = []
        for i, (kind, p) in enumerate(zip(kinds.tolist(), params.tolist())):
            pairs = DEFAULT_PAIRS
            if KINDS[kind] == "payoff_non_finite":
                flat = [x for pair in DEFAULT_PAIRS for x in pair]
                flat[bad_entry[i]] = non_finite[i]
                pairs = tuple(zip(flat[0::2], flat[1::2]))
            out.append((kind, *p, pairs))
        return out

    def unit(self, k: int, clock, tracer=None) -> Unit:
        requests = self.requests(k)
        results = []
        raw = []
        now = time.perf_counter
        start = now()
        start_spent = clock.spent
        for i, (kind, gamma, r, alpha_a, theta_a, alpha_b, theta_b, pairs) in enumerate(requests):
            _mark(tracer, k * self.batch + i)
            t0 = now()
            spent0 = clock.spent
            try:
                setup = payoff.GameSetup(gamma, r, payoff.PayoffTable(*pairs))
                alice = game.Strategy(alpha_a, theta_a)
                bob = game.Strategy(alpha_b, theta_b)
            except ValueError:
                result = REJECTED
            else:
                try:
                    result = payoff.play(setup, alice, bob)
                except Exception as exc:  # a valid game must not raise
                    result = exc
            spent1 = clock.spent
            t1 = now()
            results.append(result)
            if kind == 0:
                raw.append(t1 - t0 - (spent1 - spent0))
        end_spent = clock.spent
        end = now()
        factor = clock.factor(start, end)
        timed = _work_s(clock, start, end, end_spent - start_spent)
        latencies = [x * factor * 1e6 for x in raw]
        accepted = sum(1 for req, res in zip(requests, results) if req[0] != 0 and res is not REJECTED)
        wrong = self._wrong_games(requests, results)
        # Per-batch statistics only, so that memory does not grow with speed.
        stats = {"p50": _median(latencies), "p99": _quantile(latencies, 0.99)}
        return Unit(timed, self.batch, wrong + accepted, self.valid, wrong, detail=stats)

    def _wrong_games(self, requests, results) -> int:
        """Valid games that raised, were rejected or miss the Kraus reference by more than TOL."""
        valid = [(req, res) for req, res in zip(requests, results) if req[0] == 0]
        ok = np.array([isinstance(res, tuple) and len(res) == 2 for _, res in valid])
        p = np.array([req[1:7] for req, _ in valid])
        expected = ref.play(p[:, 0], p[:, 1], ref.move(p[:, 2], p[:, 3]), ref.move(p[:, 4], p[:, 5]))
        got = np.array([res if good else (np.nan, np.nan) for (_, res), good in zip(valid, ok)], dtype=float)
        return int((~(ok & np.all(np.abs(got - expected) <= TOL, axis=1))).sum())

    def summarize(self, units: list[Unit]) -> dict:
        games_per_s = _median([u.ops / u.timed_s for u in units])
        return {
            "throughput_per_s": games_per_s,
            "latency_p50_us": _median([u.detail["p50"] for u in units]),
            "detail": {
                "batches": len(units),
                "requests_per_batch": self.batch,
                "valid_per_batch": self.valid,
                "invalid_per_batch": dict(self.invalid),
                "games_per_s": games_per_s,
                "play_p99_us": _median([u.detail["p99"] for u in units]),
                "play_samples": len(units) * self.valid,
            },
            "correct": True,
        }


WORKLOADS = {"curves": Curves, "best-reply": BestReply, "random-play": RandomPlay}
