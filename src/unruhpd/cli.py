"""Command line front end.

Subcommands:
  play        score a single game configuration
  sweep       tabulate payoffs over an acceleration range (CSV)
  fig2        payoff-vs-acceleration curves at maximal entanglement (CSV)
  verify      replay the closed-form cross-check suites
  equilibria  analyze a finite strategy set at one configuration

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Text output prints each float with 17 significant digits, `play --json` its shortest
round-trip repr: either way reruns are byte-identical and values round-trip exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import re
import sys

from .equilibrium import analyze
from .game import GAMMA_MAX, NAMED_STRATEGIES, Strategy, validate_gamma
from .payoff import PROFILE_ORDER, PayoffTable, GameSetup, play, play_entries
from .unruh import R_MAX, validate_r
from .verify import DEFAULT_GRID, DEFAULT_TOL, SUITE_NAMES, run_suite

# Grid points built and scored per engine call in sweep and fig2, so that
# memory stays bounded however large --steps is.
GRID_BLOCK = 4096
# CSV rows joined into one write: few writes, and no string as large as a block.
ROWS_PER_WRITE = 256

# Values such as -5e-7, -.5 or -1,0,5,1; plain argparse takes only -5 and -0.5 for values.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-])?(?P<coef>\d+(?:\.\d*)?|\.\d+)?pi(?:/(?P<den>\d+(?:\.\d*)?|\.\d+))?$"
)


def fmt(value: float) -> str:
    """17 significant digits; the same bytes as the "%.17g" templates of the CSV rows."""
    return f"{value:.17g}"


def parse_angle(token: str) -> float:
    """Accept plain floats plus pi fractions: 'pi', 'pi/4', '3pi/4', '-pi/2', '.5pi', 'pi/.5'."""
    text = token.strip().lower().replace(" ", "").replace("*", "")
    match = _PI_TOKEN.match(text)
    if match:
        den = float(match.group("den") or 1.0)
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"cannot parse angle {token!r}: zero denominator")
        value = math.pi * float(match.group("coef") or 1.0) / den
        return -value if match.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {token!r}") from None


def parse_strategy(token: str) -> Strategy:
    """A named move C|D|Q|M, or 'alpha,theta' with angles as in parse_angle."""
    text = token.strip()
    if text in NAMED_STRATEGIES:
        return NAMED_STRATEGIES[text]
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"strategy must be one of {'|'.join(NAMED_STRATEGIES)} or 'alpha,theta', got {token!r}"
        )
    try:
        return Strategy(parse_angle(parts[0]), parse_angle(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_profile(token: str) -> str:
    text = token.strip()
    if len(text) != 2 or any(ch not in NAMED_STRATEGIES for ch in text):
        raise argparse.ArgumentTypeError(f"profile must be two of {'|'.join(NAMED_STRATEGIES)}, got {token!r}")
    return text


def parse_payoffs(token: str) -> PayoffTable:
    parts = token.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected R,S,T,P, got {token!r}")
    try:
        reward, sucker, temptation, punishment = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected four numbers, got {token!r}") from None
    try:
        return PayoffTable.from_scalars(reward, sucker, temptation, punishment)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def load_config_table(path: str, base: PayoffTable) -> PayoffTable:
    """Read 'cc/cd/dc/dd = a,b' overrides from a small key=value file."""
    entries = {"cc": base.cc, "cd": base.cd, "dc": base.dc, "dd": base.dd}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in entries:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} (use cc, cd, dc, dd)")
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: value must be 'alice,bob', got {value.strip()!r}")
            try:
                entries[key] = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric payoff in {value.strip()!r}") from None
    return PayoffTable(**entries)


def resolve_table(args: argparse.Namespace) -> PayoffTable:
    table = getattr(args, "payoffs", None) or PayoffTable()
    config = getattr(args, "config", None)
    if config is not None:
        table = load_config_table(config, table)
    return table


def add_table_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--payoffs",
        type=parse_payoffs,
        default=None,
        metavar="R,S,T,P",
        help="payoff scalars: reward, sucker, temptation, punishment (default 3,0,5,1)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="key=value file overriding payoff pairs (keys cc, cd, dc, dd; values 'alice,bob')",
    )


class _Parser(argparse.ArgumentParser):
    """ArgumentParser (its subparsers too) that reads a `_NEGATIVE_VALUE` token as a value."""

    def _parse_optional(self, arg_string):
        return None if _NEGATIVE_VALUE.match(arg_string) else super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; `main` builds one on its first call and reuses it.

    The parser holds no state that a parse changes: no default is mutable and
    no subcommand binds its `cmd_*` function, which `main` looks up when it runs.
    """
    parser = _Parser(
        prog="unruhpd",
        description="Quantum prisoner's dilemma with one uniformly accelerated player.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_play = sub.add_parser("play", help="score a single game configuration")
    p_play.add_argument("--gamma", type=parse_angle, required=True, help=f"entanglement angle in [0, {fmt(GAMMA_MAX)}]")
    p_play.add_argument("--r", type=parse_angle, required=True, help=f"acceleration angle in [0, {fmt(R_MAX)}]")
    p_play.add_argument("--alice", type=parse_strategy, required=True, help="C|D|Q|M or 'alpha,theta'")
    p_play.add_argument("--bob", type=parse_strategy, required=True, help="C|D|Q|M or 'alpha,theta'")
    p_play.add_argument("--json", action="store_true", help="emit a JSON object instead of key=value lines")
    add_table_flags(p_play)

    p_sweep = sub.add_parser("sweep", help="tabulate payoffs over an acceleration range")
    p_sweep.add_argument("--gamma", type=parse_angle, required=True)
    p_sweep.add_argument("--r-start", type=parse_angle, default=0.0)
    p_sweep.add_argument("--r-end", type=parse_angle, default=R_MAX)
    p_sweep.add_argument("--steps", type=int, required=True, help="number of grid points, at least 2")
    p_sweep.add_argument(
        "--profiles",
        type=parse_profile,
        nargs="+",
        default=PROFILE_ORDER,
        help="profiles to tabulate, e.g. CC CD DC DD",
    )
    p_sweep.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    add_table_flags(p_sweep)

    p_fig2 = sub.add_parser("fig2", help="payoff curves at maximal entanglement")
    p_fig2.add_argument("--steps", type=int, required=True, help="number of grid points, at least 2")
    p_fig2.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    add_table_flags(p_fig2)

    p_verify = sub.add_parser("verify", help="replay the closed-form cross-check suites")
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p_verify.add_argument("--grid", type=int, default=DEFAULT_GRID, help="acceleration grid points, at least 3")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL, help="maximum tolerated deviation")

    p_eq = sub.add_parser("equilibria", help="analyze a finite strategy set")
    p_eq.add_argument("--gamma", type=parse_angle, required=True)
    p_eq.add_argument("--r", type=parse_angle, required=True)
    p_eq.add_argument(
        "--set",
        dest="strategy_set",
        default="C,D",
        help="comma list of named moves, e.g. C,D,Q,M",
    )
    add_table_flags(p_eq)

    return parser


def cmd_play(args: argparse.Namespace) -> int:
    setup = GameSetup(gamma=args.gamma, r=args.r, table=resolve_table(args))
    result = play(setup, args.alice, args.bob)
    record = {
        "gamma": args.gamma,
        "r": args.r,
        "alice_strategy": str(args.alice),
        "bob_strategy": str(args.bob),
        "alice_payoff": result.alice,
        "bob_payoff": result.bob,
    }
    if args.json:
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}={fmt(value) if isinstance(value, float) else value}")
    return 0


def _write_csv(path: str, header: str, lines, lines_per_write: int) -> None:
    """Write the header, then the LF-terminated `lines` as they come; '-' is stdout.

    Lines are joined and written `lines_per_write` at a time, so each write
    is bounded however many rows there are.
    """
    sink = contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8", newline="\n")
    lines = iter(lines)
    with sink as handle:
        handle.write(header + "\n")
        while chunk := "".join(itertools.islice(lines, lines_per_write)):
            handle.write(chunk)


def _grid_payoffs(gamma: float, r_start: float, r_end: float, steps: int, profiles: list[str], table: PayoffTable):
    """Yield (r list, [[alice list, bob list] per profile]) along the r grid, GRID_BLOCK points at a time.

    The grid is `np.linspace(r_start, r_end, steps)`, built one block at a
    time with the same arithmetic. Its points must lie within EDGE_SLACK of
    [0, R_MAX]; each is clamped into that range for scoring, as GameSetup
    does, and yielded as built.
    """
    import numpy as np
    moves = [[NAMED_STRATEGIES[label].q for label in profile] for profile in profiles]
    delta = r_end - r_start
    step = delta / (steps - 1)
    for lo in range(0, steps, GRID_BLOCK):
        index = np.arange(lo, min(lo + GRID_BLOCK, steps), dtype=float)
        # As np.linspace: i * step, or (i / (steps - 1)) * delta where the step underflows to 0.
        block = (index * step if step != 0.0 else index / (steps - 1) * delta) + r_start
        if lo + GRID_BLOCK >= steps:
            block[-1] = r_end
        scored = np.clip(block, 0.0, R_MAX)
        yield block.tolist(), [[v.tolist() for v in play_entries(gamma, scored, *move, table)] for move in moves]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if args.r_start > args.r_end:
        raise ValueError("--r-start must not exceed --r-end")
    gamma = validate_gamma(args.gamma)
    validate_r(args.r_start)
    validate_r(args.r_end)
    table = resolve_table(args)
    # The rows of one grid point, one per profile, filled by a single % call
    # from r (formatted once) and each profile's payoff pair.
    template = "".join(f"{fmt(args.gamma)},%s,{a},{b},%.17g,%.17g\n" for a, b in args.profiles)

    def lines():
        for rs, columns in _grid_payoffs(gamma, args.r_start, args.r_end, args.steps, args.profiles, table):
            r_text = list(map("%.17g".__mod__, rs))
            yield from map(template.__mod__, zip(*(c for alice, bob in columns for c in (r_text, alice, bob))))

    header = "gamma,r,alice_strategy,bob_strategy,alice_payoff,bob_payoff"
    _write_csv(args.out, header, lines(), max(1, ROWS_PER_WRITE // len(args.profiles)))
    return 0


FIG2_PROFILES = ["CC", "DD", "CD", "DC"]
FIG2_TEMPLATE = ",".join(["%.17g"] * (1 + len(FIG2_PROFILES))) + "\n"


def cmd_fig2(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    table = resolve_table(args)
    lines = (
        line
        for rs, columns in _grid_payoffs(math.pi / 2.0, 0.0, R_MAX, args.steps, FIG2_PROFILES, table)
        for line in map(FIG2_TEMPLATE.__mod__, zip(rs, *(alice for alice, _ in columns)))
    )
    _write_csv(args.out, "r,P_CC,P_DD,P_A_CD,P_A_DC", lines, ROWS_PER_WRITE)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    outcomes = [run_suite(name, args.grid, args.tol) for name in names]
    for outcome in outcomes:
        print(f"suite={outcome.suite}")
        print(f"points_checked={outcome.points_checked}")
        print(f"max_abs_error={fmt(outcome.max_abs_error)}")
        print(f"passed={'true' if outcome.passed else 'false'}")
        for note in outcome.discrepancy_notes:
            print(f"note={note}")
        print()
    all_passed = all(o.passed for o in outcomes)
    print(f"overall={'pass' if all_passed else 'fail'}")
    return 0 if all_passed else 1


def cmd_equilibria(args: argparse.Namespace) -> int:
    labels = [token.strip() for token in args.strategy_set.split(",") if token.strip()]
    if not labels:
        raise ValueError("--set must name at least one strategy")
    unknown = [label for label in labels if label not in NAMED_STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies in --set: {', '.join(unknown)}")
    strategies = [NAMED_STRATEGIES[label] for label in labels]
    setup = GameSetup(gamma=args.gamma, r=args.r, table=resolve_table(args))
    report = analyze(setup, strategies)

    print(f"gamma={fmt(args.gamma)}")
    print(f"r={fmt(args.r)}")
    print(f"set={','.join(labels)}")
    for i, row_label in enumerate(labels):
        for j, col_label in enumerate(labels):
            alice, bob = report.table[i][j]
            print(f"payoff[{row_label},{col_label}]={fmt(alice)},{fmt(bob)}")
    nash_text = ",".join(f"({labels[i]},{labels[j]})" for i, j in report.nash)
    print(f"nash={nash_text}")
    for player, found in (("alice", report.dominant_alice), ("bob", report.dominant_bob)):
        if found is None:
            print(f"dominant_{player}=none")
        else:
            index, kind = found
            print(f"dominant_{player}={labels[index]}:{kind}")
    pareto_text = ",".join(f"({labels[i]},{labels[j]})" for i, j in report.pareto)
    print(f"pareto={pareto_text}")
    for player, replies in (("alice", report.best_responses_alice), ("bob", report.best_responses_bob)):
        for opp, reply in replies.items():
            print(f"best_response_{player}[{labels[opp]}]={labels[reply]}")
    return 0


_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    # Subcommand NAME runs the module's `cmd_NAME`, looked up on each call: a rebound one (a test double, a tracer's
    # wrapper) is the one run, which a function bound into the shared parser would not be.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
