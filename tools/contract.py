#!/usr/bin/env python3
"""Print the output contract of the unruhpd package on PYTHONPATH: its CLI bytes and its best replies.

    diff <(PYTHONPATH=PARENT/src python tools/contract.py) <(PYTHONPATH=src python tools/contract.py)

First one line per command of `tools/cli_commands.txt` (one per line,
arguments split on whitespace): the SHA-256 and size of its stdout and its
exit code, from a fresh `python -m unruhpd` that inherits PYTHONPATH and
reads stdin from /dev/null. Then one line for `best_response`, which no CLI
command reaches: the SHA-256 of the reprs of each reply's (alpha, theta,
value), one line per task. Each of the TASKS tasks is a (gamma, r) setup, a
payoff table, an opponent and a responder drawn from `random.Random(SEED)`;
gamma and r include their domain's ends; the tables are the default, a
`from_scalars`, the zero, a +-`PAYOFF_ENTRY_MAX` sign mix, or the default
table scaled by 5e-324, 1e-310 or 1e-300; and the opponents are the named
moves C, D, Q, M and custom angles. Two source trees print the same listing
only when every CLI byte, exit code and reply bit is the same, and `diff` of
their listings names each line that moved. Takes no arguments; needs only the
standard library and the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import subprocess
import sys
from pathlib import Path

from unruhpd import NAMED_STRATEGIES, GameSetup, PayoffTable, Strategy, best_response
from unruhpd.game import GAMMA_MAX, TWO_PI
from unruhpd.payoff import PAYOFF_ENTRY_MAX
from unruhpd.unruh import R_MAX

COMMANDS = Path(__file__).resolve().with_name("cli_commands.txt")
SEED = 2024
TASKS = 200


def cli_lines():
    for args in (line.split() for line in COMMANDS.read_text(encoding="utf-8").splitlines() if line.strip()):
        run = subprocess.run([sys.executable, "-m", "unruhpd", *args], stdin=subprocess.DEVNULL, capture_output=True)
        yield f"{hashlib.sha256(run.stdout).hexdigest()} {len(run.stdout):>8} exit={run.returncode} unruhpd {' '.join(args)}"


def reply_table(rng: random.Random) -> PayoffTable:
    """One of the tables the module docstring names; the extremes test the search's margin and its floor."""
    kind = rng.choice(("default", "scalars", "zero", "extreme", "subnormal"))
    if kind == "scalars":
        return PayoffTable.from_scalars(*(rng.uniform(-5.0, 5.0) for _ in range(4)))
    if kind == "extreme":
        signs = (-PAYOFF_ENTRY_MAX, PAYOFF_ENTRY_MAX)
        return PayoffTable(*(tuple(rng.choice(signs) for _ in range(2)) for _ in range(4)))
    scale = {"default": 1.0, "zero": 0.0, "subnormal": rng.choice((5e-324, 1e-310, 1e-300))}[kind]
    return PayoffTable(*(tuple(scale * x for x in pair) for pair in dataclasses.astuple(PayoffTable())))


def reply_tasks():
    rng = random.Random(SEED)
    named = [NAMED_STRATEGIES[label] for label in "CDQM"]
    for _ in range(TASKS):
        gamma = rng.choice((0.0, GAMMA_MAX, rng.uniform(0.0, GAMMA_MAX)))
        r = rng.choice((0.0, R_MAX, rng.uniform(0.0, R_MAX)))
        table = reply_table(rng)
        if rng.random() < 0.5:
            opponent = rng.choice(named)
        else:
            opponent = Strategy(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, math.pi))
        yield GameSetup(gamma, r, table), opponent, rng.choice(("alice", "bob"))


def reply_line() -> str:
    h = hashlib.sha256()
    for setup, opponent, responder in reply_tasks():
        reply, value = best_response(setup, opponent, responder)
        h.update(f"{reply.alpha!r} {reply.theta!r} {value!r}\n".encode())
    return f"{h.hexdigest()} best_response {TASKS} replies"


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: PYTHONPATH=TREE/src {sys.argv[0]}  (takes no arguments)")
    for line in cli_lines():
        print(line, flush=True)
    print(reply_line())
