#!/usr/bin/env python3
"""Print one SHA-256 digest of `equilibrium.best_response` replies over a fixed seeded set of tasks.

    python tools/reply_digest.py             # the package found on sys.path
    PYTHONPATH=src python tools/reply_digest.py

Each of the TASKS tasks is a (gamma, r) setup, a payoff table, an opponent
and a responder, drawn from `random.Random(SEED)`; gamma and r include their
domain's ends, the tables include the default and `from_scalars` tables, and
the opponents the named moves C, D, Q, M and custom angles. The digest hashes the repr of each
reply's (alpha, theta, value), one line per task, so two source trees print
the same digest only when every reply is the same to the last bit. No CLI
command reaches `best_response`, so the byte comparison of CLI output cannot
see a changed reply; this script can. Needs only the standard library and
the package.
"""

from __future__ import annotations

import hashlib
import math
import random

from unruhpd import NAMED_STRATEGIES, GameSetup, PayoffTable, Strategy, best_response
from unruhpd.game import GAMMA_MAX, TWO_PI
from unruhpd.unruh import R_MAX

SEED = 2024
TASKS = 200


def tasks(seed: int, count: int):
    """`count` (setup, opponent, responder) triples drawn from `random.Random(seed)`."""
    rng = random.Random(seed)
    named = [NAMED_STRATEGIES[label] for label in "CDQM"]
    for _ in range(count):
        gamma = rng.choice((0.0, GAMMA_MAX, rng.uniform(0.0, GAMMA_MAX)))
        r = rng.choice((0.0, R_MAX, rng.uniform(0.0, R_MAX)))
        table = rng.choice((PayoffTable(), PayoffTable.from_scalars(*(rng.uniform(-5.0, 5.0) for _ in range(4)))))
        if rng.random() < 0.5:
            opponent = rng.choice(named)
        else:
            opponent = Strategy(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, math.pi))
        yield GameSetup(gamma, r, table), opponent, rng.choice(("alice", "bob"))


def digest(seed: int, count: int) -> str:
    h = hashlib.sha256()
    for setup, opponent, responder in tasks(seed, count):
        reply, value = best_response(setup, opponent, responder)
        h.update(f"{reply.alpha!r} {reply.theta!r} {value!r}\n".encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(SEED, TASKS))
