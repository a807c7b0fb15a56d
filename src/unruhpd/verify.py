"""Cross-checks of the engine against the published closed forms.

Each suite replays a family of analytic payoff results on an r grid and
reports the worst engine-vs-formula deviation. Known anomalies in the
published account (label mismatches, misprinted values, an unexplained
player inversion) are surfaced as discrepancy notes rather than silently
corrected or failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import closed_forms
from .game import NAMED_STRATEGIES, Strategy, entangler, named_strategy_matrix
from .linalg import kron, sup_norm
from .payoff import PayoffTable, play_batch
from .payoff import GameSetup, play  # noqa: F401  (kept bound here: benchmarks/tracer.py wraps them by name)
from .unruh import R_MAX

SUITE_NAMES = ("table2", "eq8", "eq11", "eq13", "commutators")

DEFAULT_GRID = 9
DEFAULT_TOL = 1e-12

DEFAULT_TABLE = PayoffTable()

NOTE_Q_LABEL = (
    "quantum move Q: the published label U(0, pi/2) does not generate the "
    "displayed matrix diag(i,-i) under the move parametrization (it gives a "
    "non-diagonal matrix); the engine uses diag(i,-i), which equals "
    "U(pi/2, 0), and the payoff checks of this suite confirm that choice."
)
NOTE_TABLE2_MISPRINT = (
    "at r = pi/4 the accompanying text quotes (D,C) = (D,D) = (3,3/2); the "
    "closed forms and the engine both give (3,1/2)."
)
NOTE_TABLE2_NASH = (
    "deviation checks on the unentangled closed forms make (D,D) a pure "
    "equilibrium for every r below pi/4, despite the accompanying claim "
    "that no classical profile is one; the equilibria command reports the "
    "computed set."
)
NOTE_EQ8_CROSS = (
    "at r = 0 the maximally entangled cross profiles give (C,D) -> (5,0) "
    "and (D,C) -> (0,5), not the classical (0,5)/(5,0): under this move "
    "parametrization the (C,D) profile collapses onto the DC outcome. "
    "Internally consistent; recorded for information."
)
NOTE_EQ8_PARETO = (
    "(D,D) is payoff-dominated by (C,C) at every acceleration here, so it "
    "cannot be Pareto optimal as remarked in the accompanying text; the "
    "equilibria command reports the computed front."
)
NOTE_EQ13_INVERSION = (
    "at r = 0 the miracle-move closed forms give (1/2, 3), the mirror image "
    "of the known inertial-frame result; the original account states it has "
    "no explanation for this inconsistency. The formulas are reproduced "
    "exactly as stated, not corrected."
)


class WorstAt(NamedTuple):
    """Where a suite's largest deviation occurred.

    `label` names the compared profile or move pair; `r` and `player` are
    None where the check has no acceleration grid or player (commutators).
    """

    suite: str
    label: str
    r: float | None = None
    player: str | None = None


@dataclass
class VerifyOutcome:
    suite: str
    points_checked: int
    max_abs_error: float
    discrepancy_notes: list[str]
    passed: bool
    worst_at: WorstAt | None = None


def r_grid(points: int) -> np.ndarray:
    if points < 3:
        raise ValueError("grid must have at least 3 points")
    return np.linspace(0.0, R_MAX, points)


def run_suite(suite: str, grid: int = DEFAULT_GRID, tol: float = DEFAULT_TOL) -> VerifyOutcome:
    """Run one named suite, or every suite aggregated under 'all'."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tolerance must be positive and finite")
    if suite == "all":
        outcomes = [run_suite(name, grid, tol) for name in SUITE_NAMES]
        worst = max(outcomes, key=lambda o: o.max_abs_error)
        return VerifyOutcome(
            suite="all",
            points_checked=sum(o.points_checked for o in outcomes),
            max_abs_error=worst.max_abs_error,
            discrepancy_notes=[note for o in outcomes for note in o.discrepancy_notes],
            passed=all(o.passed for o in outcomes),
            worst_at=worst.worst_at,
        )
    runners = {
        "table2": _suite_table2,
        "eq8": _suite_eq8,
        "eq11": _suite_eq11,
        "eq13": _suite_eq13,
        "commutators": _suite_commutators,
    }
    if suite not in runners:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    return runners[suite](grid, tol)


def _profile_pair(profile: str) -> tuple[Strategy, Strategy]:
    return NAMED_STRATEGIES[profile[0]], NAMED_STRATEGIES[profile[1]]


def _engine(gamma: float, rs: np.ndarray, alice: Strategy, bob: Strategy) -> np.ndarray:
    """(len(rs), 2) engine payoffs of one profile over the whole r grid."""
    return play_batch(gamma, rs, named_strategy_matrix(alice), named_strategy_matrix(bob), DEFAULT_TABLE)


def _formula(form, rs: np.ndarray, *args) -> np.ndarray:
    """(len(rs), 2) closed-form payoffs over the whole r grid, in one call."""
    return np.stack(form(rs, *args), axis=-1)


def _worst(suite: str, rs: np.ndarray, checks) -> tuple[float, WorstAt]:
    """Largest |engine - expected| over `checks` and where it occurred.

    Each check is (label, players, engine, expected), the arrays of shape
    (len(rs), len(players)). The first of equal deviations is kept; a NaN
    deviation counts as the largest, so it cannot pass.
    """
    worst, at = 0.0, None
    for label, players, engine, expected in checks:
        deviation = np.abs(engine - expected)
        i, col = np.unravel_index(np.argmax(deviation), deviation.shape)
        value = float(deviation[i, col])
        if at is None or value > worst or (math.isnan(value) and not math.isnan(worst)):
            worst, at = value, WorstAt(suite, label, float(rs[i]), players[col])
    return worst, at


PLAYERS = ("alice", "bob")


def _classical_checks(gamma: float, form, rs: np.ndarray) -> list:
    return [
        (profile, PLAYERS, _engine(gamma, rs, *_profile_pair(profile)), _formula(form, rs, profile))
        for profile in closed_forms.CLASSICAL_PROFILES
    ]


def _suite_table2(grid: int, tol: float) -> VerifyOutcome:
    rs = r_grid(grid)
    worst, at = _worst("table2", rs, _classical_checks(0.0, closed_forms.unentangled_classical, rs))
    points = len(rs) * len(closed_forms.CLASSICAL_PROFILES)
    return VerifyOutcome("table2", points, worst, [NOTE_TABLE2_MISPRINT, NOTE_TABLE2_NASH], worst <= tol, at)


def _suite_eq8(grid: int, tol: float) -> VerifyOutcome:
    rs = r_grid(grid)
    worst, at = _worst("eq8", rs, _classical_checks(math.pi / 2.0, closed_forms.max_entangled_classical, rs))
    points = len(rs) * len(closed_forms.CLASSICAL_PROFILES)
    return VerifyOutcome("eq8", points, worst, [NOTE_EQ8_CROSS, NOTE_EQ8_PARETO], worst <= tol, at)


def _suite_eq11(grid: int, tol: float) -> VerifyOutcome:
    rs = r_grid(grid)
    q = NAMED_STRATEGIES["Q"]
    moves = [(alpha_b, theta_b) for alpha_b in (0.0, math.pi / 4.0) for theta_b in (0.0, math.pi / 2.0, math.pi)]
    checks = [
        (
            f"Q vs {Strategy(alpha_b, theta_b)}",
            PLAYERS,
            _engine(math.pi / 2.0, rs, q, Strategy(alpha_b, theta_b)),
            _formula(closed_forms.q_vs_arbitrary, rs, alpha_b, theta_b),
        )
        for alpha_b, theta_b in moves
    ]
    # Q-vs-defect for Bob must coincide with cooperate-vs-defect for Alice.
    qd_bob = _engine(math.pi / 2.0, rs, q, NAMED_STRATEGIES["D"])[:, 1:]
    cd_alice = _engine(math.pi / 2.0, rs, NAMED_STRATEGIES["C"], NAMED_STRATEGIES["D"])[:, :1]
    checks.append(("QD bob vs CD alice", ("bob",), qd_bob, cd_alice))
    worst, at = _worst("eq11", rs, checks)
    points = len(rs) * (len(moves) + 1)
    return VerifyOutcome("eq11", points, worst, [NOTE_Q_LABEL], worst <= tol, at)


def _suite_eq13(grid: int, tol: float) -> VerifyOutcome:
    rs = r_grid(grid)
    m = NAMED_STRATEGIES["M"]
    checks = [
        (
            "M" + reply,
            PLAYERS,
            _engine(math.pi / 2.0, rs, m, NAMED_STRATEGIES[reply]),
            _formula(closed_forms.miracle_vs_classical, rs, theta_b),
        )
        for reply, theta_b in (("C", 0.0), ("D", math.pi))
    ]
    worst, at = _worst("eq13", rs, checks)
    ordering_ok = all(np.all(engine[:, 0] < engine[:, 1]) for _, _, engine, _ in checks)
    points = len(rs) * 2
    notes = [NOTE_EQ13_INVERSION]
    if not ordering_ok:
        notes.append("ordering violation: the miracle player failed to score below the classical reply somewhere on the grid")
    return VerifyOutcome("eq13", points, worst, notes, worst <= tol and ordering_ok, at)


def _suite_commutators(grid: int, tol: float) -> VerifyOutcome:
    del grid
    j = entangler(math.pi / 2.0)
    norms: dict[str, float] = {}
    for a in ("C", "D"):
        for b in ("C", "D"):
            u = kron(named_strategy_matrix(NAMED_STRATEGIES[a]), named_strategy_matrix(NAMED_STRATEGIES[b]))
            norms[a + b] = sup_norm(j @ u - u @ j)
    same = max(("CC", "DD"), key=norms.__getitem__)
    worst_same = norms[same]
    notes = [
        "entangler commutator sup-norms at gamma = pi/2: "
        + ", ".join(f"[J, {a}x{b}] = {norms[a + b]:.6g}" for a in "CD" for b in "CD")
        + "; the mixed classical pairs do not commute under this move "
        "parametrization (reported for information, not a failure)."
    ]
    return VerifyOutcome("commutators", len(norms), worst_same, notes, worst_same <= tol, WorstAt("commutators", same))
