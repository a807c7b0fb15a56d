"""Acceptance gate: one test per release criterion, one printed line each.

Every check drives the engine through its public API (or the installed CLI)
and compares against the independent closed-form oracles at the stated
tolerances on the canonical acceleration grid.
"""

import math
import subprocess
import sys
import time

import numpy as np

from unruhpd.closed_forms import (
    max_entangled_classical,
    miracle_vs_classical,
    q_vs_arbitrary,
    unentangled_classical,
)
from unruhpd.equilibrium import find_dominant, find_nash, payoff_table
from unruhpd.game import NAMED_STRATEGIES, Strategy, initial_state
from unruhpd.payoff import GameSetup, play
from unruhpd.unruh import unruh_channel

R_GRID = [
    0.0,
    math.pi / 16,
    math.pi / 12,
    math.pi / 8,
    math.pi / 6,
    math.pi / 5,
    math.pi / 4.5,
    math.pi / 4.2,
    math.pi / 4,
]

PROFILES = ("CC", "CD", "DC", "DD")

C = NAMED_STRATEGIES["C"]
D = NAMED_STRATEGIES["D"]
Q = NAMED_STRATEGIES["Q"]
M = NAMED_STRATEGIES["M"]


def report(number, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: {failures}"


def pair_error(got, want):
    return max(abs(got.alice - want.alice), abs(got.bob - want.bob))


def test_criterion_1_unentangled_closed_forms():
    failures = []
    start = time.perf_counter()
    worst = 0.0
    for r in R_GRID:
        setup = GameSetup(gamma=0.0, r=r)
        for profile in PROFILES:
            got = play(setup, NAMED_STRATEGIES[profile[0]], NAMED_STRATEGIES[profile[1]])
            worst = max(worst, pair_error(got, unentangled_classical(r, profile)))
    elapsed = time.perf_counter() - start
    if worst > 1e-12:
        failures.append(f"max abs error {worst} > 1e-12")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report(1, f"unentangled closed forms on 9-point grid (max err {worst:.3e}, {elapsed * 1e3:.0f} ms)", failures)


def test_criterion_2_max_entangled_closed_forms():
    failures = []
    worst = 0.0
    for r in R_GRID:
        setup = GameSetup(gamma=math.pi / 2, r=r)
        for profile in PROFILES:
            got = play(setup, NAMED_STRATEGIES[profile[0]], NAMED_STRATEGIES[profile[1]])
            worst = max(worst, pair_error(got, max_entangled_classical(r, profile)))
    if worst > 1e-12:
        failures.append(f"max abs error {worst} > 1e-12")
    inertial = GameSetup(gamma=math.pi / 2, r=0.0)
    for profile, want in (("CC", (3.0, 3.0)), ("DD", (1.0, 1.0)), ("CD", (5.0, 0.0)), ("DC", (0.0, 5.0))):
        got = play(inertial, NAMED_STRATEGIES[profile[0]], NAMED_STRATEGIES[profile[1]])
        err = max(abs(got.alice - want[0]), abs(got.bob - want[1]))
        if err > 1e-12:
            failures.append(f"r=0 {profile}: got {tuple(got)}, want {want} (err {err})")
    report(2, f"maximally entangled closed forms incl. inertial limits (max err {worst:.3e})", failures)


def test_criterion_3_cooperation_curve_properties():
    failures = []
    setup = lambda r: GameSetup(gamma=math.pi / 2, r=r)
    fine = np.linspace(0.0, math.pi / 4, 60)
    values = [play(setup(float(r)), C, C).alice for r in fine]
    if not all(later < earlier for earlier, later in zip(values, values[1:])):
        failures.append("P_CC not strictly decreasing in r")
    if min(values) < 2.83:
        failures.append(f"min P_CC {min(values)} < 2.83")
    want = 1.0 + math.sqrt(2.0) / 2.0 + 0.5 + 5.0 / 8.0
    err = abs(play(setup(math.pi / 4), C, C).alice - want)
    if err > 1e-12:
        failures.append(f"P_CC(pi/4) error {err} > 1e-12")
    report(3, f"mutual-cooperation curve strictly decreasing, min {min(values):.6f} >= 2.83", failures)


def test_criterion_4_q_move_closed_forms():
    failures = []
    worst = 0.0
    for r in R_GRID:
        s = GameSetup(gamma=math.pi / 2, r=r)
        for alpha_b in (0.0, math.pi / 4):
            for theta_b in (0.0, math.pi / 2, math.pi):
                got = play(s, Q, Strategy(alpha_b, theta_b))
                worst = max(worst, pair_error(got, q_vs_arbitrary(r, alpha_b, theta_b)))
        identity_gap = abs(play(s, Q, D).bob - play(s, C, D).alice)
        worst = max(worst, identity_gap)
    if worst > 1e-12:
        failures.append(f"max abs error {worst} > 1e-12")
    report(4, f"phase-move closed forms and cross-identity (max err {worst:.3e})", failures)


def test_criterion_5_miracle_move_closed_forms():
    failures = []
    worst = 0.0
    for r in R_GRID:
        s = GameSetup(gamma=math.pi / 2, r=r)
        for reply, theta_b in (("C", 0.0), ("D", math.pi)):
            got = play(s, M, NAMED_STRATEGIES[reply])
            worst = max(worst, pair_error(got, miracle_vs_classical(r, theta_b)))
            if not got.alice < got.bob:
                failures.append(f"ordering violated at r={r}, reply {reply}")
    if worst > 1e-12:
        failures.append(f"max abs error {worst} > 1e-12")
    inertial = play(GameSetup(gamma=math.pi / 2, r=0.0), M, C)
    if max(abs(inertial.alice - 0.5), abs(inertial.bob - 3.0)) > 1e-12:
        failures.append(f"r=0 values {tuple(inertial)} != (0.5, 3)")
    report(5, f"miracle-move closed forms with strict player ordering (max err {worst:.3e})", failures)


def test_criterion_6_equilibrium_claims():
    failures = []
    start = time.perf_counter()
    classical = [C, D]

    inertial = payoff_table(GameSetup(gamma=0.0, r=0.0), classical)
    if find_nash(inertial) != [(1, 1)]:
        failures.append(f"inertial unentangled Nash set {find_nash(inertial)} != [(D,D)]")

    for r in R_GRID[1:-1]:
        table = payoff_table(GameSetup(gamma=0.0, r=r), classical)
        if find_dominant(table, "alice") != (1, "strict"):
            failures.append(f"defection not strictly dominant for Alice at r={r}")

    for r in R_GRID:
        table = payoff_table(GameSetup(gamma=math.pi / 2, r=r), classical)
        if find_dominant(table, "alice") != (0, "strict") or find_dominant(table, "bob") != (0, "strict"):
            failures.append(f"cooperation not strictly dominant for both at r={r}")
        if find_nash(table) != [(0, 0)]:
            failures.append(f"Nash set at gamma=pi/2, r={r} is {find_nash(table)}, not [(C,C)]")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report(6, f"dominance and Nash claims over the classical set ({elapsed * 1e3:.0f} ms)", failures)


def test_criterion_7_channel_properties():
    failures = []
    worst_trace = worst_herm = worst_r0 = 0.0
    for gamma in np.linspace(0.0, math.pi / 2, 20):
        state = initial_state(float(gamma))
        for r in np.linspace(0.0, math.pi / 4, 20):
            rho = unruh_channel(state, float(r))
            worst_trace = max(worst_trace, abs(float(np.real(np.trace(rho))) - 1.0))
            worst_herm = max(worst_herm, np.abs(rho - rho.conj().T).max())
        worst_r0 = max(worst_r0, np.abs(unruh_channel(state, 0.0) - np.outer(state, state.conj())).max())
    if worst_trace > 1e-12:
        failures.append(f"trace deviation {worst_trace} > 1e-12")
    if worst_herm > 1e-13:
        failures.append(f"Hermiticity deviation {worst_herm} > 1e-13")
    if worst_r0 > 1e-14:
        failures.append(f"r=0 identity deviation {worst_r0} > 1e-14")

    worst_form = 0.0
    for gamma, r in ((0.0, 0.1), (math.pi / 4, math.pi / 8), (math.pi / 2, math.pi / 4), (1.0, 0.5), (math.pi / 2, 0.0)):
        c, s = math.cos(gamma / 2), math.sin(gamma / 2)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = (math.cos(r) ** 2) * c * c
        want[1, 1] = c * c * math.sin(r) ** 2
        want[3, 3] = s * s
        want[0, 3] = -1j * math.cos(r) * c * s
        want[3, 0] = 1j * math.cos(r) * c * s
        worst_form = max(worst_form, np.abs(unruh_channel(initial_state(gamma), r) - want).max())
    if worst_form > 1e-13:
        failures.append(f"reduced-matrix closed form deviation {worst_form} > 1e-13")
    report(7, f"channel trace/Hermiticity/identity/closed-form properties (max {max(worst_trace, worst_herm, worst_form):.3e})", failures)


def test_criterion_8_discrepancy_report():
    failures = []
    result = subprocess.run(
        [sys.executable, "-m", "unruhpd", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if result.returncode != 0:
        failures.append(f"verify all exited {result.returncode}")
    markers = {
        "phase-move labeling note": ("U(0, pi/2)", "diag(i,-i)"),
        "quoted-value misprint note": ("(3,3/2)", "(3,1/2)"),
        "inertial inversion note": ("no explanation",),
        "mixed-pair commutator report": ("[J, CxD]", "[J, DxC]"),
    }
    for label, needles in markers.items():
        for needle in needles:
            if needle not in result.stdout:
                failures.append(f"missing {label} marker {needle!r}")
    report(8, "full verification run exits 0 and surfaces all documented discrepancies", failures)
