#!/usr/bin/env python3
"""Mutation gate: every committed source-text mutant must make one of its test files fail.

    python tools/mutants.py           # run every mutant
    python tools/mutants.py NAME ...  # run the named mutants
    python tools/mutants.py --list    # name each mutant and its tests, and check every `old` text

Each mutant replaces one text (`old`, which must occur exactly once in its
file) with another (`new`). The tool copies the repository to a temporary
directory, runs the mapped test files there once unmutated, and then, for
each mutant in turn, writes it, runs `pytest -x` on its test files and puts
the file back. pytest failing kills the mutant. It prints killed or survived
per mutant and killed/total at the end.

Exit codes: 0 when every mutant is killed or listed in `EQUIVALENT` with a
reason; 1 when one survives unexplained; 2 when a mutant's `old` text no
longer occurs exactly once, or the unmutated tests fail. `--list` runs no
test: it exits 2 and names the mutants whose `old` text is stale, else 0.
Needs only the standard library, and pytest and hypothesis for the tests it
runs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CLOSED_FORMS = "src/unruhpd/closed_forms.py"
CLOSED_FORM_TESTS = ("tests/test_closed_forms.py", "tests/test_api.py")
GAME = "src/unruhpd/game.py"
GAME_TESTS = ("tests/test_game.py",)
EQUILIBRIUM = "src/unruhpd/equilibrium.py"
EQUILIBRIUM_TESTS = ("tests/test_equilibrium.py",)
PAYOFF = "src/unruhpd/payoff.py"
KERNEL_TESTS = ("tests/test_engine.py", "tests/test_payoff.py", "tests/test_exact.py")
VERIFY_TESTS = ("tests/test_verify.py",)
IDENTITY_TESTS = ("tests/test_verify.py", "tests/test_identities.py")
UNRUH = "src/unruhpd/unruh.py"
UNRUH_TESTS = ("tests/test_unruh.py", "tests/test_linalg.py")
CLI = "src/unruhpd/cli.py"
CLI_TESTS = ("tests/test_cli.py",)

MUTANTS = [
    # Each closed form's formula: one term shifted so that a payoff moves by about 1e-11, above the tests' 1e-12
    # (a term inside `0.25 * (...)` by 4e-11).
    Mutant("closed form: a term of max_entangled_classical shifted", CLOSED_FORMS,
           "1.25 * m.sin(r) ** 2", "(1.25 * m.sin(r) ** 2 + 1e-11)", CLOSED_FORM_TESTS),
    Mutant("closed form: a term of unentangled_classical shifted", CLOSED_FORMS,
           "3.0 * sin_sq", "(3.0 * sin_sq + 1e-11)", CLOSED_FORM_TESTS),
    Mutant("closed form: a term of q_vs_arbitrary shifted", CLOSED_FORMS,
           "shared = 2.0 * cos_2a * (cos_t + 1.0)", "shared = 2.0 * cos_2a * (cos_t + 1.0) + 4e-11", CLOSED_FORM_TESTS),
    Mutant("closed form: a term of miracle_vs_classical shifted", CLOSED_FORMS,
           "7.0 * cos_sq * sin_t", "(7.0 * cos_sq * sin_t + 4e-11)", CLOSED_FORM_TESTS),
    # The same terms shifted by 1e-13 (a payoff by at least 1.8e-14, 80 eps), inside the 1e-12 tolerance: only the
    # rounding budget of `verify`'s suites and the exact identities tell them.
    Mutant("closed form: a term of max_entangled_classical shifted by 1e-13", CLOSED_FORMS,
           "1.25 * m.sin(r) ** 2", "(1.25 * m.sin(r) ** 2 + 1e-13)", IDENTITY_TESTS),
    Mutant("closed form: a term of unentangled_classical shifted by 1e-13", CLOSED_FORMS,
           "3.0 * sin_sq", "(3.0 * sin_sq + 1e-13)", IDENTITY_TESTS),
    Mutant("closed form: a term of q_vs_arbitrary shifted by 1e-13", CLOSED_FORMS,
           "shared = 2.0 * cos_2a * (cos_t + 1.0)", "shared = 2.0 * cos_2a * (cos_t + 1.0) + 1e-13", IDENTITY_TESTS),
    Mutant("closed form: a term of miracle_vs_classical shifted by 1e-13", CLOSED_FORMS,
           "7.0 * cos_sq * sin_t", "(7.0 * cos_sq * sin_t + 1e-13)", IDENTITY_TESTS),
    # closed_forms._domain: which r is an array, the guard of its conversion, the bound check and the clip.
    Mutant("domain: a 0-d array is an array", CLOSED_FORMS,
           "(isinstance(r, ndarray) and r.ndim)", "isinstance(r, ndarray)", CLOSED_FORM_TESTS),
    Mutant("domain: a list or tuple is a scalar", CLOSED_FORMS,
           "isinstance(r, (list, tuple)) or (", "(", CLOSED_FORM_TESTS),
    Mutant("domain: a ragged nesting escapes the guard", CLOSED_FORMS,
           "except ValueError:  # a ragged", "except TypeError:  # a ragged", CLOSED_FORM_TESTS),
    Mutant("domain: complex numbers take the real path", CLOSED_FORMS,
           'kind not in "biuf"', 'kind not in "biufc"', CLOSED_FORM_TESTS),
    Mutant("domain: elements are read after numpy's conversion", CLOSED_FORMS,
           "np.asarray(r, dtype=object).flat", "values.flat", CLOSED_FORM_TESTS),
    Mutant("domain: no lower bound", CLOSED_FORMS,
           "~((values >= -EDGE_SLACK) & (values", "~((values", CLOSED_FORM_TESTS),
    Mutant("domain: twice the upper slack", CLOSED_FORMS,
           "values <= R_MAX + EDGE_SLACK", "values <= R_MAX + 2 * EDGE_SLACK", CLOSED_FORM_TESTS),
    Mutant("domain: the refusal names no element", CLOSED_FORMS,
           "validate_r(values[outside].flat[0])", "validate_r(math.nan)", CLOSED_FORM_TESTS),
    Mutant("domain: no clip", CLOSED_FORMS,
           "np.clip(values, 0.0, R_MAX, dtype=float)", "values.astype(float)", CLOSED_FORM_TESTS),
    Mutant("domain: the clip keeps a float32 array's precision", CLOSED_FORMS,
           "np.clip(values, 0.0, R_MAX, dtype=float)", "np.clip(values, 0.0, R_MAX)", CLOSED_FORM_TESTS),
    # equilibrium._search_grid: built once, its products read-only, alpha along the rows.
    Mutant("grid: rebuilt on every call", EQUILIBRIUM,
           "@functools.cache\ndef _search_grid", "def _search_grid", EQUILIBRIUM_TESTS),
    Mutant("grid: writable", EQUILIBRIUM, "    products.setflags(write=False)\n", "", EQUILIBRIUM_TESTS),
    Mutant("grid: alpha and theta axes swapped", EQUILIBRIUM,
           "for alpha in alphas for theta in thetas]", "for theta in thetas for alpha in alphas]", EQUILIBRIUM_TESTS),
    Mutant("grid: descent steps swapped", EQUILIBRIUM,
           "step_a, step_t = alphas[1], thetas[1]", "step_a, step_t = thetas[1], alphas[1]", EQUILIBRIUM_TESTS),
    # The margin that equilibrium._candidates and the descent's prune share, its floor for subnormal tables, and the
    # first maximum among the grid's candidates.
    Mutant("margin: no 1e-300 floor", EQUILIBRIUM,
           "delta = 1e-10 * weight + 1e-300", "delta = 1e-10 * weight", EQUILIBRIUM_TESTS),
    Mutant("margin: none", EQUILIBRIUM,
           "delta = 1e-10 * weight + 1e-300", "delta = 0.0", EQUILIBRIUM_TESTS),
    Mutant("margin: back at 1e-9", EQUILIBRIUM,
           "delta = 1e-10 * weight + 1e-300", "delta = 1e-9 * weight + 1e-300", EQUILIBRIUM_TESTS),
    Mutant("prefilter: the last maximum among the candidates", EQUILIBRIUM,
           "if value > best_value:  # the first maximum", "if value >= best_value:  # the first maximum",
           EQUILIBRIUM_TESTS),
    # The descent's prune: a step is scored only where the form is at least best_value - delta.
    Mutant("prune: the margin added instead of subtracted", EQUILIBRIUM,
           "< best_value - delta):", "< best_value + delta):", EQUILIBRIUM_TESTS),
    Mutant("prune: no 1e-300 floor", EQUILIBRIUM,
           "< best_value - delta):", "< best_value - 1e-10 * weight):", EQUILIBRIUM_TESTS),
    Mutant("prune: the comparison reversed", EQUILIBRIUM,
           "< best_value - delta):", ">= best_value - delta):", EQUILIBRIUM_TESTS),
    Mutant("descent: alpha clamped to [0, 2*pi], not wrapped", EQUILIBRIUM,
           "alpha, theta = (best_alpha + step) % TWO_PI,", "alpha, theta = min(max(best_alpha + step, 0.0), TWO_PI),",
           EQUILIBRIUM_TESTS),
    # The descent's kept trig: recomputed where alpha wraps from 2*pi to 0, renewed by each accepted step, and
    # Q's exact entries where a step lands on (pi/2, 0).
    Mutant("descent: a theta step reuses the trig of the unwrapped alpha", EQUILIBRIUM,
           "if alpha != best_alpha:", "if False:", EQUILIBRIUM_TESTS),
    Mutant("descent: an accepted step keeps the stale trig", EQUILIBRIUM,
           "cos_a, sin_a = c, s\n                else:\n                    cos_t, sin_t = c, s",
           "pass\n                else:\n                    pass", EQUILIBRIUM_TESTS),
    Mutant("descent: Q's exact entries lost", EQUILIBRIUM,
           "if theta == 0.0 and alpha == _Q_ALPHA:", "if False:", EQUILIBRIUM_TESTS),
    # payoff._reply_scorer, the search's scorer: operand order, weight column, the four-term sum and the trig of r.
    Mutant("scorer: Bob's operands in Alice's order", PAYOFF,
           "else _probabilities(opponent, own,", "else _probabilities(own, opponent,", EQUILIBRIUM_TESTS),
    Mutant("scorer: the other player's weight column", PAYOFF,
           "(pair[player] for pair", "(pair[1 - player] for pair", EQUILIBRIUM_TESTS),
    Mutant("scorer: dd term dropped", PAYOFF, " + p_dd * w_dd", "", EQUILIBRIUM_TESTS),
    Mutant("scorer: cos(r) of the half angle", PAYOFF,
           "math.sin(half), math.cos(r), math.sin(r))", "math.sin(half), math.cos(r / 2.0), math.sin(r))",
           EQUILIBRIUM_TESTS),
    # verify.run_suite's cap on the grid.
    Mutant("verify: the grid cap numpy refuses", "src/unruhpd/verify.py",
           "MAX_GRID = sys.maxsize // 8 - 64", "MAX_GRID = sys.maxsize // 8", VERIFY_TESTS),
    # The kernel: one flipped sign and one dropped term; its coefficients: M's sign flipped, e and f swapped.
    Mutant("kernel: the T term of CD's kept amplitude sign flipped", PAYOFF,
           "M * a0b1 + T * a1b3", "M * a0b1 - T * a1b3", KERNEL_TESTS),
    Mutant("kernel: the e term dropped from DC's lost amplitude", PAYOFF,
           "lr, li = e * a1b1 + f * v, f * u", "lr, li = f * v, f * u", KERNEL_TESTS),
    Mutant("coefficients: M's sign flipped", PAYOFF, "q + s2, q - s2,", "q + s2, s2 - q,", KERNEL_TESTS),
    Mutant("coefficients: e and f swapped", PAYOFF,
           "cos_g * c1, sin_g * c1", "sin_g * c1, cos_g * c1", KERNEL_TESTS),
    # The channel: Rindler-mode amplitudes of Bob's |0> swapped; region I traced in place of region II; the
    # conjugate dropped from M M^dag; the norm check that a NaN or inf entry passes, and a norm that reads inf as nan.
    Mutant("channel: cos(r) and sin(r) swapped", UNRUH,
           "[math.cos(r), 0.0, 0.0, math.sin(r)]", "[math.sin(r), 0.0, 0.0, math.cos(r)]", UNRUH_TESTS),
    Mutant("channel: region I traced out", UNRUH,
           "m = expanded.reshape(4, 2)", "m = expanded.reshape(2, 2, 2).transpose(0, 2, 1).reshape(4, 2)", UNRUH_TESTS),
    Mutant("channel: M M^T in place of M M^dag", UNRUH, "return m @ m.conj().T", "return m @ m.T", UNRUH_TESTS),
    Mutant("channel: a non-finite state passes the norm check", UNRUH,
           "if not abs(norm_sq - 1.0) <= NORM_TOL:", "if abs(norm_sq - 1.0) > NORM_TOL:", UNRUH_TESTS),
    Mutant("channel: the squared norm as vdot(state, state)", UNRUH,
           "float(np.vdot(state.real, state.real)) + float(np.vdot(state.imag, state.imag))",
           "float(np.real(np.vdot(state, state)))", UNRUH_TESTS),
    # The reference's 4x4 check: a non-finite entry passes.
    Mutant("reference: a non-finite density matrix passes", PAYOFF,
           "if not np.isfinite(rho).all():", "if False:", ("tests/test_payoff.py",)),
    # The clamp: a value just below 0 is inside the slack.
    Mutant("clamp: the lower slack's sign flipped", GAME, "value < -EDGE_SLACK", "value < EDGE_SLACK", GAME_TESTS),
    # A Strategy's coordinates: Q's are diag(i, -i) exactly, not the rounded coordinates of its angles (pi/2, 0).
    Mutant("strategy: Q's coordinates from its angles", GAME,
           "    if theta == 0.0 and alpha == _Q_ALPHA:\n        return _Q_ENTRIES\n", "", GAME_TESTS),
    # An unpickled Strategy is built through `__init__`, not from the pickled state as written.
    Mutant("strategy: unpickled from its state as written", GAME,
           'self.__init__(state["alpha"], state["theta"])', "self.__dict__.update(state)", GAME_TESTS),
    # A Strategy's name comes from its angles: a named move written as angles prints as that move.
    Mutant("strategy: a named move's angles print as custom", GAME,
           "return _NAMES.get((self.alpha, self.theta)) or",
           "return next((k for k, v in NAMED_STRATEGIES.items() if v is self), None) or", GAME_TESTS),
    # Record types declare only what their constructors take: a Strategy's coordinates are no field, a table's
    # defaults live in its `__init__` only, and an outcome always says where its worst deviation was.
    Mutant("strategy: the coordinates declared as a field", GAME,
           "    theta: float\n\n",
           '    theta: float\n    q: tuple = __import__("dataclasses").field(init=False, repr=False, compare=False)\n\n',
           GAME_TESTS),
    Mutant("table: a class-body default that disagrees with __init__", PAYOFF,
           "    dd: tuple[float, float]\n", "    dd: tuple[float, float] = (1.0, 2.0)\n", ("tests/test_payoff.py",)),
    Mutant("verify: worst_at optional", "src/unruhpd/verify.py",
           "    worst_at: WorstAt\n", "    worst_at: WorstAt | None = None\n", VERIFY_TESTS),
    # The solution concepts: a gap of exactly DEVIATION_TOL is a tie, and the Pareto front's tie tolerance.
    Mutant("dominant: a gap at the tolerance is strict", EQUILIBRIUM,
           "if not any(gap <= DEVIATION_TOL for gap in gaps)", "if not any(gap < DEVIATION_TOL for gap in gaps)",
           EQUILIBRIUM_TESTS),
    Mutant("pareto: no tie tolerance", EQUILIBRIUM,
           "no_worse = qa >= pa - DEVIATION_TOL and qb >= pb - DEVIATION_TOL", "no_worse = qa >= pa and qb >= pb",
           EQUILIBRIUM_TESTS),
    # The guards on the table functions' input: the strategy set read once and each cell finite.
    Mutant("strategy set: an iterator read twice", EQUILIBRIUM,
           "strategies = list(strategies or ())", "strategies = strategies or ()", EQUILIBRIUM_TESTS),
    Mutant("strategy set: duplicates found by identity, not equality", EQUILIBRIUM,
           "if s in seen:", "if any(s is t for t in seen):", EQUILIBRIUM_TESTS),
    Mutant("table cells: a non-finite number passes", EQUILIBRIUM,
           "isinstance(v, numbers.Real) and is_finite(v)", "isinstance(v, numbers.Real)", EQUILIBRIUM_TESTS),
    # verify's pass/fail: a NaN deviation after a finite one must be the worst.
    Mutant("verify: a later NaN is not the worst", "src/unruhpd/verify.py",
           " or (math.isnan(value) and not math.isnan(worst))", "", VERIFY_TESTS),
    # The CLI validators of sweep's grid.
    Mutant("cli: one sweep step accepted", CLI,
           "    if args.steps < 2:\n        raise ValueError(\"--steps must be at least 2\")\n    if args.r_start",
           "    if args.steps < 1:\n        raise ValueError(\"--steps must be at least 2\")\n    if args.r_start", CLI_TESTS),
    Mutant("cli: a reversed r range accepted", CLI,
           "if args.r_start > args.r_end:", "if args.r_start > args.r_end + 1.0:", CLI_TESTS),
    # The CLI's number text and its --config reader.
    Mutant("cli: fmt at 16 significant digits", CLI, 'return f"{value:.17g}"', 'return f"{value:.16g}"', CLI_TESTS),
    Mutant("cli: --config comments not stripped", CLI,
           'line = raw.split("#", 1)[0].strip()', "line = raw.strip()", CLI_TESTS),
]

# Mutant name -> why no test can tell it from the original.
EQUIVALENT: dict[str, str] = {}


def stale(mutants: list[Mutant]) -> list[str]:
    """The mutants whose `old` text does not occur exactly once in their file."""
    return [m.name for m in mutants if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]


def run_tests(copy: Path, tests: tuple[str, ...]) -> bool:
    """True when `pytest -x` passes on `tests` in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    result = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return result.returncode == 0


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.path} -> {' '.join(m.tests)}")
        if bad := stale(MUTANTS):
            print(f"old text not found exactly once: {'; '.join(bad)}", file=sys.stderr)
            return 2
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if bad := stale(chosen):
        print(f"old text not found exactly once: {'; '.join(bad)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out")
        shutil.copytree(ROOT, copy, ignore=ignore)
        baseline = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        if not run_tests(copy, baseline):
            print(f"the unmutated tests fail: {' '.join(baseline)}", file=sys.stderr)
            return 2
        killed, unexplained = 0, []
        for m in chosen:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                survived = run_tests(copy, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if not survived:
                killed += 1
                print(f"killed    {m.name}")
            elif m.name in EQUIVALENT:
                print(f"survived  {m.name} (equivalent: {EQUIVALENT[m.name]})")
            else:
                unexplained.append(m.name)
                print(f"SURVIVED  {m.name}")
    print(f"killed {killed}/{len(chosen)}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
