#!/usr/bin/env python3
"""Mutation gate: every committed source-text mutant must make one of its test files fail.

    python tools/mutants.py           # run every mutant
    python tools/mutants.py NAME ...  # run the named mutants
    python tools/mutants.py --list    # name each mutant and its tests

Each mutant replaces one text (`old`, which must occur exactly once in its
file) with another (`new`). The tool copies the repository to a temporary
directory, runs the mapped test files there once unmutated, and then, for
each mutant in turn, writes it, runs `pytest -x` on its test files and puts
the file back. pytest failing kills the mutant. It prints killed or survived
per mutant and killed/total at the end.

Exit codes: 0 when every mutant is killed or listed in `EQUIVALENT` with a
reason; 1 when one survives unexplained; 2 when a mutant's `old` text no
longer occurs exactly once, or the unmutated tests fail. Needs only the
standard library, and pytest and hypothesis for the tests it runs.
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
EQUILIBRIUM = "src/unruhpd/equilibrium.py"
EQUILIBRIUM_TESTS = ("tests/test_equilibrium.py",)
PAYOFF = "src/unruhpd/payoff.py"
KERNEL_TESTS = ("tests/test_engine.py", "tests/test_payoff.py", "tests/test_exact.py")
CLI = "src/unruhpd/cli.py"
CLI_TESTS = ("tests/test_cli.py",)

MUTANTS = [
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
    # equilibrium._search_grid: built once, read-only, alpha along the rows.
    Mutant("grid: rebuilt on every call", EQUILIBRIUM,
           "@functools.cache\ndef _search_grid", "def _search_grid", EQUILIBRIUM_TESTS),
    Mutant("grid: writable", EQUILIBRIUM, "    entries.setflags(write=False)\n", "", EQUILIBRIUM_TESTS),
    Mutant("grid: alpha and theta axes swapped", EQUILIBRIUM,
           "for theta in thetas] for alpha in alphas]", "for alpha in alphas] for theta in thetas]",
           EQUILIBRIUM_TESTS),
    Mutant("grid: descent steps swapped", EQUILIBRIUM,
           "step_a, step_t = alphas[1], thetas[1]", "step_a, step_t = thetas[1], alphas[1]", EQUILIBRIUM_TESTS),
    # equilibrium._candidates and the grid's scoring: the margin, its floor for subnormal tables, the first maximum.
    Mutant("prefilter: no 1e-300 floor", EQUILIBRIUM,
           "delta = 1e-9 * weight + 1e-300", "delta = 1e-9 * weight", EQUILIBRIUM_TESTS),
    Mutant("prefilter: no margin", EQUILIBRIUM,
           "delta = 1e-9 * weight + 1e-300", "delta = 0.0", EQUILIBRIUM_TESTS),
    Mutant("prefilter: the last maximum among few candidates", EQUILIBRIUM,
           "if value > best_value:  # the first maximum", "if value >= best_value:  # the first maximum",
           EQUILIBRIUM_TESTS),
    Mutant("descent: the grid's best point not marked as scored", EQUILIBRIUM,
           "seen = {complex(best_alpha, best_theta)}", "seen = set()", EQUILIBRIUM_TESTS),
    # payoff._reply_scorer, the search's scorer: operand order, weight column, the four-term sum and the trig of r.
    Mutant("scorer: Bob's operands in Alice's order", PAYOFF,
           "else _probabilities(opponent, own,", "else _probabilities(own, opponent,", EQUILIBRIUM_TESTS),
    Mutant("scorer: the other player's weight column", PAYOFF,
           "(pair[player] for pair", "(pair[1 - player] for pair", EQUILIBRIUM_TESTS),
    Mutant("scorer: dd term dropped", PAYOFF, " + p_dd * w_dd", "", EQUILIBRIUM_TESTS),
    Mutant("scorer: cos(r) of the half angle", PAYOFF,
           "    cos_r, sin_r = math.cos(r), math.sin(r)\n    w_cc",
           "    cos_r, sin_r = math.cos(r / 2.0), math.sin(r)\n    w_cc", EQUILIBRIUM_TESTS),
    # verify.run_suite's cap on the grid.
    Mutant("verify: the grid cap numpy refuses", "src/unruhpd/verify.py",
           "MAX_GRID = sys.maxsize // 8 - 64", "MAX_GRID = sys.maxsize // 8", ("tests/test_verify.py",)),
    # The kernel: one flipped sign and one dropped term.
    Mutant("kernel: k01i sign flipped", PAYOFF,
           "c0 * a0b1 + sin_g * a1b3", "c0 * a0b1 - sin_g * a1b3", KERNEL_TESTS),
    Mutant("kernel: l10r dropped from the DC line", PAYOFF,
           "lr, li = cos_g * l10r - sin_g * l01i, sin_g * l01r", "lr, li = -sin_g * l01i, sin_g * l01r",
           KERNEL_TESTS),
    # The channel: Rindler-mode amplitudes of Bob's |0> swapped.
    Mutant("channel: cos(r) and sin(r) swapped", "src/unruhpd/unruh.py",
           "[math.cos(r), 0.0, 0.0, math.sin(r)]", "[math.sin(r), 0.0, 0.0, math.cos(r)]", ("tests/test_unruh.py",)),
    # The clamp: a value just below 0 is inside the slack.
    Mutant("clamp: the lower slack's sign flipped", "src/unruhpd/game.py",
           "value < -EDGE_SLACK", "value < EDGE_SLACK", ("tests/test_game.py",)),
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
    Mutant("table cells: a non-finite number passes", EQUILIBRIUM,
           "isinstance(v, numbers.Real) and is_finite(v)", "isinstance(v, numbers.Real)", EQUILIBRIUM_TESTS),
    # verify's pass/fail: a NaN deviation after a finite one must be the worst.
    Mutant("verify: a later NaN is not the worst", "src/unruhpd/verify.py",
           " or (math.isnan(value) and not math.isnan(worst))", "", ("tests/test_verify.py",)),
    # The CLI validators of sweep's grid.
    Mutant("cli: one sweep step accepted", CLI,
           "    if args.steps < 2:\n        raise ValueError(\"--steps must be at least 2\")\n    if args.r_start",
           "    if args.steps < 1:\n        raise ValueError(\"--steps must be at least 2\")\n    if args.r_start", CLI_TESTS),
    Mutant("cli: a reversed r range accepted", CLI,
           "if args.r_start > args.r_end:", "if args.r_start > args.r_end + 1.0:", CLI_TESTS),
]

# Mutant name -> why no test can tell it from the original.
EQUIVALENT: dict[str, str] = {
    "descent: the grid's best point not marked as scored": (
        "rescoring a point gives the value it had, which never beats the current best, so only the work changes"
    ),
}


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
