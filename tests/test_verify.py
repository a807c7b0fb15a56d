"""Verification-suite plumbing: pass/fail logic and discrepancy notes."""

import dataclasses
import math
import sys

import numpy as np
import pytest

import unruhpd.verify
from unruhpd import closed_forms
from unruhpd.closed_forms import CLASSICAL_PROFILES, max_entangled_classical
from unruhpd.game import NAMED_STRATEGIES
from unruhpd.payoff import Payoffs, PayoffTable, play_entries
from unruhpd.unruh import R_MAX
from unruhpd.verify import (
    DEFAULT_TOL,
    MAX_GRID,
    NOTE_EQ13_ORDERING,
    SUITE_NAMES,
    VerifyOutcome,
    WorstAt,
    _worst,
    run_suite,
)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_passes_at_default_tolerance(suite):
    outcome = run_suite(suite)
    assert outcome.passed
    assert outcome.max_abs_error <= 1e-12
    assert outcome.suite == suite
    assert outcome.points_checked > 0


def test_grid_sizes_scale_point_counts():
    assert run_suite("table2", grid=9).points_checked == 36
    assert run_suite("table2", grid=5).points_checked == 20
    assert run_suite("eq8", grid=9).points_checked == 36
    # Six moves plus one cross-identity per grid point.
    assert run_suite("eq11", grid=9).points_checked == 63
    assert run_suite("eq13", grid=9).points_checked == 18
    assert run_suite("commutators").points_checked == 4


def test_quoted_value_misprint_note_present():
    notes = " ".join(run_suite("table2").discrepancy_notes)
    assert "(3,3/2)" in notes
    assert "(3,1/2)" in notes


def test_q_move_labeling_note_present():
    notes = " ".join(run_suite("eq11").discrepancy_notes)
    assert "diag(i,-i)" in notes
    assert "U(0, pi/2)" in notes


def test_inversion_note_present():
    notes = " ".join(run_suite("eq13").discrepancy_notes)
    assert "no explanation" in notes
    assert "(1/2, 3)" in notes


def test_commutator_note_reports_mixed_pairs():
    outcome = run_suite("commutators")
    notes = " ".join(outcome.discrepancy_notes)
    assert "[J, CxD]" in notes
    assert "[J, DxC]" in notes
    # Same-move pairs commute and are the pass metric; mixed pairs are large
    # but only reported.
    assert outcome.max_abs_error <= 1e-12
    assert "1.414" in notes


def test_unachievable_tolerance_fails_cleanly():
    outcome = run_suite("table2", tol=1e-17)
    assert not outcome.passed
    assert outcome.max_abs_error > 1e-17


def test_argument_validation():
    # "all" is the CLI's word for every suite; run_suite runs one.
    for name in ("bogus", "all"):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite(name)
    with pytest.raises(ValueError):
        run_suite("table2", grid=2)
    with pytest.raises(ValueError):
        run_suite("commutators", grid=2)
    with pytest.raises(ValueError):
        run_suite("table2", grid=3.5)
    with pytest.raises(ValueError, match="grid must be an integer"):
        run_suite("table2", grid="9")
    with pytest.raises(ValueError, match="grid must be an integer"):
        run_suite("table2", grid=np.int64(2))
    with pytest.raises(ValueError):
        run_suite("table2", tol=0.0)
    with pytest.raises(ValueError):
        run_suite("table2", tol="1e-12")
    # Any integral type counts as an integer grid, numpy's too.
    assert run_suite("table2", grid=np.int64(5)) == run_suite("table2", grid=5)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-12])
def test_non_finite_or_negative_tolerance_is_rejected(tol):
    for name in SUITE_NAMES:
        with pytest.raises(ValueError):
            run_suite(name, tol=tol)


def test_worst_at_locates_the_largest_deviation():
    outcome = run_suite("eq8", grid=101)
    at = outcome.worst_at
    assert at.suite == "eq8"
    assert at.label in CLASSICAL_PROFILES
    assert at.player in ("alice", "bob")
    assert at.r in np.linspace(0.0, R_MAX, 101).tolist()
    # Re-score that one point as the suite does: the deviation there is the maximum.
    rs = np.array([at.r])
    moves = [NAMED_STRATEGIES[label].q for label in at.label]
    engine = [values[0] for values in play_entries(math.pi / 2, rs, *moves, PayoffTable())]
    formula = max_entangled_classical(rs, at.label)
    column = ("alice", "bob").index(at.player)
    assert abs(engine[column] - formula[column][0]) == outcome.max_abs_error


def test_worst_at_is_set_by_every_suite():
    for name in SUITE_NAMES:
        at = run_suite(name).worst_at
        assert isinstance(at, WorstAt)
        assert at.suite == name
    assert run_suite("commutators").worst_at.label in ("CC", "DD")
    assert run_suite("eq11").worst_at.r is not None


def test_an_outcome_cannot_be_built_without_where_its_worst_deviation_was():
    for f in dataclasses.fields(VerifyOutcome):
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    with pytest.raises(TypeError, match="worst_at"):
        VerifyOutcome("eq8", 1, 0.0, [], True)


def test_non_finite_engine_values_fail_the_suite(monkeypatch):
    def nan_engine(*args, **kwargs):
        return Payoffs(*(np.full_like(v, np.nan) for v in play_entries(*args, **kwargs)))

    monkeypatch.setattr(unruhpd.verify, "play_entries", nan_engine)
    outcome = run_suite("table2")
    assert not outcome.passed
    assert math.isnan(outcome.max_abs_error)
    assert outcome.worst_at.label == "CC"


def test_a_nan_deviation_after_a_finite_one_is_the_worst():
    rs = np.array([0.0, 0.5])
    finite = ("finite", ("alice",), np.array([[1.0], [2.0]]), np.zeros((2, 1)))
    nan = ("nan", ("bob",), np.array([[0.0], [np.nan]]), np.zeros((2, 1)))
    worst, at = _worst("table2", rs, [finite, nan])
    assert math.isnan(worst)
    assert at == WorstAt("table2", "nan", 0.5, "bob")


def test_a_failure_note_fails_a_suite_without_any_deviation(monkeypatch):
    # Swapping the players in the engine and in the closed form alike leaves every
    # deviation as it was, but puts the miracle player above the classical reply.
    def swapped(fn):
        return lambda *args, **kwargs: tuple(fn(*args, **kwargs))[::-1]

    monkeypatch.setattr(unruhpd.verify, "play_entries", swapped(play_entries))
    monkeypatch.setattr(closed_forms, "miracle_vs_classical", swapped(closed_forms.miracle_vs_classical))
    outcome = run_suite("eq13")
    assert outcome.max_abs_error <= DEFAULT_TOL
    assert not outcome.passed
    assert NOTE_EQ13_ORDERING in outcome.discrepancy_notes


def test_every_grid_above_the_cap_is_refused_with_the_grid_message():
    # The cap was sys.maxsize // 8, and numpy's linspace refused the top 64 grids up to it with its "array is too big".
    band = range(sys.maxsize // 8 - 63, sys.maxsize // 8 + 2)
    assert band[0] == MAX_GRID + 1
    for grid in [*band, 2**61, sys.maxsize]:
        with pytest.raises(ValueError, match="^grid must be an integer of at least 3 and at most"):
            run_suite("eq8", grid)


def test_the_largest_grid_reaches_numpy_and_is_refused_for_memory():
    # No array of 2**60 floats fits this machine: numpy refuses it with MemoryError, not with a ValueError of its own.
    with pytest.raises(MemoryError):
        run_suite("eq8", MAX_GRID)


@pytest.mark.parametrize("grid", [3, 5, 9, 17, 101, 1001, 4099, 10007])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_stays_within_its_rounding_budget(suite, grid):
    # The engine and the closed forms round differently, by at most 16 eps (eq8, eq11) on these grids, and the
    # commutators by 0.39 eps: the budgets leave 4x for other numpy builds. A closed-form term shifted by 1e-13,
    # far inside the 1e-12 tolerance, is far outside them.
    budget = (4 if suite == "commutators" else 64) * sys.float_info.epsilon
    assert run_suite(suite, grid=grid).max_abs_error <= budget
