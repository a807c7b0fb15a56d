"""Verification-suite plumbing: pass/fail logic and discrepancy notes."""

import math

import numpy as np
import pytest

import unruhpd.verify
from unruhpd.closed_forms import CLASSICAL_PROFILES, max_entangled_classical
from unruhpd.game import NAMED_STRATEGIES, move_entries
from unruhpd.payoff import Payoffs, PayoffTable, play_entries
from unruhpd.unruh import R_MAX
from unruhpd.verify import SUITE_NAMES, WorstAt, run_suite


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


def test_all_aggregates_every_suite():
    combined = run_suite("all")
    parts = [run_suite(name) for name in SUITE_NAMES]
    assert combined.suite == "all"
    assert combined.passed
    assert combined.points_checked == sum(p.points_checked for p in parts)
    assert combined.max_abs_error == max(p.max_abs_error for p in parts)
    for part in parts:
        for note in part.discrepancy_notes:
            assert note in combined.discrepancy_notes


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
    with pytest.raises(ValueError):
        run_suite("bogus")
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
    with pytest.raises(ValueError):
        run_suite("table2", tol=tol)
    with pytest.raises(ValueError):
        run_suite("all", tol=tol)


def test_worst_at_locates_the_largest_deviation():
    outcome = run_suite("eq8", grid=101)
    at = outcome.worst_at
    assert at.suite == "eq8"
    assert at.label in CLASSICAL_PROFILES
    assert at.player in ("alice", "bob")
    assert at.r in np.linspace(0.0, R_MAX, 101).tolist()
    # Re-score that one point as the suite does: the deviation there is the maximum.
    rs = np.array([at.r])
    moves = [move_entries(NAMED_STRATEGIES[label]) for label in at.label]
    engine = [values[0] for values in play_entries(math.pi / 2, rs, *moves, PayoffTable())]
    formula = max_entangled_classical(rs, at.label)
    column = ("alice", "bob").index(at.player)
    assert abs(engine[column] - formula[column][0]) == outcome.max_abs_error


def test_worst_at_of_all_is_the_worst_suite():
    combined = run_suite("all")
    parts = [run_suite(name) for name in SUITE_NAMES]
    worst = max(parts, key=lambda p: p.max_abs_error)
    assert combined.worst_at == worst.worst_at
    assert combined.worst_at.suite == worst.suite


def test_worst_at_is_set_by_every_suite():
    for name in SUITE_NAMES:
        at = run_suite(name).worst_at
        assert isinstance(at, WorstAt)
        assert at.suite == name
    assert run_suite("commutators").worst_at.label in ("CC", "DD")
    assert run_suite("eq11").worst_at.r is not None


def test_non_finite_engine_values_fail_the_suite(monkeypatch):
    def nan_engine(*args, **kwargs):
        return Payoffs(*(np.full_like(v, np.nan) for v in play_entries(*args, **kwargs)))

    monkeypatch.setattr(unruhpd.verify, "play_entries", nan_engine)
    outcome = run_suite("table2")
    assert not outcome.passed
    assert math.isnan(outcome.max_abs_error)
    assert outcome.worst_at.label == "CC"
