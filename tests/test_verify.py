"""Verification-suite plumbing: pass/fail logic and discrepancy notes."""

import pytest

from unruhpd.verify import SUITE_NAMES, run_suite


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
        run_suite("table2", tol=0.0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-12])
def test_non_finite_or_negative_tolerance_is_rejected(tol):
    with pytest.raises(ValueError):
        run_suite("table2", tol=tol)
    with pytest.raises(ValueError):
        run_suite("all", tol=tol)
