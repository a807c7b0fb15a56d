"""Frozen spot values for the analytic payoff formulas."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hostile
from unruhpd.game import EDGE_SLACK
from unruhpd.unruh import R_MAX, validate_r

from unruhpd.closed_forms import (
    CLASSICAL_PROFILES,
    _domain,
    max_entangled_classical,
    miracle_vs_classical,
    q_vs_arbitrary,
    unentangled_classical,
)

R_GRID = [0.0, math.pi / 16, math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 5, math.pi / 4.5, math.pi / 4.2, math.pi / 4]


def close(pair, want, tol=1e-12):
    return abs(pair.alice - want[0]) <= tol and abs(pair.bob - want[1]) <= tol


def test_profiles_constant():
    assert CLASSICAL_PROFILES == ("CC", "CD", "DC", "DD")


def test_unentangled_inertial_limit_is_classical():
    assert close(unentangled_classical(0.0, "CC"), (3.0, 3.0))
    assert close(unentangled_classical(0.0, "CD"), (0.0, 5.0))
    assert close(unentangled_classical(0.0, "DC"), (5.0, 0.0))
    assert close(unentangled_classical(0.0, "DD"), (1.0, 1.0))


def test_unentangled_infinite_acceleration_values():
    r = math.pi / 4
    assert close(unentangled_classical(r, "CC"), (1.5, 4.0))
    assert close(unentangled_classical(r, "CD"), (1.5, 4.0))
    # The quoted prose value (3, 3/2) is a misprint; the formulas give (3, 1/2).
    assert close(unentangled_classical(r, "DC"), (3.0, 0.5))
    assert close(unentangled_classical(r, "DD"), (3.0, 0.5))


def test_unentangled_interior_point():
    assert close(unentangled_classical(math.pi / 6, "DC"), (4.0, 0.25))


@pytest.mark.parametrize("r", R_GRID)
def test_unentangled_general_shapes(r):
    assert close(unentangled_classical(r, "CC"), (3.0 * math.cos(r) ** 2, 4.0 - math.cos(2 * r)))
    assert close(unentangled_classical(r, "CD"), (3.0 * math.sin(r) ** 2, 4.0 + math.cos(2 * r)))
    assert close(unentangled_classical(r, "DC"), (3.0 + 2.0 * math.cos(2 * r), math.sin(r) ** 2))
    assert close(unentangled_classical(r, "DD"), (3.0 - 2.0 * math.cos(2 * r), math.cos(r) ** 2))


def test_max_entangled_inertial_limit():
    assert close(max_entangled_classical(0.0, "CC"), (3.0, 3.0))
    assert close(max_entangled_classical(0.0, "DD"), (1.0, 1.0))
    # Cross profiles swap outcomes relative to the unentangled game at r = 0.
    assert close(max_entangled_classical(0.0, "CD"), (5.0, 0.0))
    assert close(max_entangled_classical(0.0, "DC"), (0.0, 5.0))


def test_max_entangled_infinite_acceleration_values():
    r = math.pi / 4
    v = 1.0 + math.sqrt(2.0) / 2.0 + 0.5 + 5.0 / 8.0
    assert close(max_entangled_classical(r, "CC"), (v, v))
    w = (17.0 - 4.0 * math.sqrt(2.0)) / 8.0
    assert close(max_entangled_classical(r, "DD"), (w, w))


@pytest.mark.parametrize("r", R_GRID)
def test_max_entangled_cross_symmetry(r):
    cd = max_entangled_classical(r, "CD")
    dc = max_entangled_classical(r, "DC")
    assert abs(cd.alice - dc.bob) <= 1e-12
    assert abs(cd.bob - dc.alice) <= 1e-12


def test_max_entangled_cooperation_strictly_decreasing():
    values = [max_entangled_classical(r, "CC").alice for r in np.linspace(0.0, math.pi / 4, 25)]
    for earlier, later in zip(values, values[1:]):
        assert later < earlier


def test_q_move_oracle_spot_values():
    assert close(q_vs_arbitrary(0.0, 0.0, 0.0), (1.0, 1.0))
    assert close(q_vs_arbitrary(0.0, 0.0, math.pi), (0.0, 5.0))


@pytest.mark.parametrize("r", R_GRID)
def test_q_vs_defect_equals_cooperate_vs_defect_for_the_other_player(r):
    assert abs(q_vs_arbitrary(r, 0.0, math.pi).bob - max_entangled_classical(r, "CD").alice) <= 1e-12


def test_miracle_oracle_inertial_point():
    # Both classical replies give (1/2, 3) at r = 0; no explanation is
    # offered in the original account for this player inversion.
    assert close(miracle_vs_classical(0.0, 0.0), (0.5, 3.0))
    assert close(miracle_vs_classical(0.0, math.pi), (0.5, 3.0))


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("theta_b", [0.0, math.pi])
def test_miracle_player_always_behind(r, theta_b):
    result = miracle_vs_classical(r, theta_b)
    assert result.alice < result.bob


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        unentangled_classical(0.1, "CQ")
    with pytest.raises(ValueError):
        max_entangled_classical(0.1, "XX")


@pytest.mark.parametrize("profile", [[], {}, ["C", "C"], None, 3, pytest.param(10**5000, id="10**5000")])
@pytest.mark.parametrize("form", [unentangled_classical, max_entangled_classical])
def test_profile_that_is_no_string_is_a_value_error(form, profile):
    # An unhashable profile raised TypeError, and an int of more than 4300 digits Python's int-to-str limit.
    with pytest.raises(ValueError, match="^profile must be one of"):
        form(0.1, profile)


ANGLE_CASES = {
    "q_vs_arbitrary theta_b nan": (lambda: q_vs_arbitrary(0.1, 0.0, math.nan), "^theta_b must lie in"),  # was (nan, nan)
    "q_vs_arbitrary alpha_b 'a'": (lambda: q_vs_arbitrary(0.1, "a", 0.0), "^alpha_b must lie in"),  # was TypeError
    "q_vs_arbitrary alpha_b 2pi+1e-3": (lambda: q_vs_arbitrary(0.1, 2.0 * math.pi + 1e-3, 0.0), "^alpha_b must lie in"),
    "q_vs_arbitrary theta_b -1e-3": (lambda: q_vs_arbitrary(0.1, 0.0, -1e-3), "^theta_b must lie in"),
    "q_vs_arbitrary alpha_b 10**5000": (lambda: q_vs_arbitrary(0.1, 10**5000, 0.0), "^alpha_b must lie in"),
    # Was ValueError "math domain error".
    "miracle_vs_classical theta_b inf": (lambda: miracle_vs_classical(0.1, math.inf), "^theta_b must lie in"),
    "miracle_vs_classical theta_b pi+1e-3": (lambda: miracle_vs_classical(0.1, math.pi + 1e-3), "^theta_b must lie in"),
    "miracle_vs_classical theta_b None": (lambda: miracle_vs_classical(0.1, None), "^theta_b must lie in"),
}


@pytest.mark.parametrize("call,message", ANGLE_CASES.values(), ids=ANGLE_CASES.keys())
def test_move_angles_are_checked_as_a_strategys_are(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_move_angles_within_edge_slack_are_clamped_as_a_strategys_are():
    edge = q_vs_arbitrary(0.3, 2.0 * math.pi, 0.0)
    assert q_vs_arbitrary(0.3, 2.0 * math.pi + 0.5 * EDGE_SLACK, -0.5 * EDGE_SLACK) == edge
    assert miracle_vs_classical(0.3, math.pi + 0.5 * EDGE_SLACK) == miracle_vs_classical(0.3, math.pi)


FAMILIES = [
    (unentangled_classical, (profile,)) for profile in CLASSICAL_PROFILES
] + [(max_entangled_classical, (profile,)) for profile in CLASSICAL_PROFILES] + [
    (q_vs_arbitrary, (alpha_b, theta_b)) for alpha_b in (0.0, 0.7, math.pi / 4) for theta_b in (0.0, 1.9, math.pi)
] + [(miracle_vs_classical, (theta_b,)) for theta_b in (0.0, 1.1, math.pi)]


@pytest.mark.parametrize("form,args", FAMILIES)
def test_array_call_equals_scalar_calls(form, args):
    rs = np.concatenate([np.linspace(0.0, math.pi / 4, 101), np.random.default_rng(7).uniform(0.0, math.pi / 4, 200)])
    got = form(rs, *args)
    want = np.array([form(r, *args) for r in rs.tolist()])
    assert got.alice.shape == got.bob.shape == rs.shape
    assert np.max(np.abs(np.stack(got, axis=-1) - want)) <= 1e-15


def test_array_call_keeps_the_shape_of_r():
    rs = np.linspace(0.0, math.pi / 4, 12).reshape(3, 4)
    got = max_entangled_classical(rs, "CD")
    assert got.alice.shape == got.bob.shape == (3, 4)
    assert got.alice[1, 2] == max_entangled_classical(rs[1:2, 2:3], "CD").alice[0, 0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3, math.pi / 4 + 1e-3])
@pytest.mark.parametrize("form,args", [FAMILIES[0], FAMILIES[4], FAMILIES[8], FAMILIES[-2]])
def test_one_bad_element_rejects_the_array(form, args, bad):
    rs = np.linspace(0.0, math.pi / 4, 9)
    rs[5] = bad
    with pytest.raises(ValueError, match="acceleration parameter r"):
        form(rs, *args)


def test_array_within_edge_slack_is_clamped():
    rs = np.array([-0.5 * EDGE_SLACK, math.pi / 4 + 0.5 * EDGE_SLACK])
    got = unentangled_classical(rs, "CC")
    want = [unentangled_classical(0.0, "CC"), unentangled_classical(math.pi / 4, "CC")]
    assert np.array_equal(np.stack(got, axis=-1), np.array(want))


ONE_PER_FORM = [FAMILIES[0], FAMILIES[4], FAMILIES[8], FAMILIES[-2]]


def refusal(r) -> str:
    """The exact message `validate_r` refuses r with."""
    with pytest.raises(ValueError) as caught:
        validate_r(r)
    return f"^{re.escape(str(caught.value))}$"


# A scalar r that is no Python float or int, and the float it stands for, or None where it is refused. Each went to
# numpy's array branch: the first two raised TypeError and OverflowError, and the others returned numpy floats.
ODD_SCALAR_R = {
    "1j": (1j, None),
    "Fraction(10**5000, 3)": (Fraction(10**5000, 3), None),
    "np.float32(0.5)": (np.float32(0.5), 0.5),
    "'0.5'": ("0.5", 0.5),
    "Fraction(1, 3)": (Fraction(1, 3), 1 / 3),
    "Decimal('0.25')": (Decimal("0.25"), 0.25),
    "0-d array": (np.array(0.25), 0.25),
}


@pytest.mark.parametrize("form,args", ONE_PER_FORM)
@pytest.mark.parametrize("r,as_float", ODD_SCALAR_R.values(), ids=ODD_SCALAR_R.keys())
def test_an_odd_scalar_r_is_checked_by_validate_r_and_gives_python_floats(form, args, r, as_float):
    if as_float is None:
        with pytest.raises(ValueError, match=refusal(r)):
            form(r, *args)
        return
    got = form(r, *args)
    assert got == form(as_float, *args)
    assert [type(value) for value in got] == [float, float]


# Elements an array r may hold that `validate_r` refuses; each must refuse the array with that element's message.
BAD_ELEMENTS = {
    "nan": math.nan, "inf": math.inf, "-1e-3": -1e-3, "R_MAX + 2 EDGE_SLACK": R_MAX + 2 * EDGE_SLACK, "None": None,
    "'x'": "x", "1j": 1j, "10**5000": 10**5000, "Decimal('sNaN')": Decimal("sNaN"),
}


@pytest.mark.parametrize("bad", BAD_ELEMENTS.values(), ids=BAD_ELEMENTS.keys())
def test_an_array_is_refused_with_the_message_of_its_first_refused_element(bad):
    for r in ([0.1, bad, math.nan], (0.2, bad), np.array([0.1, bad, math.nan], dtype=object)):
        with pytest.raises(ValueError, match=refusal(bad)):
            unentangled_classical(r, "CC")


@pytest.mark.parametrize("r", [[[0.1], [0.2, 0.3]], [0.1, [0.2, 0.3]], np.array([0.5 + 0j, 0.1]), np.array([b"x"])])
def test_a_ragged_complex_or_bytes_array_is_a_value_error(r):
    # A ragged list raised numpy's own ValueError, and a complex array lost its imaginary part with a ComplexWarning.
    with pytest.raises(ValueError, match="^acceleration parameter r must lie in"):
        max_entangled_classical(r, "CD")


ACCEPTED_ARRAYS = [[0.1, 0.7], (0.1, 0.7), ["0.1", "0.7"], np.array(["0.1", "0.7"]), [Fraction(1, 10), 0.7]]


@pytest.mark.parametrize("r", ACCEPTED_ARRAYS)
def test_a_list_tuple_or_array_of_accepted_scalars_gives_arrays_of_their_floats(r):
    got = max_entangled_classical(r, "CD")
    want = max_entangled_classical(np.array([0.1, 0.7]), "CD")
    assert got.alice.dtype == got.bob.dtype == np.float64
    assert np.array_equal(np.stack(got), np.stack(want))


def test_a_float32_array_is_scored_in_float64_as_its_scalars_are():
    rs = np.array([0.1, 0.7], dtype=np.float32)
    got = max_entangled_classical(rs, "CD")
    assert got.alice.dtype == got.bob.dtype == np.float64
    assert np.stack(got, axis=-1).tolist() == [list(max_entangled_classical(r, "CD")) for r in rs]


# Every edge of the domain, on both sides of EDGE_SLACK, with the hostile numbers.
EDGES = [-EDGE_SLACK, -1.5 * EDGE_SLACK, math.nextafter(-EDGE_SLACK, -1.0), R_MAX, R_MAX + EDGE_SLACK]
EDGES += [math.nextafter(R_MAX + EDGE_SLACK, 1.0), R_MAX + 1.5 * EDGE_SLACK]
# The float32 values at and beside each edge: a list of them is a float32 array.
FLOAT32_EDGES = [np.float32(-EDGE_SLACK), np.float32(R_MAX + EDGE_SLACK)]
EDGES += FLOAT32_EDGES + [np.nextafter(edge, np.float32(way)) for edge in FLOAT32_EDGES for way in (-1, 1)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.sampled_from(hostile.NUMBERS + EDGES), st.floats(-2e-6, R_MAX + 2e-6), st.floats()))
def test_an_array_of_one_element_is_refused_and_accepted_as_that_element_is(x):
    def domain(r):
        try:
            return _domain(r)[0]
        except ValueError:
            return None

    alone, wrapped = domain(x), domain([x])
    assert (alone is None) == (wrapped is None), x
    if wrapped is not None:
        assert wrapped.dtype == np.float64
        assert np.array_equal(wrapped[0], alone)
