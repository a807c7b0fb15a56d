"""Acceleration channel: mode expansion, region-II trace, density properties."""

import cmath
import math

import numpy as np
import pytest

from linalg import basis_ket
from unruhpd.game import initial_state
from unruhpd.payoff import GameSetup
from unruhpd.unruh import (
    R_MAX,
    expand_bob_mode,
    r_from_acceleration,
    unruh_channel,
    validate_r,
)

RNG = np.random.default_rng(20240812)


def reduced_form(gamma, r):
    """Closed form of the post-channel density for the entangled start state."""
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (math.cos(r) ** 2) * c * c
    rho[1, 1] = c * c * math.sin(r) ** 2
    rho[3, 3] = s * s
    rho[0, 3] = -1j * math.cos(r) * c * s
    rho[3, 0] = 1j * math.cos(r) * c * s
    return rho


def random_pure_state(dim):
    v = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return v / np.linalg.norm(v)


def test_r_limits():
    assert r_from_acceleration(omega=1.0, a=1e-6, c=1.0) == 0.0
    assert abs(r_from_acceleration(omega=1.0, a=1e12, c=1.0) - R_MAX) <= 1e-8
    assert r_from_acceleration(omega=1.0, a=1.0, c=1.0) < R_MAX
    # In floating point the limit is reached at a finite acceleration, and it is a valid r.
    assert r_from_acceleration(omega=1.0, a=1e16, c=1.0) < R_MAX
    at_limit = r_from_acceleration(omega=1.0, a=1e17, c=1.0)
    assert at_limit == R_MAX
    assert GameSetup(0.0, at_limit).r == R_MAX


def test_r_closed_form_point():
    # 2*pi*omega*c/a = ln 3 gives cos r = ((1/3)+1)^(-1/2) = sqrt(3)/2, r = pi/6.
    a = 2.0 * math.pi / math.log(3.0)
    assert abs(r_from_acceleration(omega=1.0, a=a, c=1.0) - math.pi / 6) <= 1e-12


@pytest.mark.parametrize("bad", [dict(omega=0.0, a=1.0, c=1.0), dict(omega=1.0, a=-2.0, c=1.0), dict(omega=1.0, a=1.0, c=float("inf"))])
def test_r_from_acceleration_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        r_from_acceleration(**bad)


def test_validate_r_domain():
    assert validate_r(0.0) == 0.0
    assert validate_r(R_MAX) == R_MAX
    assert validate_r(0.7853982) == R_MAX
    with pytest.raises(ValueError):
        validate_r(-0.1)
    with pytest.raises(ValueError):
        validate_r(1.0)


def test_expand_at_zero_acceleration_appends_vacuum():
    state = random_pure_state(4)
    out = expand_bob_mode(state, 0.0)
    want = np.zeros(8, dtype=complex)
    want[0], want[2], want[4], want[6] = state[0], state[1], state[2], state[3]
    assert np.abs(out - want).max() <= 1e-15


def test_expand_excited_bob_mode():
    out = expand_bob_mode(basis_ket(4, 3), 0.3)
    assert np.abs(out - basis_ket(8, 6)).max() <= 1e-15


@pytest.mark.parametrize("gamma,r", [(0.0, 0.2), (math.pi / 2, math.pi / 4), (0.8, 0.5)])
def test_expand_entangled_start_state_three_terms(gamma, r):
    out = expand_bob_mode(initial_state(gamma), r)
    want = np.zeros(8, dtype=complex)
    want[0] = math.cos(gamma / 2) * math.cos(r)
    want[3] = math.cos(gamma / 2) * math.sin(r)
    want[6] = 1j * math.sin(gamma / 2)
    assert np.abs(out - want).max() <= 1e-15
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_expand_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        expand_bob_mode(np.array([1.0, 1.0, 0.0, 0.0]), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(0.0, math.nan), 1e200])
def test_expand_rejects_a_non_finite_entry(bad):
    # The squared norm is the sum of the squared real and imaginary parts, with no RuntimeWarning (an error here):
    # vdot(state, state) read inf + 0j as nan, from its inf * 0 terms. 1e200 is finite, but its square overflows.
    norm_sq = "nan" if cmath.isnan(bad) else "inf"
    with pytest.raises(ValueError, match=rf"^state is not normalized: \|psi\|\^2 = {norm_sq}$"):
        expand_bob_mode(np.array([bad, 0.0, 0.0, 0.0]), 0.1)


def test_expand_rejects_a_normalized_state_of_the_wrong_dimension():
    with pytest.raises(ValueError, match=r"^expected a dim-4 state, got shape \(8,\)$"):
        expand_bob_mode(random_pure_state(8), 0.1)


@pytest.mark.parametrize(
    "gamma,r",
    [(0.0, 0.0), (0.0, math.pi / 4), (math.pi / 2, math.pi / 8), (math.pi / 3, 0.6), (math.pi / 2, math.pi / 4)],
)
def test_channel_matches_reduced_closed_form(gamma, r):
    rho = unruh_channel(initial_state(gamma), r)
    assert np.abs(rho - reduced_form(gamma, r)).max() <= 1e-13


def test_channel_identity_at_zero_acceleration():
    state = random_pure_state(4)
    rho = unruh_channel(state, 0.0)
    assert np.abs(rho - np.outer(state, state.conj())).max() <= 1e-14


def test_channel_unentangled_infinite_acceleration():
    rho = unruh_channel(initial_state(0.0), R_MAX)
    assert np.abs(rho - np.diag([0.5, 0.5, 0.0, 0.0])).max() <= 1e-13


def test_channel_grid_properties():
    gammas = np.linspace(0.0, math.pi / 2, 20)
    rs = np.linspace(0.0, R_MAX, 20)
    for gamma in gammas:
        for r in rs:
            rho = unruh_channel(initial_state(float(gamma)), float(r))
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.abs(rho - rho.conj().T).max() <= 1e-13
            # Smallest eigenvalue only slightly negative from roundoff.
            assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-10


def test_purity_nonincreasing_in_r_at_max_entanglement():
    state = initial_state(math.pi / 2)
    purities = []
    for r in np.linspace(0.0, R_MAX, 15):
        rho = unruh_channel(state, float(r))
        purities.append(float(np.real(np.trace(rho @ rho))))
    for earlier, later in zip(purities, purities[1:]):
        assert later <= earlier + 1e-12
