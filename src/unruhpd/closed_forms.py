"""Closed-form payoff benchmarks, kept textually separate from the engine.

These are direct transcriptions of the published analytic payoff formulas
for this game, used only to cross-check the simulation pipeline. Each takes
the acceleration parameter r and returns an (alice, bob) pair: Python floats
for a scalar r, float arrays shaped like r for an array, which is a list, a
tuple or a numpy array of one or more dimensions. The formula text is the
same for both; it is evaluated through `math`, loading no numpy, for a
scalar, and through `numpy` for an array, which is checked once as a whole.
"""

from __future__ import annotations

import math
import sys

from .game import EDGE_SLACK, TWO_PI, clamp_to_domain, safe_repr
from .payoff import PROFILE_ORDER, Payoffs
from .unruh import R_MAX, validate_r

CLASSICAL_PROFILES = PROFILE_ORDER


def _domain(r):
    """r checked and clamped as `validate_r` checks a scalar r, with the module that evaluates the formulas on it."""
    ndarray = getattr(sys.modules.get("numpy"), "ndarray", ())  # no ndarray exists before numpy is loaded
    if not (isinstance(r, (list, tuple)) or (isinstance(r, ndarray) and r.ndim)):
        return validate_r(r), math
    import numpy as np
    try:
        values = np.asarray(r)
    except ValueError:  # a ragged nesting: `validate_r` refuses it as a whole, as it refuses any list
        validate_r(r)
        raise
    if values.dtype.kind not in "biuf":  # strings, objects or complex numbers: each element of r as a scalar r
        values = np.array([validate_r(value) for value in np.asarray(r, dtype=object).flat]).reshape(values.shape)
    outside = ~((values >= -EDGE_SLACK) & (values <= R_MAX + EDGE_SLACK))  # NaN fails both comparisons
    if outside.any():
        validate_r(values[outside].flat[0])  # refuses the first element outside, with its message
    return np.clip(values, 0.0, R_MAX, dtype=float), np


def unentangled_classical(r, profile: str) -> Payoffs:
    """Classical-move payoffs for an unentangled start (gamma = 0)."""
    r, m = _domain(r)
    cos2r = m.cos(2.0 * r)
    sin_sq = m.sin(r) ** 2
    cos_sq = m.cos(r) ** 2
    forms = {
        "CC": (3.0 * cos_sq, 4.0 - cos2r),
        "CD": (3.0 * sin_sq, 4.0 + cos2r),
        "DC": (3.0 + 2.0 * cos2r, sin_sq),
        "DD": (3.0 - 2.0 * cos2r, cos_sq),
    }
    return Payoffs(*_lookup(forms, profile))


def max_entangled_classical(r, profile: str) -> Payoffs:
    """Classical-move payoffs for the maximally entangled start (gamma = pi/2)."""
    r, m = _domain(r)
    cos_r = m.cos(r)
    both_c = 1.0 + cos_r + cos_r**2 + 1.25 * m.sin(r) ** 2
    both_d = (17.0 - 8.0 * cos_r - m.cos(2.0 * r)) / 8.0
    coop_vs_defect = 0.5 * m.cos(r / 2.0) ** 2 * (9.0 + cos_r)
    defect_vs_coop = 0.5 * (9.0 - cos_r) * m.sin(r / 2.0) ** 2
    forms = {
        "CC": (both_c, both_c),
        "CD": (coop_vs_defect, defect_vs_coop),
        "DC": (defect_vs_coop, coop_vs_defect),
        "DD": (both_d, both_d),
    }
    return Payoffs(*_lookup(forms, profile))


def q_vs_arbitrary(r, alpha_b: float, theta_b: float) -> Payoffs:
    """Payoffs when Alice plays diag(i, -i) against Bob's U(alpha_b, theta_b).

    gamma = pi/2; theta_b = 0 or pi recovers Bob's classical moves. The angles
    are checked as a Strategy's are: alpha_b in [0, 2*pi], theta_b in [0, pi].
    """
    r, m = _domain(r)
    alpha_b = clamp_to_domain(alpha_b, TWO_PI, "alpha_b", "[0, 2*pi]")
    theta_b = clamp_to_domain(theta_b, math.pi, "theta_b", "[0, pi]")
    cos_r = m.cos(r)
    cos_t = math.cos(theta_b)
    cos_2a = math.cos(2.0 * alpha_b)
    shared = 2.0 * cos_2a * (cos_t + 1.0)
    alice = 0.25 * (9.0 - cos_r * ((cos_r - 5.0) * cos_t + shared + 5.0))
    bob = 0.25 * (9.0 - cos_r * ((cos_r + 5.0) * cos_t + shared - 5.0))
    return Payoffs(alice, bob)


def miracle_vs_classical(r, theta_b: float) -> Payoffs:
    """Payoffs when Alice plays the miracle move U(pi/2, pi/2), gamma = pi/2.

    Bob plays U(0, theta_b); theta_b = 0 or pi are his classical moves.
    theta_b is checked as a Strategy's theta is, in [0, pi].
    """
    r, m = _domain(r)
    theta_b = clamp_to_domain(theta_b, math.pi, "theta_b", "[0, pi]")
    cos_r = m.cos(r)
    cos_sq = cos_r**2
    sin_t = math.sin(theta_b)
    alice = 0.25 * (-3.0 * cos_sq * sin_t + cos_r * (sin_t - 7.0) + 9.0)
    bob = 0.25 * (7.0 * cos_sq * sin_t + cos_r * (sin_t + 3.0) + 9.0)
    return Payoffs(alice, bob)


def _lookup(forms: dict, profile: str) -> tuple:
    # Only a string is looked up: hashing another value may raise.
    if isinstance(profile, str) and profile in forms:
        return forms[profile]
    raise ValueError(f"profile must be one of {CLASSICAL_PROFILES}, got {safe_repr(profile)}")
