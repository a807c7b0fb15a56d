"""Acceleration channel acting on Bob's qubit.

A uniformly accelerated Bob perceives the inertial vacuum as a two-mode
squeezed state of the Rindler wedges I and II:

    |0>_B -> cos(r) |0>_I |0>_II + sin(r) |1>_I |1>_II
    |1>_B -> |1>_I |0>_II

with the dimensionless acceleration parameter r in [0, pi/4] fixed by
cos(r) = (e^{-2 pi omega c / a} + 1)^{-1/2}. Region II is causally
disconnected from him and gets traced out, which turns the shared pure
state into a mixed two-qubit state and degrades its entanglement. Only a
single field mode per wedge is kept, the standard highly-monochromatic
detector idealization.

`expand_bob_mode`, `partial_trace` and `unruh_channel` build that reduced
state as an explicit 4x4 density matrix. `payoff` applies the same channel
in its Kraus form without one; these functions are the reference it is
tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .game import clamp_array_to_domain, clamp_to_domain

R_MAX = math.pi / 4.0

NORM_TOL = 1e-12


def validate_r(r: float) -> float:
    return clamp_to_domain(r, R_MAX, "acceleration parameter r", "[0, pi/4]")


def validate_r_array(r) -> np.ndarray:
    return clamp_array_to_domain(r, R_MAX, "acceleration parameter r", "[0, pi/4]")


def r_from_acceleration(omega: float, a: float, c: float) -> float:
    """Acceleration parameter from mode frequency, proper acceleration and c.

    r = arccos((e^{-2 pi omega c / a} + 1)^{-1/2}); r -> 0 as a -> 0 and r -> pi/4
    as a -> infinity. In floating point r is exactly R_MAX from about a = 1.03e16 omega c.
    """
    for name, value in (("omega", omega), ("a", a), ("c", c)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    cos_r = (math.exp(-2.0 * math.pi * omega * c / a) + 1.0) ** -0.5
    return math.acos(min(cos_r, 1.0))


def _check_normalized(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    norm_sq = float(np.real(np.vdot(state, state)))
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")
    return state


def expand_bob_mode(state: np.ndarray, r: float) -> np.ndarray:
    """Rewrite a two-qubit state over (Alice, region I, region II), dim 8.

    Ordering is A x I x II with region II least significant.
    """
    r = validate_r(r)
    state = _check_normalized(state)
    if state.shape != (4,):
        raise ValueError(f"expected a dim-4 state, got shape {state.shape}")
    ket0 = np.array([math.cos(r), 0.0, 0.0, math.sin(r)], dtype=complex)
    ket1 = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    out = np.zeros(8, dtype=complex)
    for alice_bit in range(2):
        block = state[2 * alice_bit] * ket0 + state[2 * alice_bit + 1] * ket1
        out[4 * alice_bit : 4 * alice_bit + 4] = block
    return out


def partial_trace(rho: np.ndarray, dims: list[int], which: int) -> np.ndarray:
    """Trace out subsystem `which`, preserving the order of the rest.

    `dims` lists the subsystem dimensions, most significant first; their
    product must equal the side of the square matrix `rho`, whose entries
    must be finite.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise ValueError(f"dims {dims} inconsistent with matrix shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("matrix entries must be finite")
    n = len(dims)
    if not 0 <= which < n:
        raise ValueError(f"subsystem index {which} out of range for {n} subsystems")
    t = rho.reshape(dims + dims)
    reduced = np.trace(t, axis1=which, axis2=n + which)
    keep = total // dims[which]
    return reduced.reshape(keep, keep)


def unruh_channel(state: np.ndarray, r: float) -> np.ndarray:
    """Expand Bob's mode into Rindler wedges and trace out region II.

    Returns the 4x4 reduced density matrix over (Alice, region I). Trace one,
    Hermitian, positive semidefinite; the identity map at r = 0.
    """
    expanded = expand_bob_mode(state, r)
    rho = np.outer(expanded, expanded.conj())
    return partial_trace(rho, [2, 2, 2], which=2)
