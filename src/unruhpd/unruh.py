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

`expand_bob_mode` writes the pure state over (Alice, region I, region II),
`partial_trace` traces region II out of it, and `unruh_channel` does both,
giving the reduced state as an explicit 4x4 density matrix. `payoff` applies
the same channel in its Kraus form without one; these functions are the
reference it is tested against.
"""

from __future__ import annotations

import math

from .game import clamp_to_domain, is_finite, safe_repr

R_MAX = math.pi / 4.0

NORM_TOL = 1e-12


def validate_r(r: float) -> float:
    return clamp_to_domain(r, R_MAX, "acceleration parameter r", "[0, pi/4]")


def r_from_acceleration(omega: float, a: float, c: float) -> float:
    """Acceleration parameter from mode frequency, proper acceleration and c.

    r = arccos((e^{-2 pi omega c / a} + 1)^{-1/2}); r -> 0 as a -> 0 and r -> pi/4
    as a -> infinity. In floating point r is exactly R_MAX from about a = 1.03e16 omega c.
    """
    for name, value in (("omega", omega), ("a", a), ("c", c)):
        if not (is_finite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {safe_repr(value)}")
    # As Python floats: a numpy float32 would compute, and overflow, in its own precision, and a Decimal not at all.
    omega, a, c = float(omega), float(a), float(c)
    cos_r = (math.exp(-2.0 * math.pi * omega * c / a) + 1.0) ** -0.5
    return math.acos(min(cos_r, 1.0))


def _check_normalized(state: np.ndarray) -> np.ndarray:
    import numpy as np
    state = np.asarray(state, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(state.real, state.real)) + float(np.vdot(state.imag, state.imag))  # complex vdot(inf): nan
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # negated, so that a NaN or inf entry fails it too
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")
    return state


def expand_bob_mode(state: np.ndarray, r: float) -> np.ndarray:
    """Rewrite a two-qubit state over (Alice, region I, region II), dim 8.

    Ordering is A x I x II with region II least significant.
    """
    import numpy as np
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


def partial_trace(expanded: np.ndarray) -> np.ndarray:
    """Trace region II out of the dim-8 pure state that `expand_bob_mode` returns.

    With the state as a 4x2 matrix M over ((Alice, region I), region II), the
    reduced density matrix over (Alice, region I) is M M^dag.
    """
    expanded = _check_normalized(expanded)
    if expanded.shape != (8,):
        raise ValueError(f"expected a dim-8 state, got shape {expanded.shape}")
    m = expanded.reshape(4, 2)
    return m @ m.conj().T


def unruh_channel(state: np.ndarray, r: float) -> np.ndarray:
    """Expand Bob's mode into Rindler wedges and trace out region II.

    Returns the 4x4 reduced density matrix over (Alice, region I). Trace one,
    Hermitian, positive semidefinite; the identity map at r = 0.
    """
    return partial_trace(expand_bob_mode(state, r))
