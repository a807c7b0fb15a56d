"""The four closed forms equal the engine's kernel as exact identities, not only to within rounding.

`closed_forms` evaluates its formulas through the module that `_domain`
returns, and reads Bob's angles through `math` and `clamp_to_domain`. Here
those three names are replaced by exact stand-ins:

- an angle is `Angle(k, t)`, k times the angle 2 atan(t) of the rational
  point `rational.circle_point(t)`. So r/2, r, 2r, alpha_b and theta_b/2
  all have rational cos and sin, computed exactly;
- every cos and sin is an `Exact`, a Fraction that takes a float constant of
  the formulas (0.25, 1.25, 17.0, ...) at its exact value.

The engine runs through its entry `payoff.play_entries`, with gamma and r
folded in by `payoff._coefficients` from the same cos and sin, and with the
default table's entries as Fractions. Where gamma = pi/2, (cos g/2, sin g/2) = (1/sqrt 2, 1/sqrt 2) is taken as (1, 1)
and the probabilities, homogeneous of degree 4 in that pair, are scaled by
1/4. The miracle move's coordinates (0, 1/sqrt 2, 1/sqrt 2) are taken as
(0, 1, 1), with a further 1/2: the probabilities are of degree 2 in each
player's move. The two discrepancy notes `verify` prints about these forms
are exact statements about the kernel too: at r = pi/4 the pair (cos r,
sin r) = (1/sqrt 2, 1/sqrt 2) is taken as (1, 1), and at gamma = 0 the
probabilities, of degree 2 in that pair, are scaled by 1/2. Every
comparison is `==`. Both sides are polynomials of bounded degree in the
seeded rationals, so equality at 200 random points per form proves the
identity with overwhelming probability (Schwartz, JACM 27, 701, 1980).
"""

import functools
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from rational import C, D, M_SCALED, Q, circle_point
from unruhpd import closed_forms
from unruhpd.payoff import PayoffTable, _coefficients, play_entries
from unruhpd.verify import NOTE_EQ13_INVERSION, NOTE_TABLE2_MISPRINT

POINTS = 200
SEED = 24


def _exact(op, reflected=False):
    def method(self, other):
        if not isinstance(other, (int, float, Fraction)):
            return NotImplemented
        x, y = Fraction(self), Fraction(other)
        return Exact(op(y, x) if reflected else op(x, y))

    return method


class Exact(Fraction):
    """A Fraction whose arithmetic with a float takes the float's exact value; every result is an Exact."""

    __add__, __radd__ = _exact(operator.add), _exact(operator.add, True)
    __sub__, __rsub__ = _exact(operator.sub), _exact(operator.sub, True)
    __mul__, __rmul__ = _exact(operator.mul), _exact(operator.mul, True)
    __truediv__ = _exact(operator.truediv)
    __pow__ = _exact(operator.pow)


class Angle:
    """k times the angle 2 atan(t) of `circle_point(t)`, for an integer k >= 0 and a rational t."""

    def __init__(self, k, t):
        self.k, self.t = k, t

    def __rmul__(self, factor):
        assert factor == 2
        return Angle(2 * self.k, self.t)

    def __truediv__(self, divisor):
        assert divisor == 2 and self.k % 2 == 0
        return Angle(self.k // 2, self.t)

    @functools.cached_property
    def point(self):
        """(cos, sin) of the angle, from the k-th power of the circle point cos + i sin."""
        c, s = circle_point(Exact(self.t))
        cos, sin = Exact(1), Exact(0)
        for _ in range(self.k):
            cos, sin = cos * c - sin * s, cos * s + sin * c
        return cos, sin


EXACT_MATH = SimpleNamespace(cos=lambda a: a.point[0], sin=lambda a: a.point[1], pi=math.pi)

def fractions(*values):
    """The values as plain Fractions: the kernel's inputs, exact under its +, - and *."""
    return tuple(map(Fraction, values))


MOVES = {"C": C, "D": D}
UNENTANGLED, MAX_ENTANGLED = fractions(1, 0), fractions(1, 1)  # (cos g/2, sin g/2), the latter times sqrt 2
INERTIAL = Angle(0, 0)  # r = 0: (cos r, sin r) = (1, 0)
QUARTER_PI = SimpleNamespace(point=fractions(1, 1))  # r = pi/4: (cos r, sin r) times sqrt 2
TABLE = tuple(fractions(*pair) for pair in PayoffTable().entries)


@pytest.fixture
def exact_closed_forms(monkeypatch):
    monkeypatch.setattr(closed_forms, "_domain", lambda r: (r, EXACT_MATH))
    monkeypatch.setattr(closed_forms, "math", EXACT_MATH)
    monkeypatch.setattr(closed_forms, "clamp_to_domain", lambda value, *bounds: value)


def rationals(tag):
    rng = random.Random(f"{SEED}-{tag}")
    while True:
        yield Fraction(rng.randint(-24, 24), rng.randint(1, 24))


def kernel(alice, bob, entangled, r, scale):
    """The engine's expected payoffs, as Fractions, times `scale`."""
    cos_g, sin_g = entangled
    cos_r, sin_r = fractions(*r.point)
    coeffs = _coefficients(cos_g, sin_g, cos_r, sin_r)
    return tuple(scale * payoff for payoff in play_entries(coeffs, alice, bob, TABLE))


def exact(pair):
    """A closed form's (alice, bob) as a tuple, each checked to be a Fraction: no float crept in."""
    assert all(isinstance(value, Fraction) for value in pair)
    return tuple(pair)


def bob_move(alpha, half_theta):
    """Coordinates (q0, q1, q3) of U(alpha, theta) from the angles alpha and theta/2."""
    cos_a, sin_a = fractions(*alpha.point)
    cos_t, sin_t = fractions(*half_theta.point)
    return cos_a * cos_t, sin_t, sin_a * cos_t


@pytest.mark.parametrize("profile", closed_forms.CLASSICAL_PROFILES)
def test_unentangled_classical_is_the_kernel_at_gamma_zero(exact_closed_forms, profile):
    ts = rationals(f"table2-{profile}")
    for _ in range(POINTS):
        r = Angle(2, next(ts))
        want = kernel(MOVES[profile[0]], MOVES[profile[1]], UNENTANGLED, r, 1)
        assert exact(closed_forms.unentangled_classical(r, profile)) == want


@pytest.mark.parametrize("profile", closed_forms.CLASSICAL_PROFILES)
def test_max_entangled_classical_is_the_kernel_at_gamma_half_pi(exact_closed_forms, profile):
    ts = rationals(f"eq8-{profile}")
    for _ in range(POINTS):
        r = Angle(2, next(ts))
        want = kernel(MOVES[profile[0]], MOVES[profile[1]], MAX_ENTANGLED, r, Fraction(1, 4))
        assert exact(closed_forms.max_entangled_classical(r, profile)) == want


def test_q_vs_arbitrary_is_the_kernel_for_q_against_any_move(exact_closed_forms):
    ts = rationals("eq11")
    for _ in range(POINTS):
        r, alpha_b, half_theta_b = Angle(2, next(ts)), Angle(1, next(ts)), Angle(1, next(ts))
        want = kernel(Q, bob_move(alpha_b, half_theta_b), MAX_ENTANGLED, r, Fraction(1, 4))
        assert exact(closed_forms.q_vs_arbitrary(r, alpha_b, 2.0 * half_theta_b)) == want


def test_miracle_vs_classical_is_the_kernel_for_m_against_u_zero_theta(exact_closed_forms):
    ts = rationals("eq13")
    for _ in range(POINTS):
        r, half_theta_b = Angle(2, next(ts)), Angle(1, next(ts))
        want = kernel(M_SCALED, bob_move(Angle(0, 0), half_theta_b), MAX_ENTANGLED, r, Fraction(1, 8))
        assert exact(closed_forms.miracle_vs_classical(r, 2.0 * half_theta_b)) == want


def test_table2_misprint_the_kernel_gives_three_and_a_half_for_dc_and_dd_at_r_quarter_pi():
    assert "(D,C) = (D,D) = (3,3/2)" in NOTE_TABLE2_MISPRINT and "give (3,1/2)" in NOTE_TABLE2_MISPRINT
    for bob in (C, D):
        assert kernel(D, bob, UNENTANGLED, QUARTER_PI, Fraction(1, 2)) == (3, Fraction(1, 2))


def test_eq13_inversion_the_kernel_gives_a_half_and_three_for_m_against_c_and_d_at_r_zero():
    assert "at r = 0 the miracle-move closed forms give (1/2, 3)" in NOTE_EQ13_INVERSION
    for bob in (C, D):
        assert kernel(M_SCALED, bob, MAX_ENTANGLED, INERTIAL, Fraction(1, 8)) == (Fraction(1, 2), 3)
