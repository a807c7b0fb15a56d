"""The abstract's claims proved for every r, not sampled: `payoff.play_entries` on Fractions.

"C becomes the dominant strategy" at gamma = pi/2: for both players, C scores
strictly more than D against C and against D, at every r in [0, pi/4].

At gamma = pi/2, cos(gamma/2) = sin(gamma/2) = √2/2, and each of the six
coefficients is a sum of products of exactly two of them, so
`_coefficients(1, 1, cos r, sin r)` is twice the true coefficients. Each
probability is quadratic in the coefficients, so the exact payoff is the
entry's value on those, divided by 4. The moves are the exact C = (1, 0, 0)
and D = (0, 1, 0), and (cos r, sin r) is the rational point `circle_point(t)`
with t = tan(r/2).

Degree bound: every coefficient is linear in (cos r, sin r), and every
probability is quadratic in the coefficients, so each payoff gap times
(1 + t²)² is a polynomial of degree at most 4 in t. Each gap is interpolated
from 5 rational t and the interpolant confirmed at 10 more. A quartic
sum a_k t^k is at least a_0 plus its negative terms at T_MAX everywhere on
[0, T_MAX], and [0, T_MAX] holds every t = tan(r/2) with r in [0, pi/4].
Every comparison is `==` or `>` on Fractions.
"""

import itertools
import math
from fractions import Fraction

from rational import circle_point
from unruhpd.game import NAMED_STRATEGIES
from unruhpd.payoff import GameSetup, PayoffTable, _coefficients, play, play_entries

C = (Fraction(1), Fraction(0), Fraction(0))
D = (Fraction(0), Fraction(1), Fraction(0))
EXACT = {"C": C, "D": D}
TABLE = tuple((Fraction(a), Fraction(b)) for a, b in PayoffTable().entries)
DEGREE = 4
# Above tan(pi/8) = √2 − 1, since (1 + 5/12)² = 289/144 > 2.
T_MAX = Fraction(5, 12)
FIT_TS = [Fraction(k, 12) for k in range(DEGREE + 1)]
CHECK_TS = [Fraction(k, 7) for k in range(1, 11)]


def payoff(t, alice, bob, player):
    """`player`'s exact payoff (0 Alice, 1 Bob) at gamma = pi/2 and r = 2 atan(t)."""
    return play_entries(_coefficients(1, 1, *circle_point(t)), alice, bob, TABLE)[player] / 4


def scaled_gap(opponent, player):
    """t -> (C's payoff less D's, for `player` against `opponent`) times (1 + t²)²."""

    def value(t):
        own_c, own_d = ((own, opponent) if player == 0 else (opponent, own) for own in (C, D))
        return (payoff(t, *own_c, player) - payoff(t, *own_d, player)) * (1 + t * t) ** 2

    return value


def interpolate(points):
    """Coefficients, constant first, of the polynomial of degree below len(points) through the (t, value) points."""
    coefficients = [Fraction(0)] * len(points)
    for i, (t_i, value) in enumerate(points):
        basis, scale = [Fraction(1)], value
        for j, (t_j, _) in enumerate(points):
            if j != i:
                basis = [low - t_j * high for low, high in zip([0, *basis], [*basis, 0])]  # times (t - t_j)
                scale /= t_i - t_j
        coefficients = [c + scale * b for c, b in zip(coefficients, basis)]
    return coefficients


def evaluate(coefficients, t):
    return sum(c * t**k for k, c in enumerate(coefficients))


def test_c_strictly_dominates_d_at_maximal_entanglement_for_every_r():
    assert (1 + T_MAX) ** 2 > 2  # T_MAX > √2 − 1 = tan(pi/8)
    assert not set(FIT_TS) & set(CHECK_TS)
    quartics = {}
    for name, opponent in (("C", C), ("D", D)):
        for player in (0, 1):
            gap = scaled_gap(opponent, player)
            quartic = interpolate([(t, gap(t)) for t in FIT_TS])
            assert all(evaluate(quartic, t) == gap(t) for t in CHECK_TS), (name, player)
            lower = quartic[0] + sum(min(a, 0) * T_MAX**k for k, a in enumerate(quartic) if k)
            assert lower > 0, (name, player, quartic)
            quartics[name, player] = quartic
    # The same quartics for both players: 3 + t² − 4t⁴ against C and 4 − t² − 3t⁴ against D.
    assert quartics["C", 0] == quartics["C", 1] == [3, 0, 1, 0, -4]
    assert quartics["D", 0] == quartics["D", 1] == [4, 0, -1, 0, -3]


def test_the_exact_payoffs_are_plays_at_maximal_entanglement():
    # The entry on (1, 1, cos r, sin r), divided by 4, is `play` at gamma = pi/2 and r = 2 atan(t), up to rounding.
    for t in (Fraction(0), Fraction(1, 5), Fraction(2, 5)):
        setup = GameSetup(math.pi / 2, 2 * math.atan(t))
        for alice, bob in itertools.product("CD", repeat=2):
            got = play(setup, NAMED_STRATEGIES[alice], NAMED_STRATEGIES[bob])
            exact = [payoff(t, EXACT[alice], EXACT[bob], player) for player in (0, 1)]
            assert max(abs(Fraction(g) - e) for g, e in zip(got, exact)) < Fraction(1, 10**14), (t, alice, bob)
