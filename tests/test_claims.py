"""The abstract's claims proved for every r, not sampled: `payoff.play_entries` on Fractions.

"C becomes the dominant strategy" at gamma = pi/2: for both players, C scores
strictly more than D against C and against D, at every r in [0, pi/4].

"The acceleration disturbs the symmetry" holds below maximal entanglement, not
at it. At gamma = pi/2, swapping the players swaps the CD and DC probabilities
and keeps CC and DD, at every r, for 30 seeded exact move pairs. At gamma = 0,
Alice's payoff at (C, C) less Bob's is exactly -5 sin² r, nonzero for every
r > 0. At gamma/2 = 2 atan(1/3) the swap holds at r = 0 and fails as a
polynomial in t.

At gamma = pi/2, cos(gamma/2) = sin(gamma/2) = √2/2, and each of the six
coefficients is a sum of products of exactly two of them, so
`_coefficients(1, 1, cos r, sin r)` is twice the true coefficients. Each
probability is quadratic in the coefficients, so the exact payoff is the
entry's value on those, divided by 4. The moves are the exact C = (1, 0, 0)
and D = (0, 1, 0), and (cos r, sin r) is the rational point `circle_point(t)`
with t = tan(r/2).

Degree bound: at a fixed gamma every coefficient is linear in (cos r, sin r),
and every probability is quadratic in the coefficients, so each payoff or
probability gap times (1 + t²)² is a polynomial of degree at most 4 in t.
Each gap is interpolated from 5 rational t and the interpolant confirmed at
10 more. A quartic sum a_k t^k is at least a_0 plus its negative terms at
T_MAX everywhere on [0, T_MAX], and [0, T_MAX] holds every t = tan(r/2) with
r in [0, pi/4]. Every comparison is `==` or `>` on Fractions.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from rational import C, D, INDICATOR_TABLES, circle_point, sphere_point
from unruhpd.game import NAMED_STRATEGIES
from unruhpd.payoff import GameSetup, PayoffTable, _coefficients, play, play_entries

EXACT = {"C": C, "D": D}
TABLE = tuple((Fraction(a), Fraction(b)) for a, b in PayoffTable().entries)
DEGREE = 4
# Above tan(pi/8) = √2 − 1, since (1 + 5/12)² = 289/144 > 2.
T_MAX = Fraction(5, 12)
FIT_TS = [Fraction(k, 12) for k in range(DEGREE + 1)]
CHECK_TS = [Fraction(k, 7) for k in range(1, 11)]
SEED = 21
PAIRS = 30
SWAPPED = (0, 2, 1, 3)  # the outcomes CC, CD, DC, DD as named with the players swapped


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


def fitted_quartic(scaled):
    """The polynomial through `scaled` at FIT_TS, checked to equal `scaled` at every CHECK_TS."""
    quartic = interpolate([(t, scaled(t)) for t in FIT_TS])
    assert all(evaluate(quartic, t) == scaled(t) for t in CHECK_TS), quartic
    return quartic


def move_pairs():
    """PAIRS seeded pairs of exact moves on the unit sphere."""
    rng = random.Random(SEED)

    def move():
        return sphere_point(*(Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in "uv"))

    return [(move(), move()) for _ in range(PAIRS)]


def swap_quartics(half_angle, alice, bob):
    """The four outcome probabilities at (alice, bob) less their swaps at (bob, alice), times (1 + t²)², as
    polynomials in t, each confirmed at every CHECK_TS.

    `half_angle` is (cos, sin) of gamma/2, or a multiple of it: that scales each gap, and a zero gap stays zero.
    """

    @functools.cache
    def gaps(t):
        coefficients = _coefficients(*half_angle, *circle_point(t))
        here, swapped = (
            [p for table in INDICATOR_TABLES for p in play_entries(coefficients, *moves, table)]
            for moves in ((alice, bob), (bob, alice))
        )
        return [(here[k] - swapped[SWAPPED[k]]) * (1 + t * t) ** 2 for k in range(4)]

    return [fitted_quartic(lambda t: gaps(t)[k]) for k in range(4)]


def test_c_strictly_dominates_d_at_maximal_entanglement_for_every_r():
    assert (1 + T_MAX) ** 2 > 2  # T_MAX > √2 − 1 = tan(pi/8)
    assert not set(FIT_TS) & set(CHECK_TS)
    quartics = {}
    for name, opponent in (("C", C), ("D", D)):
        for player in (0, 1):
            quartic = fitted_quartic(scaled_gap(opponent, player))
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


def test_swapping_the_players_at_maximal_entanglement_swaps_only_cd_and_dc_for_every_r():
    for alice, bob in move_pairs():
        assert swap_quartics((1, 1), alice, bob) == [[0] * (DEGREE + 1)] * 4, (alice, bob)


def test_the_unentangled_game_is_not_symmetric_for_any_r_above_zero():
    # Alice's payoff at (C, C) less Bob's is -20 t² / (1 + t²)² = -5 sin² r, the closed forms' 3 cos² r - (4 - cos 2r).
    def scaled(t):
        alice, bob = play_entries(_coefficients(1, 0, *circle_point(t)), C, C, TABLE)
        return (alice - bob) * (1 + t * t) ** 2

    assert fitted_quartic(scaled) == [0, 0, -20, 0, 0]


def test_below_maximal_entanglement_the_acceleration_breaks_the_swap():
    # At gamma/2 = 2 atan(1/3), (cos, sin) of gamma/2 is (4/5, 3/5). Every gap is 0 at t = 0, the inertial game, and
    # each pair has a gap that is not the zero polynomial, so the swap fails at all but at most three r > 0.
    for alice, bob in move_pairs():
        quartics = swap_quartics(circle_point(Fraction(1, 3)), alice, bob)
        assert all(quartic[0] == 0 for quartic in quartics), (alice, bob)
        assert any(any(quartic) for quartic in quartics), (alice, bob)
