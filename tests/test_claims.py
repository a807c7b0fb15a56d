"""The abstract's claims proved for every r, not sampled: `payoff.play_entries` on Fractions.

"C becomes the dominant strategy" at gamma = pi/2: for both players, C scores
strictly more than D against C and against D, at every r in [0, pi/4].

"Any quantum strategy does no better for any player against the classical
strategies" at gamma = pi/2: against C and against D, C is the strict best
reply over the whole move space, for both players, at every r. A player's
payoff against a fixed opponent is a quadratic form q^T A q in their own move
coordinates q = (q0, q1, q3). Against C and D its off-diagonal entries are the
zero polynomial in t, so a unit move scores sum A_ii q_i², a weighting of C's,
D's and Q's payoffs, and C scores strictly more than both.

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

from rational import C, D, Q, circle_point, probabilities, sphere_point
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


def moves_of(player, own, opponent):
    """The (alice, bob) moves of a game in which `player` plays `own` against `opponent`."""
    return (own, opponent) if player == 0 else (opponent, own)


def scaled_gap(opponent, player, rival):
    """t -> (C's payoff less `rival`'s, for `player` against `opponent`) times (1 + t²)²."""

    def value(t):
        own_c, own_rival = (moves_of(player, own, opponent) for own in (C, rival))
        return (payoff(t, *own_c, player) - payoff(t, *own_rival, player)) * (1 + t * t) ** 2

    return value


def off_diagonal_quartics(opponent, player):
    """The off-diagonal entries A_01, A_03, A_13 of `player`'s reply form against `opponent`, times (1 + t²)², as
    polynomials in t, each confirmed at every CHECK_TS.

    The form is polarized with the unnormalised probes e_i + e_j, as in `test_axis_replies`:
    A_ij = (score(e_i + e_j) - A_ii - A_jj) / 2 with A_ii = score(e_i).
    """
    axes = (C, D, Q)

    @functools.cache
    def entries(t):
        def score(own):
            return payoff(t, *moves_of(player, own, opponent), player)

        diagonal = [score(e) for e in axes]
        return [
            (score(tuple(x + y for x, y in zip(axes[i], axes[j]))) - diagonal[i] - diagonal[j]) / 2 * (1 + t * t) ** 2
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]

    return [fitted_quartic(lambda t: entries(t)[k]) for k in range(3)]


def lower_bound(quartic):
    """A lower bound of the quartic sum a_k t^k on [0, T_MAX]: a_0 plus its negative terms at T_MAX."""
    return quartic[0] + sum(min(a, 0) * T_MAX**k for k, a in enumerate(quartic) if k)


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
        here, swapped = (probabilities(coefficients, *moves) for moves in ((alice, bob), (bob, alice)))
        return [(here[k] - swapped[SWAPPED[k]]) * (1 + t * t) ** 2 for k in range(4)]

    return [fitted_quartic(lambda t: gaps(t)[k]) for k in range(4)]


def test_c_strictly_dominates_d_at_maximal_entanglement_for_every_r():
    assert (1 + T_MAX) ** 2 > 2  # T_MAX > √2 − 1 = tan(pi/8)
    assert not set(FIT_TS) & set(CHECK_TS)
    quartics = {}
    for name, opponent in (("C", C), ("D", D)):
        for player in (0, 1):
            quartic = fitted_quartic(scaled_gap(opponent, player, D))
            assert lower_bound(quartic) > 0, (name, player, quartic)
            quartics[name, player] = quartic
    # The same quartics for both players: 3 + t² − 4t⁴ against C and 4 − t² − 3t⁴ against D.
    assert quartics["C", 0] == quartics["C", 1] == [3, 0, 1, 0, -4]
    assert quartics["D", 0] == quartics["D", 1] == [4, 0, -1, 0, -3]


def test_c_is_the_strict_best_reply_to_the_classical_moves_at_maximal_entanglement_for_every_r():
    # Against C and D the reply form is diagonal for every r: a unit move q scores sum A_ii q_i², with A_00, A_11
    # and A_33 the payoffs of C, D and Q. C beats D (the test above) and Q, so C is the strict best reply over the
    # whole move space: no quantum move does better against a classical one, for either player.
    for name, opponent in (("C", C), ("D", D)):
        for player in (0, 1):
            assert off_diagonal_quartics(opponent, player) == [[0] * (DEGREE + 1)] * 3, (name, player)
    # C's payoff less Q's, times (1 + t²)², is 2 − 2t⁴ against C and 5 − 5t⁴ against D, for both players: the
    # gaps are 2 cos r and 5 cos r.
    for player in (0, 1):
        quartics = [fitted_quartic(scaled_gap(opponent, player, Q)) for opponent in (C, D)]
        assert quartics == [[2, 0, 0, 0, -2], [5, 0, 0, 0, -5]], (player, quartics)
        assert all(lower_bound(quartic) > 0 for quartic in quartics), (player, quartics)


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
