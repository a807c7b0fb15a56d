"""Exact certificates for the payoff kernel: `payoff._probabilities` on rational numbers.

The kernel uses only +, - and *, so on `fractions.Fraction` inputs it computes
its polynomial exactly. Rational points of the unit circle and of the unit
sphere give exact cosines, sines and unit moves, and every check here is `==`:
the outcome probabilities sum to exactly 1, none is negative, they equal an
exact Kraus-form reference written below, and at r = 0 swapping the players
swaps CD and DC.
"""

import random
from fractions import Fraction
from functools import reduce

from unruhpd.payoff import _probabilities

GAMES = 300

ZERO, ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
AT_REST = (Fraction(1), Fraction(0))  # (cos r, sin r) at r = 0: the inertial game
NAMED_MOVES = [(Fraction(1), Fraction(0), Fraction(0)),  # C
               (Fraction(0), Fraction(1), Fraction(0)),  # D
               (Fraction(0), Fraction(0), Fraction(1))]  # Q = diag(i, -i)


def rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def circle_point(t):
    """(cos, sin) of the angle 2 atan(t), exactly."""
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def sphere_point(rng):
    """A move (q0, q1, q3) on the unit sphere: the inverse stereographic image of a rational (u, v)."""
    u, v = rational(rng), rational(rng)
    n = u * u + v * v + 1
    return 2 * u / n, 2 * v / n, (u * u + v * v - 1) / n


def games(seed):
    """GAMES (alice, bob, cos_g, sin_g, cos_r, sin_r) draws from `random.Random(seed)`."""
    rng = random.Random(seed)
    for k in range(GAMES):
        alice, bob = (rng.choice(NAMED_MOVES) if rng.random() < 0.2 else sphere_point(rng) for _ in "ab")
        # gamma/2 and r run over angles up to pi/2, past their domains: the identities hold on the whole circle.
        cos_g, sin_g = circle_point(Fraction(rng.randint(0, 12), 12))
        cos_r, sin_r = AT_REST if k % 4 == 0 else circle_point(Fraction(rng.randint(0, 12), 12))
        yield alice, bob, cos_g, sin_g, cos_r, sin_r


# Complex numbers as (real, imaginary) pairs of Fractions; 2x2 and 4x4 matrices as lists of rows.
def mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def kron(a, b):
    return [[mul(a[i // 2][j // 2], b[i % 2][j % 2]) for j in range(4)] for i in range(4)]


def apply(m, v):
    return [reduce(add, (mul(m[i][j], v[j]) for j in range(4)), ZERO) for i in range(4)]


def move_matrix(q):
    q0, q1, q3 = q
    return [[(q0, q3), (0, q1)], [(0, q1), (q0, -q3)]]


def kraus_probabilities(alice, bob, cos_g, sin_g, cos_r, sin_r):
    """sum_j |<k| J^dag (UA x UB)(I x K_j)|psi>|^2 for k = CC, CD, DC, DD, from the matrices themselves."""
    identity = [[ONE, ZERO], [ZERO, ONE]]
    kraus = [[[(cos_r, 0), ZERO], [ZERO, ONE]], [[ZERO, ZERO], [(sin_r, 0), ZERO]]]  # diag(cos r, 1), sin r |1><0|
    psi = [(cos_g, 0), ZERO, ZERO, (0, sin_g)]  # cos(g/2)|00> + i sin(g/2)|11>
    d1 = [[ZERO, ONE], [(-1, 0), ZERO]]
    d1d1 = kron(d1, d1)
    # J^dag = cos(g/2) I - i sin(g/2) D1 x D1
    j_dag = [[add((cos_g if i == j else 0, 0), mul((0, -sin_g), d1d1[i][j])) for j in range(4)] for i in range(4)]
    moves = kron(move_matrix(alice), move_matrix(bob))
    outcomes = [apply(j_dag, apply(moves, apply(kron(identity, k), psi))) for k in kraus]
    return tuple(sum(v[k][0] ** 2 + v[k][1] ** 2 for v in outcomes) for k in range(4))


def test_probabilities_sum_to_exactly_one_and_none_is_negative():
    for game in games(1):
        probs = _probabilities(*game)
        assert all(type(p) is Fraction for p in probs), probs
        assert sum(probs) == 1, game
        assert min(probs) >= 0, game


def test_probabilities_equal_the_exact_kraus_reference():
    for game in games(2):
        assert _probabilities(*game) == kraus_probabilities(*game), game


def test_swapping_the_players_of_the_inertial_game_swaps_cd_and_dc():
    for alice, bob, cos_g, sin_g, _, _ in games(3):
        p_cc, p_cd, p_dc, p_dd = _probabilities(alice, bob, cos_g, sin_g, *AT_REST)
        assert _probabilities(bob, alice, cos_g, sin_g, *AT_REST) == (p_cc, p_dc, p_cd, p_dd), (alice, bob)


def test_the_reference_is_the_classical_game_for_classical_moves():
    # The reference's own check: unentangled and inertial, C and D score the outcome they name.
    c, d, _ = NAMED_MOVES
    for outcome, (alice, bob) in enumerate(((c, c), (c, d), (d, c), (d, d))):
        want = tuple(Fraction(int(k == outcome)) for k in range(4))
        assert kraus_probabilities(alice, bob, Fraction(1), Fraction(0), *AT_REST) == want
