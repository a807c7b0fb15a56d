"""Exact certificates for the payoff entry: `payoff.play_entries` on rational numbers.

The entry uses only +, - and *, so on `fractions.Fraction` inputs it computes
its polynomial exactly. It reads the outcome probabilities here through two
tables of exact indicator entries, each paying one outcome to Alice and one
to Bob. Rational points of the unit circle and of the unit
sphere give exact cosines, sines and unit moves, and every check here is `==`:
the outcome probabilities sum to exactly 1, none is negative, they equal an
exact Kraus-form reference written below, and at r = 0 swapping the players
swaps CD and DC. gamma and r reach the entry through `payoff._coefficients`,
as in the engine.

The last test runs the engine's float path on the Fractions of its own float
inputs: that is the exact value of the same formula, so the difference is the
float result's rounding error alone.
"""

import math
import random
import sys
from fractions import Fraction
from functools import reduce

from rational import circle_point, sphere_point
from unruhpd.game import GAMMA_MAX, TWO_PI, _move_entries
from unruhpd.payoff import GameSetup, PayoffTable, _coefficients, play_entries
from unruhpd.unruh import R_MAX

GAMES = 300
EPS = sys.float_info.epsilon

ZERO, ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
AT_REST = (Fraction(1), Fraction(0))  # (cos r, sin r) at r = 0: the inertial game
NAMED_MOVES = [(Fraction(1), Fraction(0), Fraction(0)),  # C
               (Fraction(0), Fraction(1), Fraction(0)),  # D
               (Fraction(0), Fraction(0), Fraction(1))]  # Q = diag(i, -i)


def rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def games(seed):
    """GAMES (alice, bob, cos_g, sin_g, cos_r, sin_r) draws from `random.Random(seed)`."""
    rng = random.Random(seed)
    for k in range(GAMES):
        alice, bob = (
            rng.choice(NAMED_MOVES) if rng.random() < 0.2 else sphere_point(rational(rng), rational(rng)) for _ in "ab"
        )
        # gamma/2 and r run over angles up to pi/2, past their domains: the identities hold on the whole circle.
        cos_g, sin_g = circle_point(Fraction(rng.randint(0, 12), 12))
        cos_r, sin_r = AT_REST if k % 4 == 0 else circle_point(Fraction(rng.randint(0, 12), 12))
        yield alice, bob, cos_g, sin_g, cos_r, sin_r


# Tables as their four pairs, as a PayoffTable holds them in `entries`. Each pays one outcome to Alice and one to
# Bob, in the ints 1 and 0, exact on Fractions and on floats: the entry's payoffs are those two probabilities exactly.
INDICATOR_TABLES = (
    ((1, 0), (0, 1), (0, 0), (0, 0)),
    ((0, 0), (0, 0), (1, 0), (0, 1)),
)


def probabilities(alice, bob, cos_g, sin_g, cos_r, sin_r):
    """The entry's outcome probabilities, with gamma and r folded in by `_coefficients` as the engine folds them."""
    coeffs = _coefficients(cos_g, sin_g, cos_r, sin_r)
    return tuple(p for table in INDICATOR_TABLES for p in play_entries(coeffs, alice, bob, table))


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
        probs = probabilities(*game)
        assert all(type(p) is Fraction for p in probs), probs
        assert sum(probs) == 1, game
        assert min(probs) >= 0, game


def test_probabilities_equal_the_exact_kraus_reference():
    for game in games(2):
        assert probabilities(*game) == kraus_probabilities(*game), game


def test_swapping_the_players_of_the_inertial_game_swaps_cd_and_dc():
    for alice, bob, cos_g, sin_g, _, _ in games(3):
        p_cc, p_cd, p_dc, p_dd = probabilities(alice, bob, cos_g, sin_g, *AT_REST)
        assert probabilities(bob, alice, cos_g, sin_g, *AT_REST) == (p_cc, p_dc, p_cd, p_dd), (alice, bob)


def test_the_reference_is_the_classical_game_for_classical_moves():
    # The reference's own check: unentangled and inertial, C and D score the outcome they name.
    c, d, _ = NAMED_MOVES
    for outcome, (alice, bob) in enumerate(((c, c), (c, d), (d, c), (d, d))):
        want = tuple(Fraction(int(k == outcome)) for k in range(4))
        assert kraus_probabilities(alice, bob, Fraction(1), Fraction(0), *AT_REST) == want


def test_float_rounding_stays_within_its_budget():
    # Float games in their domains, each scored on floats and then exactly on the Fractions of the same floats:
    # at most 3 eps per probability and 16 eps per payoff of the default table (measured here: 2.13 and 10.4 eps;
    # at most 2.58 and 13.6 eps over seeds 1 to 8).
    rng = random.Random(4)
    table = PayoffTable()
    worst_probability = worst_payoff = Fraction(0)
    for _ in range(4000):
        gamma, r = rng.uniform(0.0, GAMMA_MAX), rng.uniform(0.0, R_MAX)
        alice, bob = (_move_entries(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, math.pi)) for _ in "ab")
        trig = (math.cos(gamma / 2.0), math.sin(gamma / 2.0), math.cos(r), math.sin(r))
        exact = probabilities(*(tuple(map(Fraction, move)) for move in (alice, bob)), *map(Fraction, trig))
        for got, want in zip(probabilities(alice, bob, *trig), exact, strict=True):
            worst_probability = max(worst_probability, abs(Fraction(got) - want))
        for player, got in enumerate(play_entries(GameSetup(gamma, r).coefficients, alice, bob, table.entries)):
            want = sum(p * Fraction(pair[player]) for p, pair in zip(exact, table.entries))
            worst_payoff = max(worst_payoff, abs(Fraction(got) - want))
    assert worst_probability <= 3 * Fraction(EPS), float(worst_probability / Fraction(EPS))
    assert worst_payoff <= 16 * Fraction(EPS), float(worst_payoff / Fraction(EPS))
