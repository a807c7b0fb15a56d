"""The tests' exact toolkit: rational points, the exact axis moves, indicator tables and a Kraus-form reference.

The payoff entry uses only +, - and *, so on `fractions.Fraction` inputs it
computes its polynomial exactly. Rational points of the unit circle give exact
cosines and sines, rational points of the unit sphere exact unit moves,
`probabilities` reads the entry's outcome probabilities, and
`kraus_probabilities` is the protocol itself, built from its 4x4 matrices, for
the tests to compare them with by `==`.
"""

from fractions import Fraction
from functools import reduce

from unruhpd.payoff import play_entries


def circle_point(t):
    """(cos, sin) of the angle 2 atan(t), exactly for a rational t."""
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def sphere_point(u, v):
    """A move (q0, q1, q3) on the unit sphere: the inverse stereographic image of a rational (u, v)."""
    n = u * u + v * v + 1
    return 2 * u / n, 2 * v / n, (u * u + v * v - 1) / n


# The axis moves as exact coordinates (q0, q1, q3): C = I, D = i X and Q = diag(i, -i).
C, D, Q = (tuple(Fraction(int(i == k)) for i in range(3)) for k in range(3))
M_SCALED = (Fraction(0), Fraction(1), Fraction(1))  # the miracle move U(pi/2, pi/2) times sqrt 2

# Tables as their four pairs, as a PayoffTable holds them in `entries`. Each pays one outcome to Alice and one to
# Bob, in the ints 1 and 0, exact on Fractions and on floats: the entry's payoffs are those two probabilities exactly.
INDICATOR_TABLES = (
    ((1, 0), (0, 1), (0, 0), (0, 0)),
    ((0, 0), (0, 0), (1, 0), (0, 1)),
)


def probabilities(coefficients, alice, bob):
    """The entry's probabilities of CC, CD, DC, DD: its payoffs on the two indicator tables."""
    return tuple(p for table in INDICATOR_TABLES for p in play_entries(coefficients, alice, bob, table))


# Complex numbers as (real, imaginary) pairs of Fractions; 2x2 and 4x4 matrices as lists of rows.
ZERO, ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


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
