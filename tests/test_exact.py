"""Exact certificates for the payoff entry: `payoff.play_entries` on rational numbers.

The entry uses only +, - and *, so on `fractions.Fraction` inputs it computes
its polynomial exactly. It reads the outcome probabilities here through
`rational.probabilities`: the entry on two indicator tables, each paying one
outcome to Alice and one to Bob. Rational points of the unit circle and of
the unit sphere give exact cosines, sines and unit moves, and every check
here is `==`: the outcome probabilities sum to exactly 1, none is negative,
they equal the Kraus-form reference `rational.kraus_probabilities`, and at
r = 0 swapping the players swaps CD and DC. gamma and r reach the entry
through `payoff._coefficients`, as in the engine.

The last test runs the engine's float path on the Fractions of its own float
inputs: that is the exact value of the same formula, so the difference is the
float result's rounding error alone. Its games include the endpoint angles
and the named moves.
"""

import math
import random
import sys
from fractions import Fraction

from rational import C, D, Q, circle_point, kraus_probabilities, probabilities, sphere_point
from unruhpd.game import GAMMA_MAX, NAMED_STRATEGIES, TWO_PI, _move_entries
from unruhpd.payoff import GameSetup, PayoffTable, _coefficients, play_entries
from unruhpd.unruh import R_MAX

GAMES = 300
EPS = sys.float_info.epsilon

AT_REST = (Fraction(1), Fraction(0))  # (cos r, sin r) at r = 0: the inertial game
NAMED_MOVES = tuple(strategy.q for strategy in NAMED_STRATEGIES.values())  # as floats: C, D, Q and M


def rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def games(seed):
    """GAMES (alice, bob, cos_g, sin_g, cos_r, sin_r) draws from `random.Random(seed)`."""
    rng = random.Random(seed)
    for k in range(GAMES):
        alice, bob = (
            rng.choice((C, D, Q)) if rng.random() < 0.2 else sphere_point(rational(rng), rational(rng)) for _ in "ab"
        )
        # gamma/2 and r run over angles up to pi/2, past their domains: the identities hold on the whole circle.
        cos_g, sin_g = circle_point(Fraction(rng.randint(0, 12), 12))
        cos_r, sin_r = AT_REST if k % 4 == 0 else circle_point(Fraction(rng.randint(0, 12), 12))
        yield alice, bob, cos_g, sin_g, cos_r, sin_r


def test_probabilities_sum_to_exactly_one_and_none_is_negative():
    for alice, bob, *trig in games(1):
        probs = probabilities(_coefficients(*trig), alice, bob)
        assert all(type(p) is Fraction for p in probs), probs
        assert sum(probs) == 1, (alice, bob, trig)
        assert min(probs) >= 0, (alice, bob, trig)


def test_probabilities_equal_the_exact_kraus_reference():
    for alice, bob, *trig in games(2):
        assert probabilities(_coefficients(*trig), alice, bob) == kraus_probabilities(alice, bob, *trig), (alice, bob)


def test_swapping_the_players_of_the_inertial_game_swaps_cd_and_dc():
    for alice, bob, cos_g, sin_g, _, _ in games(3):
        coeffs = _coefficients(cos_g, sin_g, *AT_REST)
        p_cc, p_cd, p_dc, p_dd = probabilities(coeffs, alice, bob)
        assert probabilities(coeffs, bob, alice) == (p_cc, p_dc, p_cd, p_dd), (alice, bob)


def test_the_reference_is_the_classical_game_for_classical_moves():
    # The reference's own check: unentangled and inertial, C and D score the outcome they name.
    for outcome, (alice, bob) in enumerate(((C, C), (C, D), (D, C), (D, D))):
        want = tuple(Fraction(int(k == outcome)) for k in range(4))
        assert kraus_probabilities(alice, bob, Fraction(1), Fraction(0), *AT_REST) == want


def test_float_rounding_stays_within_its_budget():
    # Float games in their domains, each scored on floats and then exactly on the Fractions of the same floats:
    # at most 3 eps per probability and 16 eps per payoff of the default table (measured here: 1.99 and 10.0 eps;
    # at most 2.12 and 11.6 eps over seeds 1 to 8).
    # gamma and r are each an endpoint of their domain half the time, and each move is a named one 30% of the time.
    rng = random.Random(4)

    def draw_angle(top):
        return rng.choice((0.0, top)) if rng.random() < 0.5 else rng.uniform(0.0, top)

    def draw_move():
        return rng.choice(NAMED_MOVES) if rng.random() < 0.3 else _move_entries(draw_angle(TWO_PI), draw_angle(math.pi))

    table = PayoffTable()
    worst_probability = worst_payoff = Fraction(0)
    for _ in range(4000):
        gamma, r, alice, bob = draw_angle(GAMMA_MAX), draw_angle(R_MAX), draw_move(), draw_move()
        trig = (math.cos(gamma / 2.0), math.sin(gamma / 2.0), math.cos(r), math.sin(r))
        exact_moves = (tuple(map(Fraction, move)) for move in (alice, bob))
        exact = probabilities(_coefficients(*map(Fraction, trig)), *exact_moves)
        for got, want in zip(probabilities(_coefficients(*trig), alice, bob), exact, strict=True):
            worst_probability = max(worst_probability, abs(Fraction(got) - want))
        for player, got in enumerate(play_entries(GameSetup(gamma, r).coefficients, alice, bob, table.entries)):
            want = sum(p * Fraction(pair[player]) for p, pair in zip(exact, table.entries))
            worst_payoff = max(worst_payoff, abs(Fraction(got) - want))
    assert worst_probability <= 3 * Fraction(EPS), float(worst_probability / Fraction(EPS))
    assert worst_payoff <= 16 * Fraction(EPS), float(worst_payoff / Fraction(EPS))
