"""Replies to the axis moves C, D and Q as exact statements: `payoff.play_entries` on Fractions.

A player's payoff against a fixed opponent is a quadratic form q^T A q in the
player's own move coordinates q = (q0, q1, q3); the kernel is a polynomial, so
on Fractions A comes out exact. It is built here by polarization with
unnormalised probes: A_ii = score(e_i) and A_ij = (score(e_i + e_j) - A_ii -
A_jj) / 2. Against C = e0, D = e1 and Q = e3 the form is diagonal, for both
players, for the default table and for random rational tables. A unit move q
then scores sum A_ii q_i^2, so the best reply over the whole move space to C, D
or Q is the best of C, D and Q.

The abstract's claim that no quantum move does better against the classical
moves is then exact: with the default table, Q's payoff against C and against D
is at most the better classical reply's. With other tables it fails; one
pinned rational table shows Q strictly beating both classical replies, so the
claim belongs to the Prisoner's Dilemma table, not to the game.

(cos, sin) of gamma/2 and of r are the rational points `circle_point(t)` of
the angles 2 atan(t), for t in [0, 0.41] (0.41 < tan(pi/8)): gamma in
[0, pi/2] and r in [0, pi/4]. Every comparison is `==` or `<=` on Fractions.
Both sides of the diagonality check are rational functions of the seeded t and
table entries, so zeros at random points prove the identity with overwhelming
probability (Schwartz, JACM 27, 701, 1980).
"""

import random
from fractions import Fraction

from rational import C, D, M_SCALED, Q, circle_point
from unruhpd.payoff import PayoffTable, _coefficients, play_entries

SEED = 26
FORM_POINTS = 50
CLAIM_POINTS = 300

UNIT = (C, D, Q)
PLAYERS = (0, 1)  # Alice, Bob


def table_of(pairs):
    """A payoff table of exact entries: its four pairs, as a PayoffTable holds them in `entries`."""
    return tuple((Fraction(a), Fraction(b)) for a, b in pairs)


DEFAULT_TABLE = table_of(PayoffTable().entries)


def scorer(t_gamma, t_r, opponent, player, table):
    """`score(own)`: the player's exact payoff for own coordinates against `opponent`, at gamma/2 = 2 atan(t_gamma)."""
    coefficients = _coefficients(*circle_point(t_gamma), *circle_point(t_r))

    def score(own):
        moves = (own, opponent) if player == 0 else (opponent, own)
        return play_entries(coefficients, *moves, table)[player]

    return score


def off_diagonal(score):
    """The off-diagonal entries A_01, A_03, A_13 of the form with score(q) = q^T A q, by unnormalised polarization."""
    diagonal = [score(e) for e in UNIT]
    pairs = ((0, 1), (0, 2), (1, 2))
    return [(score(tuple(map(sum, zip(UNIT[i], UNIT[j])))) - diagonal[i] - diagonal[j]) / 2 for i, j in pairs]


def points(tag, count):
    """`count` seeded (t_gamma, t_r) pairs, each with a random rational table."""
    rng = random.Random(f"{SEED}-{tag}")
    for _ in range(count):
        t_gamma, t_r = (Fraction(rng.randint(0, 41), 100) for _ in "gr")
        pairs = [tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 24)) for _ in "ab") for _ in range(4)]
        yield t_gamma, t_r, table_of(pairs)


def test_the_reply_form_against_c_d_and_q_is_diagonal():
    entries = 0
    for t_gamma, t_r, random_table in points("form", FORM_POINTS):
        for table in (DEFAULT_TABLE, random_table):
            for player in PLAYERS:
                for opponent in (C, D, Q):
                    values = off_diagonal(scorer(t_gamma, t_r, opponent, player, table))
                    assert values == [0, 0, 0], (t_gamma, t_r, opponent, player, table)
                    entries += len(values)
    assert entries == FORM_POINTS * 2 * len(PLAYERS) * 3 * 3


def test_the_reply_form_against_m_is_not_diagonal():
    # The check above can fail: against the miracle move the form has an off-diagonal term.
    diagonal = 0
    for t_gamma, t_r, table in points("form", FORM_POINTS):
        for player in PLAYERS:
            diagonal += off_diagonal(scorer(t_gamma, t_r, M_SCALED, player, table)) == [0, 0, 0]
    assert diagonal < FORM_POINTS * len(PLAYERS) // 10


def test_q_does_no_better_than_the_better_classical_reply_with_the_default_table():
    cases = 0
    for t_gamma, t_r, _ in points("claim", CLAIM_POINTS):
        for player in PLAYERS:
            for opponent in (C, D):
                score = scorer(t_gamma, t_r, opponent, player, DEFAULT_TABLE)
                assert score(Q) <= max(score(C), score(D)), (t_gamma, t_r, opponent, player)
                cases += 1
    assert cases == CLAIM_POINTS * len(PLAYERS) * 2


def test_q_strictly_beats_both_classical_replies_with_another_table():
    # Found by a seeded search over random rational tables: Alice's reply to D at gamma/2 = 2 atan(23/100),
    # r = 2 atan(3/10). The claim above is a property of the Prisoner's Dilemma table.
    table = table_of([(Fraction(3, 5), Fraction(1, 4)), (4, Fraction(1, 11)), (Fraction(7, 3), Fraction(-3, 7)),
                      (-10, Fraction(-3, 5))])
    score = scorer(Fraction(23, 100), Fraction(3, 10), D, 0, table)
    assert score(Q) > score(C) and score(Q) > score(D)
