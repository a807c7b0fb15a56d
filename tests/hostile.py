"""Hostile values for the Python API's inputs, shared by the constructor reference test and the input-contract property."""

import math
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from unruhpd.game import NAMED_STRATEGIES
from unruhpd.payoff import PAYOFF_ENTRY_MAX, Payoffs

HUGE_INT = 10**5000  # past Python's 4300-digit limit for int -> str, so it has no repr
BEYOND_MAX = math.nextafter(PAYOFF_ENTRY_MAX, math.inf)


class FloatSubclass(float):
    pass


class TupleSubclass(tuple):
    pass


# Python, numpy float64 and float32 floats; the edges of every domain and of the payoff bound; non-finite values.
FLOATS = [
    0.0, -0.0, 0.3, 1.0, 2.5, -1.0, 5e-324,
    math.pi / 4, math.pi / 2, math.pi, 2 * math.pi, -5e-7, math.pi / 2 + 5e-7, math.pi + 1e-3,
    PAYOFF_ENTRY_MAX, -PAYOFF_ENTRY_MAX, BEYOND_MAX, -BEYOND_MAX, math.nan, math.inf, -math.inf,
    np.float64(0.7), np.float64(-0.0), np.float64(math.nan), np.float32(1.25), np.float32(3e38), np.float32(-0.0),
    FloatSubclass(0.5),
]

# Everything a caller might pass where one number is wanted.
NUMBERS = FLOATS + [
    0, 1, 3, -2, True, False, HUGE_INT, -HUGE_INT, 10**400, np.int64(2),
    Fraction(1, 3), Fraction(HUGE_INT, 3), Decimal("0.25"), Decimal("1e400"), Decimal("sNaN"),
    1j, "0.5", "nan", "", None, [], [0.5], (0.5,),
]

# Everything a caller might pass where a payoff pair is wanted.
PAIR_SHAPES = [
    (3.0, 3.0), (-0.0, 0.0), (PAYOFF_ENTRY_MAX, -PAYOFF_ENTRY_MAX), (BEYOND_MAX, 1.0), (1.0, -BEYOND_MAX),
    (math.nan, 1.0), (1.0, math.inf), (HUGE_INT, 1.0), (1.0, -HUGE_INT), (3, 3), (True, False),
    [0.0, 5.0], [1.0], Payoffs(1.0, 2.0), Payoffs(-0.0, math.nan), TupleSubclass((4.0, 0.5)),
    (1.0,), (1.0, 2.0, 3.0), (), "ab", "33", b"ab", None, 3.0, HUGE_INT,
    np.array([5.0, 0.0]), np.array([[1.0, 2.0]]), (np.float32(1.5), np.float64(-0.0)),
    {0: 1.0, 1: 2.0}, {1: 2.0, 3: 4.0}, {1.0, 2.0}, (1j, 0.0), ("3", "3"), (Decimal("sNaN"), 1.0),
]

LABELS = ["custom", "C", "D", "Q", "M", "X", "", "c", None, [], 3, HUGE_INT]

PLAYERS = ["alice", "bob", "Alice", "", None, [], 0, HUGE_INT]

SUITES = ["table2", "eq8", "eq11", "eq13", "commutators", "all", "", None, [], HUGE_INT]

# Past numpy's array-size limit: 2**61 and 2**63 - 1 float64 values do not fit one array.
GRIDS = [3, 4, 5, np.int64(4), 2, 0, -1, True, 3.0, "5", None, [], HUGE_INT, 2**61, 2**63 - 1]

PROFILES = ["CC", "CD", "DC", "DD", np.str_("DD"), "QQ", "cc", "C", "", None, [], {}, ("C", "C"), 3, HUGE_INT]

_C, _D, _Q, _M = (NAMED_STRATEGIES[k] for k in "CDQM")

# Everything a caller might pass where a strategy set is wanted: valid sets, numbers, a bare move, other containers.
STRATEGY_SETS = [
    [_C, _D], (_Q, _M), [_C, _D, _Q, _M], {_M: 1}, np.array([_Q], dtype=object),
    None, [], (), "", "CD", b"CD", 5, 0, 2.5, math.nan, HUGE_INT, _C, [_C, _C], [_C, None], [_C, 3.0], [[_C, _D]],
    {0: _C}, np.array([1.0, 2.0]), np.array([_C, _D], dtype=object),
]

# Everything a caller might pass where one move is wanted: valid moves, labels, angles and coordinates as tuples, and
# stand-ins that carry a move's attributes without being one.
MOVES = [
    _C, _Q, "C", "Q", None, 0, 2.5, math.nan, HUGE_INT, (0.0, 0.0), (1.0, 0.0, 0.0), _C.q, [_C],
    SimpleNamespace(q=(math.nan, 0.0, 0.0)), SimpleNamespace(q=(1.0, 0.0, 0.0)), SimpleNamespace(alpha=0.0, theta=0.0),
]
