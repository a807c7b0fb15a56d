"""The one-pass constructors of PayoffTable, GameSetup and Strategy against the code they replaced.

`ParentPayoffTable`, `ParentGameSetup` and `ParentStrategy` keep the former
validation bodies verbatim: the dataclass `__post_init__` of PayoffTable and
the `object.__setattr__` `__init__` of the other two. A seeded hostile pool
goes through old and new; each call must store the same init fields (type,
value, zero sign and identity with the argument) or raise the same exception
type and message. The only differences allowed are the mended ones: where the
old code raised something other than its domain message (an int with no repr,
a mapping or a signaling NaN as a payoff pair), the new code raises a
ValueError with the domain message. A Strategy is its two angles: it stores
the parent's fields less the label, and its move coordinates `q` are those the
parent scored, `parent_coordinates`, under the label that names the move at
its angles.
"""

import copy
import dataclasses
import math
import pickle
import random
from dataclasses import dataclass

import pytest

from hostile import FLOATS, HUGE_INT, LABELS, NUMBERS, PAIR_SHAPES
from unruhpd.game import (
    _NAMED_ANGLES,
    NAMED_STRATEGIES,
    TWO_PI,
    Strategy,
    _move_entries,
    clamp_to_domain,
    safe_repr,
    validate_gamma,
)
from unruhpd.payoff import _PAYOFF_TABLE_TYPE, PAYOFF_ENTRY_MAX, PROFILE_ORDER, GameSetup, PayoffTable
from unruhpd.unruh import validate_r

SEED = 14
DRAWS = 3000

DOMAIN_MESSAGES = (
    "payoff entries must be pairs of finite numbers",
    "table must be a PayoffTable",
    "entanglement gamma must lie in",
    "acceleration parameter r must lie in",
    "strategy alpha must lie in",
    "strategy theta must lie in",
)


@dataclass(frozen=True)
class ParentPayoffTable:
    cc: tuple[float, float] = (3.0, 3.0)
    cd: tuple[float, float] = (0.0, 5.0)
    dc: tuple[float, float] = (5.0, 0.0)
    dd: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        for profile, pair in zip(PROFILE_ORDER, self.entries):
            try:  # NaN fails the comparison; math.fabs refuses complex numbers, strings and None
                ok = len(pair) == 2 and math.fabs(pair[0]) <= PAYOFF_ENTRY_MAX and math.fabs(pair[1]) <= PAYOFF_ENTRY_MAX
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise ValueError(
                    "payoff entries must be pairs of finite numbers of magnitude at most "
                    f"{PAYOFF_ENTRY_MAX!r}, got {profile.lower()}={pair!r}"
                )
            if not (type(pair) is tuple and type(pair[0]) is float and type(pair[1]) is float):
                object.__setattr__(self, profile.lower(), (float(pair[0]), float(pair[1])))

    @property
    def entries(self):
        return (self.cc, self.cd, self.dc, self.dd)


@dataclass(frozen=True)
class ParentGameSetup:
    gamma: float
    r: float
    table: PayoffTable

    def __init__(self, gamma: float, r: float, table: PayoffTable = PayoffTable()):
        object.__setattr__(self, "gamma", validate_gamma(gamma))
        object.__setattr__(self, "r", validate_r(r))
        if not isinstance(table, _PAYOFF_TABLE_TYPE):
            raise ValueError(f"table must be a PayoffTable, got {table!r}")
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class ParentStrategy:
    alpha: float
    theta: float
    label: str = "custom"

    def __init__(self, alpha: float, theta: float, label: str = "custom"):
        alpha = clamp_to_domain(alpha, TWO_PI, "strategy alpha", "[0, 2*pi]")
        theta = clamp_to_domain(theta, math.pi, "strategy theta", "[0, pi]")
        # The label picks the move that `parent_coordinates` scores, so it must agree with the angles.
        if label != "custom" and _NAMED_ANGLES.get(label) != (alpha, theta):
            raise ValueError(f"strategy label {label!r} does not name the move at alpha={alpha}, theta={theta}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "label", label)


def parent_coordinates(strategy):
    """The move coordinates the parent scored, read from the label at every play: Q gives diag(i, -i) exactly."""
    if strategy.label == "Q":
        return (0.0, 0.0, 1.0)
    return _move_entries(strategy.alpha, strategy.theta)


def stored(value):
    """What a field holds, down to the type and zero sign of every float; tables by their fields."""
    if type(value) is float:
        return float, value, math.copysign(1.0, value)
    if isinstance(value, tuple):
        return type(value), tuple(stored(v) for v in value)
    if isinstance(value, (PayoffTable, ParentPayoffTable)):
        return "table", stored(value.entries)
    return type(value), value


def outcome(cls, args, kwargs):
    """The init fields `cls(*args, **kwargs)` stores, each with whether it is the argument itself, or what it raised."""
    try:
        obj = cls(*args, **kwargs)
    except Exception as exc:  # the old code raised TypeError and KeyError too
        return "raised", type(exc), str(exc)
    names = [f.name for f in dataclasses.fields(obj) if f.init]
    given = dict(zip(names, args), **kwargs)
    fields = {name: getattr(obj, name) for name in names}
    return "built", {name: (stored(v), name in given and v is given[name]) for name, v in fields.items()}


def compare(new_cls, old_cls, calls):
    """Run every call through both classes; returns the old messages of the mended cases."""
    mended = []
    for args, kwargs in calls:
        new, old = outcome(new_cls, args, kwargs), outcome(old_cls, args, kwargs)
        if new == old:
            continue
        context = f"{new_cls.__name__}(*{safe_repr(args):.200}, **{safe_repr(kwargs):.200})"
        assert new[0] == old[0] == "raised", context
        assert new[1] is ValueError and new[2].startswith(DOMAIN_MESSAGES), context
        assert not (old[1] is ValueError and old[2].startswith(DOMAIN_MESSAGES)), context
        mended.append(f"{old[1].__name__}: {old[2]}")
    return mended


def assert_only_mended(mended, *kinds):
    assert mended, "the pool must reach the mended cases"
    assert all(m.startswith(kinds) for m in mended), sorted(set(mended))


def test_payoff_table_matches_the_parent_on_a_hostile_pool():
    rng = random.Random(SEED)
    pairs = PAIR_SHAPES + [(a, b) for a in FLOATS for b in FLOATS[::3]]
    calls = [((), {})]
    # Every shape in every position, then seeded mixes, passed positionally, by keyword or left at the default.
    for i, profile in enumerate(PROFILE_ORDER):
        calls += [((), {profile.lower(): pair}) for pair in pairs]
        calls += [((*PayoffTable().entries[:i], pair), {}) for pair in PAIR_SHAPES]
    for _ in range(DRAWS):
        chosen = [rng.choice(pairs) if rng.random() < 0.7 else rng.choice(PAIR_SHAPES[:2]) for _ in PROFILE_ORDER]
        if rng.random() < 0.5:
            calls.append((tuple(chosen), {}))
        else:
            calls.append(((), {p.lower(): v for p, v in zip(PROFILE_ORDER, chosen) if rng.random() < 0.8}))
    mended = compare(PayoffTable, ParentPayoffTable, calls)
    assert_only_mended(
        mended,
        "ValueError: Exceeds the limit (4300 digits)",
        "KeyError: ",
        "ValueError: cannot convert signaling NaN",
    )


def test_game_setup_matches_the_parent_on_a_hostile_pool():
    rng = random.Random(SEED)
    tables = [PayoffTable(), PayoffTable(cc=(1, -0.0)), None, ((3, 3),) * 4, "table", 0.5, HUGE_INT]
    calls = [((g, r), {}) for g in NUMBERS for r in NUMBERS[::4]]
    calls += [((g, r, t), {}) for g in FLOATS[:4] for r in FLOATS[:4] for t in tables]
    for _ in range(DRAWS):
        gamma, r, table = rng.choice(NUMBERS), rng.choice(NUMBERS), rng.choice(tables)
        calls.append(((gamma,), {"r": r, "table": table}) if rng.random() < 0.5 else ((gamma, r, table), {}))
    mended = compare(GameSetup, ParentGameSetup, calls)
    assert_only_mended(mended, "ValueError: Exceeds the limit (4300 digits)")


def test_strategy_matches_the_parent_on_a_hostile_pool():
    rng = random.Random(SEED)
    angles = NUMBERS + [a for pair in _NAMED_ANGLES.values() for a in pair]
    calls = [((a, t), {}) for a in NUMBERS for t in NUMBERS[::4]]
    calls += [(angles, {}) for angles in _NAMED_ANGLES.values()]
    for _ in range(DRAWS):
        alpha, theta = rng.choice(angles), rng.choice(angles)
        if rng.random() < 0.3:
            alpha, theta = rng.choice(list(_NAMED_ANGLES.values()))
        calls.append(((alpha,), {"theta": theta}) if rng.random() < 0.5 else ((alpha, theta), {}))
    names = {angles: label for label, angles in _NAMED_ANGLES.items()}
    built = named = 0
    for args, kwargs in calls:
        new, old = outcome(Strategy, args, kwargs), outcome(ParentStrategy, args, kwargs)
        if old[0] == "raised":
            assert new == old, (args, kwargs)
            continue
        assert new == ("built", {k: v for k, v in old[1].items() if k != "label"}), (args, kwargs)
        s = Strategy(*args, **kwargs)
        label = names.get((s.alpha, s.theta), "custom")
        assert set(vars(s)) == {"alpha", "theta", "q"}
        assert stored(s.q) == stored(parent_coordinates(ParentStrategy(s.alpha, s.theta, label)))
        built += 1
        named += label != "custom"
    assert built > DRAWS // 10 and named > DRAWS // 10, "the pool must build strategies, named and custom"


def test_a_strategy_takes_no_label():
    for label in LABELS:
        with pytest.raises(TypeError):
            Strategy(0.0, 0.0, label)
        with pytest.raises(TypeError):
            Strategy(0.0, 0.0, label=label)


VALUES = [
    PayoffTable(),
    PayoffTable(cc=(1, -0.0), cd=[2.5, PAYOFF_ENTRY_MAX]),
    GameSetup(0.3, 0.2),
    GameSetup(math.pi / 2, 0.0, PayoffTable.from_scalars(-0.0, 1, 2, 3)),
    Strategy(1.0, 2.0),
    NAMED_STRATEGIES["Q"],
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_values_survive_pickle_and_deepcopy_and_stay_frozen(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)
        assert stored(tuple(vars(clone).values())) == stored(tuple(vars(value).values()))
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, field)
    assert dataclasses.replace(value) == value
    assert stored(tuple(vars(dataclasses.replace(value)).values())) == stored(tuple(vars(value).values()))


def test_strategy_coordinates_take_no_part_in_repr_eq_or_hash():
    for s in [*NAMED_STRATEGIES.values(), Strategy(1.0, 2.0), Strategy(0.0, -0.0)]:
        parent = ParentStrategy(s.alpha, s.theta)
        assert repr(s) == "Strategy" + repr(parent).removeprefix("ParentStrategy").replace(", label='custom'", "")
        assert hash(s) == hash((s.alpha, s.theta))
        assert s == Strategy(s.alpha, s.theta)
    assert [f.name for f in dataclasses.fields(Strategy)] == ["alpha", "theta"]
