"""The package's value types: construction, validation, equality, hashing,
immutability and repr, class by class.

The classes sit on one ``__slots__`` base (``errors.Record``); these tests
pin the behaviour callers see, which is that of the equivalent dataclass.
"""

import pickle
import re
from fractions import Fraction

import pytest

from riderpoly.counting import ConfigType, CountTable
from riderpoly.errors import MoveSetError
from riderpoly.geometry import BoardPolygon, Configuration, Move, MoveSet
from riderpoly.quasipoly import Quasipolynomial
from riderpoly.verify import CheckResult, PaperSuite

SQUARE = BoardPolygon.square()
HALF = (Fraction(0), Fraction(1, 2))

# class -> (keyword arguments in field order, repr of the instance)
CASES = {
    Move: ({"c": 1, "d": -2}, "Move(c=1, d=-2)"),
    MoveSet: ({"moves": (Move(1, 0), Move(0, 1)), "name": "rook"},
              "MoveSet(moves=(Move(c=1, d=0), Move(c=0, d=1)), name='rook')"),
    Configuration: ({"positions": ((1, 2), (3, 1))},
                    "Configuration(positions=((1, 2), (3, 1)))"),
    CountTable: ({"piece": "queen", "board": SQUARE, "q": 2,
                  "rows": {3: 8}, "method": "reconstruction"},
                 "CountTable(piece='queen', board=BoardPolygon('square'), q=2, "
                 "rows={3: 8}, method='reconstruction')"),
    ConfigType: ({"left": ((2,), (0,))}, "ConfigType(left=((2,), (0,)))"),
    Quasipolynomial: ({"degree": 1, "period": 2, "constituents": (HALF, HALF)},
                      "Quasipolynomial(degree=1, period=2, constituents="
                      "((Fraction(0, 1), Fraction(1, 2)), "
                      "(Fraction(0, 1), Fraction(1, 2))))"),
    CheckResult: ({"name": "1. check", "passed": False,
                   "expected_failure": True, "detail": "why"},
                  "CheckResult(name='1. check', passed=False, "
                  "expected_failure=True, detail='why')"),
    PaperSuite: ({"board": SQUARE, "_cache": {"k": 1}},
                 "PaperSuite(board=BoardPolygon('square'), _cache={'k': 1})"),
}
FROZEN = [Move, MoveSet, Configuration, ConfigType, Quasipolynomial]
MUTABLE = [CountTable, CheckResult, PaperSuite]
ALL = FROZEN + MUTABLE


def make(cls):
    return cls(**CASES[cls][0])


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_keyword_and_positional_construction_agree(cls):
    kwargs = CASES[cls][0]
    value = cls(*kwargs.values())
    assert value == cls(**kwargs)
    assert {name: getattr(value, name) for name in kwargs} == kwargs


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_repr(cls):
    assert repr(make(cls)) == CASES[cls][1]


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_equality_by_value_and_class(cls):
    value = make(cls)
    assert value == make(cls) and not value != make(cls)
    # Same fields in another class, or as a plain tuple, are not equal.
    twin = type("Twin", (cls,), {})(**CASES[cls][0])
    assert value != twin and twin != value
    assert value != tuple(CASES[cls][0].values())


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    value = make(cls)
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_hash_by_value_and_refuse_assignment(cls):
    value = make(cls)
    assert hash(value) == hash(make(cls))
    assert len({value, make(cls)}) == 1
    field = next(iter(CASES[cls][0]))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == CASES[cls][1]


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_values_are_unhashable(cls):
    with pytest.raises(TypeError, match="unhashable"):
        hash(make(cls))


def test_defaults():
    assert MoveSet((Move(1, 0),)).name is None
    assert CheckResult("x", True) == CheckResult("x", True, False, "")
    first, second = (CountTable("queen", SQUARE, 2) for _ in range(2))
    assert first.rows == {} and first.method == "brute_force"
    first.rows[1] = 0
    assert second.rows == {}
    suites = PaperSuite(), PaperSuite()
    assert suites[0].board == SQUARE
    suites[0]._cache["k"] = 1
    assert suites[1]._cache == {}


@pytest.mark.parametrize("build, error, message", [
    (lambda: Move(0, 0), MoveSetError, "move (0, 0) is not allowed"),
    (lambda: Move(2, 4), MoveSetError, "move (2, 4) is not in lowest terms"),
    (lambda: MoveSet(()), MoveSetError, "a piece needs at least one move"),
    (lambda: MoveSet((Move(1, 1), Move(-1, -1))), MoveSetError,
     "parallel moves: duplicate slope -1/-1"),
    (lambda: Quasipolynomial(1, 2, (HALF,)), ValueError,
     "constituent count must equal the period"),
    (lambda: Quasipolynomial(2, 1, (HALF,)), ValueError,
     "constituents must share the stated degree"),
], ids=["zero-move", "non-coprime-move", "empty-moveset", "parallel-pair",
        "constituent-count", "constituent-degree"])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
