"""The package's record classes: construction, equality, hashing, frozenness
and repr, pinned as literal texts so that the records behave the same
whatever machinery defines them."""
from fractions import Fraction

import pytest

from schursample.oracle import BijectionReport, Support
from schursample.partitions import MayaWindow
from schursample.render import RenderStyle
from schursample.rng import EntropyLedger
from schursample.sampler import ProcessSample, SampleStats
from schursample.symmetric import SymmetricSample
from schursample.tilings import DominoTiling, HeightMatrix, OverpartitionTableau
from schursample.unbounded import (
    ParamSeq,
    PyramidalParameters,
    PyramidalSample,
    WordConvention,
)
from schursample.words import Rel, ShapePlan, parse_word
from schursample.zfun import ZValue

LR = parse_word("<>")
SEQ = ParamSeq("geometric", (), 0.5, 0.25)
PARAMS = PyramidalParameters(SEQ, SEQ)
CONV = WordConvention((Rel.LV, Rel.LH), (Rel.RH, Rel.RV), "pyramid")

# (class, its fields in order with one value each, frozen, repr)
CASES = [
    (MayaWindow, {"offset": -3, "cells": (True, False)}, True,
     "MayaWindow(offset=-3, cells=(True, False))"),
    (RenderStyle, {"model": "lozenge", "scale": 3.5}, True,
     "RenderStyle(model='lozenge', scale=3.5)"),
    (EntropyLedger, {"geometric_draws": 2, "bernoulli_draws": 5}, False,
     "EntropyLedger(geometric_draws=2, bernoulli_draws=5)"),
    (SampleStats, {"boxes": 4, "work": 9}, False, "SampleStats(boxes=4, work=9)"),
    (ProcessSample,
     {"word": LR, "z": (0.5, 0.5), "seed": 7, "lambdas": ((), (1,), ()),
      "rng_algorithm": "mt19937", "stats": SampleStats(1, 2), "draw_log": [("geometric", 0.25, 1)]},
     False,
     "ProcessSample(word=(Rel('<'), Rel('>')), z=(0.5, 0.5), seed=7, lambdas=((), (1,), ()), "
     "rng_algorithm='mt19937', stats=SampleStats(boxes=1, work=2), "
     "draw_log=[('geometric', 0.25, 1)])"),
    (SymmetricSample,
     {"word": parse_word("<"), "z": (0.5,), "t": 1, "mode": "free", "seed": None,
      "lambdas": ((), (1,), ()), "rng_algorithm": "mt19937"},
     False,
     "SymmetricSample(word=(Rel('<'),), z=(0.5,), t=1, mode='free', seed=None, "
     "lambdas=((), (1,), ()), rng_algorithm='mt19937')"),
    (HeightMatrix, {"shape": (2, 1), "rows": ((0, 1), (2,))}, True,
     "HeightMatrix(shape=(2, 1), rows=((0, 1), (2,)))"),
    (DominoTiling, {"word": LR, "window": (-3, 3), "dominoes": ((0, 1, True, 1),)}, False,
     "DominoTiling(word=(Rel('<'), Rel('>')), window=(-3, 3), dominoes=((0, 1, True, 1),))"),
    (OverpartitionTableau, {"shape": (1,), "rows": (((2, True),),)}, True,
     "OverpartitionTableau(shape=(1,), rows=(((2, True),),))"),
    (ParamSeq, {"kind": "finite", "values": (0.5, 0.25), "coeff": 1.0, "ratio": 0.5}, True,
     "ParamSeq(kind='finite', values=(0.5, 0.25), coeff=1.0, ratio=0.5)"),
    (PyramidalParameters, {"a": SEQ, "b": ParamSeq("finite", (0.5,))}, True,
     "PyramidalParameters(a=ParamSeq(kind='geometric', values=(), coeff=0.5, ratio=0.25), "
     "b=ParamSeq(kind='finite', values=(0.5,), coeff=0.0, ratio=0.0))"),
    (WordConvention, {"left": (Rel.LH, Rel.LH), "right": (Rel.RH, Rel.RV), "name": "mixed"}, True,
     "WordConvention(left=(Rel('<'), Rel('<')), right=(Rel('>'), Rel(\">'\")), name='mixed')"),
    (PyramidalSample,
     {"lambdas": {0: (1,)}, "params": PARAMS, "convention": CONV, "seed": 3,
      "truncation_index": None},
     False,
     "PyramidalSample(lambdas={0: (1,)}, params=PyramidalParameters("
     "a=ParamSeq(kind='geometric', values=(), coeff=0.5, ratio=0.25), "
     "b=ParamSeq(kind='geometric', values=(), coeff=0.5, ratio=0.25)), "
     "convention=WordConvention(left=(Rel(\"<'\"), Rel('<')), right=(Rel('>'), Rel(\">'\")), "
     "name='pyramid'), seed=3, truncation_index=None)"),
    (ShapePlan,
     {"word": LR, "pi": (1,), "x": (0.5,), "y": (0.25,), "u": (Rel.LH,), "v": (Rel.RH,)},
     True,
     "ShapePlan(word=(Rel('<'), Rel('>')), pi=(1,), x=(0.5,), y=(0.25,), "
     "u=(Rel('<'),), v=(Rel('>'),))"),
    (ZValue, {"finite": True, "exact": Fraction(1, 2), "log": -0.5}, True,
     "ZValue(finite=True, exact=Fraction(1, 2), log=-0.5)"),
    (Support,
     {"word": LR, "z": (Fraction(1, 2), 1), "cap": 4, "free": None, "tail_bound": Fraction(0)},
     False,
     "Support(word=(Rel('<'), Rel('>')), z=(Fraction(1, 2), 1), cap=4, free=None, "
     "tail_bound=Fraction(0, 1))"),
    (BijectionReport, {"checked": 3, "hit_targets": 2, "counterexamples": ["x"]}, False,
     "BijectionReport(checked=3, hit_targets=2, counterexamples=['x'])"),
]

# (class, the required arguments, repr with every default)
DEFAULTS = [
    (RenderStyle, (), "RenderStyle(model='domino', scale=12.0)"),
    (EntropyLedger, (), "EntropyLedger(geometric_draws=0, bernoulli_draws=0)"),
    (SampleStats, (), "SampleStats(boxes=0, work=0)"),
    (ProcessSample, (LR, (1, 1), None, ((), (), ())),
     "ProcessSample(word=(Rel('<'), Rel('>')), z=(1, 1), seed=None, lambdas=((), (), ()), "
     "rng_algorithm='mt19937', stats=None, draw_log=None)"),
    (SymmetricSample, ((), (), 1, "free", 0, ((),)),
     "SymmetricSample(word=(), z=(), t=1, mode='free', seed=0, lambdas=((),), "
     "rng_algorithm='mt19937')"),
    (ParamSeq, ("finite",), "ParamSeq(kind='finite', values=(), coeff=0.0, ratio=0.0)"),
    (WordConvention, ((Rel.LH, Rel.LH), (Rel.RH, Rel.RH)),
     "WordConvention(left=(Rel('<'), Rel('<')), right=(Rel('>'), Rel('>')), name='custom')"),
    (ZValue, (False,), "ZValue(finite=False, exact=None, log=None)"),
    (BijectionReport, (), "BijectionReport(checked=0, hit_targets=0, counterexamples=[])"),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, frozen, text", CASES, ids=IDS)
def test_a_record_is_made_by_position_and_by_keyword(cls, fields, frozen, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert repr(by_position) == repr(by_keyword) == text
    for name, value in fields.items():
        assert getattr(by_position, name) is value
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls, required, text", DEFAULTS, ids=[c[0].__name__ for c in DEFAULTS])
def test_a_record_fills_its_defaults(cls, required, text):
    assert repr(cls(*required)) == text


def test_a_default_list_is_not_shared():
    a, b = BijectionReport(), BijectionReport()
    a.counterexamples.append("x")
    assert b.counterexamples == []


@pytest.mark.parametrize("cls, fields, frozen, text", CASES, ids=IDS)
def test_records_compare_by_class_and_fields(cls, fields, frozen, text):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert a != tuple(fields.values()) and not a == tuple(fields.values())
    first, value = next(iter(fields.items()))
    other = cls(**{**fields, first: (value, "other")})
    assert a != other and not a == other


def test_records_of_another_class_with_the_same_fields_differ():
    shape, rows = (1,), ((1,),)
    assert HeightMatrix(shape, rows) != OverpartitionTableau(shape, rows)
    assert not HeightMatrix(shape, rows) == OverpartitionTableau(shape, rows)
    assert SampleStats(1, 2) != EntropyLedger(1, 2)
    assert not SampleStats(1, 2) == EntropyLedger(1, 2)


@pytest.mark.parametrize("cls, fields, frozen, text", CASES, ids=IDS)
def test_frozen_records_hash_and_refuse_assignment(cls, fields, frozen, text):
    a, b = cls(**fields), cls(**fields)
    name = next(iter(fields))
    if not frozen:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, "changed")
        assert getattr(a, name) == "changed" and a != b
        return
    assert hash(a) == hash(b) and len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, name, "changed")
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert getattr(a, name) is fields[name] and a == b


def test_mutable_counters_count():
    stats, ledger = SampleStats(), EntropyLedger()
    stats.boxes += 2
    stats.work += 3
    ledger.bernoulli_draws += 4
    assert (stats.boxes, stats.work, ledger.total) == (2, 3, 4)


def test_a_frozen_plan_caches_its_row_kinds():
    plan = ShapePlan(LR, (1,), (0.5,), (0.25,), (Rel.LH,), (Rel.RH,))
    assert plan.row_kinds == [["HH"]] and plan.row_kinds is plan.row_kinds
    assert plan == ShapePlan(LR, (1,), (0.5,), (0.25,), (Rel.LH,), (Rel.RH,))
