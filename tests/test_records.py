"""The contract of every record type: how it is built, compared, hashed, copied
and pickled, which ones are immutable, and which arguments they reject."""

import copy
import pickle
import weakref
from array import array

import pytest

from reprokit import report, stats
from reprokit.effectiveness import MeasureConfig, TopicScoreVector
from reprokit.effects import EffectSummary
from reprokit.errors import ConfigError
from reprokit.meta import MeasureRanking
from reprokit.ordering import FullDepth, RboParams
from reprokit.trec_io import Qrels, Ranking, Run, topic_intersection

from conftest import make_qrels, make_run

_RANKING = Ranking(("d2", "d1"), array("d", [2.0, 1.0]))

# (type, fields in order): each record is built from these by position and by keyword
RECORDS = [
    (Ranking, {"doc_ids": ("d2", "d1"), "scores": array("d", [2.0, 1.0])}),
    (Run, {"tag": "sys", "topics": {"1": _RANKING}, "warnings": ["w"]}),
    (Qrels, {"topics": {"1": {"d1": 2}}, "warnings": ["w"]}),
    (FullDepth, {"tau": {"1": 0.5}, "rbo": {"1": 0.25}, "docs": {"1": (("d1",), ("d1",))},
                 "params": RboParams(0.9, 5)}),
    (MeasureConfig, {"measure": "nDCG", "cutoff": 10}),
    (TopicScoreVector, {"measure": "AP", "run_tag": "sys", "scores": {"1": 0.25, "2": 0.5}}),
    (EffectSummary, {"er": 0.9, "ri": 0.2, "ri_prime": 0.1, "delta_ri": 0.1, "region": "1",
                     "dist": 0.1414}),
    (MeasureRanking, {"measure_id": "rmse_AP", "run_ids": ("a", "b"), "badness": (0.1, 0.2)}),
    (RboParams, {"phi": 0.9, "depth": 100}),
    (stats.TestResult, {"t_stat": 2.0, "dof": 49.0, "p_value": 0.05, "warning": None}),
]
OTHER = {Qrels: {"2": {"d1": 1}}}  # Qrels filters the topics it is given, so "other" must be a map
FROZEN = [(cls, fields) for cls, fields in RECORDS if cls not in (Run, Qrels)]
# the value records the README lists; FullDepth is internal to ordering
VALUE_RECORDS = [(cls, fields) for cls, fields in FROZEN if cls is not FullDepth]


def _cases(records):
    """One case per record type, named by the type alone."""
    return [pytest.param(cls, fields, id=cls.__name__) for cls, fields in records]


@pytest.mark.parametrize("cls, fields", _cases(RECORDS))
def test_built_by_position_or_keyword_equals_by_value(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert by_keyword == cls(**copy.deepcopy(fields))
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
    if cls not in (MeasureConfig, RboParams):  # these reject "other"
        assert cls(**{**fields, next(iter(fields)): OTHER.get(cls, "other")}) != by_keyword


@pytest.mark.parametrize("cls, fields", _cases(RECORDS))
def test_pickle_and_deepcopy_round_trip(cls, fields):
    record = cls(**fields)
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(again) is cls
        assert again == record
        assert again is not record


@pytest.mark.parametrize("cls, fields", _cases([(MeasureConfig, {"measure": "P", "cutoff": 5}),
                                                 (RboParams, {"phi": 0.5, "depth": 7})]))
def test_dict_keys_hash_by_value(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert hash(pickle.loads(pickle.dumps(a))) == hash(a)


@pytest.mark.parametrize("cls, fields", _cases(FROZEN))
def test_frozen_records_reject_assignment(cls, fields):
    record = cls(**fields)
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(fields)))
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields", _cases(VALUE_RECORDS))
def test_value_records_are_tuples(cls, fields):
    record = cls(**fields)
    assert tuple(record) == tuple(fields.values())
    assert record == tuple(fields.values())
    *_, last = record
    assert last == list(fields.values())[-1]


def test_defaults():
    assert RboParams() == RboParams(0.8, 1000)
    assert RboParams(0.5).depth == 1000
    assert stats.TestResult(1.0, 2.0, 0.5).warning is None
    assert MeasureConfig("AP", 100).label == "AP@100"


@pytest.mark.parametrize("build, error, message", [
    (lambda: MeasureConfig("P", 0), ConfigError, "cutoff must be >= 1, got 0"),
    (lambda: MeasureConfig(measure="MAP", cutoff=10), ConfigError, "unknown measure 'MAP'"),
    (lambda: RboParams(1.5), ConfigError, "phi must be in (0,1), got 1.5"),
    (lambda: RboParams(phi=0.0), ConfigError, "phi must be in (0,1), got 0.0"),
    (lambda: RboParams(depth=0), ConfigError, "depth must be >= 1, got 0"),
    (lambda: report.emit({}, "xml"), ConfigError,
     "unknown format 'xml'; expected one of ('json', 'csv', 'table')"),
])
def test_invalid_arguments_raise(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_missing_or_extra_arguments_raise_type_error():
    for build in (lambda: MeasureConfig("P"), lambda: RboParams(0.5, 10, 1),
                  lambda: FullDepth({}), lambda: Run("sys")):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("build", [lambda: Run("sys", {}), lambda: Run(tag="sys", topics={}),
                                   lambda: Qrels({}), lambda: Qrels(topics={})])
def test_each_run_and_qrels_gets_its_own_warnings(build):
    first, second = build(), build()
    assert first.warnings == [] and first.warnings is not second.warnings
    first.warnings.append("w")
    assert second.warnings == []


def test_run_and_qrels_are_mutable_weak_referenceable_and_unhashable():
    run, qrels = Run("sys", {}), Qrels({})
    refs = [weakref.ref(run), weakref.ref(qrels)]
    run.tag = "renamed"
    qrels.topics["1"] = {"d": 1}
    assert (run.tag, qrels.topics["1"].get("d", 0)) == ("renamed", 1)
    for record in (run, qrels):
        with pytest.raises(TypeError):
            hash(record)
    del run, qrels, record
    assert [r() for r in refs] == [None, None]


def test_topic_set_iterates_its_ids():
    run = make_run("sys", {"3": ["d"], "1": ["d"], "2": ["d"]})
    topics = topic_intersection(run, make_qrels({"3": {"d": 1}, "1": {"d": 2}, "2": {"d": 0}}))
    assert type(topics) is tuple and topics == ("1", "3")
    assert {topics: "x"}[("1", "3")] == "x"


def test_repr_names_each_field():
    assert repr(Qrels({})) == "Qrels(topics={}, warnings=[])"
    assert repr(MeasureConfig("P", 5)) == "MeasureConfig(measure='P', cutoff=5)"
