"""The package's six checked records: Query, Tweet, NewsDoc, Pipeline,
RegionTable and NdcgConfig. Each is immutable, equal to and hashed like
a record of equal fields, and checks its fields once, in its
constructor, with the messages pinned here. They and CorpusSlice are
the package's only named tuples."""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from datetime import date, datetime, timedelta, timezone

import pytest

import ctvm
from ctvm.corpus import CorpusSlice, NewsDoc, Query, Tweet
from ctvm.evaluation import NdcgConfig
from ctvm.geofilter import RegionTable
from ctvm.textproc import Pipeline

UTC = timezone.utc


def tweet_fields() -> dict:
    return dict(
        id="t1",
        text="obama speaks",
        timestamp=datetime(2011, 12, 12, 8, tzinfo=UTC),
        user_location="San Jose, CA",
        region="CA",
    )


def news_fields() -> dict:
    return dict(
        id="n1",
        query_id="obama",
        engine="google",
        original_rank=1,
        title="Obama speaks",
        retrieved_date=date(2011, 12, 12),
        snippet="in Iowa",
    )


# each record's class and a function that gives its fields
RECORDS = [
    (Query, lambda: dict(id="obama", variants=("obama", "barack obama"))),
    (Tweet, tweet_fields),
    (NewsDoc, news_fields),
    (
        Pipeline,
        lambda: dict(
            stopwords=frozenset({"the", "a"}), query_terms=frozenset({"obama"})
        ),
    ),
    (RegionTable, lambda: dict(entries=(("CA", "California"), ("NY", "New York")))),
    (NdcgConfig, lambda: dict(cutoffs=(1, 3), variant="literal")),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_added(cls, fields):
    record = cls(**fields())
    for name, value in fields().items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(cls, fields):
    first, second = cls(**fields()), cls(**fields())
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    # copy and pickle rebuild a record through its constructor
    assert pickle.loads(pickle.dumps(first)) == first
    other = dict(fields())
    name = next(iter(other))
    other[name] = {
        Query: "other",
        Tweet: "t2",
        NewsDoc: "n2",
        Pipeline: frozenset({"an"}),
        RegionTable: (("TX", "Texas"),),
        NdcgConfig: (5,),
    }[cls]
    assert cls(**other) != first


@pytest.mark.parametrize(
    "cls", [Query, Tweet, NewsDoc, NdcgConfig], ids=lambda cls: cls.__name__
)
def test_named_tuple_records_equal_the_tuple_of_their_fields(cls):
    fields = dict(RECORDS)[cls]()
    record = cls(**fields)
    assert record == tuple(fields.values())
    assert record._fields == tuple(fields)
    assert cls(*record) == record


def test_named_tuples_are_the_checked_records_and_corpus_slice():
    """A named tuple in ctvm either checks its fields, as the six records
    do, or is read by field name, as CorpusSlice is; any other record is
    a plain tuple."""
    found = set()
    for info in pkgutil.iter_modules(ctvm.__path__):
        module = importlib.import_module(f"ctvm.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, tuple)
                and hasattr(value, "_fields")
                and value.__module__ == module.__name__
            ):
                found.add(value)
    assert found == {cls for cls, _ in RECORDS} | {CorpusSlice}


NAIVE = datetime(2011, 12, 12)
HOUR = timedelta(hours=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Query("", ("obama",)), "query id is empty"),
        (lambda: Query("q1", ()), "query q1 has no variants"),
        (
            lambda: Query("q1", ("obama", "")),
            "query variant must be non-empty lowercase NFC: ''",
        ),
        (
            lambda: Query("q1", ("Obama",)),
            "query variant must be non-empty lowercase NFC: 'Obama'",
        ),
        (lambda: Tweet("", "hi", NAIVE), "tweet id is empty"),
        (lambda: Tweet("t1", " \n", NAIVE), "tweet t1 has empty text"),
        (lambda: Tweet("t1", "hi", NAIVE), "tweet t1 timestamp is naive"),
        (
            lambda: Tweet("t1", "hi", datetime(1, 1, 1, tzinfo=timezone(HOUR))),
            "tweet t1 timestamp is out of range in UTC",
        ),
        (
            lambda: Tweet("t1", "hi", datetime.max.replace(tzinfo=timezone(-HOUR))),
            "tweet t1 timestamp is out of range in UTC",
        ),
        (lambda: NewsDoc("", "q", "e", 1, "T", date.min), "news id is empty"),
        (lambda: NewsDoc("n1", "", "e", 1, "T", date.min), "news n1 has no query_id"),
        (lambda: NewsDoc("n1", "q", "", 1, "T", date.min), "news n1 has no engine"),
        (
            lambda: NewsDoc("n1", "q", "e", 0, "T", date.min),
            "news n1 original_rank must be an int >= 1",
        ),
        (
            lambda: NewsDoc("n1", "q", "e", True, "T", date.min),
            "news n1 original_rank must be an int >= 1",
        ),
        (
            lambda: NewsDoc("n1", "q", "e", 1, " ", date.min),
            "news n1 has an empty title",
        ),
        (
            lambda: Pipeline(frozenset({"the"}), frozenset({"Obama"})),
            "pipeline words must be lowercase NFC: 'Obama'",
        ),
        (
            lambda: RegionTable((("CA", "California"), ("ny", "New York"))),
            "region code must be uppercase letters: 'ny'",
        ),
        (
            lambda: RegionTable((("CA", "California"), ("NY", " "))),
            "region NY has an empty full name",
        ),
        (
            lambda: RegionTable((("CA", "California"), ("CA", "Cal"))),
            "duplicate region code: CA",
        ),
        (lambda: NdcgConfig(()), "need at least one cutoff"),
        (lambda: NdcgConfig((3, 0)), "cutoffs must be ints >= 1: (3, 0)"),
        (lambda: NdcgConfig((True,)), "cutoffs must be ints >= 1: (True,)"),
        (lambda: NdcgConfig((5, 3)), "cutoffs must be strictly ascending: (5, 3)"),
        (lambda: NdcgConfig((3,), "modern"), "unknown variant: 'modern'"),
    ],
)
def test_constructor_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
