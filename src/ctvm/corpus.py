"""Corpus records and loaders: tweets, news results, queries, slices.

Input files are JSONL. Loaders are lenient per record (a bad line is
counted and dropped, never fatal) except for queries, which are few and
load strictly. A "slice" is the working unit downstream: one query, one
region, one day, one engine's ranked results, plus every tweet from
that region and day whose text mentions the query.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from datetime import date, datetime, timezone
from types import SimpleNamespace

from .errors import InputDataError
from .geofilter import RegionTable
from .textproc import lower_nfc, tokenize


# The one syntax for dates and timestamps, whatever fromisoformat takes
# on the running Python: YYYY-MM-DD dates, and RFC 3339 timestamps with
# an offset, "T", "t" or a space before the time and a fraction of any
# length. ASCII digits only, as [0-9] says and \d would not.
_DATE_RE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
_TIMESTAMP_RE = re.compile(
    "([0-9]{4}-[0-9]{2}-[0-9]{2}[Tt ][0-9]{2}:[0-9]{2}:[0-9]{2})"
    "(?:[.]([0-9]+))?([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])"
)


def parse_date(value: str) -> date:
    """A YYYY-MM-DD date."""
    if not _DATE_RE.fullmatch(value):
        raise ValueError(f"not a YYYY-MM-DD date: {value!r}")
    return date.fromisoformat(value)


def parse_timestamp(value: str) -> datetime:
    """An RFC 3339 timestamp with a required UTC offset ('Z' accepted),
    at that offset. A fraction is cut to microseconds: digits past the
    sixth are dropped, so 3.10's fromisoformat gets exactly six."""
    match = _TIMESTAMP_RE.fullmatch(value.strip())
    if match is None:
        raise ValueError(f"not RFC 3339 with a UTC offset: {value!r}")
    text, fraction, offset = match.groups()
    if fraction:
        text += "." + fraction[:6].ljust(6, "0")
    return datetime.fromisoformat(text + ("+00:00" if offset in "Zz" else offset))


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


class Query(namedtuple("Query", "id variants")):
    """A query and its mention variants, each lowercase in NFC
    (lower_nfc), the form matches compares tweet text in."""

    __slots__ = ()

    def __new__(cls, id: str, variants: tuple[str, ...]) -> Query:
        if not id:
            raise ValueError("query id is empty")
        if not variants:
            raise ValueError(f"query {id} has no variants")
        for v in variants:
            if not v or v != lower_nfc(v):
                raise ValueError(
                    f"query variant must be non-empty lowercase NFC: {v!r}"
                )
        return tuple.__new__(cls, (id, variants))

    def terms(self) -> frozenset[str]:
        """Lowercase tokens across all variants, for vector exclusion."""
        out: set[str] = set()
        for v in self.variants:
            out.update(tokenize(v))
        return frozenset(out)

    def matches(self, text: str) -> bool:
        """Whether text holds a variant, compared as tokenize compares
        them, in lower_nfc form."""
        return self.mentioned_in(lower_nfc(text))

    def mentioned_in(self, lowered: str) -> bool:
        """Whether text already in lower_nfc form holds a variant."""
        # a loop rather than any(): tweet_pools calls this once per
        # (tweet, query), and any() would build a generator each time
        for v in self.variants:
            if v in lowered:
                return True
        return False


class Tweet(namedtuple("Tweet", "id text timestamp user_location region")):
    __slots__ = ()

    def __new__(
        cls,
        id: str,
        text: str,
        timestamp: datetime,
        user_location: str = "",
        region: str | None = None,
    ) -> Tweet:
        if not id:
            raise ValueError("tweet id is empty")
        if not text.strip():
            raise ValueError(f"tweet {id} has empty text")
        if timestamp.tzinfo is None:
            raise ValueError(f"tweet {id} timestamp is naive")
        try:
            timestamp = timestamp.astimezone(timezone.utc)
        except OverflowError:
            raise ValueError(f"tweet {id} timestamp is out of range in UTC")
        return tuple.__new__(cls, (id, text, timestamp, user_location, region))

    def day(self) -> date:
        return self.timestamp.date()


class NewsDoc(
    namedtuple(
        "NewsDoc", "id query_id engine original_rank title retrieved_date snippet"
    )
):
    __slots__ = ()

    def __new__(
        cls,
        id: str,
        query_id: str,
        engine: str,
        original_rank: int,
        title: str,
        retrieved_date: date,
        snippet: str = "",
    ) -> NewsDoc:
        if not id:
            raise ValueError("news id is empty")
        if not query_id:
            raise ValueError(f"news {id} has no query_id")
        if not engine:
            raise ValueError(f"news {id} has no engine")
        if isinstance(original_rank, bool) or original_rank < 1:
            raise ValueError(f"news {id} original_rank must be an int >= 1")
        if not title.strip():
            raise ValueError(f"news {id} has an empty title")
        return tuple.__new__(
            cls, (id, query_id, engine, original_rank, title, retrieved_date, snippet)
        )


# One (query, region, day, engine) cell of the corpus. slice_corpus
# builds it: news is the engine's full contiguous top-k for that cell;
# tweets are ordered by (timestamp, id) so later summations are
# reproducible.
CorpusSlice = namedtuple("CorpusSlice", "query region day engine tweets news")


def slice_corpus(
    tweets: Iterable[Tweet],
    news: Iterable[NewsDoc],
    query: Query,
    region: str,
    day: date,
    engine: str,
) -> CorpusSlice:
    """Select and order one slice's tweets and news. This is the one
    place that decides slice membership; it raises InputDataError unless
    the engine's news for the cell ranks 1..k with distinct news ids."""
    docs = [
        n
        for n in news
        if n.query_id == query.id and n.engine == engine and n.retrieved_date == day
    ]
    docs.sort(key=lambda n: n.original_rank)
    seen: set[str] = set()
    for position, doc in enumerate(docs, start=1):
        if doc.original_rank != position:
            raise InputDataError(
                f"news for {query.id}/{engine}/{day} is not a contiguous top-k "
                f"list: saw rank {doc.original_rank} at position {position}"
            )
        if doc.id in seen:
            raise InputDataError(
                f"news for {query.id}/{engine}/{day} repeats news id {doc.id}"
            )
        seen.add(doc.id)
    picked = [
        t
        for t in tweets
        if t.region == region and t.day() == day and query.matches(t.text)
    ]
    picked.sort(key=lambda t: (t.timestamp, t.id))
    return CorpusSlice(query, region, day, engine, tuple(picked), tuple(docs))


def tweet_pools(
    tweets: Iterable[Tweet], queries: Sequence[Query], regions: Iterable[str]
) -> dict[tuple[str, str, date], list[Tweet]]:
    """Each (query id, region, day)'s tweets, in input order: the tweets
    from one of regions on that day whose text mentions the query. One
    pass lowers each such tweet's text once and files the tweet under
    every query it mentions, so a pool is the tweets slice_corpus picks
    for its cell, and slice_corpus can take it in place of every tweet."""
    wanted = frozenset(regions)
    pools: dict[tuple[str, str, date], list[Tweet]] = {}
    for tweet in tweets:
        region = tweet.region
        if region not in wanted:
            continue
        day = tweet.day()
        lowered = lower_nfc(tweet.text)
        for query in queries:
            if query.mentioned_in(lowered):
                pools.setdefault((query.id, region, day), []).append(tweet)
    return pools


def _record_lines(lines: Iterable[str]) -> Iterable[tuple[int, str]]:
    """(physical line number, stripped text) for each non-blank line."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped:
            yield lineno, stripped


_SURROGATE = re.compile("[\ud800-\udfff]")
_raw_decode = json.JSONDecoder().raw_decode


def _decode(raw: str) -> object:
    """json.loads(raw) for a stripped line, without its two whitespace
    scans: raw_decode reads the value, and the end check raises
    json.loads's "Extra data" error at the same position. A line with a
    leading BOM goes through json.loads itself, which names the BOM."""
    if raw.startswith("\ufeff"):
        return json.loads(raw)
    value, end = _raw_decode(raw)
    if end != len(raw):
        pos = len(raw) - len(raw[end:].lstrip(" \t\n\r"))
        raise json.JSONDecodeError("Extra data", raw, pos)
    return value


def _parse_record(raw: str, fields: dict[str, type]) -> dict:
    """The JSON object on one input line, checked against its required
    fields: each must be present with exactly the declared type (True
    and 2.0 are not int), and a str field must be non-empty. No string,
    also in a list, may hold a lone surrogate, which UTF-8 output cannot
    encode; only a \\u escape or a non-ASCII line can carry one, and
    scanning no other line keeps eval_s on local3 and longtail about a
    fifth lower. Raises ValueError naming the first field that fails."""
    try:
        record = _decode(raw)
    except RecursionError:
        raise ValueError("JSON nested too deeply")
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    for name, kind in fields.items():
        value = record.get(name)
        if type(value) is not kind or (kind is str and not value):
            what = "a non-empty string" if kind is str else f"of type {kind.__name__}"
            raise ValueError(f"{name} must be {what}")
    if "\\u" in raw or not raw.isascii():
        for name, value in record.items():
            for text in value if type(value) is list else (value,):
                if type(text) is str and _SURROGATE.search(text):
                    raise ValueError(f"{name} holds a lone surrogate")
    return record


def _optional_str(record: dict, name: str) -> str:
    """An optional field's text, "" when it is absent or null; any other
    value that is not a string (0, false, []) is malformed."""
    value = record.get(name)
    if value is not None and type(value) is not str:
        raise ValueError(f"{name} must be a string or null")
    return value or ""


_TWEET_FIELDS = dict(id=str, text=str, timestamp=str)
_NEWS_FIELDS = dict(
    id=str, query_id=str, engine=str, title=str, retrieved_date=str, original_rank=int
)
_QUERY_FIELDS = dict(id=str, variants=list)


def ingest_tweets(
    lines: Iterable[str],
    regions: RegionTable,
    *,
    loose_abbrev: bool = False,
    max_text_len: int = 280,
) -> tuple[list[Tweet], SimpleNamespace]:
    """Parse tweet JSONL and attach a region to each record.

    Malformed lines and duplicate ids are dropped and counted. Tweets
    whose location resolves to no region are kept (region None) so the
    caller can still count them; slicing filters them out naturally.
    Records that already carry a "region" key (this function's own
    output does) keep it untouched, which makes ingestion idempotent.
    """
    report = SimpleNamespace(accepted=0, malformed=0, duplicates=0, region_unresolved=0)
    tweets: dict[str, Tweet] = {}
    for _, raw in _record_lines(lines):
        try:
            record = _parse_record(raw, _TWEET_FIELDS)
            text = record["text"]
            if len(text) > max_text_len:
                raise ValueError("text too long")
            timestamp = parse_timestamp(record["timestamp"])
            location = _optional_str(record, "user_location")
            if "region" in record:
                region = record["region"]
                if region is not None and (
                    not isinstance(region, str) or region not in regions
                ):
                    raise ValueError("region not in the table")
            else:
                region = regions.resolve(location, loose_abbrev=loose_abbrev)
            tweet = Tweet(record["id"], text, timestamp, location, region)
        except ValueError:
            report.malformed += 1
            continue
        if tweets.setdefault(tweet.id, tweet) is not tweet:
            report.duplicates += 1
        elif region is None:
            report.region_unresolved += 1
    report.accepted = len(tweets)
    return list(tweets.values()), report


def load_news(lines: Iterable[str]) -> tuple[list[NewsDoc], SimpleNamespace]:
    report = SimpleNamespace(accepted=0, malformed=0, duplicates=0)
    docs: dict[str, NewsDoc] = {}
    for _, raw in _record_lines(lines):
        try:
            record = _parse_record(raw, _NEWS_FIELDS)
            doc = NewsDoc(
                record["id"],
                record["query_id"],
                record["engine"],
                record["original_rank"],
                record["title"],
                parse_date(record["retrieved_date"]),
                _optional_str(record, "snippet"),
            )
        except ValueError:
            report.malformed += 1
            continue
        if docs.setdefault(doc.id, doc) is not doc:
            report.duplicates += 1
    report.accepted = len(docs)
    return list(docs.values()), report


def load_queries(lines: Iterable[str]) -> list[Query]:
    """Queries load strictly: any bad record is fatal."""
    queries: dict[str, Query] = {}
    for lineno, raw in _record_lines(lines):
        try:
            record = _parse_record(raw, _QUERY_FIELDS)
            variants = record["variants"]
            if not all(isinstance(v, str) for v in variants):
                raise ValueError("variants must be a list of strings")
            query = Query(record["id"], tuple(lower_nfc(v).strip() for v in variants))
        except ValueError as exc:
            raise InputDataError(f"bad query record on line {lineno}: {exc}")
        if queries.setdefault(query.id, query) is not query:
            raise InputDataError(f"duplicate query id: {query.id}")
    return list(queries.values())
