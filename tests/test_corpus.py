from __future__ import annotations

import json
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import assume, example, given, strategies as st

from ctvm.corpus import (
    CorpusSlice,
    NewsDoc,
    Query,
    Tweet,
    _parse_record,
    format_timestamp,
    ingest_tweets,
    load_news,
    load_queries,
    parse_date,
    parse_timestamp,
    slice_corpus,
    tweet_pools,
)
from ctvm.errors import InputDataError
from ctvm.textproc import lower_nfc, tokenize

UTC = timezone.utc
DAY = date(2011, 12, 12)


def make_tweet(tid="t1", text="obama news", hour=12, region="CA", **kw):
    return Tweet(
        id=tid,
        text=text,
        timestamp=datetime(2011, 12, 12, hour, tzinfo=UTC),
        region=region,
        **kw,
    )


def make_news(nid="n1", rank=1, **kw):
    args = dict(
        id=nid,
        query_id="obama",
        engine="google",
        original_rank=rank,
        title="Obama speaks",
        retrieved_date=DAY,
    )
    args.update(kw)
    return NewsDoc(**args)


class TestTimestamps:
    def test_z_suffix(self):
        parsed = parse_timestamp("2011-12-12T08:30:00Z")
        assert parsed == datetime(2011, 12, 12, 8, 30, tzinfo=UTC)

    def test_lowercase_z(self):
        assert parse_timestamp("2011-12-12T08:30:00z").tzinfo == UTC

    def test_offset_converted_to_utc(self):
        """parse_timestamp keeps the offset as written; Tweet stores the
        time in UTC."""
        parsed = parse_timestamp("2011-12-12T14:00:00+05:30")
        assert parsed.hour == 14
        assert parsed.utcoffset() == timedelta(hours=5, minutes=30)
        stored = Tweet("t1", "x", parsed).timestamp
        assert (stored.hour, stored.minute, stored.tzinfo) == (8, 30, UTC)

    def test_naive_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            parse_timestamp("2011-12-12T08:30:00")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("last tuesday")

    def test_format_round_trip(self):
        text = "2011-12-12T08:30:00Z"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_format_normalizes_offset(self):
        parsed = parse_timestamp("2011-12-12T14:00:00+05:30")
        assert format_timestamp(parsed) == "2011-12-12T08:30:00Z"


class TestOneSyntax:
    """Dates and timestamps take the README's grammar on every supported
    Python, whatever its own fromisoformat accepts."""

    @pytest.mark.parametrize(
        "text, microsecond",
        [
            ("2011-12-12T08:00:00.5+00:00", 500000),
            ("2011-12-12T08:00:00.1234+00:00", 123400),
            ("2011-12-12T08:00:00.123456789Z", 123456),
            ("2011-12-12t08:00:00.000001z", 1),
            ("2011-12-12 09:00:00+01:00", 0),
            ("2011-12-12T08:00:00-00:00", 0),
        ],
    )
    def test_rfc3339_timestamp_accepted(self, text, microsecond):
        expected = datetime(2011, 12, 12, 8, 0, 0, microsecond, tzinfo=UTC)
        assert parse_timestamp(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "2011-12-12x08:00:00+00:00",
            "20111212T080000+0000",
            "2011-12-12T08:00:00+0000",
            "2011-12-12T08:00+00:00",
            "2011-12-12T08:00:00,5+00:00",
            "2011-12-12T08:00:00.+00:00",
            "2011-12-12T08:00:00+05:60",
            "2011-12-12T08:00:00+00:00:00",
            "\uff12011-12-12T08:00:00Z",
        ],
    )
    def test_other_timestamps_rejected(self, text):
        with pytest.raises(ValueError, match="not RFC 3339 with a UTC offset"):
            parse_timestamp(text)

    @pytest.mark.parametrize(
        "text", ["20111212", "2011-W50-1", "2011-346", "\u0662011-12-12", " 2011-12-12"]
    )
    def test_only_yyyy_mm_dd_dates(self, text):
        with pytest.raises(ValueError, match="not a YYYY-MM-DD date"):
            parse_date(text)
        record = dict(
            id="n1",
            query_id="q",
            engine="e",
            original_rank=1,
            title="T",
            retrieved_date=text,
        )
        good = {**record, "id": "n2", "retrieved_date": "2011-12-12"}
        docs, report = load_news([json.dumps(record), json.dumps(good)])
        assert [(d.id, d.retrieved_date) for d in docs] == [("n2", DAY)]
        assert report.malformed == 1


class TestQuery:
    def test_terms_tokenize_all_variants(self):
        q = Query(id="obama", variants=("obama", "barack obama's"))
        assert q.terms() == frozenset({"obama", "barack", "s"})

    def test_matches_any_variant_case_insensitive(self):
        q = Query(id="tax", variants=("tax plan", "taxes"))
        assert q.matches("new TAX PLAN unveiled")
        assert q.matches("raising Taxes again")
        assert not q.matches("revenue bill")

    def test_uppercase_variant_rejected(self):
        with pytest.raises(ValueError, match="lowercase"):
            Query(id="x", variants=("Obama",))

    @pytest.mark.parametrize("variant", ["cafe\u0301", "j\u030cx"])
    def test_variant_not_in_nfc_rejected(self, variant):
        # matches compares text in NFC, where such a variant never occurs
        with pytest.raises(ValueError, match="lowercase"):
            Query(id="x", variants=(variant,))

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="query id is empty"):
            Query(id="", variants=("obama",))

    def test_empty_variants_rejected(self):
        with pytest.raises(ValueError):
            Query(id="x", variants=())


class TestRecordValidation:
    def test_tweet_naive_timestamp_rejected(self):
        with pytest.raises(ValueError, match="naive"):
            Tweet(id="t1", text="hi", timestamp=datetime(2011, 12, 12))

    def test_tweet_timestamp_normalized_to_utc(self):
        tz = timezone(timedelta(hours=-8))
        t = Tweet(
            id="t1",
            text="hi",
            timestamp=datetime(2011, 12, 12, 23, 0, tzinfo=tz),
        )
        assert t.timestamp.tzinfo == UTC
        assert t.day() == date(2011, 12, 13)

    def test_tweet_empty_id_rejected(self):
        with pytest.raises(ValueError, match="tweet id is empty"):
            make_tweet(tid="")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("id", "news id is empty"),
            ("query_id", "has no query_id"),
            ("engine", "has no engine"),
        ],
    )
    def test_news_empty_key_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            make_news(**{field: ""})

    def test_tweet_blank_text_rejected(self):
        with pytest.raises(ValueError, match="text"):
            make_tweet(text="   ")

    def test_news_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            make_news(rank=0)

    def test_news_bool_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            make_news(rank=True)

    def test_news_empty_title_rejected(self):
        with pytest.raises(ValueError, match="title"):
            make_news(title=" ")


class TestIngestTweets:
    def run(self, records, states, **kw):
        lines = [json.dumps(r) if isinstance(r, dict) else r for r in records]
        return ingest_tweets(lines, states, **kw)

    def test_accepts_and_resolves(self, states):
        tweets, report = self.run(
            [
                {
                    "id": "t1",
                    "text": "obama speech",
                    "timestamp": "2011-12-12T08:00:00Z",
                    "user_location": "San Jose, CA",
                }
            ],
            states,
        )
        assert vars(report) == {
            "accepted": 1,
            "malformed": 0,
            "duplicates": 0,
            "region_unresolved": 0,
        }
        assert tweets[0].region == "CA"

    def test_unresolved_location_kept_and_counted(self, states):
        tweets, report = self.run(
            [
                {
                    "id": "t1",
                    "text": "obama speech",
                    "timestamp": "2011-12-12T08:00:00Z",
                    "user_location": "the moon",
                }
            ],
            states,
        )
        assert report.accepted == 1
        assert report.region_unresolved == 1
        assert tweets[0].region is None

    def test_malformed_lines_counted(self, states):
        base = {"id": "ok", "text": "x", "timestamp": "2011-12-12T08:00:00Z"}
        bad = [
            "not json",
            '["a", "list"]',
            json.dumps({"id": "t2", "text": "no timestamp"}),
            json.dumps({**base, "id": "t3", "timestamp": "2011-12-12T08:00:00"}),
            json.dumps({**base, "id": "t4", "text": "y" * 281}),
            json.dumps({**base, "id": "t5", "text": "   "}),
            json.dumps({**base, "id": "t6", "user_location": 7}),
            json.dumps({**base, "id": "t7", "region": 3}),
            json.dumps({**base, "id": "t8", "region": ""}),
            json.dumps({**base, "id": "t9", "timestamp": 123}),
            json.dumps({**base, "id": "t10", "timestamp": "9999-12-31T23:00:00-10:00"}),
            json.dumps({**base, "id": "t11", "region": "ZZ"}),
            "[" * 100_000,
            json.dumps({**base, "id": "t12", "text": "obama \ud800"}),
            json.dumps({**base, "id": "t13", "user_location": "Austin \udfff"}),
        ]
        # an escaped surrogate pair is one valid code point
        pair = {**base, "id": "pair", "text": "x \U0001f600"}
        assert "\\ud83d\\ude00" in json.dumps(pair)
        lines = [json.dumps(base), json.dumps(pair), *bad, ""]
        tweets, report = self.run(lines, states)
        assert report.accepted == 2
        assert report.malformed == 15
        assert [t.id for t in tweets] == ["ok", "pair"]
        assert tweets[1].text == "x \U0001f600"

    @pytest.mark.parametrize("location", [0, False, [], {}, True, 5])
    def test_non_string_location_is_malformed(self, states, location):
        base = {"id": "t1", "text": "x", "timestamp": "2011-12-12T08:00:00Z"}
        tweets, report = self.run([{**base, "user_location": location}], states)
        assert tweets == []
        assert report.malformed == 1

    @pytest.mark.parametrize("record", [{}, {"user_location": None}])
    def test_absent_or_null_location_reads_empty(self, states, record):
        base = {"id": "t1", "text": "x", "timestamp": "2011-12-12T08:00:00Z"}
        tweets, report = self.run([{**base, **record}], states)
        assert report.accepted == 1
        assert tweets[0].user_location == ""

    def test_exact_280_chars_accepted(self, states):
        tweets, report = self.run(
            [
                {
                    "id": "t1",
                    "text": "y" * 280,
                    "timestamp": "2011-12-12T08:00:00Z",
                }
            ],
            states,
        )
        assert report.accepted == 1 and report.malformed == 0

    def test_max_text_len_option(self, states):
        record = {
            "id": "t1",
            "text": "y" * 150,
            "timestamp": "2011-12-12T08:00:00Z",
        }
        _, report = self.run([record], states, max_text_len=140)
        assert report.malformed == 1

    def test_duplicate_ids_counted_first_wins(self, states):
        """Of interleaved repeats, the first record of each id is kept, in
        file order; a dropped repeat counts as a duplicate, not as
        unresolved."""
        record = {
            "id": "t1",
            "text": "first",
            "timestamp": "2011-12-12T08:00:00Z",
        }
        moon = {"user_location": "the moon"}
        tweets, report = self.run(
            [
                record,
                {**record, "id": "t2", **moon},
                {**record, "text": "second"},
                {**record, "id": "t3", "user_location": "Austin, TX"},
                {**record, "id": "t2", "text": "second", **moon},
                {**record, "text": "third", **moon},
            ],
            states,
        )
        assert [(t.id, t.text) for t in tweets] == [
            ("t1", "first"), ("t2", "first"), ("t3", "first")
        ]
        assert vars(report) == {
            "accepted": 3,
            "malformed": 0,
            "duplicates": 3,
            "region_unresolved": 2,
        }

    def test_blank_text_is_malformed_before_the_duplicate_check(self, states):
        record = {"id": "t1", "text": "obama", "timestamp": "2011-12-12T08:00:00Z"}
        tweets, report = self.run([{**record, "text": "  "}, record], states)
        assert vars(report) == {
            "accepted": 1,
            "malformed": 1,
            "duplicates": 0,
            "region_unresolved": 1,
        }
        # the loader builds each record with Tweet, so rebuilding one changes nothing
        assert [Tweet(*t) for t in tweets] == tweets

    def test_preset_region_passes_through(self, states):
        tweets, _ = self.run(
            [
                {
                    "id": "t1",
                    "text": "x",
                    "timestamp": "2011-12-12T08:00:00Z",
                    "user_location": "San Jose, CA",
                    "region": "TX",
                }
            ],
            states,
        )
        assert tweets[0].region == "TX"

    def test_preset_null_region_not_rescanned(self, states):
        tweets, report = self.run(
            [
                {
                    "id": "t1",
                    "text": "x",
                    "timestamp": "2011-12-12T08:00:00Z",
                    "user_location": "San Jose, CA",
                    "region": None,
                }
            ],
            states,
        )
        assert tweets[0].region is None
        assert report.region_unresolved == 1

    def test_idempotent_on_own_output(self, states):
        first, _ = self.run(
            [
                {
                    "id": "t1",
                    "text": "obama",
                    "timestamp": "2011-12-12T08:00:00Z",
                    "user_location": "NYC",
                }
            ],
            states,
            loose_abbrev=True,
        )
        enriched = [
            json.dumps(
                {
                    "id": t.id,
                    "text": t.text,
                    "timestamp": format_timestamp(t.timestamp),
                    "user_location": t.user_location,
                    "region": t.region,
                }
            )
            for t in first
        ]
        # strict second pass must not undo the loose resolution
        second, report = ingest_tweets(enriched, states)
        assert second == first
        assert report.region_unresolved == 0

    def test_loose_abbrev_forwarded(self, states):
        record = {
            "id": "t1",
            "text": "x",
            "timestamp": "2011-12-12T08:00:00Z",
            "user_location": "NYC",
        }
        strict, _ = self.run([record], states)
        loose, _ = self.run([record], states, loose_abbrev=True)
        assert strict[0].region is None
        assert loose[0].region == "NY"


class TestLoadNews:
    def test_interleaved_duplicates_keep_the_first_of_each_id(self):
        first = {
            "id": "n1",
            "query_id": "obama",
            "engine": "google",
            "original_rank": 1,
            "title": "first",
            "retrieved_date": "2011-12-12",
        }
        lines = [
            first,
            {**first, "id": "n2", "original_rank": 2},
            {**first, "title": "second"},
            {**first, "id": "n3", "original_rank": 3},
            {**first, "id": "n2", "title": "second"},
        ]
        docs, report = load_news(map(json.dumps, lines))
        assert [(d.id, d.original_rank, d.title) for d in docs] == [
            ("n1", 1, "first"), ("n2", 2, "first"), ("n3", 3, "first")
        ]
        assert vars(report) == {"accepted": 3, "malformed": 0, "duplicates": 2}

    def test_lenient_and_counted(self):
        good = {
            "id": "n1",
            "query_id": "obama",
            "engine": "google",
            "original_rank": 1,
            "title": "Obama speaks",
            "retrieved_date": "2011-12-12",
        }
        lines = [
            json.dumps(good),
            json.dumps({**good, "id": "n2", "original_rank": 0}),
            json.dumps({**good, "id": "n3", "original_rank": True}),
            json.dumps({**good, "id": "n4", "retrieved_date": "12/12/2011"}),
            json.dumps({**good, "id": "n5", "snippet": 9}),
            json.dumps({**good, "id": "n6", "title": 5}),
            json.dumps({**good, "id": "n7", "engine": ["x"]}),
            json.dumps({**good, "id": 5}),
            json.dumps({**good, "id": "n8", "original_rank": 1.0}),
            json.dumps({**good, "id": "n9\ud800"}),
            json.dumps({**good, "id": "n10", "title": "Obama \udc00 speaks"}),
            json.dumps({**good, "id": "n11", "snippet": "\udbff"}, ensure_ascii=False),
            json.dumps({**good, "id": "n12", "title": "   "}),
            json.dumps(good),
            "broken",
        ]
        docs, report = load_news(lines)
        assert [d.id for d in docs] == ["n1"]
        assert vars(report) == {
            "accepted": 1,
            "malformed": 13,
            "duplicates": 1,
        }

    @pytest.mark.parametrize("snippet", [0, False, [], {}, True, 5])
    def test_non_string_snippet_is_malformed(self, snippet):
        record = {
            "id": "n1",
            "query_id": "q",
            "engine": "g",
            "original_rank": 1,
            "title": "T",
            "retrieved_date": "2011-12-12",
            "snippet": snippet,
        }
        docs, report = load_news([json.dumps(record)])
        assert docs == []
        assert report.malformed == 1

    def test_snippet_defaults_empty(self):
        docs, _ = load_news(
            [
                json.dumps(
                    {
                        "id": "n1",
                        "query_id": "q",
                        "engine": "g",
                        "original_rank": 1,
                        "title": "T",
                        "retrieved_date": "2011-12-12",
                        "snippet": None,
                    }
                )
            ]
        )
        assert docs[0].snippet == ""


class TestLoadQueries:
    def test_loads_and_normalizes(self):
        queries = load_queries(
            [json.dumps({"id": "obama", "variants": ["Obama", " BARACK "]})]
        )
        assert queries[0].variants == ("obama", "barack")

    def test_bad_record_is_fatal(self):
        with pytest.raises(InputDataError, match="line 1"):
            load_queries([json.dumps({"id": "q"})])

    def test_bad_record_names_physical_line(self):
        good = json.dumps({"id": "q", "variants": ["q"]})
        with pytest.raises(InputDataError, match="line 4"):
            load_queries([good, "", "  ", json.dumps({"id": "r"})])

    def test_duplicate_id_is_fatal(self):
        line = json.dumps({"id": "q", "variants": ["q"]})
        with pytest.raises(InputDataError, match="duplicate"):
            load_queries([line, line])

    @given(
        st.one_of(
            st.text(min_size=1, max_size=12),
            # cased letters, their marks and spaces, where folding is subtle
            st.text(
                st.sampled_from(
                    "J\u01f0jI\u0130i\u03a3\u03c3\u03c2\u00c5 \u0301\u030c\u0307\u030a"
                ),
                min_size=1,
                max_size=8,
            ),
        ).filter(str.strip)
    )
    def test_any_non_blank_variant_loads(self, variant):
        (query,) = load_queries([json.dumps({"id": "q", "variants": [variant]})])
        assert query.variants == (lower_nfc(variant).strip(),)
        # the loader folds each variant, then builds the record with Query
        assert Query(*query) == query

    def test_non_string_variant_is_fatal(self):
        with pytest.raises(InputDataError):
            load_queries([json.dumps({"id": "q", "variants": ["a", 3]})])
        with pytest.raises(InputDataError, match="variants holds a lone surrogate"):
            load_queries([json.dumps({"id": "q", "variants": ["a", "b\ud800"]})])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def record_lines(draw) -> str:
    """A stripped input line: a JSON object, then maybe whitespace (JSON's
    and not) and extra data, maybe cut short, maybe after a BOM."""
    value = draw(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4))
    text = json.dumps(value, ensure_ascii=draw(st.booleans()))
    text += draw(st.text(" \t\n\r\x0c\xa0", max_size=3))
    text += draw(
        st.sampled_from(["", "x", "]", "}", ",", "1", "null", '"s"'])
        | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2).map(json.dumps)
    )
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.strip()


def outcome(parse, raw: str) -> tuple:
    try:
        return "value", parse(raw)
    except ValueError as exc:
        return "error", str(exc)


def parse_with_json_loads(raw: str) -> dict:
    record = json.loads(raw)
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    return record


class TestParseRecord:
    # "bad ranking row on line N: ..." and "bad query record on line N:
    # ..." print the decoder's message, so it must be json.loads's
    @given(record_lines())
    def test_decode_agrees_with_json_loads(self, raw):
        assume(raw)
        assert outcome(lambda r: _parse_record(r, {}), raw) == outcome(
            parse_with_json_loads, raw
        )


QUERY = Query(id="obama", variants=("obama",))


class TestSliceCorpus:
    def test_filters_region_day_and_mention(self):
        tweets = [
            make_tweet("t1"),
            make_tweet("t2", region="NY"),
            make_tweet("t3", text="no mention here"),
            Tweet(
                id="t4",
                text="obama again",
                timestamp=datetime(2011, 12, 13, 0, 30, tzinfo=UTC),
                region="CA",
            ),
        ]
        sliced = slice_corpus(tweets, [make_news()], QUERY, "CA", DAY, "google")
        assert [t.id for t in sliced.tweets] == ["t1"]

    @pytest.mark.parametrize("variant", ["caf\u00e9", "cafe\u0301", "CAFE\u0301"])
    def test_mention_matches_in_any_normal_form(self, variant):
        # é precomposed (NFC) and as e + combining acute (NFD) tokenize
        # alike, so a query mentioned either way must pick both
        texts = ["caf\u00e9 opens", "cafe\u0301 opens", "CAFE\u0301 OPENS"]
        assert len({tuple(tokenize(text)) for text in texts}) == 1
        (query,) = load_queries([json.dumps({"id": "cafe", "variants": [variant]})])
        tweets = [make_tweet(f"t{i}", text=text) for i, text in enumerate(texts)]
        sliced = slice_corpus(tweets, [], query, "CA", DAY, "google")
        assert [t.id for t in sliced.tweets] == ["t0", "t1", "t2"]

    @pytest.mark.parametrize("variant", ["\u01f0x", "J\u030cx"])
    def test_mention_matches_in_any_case(self, variant):
        # J + caron has no precomposed capital; lowered, it is U+01F0
        (query,) = load_queries([json.dumps({"id": "jx", "variants": [variant]})])
        tweets = [
            make_tweet("t0", text="J\u030cx today"),
            make_tweet("t1", text="\u01f0x today"),
        ]
        sliced = slice_corpus(tweets, [], query, "CA", DAY, "google")
        assert [t.id for t in sliced.tweets] == ["t0", "t1"]

    def test_day_boundary_uses_utc(self):
        # 01:00+02:00 is 23:00 UTC the previous day
        tz = timezone(timedelta(hours=2))
        tweets = [
            Tweet(
                id="t1",
                text="obama",
                timestamp=datetime(2011, 12, 12, 1, 0, tzinfo=tz),
                region="CA",
            )
        ]
        sliced = slice_corpus(tweets, [make_news()], QUERY, "CA", DAY, "google")
        assert sliced.tweets == ()
        earlier = slice_corpus(
            tweets, [], QUERY, "CA", date(2011, 12, 11), engine="google"
        )
        assert [t.id for t in earlier.tweets] == ["t1"]

    def test_tweets_ordered_by_timestamp_then_id(self):
        tweets = [
            make_tweet("t9", hour=10),
            make_tweet("t2", hour=8),
            make_tweet("t1", hour=10),
        ]
        sliced = slice_corpus(tweets, [make_news()], QUERY, "CA", DAY, "google")
        assert [t.id for t in sliced.tweets] == ["t2", "t1", "t9"]

    def test_news_sorted_by_rank(self):
        news = [make_news("n2", rank=2), make_news("n1", rank=1)]
        sliced = slice_corpus([], news, QUERY, "CA", DAY, "google")
        assert [n.id for n in sliced.news] == ["n1", "n2"]

    def test_multiple_engines_need_explicit_choice(self):
        news = [make_news("n1"), make_news("n2", engine="bing")]
        sliced = slice_corpus([], news, QUERY, "CA", DAY, engine="bing")
        assert [n.id for n in sliced.news] == ["n2"]

    def test_other_days_and_queries_excluded(self):
        news = [
            make_news(),
            make_news("n2", retrieved_date=date(2011, 12, 13)),
            make_news("n3", query_id="taxes"),
        ]
        sliced = slice_corpus([], news, QUERY, "CA", DAY, "google")
        assert [n.id for n in sliced.news] == ["n1"]


class TestSliceInvariants:
    def test_gap_in_ranks_rejected(self):
        news = [make_news("n1", rank=1), make_news("n3", rank=3)]
        with pytest.raises(
            InputDataError,
            match="obama/google/2011-12-12 is not a contiguous top-k list: "
            "saw rank 3 at position 2",
        ):
            slice_corpus([], news, QUERY, "CA", DAY, "google")

    def test_repeated_news_id_rejected(self):
        news = [make_news("n1", rank=1), make_news("n1", rank=2)]
        with pytest.raises(
            InputDataError, match="obama/google/2011-12-12 repeats news id n1"
        ):
            slice_corpus([], news, QUERY, "CA", DAY, "google")

    def test_empty_slice_is_fine(self):
        sliced = CorpusSlice(QUERY, "CA", DAY, "google", (), ())
        assert sliced.tweets == () and sliced.news == ()


# Pieces of query variants and tweet texts: "b" and "ab" are each a
# substring of a longer piece, and the non-ASCII ones lower or compose
# only in lower_nfc form (NFD e + acute, a capital J + caron with no
# precomposed capital, sharp s, dotted capital I).
PIECES = ("a", "b", "ab", "aba", "caf\u00e9", "e\u0301", "\u01f0", "\u00df", " ")
TEXT_PIECES = PIECES + ("A", "AB", "CAFE\u0301", "J\u030c", "\u0130", "x")
POOL_REGIONS = ("CA", "NY", "TX")


@st.composite
def pool_inputs(draw) -> tuple[list[Tweet], list[Query], list[str]]:
    variants = st.lists(st.sampled_from(PIECES), min_size=1, max_size=3).map(
        lambda parts: lower_nfc("".join(parts)).strip()
    ).filter(bool)
    queries = [
        Query(f"q{i}", tuple(draw(st.lists(variants, min_size=1, max_size=3))))
        for i in range(draw(st.integers(1, 4)))
    ]
    texts = st.lists(st.sampled_from(TEXT_PIECES), min_size=1, max_size=6).map(
        "".join
    ).filter(str.strip)
    tweets = [
        Tweet(
            f"t{i}",
            draw(texts),
            # 21:00 to 01:00 UTC, so the tweets fall on two days
            datetime(2011, 12, 12, 23, tzinfo=UTC)
            + timedelta(hours=draw(st.integers(-2, 2))),
            region=draw(st.sampled_from(POOL_REGIONS + (None,))),
        )
        for i in range(draw(st.integers(0, 12)))
    ]
    regions = draw(st.lists(st.sampled_from(POOL_REGIONS), min_size=1, unique=True))
    return tweets, queries, regions


class TestTweetPools:
    """tweet_pools files each tweet once per query it mentions; each pool
    must be exactly a full scan's picks for its cell, in input order,
    since slice_corpus re-checks a pool but cannot see a dropped tweet."""

    @example(
        (
            [
                make_tweet("t1", text="AB and CAFE\u0301"),
                make_tweet("t2", text="nothing here"),
                make_tweet("t3", text="ab", region=None),
                make_tweet("t4", text="ab", region="TX"),
                make_tweet("t5", text="B", hour=13),
            ],
            [
                Query("long", ("ab",)),
                Query("short", ("b",)),
                Query("cafe", ("zz", "caf\u00e9")),
            ],
            ["CA", "NY"],
        )
    )
    @given(pool_inputs())
    def test_each_pool_is_a_full_scans_picks(self, inputs):
        tweets, queries, regions = inputs
        pools = tweet_pools(tweets, queries, regions)
        days = {t.day() for t in tweets}
        expected = {
            (q.id, r, d): [
                t
                for t in tweets
                if t.region == r and t.day() == d and q.matches(t.text)
            ]
            for q in queries
            for r in regions
            for d in days
        }
        assert pools == {cell: picks for cell, picks in expected.items() if picks}
        for (query_id, region, day), pool in pools.items():
            (query,) = (q for q in queries if q.id == query_id)
            assert slice_corpus(pool, [], query, region, day, "google") == (
                slice_corpus(tweets, [], query, region, day, "google")
            )
