from __future__ import annotations

import json
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from ctvm.corpus import (
    CorpusSlice,
    NewsDoc,
    Query,
    Tweet,
    format_timestamp,
    ingest_tweets,
    load_news,
    load_queries,
    parse_timestamp,
    slice_corpus,
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
        parsed = parse_timestamp("2011-12-12T14:00:00+05:30")
        assert parsed == datetime(2011, 12, 12, 8, 30, tzinfo=UTC)

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
        record = {
            "id": "t1",
            "text": "first",
            "timestamp": "2011-12-12T08:00:00Z",
        }
        tweets, report = self.run(
            [record, {**record, "text": "second"}], states
        )
        assert report.duplicates == 1
        assert len(tweets) == 1
        assert tweets[0].text == "first"

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
            json.dumps(good),
            "broken",
        ]
        docs, report = load_news(lines)
        assert [d.id for d in docs] == ["n1"]
        assert vars(report) == {
            "accepted": 1,
            "malformed": 12,
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

    def test_non_string_variant_is_fatal(self):
        with pytest.raises(InputDataError):
            load_queries([json.dumps({"id": "q", "variants": ["a", 3]})])
        with pytest.raises(InputDataError, match="variants holds a lone surrogate"):
            load_queries([json.dumps({"id": "q", "variants": ["a", "b\ud800"]})])


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

    def test_empty_slice_is_fine(self):
        sliced = CorpusSlice(QUERY, "CA", DAY, "google", (), ())
        assert sliced.tweets == () and sliced.news == ()
