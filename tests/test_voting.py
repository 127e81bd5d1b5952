from __future__ import annotations

from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

import ctvm.voting
from ctvm.corpus import CorpusSlice, NewsDoc, Query, Tweet, slice_corpus
from ctvm.errors import ContractViolation, EmptySliceError
from ctvm.similarity import MODE_COMMON_SET, MODE_FULL_COSINE, cosine
from ctvm.textproc import Pipeline, to_vector
from ctvm.voting import engine_ranking, news_text, rerank, vote

from oracles import formula_cosine, naive_rerank, naive_votes

UTC = timezone.utc
DAY = date(2011, 12, 12)
QUERY = Query(id="obama", variants=("obama",))
VOTE_TOL = 1e-9


def make_tweet(tid, text, hour=12):
    return Tweet(
        id=tid,
        text=text,
        timestamp=datetime(2011, 12, 12, hour, tzinfo=UTC),
        region="CA",
    )


def make_news(nid, rank, title, snippet=""):
    return NewsDoc(
        id=nid,
        query_id="obama",
        engine="google",
        original_rank=rank,
        title=title,
        retrieved_date=DAY,
        snippet=snippet,
    )


def make_slice(tweets, news):
    return CorpusSlice(QUERY, "CA", DAY, "google", tuple(tweets), tuple(news))


# same texts as tests/data/golden; expected votes derived by hand there
WORKSHEET_NEWS = (
    make_news("n-vac", 1, "Obama vacation photos from Hawaii"),
    make_news("n-speech", 2, "Obama speech praises new jobs report"),
    make_news("n-tax", 3, "Obama tax plan stalls in congress"),
)

WORKSHEET_TWEETS = (
    make_tweet("t1", "Obama tax plan is a bad plan", 8),
    make_tweet("t2", "Obama's tax plan splits congress", 9),
    make_tweet("t3", "Hawaii vacation photos of Obama look amazing", 10),
    make_tweet("t4", "Obama speech on jobs report today", 11),
    make_tweet("t5", "RT Obama tax speech today", 13),
)


class TestNewsText:
    def test_title_only_by_default(self):
        doc = make_news("n1", 1, "Title here", snippet="Snippet there")
        assert news_text(doc) == "Title here"

    def test_snippet_appended_on_request(self):
        doc = make_news("n1", 1, "Title here", snippet="Snippet there")
        assert news_text(doc, include_snippet=True) == "Title here Snippet there"

    def test_empty_snippet_adds_nothing(self):
        doc = make_news("n1", 1, "Title here")
        assert news_text(doc, include_snippet=True) == "Title here"


class TestVote:
    def test_worksheet_scenario(self, obama_pipeline):
        votes = vote(make_slice(WORKSHEET_TWEETS, WORKSHEET_NEWS), obama_pipeline)
        assert tuple(votes) == ("n-vac", "n-speech", "n-tax")
        assert tuple(votes.values()) == pytest.approx(
            (1.0, 2.0, 2.948683298050514), abs=VOTE_TOL
        )

    def test_no_tweets_means_zero_votes(self, obama_pipeline):
        votes = vote(make_slice((), WORKSHEET_NEWS), obama_pipeline)
        assert votes == {"n-vac": 0.0, "n-speech": 0.0, "n-tax": 0.0}

    def test_no_news_raises(self, obama_pipeline):
        with pytest.raises(EmptySliceError):
            vote(make_slice(WORKSHEET_TWEETS, ()), obama_pipeline)

    def test_tweet_reduced_to_nothing_contributes_nothing(self, obama_pipeline):
        # every term is the query or a stopword, so the vector is empty
        tweets = (make_tweet("t1", "obama is the and of"),)
        votes = vote(make_slice(tweets, WORKSHEET_NEWS), obama_pipeline)
        assert votes == {"n-vac": 0.0, "n-speech": 0.0, "n-tax": 0.0}

    def test_include_snippet_changes_votes(self, obama_pipeline):
        news = (make_news("n1", 1, "Obama speaks", snippet="tax cut plan"),)
        tweets = (make_tweet("t1", "obama tax cut plan"),)
        bare = vote(make_slice(tweets, news), obama_pipeline)
        rich = vote(
            make_slice(tweets, news), obama_pipeline, include_snippet=True
        )
        assert bare == {"n1": 0.0}
        assert rich == {"n1": 1.0}

    @pytest.mark.parametrize(
        "tweets",
        [WORKSHEET_TWEETS, (make_tweet("t1", "obama is the and of"),)],
        ids=["scoring tweets", "tweets all vectorize empty"],
    )
    def test_unknown_sim_mode_raises_before_scoring(
        self, tweets, obama_pipeline, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            ctvm.voting, "to_vector", lambda *args: calls.append(args) or {}
        )
        with pytest.raises(ValueError, match="unknown similarity mode"):
            vote(
                make_slice(tweets, WORKSHEET_NEWS),
                obama_pipeline,
                sim_mode="cosine",
            )
        assert calls == []

    def test_sim_mode_forwarded(self, obama_pipeline):
        news = (make_news("n1", 1, "Obama tax cut plan for winter"),)
        tweets = (make_tweet("t1", "obama tax hike"),)
        common = vote(make_slice(tweets, news), obama_pipeline)
        full = vote(
            make_slice(tweets, news), obama_pipeline, sim_mode=MODE_FULL_COSINE
        )
        assert common["n1"] == 1.0
        assert 0.0 < full["n1"] < 1.0


class TestRanking:
    def test_ids(self):
        """A ranking is the plain tuple of its news ids, best first."""
        news = [make_news("nA", 1, "A"), make_news("nB", 2, "B")]
        corpus_slice = make_slice((), news)
        assert engine_ranking(corpus_slice) == ("nA", "nB")
        ranking = rerank(corpus_slice, {"nA": 0.0, "nB": 1.0})
        assert type(ranking) is tuple and ranking == ("nB", "nA")


class TestRerank:
    def test_engine_ranking_follows_original_rank(self):
        news = [make_news("n2", 2, "B"), make_news("n1", 1, "A")]
        corpus_slice = slice_corpus((), news, QUERY, "CA", DAY, "google")
        assert engine_ranking(corpus_slice) == ("n1", "n2")

    def test_descending_votes(self):
        news = [
            make_news("nA", 1, "A"),
            make_news("nB", 2, "B"),
            make_news("nC", 3, "C"),
        ]
        votes = {"nA": 0.2, "nB": 0.9, "nC": 0.5}
        assert rerank(make_slice((), news), votes) == ("nB", "nC", "nA")

    def test_ties_keep_engine_order(self):
        news = [
            make_news("nA", 1, "A"),
            make_news("nB", 2, "B"),
            make_news("nC", 3, "C"),
        ]
        votes = {"nC": 0.5, "nA": 0.5, "nB": 0.5}
        assert rerank(make_slice((), news), votes) == ("nA", "nB", "nC")

    def test_all_zero_votes_reproduce_engine_order(self):
        news = [make_news(f"n{i}", i, f"T{i}") for i in range(1, 6)]
        votes = {d.id: 0.0 for d in news}
        assert rerank(make_slice((), news), votes) == tuple(d.id for d in news)

    def test_count_mismatch_rejected(self):
        news = [make_news("nA", 1, "A")]
        votes = {"nA": 0.1, "nB": 0.2}
        with pytest.raises(ContractViolation):
            rerank(make_slice((), news), votes)

    def test_id_mismatch_rejected(self):
        news = [make_news("nA", 1, "A")]
        votes = {"nX": 0.1}
        with pytest.raises(ContractViolation, match="nA"):
            rerank(make_slice((), news), votes)


WORDS = st.sampled_from(
    ["merger", "quartz", "zebra", "canyon", "meteor", "harbor", "tax"]
)
TEXTS = st.lists(WORDS, min_size=1, max_size=6).map(" ".join)


@st.composite
def slices(draw):
    n_news = draw(st.integers(min_value=1, max_value=4))
    news = tuple(
        make_news(f"n{i}", i, draw(TEXTS)) for i in range(1, n_news + 1)
    )
    n_tweets = draw(st.integers(min_value=0, max_value=5))
    tweets = tuple(
        make_tweet(f"t{i}", "obama " + draw(TEXTS), hour=6 + i)
        for i in range(n_tweets)
    )
    return make_slice(tweets, news)


class TestVoteProperties:
    @settings(max_examples=60)
    @given(
        corpus_slice=slices(),
        mode=st.sampled_from((MODE_COMMON_SET, MODE_FULL_COSINE)),
    )
    def test_matches_oracle(self, corpus_slice, mode, obama_pipeline, stopwords):
        votes = vote(corpus_slice, obama_pipeline, sim_mode=mode)
        expected = naive_votes(
            [t.text for t in corpus_slice.tweets],
            [n.title for n in corpus_slice.news],
            stopwords,
            frozenset({"obama"}),
            mode,
        )
        assert tuple(votes.values()) == pytest.approx(tuple(expected), abs=VOTE_TOL)

    @settings(max_examples=60)
    @given(corpus_slice=slices())
    def test_votes_bounded_by_tweet_count(self, corpus_slice, obama_pipeline):
        votes = vote(corpus_slice, obama_pipeline)
        for value in votes.values():
            assert 0.0 <= value <= len(corpus_slice.tweets) + VOTE_TOL

    @settings(max_examples=60)
    @given(corpus_slice=slices(), rng=st.randoms())
    def test_tweet_order_is_irrelevant(self, corpus_slice, rng, obama_pipeline):
        baseline = vote(corpus_slice, obama_pipeline)
        shuffled = list(corpus_slice.tweets)
        rng.shuffle(shuffled)
        permuted = CorpusSlice(
            corpus_slice.query,
            corpus_slice.region,
            corpus_slice.day,
            corpus_slice.engine,
            tuple(shuffled),
            corpus_slice.news,
        )
        assert tuple(vote(permuted, obama_pipeline).values()) == pytest.approx(
            tuple(baseline.values()), abs=VOTE_TOL
        )

    @settings(max_examples=60)
    @given(corpus_slice=slices(), text=TEXTS)
    def test_adding_a_tweet_never_lowers_votes(
        self, corpus_slice, text, obama_pipeline
    ):
        baseline = vote(corpus_slice, obama_pipeline)
        extra = make_tweet("t-extra", "obama " + text, hour=23)
        grown = CorpusSlice(
            corpus_slice.query,
            corpus_slice.region,
            corpus_slice.day,
            corpus_slice.engine,
            corpus_slice.tweets + (extra,),
            corpus_slice.news,
        )
        after = vote(grown, obama_pipeline)
        for before_v, after_v in zip(baseline.values(), after.values()):
            assert after_v >= before_v - VOTE_TOL

    @settings(max_examples=60)
    @given(corpus_slice=slices())
    def test_split_slice_votes_add_up(self, corpus_slice, obama_pipeline):
        # votes are a sum over tweets, so halves must sum to the whole
        half = len(corpus_slice.tweets) // 2
        first = CorpusSlice(
            corpus_slice.query,
            corpus_slice.region,
            corpus_slice.day,
            corpus_slice.engine,
            corpus_slice.tweets[:half],
            corpus_slice.news,
        )
        second = CorpusSlice(
            corpus_slice.query,
            corpus_slice.region,
            corpus_slice.day,
            corpus_slice.engine,
            corpus_slice.tweets[half:],
            corpus_slice.news,
        )
        whole = tuple(vote(corpus_slice, obama_pipeline).values())
        parts = [
            a + b
            for a, b in zip(
                vote(first, obama_pipeline).values(),
                vote(second, obama_pipeline).values(),
            )
        ]
        assert whole == pytest.approx(parts, abs=VOTE_TOL)


# stopwords, the query term, inflections that stem alike, and repeats,
# so vectors get counts above 1 and a tweet can vectorize empty
VOCAB = st.sampled_from(
    ["obama", "the", "and", "tax", "taxes", "taxing", "plan", "plans",
     "speech", "jobs", "hawaii", "report", "congress", "vacation"]
)
RAW_TEXTS = st.lists(
    VOCAB | st.text(alphabet="abcdeiorstuy", min_size=1, max_size=7),
    min_size=1,
    max_size=8,
).map(" ".join)


class TestVoteExactness:
    @settings(max_examples=80)
    @given(
        tweet_texts=st.lists(RAW_TEXTS, max_size=6),
        news_texts=st.lists(RAW_TEXTS, min_size=1, max_size=4),
        mode=st.sampled_from((MODE_COMMON_SET, MODE_FULL_COSINE)),
    )
    def test_totals_are_the_public_cosines_summed_in_tweet_order(
        self, tweet_texts, news_texts, mode, obama_pipeline
    ):
        """vote scores pairs without cosine's checks; its totals are still
        exactly the public cosine's, added in tweet order, and the
        per-pair callee at ctvm.voting.cosine sees every scored pair."""
        news = tuple(
            make_news(f"n{i}", i, text)
            for i, text in enumerate(news_texts, start=1)
        )
        tweets = tuple(
            make_tweet(f"t{i}", text, hour=i) for i, text in enumerate(tweet_texts)
        )
        news_vectors = [to_vector(doc.title, obama_pipeline) for doc in news]
        tweet_vectors = [to_vector(text, obama_pipeline) for text in tweet_texts]
        expected = [0.0] * len(news)
        for tweet_vector in tweet_vectors:
            for j, news_vector in enumerate(news_vectors):
                expected[j] += cosine(tweet_vector, news_vector, mode)

        pairs = []
        kernel = ctvm.voting.cosine

        def counting(a, b, sim_mode):
            pairs.append(sim_mode)
            return kernel(a, b, sim_mode)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ctvm.voting, "cosine", counting)
            votes = vote(make_slice(tweets, news), obama_pipeline, sim_mode=mode)
        assert list(votes.values()) == expected
        assert len(pairs) == sum(1 for v in tweet_vectors if v) * len(news)
        assert set(pairs) <= {mode}

    @settings(max_examples=80)
    @given(
        tweet_texts=st.lists(RAW_TEXTS, max_size=6),
        news_texts=st.lists(RAW_TEXTS, min_size=1, max_size=4),
        scales=st.lists(
            st.sampled_from([1, 2, 2**13, 2**24, 2**26 // 3, 2**26]),
            min_size=4,
            max_size=4,
        ),
        mode=st.sampled_from((MODE_COMMON_SET, MODE_FULL_COSINE)),
    )
    def test_totals_equal_a_per_pair_loop_over_the_formula(
        self, tweet_texts, news_texts, scales, mode, obama_pipeline
    ):
        """vote's one pass per tweet adds exactly what a per-pair `+=`
        loop over the shortcut-free formula adds, also when doc counts
        (passed in news_vectors) put products past 2**26."""
        news = tuple(
            make_news(f"n{i}", i, text)
            for i, text in enumerate(news_texts, start=1)
        )
        news_vectors = {
            doc.id: {t: c * scale for t, c in to_vector(doc.title, obama_pipeline).items()}
            for doc, scale in zip(news, scales)
        }
        tweets = tuple(
            make_tweet(f"t{i}", text, hour=i) for i, text in enumerate(tweet_texts)
        )
        expected = [0.0] * len(news)
        for tweet in tweets:
            tweet_vector = to_vector(tweet.text, obama_pipeline)
            for j, doc in enumerate(news):
                expected[j] += formula_cosine(tweet_vector, news_vectors[doc.id], mode)
        votes = vote(
            make_slice(tweets, news), obama_pipeline, sim_mode=mode,
            news_vectors=news_vectors,
        )
        assert [v.hex() for v in votes.values()] == [v.hex() for v in expected]

    def test_shared_news_vectors_are_filled_then_reused(
        self, obama_pipeline, monkeypatch
    ):
        corpus_slice = make_slice(WORKSHEET_TWEETS, WORKSHEET_NEWS)
        alone = vote(corpus_slice, obama_pipeline)
        texts = []
        monkeypatch.setattr(
            ctvm.voting,
            "to_vector",
            lambda text, pipeline: texts.append(text) or to_vector(text, pipeline),
        )
        shared = {}
        first = vote(corpus_slice, obama_pipeline, news_vectors=shared)
        assert list(shared) == ["n-vac", "n-speech", "n-tax"]
        assert shared["n-tax"] == to_vector("Obama tax plan stalls in congress",
                                            obama_pipeline)
        texts.clear()
        second = vote(corpus_slice, obama_pipeline, news_vectors=shared)
        assert texts == [t.text for t in WORKSHEET_TWEETS]
        assert first == second == alone


class TestRerankProperties:
    @settings(max_examples=80)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=1,
            max_size=8,
        ).map(lambda vals: [v / 2 for v in vals])
    )
    def test_matches_oracle_with_ties(self, values):
        news = [make_news(f"n{i}", i, f"T{i}") for i in range(1, len(values) + 1)]
        votes = {d.id: v for d, v in zip(news, values)}
        expected = naive_rerank(
            [d.id for d in news],
            [d.original_rank for d in news],
            list(values),
        )
        assert list(rerank(make_slice((), news), votes)) == expected

    @settings(max_examples=80)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_votes_descend_along_ranking(self, values):
        news = [make_news(f"n{i}", i, f"T{i}") for i in range(1, len(values) + 1)]
        votes = {d.id: v for d, v in zip(news, values)}
        ranked = rerank(make_slice((), news), votes)
        for earlier, later in zip(ranked, ranked[1:]):
            assert votes[earlier] >= votes[later]
