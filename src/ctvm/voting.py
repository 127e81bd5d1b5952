"""Tweet voting and re-ranking.

Each news document's vote is the sum, over every tweet in the slice, of
the tweet/title similarity. Documents are then re-ranked by descending
vote, keeping the engine's order among ties, so a slice with no tweets
reproduces the engine ranking exactly.
"""

from __future__ import annotations

from itertools import repeat
from operator import add

from .corpus import CorpusSlice, NewsDoc
from .errors import ContractViolation, EmptySliceError
# vote's per-pair call skips the public cosine's checks: its vectors come
# from to_vector and vote checks the mode on entry. It keeps the name
# cosine, which perfbench's tracer wraps to count scored pairs.
from .similarity import MODE_COMMON_SET, SIM_MODES, unchecked_cosine as cosine
from .textproc import Pipeline, TermVector, to_vector


def news_text(doc: NewsDoc, include_snippet: bool = False) -> str:
    if include_snippet and doc.snippet:
        return f"{doc.title} {doc.snippet}"
    return doc.title


def vote(
    corpus_slice: CorpusSlice,
    pipeline: Pipeline,
    sim_mode: str = MODE_COMMON_SET,
    include_snippet: bool = False,
    *,
    news_vectors: dict[str, TermVector] | None = None,
) -> dict[str, float]:
    """Each news doc's vote, as news id -> total in the slice's news order.

    Tweets are processed in slice order and each contributes the
    similarity between its term vector and the doc's, so totals are
    reproducible run to run. Each tweet is scored against all of the
    slice's docs in one pass, which adds to every total exactly as a
    per-pair `totals[j] += cosine(...)` loop would.

    news_vectors, when given, maps news id to that doc's vector; a doc
    missing from it is vectorized and added. It is only valid for one
    pipeline and one include_snippet, so callers share one dict among
    the slices of one (query, engine, day), whose regions rank the same
    docs.
    """
    if sim_mode not in SIM_MODES:
        raise ValueError(f"unknown similarity mode: {sim_mode!r}")
    if not corpus_slice.news:
        raise EmptySliceError(
            f"no news to rank for query {corpus_slice.query.id} "
            f"({corpus_slice.region}, {corpus_slice.day})"
        )
    if news_vectors is None:
        news_vectors = {}
    doc_vectors = []
    for doc in corpus_slice.news:
        vector = news_vectors.get(doc.id)
        if vector is None:
            vector = to_vector(news_text(doc, include_snippet), pipeline)
            news_vectors[doc.id] = vector
        doc_vectors.append(vector)
    totals = [0.0] * len(doc_vectors)
    for tweet in corpus_slice.tweets:
        tweet_vector = to_vector(tweet.text, pipeline)
        if not tweet_vector:
            continue
        totals = list(
            map(
                add,
                totals,
                map(cosine, repeat(tweet_vector), doc_vectors, repeat(sim_mode)),
            )
        )
    return {doc.id: total for doc, total in zip(corpus_slice.news, totals)}


def engine_ranking(corpus_slice: CorpusSlice) -> tuple[str, ...]:
    """The slice's news ids in engine rank order, as slice_corpus left them."""
    return tuple(doc.id for doc in corpus_slice.news)


def rerank(corpus_slice: CorpusSlice, votes: dict[str, float]) -> tuple[str, ...]:
    """The slice's news ids by descending vote; engine rank breaks ties."""
    news = corpus_slice.news
    unmatched = votes.keys() ^ {doc.id for doc in news}
    if unmatched:
        raise ContractViolation(
            f"votes do not match the slice's news at {min(unmatched)}"
        )
    ordered = sorted(news, key=lambda d: (-votes[d.id], d.original_rank))
    return tuple(doc.id for doc in ordered)
