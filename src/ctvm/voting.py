"""Tweet voting and re-ranking.

Each news document's vote is the sum, over every tweet in the slice, of
the tweet/title similarity. Documents are then re-ranked by descending
vote, keeping the engine's order among ties, so a slice with no tweets
reproduces the engine ranking exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import CorpusSlice, NewsDoc
from .errors import ContractViolation, EmptySliceError
# vote's per-pair call skips the public cosine's checks: its vectors come
# from to_vector and vote checks the mode on entry. It keeps the name
# cosine, which perfbench's tracer wraps to count scored pairs.
from .similarity import MODE_COMMON_SET, SIM_MODES, unchecked_cosine as cosine
from .textproc import Pipeline, TermVector, to_vector


@dataclass(frozen=True)
class VoteVector:
    """Vote totals for one slice, aligned with its news order."""

    scores: tuple[tuple[str, float], ...]
    tweet_count: int
    region: str | None = None

    def __post_init__(self) -> None:
        if self.tweet_count < 0:
            raise ValueError("tweet_count cannot be negative")
        for news_id, value in self.scores:
            if value < 0.0:
                raise ValueError(f"vote for {news_id} is negative: {value}")

    def __len__(self) -> int:
        return len(self.scores)

    def news_ids(self) -> tuple[str, ...]:
        return tuple(news_id for news_id, _ in self.scores)

    def values(self) -> tuple[float, ...]:
        return tuple(value for _, value in self.scores)

    def by_id(self) -> dict[str, float]:
        return dict(self.scores)


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
) -> VoteVector:
    """Accumulate tweet votes for every news doc in the slice.

    Tweets are processed in slice order and each contributes the
    similarity between its term vector and the doc's, so totals are
    reproducible run to run.

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
        for j, news_vector in enumerate(doc_vectors):
            totals[j] += cosine(tweet_vector, news_vector, sim_mode)
    scores = tuple(
        (doc.id, total) for doc, total in zip(corpus_slice.news, totals)
    )
    return VoteVector(scores, len(corpus_slice.tweets), corpus_slice.region)


@dataclass(frozen=True)
class Ranking:
    """Ordered (news_id, position) pairs with a provenance tag."""

    entries: tuple[tuple[str, int], ...]
    provenance: str

    def __post_init__(self) -> None:
        if not self.provenance:
            raise ValueError("ranking needs a provenance tag")
        seen: set[str] = set()
        for position, (news_id, pos) in enumerate(self.entries, start=1):
            if pos != position:
                raise ValueError(
                    f"positions must run 1..n; saw {pos} at {position}"
                )
            if news_id in seen:
                raise ValueError(f"duplicate news id in ranking: {news_id}")
            seen.add(news_id)
        # built once: eval asks for the ids once per region
        object.__setattr__(self, "_ids", tuple(news_id for news_id, _ in self.entries))

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def __len__(self) -> int:
        return len(self.entries)


PROVENANCE_ENGINE = "engine"


def provenance_for_region(region: str | None) -> str:
    return f"ctvm({region})" if region else "ctvm"


def engine_ranking(news: Sequence[NewsDoc]) -> Ranking:
    ordered = sorted(news, key=lambda d: d.original_rank)
    entries = tuple((doc.id, i) for i, doc in enumerate(ordered, start=1))
    return Ranking(entries, PROVENANCE_ENGINE)


def rerank(news: Sequence[NewsDoc], votes: VoteVector) -> Ranking:
    """Order news by descending vote; engine rank breaks ties."""
    if len(news) != len(votes):
        raise ContractViolation(
            f"{len(news)} news docs but {len(votes)} votes"
        )
    by_id = votes.by_id()
    for doc in news:
        if doc.id not in by_id:
            raise ContractViolation(f"no vote for news {doc.id}")
    ordered = sorted(news, key=lambda d: (-by_id[d.id], d.original_rank))
    entries = tuple((doc.id, i) for i, doc in enumerate(ordered, start=1))
    return Ranking(entries, provenance_for_region(votes.region))

