"""The whole pipeline against one literal reference.

ingest, rerank and eval run in-process on the golden and tri_region
fixtures and on drawn corpora, and must agree with
oracles.naive_pipeline, which derives the same outputs from the raw
records by full scans: the ranking rows exactly, votes by
float.__repr__, and each eval mean within 1e-9 of the reference's, with
and without --require-complete. naive_ndcg divides by math.log(x, 2),
so a mean's 10-digit text can differ from eval's at a rounding edge.
"""

from __future__ import annotations

import csv
import json
from itertools import product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from ctvm.cli import EVAL_COLUMNS, EXIT_INPUT, EXIT_OK, main

from oracles import naive_pipeline

INPUTS = ("tweets", "news", "queries", "judgments")


def read_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def repr_votes(rows: list[dict]) -> list[dict]:
    """Ranking rows with each vote as float.__repr__, so that 0.0 and
    -0.0 differ as their JSON text does."""
    return [
        {**row, "vote": None if row["vote"] is None else float.__repr__(row["vote"])}
        for row in rows
    ]


def check_pipeline(
    inputs, work, regions, stopwords, entries, sim="common-set"
) -> list[int]:
    """Run ingest, rerank and eval on inputs/*.jsonl, writing into work,
    and assert that they agree with naive_pipeline. Returns eval's exit
    codes without and with --require-complete; eval fails exactly when
    the reference has no row, or a row with no query."""
    enriched, rankings, rows = (work / name for name in ("e.jsonl", "r.jsonl", "r.csv"))
    assert main(["ingest", "--tweets", str(inputs / "tweets.jsonl"),
                 "--out", str(enriched)]) == EXIT_OK
    assert main(["rerank", "--tweets", str(enriched),
                 "--news", str(inputs / "news.jsonl"),
                 "--queries", str(inputs / "queries.jsonl"),
                 "--regions", ",".join(regions), "--sim", sim,
                 "--out", str(rankings)]) == EXIT_OK
    records = [read_records(inputs / f"{name}.jsonl") for name in INPUTS]
    codes = []
    for require_complete in (False, True):
        want_rankings, want_rows = naive_pipeline(
            *records, entries, regions, stopwords,
            require_complete=require_complete, mode=sim,
        )
        assert repr_votes(read_records(rankings)) == repr_votes(want_rankings)
        code = main(
            ["eval", "--rankings", str(rankings),
             "--judgments", str(inputs / "judgments.jsonl"), "--out", str(rows)]
            + ["--require-complete"] * require_complete
        )
        codes.append(code)
        if not want_rows or any(n == 0 for *_, n in want_rows):
            assert code == EXIT_INPUT
            continue
        assert code == EXIT_OK
        with open(rows, newline="", encoding="utf-8") as fh:
            header, *got_rows = csv.reader(fh)
        assert tuple(header) == EVAL_COLUMNS
        assert len(got_rows) == len(want_rows)
        for got, (region, engine, provenance, k, mean, n) in zip(got_rows, want_rows):
            assert got[:4] + got[5:] == [region, engine, provenance, str(k), str(n)]
            assert abs(float(got[4]) - mean) <= 1e-9, (got, mean)
    return codes


@pytest.mark.parametrize(
    "fixture, regions", [("golden", ["CA"]), ("tri_region", ["CA", "NY", "TX"])]
)
def test_fixture_matches_the_reference(
    fixture, regions, data_dir, tmp_path, stopwords, states, capsys
):
    codes = check_pipeline(
        data_dir / fixture, tmp_path, regions, stopwords, states.entries
    )
    capsys.readouterr()
    assert codes == [EXIT_OK, EXIT_OK]


# Query words, their inflections and stopwords, among them a bare "s"
# (as in "Obama's"), so that texts share terms, mention queries and drop
# words.
WORDS = (
    "tax", "taxes", "plan", "plans", "planning", "merger", "big", "deal",
    "storm", "rain", "jobs", "job", "report", "congress", "win", "wins",
    "the", "a", "of", "s",
)
# each query's raw variants: load_queries lowercases and strips them
QUERIES = (("q0", ("tax",)), ("q1", ("Merger", "big deal ")), ("q2", ("storm",)))
ENGINES = ("google", "yahoo")
DAYS = ("2011-12-12", "2011-12-13")
REGIONS = ("CA", "NY", "TX")
# resolvable to each region, to Kansas, which no --regions names, and
# to nothing
LOCATIONS = (
    "San Jose, CA", "california dreaming", "New York", "NYC", "Austin TX",
    "texas", "Kansas", "nowhere", "", "CA NY",
)
# an offset can move a tweet to another UTC day than its local one
OFFSETS = ("Z", "+05:00", "-08:00")
LABELS = (0, 1, 2, 3, "interesting", "Just OK")
# a judged cell's judges: three distinct or more, one of them maybe
# rating twice; a gap's: fewer than three distinct
FULL = (("j1", "j2", "j3"), ("j1", "j2", "j3", "j4"), ("j1", "j2", "j3", "j1"))
GAPS = ((), ("j1",), ("j1", "j2"), ("j2", "j2", "j3"))
TEXTS = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).flatmap(
    lambda words: st.sampled_from([" ", ", ", "'"]).map(lambda sep: sep.join(words))
)
# most tweets lead with a mention, so that slices hold several tweets
# and a vote adds several terms, in an order that can change its bits
TWEET_TEXTS = st.tuples(
    st.sampled_from(["", "Tax ", "merger ", "big deal, ", "storm "]), TEXTS
).map("".join)


@st.composite
def corpora(draw) -> tuple[dict[str, list[dict]], list[str], str]:
    """A small corpus, as the four input files' records, and rerank's
    --regions and --sim: ≤ 3 queries, 2 engines, 2 days, 3 regions,
    ≤ 40 tweets, and judgments with gaps (cells under three judges,
    unjudged docs) and repeats (a judge rating a cell twice). A corpus
    gaps none, some or all of its cells, and a gap's labels may not
    parse."""
    queries = draw(st.lists(st.sampled_from(QUERIES), min_size=1, unique=True))
    news = []
    groups = product([query_id for query_id, _ in queries], ENGINES, DAYS)
    for g, (query_id, engine, day) in enumerate(groups):
        # the first group ranks a doc, so that rerank has one to rank
        for rank in range(1, draw(st.integers(0 if g else 1, 3)) + 1):
            news.append({
                "id": f"n{len(news)}", "query_id": query_id, "engine": engine,
                "original_rank": rank, "title": draw(TEXTS), "retrieved_date": day,
            })
    tweets = []
    for i in range(draw(st.integers(0, 40))):
        # about half the tweets crowd into one region and day, so that a
        # vote adds many terms, in an order that can change its bits
        if draw(st.booleans()):
            day, offset, location = DAYS[0], "Z", LOCATIONS[0]
        else:
            day = draw(st.sampled_from(DAYS))
            offset = draw(st.sampled_from(OFFSETS))
            location = draw(st.sampled_from(LOCATIONS))
        hour, minute = draw(st.integers(0, 23)), draw(st.sampled_from([0, 30]))
        tweets.append({
            "id": f"t{i}", "text": draw(TWEET_TEXTS),
            "timestamp": f"{day}T{hour:02d}:{minute:02d}:00{offset}",
            "user_location": location,
        })
    judgments = []
    gaps = draw(st.sampled_from([0, 1, 5, 10]))  # of every 10 cells
    for doc in news:
        for region in REGIONS:
            gap = draw(st.integers(0, 9)) < gaps
            for judge in draw(st.sampled_from(GAPS if gap else FULL)):
                label = draw(st.sampled_from(LABELS + ("meh",) * gap))
                score = isinstance(label, int) and draw(st.booleans())
                judgments.append({
                    "query_id": doc["query_id"], "news_id": doc["id"],
                    "region": region, "judge_id": judge,
                    "score" if score else "label": label,
                })
    regions = draw(st.lists(st.sampled_from(REGIONS), min_size=1, unique=True))
    sim = draw(st.sampled_from(["common-set", "full-cosine"]))
    records = dict(
        tweets=tweets,
        news=news,
        queries=[{"id": query_id, "variants": list(v)} for query_id, v in queries],
        judgments=judgments,
    )
    return records, regions, sim


def test_drawn_corpora_match_the_reference(tmp_path, stopwords, states, capsys):
    outcomes = set()

    # derandomized, so that every outcome below is reached on every run;
    # no explain phase, which traces each shrink step's coverage
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        phases=[phase for phase in Phase if phase is not Phase.explain],
    )
    @given(corpora())
    def check(corpus):
        records, regions, sim = corpus
        for name in INPUTS:
            with open(tmp_path / f"{name}.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(record) + "\n" for record in records[name])
        try:
            codes = check_pipeline(
                tmp_path, tmp_path, regions, stopwords, states.entries, sim
            )
        finally:
            capsys.readouterr()
        outcomes.update(enumerate(codes))

    check()
    # eval, without and with --require-complete, succeeds on some draws
    # and fails on others
    assert outcomes == {(0, EXIT_OK), (0, EXIT_INPUT), (1, EXIT_OK), (1, EXIT_INPUT)}
