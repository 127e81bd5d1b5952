"""Acceptance gate for the whole pipeline.

Nine checks, one test each, named test_01 .. test_09 so `pytest -v`
prints a pass/fail line per criterion. Each test also prints a one-line
summary (visible with -s). Checks with a runtime budget measure it
inside the test, so collection overhead does not count against them.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from datetime import date, datetime, timezone

import pytest

from ctvm.cli import EXIT_OK, main
from ctvm.corpus import CorpusSlice, NewsDoc, Query, Tweet
from ctvm.evaluation import ndcg
from ctvm.judgments import aggregate, load_judgment_records
from ctvm.similarity import MODE_COMMON_SET, MODE_FULL_COSINE
from ctvm.textproc import Pipeline, load_stopwords
from ctvm.voting import rerank, vote

from oracles import naive_resolve, naive_rerank, naive_votes, relevance_cells

UTC = timezone.utc
DAY = date(2011, 12, 12)
CUTOFFS = (3, 5, 10)
NDCG_TOL = 1e-9
VOTE_TOL = 1e-9

# digit-bearing terms pass the stemmer unchanged and are never
# stopwords, so slice vectors are fully predictable
VOCAB = [f"t{i:02d}" for i in range(30)]
QUERY_QQ = Query(id="qq", variants=("qq",))


def report(line: str) -> None:
    print(line)


def random_relevances(rng: random.Random, n: int) -> list[float]:
    values = [rng.choice([0, 1, 2, 3, 1 / 3, 5 / 3, 8 / 3]) for _ in range(n)]
    if not any(values):
        values[rng.randrange(n)] = rng.choice([1, 2, 3])
    return [float(v) for v in values]


def test_01_perfect_ranking_scores_one():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(200):
        ideal = sorted(
            random_relevances(rng, rng.randint(3, 12)), reverse=True
        )
        for k in CUTOFFS:
            assert abs(ndcg(ideal, k) - 1.0) <= NDCG_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        f"PASS 1: 200 ideal rankings scored NDCG 1.0 at k=3,5,10 "
        f"({elapsed:.2f}s)"
    )


def test_02_ideal_order_is_extremal_over_all_permutations():
    rng = random.Random(202)
    start = time.perf_counter()
    for _ in range(50):
        rels = random_relevances(rng, 6)
        best = sorted(rels, reverse=True)
        worst = sorted(rels)
        for k in (3, 6):
            values = [
                ndcg(list(p), k) for p in itertools.permutations(rels)
            ]
            top, bottom = ndcg(best, k), ndcg(worst, k)
            assert all(0.0 <= v <= 1.0 for v in values)
            assert abs(max(values) - top) <= 1e-12
            assert abs(min(values) - bottom) <= 1e-12
            assert all(v <= top + 1e-12 for v in values)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        f"PASS 2: ideal order attained the max NDCG over all 720 "
        f"orderings for 50 draws ({elapsed:.2f}s)"
    )


def make_random_slice(rng: random.Random) -> CorpusSlice:
    news = tuple(
        NewsDoc(
            id=f"n{i}",
            query_id="qq",
            engine="google",
            original_rank=i,
            title=" ".join(
                rng.choices(VOCAB, k=rng.randint(1, 6))
            ),
            retrieved_date=DAY,
        )
        for i in range(1, rng.randint(1, 10) + 1)
    )
    tweets = tuple(
        Tweet(
            id=f"t{i:03d}",
            text="qq " + " ".join(rng.choices(VOCAB, k=rng.randint(1, 8))),
            timestamp=datetime(
                2011, 12, 12, rng.randrange(24), rng.randrange(60), i, tzinfo=UTC
            ),
            region="CA",
        )
        for i in range(rng.randint(0, 20))
    )
    return CorpusSlice(QUERY_QQ, "CA", DAY, "google", tweets, news)


def replace_tweets(base: CorpusSlice, tweets) -> CorpusSlice:
    return CorpusSlice(
        base.query, base.region, base.day, base.engine, tuple(tweets), base.news
    )


def test_03_vote_path_matches_brute_force_oracle():
    stopwords = load_stopwords()
    pipeline = Pipeline(stopwords=stopwords, query_terms=frozenset({"qq"}))
    rng = random.Random(303)
    start = time.perf_counter()
    for _ in range(100):
        corpus_slice = make_random_slice(rng)
        for mode in (MODE_COMMON_SET, MODE_FULL_COSINE):
            votes = vote(corpus_slice, pipeline, sim_mode=mode)
            expected = naive_votes(
                [t.text for t in corpus_slice.tweets],
                [n.title for n in corpus_slice.news],
                stopwords,
                frozenset({"qq"}),
                mode,
            )
            for got, want in zip(votes.values(), expected):
                assert abs(got - want) <= VOTE_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        f"PASS 3: votes on 100 random slices matched the brute-force "
        f"reference within 1e-9 in both modes ({elapsed:.2f}s)"
    )


def test_04_rerank_matches_sort_reference_exactly():
    rng = random.Random(404)
    for _ in range(1000):
        n = rng.randint(1, 10)
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        news = [
            NewsDoc(
                id=f"d{i}",
                query_id="qq",
                engine="google",
                original_rank=ranks[i],
                title=f"D{i}",
                retrieved_date=DAY,
            )
            for i in range(n)
        ]
        # a small value set forces plenty of vote ties
        values = [rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(n)]
        votes = {doc.id: v for doc, v in zip(news, values)}
        expected = naive_rerank(
            [doc.id for doc in news],
            [doc.original_rank for doc in news],
            values,
        )
        corpus_slice = CorpusSlice(QUERY_QQ, "CA", DAY, "google", (), tuple(news))
        assert list(rerank(corpus_slice, votes).ids) == expected
    report("PASS 4: 1000 tie-heavy rerank cases matched the reference exactly")


def test_05_votes_are_linear_and_order_free():
    pipeline = Pipeline(
        stopwords=load_stopwords(), query_terms=frozenset({"qq"})
    )
    rng = random.Random(505)
    for _ in range(200):
        corpus_slice = make_random_slice(rng)
        whole = vote(corpus_slice, pipeline).values()

        shuffled = list(corpus_slice.tweets)
        rng.shuffle(shuffled)
        permuted = vote(replace_tweets(corpus_slice, shuffled), pipeline)
        for got, want in zip(permuted.values(), whole):
            assert abs(got - want) <= VOTE_TOL

        half = len(corpus_slice.tweets) // 2
        first = vote(
            replace_tweets(corpus_slice, corpus_slice.tweets[:half]), pipeline
        )
        second = vote(
            replace_tweets(corpus_slice, corpus_slice.tweets[half:]), pipeline
        )
        for got_a, got_b, want in zip(
            first.values(), second.values(), whole
        ):
            assert abs((got_a + got_b) - want) <= VOTE_TOL
    report(
        "PASS 5: vote linearity and tweet-order invariance held on "
        "200 random slices within 1e-9"
    )


def read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run_cli(*argv) -> None:
    assert main([str(a) for a in argv]) == EXIT_OK


def test_06_golden_fixture_is_reproduced_byte_for_byte(data_dir, tmp_path, capsys):
    golden = data_dir / "golden"
    enriched = tmp_path / "enriched.jsonl"
    rankings = tmp_path / "rankings.jsonl"
    rows = tmp_path / "rows.csv"
    table = tmp_path / "report.txt"
    marked = tmp_path / "marked.csv"

    start = time.perf_counter()
    run_cli("ingest", "--tweets", golden / "tweets.jsonl", "--out", enriched)
    run_cli(
        "rerank",
        "--tweets", enriched,
        "--news", golden / "news.jsonl",
        "--queries", golden / "queries.jsonl",
        "--regions", "CA",
        "--out", rankings,
    )
    run_cli(
        "eval",
        "--rankings", rankings,
        "--judgments", golden / "judgments.jsonl",
        "--out", rows,
    )
    run_cli("report", "--rows", rows, "--out", table, "--csv", marked)
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    assert read(enriched) == read(golden / "expected_enriched.jsonl")
    assert read(rankings) == read(golden / "expected_rankings.jsonl")
    assert read(rows) == read(golden / "expected_rows.csv")
    assert read(table) == read(golden / "expected_report.txt")
    assert read(marked) == read(golden / "expected_marked.csv")
    assert elapsed < 1.0
    report(
        f"PASS 6: golden ingest/rerank/eval/report outputs matched "
        f"byte for byte ({elapsed:.2f}s)"
    )


def test_07_judgment_rules_on_mixed_fixture(data_dir):
    with open(data_dir / "judgments_20.jsonl", encoding="utf-8") as fh:
        records, malformed = load_judgment_records(fh)
    assert malformed == 0
    lookup, agg_report = aggregate(records, min_judges=3)
    assert vars(agg_report) == {
        "records_in": 20,
        "bad_labels": 3,
        "duplicates_superseded": 1,
        "cells_kept": 4,
        "cells_dropped": 2,
    }
    means = relevance_cells(lookup)
    assert len(means) == 4
    assert means[("obama", "d1", "CA")] == pytest.approx(8 / 3)
    assert means[("obama", "d1", "NY")] == pytest.approx(2.0)
    assert means[("obama", "d2", "CA")] == pytest.approx(1.0)
    assert means[("obama", "d2", "NY")] == pytest.approx(1.75)
    report(
        "PASS 7: label map, last-wins dedupe and the 3-judge rule held "
        "on the 20-record fixture"
    )


def test_08_geo_fixture_agrees_with_reference(data_dir, states):
    with open(data_dir / "geo_locations.jsonl", encoding="utf-8") as fh:
        cases = [json.loads(line) for line in fh if line.strip()]
    assert len(cases) == 50
    entries = list(states.entries)
    agreements = 0
    for case in cases:
        for loose, key in ((False, "strict"), (True, "loose")):
            got = states.resolve(case["location"], loose_abbrev=loose)
            ref = naive_resolve(case["location"], entries, loose=loose)
            assert got == case[key] == ref, case
            agreements += 1
    assert agreements == 100
    report(
        "PASS 8: all 50 location fixtures resolved identically to the "
        "reference matcher in both modes"
    )


def test_09_report_marks_exactly_the_engineered_rows(data_dir, tmp_path, capsys):
    tri = data_dir / "tri_region"
    rankings = tmp_path / "rankings.jsonl"
    rows = tmp_path / "rows.csv"
    table = tmp_path / "report.txt"
    marked = tmp_path / "marked.csv"

    run_cli(
        "rerank",
        "--tweets", tri / "tweets.jsonl",
        "--news", tri / "news.jsonl",
        "--queries", tri / "queries.jsonl",
        "--regions", "CA,NY,TX",
        "--out", rankings,
    )
    run_cli(
        "eval",
        "--rankings", rankings,
        "--judgments", tri / "judgments.jsonl",
        "--out", rows,
    )
    run_cli("report", "--rows", rows, "--out", table, "--csv", marked)
    capsys.readouterr()

    by_row: dict[tuple[str, str, int], tuple[float, bool]] = {}
    for line in read(marked).splitlines()[1:]:
        region, _, provenance, cutoff, mean, _, flag = line.split(",")
        by_row[(region, provenance, int(cutoff))] = (
            float(mean),
            flag == "true",
        )

    expected_marked = {
        (region, provenance, k)
        for region in ("CA", "NY")
        for provenance in ("ctvm(CA)", "ctvm(NY)")
        for k in CUTOFFS
    }
    actually_marked = {key for key, (_, flag) in by_row.items() if flag}
    assert actually_marked == expected_marked
    assert len(actually_marked) == 12

    for region in ("CA", "NY"):
        local = f"ctvm({region})"
        for k in CUTOFFS:
            assert by_row[(region, local, k)][0] == pytest.approx(1.0)
            assert (
                by_row[(region, local, k)][0]
                > by_row[(region, "engine", k)][0]
            )
    # TX judges agree with the engine order: a tie, so no mark
    for k in CUTOFFS:
        assert by_row[("TX", "ctvm(TX)", k)][0] == pytest.approx(
            by_row[("TX", "engine", k)][0]
        )
        assert not any(
            flag
            for (region, _, kk), (_, flag) in by_row.items()
            if region == "TX" and kk == k
        )
    report(
        "PASS 9: report starred exactly the 12 engineered rows; "
        "localized votes beat the engine in CA and NY, TX tied unmarked"
    )
