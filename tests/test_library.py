"""The package's public surface, and the library path that `ctvm rerank`
runs: both must give the same rankings and the same vote floats."""

from __future__ import annotations

import json

import pytest

import ctvm
from ctvm import (
    Pipeline,
    engine_ranking,
    ingest_tweets,
    load_news,
    load_queries,
    load_region_table,
    load_stopwords,
    rerank,
    slice_corpus,
    vote,
)
from ctvm.cli import main
from ctvm.similarity import SIM_MODES


def test_every_public_name_resolves():
    assert [name for name in ctvm.__all__ if not hasattr(ctvm, name)] == []
    namespace: dict = {}
    exec("from ctvm import *", namespace)
    assert set(ctvm.__all__) <= namespace.keys()


def lines_of(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


# tri_region's votes are whole numbers; golden's are not
@pytest.mark.parametrize(
    "fixture, regions", [("tri_region", ("CA", "NY", "TX")), ("golden", ("CA",))]
)
@pytest.mark.parametrize("sim_mode", sorted(SIM_MODES))
def test_library_path_matches_cli_rankings(
    fixture, regions, sim_mode, data_dir, tmp_path, capsys
):
    fixture_dir = data_dir / fixture
    out = tmp_path / "rankings.jsonl"
    code = main(
        [
            "rerank", "--tweets", str(fixture_dir / "tweets.jsonl"),
            "--news", str(fixture_dir / "news.jsonl"),
            "--queries", str(fixture_dir / "queries.jsonl"),
            "--regions", ",".join(regions), "--sim", sim_mode, "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    written: dict[tuple, list[tuple[int, str, float | None]]] = {}
    for line in lines_of(out):
        row = json.loads(line)
        key = (row["query_id"], row["engine"], row["date"], row["provenance"])
        cells = (row["position"], row["news_id"], row["vote"])
        written.setdefault(key, []).append(cells)

    tweets, _ = ingest_tweets(
        lines_of(fixture_dir / "tweets.jsonl"), load_region_table()
    )
    news, _ = load_news(lines_of(fixture_dir / "news.jsonl"))
    queries = {
        q.id: q for q in load_queries(lines_of(fixture_dir / "queries.jsonl"))
    }
    stopwords = load_stopwords()
    groups: dict[tuple, list] = {}
    for doc in news:
        key = (doc.query_id, doc.engine, doc.retrieved_date)
        groups.setdefault(key, []).append(doc)
    seen = set()
    for (query_id, engine, day), docs in groups.items():
        query = queries[query_id]
        pipeline = Pipeline(stopwords=stopwords, query_terms=query.terms())
        shared: dict = {}
        for region in regions:
            s = slice_corpus(tweets, docs, query, region, day, engine)
            votes = vote(s, pipeline, sim_mode, news_vectors=shared)
            # the CLI names each ranking: the engine's, and ctvm(region)'s
            for provenance, ids, row_votes in (
                ("engine", engine_ranking(s), dict.fromkeys(votes)),
                (f"ctvm({region})", rerank(s, votes), votes),
            ):
                key = (query_id, engine, day.isoformat(), provenance)
                assert sorted(written[key]) == [
                    (position, i, row_votes[i])
                    for position, i in enumerate(ids, start=1)
                ]
                seen.add(key)
    assert seen == written.keys()
    # the fixture's tweets score, so not every compared vote is 0.0
    assert any(v for rows in written.values() for _, _, v in rows if v is not None)
