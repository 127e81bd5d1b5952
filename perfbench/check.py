"""Output checks, run outside the timed region.

Each check re-derives a seeded sample of one stage's output from the
generated inputs with the reference implementations in tests/oracles.py
(naive_resolve, naive_votes, naive_rerank, naive_ndcg) and returns a
list of problems; an empty list means the stage's output is correct.
Tolerances are the ones the tests use.
"""

from __future__ import annotations

import csv
import json
import random
from collections import defaultdict
from pathlib import Path

VOTE_TOL = 1e-9
NDCG_TOL = 1e-9
CUTOFFS = (3, 5, 10)
MIN_JUDGES = 3
LABEL_GRADES = {"not relevant": 0, "just ok": 1, "interesting": 2, "very interesting": 3}


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_ingest(work: Path, table, oracles, rng: random.Random) -> list[str]:
    raw = _jsonl(work / "tweets.jsonl")
    enriched = _jsonl(work / "out" / "enriched.jsonl")
    if [t["id"] for t in raw] != [t["id"] for t in enriched]:
        return ["ingest: enriched tweet ids differ from the raw tweet ids"]
    problems = []
    for i in rng.sample(range(len(raw)), min(500, len(raw))):
        want = dict(raw[i])
        want["region"] = oracles.naive_resolve(want["user_location"], table)
        if enriched[i] != want:
            problems.append(f"ingest: tweet {want['id']}: {enriched[i]} != {want}")
    return problems[:5]


def _ranking_groups(path: Path):
    groups: dict[tuple, dict[str, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for row in _jsonl(path):
        key = (row["query_id"], row["engine"], row["date"])
        groups[key][row["provenance"]].append(row)
    return groups


def check_rerank(work: Path, workload: dict, oracles, stopwords, rng) -> list[str]:
    regions = workload["regions"]
    news: dict[tuple, list[dict]] = defaultdict(list)
    for doc in _jsonl(work / "news.jsonl"):
        news[(doc["query_id"], doc["engine"], doc["retrieved_date"])].append(doc)
    groups = _ranking_groups(work / "out" / "rankings.jsonl")
    if set(groups) != set(news):
        return ["rerank: ranked (query, engine, date) groups differ from the news"]
    problems = []
    provenances = {"engine"} | {f"ctvm({r})" for r in regions}
    for key, docs in news.items():
        docs.sort(key=lambda d: d["original_rank"])
        engine_rows = sorted(groups[key].get("engine", []), key=lambda r: r["position"])
        engine_ids = [r["news_id"] for r in engine_rows]
        if set(groups[key]) != provenances:
            problems.append(f"rerank: {key} has provenances {sorted(groups[key])}")
        elif engine_ids != [d["id"] for d in docs]:
            problems.append(f"rerank: {key} engine order differs from original_rank")
    if problems:
        return problems[:5]

    queries = {q["id"]: q["variants"] for q in _jsonl(work / "queries.jsonl")}
    tweets_by_cell = defaultdict(list)
    for tweet in _jsonl(work / "out" / "enriched.jsonl"):
        tweets_by_cell[(tweet["region"], tweet["timestamp"][:10])].append(tweet["text"])
    sample = rng.sample(
        [(key, region) for key in sorted(news) for region in regions],
        min(12, len(news) * len(regions)),
    )
    for (query_id, engine, day), region in sample:
        docs = news[(query_id, engine, day)]
        variants = queries[query_id]
        query_terms = frozenset(
            token for v in variants for token in oracles.naive_tokens(v)
        )
        texts = [
            text
            for text in tweets_by_cell[(region, day)]
            if any(v in text.lower() for v in variants)
        ]
        doc_texts = [
            f"{d['title']} {d['snippet']}"
            if workload["include_snippet"] and d["snippet"]
            else d["title"]
            for d in docs
        ]
        want = oracles.naive_votes(texts, doc_texts, stopwords, query_terms, workload["sim"])
        rows = groups[(query_id, engine, day)][f"ctvm({region})"]
        got = {row["news_id"]: row["vote"] for row in rows}
        for doc, value in zip(docs, want):
            if abs(got.get(doc["id"], float("nan")) - value) > VOTE_TOL:
                problems.append(
                    f"rerank: vote for {doc['id']} in {region}: {got.get(doc['id'])} != {value}"
                )
        order = oracles.naive_rerank(
            [d["id"] for d in docs],
            [d["original_rank"] for d in docs],
            [got.get(d["id"], float("nan")) for d in docs],
        )
        ranked = [row["news_id"] for row in sorted(rows, key=lambda r: r["position"])]
        if ranked != order:
            problems.append(f"rerank: order of {query_id}/{engine}/{day}/{region}: {ranked} != {order}")
    return problems[:5]


def _grade(label) -> int | None:
    if isinstance(label, str):
        return LABEL_GRADES.get(" ".join(label.lower().split()))
    if isinstance(label, int) and not isinstance(label, bool) and 0 <= label <= 3:
        return label
    return None


def _relevance_table(path: Path) -> dict[tuple, float]:
    cells: dict[tuple, dict[str, int]] = {}
    for record in _jsonl(path):
        grade = _grade(record["label"])
        if grade is None:
            continue
        key = (record["query_id"], record["news_id"], record["region"])
        cells.setdefault(key, {})[record["judge_id"]] = grade
    return {
        key: sum(judges.values()) / len(judges)
        for key, judges in cells.items()
        if len(judges) >= MIN_JUDGES
    }


def check_eval(work: Path, oracles, rng) -> list[str]:
    relevance = _relevance_table(work / "judgments.jsonl")
    regions = sorted({key[2] for key in relevance})
    groups = _ranking_groups(work / "out" / "rankings.jsonl")
    units: dict[tuple, list[tuple[str, list[str]]]] = defaultdict(list)
    for (query_id, engine, _day), by_provenance in groups.items():
        for provenance, rows in by_provenance.items():
            ranked = [r["news_id"] for r in sorted(rows, key=lambda r: r["position"])]
            units[(engine, provenance)].append((query_id, ranked))
    with open(work / "out" / "eval.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {
        (r["region"], r["engine"], r["provenance"], int(r["cutoff"])): (
            float(r["mean_ndcg"]),
            int(r["n_queries"]),
        )
        for r in rows
    }
    expected_keys = {
        (region, engine, provenance, k)
        for region in regions
        for engine, provenance in units
        for k in CUTOFFS
    }
    if set(got) != expected_keys or len(rows) != len(expected_keys):
        return [f"eval: {len(rows)} rows, expected {len(expected_keys)}"]
    problems = []
    sample = rng.sample(
        [(region, unit) for region in regions for unit in sorted(units)],
        min(24, len(regions) * len(units)),
    )
    for region, (engine, provenance) in sample:
        for k in CUTOFFS:
            values = [
                oracles.naive_ndcg(
                    [relevance.get((query_id, news_id, region), 0.0) for news_id in ranked],
                    k,
                )
                for query_id, ranked in units[(engine, provenance)]
            ]
            want = oracles.naive_mean(values)
            value, n = got[(region, engine, provenance, k)]
            if abs(value - want) > NDCG_TOL or n != len(values):
                problems.append(
                    f"eval: {region}/{engine}/{provenance}@{k}: {value} ({n}) != {want} ({len(values)})"
                )
    return problems[:5]


def check_report(work: Path) -> list[str]:
    with open(work / "out" / "eval.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    tables: dict[str, dict[str, list[str]]] = defaultdict(dict)
    engine_value: dict[tuple, float] = {}
    for r in rows:
        heading = f"[region={r['region']} engine={r['engine']}]"
        if r["provenance"] == "engine":
            engine_value[(heading, r["cutoff"])] = float(r["mean_ndcg"])
    for r in rows:
        heading = f"[region={r['region']} engine={r['engine']}]"
        value = float(r["mean_ndcg"])
        star = r["provenance"] != "engine" and value > engine_value[(heading, r["cutoff"])]
        tables[heading].setdefault(r["provenance"], []).append(
            f"{value:.4f}" + ("*" if star else "")
        )
    text = (work / "out" / "report.txt").read_text(encoding="utf-8")
    blocks = text.rstrip("\n").split("\n\n")
    if [b.splitlines()[0] for b in blocks] != sorted(tables):
        return ["report: table headings differ from the eval rows' (region, engine) pairs"]
    problems = []
    for block in blocks:
        lines = block.splitlines()
        want = tables[lines[0]]
        got = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
        if got != want:
            problems.append(f"report: table {lines[0]} does not match the eval rows")
    return problems[:5]
