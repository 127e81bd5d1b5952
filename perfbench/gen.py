"""Seeded, stdlib-only input generator for the ctvm pipeline benchmark.

generate(params, seed, outdir, root) writes the four input files the
pipeline reads (raw tweets, news, queries, judgments). The same params
and seed give the same bytes. The program under test sees only these
files. params holds the traffic dimensions; see workloads.py.

Words are pseudo-words built from consonant-vowel syllables, so they
are never stopwords and never contain a query word (query words use
letters the vocabulary does not). Location strings are checked against
the region table's full names so that a generated city name cannot
resolve by accident.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import random
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

VOCAB_CONSONANTS = "bdfgklmnprstvz"
QUERY_CONSONANTS = "hjwc"
VOWELS = "aeiou"
VOCAB_SYLLABLES = [c + v for c in VOCAB_CONSONANTS for v in VOWELS]
QUERY_SYLLABLES = [c + v for c in QUERY_CONSONANTS for v in VOWELS]
# hapax tokens are drawn from this many ids past the Zipf core; with
# 10**9 ids, repeats within one workload are negligible
HAPAX_SPACE = 10**9
ENGINES = ("google", "bing", "yahoo", "ask")
LABELS = ("not relevant", "just ok", "interesting", "very interesting")
FIRST_DAY = date(2011, 12, 12)
UNPLACED = ("worldwide", "the internet", "planet earth", "somewhere", "home")
# share of tweets that say nothing but the query and stopwords, so
# their term vectors come out empty
BARE_MENTION_SHARE = 0.02
EMPTY_LOCATION_SHARE = 0.02
STREAM_STEPS = tuple(p**0.5 % 1.0 for p in (2, 3, 5, 7))


def word(index: int, syllables=VOCAB_SYLLABLES, min_len: int = 3) -> str:
    """Distinct pseudo-word for each non-negative index."""
    base = len(syllables)
    parts = []
    while index or len(parts) < min_len:
        index, digit = divmod(index, base)
        parts.append(syllables[digit])
    return "".join(parts)


def region_table(root: Path) -> list[tuple[str, str]]:
    path = root / "src" / "ctvm" / "data" / "us_states.csv"
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return [(code.strip(), name.strip()) for code, name in csv.reader(lines)]


class Vocabulary:
    """Zipf core of `size` words with exponent `zipf`, mixed with a flat
    hapax tail that supplies `hapax_share` of all tokens."""

    def __init__(self, size: int, zipf: float, hapax_share: float) -> None:
        self.size = size
        self.hapax_share = hapax_share
        self.cum = list(
            itertools.accumulate(1.0 / (rank**zipf) for rank in range(1, size + 1))
        )

    def tokens(self, rng: random.Random, n: int) -> list[str]:
        out = []
        total = self.cum[-1]
        for _ in range(n):
            if self.hapax_share and rng.random() < self.hapax_share:
                out.append(word(self.size + rng.randrange(HAPAX_SPACE)))
            else:
                out.append(word(bisect.bisect(self.cum, rng.random() * total)))
        return out


def _city_pool(rng: random.Random, n: int, names: list[str]) -> list[str]:
    cities: list[str] = []
    seen: set[str] = set()
    while len(cities) < n:
        city = word(rng.randrange(70**3), min_len=2)
        if city in seen or any(name in city for name in names):
            continue
        seen.add(city)
        cities.append(city.capitalize())
    return cities


def _location(rng, code: str, name: str, cities: list[str]) -> str:
    city = rng.choice(cities)
    return rng.choice(
        (
            f"{city}, {code}",
            name,
            f"{city}, {name}",
            f"{name} USA",
            name.lower(),
        )
    )


def generate(params: dict, seed: int, outdir: Path, root: Path) -> dict:
    """Write tweets.jsonl, news.jsonl, queries.jsonl, judgments.jsonl.

    Returns the input sizes (lines per file)."""
    rng = random.Random(f"ctvm-bench:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    table = region_table(root)
    lowered_names = [name.lower() for _, name in table]
    vocab = Vocabulary(params["vocab"], params["zipf"], params["hapax_share"])
    days = [FIRST_DAY + timedelta(days=d) for d in range(params["days"])]
    engines = ENGINES[: params["engines"]]

    queries = []
    for q in range(params["queries"]):
        head = word(q, QUERY_SYLLABLES, min_len=3)
        queries.append((f"q{q:03d}", [head, f"{head} {word(q + 1000, QUERY_SYLLABLES)}"]))
    with open(outdir / "queries.jsonl", "w", encoding="utf-8") as fh:
        for qid, variants in queries:
            fh.write(json.dumps({"id": qid, "variants": variants}) + "\n")

    # Located tweets go to the focus regions with probability
    # region_skew, otherwise uniformly to any region in the table.
    focus = [(c, n) for c, n in table if c in params["focus_regions"]]
    cities = _city_pool(rng, 64, lowered_names)
    pool_size = params["location_pool"]
    pool: list[str] = []

    def fresh_location(u: float) -> str:
        """Location for quantile u: the lowest unresolvable_share of u
        resolves nowhere, the next region_skew of the rest goes to the
        focus regions, the remainder to any region."""
        resolvable = params["unresolvable_share"]
        if u < resolvable:
            place = rng.choice(UNPLACED + tuple(c.lower() for c in cities))
        else:
            in_focus = (u - resolvable) / (1.0 - resolvable) < params["region_skew"]
            code, name = rng.choice(focus if focus and in_focus else table)
            place = _location(rng, code, name, cities)
        if not pool_size:
            # a per-tweet suffix keeps every string distinct
            place = f"{place} #{rng.randrange(10**7)}"
        return place

    if pool_size:
        # stratified, so the pool's region mix does not vary with the seed;
        # tweets then take pool entries in a seeded round-robin order
        pool = [fresh_location((k + 0.5) / pool_size) for k in range(pool_size)]
        rng.shuffle(pool)

    # Per-tweet shares (mention rate, bare mentions, location classes)
    # follow seeded low-discrepancy (Weyl) sequences rather than
    # independent draws, so each share is met almost exactly whatever
    # the seed and the pipeline's work varies little between seeds.
    # Each stream steps by the fractional part of a different prime's
    # square root, which keeps the streams jointly equidistributed.
    offsets = [rng.random() for _ in STREAM_STEPS]

    def quantile(i: int, stream: int) -> float:
        return (offsets[stream] + i * STREAM_STEPS[stream]) % 1.0

    def tweet_text(i: int) -> str:
        if quantile(i, 0) < BARE_MENTION_SHARE:
            _, variants = rng.choice(queries)
            return f"so {rng.choice(variants)} is it"
        tokens = vocab.tokens(rng, rng.randint(5, 12))
        if quantile(i, 1) < params["mention_rate"]:
            _, variants = rng.choice(queries)
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(variants))
        return " ".join(tokens)

    n_tweets = params["tweets"]
    midnight = datetime(FIRST_DAY.year, FIRST_DAY.month, FIRST_DAY.day, tzinfo=timezone.utc)
    with open(outdir / "tweets.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n_tweets):
            if quantile(i, 2) < EMPTY_LOCATION_SHARE:
                location = ""
            elif pool:
                location = pool[i % pool_size]
            else:
                location = fresh_location(quantile(i, 3))
            stamp = midnight + timedelta(
                days=rng.randrange(len(days)), seconds=rng.randrange(86400)
            )
            record = {
                "id": f"t{i:07d}",
                "text": tweet_text(i),
                "timestamp": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "user_location": location,
            }
            fh.write(json.dumps(record) + "\n")

    docs = []
    with open(outdir / "news.jsonl", "w", encoding="utf-8") as fh:
        for (qid, variants), engine, day in itertools.product(queries, engines, days):
            for rank in range(1, params["top_k"] + 1):
                title = vocab.tokens(rng, rng.randint(3, 7))
                title.insert(rng.randrange(len(title) + 1), variants[0])
                news_id = f"{qid}-{engine}-{day:%m%d}-{rank:02d}"
                docs.append((qid, news_id))
                record = {
                    "id": news_id,
                    "query_id": qid,
                    "engine": engine,
                    "original_rank": rank,
                    "title": " ".join(title),
                    "snippet": " ".join(vocab.tokens(rng, rng.randint(12, 24))),
                    "retrieved_date": day.isoformat(),
                }
                fh.write(json.dumps(record) + "\n")

    # Each judged cell gets judges_per_cell judges, except an
    # under_min_share of cells that get fewer (dropped by --min-judges 3);
    # superseded_share of ratings are followed by the same judge's
    # replacement rating.
    judged_regions = params["judged_regions"] or [c for c, _ in table]
    n_judgments = 0
    with open(outdir / "judgments.jsonl", "w", encoding="utf-8") as fh:
        for region, (qid, news_id) in itertools.product(judged_regions, docs):
            if rng.random() >= params["judged_share"]:
                continue
            judges = params["judges_per_cell"]
            if rng.random() < params["under_min_share"]:
                judges = rng.randint(1, 2)
            base = rng.randrange(4)
            for j in range(judges):
                ratings = 2 if rng.random() < params["superseded_share"] else 1
                for _ in range(ratings):
                    grade = min(3, max(0, base + rng.choice((-1, 0, 0, 1))))
                    label = LABELS[grade] if rng.random() < 0.5 else grade
                    record = {
                        "query_id": qid,
                        "news_id": news_id,
                        "region": region,
                        "judge_id": f"{region.lower()}-j{j}",
                        "label": label,
                    }
                    fh.write(json.dumps(record) + "\n")
                    n_judgments += 1
    return {
        "tweets": n_tweets,
        "news": len(docs),
        "queries": len(queries),
        "judgments": n_judgments,
    }
