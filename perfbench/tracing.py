"""Spans around calls into ctvm's modules, recorded from outside.

Tracer.install() replaces each public function in TARGETS at the name
its caller looks up (ctvm.cli.slice_corpus, ctvm.voting.cosine,
ctvm.textproc.stem, RegionTable.resolve, ...) with a wrapper that
records one span per call: name, parent span, start and end. Spans are
kept in flat in-memory arrays and written once, by dump(), after the
pipeline has finished. Each target may also have an observer that
counts properties of the call (distinct arguments, empty results) at
the same boundary; observers run after the span has closed.

summarize() reads a dump back and derives the per-layer metrics: call
counts and self time (a span's duration minus its child spans; the
program is single-threaded, so child spans never overlap) per span
name, plus the observers' counts and ratios.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _count_scanned(tracer, args, result) -> None:
    tracer.counts["corpus.tweets_scanned"] += len(args[0])
    tracer.counts["corpus.tweets_placed"] += len(result.tweets)


def _observe_resolve(tracer, args, result) -> None:
    tracer.distinct["geofilter.resolve"].add(args[1])
    if result is None:
        tracer.counts["geofilter.unresolved"] += 1


def _observe_to_vector(tracer, args, result) -> None:
    tracer.distinct["textproc.to_vector"].add((args[0], args[1].query_terms))
    if not result:
        tracer.counts["textproc.zero_vectors"] += 1


def _observe_stem(tracer, args, result) -> None:
    tracer.distinct["porter.stem"].add(args[0])


def _observe_cosine(tracer, args, result) -> None:
    if result:
        tracer.counts["similarity.cosine.nonzero"] += 1


def _observe_vote(tracer, args, result) -> None:
    corpus_slice = args[0]
    tracer.counts["voting.pairs"] += len(corpus_slice.tweets) * len(corpus_slice.news)


def _observe_load_judgments(tracer, args, result) -> None:
    tracer.counts["judgments.records"] += len(result[0])


def _observe_aggregate(tracer, args, result) -> None:
    tracer.counts["judgments.cells_kept"] += result[1].cells_kept
    tracer.counts["judgments.cells_dropped"] += result[1].cells_dropped


def _observe_lookup(tracer, args, result) -> None:
    if not args[0].contains(*args[1:]):
        tracer.counts["judgments.lookup.misses"] += 1


# (module, attribute path at the caller's lookup, span name, observer)
TARGETS = (
    ("ctvm.cli", "cmd_ingest", "cli.ingest", None),
    ("ctvm.cli", "cmd_rerank", "cli.rerank", None),
    ("ctvm.cli", "cmd_eval", "cli.eval", None),
    ("ctvm.cli", "cmd_report", "cli.report", None),
    ("ctvm.cli", "ingest_tweets", "corpus.ingest_tweets", None),
    ("ctvm.cli", "load_news", "corpus.load_news", None),
    ("ctvm.cli", "slice_corpus", "corpus.slice_corpus", _count_scanned),
    ("ctvm.corpus", "Query.matches", "corpus.query_matches", None),
    ("ctvm.geofilter", "RegionTable.resolve", "geofilter.resolve", _observe_resolve),
    ("ctvm.voting", "to_vector", "textproc.to_vector", _observe_to_vector),
    ("ctvm.textproc", "stem", "porter.stem", _observe_stem),
    ("ctvm.voting", "cosine", "similarity.cosine", _observe_cosine),
    ("ctvm.cli", "vote", "voting.vote", _observe_vote),
    ("ctvm.cli", "rerank", "voting.rerank", None),
    ("ctvm.cli", "load_judgment_records", "judgments.load", _observe_load_judgments),
    ("ctvm.cli", "aggregate", "judgments.aggregate", _observe_aggregate),
    ("ctvm.judgments", "RelevanceLookup.get", "judgments.lookup", _observe_lookup),
    ("ctvm.cli", "mean_ndcg", "evaluation.mean_ndcg", None),
    ("ctvm.evaluation", "ndcg", "evaluation.ndcg", None),
    ("ctvm.cli", "compare", "evaluation.compare", None),
    ("ctvm.cli", "format_table", "evaluation.format_table", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span] = start
                ends[span] = end
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target. A target the program no longer has is
        listed in `missing`; its span name still appears, with no calls."""
        for module_name, path, name, observe in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                self.names.append(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """Write <path>.json (names, counts) and <path>.bin (spans)."""
        meta = {
            "names": self.names,
            "spans": len(self.starts),
            "counts": dict(self.counts),
            "distinct": {key: len(seen) for key, seen in self.distinct.items()},
            "missing": self.missing,
        }
        path.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(fh)


def load_spans(path: Path):
    meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    n = meta["spans"]
    columns = [array("H"), array("q"), array("d"), array("d")]
    with open(path.with_suffix(".bin"), "rb") as fh:
        for column in columns:
            column.fromfile(fh, n)
    return meta, columns


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def summarize(path: Path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one dump: <span>.calls and <span>.self_s
    for every span name, plus the observers' counts and ratios; and the
    targets that were missing."""
    meta, (name_ids, parents, starts, ends) = load_spans(path)
    names = meta["names"]
    durations = [end - start for start, end in zip(starts, ends)]
    children = [0.0] * len(durations)
    for span, parent in enumerate(parents):
        if parent >= 0:
            children[parent] += durations[span]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for span, name_id in enumerate(name_ids):
        calls[name_id] += 1
        self_s[name_id] += durations[span] - children[span]
    out: dict[str, float] = {}
    for name_id, name in enumerate(names):
        out[f"{name}.calls"] = calls[name_id]
        out[f"{name}.self_s"] = self_s[name_id]
    counts = defaultdict(int, meta["counts"])
    distinct = defaultdict(int, meta["distinct"])
    out.update(
        {
            "corpus.tweets_scanned": counts["corpus.tweets_scanned"],
            "corpus.slice_yield": _ratio(
                counts["corpus.tweets_placed"], counts["corpus.tweets_scanned"]
            ),
            "geofilter.resolve.distinct_ratio": _ratio(
                distinct["geofilter.resolve"], out["geofilter.resolve.calls"]
            ),
            "geofilter.unresolved": counts["geofilter.unresolved"],
            "textproc.to_vector.distinct_ratio": _ratio(
                distinct["textproc.to_vector"], out["textproc.to_vector.calls"]
            ),
            "textproc.zero_vectors": counts["textproc.zero_vectors"],
            "porter.stem.distinct_ratio": _ratio(
                distinct["porter.stem"], out["porter.stem.calls"]
            ),
            "similarity.cosine.nonzero_ratio": _ratio(
                counts["similarity.cosine.nonzero"], out["similarity.cosine.calls"]
            ),
            "voting.pairs": counts["voting.pairs"],
            "judgments.records": counts["judgments.records"],
            "judgments.cells_kept": counts["judgments.cells_kept"],
            "judgments.cells_dropped": counts["judgments.cells_dropped"],
            "judgments.lookup.misses": counts["judgments.lookup.misses"],
            "evaluation.report.self_s": out["evaluation.compare.self_s"]
            + out["evaluation.format_table.self_s"],
        }
    )
    return out, meta["missing"]
