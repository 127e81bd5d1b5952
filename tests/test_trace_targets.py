"""perfbench's tracer wraps ctvm's functions at the names their callers
look up (TARGETS in perfbench/tracing.py). A traced run only prints a
target the program no longer has, so this test is what fails when one
is moved or renamed."""

from __future__ import annotations

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """Run perfbench/tracing.py's source as a module without importing
    it, so nothing is written under perfbench/ (no bytecode cache)."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_every_trace_target_exists():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_pipeline_counts_every_layer(data_dir, tmp_path, capsys):
    """The tri-region fixture's four stages, run under the tracer: every
    observer runs, and only the targets eval no longer calls read zero."""
    from ctvm.cli import main

    tri = data_dir / "tri_region"
    enriched, rankings, rows, report = (
        tmp_path / name
        for name in ("enriched.jsonl", "rankings.jsonl", "rows.csv", "report.txt")
    )
    stages = [
        ["ingest", "--tweets", tri / "tweets.jsonl", "--out", enriched],
        [
            "rerank", "--tweets", enriched, "--news", tri / "news.jsonl",
            "--queries", tri / "queries.jsonl", "--regions", "CA,NY,TX",
            "--out", rankings,
        ],
        [
            "eval", "--rankings", rankings,
            "--judgments", tri / "judgments.jsonl", "--out", rows,
        ],
        ["report", "--rows", rows, "--out", report],
    ]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for argv in stages:
            assert main([str(arg) for arg in argv]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    tracer.dump(tmp_path / "spans")
    metrics, missing = tracing.summarize(tmp_path / "spans")
    assert missing == []
    idle = {name for name in tracer.names if metrics[f"{name}.calls"] == 0}
    assert idle == {"evaluation.ndcg", "judgments.lookup"}
    assert metrics["evaluation.mean_ndcg.calls"] == 1
    # judgment observers: 45 records make 15 cells of 3 judges each
    assert metrics["judgments.records"] == 45
    assert metrics["judgments.cells_kept"] == 15
    assert metrics["judgments.cells_dropped"] == 0
    # rerank's counts: one slice of 5 docs per region holds its share
    # of the 18 tweets, each matched once; 5 doc and 18 tweet vectors,
    # and every tweet scores against its slice's 5 docs
    assert metrics["corpus.slice_corpus.calls"] == 3
    assert metrics["corpus.query_matches.calls"] == 18
    assert metrics["textproc.to_vector.calls"] == 23
    assert metrics["porter.stem.calls"] == 47
    assert metrics["similarity.cosine.calls"] == 90
    assert metrics["similarity.cosine.nonzero_ratio"] == 0.2
    assert metrics["voting.vote.calls"] == 3
    assert metrics["voting.pairs"] == 90
