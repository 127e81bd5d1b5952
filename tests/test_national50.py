"""perfbench's national50 workload at its default seed, run in-process
through all four stages: 100 (region, engine) tables of 51 rankings
each, the only tier-1 check of report bytes at that scale. gen.py and
workloads.py are run from source, so nothing is written under
perfbench/."""

from __future__ import annotations

import hashlib
import json

from ctvm.cli import main

from test_trace_targets import PERFBENCH, load_perfbench

# report's --out and --csv files for this input, recorded before report
# kept its rows grouped by (region, engine) as it read them
REPORT_SHA256 = "46a51f7cb740eb0ba910c67ff688af94c7b00b73fef8a03d2b540a6838d0c4a5"
MARKED_SHA256 = "2f34ad27ae1145acc36e3d8a4d8f8df4648e6e5c0c30180d6988aadaec5d4f35"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_national50_bytes(tmp_path, capsys):
    gen, workloads = load_perfbench("gen"), load_perfbench("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    expected = expected["national50"]
    root = PERFBENCH.parent
    workload = workloads.resolve("national50", [c for c, _ in gen.region_table(root)])
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    gen.generate(workload["params"], expected["seed"], inputs, root)
    out.mkdir()
    snippet = ["--include-snippet"] if workload["include_snippet"] else []
    stages = [
        ["ingest", "--tweets", inputs / "tweets.jsonl", "--out", out / "enriched.jsonl"],
        [
            "rerank", "--tweets", out / "enriched.jsonl",
            "--news", inputs / "news.jsonl", "--queries", inputs / "queries.jsonl",
            "--regions", ",".join(workload["regions"]), "--sim", workload["sim"],
            *snippet, "--out", out / "rankings.jsonl",
        ],
        [
            "eval", "--rankings", out / "rankings.jsonl",
            "--judgments", inputs / "judgments.jsonl", "--out", out / "rows.csv",
        ],
        [
            "report", "--rows", out / "rows.csv",
            "--out", out / "report.txt", "--csv", out / "marked.csv",
        ],
    ]
    for argv in stages:
        assert main([str(arg) for arg in argv]) == 0
    capsys.readouterr()
    assert sha256(out / "rankings.jsonl") == expected["rerank"]
    assert sha256(out / "rows.csv") == expected["eval"]
    assert sha256(out / "report.txt") == REPORT_SHA256
    assert sha256(out / "marked.csv") == MARKED_SHA256
