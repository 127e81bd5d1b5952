"""Seeded end-to-end benchmark of the ctvm pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload local3 --seed 1 --seconds 25 --trace 0

A run generates the workload's inputs from --seed (gen.py), then repeats
the pipeline ingest -> rerank -> eval -> report until --seconds have
passed. Each repetition is a fresh interpreter that runs the four stages
in order on one thread (child.py); between repetitions the host's speed
is calibrated (calibration.py) and each repetition's times are scaled to
the reference speed. Reported times are medians over repetitions.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced repetitions and reports per-layer metrics derived from spans
recorded around calls into each ctvm module (tracing.py), plus the
tracing overhead; it also fails if the workload lost its intended shape.

Outputs are checked outside the timed region (check.py): every
repetition must write the same bytes, traced ones included; a seeded
sample of each stage's output must agree with tests/oracles.py; and the
workload's default seed must reproduce the rankings and eval digests in
expected.json. A stage run that exits non-zero or fails a check counts
as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed (stage runs) and metrics. The lines before it give
each metric with its unit and sample count, error_rate, and the run
environment. Exit status: 0 when correct, 1 when a check failed,
2 when the benchmark cannot run (no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_REPS = 3
CHILD_TIMEOUT_S = 60
STAGES = ("ingest", "rerank", "eval", "report")
OUTPUTS = {
    "ingest": "enriched.jsonl",
    "rerank": "rankings.jsonl",
    "eval": "eval.csv",
    "report": "report.txt",
}

END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "rerank_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.ingest.self_s": "s",
    "cli.rerank.self_s": "s",
    "cli.eval.self_s": "s",
    "cli.rows_out": "count",
    "corpus.ingest_tweets.calls": "count",
    "corpus.ingest_tweets.self_s": "s",
    "corpus.load_news.self_s": "s",
    "corpus.slice_corpus.calls": "count",
    "corpus.slice_corpus.self_s": "s",
    "corpus.tweets_scanned": "count",
    "corpus.slice_yield": "ratio",
    "corpus.query_matches.calls": "count",
    "geofilter.resolve.calls": "count",
    "geofilter.resolve.self_s": "s",
    "geofilter.resolve.distinct_ratio": "ratio",
    "geofilter.unresolved": "count",
    "textproc.to_vector.calls": "count",
    "textproc.to_vector.self_s": "s",
    "textproc.to_vector.distinct_ratio": "ratio",
    "textproc.zero_vectors": "count",
    "porter.stem.calls": "count",
    "porter.stem.self_s": "s",
    "porter.stem.distinct_ratio": "ratio",
    "similarity.cosine.calls": "count",
    "similarity.cosine.self_s": "s",
    "similarity.cosine.nonzero_ratio": "ratio",
    "voting.vote.calls": "count",
    "voting.vote.self_s": "s",
    "voting.rerank.self_s": "s",
    "voting.pairs": "count",
    "judgments.load.self_s": "s",
    "judgments.records": "count",
    "judgments.aggregate.self_s": "s",
    "judgments.cells_kept": "count",
    "judgments.cells_dropped": "count",
    "judgments.lookup.calls": "count",
    "judgments.lookup.misses": "count",
    "evaluation.mean_ndcg.calls": "count",
    "evaluation.mean_ndcg.self_s": "s",
    "evaluation.ndcg.calls": "count",
    "evaluation.ndcg.self_s": "s",
    "evaluation.report.self_s": "s",
    "trace.overhead_s": "s",
}


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading of it can be
    # compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def stage_argvs(workload: dict, work: Path, out: Path) -> list[tuple[str, list[str]]]:
    rerank = [
        "rerank",
        "--tweets", str(out / OUTPUTS["ingest"]),
        "--news", str(work / "news.jsonl"),
        "--queries", str(work / "queries.jsonl"),
        "--regions", ",".join(workload["regions"]),
        "--sim", workload["sim"],
        "--out", str(out / OUTPUTS["rerank"]),
    ]
    if workload["include_snippet"]:
        rerank.append("--include-snippet")
    return [
        ("ingest", ["ingest", "--tweets", str(work / "tweets.jsonl"),
                    "--out", str(out / OUTPUTS["ingest"])]),
        ("rerank", rerank),
        ("eval", ["eval", "--rankings", str(out / OUTPUTS["rerank"]),
                  "--judgments", str(work / "judgments.jsonl"),
                  "--out", str(out / OUTPUTS["eval"])]),
        ("report", ["report", "--rows", str(out / OUTPUTS["eval"]),
                    "--out", str(out / OUTPUTS["report"])]),
    ]


class Rep:
    """One pipeline repetition, run in a child interpreter."""

    def __init__(self, workload: dict, work: Path, out: Path, trace: bool) -> None:
        out.mkdir(parents=True, exist_ok=True)
        self.spans = out / "spans"
        self.scale = 1.0  # set by run_reps from the calibration around it
        self.summary: dict[str, float] = {}  # per-layer metrics when traced
        self.missing: list[str] = []  # trace targets the program lacks
        job = {
            "root": str(ROOT),
            "trace": trace,
            "spans": str(self.spans),
            "stages": stage_argvs(workload, work, out),
        }
        job_path = out / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        started = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise Abort(f"pipeline process ran longer than {CHILD_TIMEOUT_S} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise Abort(
                f"pipeline process exited {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(lines[-1])
        self.setup_s = result["setup_done"] - started
        self.exits = {s["stage"]: s["exit"] for s in result["stages"]}
        self.seconds = {s["stage"]: s["seconds"] for s in result["stages"]}
        self.peak_rss_mb = result["peak_rss_kib"] / 1024.0
        self.digests = {stage: _sha256(out / name) for stage, name in OUTPUTS.items()}

    def ok(self, stage: str) -> bool:
        return self.exits.get(stage) == 0

    def pipeline_s(self) -> float:
        return sum(self.seconds.values())


def run_reps(workload: dict, work: Path, seconds: float, trace: bool):
    """Repeat the pipeline for `seconds`, each repetition between two
    calibration blocks; with trace, alternate untraced and traced ones.
    The first repetition's outputs stay in work/out for the checks;
    later ones are removed once hashed.

    Returns (untraced repetitions, traced repetitions)."""
    import calibration
    from tracing import summarize

    plain: list[Rep] = []
    traced: list[Rep] = []
    before = calibration.block()
    start = _clock()
    i = 0
    while (
        _clock() - start < seconds
        or len(plain) < MIN_REPS
        or (trace and len(traced) < MIN_REPS)
    ):
        with_trace = trace and i % 2 == 1
        out = work / ("out" if i == 0 else f"rep{i}")
        rep = Rep(workload, work, out, with_trace)
        after = calibration.block()
        rep.scale = calibration.REF_UNIT_S / ((before + after) / 2)
        before = after
        if with_trace:
            rep.summary, rep.missing = summarize(rep.spans)
            traced.append(rep)
        else:
            plain.append(rep)
        if i > 0:
            shutil.rmtree(out)
        i += 1
    return plain, traced


def content_checks(workload: dict, work: Path, seed: int, table) -> dict[str, list[str]]:
    """Problems per stage in the first repetition's outputs."""
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles
    from check import check_eval, check_ingest, check_report, check_rerank
    from ctvm.textproc import load_stopwords

    rng = random.Random(f"check:{seed}")
    checks = {
        "ingest": lambda: check_ingest(work, table, oracles, rng),
        "rerank": lambda: check_rerank(work, workload, oracles, load_stopwords(), rng),
        "eval": lambda: check_eval(work, oracles, rng),
        "report": lambda: check_report(work),
    }
    problems = {}
    for stage, check in checks.items():
        try:
            problems[stage] = check()
        except Exception as exc:  # unreadable output fails the stage
            problems[stage] = [f"{stage}: output check raised {exc!r}"]
    return problems


def golden_check(name: str, workload: dict, work: Path, seed: int, first: Rep):
    """Rankings and eval digests of the workload's default seed against
    expected.json. Runs one extra repetition on the default seed's
    inputs unless this run used that seed.

    Returns (problems per stage, the extra repetition or None)."""
    from gen import generate

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[name]
    extra = None
    reference = first
    if seed != expected["seed"]:
        golden = work / "golden"
        generate(workload["params"], expected["seed"], golden, ROOT)
        extra = reference = Rep(workload, golden, golden / "out", trace=False)
    problems: dict[str, list[str]] = {stage: [] for stage in STAGES}
    for stage in ("rerank", "eval"):
        if reference.digests[stage] != expected[stage]:
            problems[stage].append(
                f"{stage}: default seed {expected['seed']} output digest "
                f"{reference.digests[stage]} != recorded {expected[stage]}"
            )
    return problems, extra


def tally(reps: list[Rep], reference: dict, problems: dict[str, list[str]]):
    """(attempted, failed) stage runs. A stage run fails if it exits
    non-zero or never ran, writes other bytes than the reference, or the
    reference bytes failed a check."""
    attempted = failed = 0
    for rep in reps:
        for stage in STAGES:
            attempted += 1
            if (
                not rep.ok(stage)
                or rep.digests[stage] != reference[stage]
                or problems[stage]
            ):
                failed += 1
    return attempted, failed


def end_to_end(plain: list[Rep]) -> tuple[dict, dict]:
    """(scaled metrics, raw wall medians)."""
    timings = {
        "setup_s": lambda r: r.setup_s,
        "ingest_s": lambda r: r.seconds.get("ingest", 0.0),
        "rerank_s": lambda r: r.seconds.get("rerank", 0.0),
        "eval_s": lambda r: r.seconds.get("eval", 0.0),
        "pipeline_s": Rep.pipeline_s,
    }
    metrics = {
        metric: statistics.median(get(r) * r.scale for r in plain)
        for metric, get in timings.items()
    }
    metrics["peak_rss_mb"] = statistics.median(r.peak_rss_mb for r in plain)
    raw = {
        metric: statistics.median(get(r) for r in plain)
        for metric, get in timings.items()
    }
    return metrics, raw


def per_layer(plain: list[Rep], traced: list[Rep], out: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics: times are medians over traced repetitions,
    scaled; counts and ratios must repeat exactly across them."""
    problems = []
    for target in traced[0].missing:
        print(f"perfbench: trace target {target} not found; its spans read 0",
              file=sys.stderr)
    metrics: dict[str, float] = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_s":
            metrics[metric] = statistics.median(
                r.pipeline_s() * r.scale for r in traced
            ) - statistics.median(r.pipeline_s() * r.scale for r in plain)
        elif metric == "cli.rows_out":
            # data rows written: enriched tweets, ranking rows, eval rows
            metrics[metric] = sum(
                len((out / OUTPUTS[stage]).read_text(encoding="utf-8").splitlines())
                for stage in ("ingest", "rerank", "eval")
            ) - 1
        elif unit == "s":
            metrics[metric] = statistics.median(r.summary[metric] * r.scale for r in traced)
        else:
            values = {r.summary[metric] for r in traced}
            if len(values) != 1:
                problems.append(f"trace: {metric} differs between traced runs: {sorted(values)}")
            metrics[metric] = traced[0].summary[metric]
    return metrics, problems


def environment(name: str, workload: dict, seed: int, seconds: int) -> dict:
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctvm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(ROOT).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "params": workload["params"],
        "rerank": {
            "regions": len(workload["regions"]),
            "sim": workload["sim"],
            "include_snippet": workload["include_snippet"],
        },
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ctvm" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from gen import generate, region_table
    from workloads import WORKLOADS, resolve, shape_problems

    name = args.workload
    if name not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    table = region_table(ROOT)
    codes = [code for code, _ in table]
    workload = resolve(name, codes)
    work = WORK_ROOT / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        sizes = generate(workload["params"], args.seed, work, ROOT)
        plain, traced = run_reps(workload, work, args.seconds, bool(args.trace))
        first = plain[0]
        problems = content_checks(workload, work, args.seed, table)
        golden_problems, extra = golden_check(name, workload, work, args.seed, first)
        if extra is None:  # the timed repetitions ran the default seed
            for stage in STAGES:
                problems[stage] += golden_problems[stage]
        attempted, failed = tally(plain + traced, first.digests, problems)
        notes = [p for stage in STAGES for p in problems[stage]]
        if extra is not None:
            more_attempted, more_failed = tally([extra], extra.digests, golden_problems)
            attempted += more_attempted
            failed += more_failed
            notes += [p for stage in STAGES for p in golden_problems[stage]]

        env = environment(name, workload, args.seed, args.seconds)
        env["input_lines"] = sizes
        env["speed_scale"] = statistics.median(r.scale for r in plain)
        if args.trace:
            metrics, trace_notes = per_layer(plain, traced, work / "out")
            notes += trace_notes + shape_problems(name, metrics, codes)
            units, samples = PER_LAYER, len(traced)
        else:
            metrics, env["raw_wall_s"] = end_to_end(plain)
            units, samples = END_TO_END, len(plain)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    env["samples"] = samples
    correct = not notes and failed == 0
    for note in notes:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    runs = "traced runs" if args.trace else "runs"
    for metric, value in metrics.items():
        how = (
            "exact" if units[metric] in ("count", "ratio")
            else f"median of {samples} {runs}"
        )
        print(f"{name} {metric} = {value:.6g} {units[metric]} ({how})")
    print(f"{name} error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} stage runs failed)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
