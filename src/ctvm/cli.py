"""Command-line front end.

Subcommands mirror the pipeline stages:

  ingest  attach region codes to raw tweets
  rerank  build engine + per-region tweet-vote rankings
  eval    mean NDCG per (region, engine, provenance, cutoff)
  report  mark and print eval rows as comparison tables

Exit codes: 0 success, 1 unusable input, 2 a usage error or a broken
contract. main writes each failure as one "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import os
import shutil
import sys
from datetime import date
from json.encoder import encode_basestring as _quote
from types import SimpleNamespace

from .corpus import (
    _parse_record,
    _record_lines,
    format_timestamp,
    ingest_tweets,
    load_news,
    load_queries,
    parse_date,
    slice_corpus,
)
from .errors import ContractViolation, CtvmError, InputDataError, one_line, read_input
from .evaluation import (
    EvalRow,
    NdcgConfig,
    PROVENANCE_ENGINE,
    VARIANT_LITERAL,
    VARIANT_STANDARD,
    compare,
    format_table,
    mean_ndcg,
)
from .geofilter import load_region_table
from .judgments import aggregate, load_judgment_records
from .similarity import MODE_COMMON_SET, SIM_MODES
from .textproc import Pipeline, load_stopwords
from .voting import engine_ranking, rerank, vote

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2


_TMP_SERIAL = itertools.count()


def _is_stdout(path: str) -> bool:
    """Whether path names the file stdout already has open, as
    /dev/stdout does; reopening it with "w" would truncate it."""
    if sys.stdout is None:  # started with stdout closed (`>&-`)
        return False
    try:
        target = os.stat(path)
        stdout = os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):
        return False
    return (target.st_dev, target.st_ino) == (stdout.st_dev, stdout.st_ino)


@contextlib.contextmanager
def _utf8_stdout():
    """Stdout as UTF-8, like every output file, whatever the locale
    says. Writes go straight through to stdout's own buffer, so output
    keeps its order and a shell's `>>` still appends."""
    if sys.stdout is None:  # started with stdout closed (`>&-`)
        raise OSError("stdout is closed")
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only replacement has no encoding to fix
        yield sys.stdout
        return
    sys.stdout.flush()
    out = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
    try:
        yield out
    finally:
        out.detach()  # flushes, and leaves stdout's buffer open


@contextlib.contextmanager
def _open_out(path: str):
    """UTF-8 stdout for "-" and for a path to the file stdout has open.
    A missing path, or a plain file with one link in a writable
    directory, is written via a temp file beside it that keeps its mode
    and replaces it only if the block succeeds. Anything else (a
    symlink, a device, a FIFO) is written in place."""
    if path == "-" or _is_stdout(path):
        with _utf8_stdout() as out:
            yield out
        return
    if os.path.lexists(path) and (
        os.path.islink(path)
        or not os.path.isfile(path)
        or os.stat(path).st_nlink > 1
        or not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK)
    ):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _stderr_line(line: str) -> None:
    """Write one line to stderr. A stderr that cannot take it is closed,
    so the interpreter's flush at exit cannot fail on it as well: the
    line is lost, and the exit code stays the work's."""
    if sys.stderr is None:  # started with stderr closed (`2>&-`)
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except (OSError, ValueError):
        with contextlib.suppress(OSError, ValueError):
            sys.stderr.close()


def _note(message: str) -> None:
    _stderr_line(f"note: {message}")


def _parse_region_list(value: str) -> list[str]:
    regions = []
    for part in value.split(","):
        code = part.strip()
        if code and code not in regions:
            regions.append(code)
    if not regions:
        raise argparse.ArgumentTypeError("no region codes given")
    return regions


def _positive_int(value: str) -> int:
    with contextlib.suppress(ValueError):
        number = int(value)
        if number >= 1:
            return number
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}")


def _parse_date(value: str) -> date:
    try:
        return parse_date(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {value!r}")


def _parse_cutoffs(value: str) -> tuple[int, ...]:
    try:
        cutoffs = tuple(int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cutoff list: {value!r}")
    if any(k < 1 for k in cutoffs):
        raise argparse.ArgumentTypeError("cutoffs must be >= 1")
    return tuple(sorted(set(cutoffs)))


def _load_tweets_file(path: str, args, table=None) -> tuple[list, SimpleNamespace]:
    if table is None:
        table = load_region_table(args.region_table)
    return ingest_tweets(
        read_input(path),
        table,
        loose_abbrev=args.loose_abbrev,
        max_text_len=args.max_text_len,
    )


def _tweet_lines(tweets):
    """Each tweet's line as json.dumps(record, ensure_ascii=False) writes
    it, newline included, without building an encoder per line: strings
    go through encode_basestring, the escaper json.dumps uses there."""
    for tweet_id, text, timestamp, location, region in tweets:
        region = "null" if region is None else _quote(region)
        yield (
            f'{{"id": {_quote(tweet_id)}, "text": {_quote(text)}, '
            f'"timestamp": {_quote(format_timestamp(timestamp))}, '
            f'"user_location": {_quote(location)}, "region": {region}}}\n'
        )


def cmd_ingest(args) -> int:
    tweets, report = _load_tweets_file(args.tweets, args)
    with _open_out(args.out) as out:
        out.writelines(_tweet_lines(tweets))
    _stderr_line(json.dumps({"ingest": vars(report)}))
    return EXIT_OK


def _ranking_lines(query_id: str, engine: str, day: date, rankings):
    """The rows of one (query, engine, day) group's (provenance, ids,
    votes) rankings, each as json.dumps(record, ensure_ascii=False) writes
    it: positions from 1, and each vote as float.__repr__, json's form for
    a finite float, or null for the engine's own ranking, which has no
    votes. The keys up to the provenance are the same on every row."""
    group = (
        f'{{"query_id": {_quote(query_id)}, "engine": {_quote(engine)}, '
        f'"date": {_quote(day.isoformat())}, "provenance": '
    )
    for provenance, ids, votes in rankings:
        head = f'{group}{_quote(provenance)}, "position": '
        for position, news_id in enumerate(ids, start=1):
            vote = "null" if votes is None else float.__repr__(votes[news_id])
            yield f'{head}{position}, "news_id": {_quote(news_id)}, "vote": {vote}}}'


def cmd_rerank(args) -> int:
    table = load_region_table(args.region_table)
    unknown = [r for r in args.regions if r not in table]
    if unknown:
        raise InputDataError(f"regions {unknown} are not in the region table")
    tweets, tweet_report = _load_tweets_file(args.tweets, args, table)
    if tweet_report.malformed:
        _note(f"{tweet_report.malformed} malformed tweet lines dropped")
    docs, news_report = load_news(read_input(args.news))
    if news_report.malformed:
        _note(f"{news_report.malformed} malformed news lines dropped")
    if not docs:
        raise InputDataError(f"no usable news records in {args.news}")
    queries = load_queries(read_input(args.queries))
    stopwords = load_stopwords(args.stopwords)
    # each query with the one pipeline that all of its groups share
    pipelines = {
        q.id: (q, Pipeline(stopwords=stopwords, query_terms=q.terms()))
        for q in queries
    }
    groups: dict[tuple[str, str, date], list] = {}
    for doc in docs:
        groups.setdefault(
            (doc.query_id, doc.engine, doc.retrieved_date), []
        ).append(doc)
    # Each slice's tweets come from one (region, day) bucket, so
    # slice_corpus filters that bucket, not every tweet, per slice. The
    # engine does not decide which tweets a slice holds, so the first
    # engine's picks for a (query, region, day) are every later
    # engine's pool.
    buckets: dict[tuple[str | None, date], list] = {}
    for tweet in tweets:
        buckets.setdefault((tweet.region, tweet.day()), []).append(tweet)
    picks: dict[tuple[str, str, date], tuple] = {}

    lines: list[str] = []
    for (query_id, engine, day), group in sorted(groups.items()):
        if args.date and day != args.date:
            continue
        if query_id not in pipelines:
            raise InputDataError(
                f"news references query {query_id!r} missing from {args.queries}"
            )
        query, pipeline = pipelines[query_id]
        slices = []
        for r in args.regions:
            pool = picks.get((query_id, r, day), buckets.get((r, day), ()))
            slices.append(slice_corpus(pool, group, query, r, day, engine))
            picks[query_id, r, day] = slices[-1].tweets
        rankings = [(PROVENANCE_ENGINE, engine_ranking(slices[0]), None)]
        # every region ranks this group's docs, so each is vectorized once
        news_vectors: dict = {}
        for corpus_slice in slices:
            votes = vote(
                corpus_slice,
                pipeline,
                sim_mode=args.sim,
                include_snippet=args.include_snippet,
                news_vectors=news_vectors,
            )
            provenance = f"ctvm({corpus_slice.region})"
            rankings.append((provenance, rerank(corpus_slice, votes), votes))
        lines.extend(_ranking_lines(query_id, engine, day, rankings))
    if not lines:
        raise InputDataError("nothing to rerank after filtering")
    with _open_out(args.out) as out:
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


_RANKING_FIELDS = dict(
    query_id=str, engine=str, date=str, provenance=str, news_id=str, position=int
)


def _load_rankings(path: str) -> list[tuple[tuple[str, str], list[tuple[str, tuple]]]]:
    """Group ranking rows into ((engine, provenance), [(query id, ids)])
    pairs, one unit per (query, date), in eval's output order: by engine,
    its own ranking first, then other provenances; units by query."""
    rows: dict[tuple[str, str, str, str], list[tuple[int, str]]] = {}
    for lineno, raw in _record_lines(read_input(path)):
        try:
            record = _parse_record(raw, _RANKING_FIELDS)
        except ValueError as exc:
            raise InputDataError(f"bad ranking row on line {lineno}: {exc}")
        key = (
            record["query_id"],
            record["engine"],
            record["date"],
            record["provenance"],
        )
        rows.setdefault(key, []).append((record["position"], record["news_id"]))
    grouped: dict[tuple[str, str], list[tuple[str, tuple]]] = {}
    for (query_id, engine, day, provenance), entries in sorted(rows.items()):
        entries.sort()
        ids = tuple(news_id for _, news_id in entries)
        try:
            for position, (pos, _) in enumerate(entries, start=1):
                if pos != position:
                    raise ValueError(f"positions must run 1..n; saw {pos} at {position}")
            if len(set(ids)) < len(ids):
                repeated = next(n for i, n in enumerate(ids) if n in ids[:i])
                raise ValueError(f"duplicate news id in ranking: {repeated}")
        except ValueError as exc:
            raise InputDataError(
                f"rankings for {query_id}/{engine}/{day}/{provenance}: {exc}"
            )
        grouped.setdefault((engine, provenance), []).append((query_id, ids))
    if not grouped:
        raise InputDataError(f"no ranking rows in {path}")
    return sorted(
        grouped.items(),
        key=lambda item: (item[0][0], item[0][1] != PROVENANCE_ENGINE, item[0][1]),
    )


EVAL_COLUMNS = ("region", "engine", "provenance", "cutoff", "mean_ndcg", "n_queries")


def _csv_cells(*cells: str) -> str:
    """cells as csv.writer writes them within a row, joined by commas.
    Its "\r\n" line end makes the writer quote a cell that holds a CR
    or an LF, so read_input and csv.reader read the cell back whole. The
    empty last cell keeps a lone empty cell from being quoted, as it
    would be in a row of its own."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((*cells, ""))
    return buf.getvalue()[:-3]


def cmd_eval(args) -> int:
    grouped = _load_rankings(args.rankings)
    records, malformed = load_judgment_records(read_input(args.judgments))
    if malformed:
        _note(f"{malformed} malformed judgment lines dropped")
    lookup, agg_report = aggregate(
        records, min_judges=args.min_judges, round_scores=args.round_relevance
    )
    if agg_report.cells_dropped:
        _note(
            f"{agg_report.cells_dropped} judgment cells dropped "
            f"(fewer than {args.min_judges} judges)"
        )
    if agg_report.bad_labels:
        _note(f"{agg_report.bad_labels} judgment records had unknown labels")
    if not agg_report.cells_kept:
        raise InputDataError(f"no usable judgments in {args.judgments}")
    regions = args.regions if args.regions else list(lookup.regions())
    config = NdcgConfig(cutoffs=args.cutoffs, variant=args.ndcg)

    keys, groups = zip(*grouped)
    results = mean_ndcg(
        groups, lookup, regions, config, require_complete=args.require_complete
    )
    for r, region in enumerate(regions):
        for (engine, provenance), units, (_, counts, _) in zip(keys, groups, results):
            if not counts[r]:
                raise InputDataError(
                    f"no evaluable queries for {engine}/{provenance} in region "
                    f"{region} (require_complete dropped all {len(units)})"
                )
    misses = sum(sum(group_misses) for *_, group_misses in results)
    if misses:
        _note(f"{misses} ranked docs had no judgment; scored 0")
    # each region and each (engine, provenance) is quoted once
    groups = [_csv_cells(engine, provenance) for engine, provenance in keys]
    with _open_out(args.out) as out:
        out.write(",".join(EVAL_COLUMNS) + "\n")
        for r, region in enumerate(map(_csv_cells, regions)):
            for group, (means, counts, _) in zip(groups, results):
                n = counts[r]
                out.writelines(
                    f"{region},{group},{k},{column[r]:.10f},{n}\n"
                    for k, column in zip(config.cutoffs, means)
                )
    return EXIT_OK


def _read_eval_rows(path: str) -> list[tuple[str, str, EvalRow]]:
    reader = csv.reader(read_input(path))
    try:
        return _eval_rows(reader, path)
    except csv.Error as exc:
        raise InputDataError(f"{path}: bad CSV on line {reader.line_num}: {exc}")


def _eval_rows(reader, path: str) -> list[tuple[str, str, EvalRow]]:
    header = next(reader, None)
    if header is None or not set(EVAL_COLUMNS) <= set(header):
        raise InputDataError(
            f"{path} does not look like eval output "
            f"(need columns {', '.join(EVAL_COLUMNS)})"
        )
    # a repeated column name reads its last column, as csv.DictReader does
    where = {name: i for i, name in enumerate(header)}
    region, engine, provenance, cutoff, value, n_queries = map(where.get, EVAL_COLUMNS)
    width = 1 + max(map(where.get, EVAL_COLUMNS))
    rows: list[tuple[str, str, EvalRow]] = []
    for record in filter(None, reader):  # blank lines read as []
        try:
            if len(record) < width:
                raise ValueError("row has fewer fields than the header")
            row = EvalRow(
                record[provenance],
                int(record[cutoff]),
                float(record[value]),
                int(record[n_queries]),
            )
            # eval writes no other rows, and a nan engine row stars nothing
            if row.cutoff < 1 or row.n_queries < 1 or not 0 <= row.mean_ndcg <= 1:
                raise ValueError(
                    "need cutoff >= 1, n_queries >= 1 and mean_ndcg in [0, 1]"
                )
            rows.append((record[region], record[engine], row))
        except ValueError as exc:
            raise InputDataError(
                f"{path}: bad eval row on line {reader.line_num}: {exc}"
            )
    if not rows:
        raise InputDataError(f"no eval rows in {path}")
    return rows


def _same_out_file(a: str, b: str) -> bool:
    """Whether two output paths, neither stdout, name one file: by inode
    when both exist, else by real path, which sees through symlinks."""
    if any(p == "-" or _is_stdout(p) for p in (a, b)):
        return False
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def cmd_report(args) -> int:
    if args.csv and _same_out_file(args.out, args.csv):
        raise ContractViolation(f"--out and --csv name the same file: {args.csv}")
    rows = _read_eval_rows(args.rows)
    groups: dict[tuple[str, str], list[EvalRow]] = {}
    for region, engine, row in rows:
        groups.setdefault((region, engine), []).append(row)
    tables: list[str] = []
    marked_csv: list[tuple[str, str, EvalRow]] = []
    for (region, engine), group_rows in sorted(groups.items()):
        try:
            marked = compare(group_rows)
        except ContractViolation as exc:  # the rows came from the file
            raise InputDataError(f"{args.rows}: {region}/{engine}: {exc}")
        heading = f"[region={region} engine={engine}]"
        tables.append(format_table(marked, heading))
        marked_csv.extend((region, engine, row) for row in marked)
    # --csv is written inside the --out block, so a failed --csv write
    # also leaves an existing --out file unchanged.
    with _open_out(args.out) as out:
        out.write("\n\n".join(tables) + "\n")
        if args.csv:
            with _open_out(args.csv) as csv_out:
                # rows repeat a few regions, engines and provenances
                quote = functools.lru_cache(maxsize=None)(_csv_cells)
                csv_out.write(",".join(EVAL_COLUMNS) + ",better_than_engine\n")
                csv_out.writelines(
                    f"{quote(region, engine)},{quote(provenance)},{cutoff},"
                    f"{mean:.10f},{n_queries},{str(better).lower()}\n"
                    for region, engine, (provenance, cutoff, mean, n_queries, better)
                    in marked_csv
                )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach main as a
    ContractViolation, so they print as one error line and exit 2."""

    def error(self, message: str):
        raise ContractViolation(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctvm",
        description="Re-rank news results by community tweet votes and "
        "evaluate rankings with NDCG.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region_opts = argparse.ArgumentParser(add_help=False)
    region_opts.add_argument(
        "--region-table",
        metavar="PATH",
        default=None,
        help="code,full_name CSV (default: bundled US states)",
    )
    region_opts.add_argument(
        "--loose-abbrev",
        action="store_true",
        help="match region codes as substrings, not whole tokens",
    )
    region_opts.add_argument(
        "--max-text-len",
        type=_positive_int,
        default=280,
        metavar="N",
        help="drop tweets with text longer than N (default 280)",
    )

    p_ingest = sub.add_parser(
        "ingest",
        parents=[region_opts],
        help="attach region codes to raw tweet JSONL",
    )
    p_ingest.add_argument("--tweets", required=True, metavar="PATH")
    p_ingest.add_argument("--out", required=True, metavar="PATH")
    p_ingest.set_defaults(func=cmd_ingest)

    p_rerank = sub.add_parser(
        "rerank",
        parents=[region_opts],
        help="build engine and tweet-vote rankings",
    )
    p_rerank.add_argument("--tweets", required=True, metavar="PATH")
    p_rerank.add_argument("--news", required=True, metavar="PATH")
    p_rerank.add_argument("--queries", required=True, metavar="PATH")
    p_rerank.add_argument("--out", required=True, metavar="PATH")
    p_rerank.add_argument(
        "--regions",
        type=_parse_region_list,
        default=["CA", "NY", "TX"],
        metavar="CODES",
        help="comma-separated region codes (default CA,NY,TX)",
    )
    p_rerank.add_argument(
        "--sim",
        choices=SIM_MODES,
        default=MODE_COMMON_SET,
        help="similarity mode (default common-set)",
    )
    p_rerank.add_argument(
        "--stopwords",
        metavar="PATH",
        default=None,
        help="stopword file (default: bundled SMART list)",
    )
    p_rerank.add_argument(
        "--include-snippet",
        action="store_true",
        help="vote on title + snippet instead of title alone",
    )
    p_rerank.add_argument(
        "--date",
        type=_parse_date,
        default=None,
        metavar="YYYY-MM-DD",
        help="only rerank results retrieved on this date",
    )
    p_rerank.set_defaults(func=cmd_rerank)

    p_eval = sub.add_parser(
        "eval",
        help="mean NDCG per region, provenance and cutoff",
    )
    p_eval.add_argument("--rankings", required=True, metavar="PATH")
    p_eval.add_argument("--judgments", required=True, metavar="PATH")
    p_eval.add_argument("--out", required=True, metavar="PATH")
    p_eval.add_argument(
        "--regions",
        type=_parse_region_list,
        default=None,
        metavar="CODES",
        help="regions whose judges to evaluate under "
        "(default: every region in the judgments)",
    )
    p_eval.add_argument(
        "--k",
        dest="cutoffs",
        type=_parse_cutoffs,
        default=(3, 5, 10),
        metavar="LIST",
        help="NDCG cutoffs, comma-separated (default 3,5,10)",
    )
    p_eval.add_argument(
        "--ndcg",
        choices=(VARIANT_STANDARD, VARIANT_LITERAL),
        default=VARIANT_STANDARD,
        help="NDCG formulation (default standard)",
    )
    p_eval.add_argument(
        "--min-judges",
        type=_positive_int,
        default=3,
        metavar="N",
        help="judges required to keep a judgment cell (default 3)",
    )
    p_eval.add_argument(
        "--require-complete",
        action="store_true",
        help="skip queries with any unjudged ranked doc",
    )
    p_eval.add_argument(
        "--round-relevance",
        action="store_true",
        help="round mean judge scores half-up to whole numbers",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser(
        "report",
        help="render eval rows as marked comparison tables",
    )
    p_report.add_argument("--rows", required=True, metavar="PATH")
    p_report.add_argument("--out", default="-", metavar="PATH")
    p_report.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also write marked rows as CSV",
    )
    p_report.set_defaults(func=cmd_report)
    return parser


def _error(exc: Exception) -> None:
    _stderr_line(f"error: {one_line(str(exc))}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ContractViolation as exc:
        _error(exc)
        return EXIT_CONTRACT
    except (CtvmError, OSError) as exc:
        _error(exc)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
