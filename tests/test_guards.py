"""Guards that hold for any input, not only for hand-picked cases.

- A fuzz test mutates the tri_region and escapes fixtures along their
  JSON structure, then ingest's output and eval's CSV on their way to
  rerank and report, and runs every stage on them in-process: no input
  ends in a traceback, a second error line or a half-written --out.
- A usage fuzz puts one usage error among valid flags in any order:
  each exits 2 with one error line and leaves --out as it was.
- Metamorphic tests relate runs on the golden and tri_region fixtures:
  line order, the --regions subset and tweets that no slice can hold
  change no byte that they should not.
"""

from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ctvm.cli import EXIT_CONTRACT, EXIT_INPUT, EXIT_OK, main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_lines(path) -> list[str]:
    """A JSONL file's lines, split at "\\n" only: str.splitlines would
    also split at a raw U+2028 or U+0085 inside a JSON string."""
    return path.read_text(encoding="utf-8").rstrip("\n").split("\n")


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def fixture_inputs(data_dir, name) -> dict:
    """The JSONL inputs of the four stages for one fixture; escapes has
    no judgments of its own and borrows tri_region's."""
    fixture = data_dir / name
    judged = fixture if (fixture / "judgments.jsonl").exists() else data_dir / "tri_region"
    return {
        "tweets": fixture / "tweets.jsonl",
        "news": fixture / "news.jsonl",
        "queries": fixture / "queries.jsonl",
        "rankings": fixture / "expected_rankings.jsonl",
        "judgments": judged / "judgments.jsonl",
    }


# Stands for a value nested deeper than json's decoder can recurse; it
# is swapped for the raw text after json.dumps.
DEEP = "\x00deep"
DEEP_TEXT = "[" * 100_000 + "]" * 100_000
EDGE_VALUES = (
    None,
    True,
    False,
    2**70,
    1.5,
    [],
    ["x"],
    {"x": 1},
    "",
    "\u0000",
    "\ud800",
    # line breaks, which an error message must not pass on
    "a\nerror: b",
    "x\u2028y",
    # blank once str.strip has run
    " ",
    "\u3000\t",
    # the ends of the timestamp range, with the widest offsets
    "0001-01-01T00:00:00+23:59",
    "0001-01-01T00:00:00-23:59",
    "9999-12-31T23:59:59+23:59",
    "9999-12-31T23:59:59-23:59",
    DEEP,
)
# extra values for a field of that name: preset region codes that are
# in the region table, not in it, or in the wrong case
FIELD_VALUES = {"region": ("NY", "MA", "ZZ", "ca")}
# values for a cell of eval's CSV
CELL_VALUES = (
    "", " ", "0", "-1", "1.5", "nan", "inf", "-inf", "1e999", "2" * 30,
    "engine", "ctvm(CA)", "ctvm(", "\u0000", "a\nerror: b", "x\u2028y", '"',
)
MUTATIONS = ("set", "set", "drop", "cut", "join", "repeat", "delete")


def edit_json(line: str, kind: str, data, field=None) -> str:
    """line with one field of its record set to a drawn value, or
    dropped; a line that is not a JSON object is kept."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if type(record) is not dict or not record:
        return line
    if field is None:
        field = data.draw(st.sampled_from(sorted(record)), label="field")
    if kind == "drop":
        del record[field]
    else:
        values = FIELD_VALUES.get(field, ()) + EDGE_VALUES
        record[field] = data.draw(st.sampled_from(values), label="value")
    return json.dumps(record).replace(json.dumps(DEEP), DEEP_TEXT)


def edit_csv(line: str, kind: str, data) -> str:
    """line with one cell of its CSV row set to a drawn value, or
    dropped."""
    try:
        cells = next(csv.reader([line]), [])
    except csv.Error:
        return line
    if not cells:
        return line
    index = data.draw(st.integers(0, len(cells) - 1), label="cell")
    if kind == "drop":
        del cells[index]
    else:
        cells[index] = data.draw(st.sampled_from(CELL_VALUES), label="value")
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(cells)
    return out.getvalue()


def mutate(lines: list[str], data, edit=edit_json) -> None:
    """Apply one drawn mutation to lines in place."""
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if not lines:
        return
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[index]
    if kind == "repeat":
        lines.insert(index, line)
    elif kind == "delete":
        del lines[index]
    elif kind == "cut":
        end = data.draw(st.integers(0, max(len(line) - 1, 0)), label="cut")
        lines[index] = line[:end]
    elif kind == "join":  # two records on one line
        lines[index] = line + lines[(index + 1) % len(lines)]
    else:
        lines[index] = edit(line, kind, data)


# each stage's optional flags; a run draws any mix of them
FLAGS = {
    "ingest": (("--loose-abbrev",), ("--max-text-len", "20")),
    "rerank": (
        ("--loose-abbrev",),
        ("--max-text-len", "20"),
        ("--regions", "NY,CA"),
        ("--sim", "full-cosine"),
        ("--include-snippet",),
        ("--date", "2011-12-12"),
    ),
    "eval": (
        ("--regions", "NY"),
        ("--k", "1,3"),
        ("--ndcg", "literal"),
        ("--min-judges", "1"),
        ("--require-complete",),
        ("--round-relevance",),
    ),
    # the run adds the CSV's path
    "report": (("--csv",),),
}
EARLIER = b"earlier output\n"


def stages(inputs: dict, tmp_path, rerank_tweets=None) -> list:
    """(command, argv, files it writes) for ingest, rerank, eval and
    report on the inputs; rerank reads the raw tweets unless told
    otherwise, and report reads eval's output."""
    enriched, rankings, rows, report = (
        tmp_path / name
        for name in ("enriched.jsonl", "out.jsonl", "rows.csv", "report.txt")
    )
    return [
        ("ingest", ["--tweets", inputs["tweets"], "--out", enriched], [enriched]),
        (
            "rerank",
            ["--tweets", rerank_tweets or inputs["tweets"], "--news", inputs["news"],
             "--queries", inputs["queries"], "--out", rankings],
            [rankings],
        ),
        (
            "eval",
            ["--rankings", inputs["rankings"], "--judgments", inputs["judgments"],
             "--out", rows],
            [rows],
        ),
        ("report", ["--rows", rows, "--out", report], [report]),
    ]


def run_stage(capsys, command, argv, written):
    """Run one stage over files holding EARLIER: it exits 0, 1 or 2
    with at most one error line, and leaves them as they were unless it
    exits 0."""
    for path in written:
        path.write_bytes(EARLIER)
    code, _, err = run(capsys, command, *argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONTRACT)
    # str.splitlines, as a reader of the stream may split it
    lines = err.splitlines()
    assert sum(line.startswith("error:") for line in lines) <= 1, err
    kinds = ("error: ", "note: ", '{"ingest": ')
    assert all(line.startswith(kinds) for line in lines), err
    if code != EXIT_OK:
        for path in written:
            assert path.read_bytes() == EARLIER, path.name


@pytest.mark.parametrize("name", ["tri_region", "escapes"])
def test_every_field_at_every_edge_value_exits_cleanly(name, data_dir, tmp_path, capsys):
    """Each field of the first record of each input set to each edge
    value, read by every stage that reads that input: the one sweep that
    reaches every record constructor with every edge value."""
    sources = fixture_inputs(data_dir, name)
    for key, source in sources.items():
        first, *rest = read_lines(source)
        inputs = {**sources, key: tmp_path / f"{key}.jsonl"}
        record = json.loads(first)
        for field in record:
            for value in EDGE_VALUES:
                line = json.dumps({**record, field: value})
                write_lines(inputs[key], [line.replace(json.dumps(DEEP), DEEP_TEXT), *rest])
                for command, argv, written in stages(inputs, tmp_path):
                    if inputs[key] in argv:
                        run_stage(capsys, command, argv, written)


@pytest.mark.parametrize("name", ["tri_region", "escapes"])
def test_mutated_fixture_exits_cleanly(name, data_dir, tmp_path, capsys):
    """Any mix of mutations to any of a fixture's JSONL inputs, run
    through ingest, rerank, eval and report with any mix of flags, ends
    in exit 0, 1 or 2 with at most one error line, and a stage that
    fails leaves the files it would write as they were. Ingest's output,
    when rerank reads it, gets a record's preset region set and up to
    two more mutations; eval's CSV gets up to three before report."""
    sources = fixture_inputs(data_dir, name)
    pristine = {key: read_lines(path) for key, path in sources.items()}
    inputs = {key: tmp_path / f"{key}.jsonl" for key in sources}
    enriched, rows, marked = (
        tmp_path / file for file in ("enriched.jsonl", "rows.csv", "marked.csv")
    )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        lines = {key: list(value) for key, value in pristine.items()}
        for _ in range(data.draw(st.integers(1, 6), label="mutations")):
            mutate(lines[data.draw(st.sampled_from(sorted(lines)), label="file")], data)
        for key, path in inputs.items():
            write_lines(path, lines[key])
        rerank_tweets = data.draw(st.sampled_from([inputs["tweets"], enriched]))
        for command, argv, written in stages(inputs, tmp_path, rerank_tweets):
            for flags in data.draw(
                st.lists(st.sampled_from(FLAGS[command]), unique=True), label=command
            ):
                if flags == ("--csv",):
                    flags = ("--csv", marked)
                    written.append(marked)
                argv += flags
            if command == "rerank" and rerank_tweets == enriched:
                # ingest's output: its records hold a preset region
                outputs = read_lines(enriched)
                index = data.draw(st.integers(0, len(outputs) - 1), label="record")
                outputs[index] = edit_json(outputs[index], "set", data, "region")
                for _ in range(data.draw(st.integers(0, 2), label="mutations")):
                    mutate(outputs, data)
                write_lines(enriched, outputs)
            elif command == "report":
                outputs = read_lines(rows)
                for _ in range(data.draw(st.integers(0, 3), label="mutations")):
                    mutate(outputs, data, edit_csv)
                write_lines(rows, outputs)
            run_stage(capsys, command, argv, written)

    check()


# one bad value for each type= converter and choice, by stage
BAD_VALUES = {
    "ingest": (
        ("--max-text-len", "-5"),
        ("--max-text-len", "2_80"),
        ("--out", ""),
        ("--tweets", ""),
        ("--region-table", ""),
    ),
    "rerank": (
        ("--out", ""),
        ("--tweets", ""),
        ("--news", ""),
        ("--queries", ""),
        ("--stopwords", ""),
        ("--region-table", ""),
        ("--max-text-len", "0"),
        ("--date", "2011-13-01"),
        ("--regions", " , "),
        ("--sim", "euclid"),
    ),
    "eval": (
        ("--k", "0"),
        ("--k", "3,,5"),
        # int() takes each of these: other scripts' digits, a sign, an
        # underscore between digits
        ("--k", "\u0663, +5"),
        ("--k", "1_0"),
        ("--min-judges", "1e3"),
        ("--min-judges", " 0_3"),
        ("--min-judges", "+3"),
        ("--min-judges", "\u0663"),
        ("--regions", " , "),
        ("--ndcg", "dcg"),
        ("--out", ""),
        ("--rankings", ""),
        ("--judgments", ""),
    ),
    "report": (("--out", ""), ("--csv", ""), ("--rows", "")),
}
USAGE_ERRORS = (
    "no subcommand", "unknown subcommand", "unknown flag", "missing flag", "bad value",
)


def test_any_usage_error_exits_two_on_one_line(data_dir, tmp_path, capsys):
    """One usage error among a stage's flags, drawn as for the mutation
    fuzz and put in any order: no subcommand, an unknown one, an unknown
    flag, a missing input flag (each is required) or a bad value. The
    run exits 2, writes one stderr line that starts "error: ctvm" and
    nothing to stdout, and leaves the files it would write as they were."""
    inputs = fixture_inputs(data_dir, "tri_region")
    marked = tmp_path / "marked.csv"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(USAGE_ERRORS), label="usage error")
        runs = stages(inputs, tmp_path)
        if kind == "bad value":
            runs = [stage for stage in runs if stage[0] in BAD_VALUES]
        command, argv, written = data.draw(st.sampled_from(runs), label="stage")
        pairs = [tuple(argv[i:i + 2]) for i in range(0, len(argv), 2)]
        groups = list(pairs)
        for flags in data.draw(
            st.lists(st.sampled_from(FLAGS[command]), unique=True), label="flags"
        ):
            if flags == ("--csv",):
                flags = ("--csv", marked)
                written.append(marked)
            groups.append(flags)
        if kind == "missing flag":
            inputs_given = [g for g in pairs if g[0] != "--out"]
            groups.remove(data.draw(st.sampled_from(inputs_given), label="dropped"))
        elif kind == "unknown flag":
            groups.append(("--bogus",))
        elif kind == "bad value":
            groups.append(data.draw(st.sampled_from(BAD_VALUES[command]), label="bad"))
        order = data.draw(st.permutations(groups), label="order")
        flat = [str(arg) for group in order for arg in group]
        argv = {"no subcommand": flat, "unknown subcommand": ["bogus", *flat]}.get(
            kind, [command, *flat]
        )
        for path in written:
            path.write_bytes(EARLIER)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CONTRACT, ""), err
        assert err.startswith("error: ctvm") and len(err.splitlines()) == 1, err
        for path in written:
            assert path.read_bytes() == EARLIER, path.name

    check()


# each fixture with a region its judgments hold, for eval --regions
FIXTURES = {"golden": "CA", "tri_region": "NY"}
# rerank's regions in a full run
FULL_REGIONS = "CA,NY,TX"


def rerank(capsys, tmp_path, tweets, news, queries, regions=FULL_REGIONS) -> bytes:
    out = tmp_path / "rankings.jsonl"
    code, _, _ = run(
        capsys, "rerank", "--tweets", tweets, "--news", news, "--queries", queries,
        "--regions", regions, "--out", out,
    )
    assert code == EXIT_OK
    return out.read_bytes()


def evaluate(capsys, tmp_path, rankings: bytes, judgments, *flags) -> bytes:
    source, out = tmp_path / "eval_in.jsonl", tmp_path / "rows.csv"
    source.write_bytes(rankings)
    code, _, _ = run(
        capsys, "eval", "--rankings", source, "--judgments", judgments,
        "--out", out, *flags,
    )
    assert code == EXIT_OK
    return out.read_bytes()


@pytest.fixture(params=sorted(FIXTURES))
def fixture(request, data_dir):
    return data_dir / request.param


def full_run(capsys, tmp_path, fixture) -> bytes:
    return rerank(
        capsys, tmp_path, fixture / "tweets.jsonl", fixture / "news.jsonl",
        fixture / "queries.jsonl",
    )


class TestMetamorphic:
    def test_reversed_lines_change_no_byte(self, fixture, tmp_path, capsys):
        """The fixtures repeat no id, so line order carries nothing."""
        judgments = fixture / "judgments.jsonl"
        expected = full_run(capsys, tmp_path, fixture)
        expected_rows = evaluate(capsys, tmp_path, expected, judgments)
        for name in ("tweets", "news"):
            write_lines(
                tmp_path / f"{name}.jsonl", read_lines(fixture / f"{name}.jsonl")[::-1]
            )
        rankings = rerank(
            capsys, tmp_path, tmp_path / "tweets.jsonl", tmp_path / "news.jsonl",
            fixture / "queries.jsonl",
        )
        assert rankings == expected
        assert evaluate(capsys, tmp_path, rankings, judgments) == expected_rows

    @pytest.mark.parametrize("regions", ["CA,TX", "TX,CA", "NY"])
    def test_rerank_region_subset_keeps_its_rows(self, regions, fixture, tmp_path, capsys):
        """Each group's engine rows, then its ctvm rows in --regions
        order, each exactly as the full run wrote them."""
        full = full_run(capsys, tmp_path, fixture).decode().splitlines(keepends=True)
        groups: dict[tuple, dict[str, list[str]]] = {}
        for line in full:
            row = json.loads(line)
            group = groups.setdefault((row["query_id"], row["engine"], row["date"]), {})
            group.setdefault(row["provenance"], []).append(line)
        expected = [
            line
            for group in groups.values()
            for provenance in ["engine", *(f"ctvm({r})" for r in regions.split(","))]
            for line in group[provenance]
        ]
        subset = rerank(
            capsys, tmp_path, fixture / "tweets.jsonl", fixture / "news.jsonl",
            fixture / "queries.jsonl", regions,
        )
        assert subset.decode().splitlines(keepends=True) == expected

    def test_eval_region_subset_keeps_its_rows(self, fixture, tmp_path, capsys):
        region = FIXTURES[fixture.name]
        judgments = fixture / "judgments.jsonl"
        rankings = full_run(capsys, tmp_path, fixture)
        header, *rows = evaluate(capsys, tmp_path, rankings, judgments).splitlines(
            keepends=True
        )
        subset = evaluate(capsys, tmp_path, rankings, judgments, "--regions", region)
        kept = [row for row in rows if row.startswith(f"{region},".encode())]
        assert kept
        assert subset == header + b"".join(kept)

    @pytest.mark.parametrize("where", ["outside the regions", "on a day without news"])
    def test_tweets_no_slice_holds_change_no_ranking(self, where, fixture, tmp_path, capsys):
        """A copy of every tweet, from Massachusetts or a day later, next
        to each original: no slice takes the copies in."""
        lines = []
        for line in read_lines(fixture / "tweets.jsonl"):
            record = json.loads(line)
            copy = {**record, "id": f"copy-{record['id']}"}
            if where == "outside the regions":
                copy["user_location"] = "Boston, MA"
            else:
                copy["timestamp"] = record["timestamp"].replace("2011-12-12", "2011-12-13")
            lines += [line, json.dumps(copy, ensure_ascii=False)]
        assert all("2011-12-13" not in line for line in read_lines(fixture / "news.jsonl"))
        tweets = tmp_path / "tweets.jsonl"
        write_lines(tweets, lines)
        assert rerank(
            capsys, tmp_path, tweets, fixture / "news.jsonl", fixture / "queries.jsonl"
        ) == full_run(capsys, tmp_path, fixture)
