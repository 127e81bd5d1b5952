from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
from datetime import date, datetime, timedelta, timezone
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ctvm
from ctvm import cli
from ctvm.cli import EXIT_CONTRACT, EXIT_INPUT, EXIT_OK, main
from ctvm.corpus import Query, Tweet, format_timestamp
from ctvm.errors import _LINE_BREAKS, ContractViolation, one_line, read_input


def read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def golden(data_dir):
    return data_dir / "golden"


class TestIngest:
    def test_golden_bytes(self, golden, tmp_path, capsys):
        out = tmp_path / "enriched.jsonl"
        code, _, err = run(
            capsys, "ingest", "--tweets", golden / "tweets.jsonl", "--out", out
        )
        assert code == EXIT_OK
        assert read(out) == read(golden / "expected_enriched.jsonl")
        # one JSON line, its counters in this order
        assert err == (
            '{"ingest": {"accepted": 7, "malformed": 0, "duplicates": 0, '
            '"region_unresolved": 0}}\n'
        )

    def test_idempotent_on_own_output(self, golden, tmp_path, capsys):
        out = tmp_path / "twice.jsonl"
        code, _, _ = run(
            capsys,
            "ingest",
            "--tweets",
            golden / "expected_enriched.jsonl",
            "--out",
            out,
        )
        assert code == EXIT_OK
        assert read(out) == read(golden / "expected_enriched.jsonl")

    def test_stdout_target(self, golden, capsys):
        code, out, _ = run(
            capsys, "ingest", "--tweets", golden / "tweets.jsonl", "--out", "-"
        )
        assert code == EXIT_OK
        assert out == read(golden / "expected_enriched.jsonl")

    def test_loose_abbrev_changes_resolution(self, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        write_lines(
            tweets,
            [
                json.dumps(
                    {
                        "id": "t1",
                        "text": "obama",
                        "timestamp": "2011-12-12T08:00:00Z",
                        "user_location": "NYC",
                    }
                )
            ],
        )
        _, out_strict, _ = run(capsys, "ingest", "--tweets", tweets, "--out", "-")
        _, out_loose, _ = run(
            capsys, "ingest", "--tweets", tweets, "--out", "-", "--loose-abbrev"
        )
        assert json.loads(out_strict)["region"] is None
        assert json.loads(out_loose)["region"] == "NY"

    def test_max_text_len(self, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        write_lines(
            tweets,
            [
                json.dumps(
                    {
                        "id": "t1",
                        "text": "obama " * 20,
                        "timestamp": "2011-12-12T08:00:00Z",
                    }
                )
            ],
        )
        _, _, err = run(
            capsys,
            "ingest",
            "--tweets",
            tweets,
            "--out",
            "-",
            "--max-text-len",
            "40",
        )
        assert json.loads(err)["ingest"]["malformed"] == 1

    def test_custom_region_table(self, tmp_path, capsys):
        table = tmp_path / "regions.csv"
        table.write_text("BA,Bavaria\n")
        tweets = tmp_path / "tweets.jsonl"
        write_lines(
            tweets,
            [
                json.dumps(
                    {
                        "id": "t1",
                        "text": "obama",
                        "timestamp": "2011-12-12T08:00:00Z",
                        "user_location": "Munich, Bavaria",
                    }
                )
            ],
        )
        _, out, _ = run(
            capsys,
            "ingest",
            "--tweets",
            tweets,
            "--out",
            "-",
            "--region-table",
            table,
        )
        assert json.loads(out)["region"] == "BA"

    @pytest.mark.parametrize(
        "table, message",
        [
            (
                "CA,California\nny,New York\n",
                "region code must be uppercase letters: 'ny'",
            ),
            ("CA,California\nCA,Cal\n", "duplicate region code: CA"),
            ("CA,California\nNY,\n", "region NY has an empty full name"),
        ],
    )
    def test_bad_region_table_exits_one(self, table, message, golden, tmp_path, capsys):
        path = tmp_path / "regions.csv"
        path.write_text(table, encoding="utf-8")
        code, _, err = run(
            capsys,
            "ingest",
            "--tweets",
            golden / "tweets.jsonl",
            "--out",
            tmp_path / "out.jsonl",
            "--region-table",
            path,
        )
        assert code == EXIT_INPUT
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out.jsonl").exists()


class TestRerank:
    def test_golden_bytes(self, golden, tmp_path, capsys):
        out = tmp_path / "rankings.jsonl"
        code, _, _ = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            golden / "news.jsonl",
            "--queries",
            golden / "queries.jsonl",
            "--regions",
            "CA",
            "--out",
            out,
        )
        assert code == EXIT_OK
        assert read(out) == read(golden / "expected_rankings.jsonl")

    @pytest.mark.parametrize("regions", ["CA,NY,TX", "TX,CA"])
    def test_provenance_labels(self, regions, data_dir, capsys):
        """Each group writes the engine's ranking, then one ctvm(region)
        ranking per --regions code, in the order given."""
        tri = data_dir / "tri_region"
        code, out, _ = run(
            capsys, "rerank", "--tweets", tri / "tweets.jsonl", "--news",
            tri / "news.jsonl", "--queries", tri / "queries.jsonl",
            "--regions", regions, "--out", "-",
        )
        assert code == EXIT_OK
        provenances = [json.loads(line)["provenance"] for line in out.splitlines()]
        labels = ["engine"] + [f"ctvm({region})" for region in regions.split(",")]
        assert provenances == [label for label in labels for _ in range(5)]

    def test_enriched_input_gives_same_rankings(self, golden, tmp_path, capsys):
        out = tmp_path / "rankings.jsonl"
        code, _, _ = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "expected_enriched.jsonl",
            "--news",
            golden / "news.jsonl",
            "--queries",
            golden / "queries.jsonl",
            "--regions",
            "CA",
            "--out",
            out,
        )
        assert code == EXIT_OK
        assert read(out) == read(golden / "expected_rankings.jsonl")

    def test_unknown_region_exits_one(self, golden, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            golden / "news.jsonl",
            "--queries",
            golden / "queries.jsonl",
            "--regions",
            "CA,ZZ",
            "--out",
            tmp_path / "out.jsonl",
        )
        assert code == EXIT_INPUT
        assert "ZZ" in err

    def test_no_usable_news_exits_one(self, golden, tmp_path, capsys):
        news = tmp_path / "news.jsonl"
        write_lines(news, ["not json", json.dumps({"id": "n1"})])
        code, _, err = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            news,
            "--queries",
            golden / "queries.jsonl",
            "--out",
            tmp_path / "out.jsonl",
        )
        assert code == EXIT_INPUT
        assert err == (
            "note: 2 malformed news lines dropped\n"
            f"error: no usable news records in {news}\n"
        )

    def test_repeated_ids_are_noted(self, golden, tmp_path, capsys):
        """A repeated tweet or news id is dropped, the first record
        kept, with one note per input: the rankings do not change."""
        tweets, news = tmp_path / "tweets.jsonl", tmp_path / "news.jsonl"
        tweet_lines = read(golden / "tweets.jsonl").splitlines()
        write_lines(tweets, [*tweet_lines, tweet_lines[0], tweet_lines[1]])
        news_lines = read(golden / "news.jsonl").splitlines()
        repeat = {**json.loads(news_lines[0]), "title": "Another title"}
        write_lines(news, [*news_lines, json.dumps(repeat)])
        out = tmp_path / "rankings.jsonl"
        code, _, err = run(
            capsys, "rerank", "--tweets", tweets, "--news", news, "--queries",
            golden / "queries.jsonl", "--regions", "CA", "--out", out,
        )
        assert code == EXIT_OK
        assert err == (
            "note: 2 duplicate tweet records dropped (first kept)\n"
            "note: 1 duplicate news records dropped (first kept)\n"
        )
        assert read(out) == read(golden / "expected_rankings.jsonl")

    def test_gappy_ranks_exit_one(self, golden, tmp_path, capsys):
        news = tmp_path / "news.jsonl"
        record = {
            "id": "n1",
            "query_id": "obama",
            "engine": "google",
            "original_rank": 2,
            "title": "Obama speaks",
            "retrieved_date": "2011-12-12",
        }
        write_lines(news, [json.dumps(record)])
        code, _, err = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            news,
            "--queries",
            golden / "queries.jsonl",
            "--regions",
            "CA",
            "--out",
            tmp_path / "out.jsonl",
        )
        assert code == EXIT_INPUT
        assert "contiguous" in err

    def test_missing_query_exits_one(self, golden, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        write_lines(queries, [json.dumps({"id": "other", "variants": ["other"]})])
        code, _, err = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            golden / "news.jsonl",
            "--queries",
            queries,
            "--regions",
            "CA",
            "--out",
            tmp_path / "out.jsonl",
        )
        assert code == EXIT_INPUT
        assert "obama" in err

    @pytest.mark.parametrize(
        "query_id, shown",
        [
            ("a\nerror: b", r"a\nerror: b"),
            ("a\r\nb", r"a\r\nb"),
            ("\v\f\x1c\x1d\x1e\x85", r"\x0b\x0c\x1c\x1d\x1e\x85"),
            ("x\u2028y\u2029", r"x\u2028y\u2029"),
            ("tab\tand\\n", "tab\tand\\n"),
        ],
    )
    def test_line_breaks_in_an_id_keep_the_error_on_one_line(
        self, query_id, shown, data_dir, tmp_path, capsys
    ):
        """Each character str.splitlines breaks at is written as its
        escape, so a repeated query id cannot add a line that reads as a
        second error; any other character is written as it is."""
        tri = data_dir / "tri_region"
        queries = tmp_path / "queries.jsonl"
        line = json.dumps({"id": query_id, "variants": ["merger"]})
        write_lines(queries, [line, line])
        code, _, err = run(
            capsys, "rerank", "--tweets", tri / "tweets.jsonl", "--news",
            tri / "news.jsonl", "--queries", queries, "--out", tmp_path / "out.jsonl",
        )
        assert code == EXIT_INPUT
        assert err == f"error: duplicate query id: {shown}\n"

    def test_bad_queries_file_exits_one(self, golden, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        write_lines(queries, [json.dumps({"id": "obama"})])
        code, _, err = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            golden / "news.jsonl",
            "--queries",
            queries,
            "--regions",
            "CA",
            "--out",
            tmp_path / "out.jsonl",
        )
        assert code == EXIT_INPUT
        assert "query record" in err

    def test_date_filter_can_empty_the_run(self, golden, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            golden / "news.jsonl",
            "--queries",
            golden / "queries.jsonl",
            "--regions",
            "CA",
            "--date",
            "2011-12-13",
            "--out",
            tmp_path / "out.jsonl",
        )
        assert code == EXIT_INPUT
        assert "nothing to rerank" in err

    @pytest.mark.parametrize("day", [None, "2011-12-12", "2011-12-13"])
    def test_tweet_order_does_not_change_output(self, day, data_dir, tmp_path, capsys):
        """The tri-region fixture over two days (day two gives each
        region the next region's texts) reranks to the same bytes with
        its tweet lines shuffled, with and without --date."""
        tri = data_dir / "tri_region"
        tweets = read(tri / "tweets.jsonl").splitlines()
        news = read(tri / "news.jsonl").splitlines()
        tweets += [line.replace("2011-12-12T", "2011-12-13T") for line in tweets]
        news += [
            line.replace('"2011-12-12"', '"2011-12-13"').replace('"n', '"m')
            for line in news
        ]
        texts = [json.loads(line)["text"] for line in tweets[:18]]
        for i in range(18, 36):
            record = json.loads(tweets[i])
            record["id"] += "-2"
            text = texts[(i - 18 + 6) % 18]
            # repeating a word makes each vote irrational, so a sum
            # taken in another tweet order can differ in its last bits
            record["text"] = text + f" {text.split()[1]}" * (1 + i % 3)
            tweets[i] = json.dumps(record)
        write_lines(tmp_path / "news.jsonl", news)
        date_flag = ["--date", day] if day else []
        outputs = []
        for name in ("ordered", "shuffled"):
            write_lines(tmp_path / f"{name}.jsonl", tweets)
            out = tmp_path / f"{name}.out"
            code, _, _ = run(
                capsys, "rerank", "--tweets", tmp_path / f"{name}.jsonl",
                "--news", tmp_path / "news.jsonl", "--queries",
                tri / "queries.jsonl", "--out", out, *date_flag,
            )
            assert code == EXIT_OK
            outputs.append(read(out))
            random.Random(5).shuffle(tweets)
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in outputs[0].splitlines()]
        assert {r["date"] for r in rows} == ({day} if day else
                                             {"2011-12-12", "2011-12-13"})
        first = {(r["date"], r["provenance"]): r["news_id"]
                 for r in rows if r["position"] == 1}
        if day in (None, "2011-12-12"):
            assert first["2011-12-12", "ctvm(CA)"] == "n5"
        if day in (None, "2011-12-13"):
            assert first["2011-12-13", "ctvm(CA)"] == "m4"

    @pytest.mark.parametrize(
        "snippet_flag, digest",
        [
            ([], "2cc1cf64ef8b938deab72d9377c551b3bc7c507ae59023e33d425f933661689b"),
            (
                ["--include-snippet"],
                "98af49c12dd5dca0a6d8d841f26b2c263817f217b32665bfc504f26d54f7c450",
            ),
        ],
    )
    def test_each_group_vectorizes_its_news_once(
        self, snippet_flag, digest, data_dir, tmp_path, capsys, monkeypatch
    ):
        """The three regions rank the same five docs, so each doc's text
        is vectorized once for all of them. The digests are of the bytes
        written when every region vectorized the docs itself."""
        tri = data_dir / "tri_region"
        news = [json.loads(line) for line in read(tri / "news.jsonl").splitlines()]
        snippets = ["falcon harbor deal", "", "meteor canyon talks",
                    "copper shares", "zebra quartz zebra"]
        for record, snippet in zip(news, snippets):
            record["snippet"] = snippet
        write_lines(tmp_path / "news.jsonl", [json.dumps(r) for r in news])
        news_texts = {r["title"] for r in news} | {
            f"{r['title']} {r['snippet']}" for r in news
        }
        texts = []
        to_vector = ctvm.voting.to_vector
        monkeypatch.setattr(
            ctvm.voting,
            "to_vector",
            lambda text, pipeline: texts.append(text) or to_vector(text, pipeline),
        )
        code, out, _ = run(
            capsys, "rerank", "--tweets", tri / "tweets.jsonl", "--news",
            tmp_path / "news.jsonl", "--queries", tri / "queries.jsonl",
            "--out", "-", *snippet_flag,
        )
        assert code == EXIT_OK
        assert len([t for t in texts if t in news_texts]) == len(news)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_each_query_builds_one_pipeline(self, golden, tmp_path, capsys, monkeypatch):
        """Golden's news copied under a second engine gives its one query
        two (engine, day) groups, which share one pipeline, and each
        engine's rankings are golden's."""
        news = [json.loads(line) for line in read(golden / "news.jsonl").splitlines()]
        copies = [{**r, "id": f"bing-{r['id']}", "engine": "bing"} for r in news]
        write_lines(tmp_path / "news.jsonl", [json.dumps(r) for r in news + copies])
        built = []
        pipeline = cli.Pipeline
        monkeypatch.setattr(
            cli, "Pipeline", lambda **kwargs: built.append(kwargs) or pipeline(**kwargs)
        )
        code, out, _ = run(
            capsys, "rerank", "--tweets", golden / "tweets.jsonl", "--news",
            tmp_path / "news.jsonl", "--queries", golden / "queries.jsonl",
            "--regions", "CA", "--out", "-",
        )
        assert code == EXIT_OK
        assert len(built) == 1
        rows = [json.loads(line) for line in out.splitlines()]
        expected = [
            json.loads(line)
            for line in read(golden / "expected_rankings.jsonl").splitlines()
        ]
        assert [r for r in rows if r["engine"] == "google"] == expected
        assert [r for r in rows if r["engine"] == "bing"] == [
            {**r, "engine": "bing", "news_id": f"bing-{r['news_id']}"} for r in expected
        ]

    def test_every_engine_selects_from_one_pool(
        self, golden, tmp_path, capsys, monkeypatch
    ):
        """Golden's news copied under a second engine: each engine's
        slice makes one Query.matches call per tweet it places, fewer
        than the (region, day) holds, both slices hold the same tweets,
        and the first engine's rankings are a one-engine run's."""
        news = [json.loads(line) for line in read(golden / "news.jsonl").splitlines()]
        copies = [{**r, "id": f"yahoo-{r['id']}", "engine": "yahoo"} for r in news]
        write_lines(tmp_path / "news.jsonl", [json.dumps(r) for r in news + copies])
        calls = []
        matches = Query.matches
        monkeypatch.setattr(
            Query, "matches", lambda self, text: calls.append(text) or matches(self, text)
        )
        slices = []
        slice_corpus = cli.slice_corpus

        def counted(tweets, *args):
            before = len(calls)
            corpus_slice = slice_corpus(tweets, *args)
            slices.append((corpus_slice, len(calls) - before))
            return corpus_slice

        monkeypatch.setattr(cli, "slice_corpus", counted)
        code, out, _ = run(
            capsys, "rerank", "--tweets", golden / "tweets.jsonl", "--news",
            tmp_path / "news.jsonl", "--queries", golden / "queries.jsonl",
            "--regions", "CA", "--out", "-",
        )
        assert code == EXIT_OK
        (first, first_calls), (second, second_calls) = slices
        assert (first.engine, second.engine) == ("google", "yahoo")
        bucket = [
            t for t in cli.ingest_tweets(
                read(golden / "tweets.jsonl").splitlines(True),
                cli.load_region_table(None),
            )[0]
            if t.region == "CA" and t.day() == first.day
        ]
        assert first_calls == second_calls == len(first.tweets) < len(bucket)
        assert second.tweets == first.tweets
        rows = [json.loads(line) for line in out.splitlines()]
        expected = [
            json.loads(line)
            for line in read(golden / "expected_rankings.jsonl").splitlines()
        ]
        assert [r for r in rows if r["engine"] == "google"] == expected

    def test_region_without_tweets_reproduces_engine_order(
        self, golden, capsys
    ):
        code, out, _ = run(
            capsys,
            "rerank",
            "--tweets",
            golden / "tweets.jsonl",
            "--news",
            golden / "news.jsonl",
            "--queries",
            golden / "queries.jsonl",
            "--regions",
            "TX",
            "--out",
            "-",
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        engine = [r["news_id"] for r in rows if r["provenance"] == "engine"]
        tx = [r["news_id"] for r in rows if r["provenance"] == "ctvm(TX)"]
        assert tx == engine
        assert all(
            r["vote"] == 0.0 for r in rows if r["provenance"] == "ctvm(TX)"
        )

    def test_include_snippet_changes_votes(self, golden, tmp_path, capsys):
        news = tmp_path / "news.jsonl"
        record = {
            "id": "n1",
            "query_id": "obama",
            "engine": "google",
            "original_rank": 1,
            "title": "Obama year in review",
            "snippet": "tax plan, speeches and a vacation",
            "retrieved_date": "2011-12-12",
        }
        write_lines(news, [json.dumps(record)])
        common = ["--tweets", golden / "tweets.jsonl", "--news", news,
                  "--queries", golden / "queries.jsonl", "--regions", "CA",
                  "--out", "-"]
        _, bare, _ = run(capsys, "rerank", *common)
        _, rich, _ = run(capsys, "rerank", *common, "--include-snippet")

        def vote_of(text):
            for line in text.splitlines():
                row = json.loads(line)
                if row["provenance"] == "ctvm(CA)":
                    return row["vote"]

        assert vote_of(bare) == 0.0
        assert vote_of(rich) > 0.0

    def test_full_cosine_votes_are_smaller(self, golden, capsys):
        common = ["--tweets", golden / "tweets.jsonl",
                  "--news", golden / "news.jsonl",
                  "--queries", golden / "queries.jsonl",
                  "--regions", "CA", "--out", "-"]
        _, common_out, _ = run(capsys, "rerank", *common)
        _, full_out, _ = run(capsys, "rerank", *common, "--sim", "full-cosine")

        def votes_of(text):
            return {
                json.loads(line)["news_id"]: json.loads(line)["vote"]
                for line in text.splitlines()
                if json.loads(line)["provenance"] == "ctvm(CA)"
            }

        strict = votes_of(common_out)
        full = votes_of(full_out)
        assert set(strict) == set(full)
        assert all(full[n] <= strict[n] for n in strict)
        assert any(full[n] < strict[n] for n in strict)


class TestEval:
    def test_golden_bytes(self, golden, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            "eval",
            "--rankings",
            golden / "expected_rankings.jsonl",
            "--judgments",
            golden / "judgments.jsonl",
            "--out",
            out,
        )
        assert code == EXIT_OK
        assert read(out) == read(golden / "expected_rows.csv")

    def test_cutoff_list(self, golden, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--rankings",
            golden / "expected_rankings.jsonl",
            "--judgments",
            golden / "judgments.jsonl",
            "--k",
            "2,1",
            "--out",
            "-",
        )
        assert code == EXIT_OK
        cutoffs = [line.split(",")[3] for line in out.splitlines()[1:]]
        assert cutoffs == ["1", "2", "1", "2"]

    def test_integer_flags_take_ascii_digits_with_spaces(self):
        """Spaces around a number or a cutoff still parse; a sign, an
        underscore or another script's digit is a usage error
        (tests/test_guards.py's BAD_VALUES)."""
        args = cli.build_parser().parse_args(
            ["eval", "--rankings", "r", "--judgments", "j", "--out", "-",
             "--k", "3, 5 ,1", "--min-judges", " 03 "]
        )
        assert (args.cutoffs, args.min_judges) == ((1, 3, 5), 3)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            st.one_of(
                st.sampled_from("0123456789+-_²"),
                st.characters(categories=["Nd", "Zs"]),
                st.sampled_from("\t\n\r\x0b\x0c\x1c\x85\u2028"),
            ),
            max_size=8,
        )
    )
    @example("٣")
    @example("+5")
    @example("0_3")
    @example("²")
    @example(" 03\u3000")
    def test_digits_takes_exactly_stripped_ascii_digits(self, value):
        """_digits takes exactly the strings whose stripped form is one
        or more of 0-9; any other script's digit, a sign, an underscore
        or a superscript is refused."""
        if re.fullmatch("[0-9]+", value.strip()):
            assert cli._digits(value) == int(value.strip())
        else:
            with pytest.raises(ValueError):
                cli._digits(value)

    def test_literal_variant_ignores_order(self, golden, capsys):
        # no positional discount, so engine and reranked rows all score 1
        code, out, _ = run(
            capsys,
            "eval",
            "--rankings",
            golden / "expected_rankings.jsonl",
            "--judgments",
            golden / "judgments.jsonl",
            "--ndcg",
            "literal",
            "--out",
            "-",
        )
        assert code == EXIT_OK
        values = {line.split(",")[4] for line in out.splitlines()[1:]}
        assert values == {"1.0000000000"}

    def test_round_relevance_changes_engine_score(self, golden, capsys):
        _, plain, _ = run(
            capsys,
            "eval",
            "--rankings",
            golden / "expected_rankings.jsonl",
            "--judgments",
            golden / "judgments.jsonl",
            "--out",
            "-",
        )
        _, rounded, _ = run(
            capsys,
            "eval",
            "--rankings",
            golden / "expected_rankings.jsonl",
            "--judgments",
            golden / "judgments.jsonl",
            "--round-relevance",
            "--out",
            "-",
        )

        def engine_at_3(text):
            for line in text.splitlines()[1:]:
                cells = line.split(",")
                if cells[2] == "engine" and cells[3] == "3":
                    return cells[4]

        assert engine_at_3(plain) == "0.6285831123"
        assert engine_at_3(rounded) != "0.6285831123"
        # the reranked order is ideal either way
        assert "ctvm(CA),3,1.0000000000" in rounded

    def test_min_judges_can_exhaust_judgments(self, golden, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--rankings",
            golden / "expected_rankings.jsonl",
            "--judgments",
            golden / "judgments.jsonl",
            "--min-judges",
            "4",
            "--out",
            tmp_path / "rows.csv",
        )
        assert code == EXIT_INPUT
        assert "no usable judgments" in err

    @pytest.mark.parametrize(
        "flags, unjudged, min_judges",
        [
            ((), "['TX']", 3),
            (("--require-complete",), "['TX']", 3),
            # golden's CA cells have three judges each
            (("--min-judges", "4"), "['CA', 'TX']", 4),
        ],
        ids=["no-judgments", "require-complete", "under-min-judges"],
    )
    def test_region_without_kept_cells_exits_one(
        self, flags, unjudged, min_judges, golden, capsys
    ):
        """A --regions region with no judgment cell left after aggregation
        is named on one error line, not scored 0 on every row."""
        code, out, err = run(
            capsys, "eval", "--rankings", golden / "expected_rankings.jsonl",
            "--judgments", golden / "judgments.jsonl", "--regions", "CA,TX",
            *flags, "--out", "-",
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err.splitlines() == [
            f"error: regions {unjudged} have no judgment cell with at least "
            f"{min_judges} judges in {golden / 'judgments.jsonl'}"
        ]

    def test_region_whose_cells_fall_under_min_judges_exits_one(
        self, golden, tmp_path, capsys
    ):
        """A region with judgments, every cell of them under --min-judges,
        is named while a region with kept cells is scored."""
        lines = read(golden / "judgments.jsonl").splitlines()
        records = [json.loads(line) for line in lines]
        thin = [{**r, "region": "NY"} for r in records if r["judge_id"] != "ca-j3"]
        write_lines(tmp_path / "judgments.jsonl", lines + list(map(json.dumps, thin)))
        argv = (
            "eval", "--rankings", golden / "expected_rankings.jsonl",
            "--judgments", tmp_path / "judgments.jsonl", "--out", "-",
        )
        code, out, err = run(capsys, *argv, "--regions", "CA,NY")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            "error: regions ['NY'] have no judgment cell with at least 3 judges "
            f"in {tmp_path / 'judgments.jsonl'}\n"
        )
        code, _, _ = run(capsys, *argv, "--regions", "CA,NY", "--min-judges", "2")
        assert code == EXIT_OK
        code, out, _ = run(capsys, *argv, "--regions", "CA")
        assert code == EXIT_OK and out == read(golden / "expected_rows.csv")

    def test_require_complete_drops_partial_queries(self, tmp_path, capsys):
        rankings = tmp_path / "rankings.jsonl"
        rows = []
        for query_id, ids in (("q1", ["n1", "n2"]), ("q2", ["n3", "zz"])):
            for position, news_id in enumerate(ids, start=1):
                rows.append(
                    json.dumps(
                        {
                            "query_id": query_id,
                            "engine": "google",
                            "date": "2011-12-12",
                            "provenance": "engine",
                            "position": position,
                            "news_id": news_id,
                            "vote": None,
                        }
                    )
                )
        write_lines(rankings, rows)
        judgments = tmp_path / "judgments.jsonl"
        records = []
        for news_id in ("n1", "n2", "n3"):
            for judge in ("j1", "j2", "j3"):
                records.append(
                    json.dumps(
                        {
                            "query_id": "q1" if news_id in ("n1", "n2") else "q2",
                            "news_id": news_id,
                            "region": "CA",
                            "judge_id": judge,
                            "label": 2,
                        }
                    )
                )
        write_lines(judgments, records)
        common = ["--rankings", rankings, "--judgments", judgments,
                  "--k", "2", "--out", "-"]
        _, loose_out, _ = run(capsys, "eval", *common)
        _, strict_out, _ = run(capsys, "eval", *common, "--require-complete")
        assert loose_out.splitlines()[1].endswith(",2")
        assert strict_out.splitlines()[1].endswith(",1")

    def test_require_complete_names_the_first_exhausted_group(self, tmp_path, capsys):
        """bing ranks n1, n2 and google n1, zz for q1. CA judged n1 and
        n2, NY only n1: the flag leaves google nothing in CA and neither
        engine anything in NY. The error is the first in (region,
        group) order, with its engine, and no rows are written."""
        rankings = tmp_path / "rankings.jsonl"
        write_lines(rankings, [
            json.dumps({
                "query_id": "q1", "engine": engine, "date": "2011-12-12",
                "provenance": "engine", "position": position,
                "news_id": news_id, "vote": None,
            })
            for engine, ids in (("bing", ["n1", "n2"]), ("google", ["n1", "zz"]))
            for position, news_id in enumerate(ids, start=1)
        ])
        judgments = tmp_path / "judgments.jsonl"
        write_lines(judgments, [
            json.dumps({
                "query_id": "q1", "news_id": news_id, "region": region,
                "judge_id": judge, "label": 2,
            })
            for region, news_id in (("CA", "n1"), ("CA", "n2"), ("NY", "n1"))
            for judge in ("j1", "j2", "j3")
        ])
        out = tmp_path / "rows.csv"
        for regions, first in (
            ("CA,NY", "google/engine in region CA"),
            ("NY,CA", "bing/engine in region NY"),
        ):
            code, _, err = run(
                capsys, "eval", "--rankings", rankings, "--judgments", judgments,
                "--regions", regions, "--require-complete", "--out", out,
            )
            assert code == EXIT_INPUT
            assert err == (
                f"error: no evaluable queries for {first} "
                "(require_complete dropped all 1)\n"
            )
            assert not out.exists()
        code, _, _ = run(
            capsys, "eval", "--rankings", rankings, "--judgments", judgments,
            "--regions", "CA", "--out", out,
        )
        assert code == EXIT_OK

    def test_miss_note_counts_scored_units_only(self, data_dir, tmp_path, capsys):
        """The tri-region rankings plus a second day in which every
        ranking holds one unjudged doc (n9 for n5). Without the flag each
        of the 3 regions x 4 provenances misses n9 once; with it, day two
        is skipped, the rest scores as day one alone, and no miss is
        noted."""
        tri = data_dir / "tri_region"
        day_one = tmp_path / "day_one.jsonl"
        code, _, _ = run(
            capsys, "rerank", "--tweets", tri / "tweets.jsonl", "--news",
            tri / "news.jsonl", "--queries", tri / "queries.jsonl",
            "--regions", "CA,NY,TX", "--out", day_one,
        )
        assert code == EXIT_OK
        lines = read(day_one).splitlines()
        day_two = [
            line.replace('"2011-12-12"', '"2011-12-13"').replace('"n5"', '"n9"')
            for line in lines
        ]
        both_days = tmp_path / "both_days.jsonl"
        write_lines(both_days, lines + day_two)

        def evaluate(rankings, *flags):
            code, out, err = run(
                capsys, "eval", "--rankings", rankings, "--judgments",
                tri / "judgments.jsonl", "--out", "-", *flags,
            )
            assert code == EXIT_OK
            return out, err

        loose, loose_err = evaluate(both_days)
        assert "note: 12 ranked docs had no judgment; scored 0" in loose_err
        assert {line.split(",")[5] for line in loose.splitlines()[1:]} == {"2"}
        strict, strict_err = evaluate(both_days, "--require-complete")
        assert "no judgment" not in strict_err
        alone, alone_err = evaluate(day_one)
        assert "no judgment" not in alone_err
        assert strict == alone
        assert {line.split(",")[5] for line in strict.splitlines()[1:]} == {"1"}

    def test_malformed_ranking_row_exits_one(self, golden, tmp_path, capsys):
        rankings = tmp_path / "rankings.jsonl"
        write_lines(rankings, [json.dumps({"query_id": "q"})])
        code, _, err = run(
            capsys,
            "eval",
            "--rankings",
            rankings,
            "--judgments",
            golden / "judgments.jsonl",
            "--out",
            "-",
        )
        assert code == EXIT_INPUT
        assert "line 1" in err

    def test_blank_rankings_file_exits_one(self, golden, tmp_path, capsys):
        rankings = tmp_path / "rankings.jsonl"
        rankings.write_text("\n  \n\t\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "eval",
            "--rankings",
            rankings,
            "--judgments",
            golden / "judgments.jsonl",
            "--out",
            "-",
        )
        assert code == EXIT_INPUT
        assert (out, err) == ("", f"error: no ranking rows in {rankings}\n")

    def eval_ranking(self, rows, golden, tmp_path, capsys):
        """Run eval on one obama/google/2011-12-12 engine ranking whose
        rows hold the given (position, news id) pairs."""
        rankings = tmp_path / "rankings.jsonl"
        row = {
            "query_id": "obama",
            "engine": "google",
            "date": "2011-12-12",
            "provenance": "engine",
            "vote": None,
        }
        write_lines(
            rankings,
            [json.dumps({**row, "position": p, "news_id": n}) for p, n in rows],
        )
        return run(
            capsys,
            "eval",
            "--rankings",
            rankings,
            "--judgments",
            golden / "judgments.jsonl",
            "--out",
            "-",
        )

    def test_duplicate_position_exits_one(self, golden, tmp_path, capsys):
        rows = [(1, "n-vac"), (1, "n-tax")]
        code, out, err = self.eval_ranking(rows, golden, tmp_path, capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            "error: rankings for obama/google/2011-12-12/engine: "
            "positions must run 1..n; saw 1 at 2\n"
        )

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(1, "n-vac"), (3, "n-tax")], "positions must run 1..n; saw 3 at 2"),
            ([(2, "n-vac"), (3, "n-tax")], "positions must run 1..n; saw 2 at 1"),
            ([(1, "n-vac"), (2, "n-vac")], "duplicate news id in ranking: n-vac"),
        ],
        ids=["gap", "late-start", "repeated-id"],
    )
    def test_bad_ranking_exits_one(self, rows, message, golden, tmp_path, capsys):
        code, out, err = self.eval_ranking(rows, golden, tmp_path, capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            f"error: rankings for obama/google/2011-12-12/engine: {message}\n"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("query_id", 5),
            ("provenance", ["a"]),
            ("provenance", ""),
            ("date", None),
            ("position", True),
        ],
    )
    def test_mistyped_ranking_field_exits_one(
        self, field, value, golden, tmp_path, capsys
    ):
        lines = read(golden / "expected_rankings.jsonl").splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        rankings = tmp_path / "rankings.jsonl"
        write_lines(rankings, lines)
        code, _, err = run(
            capsys,
            "eval",
            "--rankings",
            rankings,
            "--judgments",
            golden / "judgments.jsonl",
            "--out",
            "-",
        )
        assert code == EXIT_INPUT
        assert err.startswith(f"error: bad ranking row on line 2: {field} ")

    def test_ranking_row_order_does_not_matter(self, data_dir, tmp_path, capsys):
        for fixture in (data_dir / "golden", data_dir / "tri_region"):
            lines = read(fixture / "expected_rankings.jsonl").splitlines()
            rankings = tmp_path / "rankings.jsonl"
            write_lines(rankings, lines[::-1])
            out = tmp_path / "rows.csv"
            code, _, _ = run(
                capsys, "eval", "--rankings", rankings,
                "--judgments", fixture / "judgments.jsonl", "--out", out,
            )
            assert code == EXIT_OK
            assert out.read_bytes() == (fixture / "expected_rows.csv").read_bytes()


def test_failed_write_keeps_existing_out(golden, tmp_path, capsys, monkeypatch):
    """A run that fails while writing --out leaves the old file as it
    was and no temporary file behind."""
    out = tmp_path / "enriched.jsonl"
    out.write_text("from an earlier run\n")
    written = []

    def format_then_fail(value):
        if written:
            raise OSError("disk full")
        written.append(value)
        return format_timestamp(value)

    monkeypatch.setattr(cli, "format_timestamp", format_then_fail)
    code, _, err = run(
        capsys, "ingest", "--tweets", golden / "tweets.jsonl", "--out", out
    )
    assert code == EXIT_INPUT and "disk full" in err
    assert written
    assert out.read_text() == "from an earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["enriched.jsonl"]


def ingest_golden_to(golden, capsys, out):
    return run(capsys, "ingest", "--tweets", golden / "tweets.jsonl", "--out", out)


def test_replaced_out_keeps_its_mode(golden, tmp_path, capsys):
    out = tmp_path / "enriched.jsonl"
    out.write_text("from an earlier run\n")
    out.chmod(0o640)
    code, _, _ = ingest_golden_to(golden, capsys, out)
    assert code == EXIT_OK
    assert read(out) == read(golden / "expected_enriched.jsonl")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


@pytest.mark.parametrize("kind", ["symlink", "hard link"])
def test_linked_out_is_written_through(kind, golden, tmp_path, capsys):
    """A symlink or a second hard link to --out stays a link to the
    file that gets the output."""
    target = tmp_path / "target.jsonl"
    target.write_text("from an earlier run\n")
    link = tmp_path / "link.jsonl"
    if kind == "symlink":
        link.symlink_to(target)
    else:
        os.link(target, link)
    code, _, _ = ingest_golden_to(golden, capsys, link)
    assert code == EXIT_OK
    assert link.is_symlink() == (kind == "symlink")
    assert read(target) == read(golden / "expected_enriched.jsonl")
    assert sorted(p.name for p in tmp_path.iterdir()) == [link.name, target.name]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_to_fifo_is_written_in_place(golden, tmp_path, capsys):
    """A FIFO (like /dev/stdout or a shell's process substitution) is
    not a file to replace: it is written directly and stays a FIFO."""
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True
    )
    reader.start()
    code, _, _ = ingest_golden_to(golden, capsys, fifo)
    reader.join(timeout=10)
    assert code == EXIT_OK
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == [(golden / "expected_enriched.jsonl").read_bytes()]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_out_to_dev_stdout_appends_to_shell_redirect(golden, tmp_path):
    """--out /dev/stdout under `>> log` writes through stdout, so the
    line the log already held survives (reopening it with "w" would
    truncate it)."""
    log = tmp_path / "log.jsonl"
    log.write_text("from an earlier run\n")
    src = str(Path(ctvm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    with open(log, "a", encoding="utf-8") as stdout:
        done = subprocess.run(
            [sys.executable, "-m", "ctvm.cli", "ingest",
             "--tweets", str(golden / "tweets.jsonl"), "--out", "/dev/stdout"],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert done.returncode == EXIT_OK, done.stderr
    expected = read(golden / "expected_enriched.jsonl")
    assert read(log) == "from an earlier run\n" + expected


@pytest.mark.parametrize("target", ["-", "/dev/stdout"])
def test_stdout_is_utf8_whatever_the_locale(target, tmp_path):
    """Stdout gets UTF-8 bytes, like an --out file, even when Python's
    own stdout encoding (here latin-1) cannot encode the text."""
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text(
        json.dumps(
            {
                "id": "t1",
                "text": "snow day \U0001F600 in austin",
                "timestamp": "2011-12-12T10:00:00Z",
                "user_location": "Austin, TX",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    src = str(Path(ctvm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="latin-1")
    done = subprocess.run(
        [sys.executable, "-m", "ctvm.cli", "ingest",
         "--tweets", str(tweets), "--out", target],
        capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert b"Traceback" not in done.stderr
    record = json.loads(done.stdout.decode("utf-8"))
    assert record["text"] == "snow day \U0001F600 in austin"
    assert record["region"] == "TX"


@pytest.mark.parametrize("to_stdout", [False, True])
def test_closed_stdout_gives_no_traceback(to_stdout, golden, tmp_path):
    """Started with stdout closed, a run writes an existing --out file
    as usual, and `--out -` exits 1 with one error line."""
    out = tmp_path / "enriched.jsonl"
    out.write_text("from an earlier run\n")
    target = "-" if to_stdout else str(out)
    src = str(Path(ctvm.__file__).resolve().parents[1])
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" -m ctvm.cli ingest --tweets "$1" --out "$2" >&-',
         sys.executable, str(golden / "tweets.jsonl"), target],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert "Traceback" not in done.stderr
    if to_stdout:
        assert done.returncode == EXIT_INPUT
        assert done.stderr == "error: cannot write stdout: stdout is closed\n"
    else:
        assert done.returncode == EXIT_OK, done.stderr
        assert read(out) == read(golden / "expected_enriched.jsonl")


def test_text_only_stdout_is_written_as_text(golden):
    """A stdout with no byte buffer under it (redirect_stdout to a
    StringIO, a notebook's stream) takes the text as it is."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(["ingest", "--tweets", str(golden / "tweets.jsonl"),
                     "--out", "-"])
    assert code == EXIT_OK
    assert sink.getvalue() == read(golden / "expected_enriched.jsonl")


class _FullStream(io.StringIO):
    """A stderr on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def _unwritable_stderr_cases(golden, tmp_path):
    """(argv, exit code) for a usage error, a missing input and a good
    ingest, which also writes a stats line."""
    out = str(tmp_path / "enriched.jsonl")
    return [
        (["eval", "--rankings", "x", "--judgments", "y", "--out", "z", "--k", "0"],
         EXIT_CONTRACT),
        (["ingest", "--tweets", str(tmp_path / "missing.jsonl"), "--out", out],
         EXIT_INPUT),
        (["ingest", "--tweets", str(golden / "tweets.jsonl"), "--out", out], EXIT_OK),
    ]


def test_unwritable_stderr_keeps_the_exit_code(golden, tmp_path, monkeypatch):
    """A stderr that cannot take a line loses the line, not the exit
    code, and a good run still writes its --out."""
    for argv, want in _unwritable_stderr_cases(golden, tmp_path):
        monkeypatch.setattr(sys, "stderr", _FullStream())
        assert main(argv) == want, argv
    assert read(tmp_path / "enriched.jsonl") == read(golden / "expected_enriched.jsonl")


@pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_unwritable_stderr_process_keeps_the_exit_code(
    redirect, unbuffered, golden, tmp_path
):
    """The same cases as a process with stderr on a full device or
    closed, so the interpreter's own flush at exit is reached too; and
    with stderr closed, ingest's statistics line stays off stdout."""
    if redirect == "2>/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    src = str(Path(ctvm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    tweets = str(golden / "tweets.jsonl")
    cases = _unwritable_stderr_cases(golden, tmp_path)
    for argv, want in cases + [(["ingest", "--tweets", tweets, "--out", "-"], EXIT_OK)]:
        done = subprocess.run(
            ["sh", "-c", f'exec "$0" -m ctvm.cli "$@" {redirect}', sys.executable, *argv],
            capture_output=True, env=env, timeout=60, cwd=tmp_path,
        )
        assert done.returncode == want, argv
    expected = read(golden / "expected_enriched.jsonl")
    assert done.stdout.decode("utf-8") == expected
    assert read(tmp_path / "enriched.jsonl") == expected


def test_failed_csv_write_keeps_existing_report(golden, tmp_path, capsys):
    out = tmp_path / "report.txt"
    out.write_text("from an earlier run\n")
    code, _, _ = run(
        capsys,
        "report",
        "--rows",
        golden / "expected_rows.csv",
        "--out",
        out,
        "--csv",
        tmp_path / "missing_dir" / "marked.csv",
    )
    assert code == EXIT_INPUT
    assert out.read_text() == "from an earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("ingest", "--out"),
        ("rerank", "--out"),
        ("eval", "--out"),
        ("report", "--out"),
        ("report", "--csv"),
    ],
)
def test_unopenable_out_is_named_as_given(command, flag, golden, tmp_path, capsys):
    """An output that cannot be opened (a directory, or a path in a
    missing directory) or written (a full device) exits 1 with one line
    that names it as given, not by its temp file, and nothing is left
    behind."""
    directory = tmp_path / "dir"
    directory.mkdir()
    targets = [
        (directory, "Is a directory"),
        (tmp_path / "missing_dir" / "out.txt", "No such file or directory"),
    ]
    if os.path.exists("/dev/full"):
        targets.append(("/dev/full", "No space left on device"))
    report = tmp_path / "r.txt"
    argv = [command, "--out", report]  # the last --out given wins
    for name, filename in GOLDEN_ARGS[command].items():
        if filename is not None:
            argv += [name, golden / filename]
    for path, reason in targets:
        code, _, err = run(capsys, *argv, flag, path)
        assert code == EXIT_INPUT, path
        assert err == f"error: cannot write {path}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
        assert list(directory.iterdir()) == []


class TestReport:
    def test_golden_bytes(self, golden, tmp_path, capsys):
        out = tmp_path / "report.txt"
        marked = tmp_path / "marked.csv"
        code, _, _ = run(
            capsys,
            "report",
            "--rows",
            golden / "expected_rows.csv",
            "--out",
            out,
            "--csv",
            marked,
        )
        assert code == EXIT_OK
        assert read(out) == read(golden / "expected_report.txt")
        assert read(marked) == read(golden / "expected_marked.csv")

    @pytest.mark.parametrize("kind", ["same path", "new path", "symlink", "hard link"])
    def test_csv_naming_the_out_file_exits_two(self, kind, golden, tmp_path, capsys):
        """--csv naming --out's file by the same path, a symlink or a
        hard link is a usage error: the CSV would overwrite the tables.
        Nothing is written, so an existing file keeps its bytes."""
        out = tmp_path / "report.txt"
        if kind != "new path":
            out.write_text("from an earlier run\n")
        other = tmp_path / "marked.csv"
        if kind == "symlink":
            other.symlink_to(out)
        elif kind == "hard link":
            os.link(out, other)
        else:
            other = out
        code, stdout, err = run(
            capsys, "report", "--rows", golden / "expected_rows.csv",
            "--out", out, "--csv", other,
        )
        assert code == EXIT_CONTRACT
        assert stdout == ""
        assert err == f"error: --out and --csv name the same file: {other}\n"
        if kind != "new path":
            assert read(out) == "from an earlier run\n"
        names = set() if kind == "new path" else {out.name, other.name}
        assert {p.name for p in tmp_path.iterdir()} == names
        assert not any(tmp_path.glob("*.tmp"))  # no temp file was opened

    def test_csv_and_out_may_both_be_stdout(self, golden, capsys):
        code, out, err = run(
            capsys, "report", "--rows", golden / "expected_rows.csv",
            "--out", "-", "--csv", "-",
        )
        assert (code, err) == (EXIT_OK, "")
        assert out == read(golden / "expected_report.txt") + read(
            golden / "expected_marked.csv"
        )

    def test_stdout_default(self, golden, capsys):
        code, out, _ = run(
            capsys, "report", "--rows", golden / "expected_rows.csv"
        )
        assert code == EXIT_OK
        assert out.startswith("[region=CA engine=google]")
        assert "1.0000*" in out

    def test_missing_engine_rows_exit_one(self, golden, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        lines = read(golden / "expected_rows.csv").splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if ",engine," not in l]
        write_lines(rows, kept)
        code, _, err = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_INPUT
        assert err == (
            f"error: {rows}: CA/google: no engine row at cutoff 3 "
            "to compare ctvm(CA) against\n"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: [*lines, "CA,google,engine,3,0.1000000000,1"],
                "two engine rows at cutoff 3",
            ),
            (
                lambda lines: [*lines, "CA,google,ctvm(CA),3,0.1000000000,1"],
                "two ctvm(CA) rows at cutoff 3",
            ),
            (
                lambda lines: [lines[0], *lines[2:]],
                "no engine row at cutoff 3 to compare ctvm(CA) against",
            ),
        ],
        ids=["two-engine-rows", "two-ctvm-rows", "no-engine-row"],
    )
    def test_bad_row_set_exits_one(self, edit, message, golden, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        write_lines(rows, edit(read(golden / "expected_rows.csv").splitlines()))
        out, marked = tmp_path / "report.txt", tmp_path / "marked.csv"
        out.write_text("old report\n")
        marked.write_text("old csv\n")
        code, stdout, err = run(
            capsys, "report", "--rows", rows, "--out", out, "--csv", marked
        )
        assert code == EXIT_INPUT
        assert stdout == ""
        assert err == f"error: {rows}: CA/google: {message}\n"
        assert read(out) == "old report\n"
        assert read(marked) == "old csv\n"

    def test_non_csv_input_exits_one(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("just some text\n")
        code, _, err = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_INPUT
        assert "columns" in err

    @pytest.mark.parametrize(
        "column, value",
        [
            ("mean_ndcg", "nan"),
            ("mean_ndcg", "inf"),
            ("mean_ndcg", "-0.5"),
            ("mean_ndcg", "1.5"),
            # float() reads these; eval writes none of them
            ("mean_ndcg", "0.62_85831123"),
            ("mean_ndcg", "\u0660.\u0666"),
            ("mean_ndcg", "6.285831123e-1"),
            ("mean_ndcg", "+0.6285831123"),
            ("cutoff", "0"),
            ("n_queries", "0"),
        ],
    )
    def test_row_eval_never_writes_exits_one(
        self, column, value, golden, tmp_path, capsys
    ):
        lines = read(golden / "expected_rows.csv").splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index(column)] = value
        rows = tmp_path / "rows.csv"
        write_lines(rows, [*lines[:3], ",".join(cells), *lines[4:]])
        code, out, err = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {rows}: bad eval row on line 4:")
        assert err.count("\n") == 1

    def test_bad_row_names_file_and_line_past_blank_lines(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        write_lines(
            rows,
            [
                ",".join(cli.EVAL_COLUMNS),
                "",
                "CA,google,engine,3,0.5000000000,1",
                "CA,google,ctvm(CA),3,nan,1",
            ],
        )
        code, out, err = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            f"error: {rows}: bad eval row on line 4: not an ASCII decimal: 'nan'\n"
        )

    def test_short_row_exits_one(self, tmp_path, capsys):
        # a short row leaves its last columns None, here region's
        rows = tmp_path / "rows.csv"
        write_lines(
            rows,
            [
                "engine,provenance,cutoff,mean_ndcg,n_queries,region",
                "google,engine,3,0.5,1,CA",
                "google,engine,3,0.5,1",
            ],
        )
        code, out, err = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            f"error: {rows}: bad eval row on line 3: "
            "row has fewer fields than the header\n"
        )

    def test_blank_rows_are_skipped(self, golden, tmp_path, capsys):
        lines = read(golden / "expected_rows.csv").splitlines()
        rows = tmp_path / "rows.csv"
        write_lines(rows, [lines[0], "", *lines[1:2], "", "", *lines[2:], ""])
        code, out, _ = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_OK
        assert out == read(golden / "expected_report.txt")

    def test_repeated_column_reads_its_last_column(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        write_lines(
            rows,
            [
                ",".join(cli.EVAL_COLUMNS) + ",region",
                "XX,google,engine,3,0.5,1,CA",
                "XX,google,ctvm(CA),3,0.75,1,CA",
            ],
        )
        code, out, _ = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_OK
        assert out.startswith("[region=CA engine=google]\n")
        assert "0.7500*" in out
        # the last region column is the one a row must reach
        with open(rows, "a", encoding="utf-8") as fh:
            fh.write("XX,google,engine,5,0.5,1\n")
        code, out, err = run(capsys, "report", "--rows", rows, "--out", "-")
        assert code == EXIT_INPUT
        assert err == (
            f"error: {rows}: bad eval row on line 4: "
            "row has fewer fields than the header\n"
        )


# Input flags per subcommand and the golden file each reads
# (None: the flag has a bundled default).
GOLDEN_ARGS = {
    "ingest": {"--tweets": "tweets.jsonl", "--region-table": None},
    "rerank": {
        "--tweets": "tweets.jsonl",
        "--news": "news.jsonl",
        "--queries": "queries.jsonl",
        "--stopwords": None,
        "--region-table": None,
    },
    "eval": {
        "--rankings": "expected_rankings.jsonl",
        "--judgments": "judgments.jsonl",
    },
    "report": {"--rows": "expected_rows.csv"},
}


class TestUsage:
    """A usage error exits 2 with one stderr line, which names the
    subcommand, and no usage block."""

    def test_no_subcommand_exits_two(self, capsys):
        assert run(capsys) == (
            EXIT_CONTRACT,
            "",
            "error: ctvm: the following arguments are required: command\n",
        )

    def test_bad_sim_choice_exits_two(self, capsys):
        code, out, err = run(capsys, "rerank", "--sim", "euclid")
        assert (code, out) == (EXIT_CONTRACT, "")
        # the list of choices is worded differently across Python versions
        assert err.startswith(
            "error: ctvm rerank: argument --sim: invalid choice: 'euclid' "
        )
        assert len(err.splitlines()) == 1

    def test_bad_cutoffs_exit_two(self, golden, capsys):
        err = self.usage_error("eval", "--k", "0", golden, capsys)
        assert err == "cutoffs must be >= 1\n"

    def test_empty_region_list_exits_two(self, golden, capsys):
        err = self.usage_error("rerank", "--regions", " , ", golden, capsys)
        assert err == "no region codes given\n"

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval", "--min-judges", "0"),
            ("eval", "--min-judges", "-1"),
            ("ingest", "--max-text-len", "0"),
            ("rerank", "--max-text-len", "-5"),
            ("eval", "--min-judges", "1e3"),
        ],
    )
    def test_non_positive_counts_exit_two(
        self, command, flag, value, golden, capsys
    ):
        err = self.usage_error(command, flag, value, golden, capsys)
        assert err == f"must be an integer >= 1, got {value!r}\n"

    @pytest.mark.parametrize("value", ["3,x", "3,,5", "k"])
    def test_non_integer_cutoff_exits_two(self, value, golden, capsys):
        err = self.usage_error("eval", "--k", value, golden, capsys)
        assert err == f"bad cutoff list: {value!r}\n"

    @pytest.mark.parametrize(
        "value", ["2011-13-01", "12/12/2011", "", "20111212", "2011-W50-1"]
    )
    def test_bad_date_exits_two(self, value, golden, capsys):
        err = self.usage_error("rerank", "--date", value, golden, capsys)
        assert err == f"not a YYYY-MM-DD date: {value!r}\n"

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("ingest", "--out"),
            ("rerank", "--out"),
            ("eval", "--out"),
            ("report", "--out"),
            ("report", "--csv"),
        ],
    )
    def test_empty_output_path_exits_two(self, command, flag, golden, capsys):
        err = self.usage_error(command, flag, "", golden, capsys)
        assert err == "need a path or -, got ''\n"

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in GOLDEN_ARGS.items() for flag in flags],
    )
    def test_empty_input_path_exits_two(self, command, flag, golden, capsys):
        err = self.usage_error(command, flag, "", golden, capsys)
        assert err == "need a path, got ''\n"

    @staticmethod
    def usage_error(command, flag, value, golden, capsys) -> str:
        """The stderr of a run given one bad option value, after its
        "error: ctvm COMMAND: argument FLAG: " prefix. The run must exit
        2, write nothing to stdout and only that one line to stderr."""
        argv = [command, "--out", "-", flag, value]
        for name, filename in GOLDEN_ARGS[command].items():
            if filename is not None:
                argv += [name, str(golden / filename)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CONTRACT, "")
        prefix = f"error: ctvm {command}: argument {flag}: "
        assert err.startswith(prefix)
        assert len(err.splitlines()) == 1
        return err[len(prefix):]


def test_contract_violation_exits_two(golden, capsys, monkeypatch):
    def broken(args):
        raise ContractViolation("ranking lost a document")

    monkeypatch.setattr(cli, "cmd_report", broken)
    code, out, err = run(capsys, "report", "--rows", golden / "expected_rows.csv")
    assert code == EXIT_CONTRACT
    assert (out, err) == ("", "error: ranking lost a document\n")


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in GOLDEN_ARGS.items() for flag in flags],
)
def test_non_utf8_input_exits_one(command, flag, golden, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("caf\xe9,Qu\xe9bec\n".encode("latin-1"))
    argv = [command, "--out", tmp_path / "out"]
    for name, filename in GOLDEN_ARGS[command].items():
        if name == flag:
            argv += [name, bad]
        elif filename is not None:
            argv += [name, golden / filename]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# csv's default field size limit is 131,072 characters
BIG_FIELD = "x" * 131_073


# the bundled file an input flag stands for when it is not given
BUNDLED = {"--region-table": "us_states.csv", "--stopwords": "stopwords_smart.txt"}


def bundled(name: str) -> str:
    return resources.files("ctvm.data").joinpath(name).read_text(encoding="utf-8")


def input_argv(command, flag, path, golden, out):
    argv = [command, "--out", out, flag, path]
    for name, filename in GOLDEN_ARGS[command].items():
        if name != flag and filename is not None:
            argv += [name, golden / filename]
    return argv


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in GOLDEN_ARGS.items() for flag in flags],
)
def test_unreadable_input_is_named_as_given(command, flag, golden, tmp_path, capsys):
    """An input that cannot be read (a directory, or a missing file)
    exits 1 with one line that names it as given and says why; the
    output keeps its bytes and no temp file is left behind."""
    directory = tmp_path / "dir"
    directory.mkdir()
    out = tmp_path / "out.txt"
    out.write_text("from an earlier run\n")
    targets = [
        (directory, "Is a directory"),
        (tmp_path / "missing.txt", "No such file or directory"),
    ]
    for path, reason in targets:
        code, stdout, err = run(capsys, *input_argv(command, flag, path, golden, out))
        assert (code, stdout) == (EXIT_INPUT, ""), path
        assert err == f"error: cannot read {path}: {reason}\n"
        assert read(out) == "from an earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.txt"]
        assert list(directory.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag, lineno",
    [
        ("ingest", "--region-table", 4),
        ("rerank", "--region-table", 4),
        ("report", "--rows", 1),
        ("report", "--rows", 3),
    ],
)
def test_oversize_csv_field_exits_one(command, flag, lineno, golden, tmp_path, capsys):
    if flag == "--rows":
        lines = read(golden / "expected_rows.csv").splitlines()
    else:  # the comment and the blank line are line 1 and 3 of the file
        lines = ["# code,full_name", "CA,California", "", "NY,New York"]
    lines[lineno - 1] += f',"{BIG_FIELD}"'
    path = tmp_path / "input.csv"
    write_lines(path, lines)
    argv = input_argv(command, flag, path, golden, tmp_path / "out")
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert err == (
        f"error: {path}: bad CSV on line {lineno}: "
        "field larger than field limit (131072)\n"
    )


@pytest.mark.parametrize(
    "command, flag", [("ingest", "--region-table"), ("report", "--rows")]
)
def test_nul_byte_in_csv_exits_cleanly(command, flag, golden, tmp_path, capsys):
    """csv rejects NUL before Python 3.11 and accepts it from 3.11 on;
    either way the run ends with an exit code, not a traceback."""
    if flag == "--rows":
        text = read(golden / "expected_rows.csv")
    else:
        text = bundled("us_states.csv")
    path = tmp_path / "input.csv"
    path.write_text(text.replace("a", "a\0", 1), encoding="utf-8")
    argv = input_argv(command, flag, path, golden, tmp_path / "out")
    code, _, err = run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_INPUT)
    assert code == EXIT_OK or err.startswith("error:") and err.count("\n") == 1


def ascii_digits(cell: str) -> int:
    """An integer cell as report reads it: ASCII digits once stripped."""
    if not re.fullmatch("[0-9]+", cell.strip()):
        raise ValueError(f"not ASCII digits: {cell.strip()!r}")
    return int(cell)


def ascii_decimal(cell: str) -> float:
    """A mean_ndcg cell as report reads it: ASCII digits with at most
    one point, digits on both sides of it, once stripped."""
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", cell.strip()):
        raise ValueError(f"not an ASCII decimal: {cell.strip()!r}")
    return float(cell)


def dict_reader_eval_rows(lines: list[str], path: str):
    """report's rows as csv.DictReader reads them: a repeated column
    name reads its last column, a column past the row's end reads None,
    and blank lines are skipped. Returns the ((region, engine),
    [(provenance, cutoff, mean_ndcg, n_queries)]) groups, in order of
    first appearance and each in file order, or the error line."""
    reader = csv.DictReader(lines)
    try:
        if reader.fieldnames is None or not set(cli.EVAL_COLUMNS) <= set(
            reader.fieldnames
        ):
            return (
                f"{path} does not look like eval output "
                f"(need columns {', '.join(cli.EVAL_COLUMNS)})"
            )
        groups = {}
        for record in reader:
            try:
                if None in map(record.get, cli.EVAL_COLUMNS):
                    raise ValueError("row has fewer fields than the header")
                cutoff = ascii_digits(record["cutoff"])
                mean = ascii_decimal(record["mean_ndcg"])
                n_queries = ascii_digits(record["n_queries"])
                if cutoff < 1 or n_queries < 1 or not 0 <= mean <= 1:
                    raise ValueError(
                        "need cutoff >= 1, n_queries >= 1 and mean_ndcg in [0, 1]"
                    )
                key = (record["region"], record["engine"])
                row = (record["provenance"], cutoff, mean, n_queries)
                groups.setdefault(key, []).append(row)
            except ValueError as exc:
                return f"{path}: bad eval row on line {reader.line_num}: {exc}"
    except csv.Error as exc:
        return f"{path}: bad CSV on line {reader.reader.line_num}: {exc}"
    return list(groups.items()) or f"no eval rows in {path}"


# every column, in any order, with repeats and extras
EVAL_HEADERS = st.lists(
    st.sampled_from([*cli.EVAL_COLUMNS, "better_than_engine", ""]), max_size=2
).map(lambda extra: [*cli.EVAL_COLUMNS, *extra]).flatmap(st.permutations).map(
    ",".join
)
# mostly "1", which fits every column; int() would read "3_0", "+3"
# and "\u0663" as 30, 3 and 3, but an integer cell is ASCII digits, with
# spaces around them allowed (" 3 "); float() would read "0.6_2",
# "\u0660.\u0666", "6e-1" and "+0.5", but a mean is an ASCII decimal
EVAL_CELLS = st.sampled_from(
    ["1"] * 20
    + ["0.5", "3", "CA", "nan", "-1", "", "3_0", "+3", "\u0663", " 3 "]
    + ["0.6_2", "\u0660.\u0666", "6e-1", "+0.5", " 0.5 ", "1.", ".5"]
)
EVAL_LINES = st.lists(
    st.just("")
    | st.lists(EVAL_CELLS, min_size=6, max_size=9).map(",".join)
    | st.sampled_from(['"a\nb",1', 'x,"y"z', BIG_FIELD]),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(EVAL_HEADERS, EVAL_LINES)
def test_eval_rows_read_as_dict_reader_reads_them(header, lines):
    text = "\n".join([header, *lines]) + "\n"
    lines = io.StringIO(text).readlines()
    expected = dict_reader_eval_rows(lines, "rows.csv")
    with mock.patch.object(cli, "read_input", lambda path: lines):
        try:
            got = list(cli._read_eval_rows("rows.csv").items())
        except cli.InputDataError as exc:
            got = str(exc)
    assert got == expected


# st.text() never draws a lone surrogate; the "Cs" category does. A
# string is also drawn on its own, because st.recursive mostly draws
# containers.
STRINGS = st.text() | st.text(st.characters(categories=["Cs"]), min_size=1)
JSON_VALUES = STRINGS | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | STRINGS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("ingest", "--tweets"),
        ("rerank", "--tweets"),
        ("rerank", "--news"),
        ("rerank", "--queries"),
        ("eval", "--rankings"),
        ("eval", "--judgments"),
    ],
)
def test_any_field_value_exits_cleanly(command, flag, golden, tmp_path, capsys):
    """One field of one golden record set to an arbitrary JSON value
    ends in exit 0 or 1, never in an exception."""
    lines = read(golden / GOLDEN_ARGS[command][flag]).splitlines()
    mutated = tmp_path / "mutated.jsonl"
    argv = [command, "--out", tmp_path / "out"]
    for name, filename in GOLDEN_ARGS[command].items():
        if filename is not None:
            argv += [name, mutated if name == flag else golden / filename]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def check(data):
        index = data.draw(st.integers(0, len(lines) - 1), label="line")
        record = json.loads(lines[index])
        field = data.draw(st.sampled_from(sorted(record)), label="field")
        record[field] = data.draw(JSON_VALUES, label="value")
        write_lines(mutated, [*lines[:index], json.dumps(record), *lines[index + 1 :]])
        assert run(capsys, *argv)[0] in (EXIT_OK, EXIT_INPUT)

    check()


# a drawn line, as UTF-8 text (lone surrogates kept as their raw bytes)
# or as arbitrary bytes
LINES = STRINGS.map(lambda text: text.encode("utf-8", "surrogatepass")) | st.binary()


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in GOLDEN_ARGS.items() for flag in flags],
)
def test_any_line_exits_cleanly(command, flag, golden, tmp_path, capsys):
    """Any line put in place of, or among, the lines of any input ends
    in exit 0, 1 or 2, never in an exception; a run that fails leaves
    an existing --out as it was."""
    name = GOLDEN_ARGS[command][flag]
    text = bundled(BUNDLED[flag]) if name is None else read(golden / name)
    lines = text.encode("utf-8").splitlines(keepends=True)
    mutated = tmp_path / "mutated"
    out = tmp_path / "out"
    argv = input_argv(command, flag, mutated, golden, out)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def check(data):
        index = data.draw(st.integers(0, len(lines)), label="index")
        line = data.draw(LINES, label="line")
        replaced = data.draw(st.integers(0, 1), label="replaced")
        kept = [*lines[:index], line + b"\n", *lines[index + replaced :]]
        mutated.write_bytes(b"".join(kept))
        out.write_bytes(b"earlier output\n")
        code = run(capsys, *argv)[0]
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONTRACT)
        if code != EXIT_OK:
            assert out.read_bytes() == b"earlier output\n"

    check()


def test_line_separators_inside_text_survive(golden, tmp_path, capsys):
    """Raw U+2028 and U+0085 are not line ends in JSONL input."""
    record = json.loads(read(golden / "tweets.jsonl").splitlines()[0])
    record["text"] += "\u2028tax\x85plan"
    tweets, once, twice = (tmp_path / n for n in ("t.jsonl", "1.jsonl", "2.jsonl"))
    write_lines(tweets, [json.dumps(record, ensure_ascii=False)])
    for source, out in ((tweets, once), (once, twice)):
        code, _, err = run(capsys, "ingest", "--tweets", source, "--out", out)
        assert code == EXIT_OK
        assert json.loads(err)["ingest"]["accepted"] == 1
    assert twice.read_bytes() == once.read_bytes()
    assert "\u2028tax\x85plan".encode() in once.read_bytes()
    code, _, err = run(
        capsys,
        "rerank",
        "--tweets",
        twice,
        "--news",
        golden / "news.jsonl",
        "--queries",
        golden / "queries.jsonl",
        "--regions",
        "CA",
        "--out",
        tmp_path / "rankings.jsonl",
    )
    assert code == EXIT_OK and err == ""


class TestPipelineEndToEnd:
    def test_four_stage_chain(self, golden, tmp_path, capsys):
        enriched = tmp_path / "enriched.jsonl"
        rankings = tmp_path / "rankings.jsonl"
        rows = tmp_path / "rows.csv"
        report = tmp_path / "report.txt"
        assert run(
            capsys, "ingest", "--tweets", golden / "tweets.jsonl",
            "--out", enriched,
        )[0] == EXIT_OK
        assert run(
            capsys, "rerank", "--tweets", enriched,
            "--news", golden / "news.jsonl",
            "--queries", golden / "queries.jsonl",
            "--regions", "CA", "--out", rankings,
        )[0] == EXIT_OK
        assert run(
            capsys, "eval", "--rankings", rankings,
            "--judgments", golden / "judgments.jsonl", "--out", rows,
        )[0] == EXIT_OK
        assert run(
            capsys, "report", "--rows", rows, "--out", report,
        )[0] == EXIT_OK
        assert read(report) == read(golden / "expected_report.txt")


def test_tri_region_pipeline_bytes(data_dir, tmp_path, capsys):
    """Three regions rank the same five docs, so eval regroups four
    provenances (the engine's and one ctvm(region) each) under three
    regions' judges. Every stage's output is pinned, and no stage writes
    to stdout or stderr."""
    tri = data_dir / "tri_region"
    rankings = tmp_path / "rankings.jsonl"
    rows = tmp_path / "rows.csv"
    report = tmp_path / "report.txt"
    marked = tmp_path / "marked.csv"
    for argv in (
        ["rerank", "--tweets", tri / "tweets.jsonl", "--news", tri / "news.jsonl",
         "--queries", tri / "queries.jsonl", "--regions", "CA,NY,TX",
         "--out", rankings],
        ["eval", "--rankings", rankings, "--judgments", tri / "judgments.jsonl",
         "--out", rows],
        ["report", "--rows", rows, "--out", report, "--csv", marked],
    ):
        assert run(capsys, *argv) == (EXIT_OK, "", "")
    for written in (rankings, rows, report, marked):
        expected = tri / f"expected_{written.name}"
        assert written.read_bytes() == expected.read_bytes(), written.name


def test_region_with_a_carriage_return_reads_back(golden, tmp_path, capsys):
    """A region that holds a CR is quoted in eval's CSV, so report reads
    the row whole, and its marked CSV reads back the same region."""
    judgments = [
        {**json.loads(line), "region": "C\rA"}
        for line in read(golden / "judgments.jsonl").splitlines()
    ]
    write_lines(tmp_path / "judgments.jsonl", [json.dumps(j) for j in judgments])
    rankings = tmp_path / "rankings.jsonl"
    rows = tmp_path / "rows.csv"
    marked = tmp_path / "marked.csv"
    for argv in (
        ["rerank", "--tweets", golden / "tweets.jsonl", "--news",
         golden / "news.jsonl", "--queries", golden / "queries.jsonl",
         "--regions", "CA", "--out", rankings],
        ["eval", "--rankings", rankings, "--judgments",
         tmp_path / "judgments.jsonl", "--out", rows],
    ):
        assert run(capsys, *argv)[0] == EXIT_OK
    code, out, err = run(capsys, "report", "--rows", rows, "--out", "-", "--csv", marked)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("[region=C\\rA engine=google]\n")
    for path in (rows, marked):
        header, *records = csv.reader(read_input(str(path)))
        assert records and {r[header.index("region")] for r in records} == {"C\rA"}


def test_one_line_escapes_exactly_the_line_breaks():
    """one_line's table holds exactly the characters str.splitlines
    breaks at, and its escapes keep a text on one line and read back."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    # each piece but the last ends at a break; the last code point is none
    breaks = {piece[-1] for piece in every.splitlines(keepends=True)[:-1]}
    assert set(map(ord, breaks)) == set(_LINE_BREAKS) and len(breaks) == 10
    text = "a".join(sorted(breaks))
    escaped = one_line(text)
    assert escaped.splitlines() == [escaped]
    assert escaped.encode("ascii").decode("unicode_escape") == text


def test_report_escapes_line_breaks_in_names(golden, tmp_path, capsys):
    """A region and a provenance that hold an LF are written escaped in
    the text report, so each table keeps one heading line and one line
    per ranking, while the marked CSV keeps them raw."""
    judgments = [
        {**json.loads(line), "region": "C\nA"}
        for line in read(golden / "judgments.jsonl").splitlines()
    ]
    write_lines(tmp_path / "judgments.jsonl", [json.dumps(j) for j in judgments])
    rankings = [
        {**json.loads(line), "provenance": "ctvm(C\nA)"}
        if json.loads(line)["provenance"] == "ctvm(CA)"
        else json.loads(line)
        for line in read(golden / "expected_rankings.jsonl").splitlines()
    ]
    write_lines(tmp_path / "rankings.jsonl", [json.dumps(r) for r in rankings])
    rows = tmp_path / "rows.csv"
    marked = tmp_path / "marked.csv"
    assert run(
        capsys, "eval", "--rankings", tmp_path / "rankings.jsonl",
        "--judgments", tmp_path / "judgments.jsonl", "--out", rows,
    )[0] == EXIT_OK
    code, out, err = run(capsys, "report", "--rows", rows, "--out", "-", "--csv", marked)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [
        "[region=C\\nA engine=google]",
        "ranking     NDCG@3  NDCG@5 NDCG@10",
        "engine      0.6286  0.6286  0.6286",
        "ctvm(C\\nA) 1.0000* 1.0000* 1.0000*",
        "* better than the engine ranking at that cutoff",
    ]
    header, *records = csv.reader(read_input(str(marked)))
    assert {r[header.index("region")] for r in records} == {"C\nA"}
    assert {r[header.index("provenance")] for r in records} == {"engine", "ctvm(C\nA)"}


def test_escape_fixture_bytes(data_dir, tmp_path, capsys):
    """Every written string field holds quotes, backslashes, control
    characters, DEL, U+2028/U+2029, non-BMP, NFD or CJK text somewhere in
    tests/data/escapes. Its expected files were written by
    json.dumps(record, ensure_ascii=False), the writer the line templates
    replace, and ingest reads its own output back to the same bytes."""
    escapes = data_dir / "escapes"
    enriched = tmp_path / "enriched.jsonl"
    again = tmp_path / "again.jsonl"
    rankings = tmp_path / "rankings.jsonl"
    assert run(
        capsys, "ingest", "--tweets", escapes / "tweets.jsonl", "--out", enriched,
    )[0] == EXIT_OK
    assert enriched.read_bytes() == (escapes / "expected_enriched.jsonl").read_bytes()
    assert run(capsys, "ingest", "--tweets", enriched, "--out", again)[0] == EXIT_OK
    assert again.read_bytes() == enriched.read_bytes()
    assert run(
        capsys, "rerank", "--tweets", enriched,
        "--news", escapes / "news.jsonl",
        "--queries", escapes / "queries.jsonl",
        "--regions", "CA,NY", "--sim", "full-cosine", "--out", rankings,
    )[0] == EXIT_OK
    assert rankings.read_bytes() == (escapes / "expected_rankings.jsonl").read_bytes()


# Text json escapes, or writes raw under ensure_ascii=False: quotes,
# backslashes, every C0 control, DEL, U+2028/U+2029, a non-BMP emoji,
# an NFD mark and CJK, mixed with any other non-surrogate character.
JSON_TEXT = st.text(
    st.sampled_from('"\\\x7f\u2028\u2029e\u0301\u6771\u4eac\U0001f600')
    | st.characters(max_codepoint=0x1F)
    | st.characters(exclude_categories=["Cs"])
)
SPECIAL_VOTES = (0.0, 1.0, 0.1 + 0.2, 5e-324, 1e16)
VOTES = st.sampled_from(SPECIAL_VOTES) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False
)
EVERY_SPECIAL = (
    '"\\' + "".join(map(chr, range(0x20))) + "\x7f\u2028\u2029\U0001f600e\u0301\u6771"
)


class TestLineWriters:
    """ingest and rerank write each line from a template; it must be the
    line json.dumps(record, ensure_ascii=False) writes."""

    @settings(max_examples=200)
    @given(
        tweet_id=JSON_TEXT,
        text=JSON_TEXT,
        timestamp=st.datetimes(
            min_value=datetime(1, 1, 2),
            max_value=datetime(9999, 12, 30),
            timezones=st.sampled_from([timezone.utc, timezone(timedelta(hours=-8))]),
        ),
        location=JSON_TEXT,
        region=st.none() | st.sampled_from(["CA", "NY", "TX"]),
    )
    @example(
        EVERY_SPECIAL, EVERY_SPECIAL, datetime(2011, 12, 12, tzinfo=timezone.utc), "", None
    )
    def test_tweet_line(self, tweet_id, text, timestamp, location, region):
        tweet = Tweet._make((tweet_id, text, timestamp, location, region))
        record = {
            "id": tweet_id,
            "text": text,
            "timestamp": format_timestamp(timestamp),
            "user_location": location,
            "region": region,
        }
        line = json.dumps(record, ensure_ascii=False) + "\n"
        assert list(cli._tweet_lines([tweet])) == [line]

    @settings(max_examples=200)
    @given(
        query_id=JSON_TEXT,
        engine=JSON_TEXT,
        day=st.dates(),
        rankings=st.lists(
            st.tuples(
                JSON_TEXT.filter(bool),
                st.lists(st.tuples(JSON_TEXT, VOTES), unique_by=lambda p: p[0]),
                st.booleans(),
            ),
            max_size=3,
        ),
    )
    @example(
        EVERY_SPECIAL,
        EVERY_SPECIAL,
        date(2011, 12, 12),
        [
            ("engine", [(EVERY_SPECIAL, 0.0)], False),
            (EVERY_SPECIAL, [(f"n{i}", v) for i, v in enumerate(SPECIAL_VOTES)], True),
        ],
    )
    def test_ranking_lines(self, query_id, engine, day, rankings):
        group = [
            (provenance, tuple(news_id for news_id, _ in scored),
             dict(scored) if voted else None)
            for provenance, scored, voted in rankings
        ]
        lines = [
            json.dumps(
                {
                    "query_id": query_id,
                    "engine": engine,
                    "date": day.isoformat(),
                    "provenance": provenance,
                    "position": position,
                    "news_id": news_id,
                    "vote": None if votes is None else votes[news_id],
                },
                ensure_ascii=False,
            )
            for provenance, ids, votes in group
            for position, news_id in enumerate(ids, start=1)
        ]
        assert list(cli._ranking_lines(query_id, engine, day, group)) == lines


    @settings(
        max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        cells=st.lists(
            st.lists(
                st.sampled_from(
                    [",", '"', "\r", "\n", "\r\n", " ", "a", "Z", "é", "\u2028", "\U0001F600"]
                ),
                min_size=1,
            ).map("".join),
            min_size=1,
            max_size=4,
        )
    )
    @example(cells=["C\rA"])
    @example(cells=[" leading", "é, \"quoted\"", "two\r\nlines"])
    def test_csv_cells(self, cells, tmp_path):
        """A row written from _csv_cells reads back through read_input
        and csv.reader as its cells, and is the row csv.writer writes
        wherever no cell holds a CR."""
        line = f"{cli._csv_cells(*cells)},3,0.5000000000,4\n"
        path = tmp_path / "row.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line)
        assert list(csv.reader(read_input(str(path)))) == [
            [*cells, "3", "0.5000000000", "4"]
        ]
        if not any("\r" in cell for cell in cells):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(
                [*cells, 3, "0.5000000000", 4]
            )
            assert buf.getvalue() == line


class TestByteOrderMark:
    """Editors on some platforms start a UTF-8 file with a byte order
    mark. It must not spoil the file's first record."""

    @staticmethod
    def with_bom(source, tmp_path):
        target = tmp_path / source.name
        target.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        return target

    def test_tweets(self, golden, tmp_path, capsys):
        tweets = self.with_bom(golden / "tweets.jsonl", tmp_path)
        code, out, err = run(capsys, "ingest", "--tweets", tweets, "--out", "-")
        assert code == EXIT_OK
        assert out == read(golden / "expected_enriched.jsonl")
        assert json.loads(err)["ingest"]["accepted"] == 7

    def test_judgments(self, golden, tmp_path, capsys):
        judgments = self.with_bom(golden / "judgments.jsonl", tmp_path)
        code, out, err = run(
            capsys,
            "eval",
            "--rankings",
            golden / "expected_rankings.jsonl",
            "--judgments",
            judgments,
            "--out",
            "-",
        )
        assert code == EXIT_OK
        assert out == read(golden / "expected_rows.csv")
        assert "malformed" not in err

    def test_eval_rows(self, golden, tmp_path, capsys):
        rows = self.with_bom(golden / "expected_rows.csv", tmp_path)
        code, out, err = run(capsys, "report", "--rows", rows)
        assert (code, err) == (EXIT_OK, "")
        assert out == read(golden / "expected_report.txt")


def test_long_y_run_in_a_title_reranks(golden, tmp_path):
    """News titles have no length cap, so a token holding a long run of
    y reaches the stemmer whole; it must stem without a traceback. The
    new token is shared with no tweet, so the rankings do not move."""
    lines = read(golden / "news.jsonl").splitlines()
    first = json.loads(lines[0])
    first["title"] += " a" + "y" * 1500
    news = tmp_path / "news.jsonl"
    write_lines(news, [json.dumps(first)] + lines[1:])
    out = tmp_path / "rankings.jsonl"
    src = str(Path(ctvm.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ctvm.cli", "rerank",
         "--tweets", str(golden / "tweets.jsonl"), "--news", str(news),
         "--queries", str(golden / "queries.jsonl"), "--regions", "CA",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == EXIT_OK, done.stderr
    assert read(out) == read(golden / "expected_rankings.jsonl")
