from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from ctvm.judgments import (
    JudgmentRecord,
    Label,
    RelevanceLookup,
    aggregate,
    load_judgment_records,
    parse_label,
    round_half_up,
)

from oracles import naive_aggregate


def record(news_id="n1", judge="j1", label=2, query="q", region="CA"):
    return JudgmentRecord(
        query_id=query,
        news_id=news_id,
        region=region,
        judge_id=judge,
        label=label,
    )


class TestParseLabel:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("not relevant", Label.NOT_RELEVANT),
            ("Just OK", Label.JUST_OK),
            ("INTERESTING", Label.INTERESTING),
            ("Very Interesting", Label.VERY_INTERESTING),
            ("very_interesting", Label.VERY_INTERESTING),
            ("  just   ok ", Label.JUST_OK),
            (0, Label.NOT_RELEVANT),
            (3, Label.VERY_INTERESTING),
        ],
    )
    def test_accepted_forms(self, raw, expected):
        assert parse_label(raw) is expected

    @pytest.mark.parametrize(
        "raw", ["somewhat interesting", "", 4, -1, True, 2.0, None, ["ok"]]
    )
    def test_rejected_forms(self, raw):
        with pytest.raises(ValueError):
            parse_label(raw)

    def test_labels_order_as_scores(self):
        assert [int(l) for l in Label] == [0, 1, 2, 3]


class TestAggregate:
    def test_mean_of_three_judges(self):
        records = [
            record(judge="j1", label=3),
            record(judge="j2", label="interesting"),
            record(judge="j3", label="very interesting"),
        ]
        sets, report = aggregate(records)
        assert len(sets) == 1
        assert sets[0].relevance == pytest.approx(8 / 3)
        assert sets[0][:3] == ("q", "n1", "CA")
        assert dict(sets[0].labels) == {
            "j1": Label.VERY_INTERESTING,
            "j2": Label.INTERESTING,
            "j3": Label.VERY_INTERESTING,
        }
        assert report.cells_kept == 1

    def test_too_few_judges_drops_cell(self):
        records = [record(judge="j1"), record(judge="j2")]
        sets, report = aggregate(records)
        assert sets == []
        assert report.cells_dropped == 1
        sets, report = aggregate(records, min_judges=2)
        assert len(sets) == 1
        assert report.cells_dropped == 0

    def test_min_judges_one_keeps_everything(self):
        sets, _ = aggregate([record()], min_judges=1)
        assert sets[0].relevance == 2.0

    def test_min_judges_zero_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], min_judges=0)

    def test_duplicate_judge_counts_once_later_wins(self):
        records = [
            record(judge="j1", label=0),
            record(judge="j2", label=2),
            record(judge="j3", label=2),
            record(judge="j1", label=3),
        ]
        sets, report = aggregate(records)
        assert report.duplicates_superseded == 1
        assert sets[0].relevance == pytest.approx(7 / 3)
        assert dict(sets[0].labels)["j1"] is Label.VERY_INTERESTING

    def test_bad_labels_skipped_and_counted(self):
        records = [
            record(judge="j1", label="meh"),
            record(judge="j2", label=2),
            record(judge="j3", label=2),
            record(judge="j4", label=2),
        ]
        sets, report = aggregate(records)
        assert report.bad_labels == 1
        assert sets[0].relevance == 2.0
        assert len(sets[0].labels) == 3

    def test_all_bad_cell_never_forms(self):
        records = [record(judge="j1", label="junk")]
        sets, report = aggregate(records)
        assert sets == []
        assert vars(report) == {
            "records_in": 1,
            "bad_labels": 1,
            "duplicates_superseded": 0,
            "cells_kept": 0,
            "cells_dropped": 0,
        }

    def test_cells_keyed_by_query_news_region(self):
        records = []
        for region in ("CA", "NY"):
            for judge in ("j1", "j2", "j3"):
                records.append(
                    record(region=region, judge=judge, label=3 if region == "CA" else 1)
                )
        sets, report = aggregate(records)
        assert report.cells_kept == 2
        by_key = {s[:3]: s.relevance for s in sets}
        assert by_key[("q", "n1", "CA")] == 3.0
        assert by_key[("q", "n1", "NY")] == 1.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["j1", "j2", "j3", "j4"]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_report_totals_are_consistent(self, pairs):
        records = [record(judge=j, label=v) for j, v in pairs]
        sets, report = aggregate(records, min_judges=2)
        assert report.records_in == len(records)
        assert report.cells_kept == len(sets)
        assert report.cells_kept + report.cells_dropped <= 1
        # last-wins is about per-judge repeats, not record order of
        # distinct judges: dedupe keeps its semantics under this check
        last_by_judge = {}
        for j, v in pairs:
            last_by_judge[j] = v
        if sets:
            expected = sum(last_by_judge.values()) / len(last_by_judge)
            assert sets[0].relevance == pytest.approx(expected)


# raw label values as JSON can carry them: the four label texts in
# several spellings, scores in and out of range, and values of other
# types, some equal to a valid score (true, 1.0) and some unhashable
LABEL_WORDS = ("not relevant", "just ok", "interesting", "very interesting")
RAW_LABELS = st.one_of(
    st.tuples(
        st.sampled_from(LABEL_WORDS),
        st.sampled_from([str.lower, str.upper, str.title]),
        st.sampled_from([" ", "_", "  "]),
        st.sampled_from(["", " ", "\t"]),
    ).map(lambda t: t[3] + t[1](t[0]).replace(" ", t[2]) + t[3]),
    st.integers(min_value=-2, max_value=5),
    st.sampled_from(
        [True, False, 1.0, 2.0, None, "", "meh", "1", [1], {}, ["just ok"], {"a": 1}]
    ),
)


class TestAggregateLabelMemo:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["n1", "n2"]),
                st.sampled_from(["j1", "j2", "j3"]),
                RAW_LABELS,
            ),
            max_size=20,
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_equals_parsing_every_record(self, ratings, min_judges):
        records = [record(news_id=n, judge=j, label=v) for n, j, v in ratings]
        sets, report = aggregate(records, min_judges=min_judges)
        cells, counts = naive_aggregate(records, min_judges)
        assert [(s[:3], s.labels, s.relevance) for s in sets] == cells
        assert vars(report) == counts


class TestLoader:
    def test_loads_label_or_score(self):
        lines = [
            json.dumps(
                {
                    "query_id": "q",
                    "news_id": "n1",
                    "region": "CA",
                    "judge_id": "j1",
                    "label": "interesting",
                }
            ),
            json.dumps(
                {
                    "query_id": "q",
                    "news_id": "n1",
                    "region": "CA",
                    "judge_id": "j2",
                    "score": 3,
                }
            ),
        ]
        records, malformed = load_judgment_records(lines)
        assert malformed == 0
        assert [r.label for r in records] == ["interesting", 3]

    def test_label_preferred_over_score(self):
        line = json.dumps(
            {
                "query_id": "q",
                "news_id": "n1",
                "region": "CA",
                "judge_id": "j1",
                "label": 1,
                "score": 3,
            }
        )
        records, _ = load_judgment_records([line])
        assert records[0].label == 1

    def test_malformed_counted(self):
        lines = [
            "not json",
            json.dumps({"query_id": "q"}),
            json.dumps(
                {
                    "query_id": "q",
                    "news_id": "",
                    "region": "CA",
                    "judge_id": "j1",
                    "label": 1,
                }
            ),
            "",
        ]
        records, malformed = load_judgment_records(lines)
        assert records == []
        assert malformed == 3

    def test_bad_label_value_loads_fine(self):
        # label validity is aggregation's concern, not the loader's
        line = json.dumps(
            {
                "query_id": "q",
                "news_id": "n1",
                "region": "CA",
                "judge_id": "j1",
                "label": "smashing",
            }
        )
        records, malformed = load_judgment_records([line])
        assert malformed == 0
        assert records[0].label == "smashing"


class TestFixtureFile:
    def test_twenty_record_corpus(self, data_dir):
        with open(data_dir / "judgments_20.jsonl", encoding="utf-8") as fh:
            records, malformed = load_judgment_records(fh)
        assert malformed == 0
        sets, report = aggregate(records)
        assert vars(report) == {
            "records_in": 20,
            "bad_labels": 3,
            "duplicates_superseded": 1,
            "cells_kept": 4,
            "cells_dropped": 2,
        }
        by_key = {s[:3]: s.relevance for s in sets}
        assert by_key == {
            ("obama", "d1", "CA"): pytest.approx(8 / 3),
            ("obama", "d1", "NY"): pytest.approx(2.0),
            ("obama", "d2", "CA"): pytest.approx(1.0),
            ("obama", "d2", "NY"): pytest.approx(1.75),
        }


class TestRounding:
    @pytest.mark.parametrize(
        "value, expected",
        [(0.0, 0.0), (0.4, 0.0), (0.5, 1.0), (1.5, 2.0), (2.5, 3.0), (8 / 3, 3.0)],
    )
    def test_round_half_up(self, value, expected):
        assert round_half_up(value) == expected


class TestRelevanceLookup:
    def make_sets(self):
        records = [
            record(judge=f"j{i}", label=v)
            for i, v in enumerate((3, 3, 2), start=1)
        ]
        sets, _ = aggregate(records)
        return sets

    def test_hit(self):
        lookup = RelevanceLookup(self.make_sets())
        assert lookup.get("q", "n1", "CA") == pytest.approx(8 / 3)
        assert lookup.contains("q", "n1", "CA")

    def test_miss_scores_zero(self):
        lookup = RelevanceLookup(self.make_sets())
        assert lookup.get("q", "n9", "CA") == 0.0
        assert lookup.get("q", "n1", "TX") == 0.0
        assert not lookup.contains("q", "n9", "CA")
        assert not lookup.contains("q", "n1", "TX")

    def test_round_scores_option(self):
        lookup = RelevanceLookup(self.make_sets(), round_scores=True)
        assert lookup.get("q", "n1", "CA") == 3.0

    def test_regions_sorted(self):
        records = []
        for region in ("TX", "CA"):
            for judge in ("j1", "j2", "j3"):
                records.append(record(region=region, judge=judge))
        sets, _ = aggregate(records)
        lookup = RelevanceLookup(sets)
        assert lookup.regions() == ("CA", "TX")


def test_aggregation_report_shape():
    assert vars(aggregate([])[1]) == {
        "records_in": 0,
        "bad_labels": 0,
        "duplicates_superseded": 0,
        "cells_kept": 0,
        "cells_dropped": 0,
    }
