"""Human relevance judgments: parsing, aggregation, lookup.

Judges label each (query, news, region) cell on a four-point scale.
A cell keeps its judgment only when at least min_judges distinct judges
rated it; the aggregate is the plain mean of their scores. A judge who
rated the same cell twice counts once, with the later record winning.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from enum import IntEnum
from types import SimpleNamespace

from .corpus import _parse_record, _record_lines

_JUDGMENT_FIELDS = dict(query_id=str, news_id=str, region=str, judge_id=str)


class Label(IntEnum):
    NOT_RELEVANT = 0
    JUST_OK = 1
    INTERESTING = 2
    VERY_INTERESTING = 3


_LABEL_BY_TEXT = {
    "not relevant": Label.NOT_RELEVANT,
    "just ok": Label.JUST_OK,
    "interesting": Label.INTERESTING,
    "very interesting": Label.VERY_INTERESTING,
}


def parse_label(value: object) -> Label:
    """Accept the label text (any spacing/case) or its numeric score."""
    if isinstance(value, str):
        normalized = " ".join(value.lower().replace("_", " ").split())
        if normalized in _LABEL_BY_TEXT:
            return _LABEL_BY_TEXT[normalized]
        raise ValueError(f"unknown judgment label: {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        if 0 <= value <= 3:
            return Label(value)
        raise ValueError(f"judgment score out of range: {value}")
    raise ValueError(f"judgment label must be text or int: {value!r}")


# One judge's label for one cell, as read; eval builds one per judgment
# line, so it is a named tuple. label is the raw value, parsed during
# aggregation.
JudgmentRecord = namedtuple("JudgmentRecord", "query_id news_id region judge_id label")


def load_judgment_records(
    lines: Iterable[str],
) -> tuple[list[JudgmentRecord], int]:
    """Parse judgment JSONL; returns (records, malformed_line_count)."""
    records: list[JudgmentRecord] = []
    malformed = 0
    for _, raw in _record_lines(lines):
        try:
            obj = _parse_record(raw, _JUDGMENT_FIELDS)
            label = obj["label"] if "label" in obj else obj["score"]
        except (KeyError, ValueError):
            malformed += 1
            continue
        records.append(
            JudgmentRecord(
                obj["query_id"], obj["news_id"], obj["region"], obj["judge_id"], label
            )
        )
    return records, malformed


def _parse_or_none(value: object) -> Label | None:
    try:
        return parse_label(value)
    except ValueError:
        return None


def aggregate(
    records: Iterable[JudgmentRecord],
    min_judges: int = 3,
    *,
    round_scores: bool = False,
) -> tuple[RelevanceLookup, SimpleNamespace]:
    """Mean score per cell, dropping cells with too few distinct judges,
    indexed for lookup; with round_scores each mean is rounded half up.

    Records with unparseable labels are skipped and counted; a judge's
    repeat rating of the same cell supersedes the earlier one.
    """
    if min_judges < 1:
        raise ValueError("min_judges must be at least 1")
    report = SimpleNamespace(
        records_in=0,
        bad_labels=0,
        duplicates_superseded=0,
        cells_kept=0,
        cells_dropped=0,
    )
    # raw labels take few distinct values, so each (type, value) is
    # parsed once; None marks one that does not parse. The type keeps 1,
    # 1.0 and True apart, which compare equal.
    parsed: dict[tuple[type, object], Label | None] = {}
    # cell -> judge -> Label, insertion-ordered for stable output
    cells: dict[tuple[str, str, str], dict[str, Label]] = {}
    for query_id, news_id, region, judge_id, raw in records:
        report.records_in += 1
        memo_key = (type(raw), raw)
        try:
            label = parsed[memo_key]
        except KeyError:
            label = parsed[memo_key] = _parse_or_none(raw)
        except TypeError:  # unhashable, such as a list: no memo
            label = _parse_or_none(raw)
        if label is None:
            report.bad_labels += 1
            continue
        judges = cells.setdefault((query_id, news_id, region), {})
        if judge_id in judges:
            report.duplicates_superseded += 1
        judges[judge_id] = label
    index: dict[str, dict[str, dict[str, float]]] = {}
    for (query_id, news_id, region), judges in cells.items():
        if len(judges) < min_judges:
            report.cells_dropped += 1
            continue
        report.cells_kept += 1
        mean = sum(judges.values()) / len(judges)
        news = index.setdefault(region, {}).setdefault(query_id, {})
        news[news_id] = round_half_up(mean) if round_scores else mean
    return RelevanceLookup(index), report


def round_half_up(value: float) -> float:
    """0.5 rounds away from zero; scores here are never negative."""
    return float(math.floor(value + 0.5))


class RelevanceLookup:
    """Relevance by (query, news, region).

    A missing cell scores 0.0: unjudged means not known to be relevant.
    aggregate builds the index, region -> query -> news -> relevance, so
    a caller scoring one region can take that region's cells whole.
    """

    def __init__(self, index: dict[str, dict[str, dict[str, float]]]) -> None:
        self._index = index

    def contains(self, query_id: str, news_id: str, region: str) -> bool:
        return news_id in self.region_cells(region).get(query_id, {})

    def get(self, query_id: str, news_id: str, region: str) -> float:
        return self.region_cells(region).get(query_id, {}).get(news_id, 0.0)

    def region_cells(self, region: str) -> dict[str, dict[str, float]]:
        """One region's judged cells as query -> news -> relevance; empty
        for a region nobody judged. Callers must not modify it."""
        return self._index.get(region, {})

    def regions(self) -> tuple[str, ...]:
        return tuple(sorted(self._index))
