"""Ranking quality: DCG, NDCG@k, per-region means, engine comparison.

The default scoring is the standard formulation: gain 2^rel - 1 and a
log2(1 + position) discount. The "literal" variant reproduces an older
write-up of the same measure that uses gain 2^(rel - 1) and discounts
by the query's index rather than the result position; a per-query
constant cancels when dividing by the ideal DCG, so it is implemented
as that gain with no positional discount. Note the literal gain maps
relevance 0 to 0.5, not 0, so unjudged tails still earn credit; it is
kept for comparability, not recommended.

Relevance values are mean judge scores and may be fractional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import ContractViolation, EvalError
from .judgments import RelevanceLookup
from .voting import PROVENANCE_ENGINE, Ranking

VARIANT_STANDARD = "standard"
VARIANT_LITERAL = "literal"

DEFAULT_CUTOFFS = (3, 5, 10)


@dataclass(frozen=True)
class NdcgConfig:
    cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS
    variant: str = VARIANT_STANDARD

    def __post_init__(self) -> None:
        if not self.cutoffs:
            raise ValueError("need at least one cutoff")
        if any(
            isinstance(k, bool) or not isinstance(k, int) or k < 1
            for k in self.cutoffs
        ):
            raise ValueError(f"cutoffs must be ints >= 1: {self.cutoffs}")
        if list(self.cutoffs) != sorted(set(self.cutoffs)):
            raise ValueError(f"cutoffs must be strictly ascending: {self.cutoffs}")
        if self.variant not in (VARIANT_STANDARD, VARIANT_LITERAL):
            raise ValueError(f"unknown variant: {self.variant!r}")


DEFAULT_CONFIG = NdcgConfig()


def _gain(relevance: float, config: NdcgConfig) -> float:
    if relevance < 0:
        raise ValueError(f"negative relevance: {relevance}")
    if config.variant == VARIANT_LITERAL:
        return 2.0 ** (relevance - 1.0)
    return 2.0**relevance - 1.0


def dcg(relevances: Sequence[float], k: int, config: NdcgConfig = DEFAULT_CONFIG) -> float:
    """Discounted cumulative gain over the first k entries."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an int >= 1: {k!r}")
    total = 0.0
    for position, relevance in enumerate(relevances[:k], start=1):
        gain = _gain(relevance, config)
        if config.variant == VARIANT_LITERAL:
            total += gain
        else:
            total += gain / math.log2(position + 1)
    return total


def ndcg(relevances: Sequence[float], k: int, config: NdcgConfig = DEFAULT_CONFIG) -> float:
    """DCG normalized by the best ordering of the same relevances.

    When even the ideal ordering scores zero (standard variant with all
    relevances zero), the ranking can show nothing and scores 0.0.
    """
    ideal = sorted(relevances, reverse=True)
    ideal_dcg = dcg(ideal, k, config)
    if ideal_dcg == 0.0:
        return 0.0
    value = dcg(list(relevances), k, config) / ideal_dcg
    return min(1.0, value)


def ranking_relevances(
    ranking: Ranking,
    lookup: RelevanceLookup,
    query_id: str,
    region: str,
) -> list[float]:
    """Relevance of each ranked doc under one region's judgments."""
    return [lookup.get(query_id, news_id, region) for news_id in ranking.ids()]


@dataclass(frozen=True)
class QueryScore:
    query_id: str
    cutoff: int
    value: float


@dataclass(frozen=True)
class EvalRow:
    provenance: str
    cutoff: int
    mean_ndcg: float
    n_queries: int
    better_than_engine: bool = False


def mean_ndcg(
    units: Sequence[tuple[str, Ranking]],
    lookup: RelevanceLookup,
    region: str,
    config: NdcgConfig = DEFAULT_CONFIG,
    *,
    require_complete: bool = False,
) -> tuple[list[EvalRow], list[QueryScore]]:
    """Mean NDCG per cutoff for one provenance's rankings.

    units pair each query instance with its ranking; all must share one
    provenance. With require_complete, a query whose ranking contains
    any unjudged doc (for this region) is left out entirely; otherwise
    unjudged docs score 0. Zero evaluable queries is an error, not a
    silent zero. math.fsum keeps the mean independent of unit order.
    """
    if not units:
        raise EvalError(f"no rankings to evaluate for region {region}")
    provenances = {ranking.provenance for _, ranking in units}
    if len(provenances) != 1:
        raise ContractViolation(
            f"mean_ndcg expects one provenance, got {sorted(provenances)}"
        )
    provenance = provenances.pop()
    evaluable: list[tuple[str, list[float]]] = []
    for query_id, ranking in units:
        if require_complete and any(
            not lookup.contains(query_id, news_id, region)
            for news_id in ranking.ids()
        ):
            continue
        evaluable.append(
            (query_id, ranking_relevances(ranking, lookup, query_id, region))
        )
    if not evaluable:
        raise EvalError(
            f"no evaluable queries for {provenance} in region {region} "
            f"(require_complete dropped all {len(units)})"
        )
    rows: list[EvalRow] = []
    scores: list[QueryScore] = []
    for k in config.cutoffs:
        values = [ndcg(rels, k, config) for _, rels in evaluable]
        scores.extend(
            QueryScore(query_id, k, value)
            for (query_id, _), value in zip(evaluable, values)
        )
        rows.append(
            EvalRow(
                provenance=provenance,
                cutoff=k,
                mean_ndcg=math.fsum(values) / len(values),
                n_queries=len(values),
            )
        )
    return rows, scores


def compare(rows: Iterable[EvalRow]) -> list[EvalRow]:
    """Mark every non-engine row that strictly beats the engine row at
    the same cutoff. Ties and losses stay unmarked."""
    rows = list(rows)
    engine_by_cutoff: dict[int, EvalRow] = {}
    for row in rows:
        if row.provenance == PROVENANCE_ENGINE:
            if row.cutoff in engine_by_cutoff:
                raise ContractViolation(
                    f"two engine rows at cutoff {row.cutoff}"
                )
            engine_by_cutoff[row.cutoff] = row
    marked: list[EvalRow] = []
    for row in rows:
        if row.provenance == PROVENANCE_ENGINE:
            marked.append(replace(row, better_than_engine=False))
            continue
        baseline = engine_by_cutoff.get(row.cutoff)
        if baseline is None:
            raise ContractViolation(
                f"no engine row at cutoff {row.cutoff} to compare "
                f"{row.provenance} against"
            )
        marked.append(
            replace(row, better_than_engine=row.mean_ndcg > baseline.mean_ndcg)
        )
    return marked


def format_table(rows: Sequence[EvalRow], heading: str = "") -> str:
    """Fixed-width table, one provenance per line, starred where a row
    beat the engine. Engine first, then input order."""
    if not rows:
        raise ValueError("nothing to format")
    cutoffs = sorted({row.cutoff for row in rows})
    by_provenance: dict[str, dict[int, EvalRow]] = {}
    for row in rows:
        by_provenance.setdefault(row.provenance, {})[row.cutoff] = row
    order = sorted(
        by_provenance,
        key=lambda p: (p != PROVENANCE_ENGINE, p),
    )
    name_width = max(len(p) for p in order)
    name_width = max(name_width, len("ranking"))
    # widest cell content is "x.xxxx*"; +1 keeps a gap between columns
    cell_width = max(7, *(len(f"NDCG@{k}") for k in cutoffs)) + 1
    lines = []
    if heading:
        lines.append(heading)
    header = "ranking".ljust(name_width) + "".join(
        f"NDCG@{k}".rjust(cell_width) for k in cutoffs
    )
    lines.append(header)
    for provenance in order:
        cells = [provenance.ljust(name_width)]
        for k in cutoffs:
            row = by_provenance[provenance].get(k)
            if row is None:
                cells.append("-".rjust(cell_width))
                continue
            text = f"{row.mean_ndcg:.4f}" + ("*" if row.better_than_engine else "")
            cells.append(text.rjust(cell_width))
        lines.append("".join(cells))
    lines.append("* better than the engine ranking at that cutoff")
    return "\n".join(lines)
