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

mean_ndcg scores all of one region's rankings in one call and builds
what they share once, as locals: the region's gains, the discounts and
a table per unit, a query's set of ranked docs, which every ranking of
those docs reads. The table holds the docs' gains, the unit's unjudged
count and its ideal DCGs. One running-sum pass per ranking then yields
DCG at every cutoff, adding dcg's terms in dcg's order; builtin sum()
compensates from Python 3.12 and would change the last bits, and with
them the eval CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import truediv
from typing import Iterable, NamedTuple, Sequence

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
    mean_ndcg gives this same float for every ranking it scores.
    """
    ideal = sorted(relevances, reverse=True)
    ideal_dcg = dcg(ideal, k, config)
    if ideal_dcg == 0.0:
        return 0.0
    value = dcg(list(relevances), k, config) / ideal_dcg
    return min(1.0, value)


class EvalRow(NamedTuple):
    """One mean NDCG: a named tuple, because eval builds one per
    (region, group, cutoff) and report marks each again."""

    provenance: str
    cutoff: int
    mean_ndcg: float
    n_queries: int
    better_than_engine: bool = False


def mean_ndcg(
    groups: Sequence[Sequence[tuple[str, Ranking]]],
    lookup: RelevanceLookup,
    region: str,
    config: NdcgConfig = DEFAULT_CONFIG,
    *,
    require_complete: bool = False,
) -> list[tuple[list[EvalRow], list[tuple[str, list[float]]], int]]:
    """Mean NDCG per cutoff for each group of rankings under one
    region's judgments: one (rows, scores, misses) triple per group, in
    order. scores pairs each scored query instance's id with its NDCG at
    every cutoff, in config.cutoffs order.

    A group pairs query instances with their rankings, all of one
    provenance. With require_complete, a query whose ranking contains
    any unjudged doc (for this region) is left out entirely; otherwise
    unjudged docs score 0, and misses counts them. A group with zero
    evaluable queries is an error, not a silent zero. math.fsum keeps
    each mean independent of unit order. Every value equals ndcg of the
    ranking's relevances (0 where unjudged) at k exactly.

    Rankings of one query over the same set of docs form a unit, and
    share one table of the unit's doc gains, its miss count and its
    ideal DCGs; each ranking is then one pass over that table.
    """
    cutoffs = config.cutoffs
    region_gains = {
        query_id: {
            news_id: _gain(relevance, config) for news_id, relevance in cells.items()
        }
        for query_id, cells in lookup.region_cells(region).items()
    }
    unjudged_gain = _gain(0.0, config)
    longest = max((len(r.ids) for units in groups for _, r in units), default=0)
    # discounts[i] divides the gain at position i + 1; the literal
    # variant has none, and x / 1.0 == x exactly
    discounts = [
        1.0 if config.variant == VARIANT_LITERAL else math.log2(position + 1)
        for position in range(1, min(longest, cutoffs[-1]) + 1)
    ]
    # (query id, doc set) -> (doc -> gain, unjudged docs, each cutoff's
    # (index in a ranking's prefix DCGs, ideal DCG))
    unit_table: dict[
        tuple[str, frozenset[str]],
        tuple[dict[str, float], int, list[tuple[int, float]]],
    ] = {}
    no_cells: dict[str, float] = {}
    results = []
    for units in groups:
        if not units:
            raise EvalError(f"no rankings to evaluate for region {region}")
        provenances = {ranking.provenance for _, ranking in units}
        if len(provenances) != 1:
            raise ContractViolation(
                f"mean_ndcg expects one provenance, got {sorted(provenances)}"
            )
        provenance = provenances.pop()
        scores: list[tuple[str, list[float]]] = []
        misses = 0
        for query_id, ranking in units:
            ids = ranking.ids
            unit_key = (query_id, frozenset(ids))
            unit = unit_table.get(unit_key)
            if unit is None:
                cells = region_gains.get(query_id, no_cells)
                gain_of = {news_id: cells.get(news_id, unjudged_gain) for news_id in ids}
                unjudged = sum(news_id not in cells for news_id in ids)
                # gain rises with relevance, so this is ndcg's ideal ordering
                ideal = sorted(gain_of.values(), reverse=True)
                ideal_prefix = list(
                    accumulate(map(truediv, ideal, discounts), initial=0.0)
                )
                # every ranking of the unit has this many prefix DCGs
                last = len(ideal_prefix) - 1
                picks = [min(k, last) for k in cutoffs]
                cuts = [(i, ideal_prefix[i]) for i in picks]
                unit = unit_table[unit_key] = (gain_of, unjudged, cuts)
            gain_of, unjudged, cuts = unit
            if unjudged:
                if require_complete:
                    continue
                misses += unjudged
            # dcg's terms added to 0.0 in dcg's order: the DCG at each prefix
            prefix = list(
                accumulate(
                    map(truediv, map(gain_of.__getitem__, ids), discounts), initial=0.0
                )
            )
            values = [
                0.0 if ideal == 0.0 else min(1.0, prefix[i] / ideal)
                for i, ideal in cuts
            ]
            scores.append((query_id, values))
        if not scores:
            raise EvalError(
                f"no evaluable queries for {provenance} in region {region} "
                f"(require_complete dropped all {len(units)})"
            )
        rows = [
            EvalRow(provenance, k, math.fsum(values) / len(values), len(values))
            for k, values in zip(cutoffs, zip(*(values for _, values in scores)))
        ]
        results.append((rows, scores, misses))
    return results


def compare(rows: Iterable[EvalRow]) -> list[EvalRow]:
    """Mark every non-engine row that strictly beats the engine row at
    the same cutoff. Ties and losses stay unmarked. Each (provenance,
    cutoff) may have one row, and every other row needs an engine row at
    its cutoff."""
    rows = list(rows)
    cells: dict[tuple[str, int], EvalRow] = {}
    for row in rows:
        cell = (row.provenance, row.cutoff)
        if cell in cells:
            raise ContractViolation(
                f"two {row.provenance} rows at cutoff {row.cutoff}"
            )
        cells[cell] = row
    marked: list[EvalRow] = []
    for row in rows:
        if row.provenance == PROVENANCE_ENGINE:
            better = False
        else:
            baseline = cells.get((PROVENANCE_ENGINE, row.cutoff))
            if baseline is None:
                raise ContractViolation(
                    f"no engine row at cutoff {row.cutoff} to compare "
                    f"{row.provenance} against"
                )
            better = row.mean_ndcg > baseline.mean_ndcg
        # built directly: _replace costs more, and report marks one row
        # per (provenance, cutoff)
        marked.append(
            EvalRow(row.provenance, row.cutoff, row.mean_ndcg, row.n_queries, better)
        )
    return marked


def format_table(rows: Sequence[EvalRow], heading: str = "") -> str:
    """Fixed-width table, one provenance per line, starred where a row
    beat the engine. Engine first, then the other provenances by name."""
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
