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

mean_ndcg scores many rankings under one region's judgments: eval runs
it once per (region, engine, provenance), and every provenance of a
(query, engine, date) ranks the same docs. So what one lookup, region
and NdcgConfig share is built once, on the first call, and kept for the
lookup's lifetime: the region's gains per query, the gain of an
unjudged doc, the discounts, and the ideal DCG per cutoff keyed by the
sorted gains. Each ranking then costs one gain lookup per doc and one
running-sum pass that yields DCG at every cutoff. That pass adds the
same terms in the same order as dcg, one at a time; builtin sum() is
not used, because from Python 3.12 it sums floats with compensation and
would change the last bits, and with them the eval CSV.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import accumulate, repeat
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


def ranking_relevances(
    ranking: Ranking,
    lookup: RelevanceLookup,
    query_id: str,
    region: str,
) -> list[float]:
    """Relevance of each ranked doc under one region's judgments."""
    return [lookup.get(query_id, news_id, region) for news_id in ranking.ids()]


class QueryScore(NamedTuple):
    """One query instance's NDCG at one cutoff. A named tuple, because
    eval builds one per (region, provenance, query instance, cutoff)."""

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


class _RegionView:
    """What every ranking scored under one (lookup, region, config)
    shares: the region's gains per query, an unjudged doc's gain, the
    discounts, and the ideal DCG at each cutoff per sorted gains."""

    def __init__(
        self, lookup: RelevanceLookup, region: str, config: NdcgConfig
    ) -> None:
        self.gains = {
            query_id: {
                news_id: _gain(relevance, config)
                for news_id, relevance in cells.items()
            }
            for query_id, cells in lookup.region_cells(region).items()
        }
        self.unjudged = _gain(0.0, config)
        self.cutoffs = config.cutoffs
        # discounts[i] divides the gain at position i + 1; the literal
        # variant has none, and x / 1.0 == x exactly
        self._log2 = config.variant != VARIANT_LITERAL
        self._discounts: list[float] = []
        # ranking length -> index of each cutoff's prefix
        self._picks: dict[int, tuple[int, ...]] = {}
        self.ideal: dict[tuple[float, ...], tuple[float, ...]] = {}

    def cutoff_dcgs(self, gains: Sequence[float]) -> list[float]:
        """dcg(relevances, k) for each cutoff k, where gains are the
        relevances' gains: one running-sum pass over the same terms,
        added in the same order, so every value is the same float."""
        n = min(len(gains), self.cutoffs[-1])
        picks = self._picks.get(n)
        if picks is None:
            picks = self._picks[n] = tuple(min(k, n) - 1 for k in self.cutoffs)
            discounts = self._discounts
            while len(discounts) < n:
                position = len(discounts) + 1
                discounts.append(math.log2(position + 1) if self._log2 else 1.0)
        if not n:
            return [0.0] * len(picks)
        prefix = list(accumulate(map(truediv, gains[:n], self._discounts)))
        return [prefix[i] for i in picks]


# lookup -> (region, config) -> view; an entry goes with its lookup
_VIEWS: weakref.WeakKeyDictionary[
    RelevanceLookup, dict[tuple[str, NdcgConfig], _RegionView]
] = weakref.WeakKeyDictionary()


def _region_view(
    lookup: RelevanceLookup, region: str, config: NdcgConfig
) -> _RegionView:
    views = _VIEWS.get(lookup)
    if views is None:
        views = _VIEWS[lookup] = {}
    view = views.get((region, config))
    if view is None:
        view = views[(region, config)] = _RegionView(lookup, region, config)
    return view


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
    unjudged docs score 0 and each one adds to lookup.misses. Zero
    evaluable queries is an error, not a silent zero. math.fsum keeps
    the mean independent of unit order. Every value equals
    ndcg(ranking_relevances(...), k, config) exactly.
    """
    if not units:
        raise EvalError(f"no rankings to evaluate for region {region}")
    provenances = {ranking.provenance for _, ranking in units}
    if len(provenances) != 1:
        raise ContractViolation(
            f"mean_ndcg expects one provenance, got {sorted(provenances)}"
        )
    provenance = provenances.pop()
    view = _region_view(lookup, region, config)
    region_gains, ideal_memo = view.gains, view.ideal
    no_cells: dict[str, float] = {}
    query_ids: list[str] = []
    per_unit: list[list[float]] = []
    misses = 0
    for query_id, ranking in units:
        gains = list(map(region_gains.get(query_id, no_cells).get, ranking.ids()))
        unjudged = gains.count(None)
        if unjudged:
            if require_complete:
                continue
            misses += unjudged
            gains = [view.unjudged if gain is None else gain for gain in gains]
        # gain rises with relevance, so these are ndcg's ideal ordering
        ideal_key = tuple(sorted(gains, reverse=True))
        ideals = ideal_memo.get(ideal_key)
        if ideals is None:
            ideals = ideal_memo[ideal_key] = tuple(view.cutoff_dcgs(ideal_key))
        query_ids.append(query_id)
        per_unit.append(
            [
                0.0 if ideal == 0.0 else min(1.0, actual / ideal)
                for actual, ideal in zip(view.cutoff_dcgs(gains), ideals)
            ]
        )
    lookup.misses += misses
    if not per_unit:
        raise EvalError(
            f"no evaluable queries for {provenance} in region {region} "
            f"(require_complete dropped all {len(units)})"
        )
    rows: list[EvalRow] = []
    scores: list[QueryScore] = []
    for k, values in zip(config.cutoffs, zip(*per_unit)):
        scores.extend(map(QueryScore, query_ids, repeat(k), values))
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
            better = False
        else:
            baseline = engine_by_cutoff.get(row.cutoff)
            if baseline is None:
                raise ContractViolation(
                    f"no engine row at cutoff {row.cutoff} to compare "
                    f"{row.provenance} against"
                )
            better = row.mean_ndcg > baseline.mean_ndcg
        # built directly: dataclasses.replace costs several times more,
        # and report marks one row per (provenance, cutoff)
        marked.append(
            EvalRow(row.provenance, row.cutoff, row.mean_ndcg, row.n_queries, better)
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
