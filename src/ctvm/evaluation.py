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

mean_ndcg scores every region in one call. Only the gains depend on
the region, so ndcg_columns builds one table per unit, a query's set of
ranked docs: each doc's column of region gains, the unjudged counts and
the ideal DCG columns. Each ranking is then one pass that adds a column
per position: dcg's terms in dcg's order for every region (builtin
sum() compensates from Python 3.12, which would change the eval CSV).

ndcg_columns scores every ranking exactly. mean_ndcg alone applies
require_complete, and a region it leaves with no query reads count 0
and nan means; whether that is an error is the caller's decision.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, compress, repeat
from operator import add, truediv

from .errors import ContractViolation, InputDataError, one_line
from .judgments import RelevanceLookup

PROVENANCE_ENGINE = "engine"  # the baseline compare marks the others against
VARIANT_STANDARD = "standard"
VARIANT_LITERAL = "literal"

DEFAULT_CUTOFFS = (3, 5, 10)


class NdcgConfig(namedtuple("NdcgConfig", "cutoffs variant")):
    __slots__ = ()

    def __new__(
        cls, cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS, variant: str = VARIANT_STANDARD
    ) -> NdcgConfig:
        if not cutoffs:
            raise ValueError("need at least one cutoff")
        if any(isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in cutoffs):
            raise ValueError(f"cutoffs must be ints >= 1: {cutoffs}")
        if list(cutoffs) != sorted(set(cutoffs)):
            raise ValueError(f"cutoffs must be strictly ascending: {cutoffs}")
        if variant not in (VARIANT_STANDARD, VARIANT_LITERAL):
            raise ValueError(f"unknown variant: {variant!r}")
        return tuple.__new__(cls, (cutoffs, variant))


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


# One mean NDCG of the eval CSV: a named tuple, because report builds
# one per row it reads and compare marks each again.
EvalRow = namedtuple(
    "EvalRow",
    "provenance cutoff mean_ndcg n_queries better_than_engine",
    defaults=(False,),
)


def ndcg_columns(
    groups: Sequence[Sequence[tuple[str, tuple[str, ...]]]],
    lookup: RelevanceLookup,
    regions: Sequence[str],
    config: NdcgConfig = DEFAULT_CONFIG,
) -> Iterator[list[tuple[str, list[int], list[list[float]]]]]:
    """Each ranking scored under every region in one pass: for each
    group of (query id, ranked news ids) units, in order, one
    (query_id, unjudged, values) triple per unit. unjudged[r] counts its
    docs regions[r] did not judge, and values[c][r] is exactly ndcg of
    its relevances there (0 where unjudged) at config.cutoffs[c]."""
    if isinstance(regions, str) or not regions:
        raise ContractViolation(f"need a list of region codes, got {regions!r}")
    cutoffs = config.cutoffs
    region_cells = [lookup.region_cells(region) for region in regions]
    longest = max((len(ids) for units in groups for _, ids in units), default=0)
    # discounts[i] divides the gain at position i + 1; the literal
    # variant has none, and x / 1.0 == x exactly
    discounts = [
        1.0 if config.variant == VARIANT_LITERAL else math.log2(position + 1)
        for position in range(1, min(longest, cutoffs[-1]) + 1)
    ]
    # (query id, doc set) -> (doc -> gain column, unjudged column, each
    # cutoff's (length of the prefix it reads, ideal DCG column))
    unit_table: dict[tuple[str, frozenset[str]], tuple] = {}
    zeros = [0.0] * len(regions)
    for units in groups:
        if not units:
            raise InputDataError(f"no rankings to evaluate for region {regions[0]}")
        scored = []
        for query_id, ids in units:
            unit_key = (query_id, frozenset(ids))
            unit = unit_table.get(unit_key)
            if unit is None:
                cell_maps = [cells.get(query_id, {}) for cells in region_cells]
                gains = [[_gain(c.get(n, 0.0), config) for n in ids] for c in cell_maps]
                unjudged = [sum(n not in c for n in ids) for c in cell_maps]
                # gain rises with relevance, so this is ndcg's ideal ordering
                ideals = [
                    list(accumulate(map(truediv, column, discounts), initial=0.0))
                    for column in (sorted(column, reverse=True) for column in gains)
                ]
                last = min(len(ids), len(discounts))
                # a zero ideal has only zero gains, and 0.0 / 1.0 is ndcg's 0.0
                cuts = [
                    (i, [ideal[i] or 1.0 for ideal in ideals])
                    for i in (min(k, last) for k in cutoffs)
                ]
                gain_of = dict(zip(ids, zip(*gains)))
                unit = unit_table[unit_key] = (gain_of, unjudged, cuts)
            gain_of, unjudged, cuts = unit
            # dcg's terms added to 0.0 in dcg's order, every region at once;
            # a list per position: a chain of lazy maps overflows the C stack
            prefix, done, values = zeros, 0, []
            for i, ideal in cuts:
                for news_id, discount in zip(ids[done:i], discounts[done:i]):
                    terms = map(truediv, gain_of[news_id], repeat(discount))
                    prefix = list(map(add, prefix, terms))
                done = i
                values.append(list(map(min, repeat(1.0), map(truediv, prefix, ideal))))
            scored.append((query_id, unjudged, values))
        yield scored


def mean_ndcg(
    groups: Sequence[Sequence[tuple[str, tuple[str, ...]]]],
    lookup: RelevanceLookup,
    regions: Sequence[str],
    config: NdcgConfig = DEFAULT_CONFIG,
    *,
    require_complete: bool = False,
) -> list[tuple[list[list[float]], list[int], list[int]]]:
    """Mean NDCG of each group of (query id, ranked news ids) units
    under each region's judgments: one (means, counts, misses) per
    group, in order. means[c][r]
    is the mean at config.cutoffs[c] over the counts[r] queries scored
    under regions[r]; misses[r] counts their unjudged docs, scored 0.

    With require_complete, a query whose ranking holds a doc the region
    did not judge is left out there. A region left with no query has
    count 0 and nan means. math.fsum keeps each mean independent of
    unit order.
    """
    results = []
    for scored in ndcg_columns(groups, lookup, regions, config):
        unjudged = list(zip(*(unjudged for _, unjudged, _ in scored)))
        kept = [[not (require_complete and n) for n in m] for m in unjudged]
        counts = list(map(sum, kept))
        means = [
            [
                math.fsum(compress(values, keep)) / n if n else math.nan
                for values, keep, n in zip(zip(*column), kept, counts)
            ]
            for column in zip(*(values for _, _, values in scored))
        ]
        misses = [sum(compress(m, keep)) for m, keep in zip(unjudged, kept)]
        results.append((means, counts, misses))
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
    beat the engine. Engine first, then the other provenances by name.
    The heading and the names are written with their line breaks
    escaped, so each stays on its own line."""
    if not rows:
        raise ValueError("nothing to format")
    cutoffs = sorted({row.cutoff for row in rows})
    by_provenance: dict[str, dict[int, EvalRow]] = {}
    for row in rows:
        by_provenance.setdefault(row.provenance, {})[row.cutoff] = row
    order = sorted(by_provenance, key=lambda p: (p != PROVENANCE_ENGINE, p))
    names = list(map(one_line, order))
    name_width = max(len("ranking"), *map(len, names))
    # widest cell content is "x.xxxx*"; +1 keeps a gap between columns
    cell_width = max(7, *(len(f"NDCG@{k}") for k in cutoffs)) + 1
    lines = []
    if heading:
        lines.append(one_line(heading))
    header = "ranking".ljust(name_width) + "".join(
        f"NDCG@{k}".rjust(cell_width) for k in cutoffs
    )
    lines.append(header)
    for provenance, name in zip(order, names):
        cells = [name.ljust(name_width)]
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
