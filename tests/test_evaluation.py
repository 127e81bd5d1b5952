from __future__ import annotations

import math
from collections import namedtuple

import pytest
from hypothesis import Phase, given, settings, strategies as st

from ctvm.errors import ContractViolation, InputDataError
from ctvm.evaluation import (
    DEFAULT_CONFIG,
    DEFAULT_CUTOFFS,
    VARIANT_LITERAL,
    NdcgConfig,
    compare,
    dcg,
    format_table,
    mean_ndcg,
    ndcg,
    ndcg_columns,
)
from ctvm.judgments import RelevanceLookup, aggregate

from oracles import (
    naive_compare,
    naive_dcg,
    naive_mean,
    naive_ndcg,
    ranking_relevances,
)

NDCG_TOL = 1e-9

LITERAL = NdcgConfig(variant=VARIANT_LITERAL)

# A failing mean_ndcg property reports its first failing example at
# once: shrinking these nested strategies can take minutes.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


class TestConfig:
    def test_defaults(self):
        config = NdcgConfig()
        assert config.cutoffs == DEFAULT_CUTOFFS == (3, 5, 10)

    def test_cutoffs_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            NdcgConfig(cutoffs=(5, 3))
        with pytest.raises(ValueError, match="ascending"):
            NdcgConfig(cutoffs=(3, 3))

    def test_cutoffs_must_be_positive_ints(self):
        with pytest.raises(ValueError):
            NdcgConfig(cutoffs=(0,))
        with pytest.raises(ValueError):
            NdcgConfig(cutoffs=(True,))
        with pytest.raises(ValueError):
            NdcgConfig(cutoffs=())

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            NdcgConfig(variant="modern")


class TestDcg:
    def test_hand_computed(self):
        # 7/1 + 3/log2(3) + 1/2
        assert dcg([3, 2, 1], 3) == pytest.approx(
            9.392789260714372, abs=NDCG_TOL
        )

    def test_truncates_at_k(self):
        assert dcg([3, 2, 1], 1) == 7.0
        assert dcg([3], 10) == 7.0

    def test_fractional_relevance(self):
        value = dcg([1.5], 1)
        assert value == pytest.approx(2.0**1.5 - 1.0, abs=NDCG_TOL)

    def test_literal_variant_sums_undiscounted_gains(self):
        # 2^(3-1) + 2^(2-1) + 2^(1-1)
        assert dcg([3, 2, 1], 3, LITERAL) == pytest.approx(7.0, abs=NDCG_TOL)
        # relevance 0 still earns 2^(-1)
        assert dcg([0], 1, LITERAL) == pytest.approx(0.5, abs=NDCG_TOL)

    def test_negative_relevance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            dcg([-1], 1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            dcg([1], 0)
        with pytest.raises(ValueError):
            dcg([1], True)


class TestNdcg:
    def test_perfect_order_is_exactly_one(self):
        assert ndcg([3, 2, 1, 0], 4) == 1.0

    def test_all_zero_is_zero(self):
        assert ndcg([0, 0, 0], 3) == 0.0

    def test_all_zero_literal_is_one(self):
        # every ordering of zeros has the same positive literal DCG
        assert ndcg([0, 0, 0], 3, LITERAL) == 1.0

    def test_worked_example(self):
        # engine order scores [1/3, 5/3, 8/3]; ideal is [8/3, 5/3, 1/3]
        assert ndcg([1 / 3, 5 / 3, 8 / 3], 3) == pytest.approx(
            0.6285831123188554, abs=NDCG_TOL
        )

    def test_worst_order_below_best(self):
        worst = ndcg([0, 1, 2, 3], 4)
        best = ndcg([3, 2, 1, 0], 4)
        assert 0.0 < worst < best == 1.0

    def test_truncation_ignores_tail(self):
        assert ndcg([3, 2, 0, 0], 2) == 1.0
        assert ndcg([0, 0, 3, 2], 2) == 0.0

    def test_literal_truncation(self):
        # first two gains over the two largest gains
        values = [1.0, 3.0, 2.0]
        expected = (2.0**0 + 2.0**2) / (2.0**2 + 2.0**1)
        assert ndcg(values, 2, LITERAL) == pytest.approx(expected, abs=NDCG_TOL)


RELEVANCES = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=3).map(float),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)
CONFIGS = st.sampled_from(
    [NdcgConfig(), LITERAL, NdcgConfig(cutoffs=(1, 2))]
)


class TestNdcgProperties:
    @given(RELEVANCES, st.integers(min_value=1, max_value=10), CONFIGS)
    def test_matches_oracle(self, relevances, k, config):
        expected_dcg = naive_dcg(relevances, k, config.variant)
        expected_ndcg = naive_ndcg(relevances, k, config.variant)
        assert dcg(relevances, k, config) == pytest.approx(
            expected_dcg, abs=NDCG_TOL
        )
        assert ndcg(relevances, k, config) == pytest.approx(
            min(1.0, expected_ndcg), abs=NDCG_TOL
        )

    @given(RELEVANCES, st.integers(min_value=1, max_value=10), CONFIGS)
    def test_bounded(self, relevances, k, config):
        assert 0.0 <= ndcg(relevances, k, config) <= 1.0

    @given(RELEVANCES, st.integers(min_value=1, max_value=10), CONFIGS)
    def test_ideal_order_is_optimal(self, relevances, k, config):
        ideal = sorted(relevances, reverse=True)
        assert ndcg(ideal, k, config) in (0.0, 1.0)
        assert ndcg(relevances, k, config) <= ndcg(ideal, k, config) + NDCG_TOL


def lookup_for(cells: dict[tuple[str, str, str], float]) -> RelevanceLookup:
    records = [
        (*cell, judge, int(value))
        for cell, value in cells.items()
        for judge in ("j1", "j2", "j3")
    ]
    lookup, _ = aggregate(records)
    return lookup


class TestRankingRelevances:
    def test_maps_ids_and_defaults_to_zero(self):
        lookup = lookup_for(
            {("q", "a", "CA"): 3, ("q", "b", "CA"): 1, ("q", "a", "NY"): 2}
        )
        assert ranking_relevances(("b", "a", "zz"), lookup, "q", "CA") == [1.0, 3.0, 0.0]


# one mean of mean_ndcg's results
Mean = namedtuple("Mean", "cutoff mean_ndcg n_queries")


def region_rows(
    groups, lookup, regions, config=DEFAULT_CONFIG, require_complete=False
):
    """mean_ndcg's means as Means: for each region, one (rows, misses)
    pair per group."""
    results = mean_ndcg(
        groups, lookup, regions, config, require_complete=require_complete
    )
    return [
        [
            (
                [Mean(k, means_at_k[r], counts[r])
                 for k, means_at_k in zip(config.cutoffs, means)],
                misses[r],
            )
            for means, counts, misses in results
        ]
        for r in range(len(regions))
    ]


def column_scores(
    groups, lookup, regions, config=DEFAULT_CONFIG, require_complete=False
):
    """ndcg_columns' values as each region's scores: for each region, one
    list per group of (query id, NDCG per cutoff), leaving out the
    queries that require_complete drops there."""
    columns = list(ndcg_columns(groups, lookup, regions, config))
    return [
        [
            [
                (query_id, [per_region[r] for per_region in values])
                for query_id, unjudged, values in scored
                if not (require_complete and unjudged[r])
            ]
            for scored in columns
        ]
        for r in range(len(regions))
    ]


class TestMeanNdcg:
    CELLS = {
        ("q1", "a", "CA"): 3,
        ("q1", "b", "CA"): 2,
        ("q1", "c", "CA"): 1,
        ("q2", "d", "CA"): 2,
        ("q2", "e", "CA"): 3,
    }

    def test_single_query(self):
        lookup = lookup_for(self.CELLS)
        units = [("q1", ("a", "b", "c"))]
        [[(rows, misses)]] = region_rows(
            [units], lookup, ["CA"], NdcgConfig(cutoffs=(3,))
        )
        [[scores]] = column_scores([units], lookup, ["CA"], NdcgConfig(cutoffs=(3,)))
        assert rows == [Mean(cutoff=3, mean_ndcg=1.0, n_queries=1)]
        assert scores == [("q1", [1.0])]
        assert misses == 0

    def test_mean_over_queries_per_cutoff(self):
        lookup = lookup_for(self.CELLS)
        units = [
            ("q1", ("a", "b", "c")),
            ("q2", ("d", "e")),
        ]
        [[(rows, _)]] = region_rows(
            [units], lookup, ["CA"], NdcgConfig(cutoffs=(2, 3))
        )
        [[scores]] = column_scores([units], lookup, ["CA"], NdcgConfig(cutoffs=(2, 3)))
        q2 = ndcg([2, 3], 2)
        expected_mean = naive_mean([1.0, q2])
        by_cutoff = {row.cutoff: row for row in rows}
        assert by_cutoff[2].mean_ndcg == pytest.approx(
            expected_mean, abs=NDCG_TOL
        )
        assert by_cutoff[2].n_queries == 2
        assert [(q, len(values)) for q, values in scores] == [("q1", 2), ("q2", 2)]

    def test_unjudged_docs_score_zero_by_default(self):
        lookup = lookup_for(self.CELLS)
        units = [("q1", ("a", "zz"))]
        [[(rows, misses)]] = region_rows(
            [units], lookup, ["CA"], NdcgConfig(cutoffs=(2,))
        )
        assert rows[0].mean_ndcg == 1.0  # [3, 0] is already ideal
        assert misses == 1

    def test_require_complete_skips_partial_queries(self):
        lookup = lookup_for(self.CELLS)
        units = [
            ("q1", ("a", "b")),
            ("q2", ("d", "zz")),
        ]
        [[(rows, misses)]] = region_rows(
            [units],
            lookup,
            ["CA"],
            NdcgConfig(cutoffs=(2,)),
            require_complete=True,
        )
        [[scores]] = column_scores(
            [units], lookup, ["CA"], NdcgConfig(cutoffs=(2,)), require_complete=True
        )
        assert rows[0].n_queries == 1
        assert [query_id for query_id, _ in scores] == ["q1"]
        assert misses == 0  # the dropped query's unjudged doc is not a miss

    def test_require_complete_can_exhaust(self):
        lookup = lookup_for(self.CELLS)
        units = [("q1", ("a", "zz"))]
        [(means, counts, misses)] = mean_ndcg(
            [units],
            lookup,
            ["CA"],
            NdcgConfig(cutoffs=(2,)),
            require_complete=True,
        )
        assert (counts, misses) == ([0], [0])
        [[mean]] = means
        assert math.isnan(mean)

    def test_no_units_rejected(self):
        with pytest.raises(InputDataError, match="no rankings"):
            mean_ndcg([[]], lookup_for(self.CELLS), ["CA"])

    @settings(phases=NO_SHRINK)
    @given(st.permutations(range(6)))
    def test_unit_order_cannot_move_the_mean(self, order):
        cells = {
            ("q%d" % i, "n%d" % i, "CA"): (i % 4) for i in range(6)
        }
        lookup = lookup_for({k: v for k, v in cells.items() if v})
        units = [
            ("q%d" % i, ("n%d" % i, "x%d" % i))
            for i in range(6)
        ]
        [[(baseline_rows, _)]] = region_rows(
            [units], lookup, ["CA"], NdcgConfig(cutoffs=(2,))
        )
        shuffled = [units[i] for i in order]
        [[(rows, _)]] = region_rows(
            [shuffled], lookup, ["CA"], NdcgConfig(cutoffs=(2,))
        )
        # fsum makes this exact equality, not approx
        assert rows[0].mean_ndcg == baseline_rows[0].mean_ndcg


NEWS_IDS = tuple(f"n{i}" for i in range(8))
CELL_KEYS = tuple(
    (query_id, news_id, region)
    for query_id in ("q0", "q1")
    for news_id in NEWS_IDS
    for region in ("CA", "NY")
)
# each cell unjudged, a mean of judge scores, or any relevance in [0, 3]
CELLS = st.lists(
    st.none()
    | st.integers(min_value=0, max_value=9).map(lambda n: n / 3)
    | st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    min_size=len(CELL_KEYS),
    max_size=len(CELL_KEYS),
).map(lambda values: {k: v for k, v in zip(CELL_KEYS, values) if v is not None})
QUERY_IDS = st.sampled_from(("q0", "q1", "q9"))


def permuted_copy(unit):
    """Another ranking of the unit's doc set, as every provenance of one
    (query, engine, date) gives, under its query or another one."""
    query_id, ids = unit
    return st.tuples(st.just(query_id) | QUERY_IDS, st.permutations(ids).map(tuple))


UNITS = st.lists(
    st.tuples(
        QUERY_IDS,
        st.permutations(NEWS_IDS).flatmap(
            lambda ids: st.integers(0, len(ids)).map(lambda n: tuple(ids[:n]))
        ),
    ),
    min_size=1,
    max_size=4,
).flatmap(
    lambda units: st.lists(st.sampled_from(units).flatmap(permuted_copy), max_size=3)
    .map(lambda copies: units + copies)
    .flatmap(st.permutations)
)
# cutoffs may run past the longest ranking (8 docs)
ANY_CONFIG = st.builds(
    NdcgConfig,
    cutoffs=st.sets(st.integers(min_value=1, max_value=12), min_size=1).map(
        lambda ks: tuple(sorted(ks))
    ),
    variant=st.sampled_from(["standard", VARIANT_LITERAL]),
)


def lookup_of(cells: dict[tuple[str, str, str], float]) -> RelevanceLookup:
    """A lookup holding exactly these relevances, which need not be
    means of whole-number labels."""
    index: dict[str, dict[str, dict[str, float]]] = {}
    for (query_id, news_id, region), relevance in cells.items():
        index.setdefault(region, {}).setdefault(query_id, {})[news_id] = relevance
    return RelevanceLookup(index)


def reference_scores(units, cells, region, config, require_complete):
    """mean_ndcg's scores and miss count, one ndcg call per (unit, k)."""
    lookup = lookup_of(cells)
    kept = []
    misses = 0
    for query_id, ids in units:
        unjudged = sum(not lookup.contains(query_id, n, region) for n in ids)
        if require_complete and unjudged:
            continue
        misses += unjudged
        kept.append(
            (query_id, ranking_relevances(ids, lookup, query_id, region))
        )
    scores = [
        (query_id, [ndcg(relevances, k, config) for k in config.cutoffs])
        for query_id, relevances in kept
    ]
    return scores, misses


class TestMeanNdcgExactness:
    """mean_ndcg shares gains, discounts and ideal DCGs across one
    call's groups; every score must still be the very float ndcg gives."""

    @settings(max_examples=300, deadline=None, phases=NO_SHRINK)
    @given(
        CELLS,
        UNITS,
        st.sampled_from(("CA", "NY", "TX")),
        ANY_CONFIG,
        st.booleans(),
    )
    def test_scores_equal_ndcg_exactly(
        self, cells, units, region, config, require_complete
    ):
        expected, expected_misses = reference_scores(
            units, cells, region, config, require_complete
        )
        lookup = lookup_of(cells)
        [[(rows, misses)]] = region_rows(
            [units], lookup, [region], config, require_complete=require_complete
        )
        [[scores]] = column_scores(
            [units], lookup, [region], config, require_complete=require_complete
        )
        assert scores == expected
        assert misses == expected_misses
        for i, row in enumerate(rows):
            assert row.cutoff == config.cutoffs[i]
            values = [per_cutoff[i] for _, per_cutoff in scores]
            assert row.n_queries == len(values)
            if values:
                assert row.mean_ndcg == math.fsum(values) / len(values)
            else:  # require_complete left no query
                assert math.isnan(row.mean_ndcg)

    def test_one_query_over_two_doc_sets(self):
        """One query ranked over a different doc set on each of two
        dates: two units, each with its own gains, ideal and misses."""
        cells = {
            ("q1", "a", "CA"): 3.0,
            ("q1", "b", "CA"): 1.0,
            ("q1", "c", "CA"): 2.0,
        }
        units = [
            ("q1", ("x", "a", "b", "c")),
            ("q1", ("b", "c")),
            ("q1", ("c", "a", "x", "b")),
        ]
        config = NdcgConfig(cutoffs=(1, 2))
        [[(rows, misses)]] = region_rows([units], lookup_of(cells), ["CA"], config)
        [[scores]] = column_scores([units], lookup_of(cells), ["CA"], config)
        expected = [
            ("q1", [ndcg(relevances, k, config) for k in config.cutoffs])
            for relevances in ([0.0, 3.0, 1.0, 2.0], [1.0, 2.0], [2.0, 3.0, 0.0, 1.0])
        ]
        assert scores == expected
        assert misses == 2  # x, in the first and third rankings
        assert [row.n_queries for row in rows] == [3, 3]

    @settings(max_examples=100, deadline=None, phases=NO_SHRINK)
    @given(CELLS, UNITS, st.sampled_from(("CA", "NY")))
    def test_variants_do_not_share_state(self, cells, units, region):
        shared = lookup_of(cells)
        for config in (NdcgConfig(), LITERAL, NdcgConfig()):
            fresh = mean_ndcg([units], lookup_of(cells), [region], config)
            assert mean_ndcg([units], shared, [region], config) == fresh


class TestMeanNdcgGroups:
    """One call scores many groups under one region; each group's
    result, misses included, is that of the group scored alone, and a
    bad group raises as it would alone but for its index."""

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(
        CELLS,
        st.lists(UNITS, min_size=1, max_size=4),
        st.sampled_from(("CA", "NY", "TX")),
        ANY_CONFIG,
        st.booleans(),
    )
    def test_one_call_equals_each_group_alone(
        self, cells, groups, region, config, require_complete
    ):
        alone = []
        for units in groups:
            alone += mean_ndcg(
                [units],
                lookup_of(cells),
                [region],
                config,
                require_complete=require_complete,
            )
        lookup = lookup_of(cells)
        results = mean_ndcg(
            groups, lookup, [region], config, require_complete=require_complete
        )
        # a count-0 mean is math.nan itself, which lists compare by identity
        assert results == alone

    @pytest.mark.parametrize("bad, error", [([], InputDataError)], ids=["empty"])
    def test_bad_group_in_the_middle_raises_as_alone(self, bad, error):
        cells = {("q1", "a", "CA"): 3, ("q2", "d", "CA"): 2}
        with pytest.raises(error) as alone:
            mean_ndcg([bad], lookup_of(cells), ["CA"])
        good = [("q1", ("a", "zz"))]
        with pytest.raises(error) as excinfo:
            mean_ndcg([good, bad, good], lookup_of(cells), ["CA"])
        # each names the bad group by its index in its own call
        assert str(alone.value).startswith("group 0 ")
        assert str(excinfo.value) == str(alone.value).replace("group 0 ", "group 1 ", 1)


# TX is in no cell: its judges rated nothing
REGION_LISTS = (
    st.lists(st.sampled_from(("CA", "NY")), unique=True, max_size=2)
    .map(lambda regions: regions + ["TX"])
    .flatmap(st.permutations)
)


class TestMeanNdcgRegions:
    """One call scores every region; each region's values, misses and
    rows are those of ndcg run per unit under that region alone, and a
    region left with no query reads count 0 and nan means."""

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(
        CELLS,
        st.lists(UNITS, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=8),
        REGION_LISTS,
        ANY_CONFIG,
        st.booleans(),
    )
    def test_each_region_equals_the_reference(
        self, cells, groups, empty_at, regions, config, require_complete
    ):
        lookup = lookup_of(cells)
        if empty_at < len(groups):
            groups.insert(empty_at, [])
            with pytest.raises(InputDataError) as excinfo:
                mean_ndcg(
                    groups, lookup, regions, config, require_complete=require_complete
                )
            assert str(excinfo.value) == (
                f"group {empty_at} has no rankings to evaluate"
            )
            return
        expected = []
        for region in regions:
            expected.append([])
            for units in groups:
                scores, misses = reference_scores(
                    units, cells, region, config, require_complete
                )
                rows = [
                    Mean(k, math.fsum(values) / len(values), len(values))
                    for k, values in zip(
                        config.cutoffs, zip(*(values for _, values in scores))
                    )
                ]
                expected[-1].append((rows, scores, misses))
        results = region_rows(groups, lookup, regions, config, require_complete)
        scores = column_scores(groups, lookup, regions, config, require_complete)
        assert len(results) == len(scores) == len(regions)
        for want, got, got_scores in zip(expected, results, scores):
            assert got_scores == [scores for _, scores, _ in want]
            for (rows, _, misses), (got_rows, got_misses) in zip(want, got):
                assert got_misses == misses
                if rows:
                    assert got_rows == rows
                else:  # require_complete left no query
                    assert len(got_rows) == len(config.cutoffs)
                    for k, row in zip(config.cutoffs, got_rows):
                        assert row.cutoff == k
                        assert row.n_queries == 0 and math.isnan(row.mean_ndcg)

    def test_exhausted_cells_read_count_0_and_nan(self):
        cells = {("q1", "a", "CA"): 3.0, ("q1", "b", "CA"): 1.0, ("q1", "a", "NY"): 2.0}
        groups = [
            [("q1", ("a",))],  # TX judged nothing
            [("q1", ("a", "b"))],  # and NY not b
        ]
        results = mean_ndcg(
            groups, lookup_of(cells), ["CA", "NY", "TX"], require_complete=True
        )
        assert [result[1:] for result in results] == [
            ([1, 1, 0], [0, 0, 0]),
            ([1, 0, 0], [0, 0, 0]),
        ]
        relevances = [[[3.0], [2.0], None], [[3.0, 1.0], None, None]]
        for (means, _, _), per_region in zip(results, relevances):
            for k, column in zip(DEFAULT_CUTOFFS, means):
                for mean, kept in zip(column, per_region):
                    if kept is None:
                        assert math.isnan(mean)
                    else:
                        assert mean == ndcg(kept, k)

    def test_a_bare_string_is_not_a_region_list(self):
        lookup = lookup_of({("q1", "a", "CA"): 3.0, ("q1", "a", "C"): 1.0})
        units = [("q1", ("a",))]
        with pytest.raises(ContractViolation, match="list of region codes"):
            mean_ndcg([units], lookup, "CA")
        with pytest.raises(ContractViolation, match="list of region codes"):
            next(ndcg_columns([units], lookup, "CA"))


def row(provenance, cutoff, value):
    return (provenance, cutoff, value, 4)


class TestCompare:
    def test_strictly_better_is_marked(self):
        marks = compare([row("engine", 5, 0.8801), row("ctvm(CA)", 5, 0.9156)])
        assert marks == [False, True]

    def test_tie_is_not_marked(self):
        marks = compare([row("engine", 5, 0.9), row("ctvm(CA)", 5, 0.9)])
        assert marks[1] is False

    def test_lower_is_not_marked(self):
        marks = compare([row("engine", 5, 0.9156), row("ctvm(CA)", 5, 0.8801)])
        assert marks[1] is False

    def test_marks_are_per_cutoff(self):
        rows = [
            row("engine", 3, 0.5),
            row("engine", 5, 0.9),
            row("ctvm(CA)", 3, 0.6),
            row("ctvm(CA)", 5, 0.7),
        ]
        marks = dict(zip([(p, k) for p, k, _, _ in rows], compare(rows)))
        assert marks[("ctvm(CA)", 3)] is True
        assert marks[("ctvm(CA)", 5)] is False

    def test_engine_rows_never_marked(self):
        assert compare([row("engine", 5, 0.9)]) == [False]

    def test_missing_engine_row_rejected(self):
        with pytest.raises(ContractViolation, match="no engine row"):
            compare([row("ctvm(CA)", 5, 0.9)])

    def test_duplicate_engine_row_rejected(self):
        with pytest.raises(ContractViolation, match="two engine rows"):
            compare([row("engine", 5, 0.9), row("engine", 5, 0.8)])

    def test_duplicate_ranking_row_rejected(self):
        rows = [row("engine", 5, 0.5), row("ctvm(CA)", 5, 0.9)]
        with pytest.raises(ContractViolation, match=r"two ctvm\(CA\) rows"):
            compare([*rows, row("ctvm(CA)", 5, 0.1)])


# few provenances, cutoffs and means, so that cells repeat, engine
# cutoffs go missing and means tie
COMPARE_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["engine", "ctvm(CA)", "ctvm(NY)"]),
        st.sampled_from([3, 5]),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]),
        st.integers(1, 4),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(COMPARE_ROWS)
def test_compare_agrees_with_oracle(rows):
    expected, error = naive_compare(rows)
    try:
        got = compare(iter(rows))
    except ContractViolation as exc:
        assert str(exc) == error
        return
    assert error is None
    assert got == expected
    assert all(type(marked) is bool for marked in got)  # True or False itself


class TestFormatTable:
    ROWS = [
        row("engine", 3, 0.5123),
        row("engine", 5, 0.8801),
        row("ctvm(CA)", 3, 0.61239),
        row("ctvm(CA)", 5, 0.9156),
        row("ctvm(NY)", 3, 0.5123),
        row("ctvm(NY)", 5, 0.41),
    ]
    MARKS = [False, False, True, True, False, False]

    def test_layout(self):
        text = format_table(self.ROWS, self.MARKS, heading="[region=CA engine=google]")
        lines = text.splitlines()
        assert lines[0] == "[region=CA engine=google]"
        assert lines[1].split() == ["ranking", "NDCG@3", "NDCG@5"]
        assert lines[2].split() == ["engine", "0.5123", "0.8801"]
        assert lines[3].split() == ["ctvm(CA)", "0.6124*", "0.9156*"]
        assert lines[4].split() == ["ctvm(NY)", "0.5123", "0.4100"]
        assert lines[5] == "* better than the engine ranking at that cutoff"

    def test_engine_always_listed_first(self):
        text = format_table(self.ROWS[::-1], self.MARKS[::-1])
        body = text.splitlines()[1:]
        assert body[0].startswith("engine")

    def test_missing_cell_renders_dash(self):
        rows = [row("engine", 3, 0.5), row("ctvm(CA)", 5, 0.6)]
        text = format_table(rows, [False, False])
        ca_line = [l for l in text.splitlines() if l.startswith("ctvm")][0]
        assert ca_line.split() == ["ctvm(CA)", "-", "0.6000"]

    @pytest.mark.parametrize("cut", [1, -1])
    def test_marks_of_the_wrong_length_rejected(self, cut):
        marks = self.MARKS + [True] if cut == 1 else self.MARKS[:-1]
        with pytest.raises(ValueError, match="zip"):
            format_table(self.ROWS, marks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])
