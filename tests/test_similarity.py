from __future__ import annotations

import enum
import math

import pytest
from hypothesis import given, strategies as st

from ctvm.similarity import MODE_COMMON_SET, MODE_FULL_COSINE, SIM_MODES, cosine

from oracles import naive_similarity

TOL = 1e-12


class TestCommonSet:
    def test_partial_overlap(self):
        a = {"tax": 1, "cut": 1, "rais": 1}
        b = {"tax": 3, "cut": 1}
        # shared {tax, cut}: dot = 4, norms = sqrt(2) * sqrt(10)
        assert cosine(a, b) == pytest.approx(4 / math.sqrt(20), abs=TOL)

    def test_three_over_root_ten(self):
        a = {"economi": 1, "recoveri": 1}
        b = {"economi": 2, "recoveri": 1}
        # dot = 3, norms = sqrt(2) * sqrt(5)
        assert cosine(a, b) == pytest.approx(3 / math.sqrt(10), abs=TOL)
        assert cosine(a, b) == pytest.approx(0.9486832980505138, abs=TOL)

    def test_single_shared_term_scores_one(self):
        # the defining quirk of the mode: overlap of one term maxes out
        a = {"obama": 1, "vacat": 2, "hawaii": 1}
        b = {"obama": 5, "congress": 1}
        assert cosine(a, b) == 1.0

    def test_disjoint_is_zero(self):
        assert cosine({"a1": 1}, {"b2": 1}) == 0.0

    def test_empty_vector_is_zero(self):
        assert cosine({}, {"b2": 1}) == 0.0
        assert cosine({}, {}) == 0.0

    def test_identical_is_one(self):
        v = {"tax": 2, "plan": 1, "vote": 7}
        assert cosine(v, v) == 1.0

    def test_never_exceeds_one(self):
        # proportional vectors hit the clamp path exactly
        a = {"x1": 1, "y1": 2}
        b = {"x1": 2, "y1": 4}
        assert cosine(a, b) == 1.0


class TestFullCosine:
    def test_norms_cover_all_terms(self):
        a = {"tax": 1, "cut": 1, "rais": 1, "spend": 1}
        b = {"tax": 1, "cut": 1, "win": 2}
        # dot = 2, |a| = 2, |b| = sqrt(6)
        expected = 2 / (2 * math.sqrt(6))
        assert cosine(a, b, MODE_FULL_COSINE) == pytest.approx(
            expected, abs=TOL
        )
        assert expected == pytest.approx(0.4082482904638631, abs=TOL)

    def test_identical_is_one(self):
        v = {"tax": 2, "plan": 1}
        assert cosine(v, v, MODE_FULL_COSINE) == 1.0

    def test_single_shared_term_stays_below_one(self):
        a = {"obama": 1, "vacat": 2}
        b = {"obama": 1, "congress": 3}
        assert cosine(a, b, MODE_FULL_COSINE) < 1.0


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            cosine({"a": 1}, {"a": 1}, "jaccard")

    def test_zero_count(self):
        with pytest.raises(ValueError):
            cosine({"a": 0}, {"a": 1})

    def test_negative_count(self):
        with pytest.raises(ValueError):
            cosine({"a": 1}, {"a": -2})

    def test_bool_count(self):
        with pytest.raises(ValueError):
            cosine({"a": True}, {"a": 1})

    def test_float_count(self):
        with pytest.raises(ValueError):
            cosine({"a": 1.0}, {"a": 1})

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_bad_count_on_unshared_term(self, mode):
        # a bad count on a term the other vector lacks is still caught
        with pytest.raises(ValueError, match=r"b\['z'\]"):
            cosine({"a": 1}, {"z": 0}, mode)
        with pytest.raises(ValueError, match=r"a\['z'\]"):
            cosine({"a": 1, "z": -1}, {"a": 1}, mode)

    def test_int_subclass_count(self):
        # the same exact-type rule the record parser applies
        class Count(enum.IntEnum):
            ONE = 1

        with pytest.raises(ValueError, match="positive int"):
            cosine({"a": Count.ONE}, {"a": 1})


VECTORS = st.dictionaries(
    keys=st.sampled_from([f"t{i:02d}" for i in range(12)]),
    values=st.integers(min_value=1, max_value=9),
    max_size=8,
)


class TestProperties:
    @given(VECTORS, VECTORS, st.sampled_from(SIM_MODES))
    def test_matches_oracle(self, a, b, mode):
        assert cosine(a, b, mode) == pytest.approx(
            naive_similarity(a, b, mode), abs=TOL
        )

    @given(VECTORS, VECTORS, st.sampled_from(SIM_MODES))
    def test_symmetric(self, a, b, mode):
        assert cosine(a, b, mode) == cosine(b, a, mode)

    @given(VECTORS, VECTORS, st.sampled_from(SIM_MODES))
    def test_bounded(self, a, b, mode):
        value = cosine(a, b, mode)
        assert 0.0 <= value <= 1.0

    @given(VECTORS, VECTORS, st.integers(min_value=1, max_value=5))
    def test_scaling_one_side_is_a_noop(self, a, b, k):
        scaled = {t: k * c for t, c in b.items()}
        for mode in SIM_MODES:
            assert cosine(a, scaled, mode) == pytest.approx(
                cosine(a, b, mode), abs=TOL
            )

    @given(VECTORS, VECTORS)
    def test_common_set_dominates_full(self, a, b):
        # shrinking the norms to the shared terms can only raise the ratio
        assert cosine(a, b, MODE_COMMON_SET) >= cosine(a, b, MODE_FULL_COSINE)

    @given(VECTORS, VECTORS, st.randoms())
    def test_insertion_order_is_irrelevant(self, a, b, rng):
        items = list(a.items())
        rng.shuffle(items)
        shuffled = dict(items)
        for mode in SIM_MODES:
            assert cosine(shuffled, b, mode) == cosine(a, b, mode)
