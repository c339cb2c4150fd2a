"""Tests for the LB_Kim / LB_Keogh / distance cascade."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cascade import CascadePolicy, lb_kim
from repro.core.counters import StepCounter
from repro.core.wedge import Wedge
from repro.distances.dtw import DTWMeasure, dtw_distance
from repro.distances.euclidean import EuclideanMeasure, euclidean_distance

floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
pair_strategy = st.integers(2, 20).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=floats), arrays(np.float64, n, elements=floats)
    )
)


class TestLBKim:
    @given(pair_strategy, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_admissible_for_dtw(self, pair, radius):
        candidate, series = pair
        measure = DTWMeasure(radius=radius)
        upper, lower = measure.expand_envelope(series, series)
        bound = lb_kim(candidate, upper, lower)
        assert bound <= dtw_distance(candidate, series, radius) + 1e-9

    @given(pair_strategy)
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_lb_keogh(self, pair):
        candidate, series = pair
        measure = EuclideanMeasure()
        keogh = measure.lower_bound(candidate, series, series)
        assert lb_kim(candidate, series, series) <= keogh + 1e-9

    def test_admissible_for_wedges(self, rng):
        measure = DTWMeasure(radius=2)
        rows = rng.normal(size=(3, 15))
        wedge = Wedge.merge(
            Wedge.merge(Wedge.from_series(rows[0], 0), Wedge.from_series(rows[1], 1)),
            Wedge.from_series(rows[2], 2),
        )
        upper, lower = wedge.envelope_for(measure)
        candidate = rng.normal(size=15) + 3
        bound = lb_kim(candidate, upper, lower)
        for row in rows:
            assert bound <= dtw_distance(candidate, row, 2) + 1e-9

    def test_zero_inside_envelope(self, rng):
        upper = np.full(10, 2.0)
        lower = np.full(10, -2.0)
        assert lb_kim(rng.uniform(-1, 1, 10), upper, lower) == 0.0

    def test_detects_gross_mismatch_in_constant_time_worth(self):
        candidate = np.full(100, 50.0)
        series = np.zeros(100)
        assert lb_kim(candidate, series, series) == 50.0


class TestCascadePolicy:
    def test_exact_when_surviving(self, rng):
        measure = DTWMeasure(radius=2)
        policy = CascadePolicy(measure)
        series = rng.normal(size=20)
        candidate = series + rng.normal(0, 0.1, 20)
        leaf = Wedge.from_series(series, 0)
        dist = policy.leaf_distance(candidate, leaf, math.inf)
        assert math.isclose(dist, dtw_distance(candidate, series, 2), rel_tol=1e-9)
        assert policy.full_computations == 1

    def test_kim_tier_rejects_cheaply(self, rng):
        measure = DTWMeasure(radius=2)
        policy = CascadePolicy(measure)
        counter = StepCounter()
        series = rng.normal(size=50)
        leaf = Wedge.from_series(series, 0)
        candidate = series + 100.0
        dist = policy.leaf_distance(candidate, leaf, threshold=1.0, counter=counter)
        assert math.isinf(dist)
        assert policy.kim_rejections == 1
        assert policy.keogh_rejections == 0
        assert policy.full_computations == 0
        # First test pays the two O(n) landmark scans (candidate extremes +
        # envelope extremes) once; the Kim test itself is 4 comparisons.
        assert counter.steps <= 2 * series.size + 4
        counter.reset()
        dist = policy.leaf_distance(candidate, leaf, threshold=1.0, counter=counter)
        assert math.isinf(dist)
        assert counter.steps <= 4

    def test_keogh_tier_catches_what_kim_misses(self, rng):
        """A candidate inside the global range but accumulating many small
        violations: LB_Kim ~ small, LB_Keogh large."""
        measure = DTWMeasure(radius=0)
        policy = CascadePolicy(measure)
        series = np.zeros(64)
        candidate = np.full(64, 0.5)
        candidate[0] = candidate[-1] = 0.0  # defeat the first/last checks
        leaf = Wedge.from_series(series, 0)
        dist = policy.leaf_distance(candidate, leaf, threshold=2.0)
        assert math.isinf(dist)
        assert policy.kim_rejections == 0
        assert policy.keogh_rejections == 1

    def test_never_false_rejects(self, rng):
        measure = DTWMeasure(radius=2)
        for use_kim in (True, False):
            policy = CascadePolicy(measure, use_kim=use_kim)
            for _ in range(30):
                series = rng.normal(size=15)
                candidate = rng.normal(size=15)
                leaf = Wedge.from_series(series, 0)
                true = dtw_distance(candidate, series, 2)
                threshold = true * float(rng.uniform(0.5, 1.5))
                got = policy.leaf_distance(candidate, leaf, threshold)
                if math.isinf(got):
                    assert true >= threshold - 1e-9
                else:
                    assert math.isclose(got, true, rel_tol=1e-9)

    def test_euclidean_short_circuits_at_keogh(self, rng):
        policy = CascadePolicy(EuclideanMeasure())
        series = rng.normal(size=12)
        candidate = rng.normal(size=12)
        leaf = Wedge.from_series(series, 0)
        dist = policy.leaf_distance(candidate, leaf, math.inf)
        assert math.isclose(dist, euclidean_distance(candidate, series), rel_tol=1e-9)
        assert policy.full_computations == 0

    def test_stats_dict(self):
        policy = CascadePolicy(EuclideanMeasure())
        assert policy.stats() == {
            "leaf_candidates": 0,
            "kim_rejections": 0,
            "keogh_reached": 0,
            "keogh_rejections": 0,
            "improved_reached": 0,
            "improved_rejections": 0,
            "full_computations": 0,
        }

    def test_stats_keys_match_empty_sentinel(self):
        from repro.core.cascade import empty_tier_stats

        policy = CascadePolicy(EuclideanMeasure())
        assert policy.stats() == empty_tier_stats()

    def test_funnel_is_monotone_after_queries(self):
        rng = np.random.default_rng(5)
        measure = DTWMeasure(radius=3)
        policy = CascadePolicy(measure)
        wedges = [Wedge.from_series(rng.standard_normal(24), i) for i in range(12)]
        for candidate in rng.standard_normal((8, 24)):
            threshold = 4.0
            for leaf in wedges:
                d = policy.leaf_distance(candidate, leaf, threshold)
                if d < threshold:
                    threshold = d
        stats = policy.stats()
        assert stats["leaf_candidates"] >= stats["keogh_reached"]
        assert stats["keogh_reached"] >= stats["improved_reached"]
        assert stats["improved_reached"] >= stats["full_computations"]
        assert stats["full_computations"] > 0


class TestCascadeReset:
    """Regression: counters used to accumulate for the policy's lifetime.

    A worker reusing one ``CascadePolicy`` across queries would report a
    funnel that mixed every query it ever served; ``reset()`` lets callers
    snapshot a per-query funnel.
    """

    def test_two_sequential_queries_report_independent_funnels(self, rng):
        measure = DTWMeasure(radius=2)
        policy = CascadePolicy(measure)
        wedges = [Wedge.from_series(rng.normal(size=20), i) for i in range(6)]

        def run_query(candidate):
            threshold = math.inf
            for leaf in wedges:
                d = policy.leaf_distance(candidate, leaf, threshold)
                threshold = min(threshold, d)
            return policy.stats()

        first = run_query(rng.normal(size=20))
        policy.reset()
        second = run_query(rng.normal(size=20))
        # Each query saw exactly 6 leaf candidates; without the reset the
        # second snapshot would have reported 12.
        assert first["leaf_candidates"] == 6
        assert second["leaf_candidates"] == 6
        for stats in (first, second):
            assert stats["leaf_candidates"] >= stats["keogh_reached"]
            assert stats["keogh_reached"] >= stats["full_computations"]

    def test_reset_zeroes_every_counter(self, rng):
        from repro.core.cascade import empty_tier_stats

        policy = CascadePolicy(DTWMeasure(radius=1))
        leaf = Wedge.from_series(rng.normal(size=16), 0)
        policy.leaf_distance(rng.normal(size=16), leaf, math.inf)
        assert policy.stats() != empty_tier_stats()
        policy.reset()
        assert policy.stats() == empty_tier_stats()

    def test_reset_clears_memoised_query_state(self, rng):
        """After reset the next query re-pays the landmark scans (no stale
        extremes leak from the previous candidate)."""
        policy = CascadePolicy(DTWMeasure(radius=2))
        counter = StepCounter()
        series = rng.normal(size=50)
        leaf = Wedge.from_series(series, 0)
        candidate = series + 100.0
        policy.leaf_distance(candidate, leaf, threshold=1.0, counter=counter)
        policy.reset()
        counter.reset()
        policy.leaf_distance(candidate, leaf, threshold=1.0, counter=counter)
        # Full first-call cost again, not the <=4-step memoised retest.
        assert counter.steps > 4


class TestTierPlans:
    """Explicit tier tuples: validation, batch compatibility, funnel shape."""

    def test_default_tiers_match_legacy_flags(self):
        from repro.core.cascade import canonical_tiers

        dtw = DTWMeasure(radius=2)
        assert CascadePolicy(dtw).tiers == canonical_tiers(dtw)
        assert CascadePolicy(dtw, use_kim=False).tiers == ("keogh", "improved")
        assert CascadePolicy(EuclideanMeasure()).tiers == ("kim", "keogh")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            CascadePolicy(DTWMeasure(radius=1), tiers=("keogh", "bogus"))

    def test_duplicate_tier_rejected(self):
        with pytest.raises(ValueError):
            CascadePolicy(DTWMeasure(radius=1), tiers=("keogh", "keogh"))

    def test_improved_without_keogh_rejected(self):
        with pytest.raises(ValueError):
            CascadePolicy(DTWMeasure(radius=1), tiers=("improved",))

    def test_unsupported_tiers_silently_dropped(self):
        # Euclidean has no LB_Improved pass; asking for it degrades cleanly.
        policy = CascadePolicy(EuclideanMeasure(), tiers=("kim", "keogh", "improved"))
        assert policy.tiers == ("kim", "keogh")

    def test_noncanonical_order_keeps_funnel_monotone(self):
        rng = np.random.default_rng(11)
        measure = DTWMeasure(radius=2)
        policy = CascadePolicy(measure, tiers=("keogh", "kim", "improved"))
        wedges = [Wedge.from_series(rng.standard_normal(24), i) for i in range(10)]
        for candidate in rng.standard_normal((6, 24)):
            threshold = 4.0
            for leaf in wedges:
                d = policy.leaf_distance(candidate, leaf, threshold)
                if d < threshold:
                    threshold = d
        stats = policy.stats()
        assert stats["leaf_candidates"] >= stats["keogh_reached"]
        assert stats["keogh_reached"] >= stats["improved_reached"]
        assert stats["improved_reached"] >= stats["full_computations"]

    def test_empty_tier_plan_always_computes_full(self, rng):
        measure = DTWMeasure(radius=2)
        policy = CascadePolicy(measure, tiers=())
        series = rng.normal(size=20)
        leaf = Wedge.from_series(series, 0)
        candidate = series + rng.normal(0, 0.1, 20)
        dist = policy.leaf_distance(candidate, leaf, math.inf)
        # No lower bound ran; the exact distance came straight back.
        assert math.isclose(dist, dtw_distance(candidate, series, 2), rel_tol=1e-9)
        assert policy.full_computations == 1
        assert policy.kim_rejections == policy.keogh_rejections == 0
        # Pass-through credit keeps the funnel monotone even with no tiers.
        assert policy.keogh_reached == policy.improved_reached == 1
