"""Tests for LCSS similarity and its distance form (Section 4.3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.counters import StepCounter
from repro.distances.lcss import LCSSMeasure, lcss_batch, lcss_similarity
from repro.kernels import available_backends
from repro.mining.queries import knn_search, range_search
from tests.conftest import naive_lcss_similarity

floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
triple_strategy = st.integers(2, 20).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=floats),
        arrays(np.float64, n, elements=floats),
        st.integers(0, n),
        st.floats(min_value=0.0, max_value=5.0),
    )
)


class TestLCSSSimilarity:
    @given(triple_strategy)
    @settings(max_examples=100, deadline=None)
    def test_matches_naive(self, quad):
        q, c, delta, epsilon = quad
        got = lcss_similarity(q, c, delta, epsilon)
        want = naive_lcss_similarity(q, c, min(delta, q.size - 1), epsilon)
        assert math.isclose(got, want, abs_tol=1e-12)

    def test_identical_series_similarity_one(self, random_walk):
        series = random_walk(25)
        assert lcss_similarity(series, series, 2, 0.1) == 1.0

    def test_totally_different_similarity_zero(self):
        q = np.zeros(10)
        c = np.full(10, 100.0)
        assert lcss_similarity(q, c, 3, 0.5) == 0.0

    def test_bounded_in_unit_interval(self, rng):
        for _ in range(20):
            q, c = rng.normal(size=15), rng.normal(size=15)
            sim = lcss_similarity(q, c, 2, 0.5)
            assert 0.0 <= sim <= 1.0

    def test_symmetry(self, rng):
        q, c = rng.normal(size=12), rng.normal(size=12)
        assert math.isclose(
            lcss_similarity(q, c, 3, 0.4), lcss_similarity(c, q, 3, 0.4), abs_tol=1e-12
        )

    def test_monotone_in_epsilon(self, rng):
        q, c = rng.normal(size=15), rng.normal(size=15)
        sims = [lcss_similarity(q, c, 2, eps) for eps in (0.1, 0.5, 1.0, 3.0)]
        assert sims == sorted(sims)

    def test_monotone_in_delta(self, rng):
        q, c = rng.normal(size=15), rng.normal(size=15)
        sims = [lcss_similarity(q, c, delta, 0.5) for delta in (0, 2, 5, 14)]
        assert sims == sorted(sims)

    def test_ignores_occluded_region(self):
        """LCSS should not punish a locally destroyed segment much."""
        base = np.sin(np.linspace(0, 2 * np.pi, 40))
        damaged = base.copy()
        damaged[10:15] = 50.0  # a broken tip
        sim = lcss_similarity(base, damaged, 2, 0.2)
        assert sim >= (40 - 5) / 40 - 1e-9

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            lcss_similarity([1.0], [1.0], 0, -0.1)
        with pytest.raises(ValueError):
            lcss_batch([1.0, 2.0], [[1.0, 2.0]], -1, 0.5)


class TestLCSSBatch:
    def test_batch_matches_individual(self, rng):
        q = rng.normal(size=14)
        rows = rng.normal(size=(6, 14))
        sims, _steps, abandoned = lcss_batch(q, rows, 2, 0.6)
        assert not abandoned.any()
        for row, got in zip(rows, sims):
            assert math.isclose(got, naive_lcss_similarity(q, row, 2, 0.6), abs_tol=1e-12)

    def test_min_similarity_abandons_hopeless(self, rng):
        q = rng.normal(size=20)
        near = q.copy()
        far = q + 100.0
        sims, _steps, abandoned = lcss_batch(
            q, np.vstack([near, far]), 2, 0.3, min_similarity=0.9
        )
        assert sims[0] == 1.0
        assert abandoned[1]
        assert math.isinf(sims[1])


class TestLCSSMeasure:
    def test_distance_is_one_minus_similarity(self, rng):
        measure = LCSSMeasure(delta=2, epsilon=0.5)
        q, c = rng.normal(size=16), rng.normal(size=16)
        dist = measure.distance(q, c)
        sim = lcss_similarity(q, c, 2, 0.5)
        assert math.isclose(dist, 1.0 - sim, abs_tol=1e-12)

    def test_distance_early_abandons(self, rng):
        measure = LCSSMeasure(delta=1, epsilon=0.1)
        counter = StepCounter()
        q = rng.normal(size=30)
        dist = measure.distance(q, q + 100.0, r=0.05, counter=counter)
        assert math.isinf(dist)
        assert counter.early_abandons == 1

    def test_envelope_expansion_adds_epsilon(self, rng):
        measure = LCSSMeasure(delta=0, epsilon=0.7)
        series = rng.normal(size=10)
        u, lo = measure.expand_envelope(series, series)
        assert np.allclose(u, series + 0.7)
        assert np.allclose(lo, series - 0.7)

    def test_lower_bound_is_admissible(self, rng):
        """1 - (in-envelope fraction) must lower-bound the LCSS distance."""
        measure = LCSSMeasure(delta=2, epsilon=0.4)
        for _ in range(30):
            n = int(rng.integers(4, 25))
            q, c = rng.normal(size=n), rng.normal(size=n)
            u, lo = measure.expand_envelope(q, q)
            lb = measure.lower_bound(c, u, lo)
            true = measure.distance(q, c)
            assert lb <= true + 1e-9

    def test_lower_bound_early_abandons(self, rng):
        measure = LCSSMeasure(delta=1, epsilon=0.1)
        counter = StepCounter()
        q = rng.normal(size=40)
        u, lo = measure.expand_envelope(q, q)
        lb = measure.lower_bound(q + 100.0, u, lo, r=0.1, counter=counter)
        assert math.isinf(lb)
        assert counter.early_abandons == 1
        assert counter.steps < 40

    def test_cache_key_includes_params(self):
        assert LCSSMeasure(1, 0.5).cache_key() != LCSSMeasure(2, 0.5).cache_key()
        assert LCSSMeasure(1, 0.5).cache_key() != LCSSMeasure(1, 0.6).cache_key()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LCSSMeasure(-1, 0.5)
        with pytest.raises(ValueError):
            LCSSMeasure(1, -0.5)


@pytest.mark.parametrize("backend", available_backends())
class TestLCSSAbandonment:
    """Early abandoning must never drop a candidate that beats the threshold.

    The abandon test bounds the matches still reachable from the last two
    anti-diagonals; each must be credited with its own remaining budget,
    or an odd diagonal is charged one match too few.
    """

    def test_threshold_just_above_distance_keeps_candidate(self, backend):
        rng = np.random.default_rng(12)
        measure = LCSSMeasure(delta=2, epsilon=0.5, backend=backend)
        for _ in range(150):
            n = int(rng.integers(6, 30))
            q, c = rng.normal(size=n), rng.normal(size=n)
            d = measure.distance(q, c)
            for r in (d + 1e-12, d + 0.5 / n, d + 1.0 / n):
                assert measure.distance(q, c, r) == d, (n, d, r)

    def test_zero_radius_range_finds_every_exact_match(self, backend):
        rng = np.random.default_rng(3)
        n = 32
        measure = LCSSMeasure(delta=2, epsilon=0.5, backend=backend)
        query = rng.normal(size=n)
        # Rotations of the query perturbed within epsilon sit at distance 0.
        planted = [np.roll(query, int(rng.integers(n))) + rng.uniform(-0.2, 0.2, n) for _ in range(6)]
        database = np.array(planted + [rng.normal(size=n) for _ in range(6)])
        neighbours = knn_search(database, query, measure, k=len(database))
        exact = sorted(nb.index for nb in neighbours if nb.distance == 0.0)
        assert exact == list(range(6))
        hits = range_search(database, query, measure, radius=0.0)
        assert [nb.index for nb in hits] == exact
