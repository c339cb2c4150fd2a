"""Admissibility fuzz tests for the tiered pruning engine.

The pruning cascade is only exact if every tier is admissible -- each
bound must never exceed the true distance to *any* sequence enclosed by
the wedge it was tested against.  These tests fuzz the full chain

    LB_Kim  <=  LB_Keogh  <=  LB_Improved  <=  exact distance

for Euclidean-into-wedge, DTW at several band radii, and LCSS, on leaf
wedges (where LB_Improved reduces to Lemire's pairwise two-pass bound)
and on fat internal wedges (the wedge generalisation), plus the
batch-vs-scalar agreement of the vectorised kernels and the
zero-false-dismissal guarantee of the batched H-Merge frontier path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cascade import CascadePolicy, lb_kim
from repro.core.counters import StepCounter
from repro.core.hmerge import h_merge
from repro.core.wedge import Wedge
from repro.distances.dtw import DTWMeasure
from repro.distances.euclidean import EuclideanMeasure
from repro.distances.lcss import LCSSMeasure
from repro.kernels import ENV_VAR, available_backends


@pytest.fixture(scope="module", params=available_backends(), autouse=True)
def kernel_backend(request):
    """Rerun the admissibility fuzz under every registered kernel backend.

    Module-scoped (hypothesis forbids function-scoped fixtures inside
    ``@given`` bodies) and env-var based, because measures resolve their
    backend lazily at call time; os.environ is restored manually.
    """
    import os

    prior = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = request.param
    yield request.param
    if prior is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = prior


floats = st.floats(min_value=-20, max_value=20, allow_nan=False)

#: (candidate, three wedge members) of one random length.
bundle_strategy = st.integers(8, 24).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=floats),
        arrays(np.float64, n, elements=floats),
        arrays(np.float64, n, elements=floats),
        arrays(np.float64, n, elements=floats),
    )
)

MEASURES = [
    EuclideanMeasure(),
    DTWMeasure(radius=0),
    DTWMeasure(radius=1),
    DTWMeasure(radius=2),
    DTWMeasure(radius=4),
    LCSSMeasure(delta=2, epsilon=0.5),
]
MEASURE_IDS = ["ed", "dtw-r0", "dtw-r1", "dtw-r2", "dtw-r4", "lcss"]


def _wedge_of(rows) -> Wedge:
    wedge = Wedge.from_series(rows[0], 0)
    for i, row in enumerate(rows[1:], start=1):
        wedge = Wedge.merge(wedge, Wedge.from_series(row, i))
    return wedge


def _chain_asserts(measure, candidate, wedge, members):
    """Assert LB_Kim <= LB_Keogh <= LB_Improved <= min exact distance."""
    upper, lower = wedge.envelope_for(measure)
    keogh = measure.lower_bound(candidate, upper, lower)
    improved = measure.improved_lower_bound(
        candidate, upper, lower, wedge.upper, wedge.lower, keogh=keogh
    )
    exact = min(measure.distance(candidate, row) for row in members)
    assert keogh <= improved + 1e-9
    assert improved <= exact + 1e-9
    if measure.kim_compatible:
        kim = lb_kim(candidate, upper, lower)
        assert kim <= keogh + 1e-9


class TestAdmissibilityChain:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    @given(bundle_strategy)
    @settings(max_examples=60, deadline=None)
    def test_on_internal_wedges(self, measure, bundle):
        candidate, *members = bundle
        wedge = _wedge_of(members)
        _chain_asserts(measure, candidate, wedge, members)

    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    @given(bundle_strategy)
    @settings(max_examples=60, deadline=None)
    def test_on_leaf_wedges(self, measure, bundle):
        candidate, series, _, _ = bundle
        leaf = Wedge.from_series(series, 0)
        _chain_asserts(measure, candidate, leaf, [series])

    def test_lcss_declares_kim_incompatible(self):
        """The value-space Kim bound proves nothing in match-count space:
        a single huge value violation is one lost match (distance 1/n),
        while lb_kim would report the violation's magnitude."""
        assert not LCSSMeasure(delta=1, epsilon=0.1).kim_compatible
        candidate = np.zeros(10)
        candidate[3] = 100.0  # interior spike: defeats first/last checks...
        series = np.zeros(10)
        measure = LCSSMeasure(delta=1, epsilon=0.1)
        upper, lower = measure.expand_envelope(series, series)
        # ...but not the global-extremes check: lb_kim sees the spike.
        assert lb_kim(candidate, upper, lower) > measure.distance(candidate, series)

    def test_euclidean_has_no_second_pass(self):
        """Identity expansion -> the projection envelope equals the wedge
        arms -> second-pass violations are provably zero, so Euclidean
        opts out of LB_Improved entirely."""
        assert not EuclideanMeasure().has_improved_bound

    def test_improved_strictly_tightens_somewhere(self, rng):
        """LB_Improved must actually add pruning power on DTW leaves."""
        measure = DTWMeasure(radius=3)
        tightened = 0
        for _ in range(50):
            series = np.cumsum(rng.normal(size=32))
            candidate = np.cumsum(rng.normal(size=32))
            leaf = Wedge.from_series(series, 0)
            upper, lower = leaf.envelope_for(measure)
            keogh = measure.lower_bound(candidate, upper, lower)
            improved = measure.improved_lower_bound(
                candidate, upper, lower, series, series, keogh=keogh
            )
            if improved > keogh + 1e-9:
                tightened += 1
        assert tightened > 25


class TestBatchScalarAgreement:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    def test_batch_wedge_bounds_match_scalar(self, measure, rng):
        n, k = 20, 6
        candidate = np.cumsum(rng.normal(size=n))
        rows = np.cumsum(rng.normal(size=(k, n)), axis=1)
        envelopes = [measure.expand_envelope(row, row) for row in rows]
        uppers = np.stack([e[0] for e in envelopes])
        lowers = np.stack([e[1] for e in envelopes])
        threshold = 1e9  # finite (enables the second pass) but never abandons
        batch = measure.batch_wedge_bounds(
            candidate, uppers, lowers, rows, rows, r=threshold
        )
        for j in range(k):
            keogh = measure.lower_bound(candidate, uppers[j], lowers[j], threshold)
            scalar = measure.improved_lower_bound(
                candidate, uppers[j], lowers[j], rows[j], rows[j], threshold, keogh=keogh
            )
            if not measure.has_improved_bound:
                scalar = keogh
            assert math.isclose(batch[j], scalar, rel_tol=1e-9, abs_tol=1e-12)

    def test_batch_abandons_where_scalar_abandons(self, rng):
        measure = DTWMeasure(radius=2)
        n = 24
        candidate = np.cumsum(rng.normal(size=n))
        rows = np.cumsum(rng.normal(size=(8, n)), axis=1) + rng.choice(
            [0.0, 25.0], size=(8, 1)
        )
        envelopes = [measure.expand_envelope(row, row) for row in rows]
        uppers = np.stack([e[0] for e in envelopes])
        lowers = np.stack([e[1] for e in envelopes])
        r = 5.0
        batch = measure.batch_wedge_bounds(candidate, uppers, lowers, rows, rows, r=r)
        for j in range(8):
            scalar = measure.lower_bound(candidate, uppers[j], lowers[j], r)
            assert math.isinf(batch[j]) == math.isinf(scalar)


class TestFrontierZeroFalseDismissal:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    def test_hmerge_frontier_matches_bruteforce(self, measure, rng):
        n, m = 16, 12
        rows = np.cumsum(rng.normal(size=(m, n)), axis=1)
        leaves = [Wedge.from_series(row, i) for i, row in enumerate(rows)]
        # A frontier mixing single leaves with merged pairs exercises both
        # runs of sibling leaves and the internal-wedge descent.
        frontier = [
            Wedge.merge(leaves[0], leaves[1]),
            leaves[2],
            Wedge.merge(Wedge.merge(leaves[3], leaves[4]), leaves[5]),
        ] + leaves[6:]
        candidate = np.cumsum(rng.normal(size=n))
        pruner = CascadePolicy(measure, use_kim=False, use_improved=True)
        dist, idx = h_merge(
            candidate,
            frontier,
            measure,
            counter=StepCounter(),
            pruner=pruner,
        )
        naive = [measure.distance(candidate, row) for row in rows]
        assert math.isclose(dist, min(naive), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(naive[idx], min(naive), rel_tol=1e-9, abs_tol=1e-9)

    @pytest.mark.parametrize("use_kim", [False, True], ids=["no-kim", "kim"])
    def test_thresholded_search_never_false_dismisses(self, use_kim, rng):
        measure = DTWMeasure(radius=2)
        n, m = 16, 10
        rows = np.cumsum(rng.normal(size=(m, n)), axis=1)
        leaves = [Wedge.from_series(row, i) for i, row in enumerate(rows)]
        frontier = [Wedge.merge(leaves[2 * i], leaves[2 * i + 1]) for i in range(m // 2)]
        for _ in range(20):
            candidate = np.cumsum(rng.normal(size=n))
            naive = min(measure.distance(candidate, row) for row in rows)
            r = naive * float(rng.uniform(0.8, 1.5))
            pruner = CascadePolicy(measure, use_kim=use_kim, use_improved=True)
            dist, _idx = h_merge(candidate, frontier, measure, r=r, pruner=pruner)
            if naive < r - 1e-9:
                assert math.isclose(dist, naive, rel_tol=1e-9, abs_tol=1e-9)
            else:
                assert math.isinf(dist)


class TestEnvelopeCacheStats:
    def test_hits_and_misses_are_counted(self, rng):
        measure = DTWMeasure(radius=2)
        series = np.cumsum(rng.normal(size=20))
        wedge = Wedge.from_series(series, 0)
        counter = StepCounter()
        wedge.envelope_for(measure, counter=counter)
        assert (counter.envelope_cache_misses, counter.envelope_cache_hits) == (1, 0)
        wedge.envelope_for(measure, counter=counter)
        assert (counter.envelope_cache_misses, counter.envelope_cache_hits) == (1, 1)
        # A measure with a different cache key expands (and caches) anew.
        wedge.envelope_for(DTWMeasure(radius=4), counter=counter)
        assert (counter.envelope_cache_misses, counter.envelope_cache_hits) == (2, 1)
        # Same parameters, different instance: shared entry.
        wedge.envelope_for(DTWMeasure(radius=2), counter=counter)
        assert (counter.envelope_cache_misses, counter.envelope_cache_hits) == (2, 2)
