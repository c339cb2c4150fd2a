"""The flat rotation-block engine behind ``knn_search`` / ``range_search``.

Every answer is checked against brute force -- each object's distance at
every query rotation through ``measure.distance`` -- on every registered
kernel backend.  The engine's three exactness rules each get a test:

(a) ties at the k-th distance are decided by object index, although pairs
    arrive in bound order;
(b) LCSS bounds and distances are compared as integer mismatch counts, so
    a bound that rounds one ulp above its tight distance still keeps the
    tie;
(c) an object reports the first rotation, in (bound, rotation index)
    order, among those at its best distance, whatever the block size.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.core.block as block
from repro.core.cascade import CascadePolicy
from repro.core.planner import enumerate_plans
from repro.core.search import RotationQuery, merge_neighbors, merge_range_hits
from repro.distances.base import Measure
from repro.distances.dtw import DTWMeasure
from repro.distances.euclidean import EuclideanMeasure
from repro.distances.lcss import LCSSMeasure
from repro.kernels import available_backends, get_backend
from repro.mining.queries import Neighbor, knn_search, range_search
from repro.obs.trace import Tracer
from repro.service.shard import shard_slices

BACKENDS = available_backends()


def _measures(backend):
    return [
        EuclideanMeasure(),
        DTWMeasure(radius=3, backend=backend),
        LCSSMeasure(delta=2, epsilon=0.5, backend=backend),
    ]


def _distances(database, query, measure, mirror=False, max_degrees=None) -> np.ndarray:
    """``(m, R)``: every object's distance at every query rotation."""
    rotations = RotationQuery(query, mirror=mirror, max_degrees=max_degrees).rotations
    return np.array([[measure.distance(obj, rot) for rot in rotations] for obj in database])


def _expected_knn(table, k):
    best = table.min(axis=1)
    order = sorted(range(len(best)), key=lambda i: (best[i], i))[:k]
    return [(i, best[i]) for i in order]


def _check_rotations(answer, table):
    for nb in answer:
        assert table[nb.index, nb.rotation] == nb.distance


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(13)
    data = np.cumsum(rng.normal(size=(14, 16)), axis=1)
    query = np.roll(data[4], 5) + 0.2 * rng.normal(size=16)
    return data, query


@pytest.mark.parametrize("backend", BACKENDS)
class TestAgainstBruteForce:
    @pytest.mark.parametrize("mirror, max_degrees", [(False, None), (True, None), (False, 90.0)])
    def test_knn(self, backend, walks, mirror, max_degrees):
        data, query = walks
        for measure in _measures(backend):
            table = _distances(data, query, measure, mirror, max_degrees)
            for k in (1, 5, len(data)):
                for pruner in (None, CascadePolicy(measure)):
                    got = knn_search(
                        data, query, measure, k=k, mirror=mirror, max_degrees=max_degrees, pruner=pruner
                    )
                    assert [(nb.index, nb.distance) for nb in got] == _expected_knn(table, k)
                    _check_rotations(got, table)

    def test_range_at_zero_and_at_the_kth_distance(self, backend, walks):
        data, query = walks
        planted = np.vstack([data, np.roll(query, 3)])
        for measure in _measures(backend):
            table = _distances(planted, query, measure)
            best = table.min(axis=1)
            for radius in (0.0, sorted(best)[4]):
                for pruner in (None, CascadePolicy(measure)):
                    got = range_search(planted, query, measure, radius, pruner=pruner)
                    want = [(i, best[i]) for i in range(len(best)) if best[i] <= radius]
                    assert [(nb.index, nb.distance) for nb in got] == want
                    _check_rotations(got, table)
            assert len(range_search(planted, query, measure, 0.0)) >= 1


def test_lcss_bound_rounding_premise():
    """Rule (b)'s premise: at n=24 a tight bound ``c/n`` and its distance
    ``1 - (n - c)/n`` differ for 12 of the 25 counts, and for 6 of them
    the bound computes *above* the distance."""
    n = 24
    differ = [c for c in range(n + 1) if c / n != 1.0 - (n - c) / n]
    above = [c for c in differ if c / n > 1.0 - (n - c) / n]
    assert (len(differ), len(above)) == (12, 6)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("refine_block", [1, 128])
def test_lcss_tight_bound_keeps_its_tie(monkeypatch, backend, refine_block):
    """Rule (b), directly: object 1 ties object 0 at one mismatch but has a
    looser bound (0), so it is refined first and sets the k-th distance;
    object 0's tight bound 1/24 then computes one ulp *above* that
    distance and must still win the tie on its lower index."""
    monkeypatch.setattr(block, "REFINE_BLOCK", refine_block)
    n = 24
    query = np.random.default_rng(2).normal(size=n)
    tight = query.copy()
    tight[5] = 100.0  # outside every envelope: one certain mismatch
    loose = query.copy()
    loose[5] = query[6]  # inside the envelope, yet costs one match
    measure = LCSSMeasure(delta=1, epsilon=0.01, backend=backend)
    table = _distances([tight, loose], query, measure)
    assert table[0, 0] == table[1, 0] == 1.0 - (n - 1) / n < 1 / n
    for pruner in (None, CascadePolicy(measure)):
        got = knn_search(np.array([tight, loose]), query, measure, k=1, pruner=pruner)
        assert [(nb.index, nb.distance, nb.rotation) for nb in got] == [(0, table[0, 0], 0)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_lcss_quantised_ties(backend):
    """Rules (a) and (b): n=24, values on a coarse grid, many exact ties."""
    rng = np.random.default_rng(3)
    n = 24
    data = rng.integers(0, 3, size=(30, n)).astype(np.float64)
    data[11] = data[2]
    data[25] = data[2]
    query = np.roll(data[2], 7)
    data[2] = rng.integers(0, 3, size=n)
    measure = LCSSMeasure(delta=1, epsilon=0.5, backend=backend)
    table = _distances(data, query, measure)
    best = table.min(axis=1)
    assert len(set(best.tolist())) < len(best) // 2  # tie-heavy by construction
    for k in range(1, len(data) + 1):
        for pruner in (None, CascadePolicy(measure)):
            got = knn_search(data, query, measure, k=k, pruner=pruner)
            assert [(nb.index, nb.distance) for nb in got] == _expected_knn(table, k)
            _check_rotations(got, table)
            radius = got[-1].distance
            hits = range_search(data, query, measure, radius, pruner=pruner)
            assert [(nb.index, nb.distance) for nb in hits] == [
                (i, best[i]) for i in range(len(best)) if best[i] <= radius
            ]


@pytest.mark.parametrize("refine_block", [1, 3, 128, 10_000])
def test_rotation_ties_report_first_in_bound_order(monkeypatch, refine_block):
    """Rule (c), at any refinement block size."""
    monkeypatch.setattr(block, "REFINE_BLOCK", refine_block)
    rng = np.random.default_rng(8)
    period = rng.normal(size=4)
    query = np.tile(period, 4)  # rotations 0, 4, 8, 12 coincide (and 1, 5, 9, 13 ...)
    data = np.vstack([np.roll(query, 2) + 0.3 * rng.normal(size=16) for _ in range(6)])
    data[3] = np.roll(query, 1)
    for measure in (EuclideanMeasure(), DTWMeasure(radius=2), LCSSMeasure(delta=1, epsilon=0.3)):
        rotations = RotationQuery(query).rotations
        table = _distances(data, query, measure)
        got = knn_search(data, query, measure, k=len(data))
        for nb in got:
            bounds = [
                measure.lower_bound(data[nb.index], *measure.expand_envelope(rot, rot))
                for rot in rotations
            ]
            at_best = [j for j in range(len(rotations)) if table[nb.index, j] == nb.distance]
            assert nb.rotation == min(at_best, key=lambda j: (bounds[j], j))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_shards", [2, 3])
def test_duplicates_across_shard_boundaries(backend, n_shards):
    rng = np.random.default_rng(21)
    data = np.cumsum(rng.normal(size=(18, 12)), axis=1)
    data[10] = data[1]
    data[16] = data[1]
    data[13] = data[7]
    query = np.roll(data[1], 4) + 0.05
    slices = shard_slices(len(data), n_shards)
    for measure in _measures(backend):
        single = knn_search(data, query, measure, k=6)
        radius = single[-1].distance
        knn_parts, range_parts = [], []
        for lo, hi in slices:
            local = knn_search(data[lo:hi], query, measure, k=min(6, hi - lo))
            knn_parts.append([Neighbor(nb.index + lo, nb.distance, nb.rotation) for nb in local])
            hits = range_search(data[lo:hi], query, measure, radius)
            range_parts.append([Neighbor(nb.index + lo, nb.distance, nb.rotation) for nb in hits])
        assert merge_neighbors(knn_parts, 6) == single
        assert merge_range_hits(range_parts) == range_search(data, query, measure, radius)


@pytest.mark.parametrize("backend", [name for name in BACKENDS if name != "scalar"])
class TestPairwiseKernelParity:
    """Distances, abandon flags and steps, bit for bit against the scalar
    reference, with a different query row and threshold per pair."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(4)
        qs = np.cumsum(rng.normal(size=(9, 20)), axis=1)
        rows = np.cumsum(rng.normal(size=(9, 20)), axis=1)
        return qs, rows

    @pytest.mark.parametrize("radius", [0, 2, 19])
    def test_dtw_pairwise(self, backend, radius):
        qs, rows = self._pairs()
        full = get_backend("scalar").dtw_pairwise(qs, rows, radius, np.full(9, math.inf))[0]
        thresholds = np.where(np.arange(9) % 3 == 0, math.inf, full * np.linspace(0.8, 1.2, 9))
        ref = get_backend("scalar").dtw_pairwise(qs, rows, radius, thresholds)
        got = get_backend(backend).dtw_pairwise(qs, rows, radius, thresholds)
        assert list(got[0]) == list(ref[0])
        assert got[1] == ref[1]
        assert list(got[2]) == list(ref[2])
        assert ref[2].any() and not ref[2].all()

    @pytest.mark.parametrize("delta", [0, 2, 19])
    def test_lcss_pairwise(self, backend, delta):
        qs, rows = self._pairs()
        required = np.array([0.0, 3.0, 8.0, 12.0, 20.0, -math.inf, 5.0, 15.0, 1.0])
        ref = get_backend("scalar").lcss_pairwise(qs, rows, delta, 1.0, required)
        got = get_backend(backend).lcss_pairwise(qs, rows, delta, 1.0, required)
        assert list(got[0]) == list(ref[0])
        assert got[1] == ref[1]
        assert list(got[2]) == list(ref[2])

    def test_batch_is_pairwise_with_the_query_broadcast(self, backend):
        qs, rows = self._pairs()
        kernels = get_backend(backend)
        batch = kernels.dtw_batch(qs[0], rows, 2, 6.0)
        pairwise = kernels.dtw_pairwise(np.tile(qs[0], (9, 1)), rows, 2, np.full(9, 6.0))
        assert list(batch[0]) == list(pairwise[0]) and batch[1] == pairwise[1]


class TestFunnelAndSpans:
    def test_pair_funnel(self, monkeypatch, walks):
        """The pruner is only the funnel sink: every tier set gives the same
        funnel and the same answers, because the measure alone decides
        which bounds run (LB_Improved for DTW, never for LCSS)."""
        # Small blocks, so the threshold tightens while pairs are left for
        # LB_Improved to reject (one 128-pair block refines all 224 pairs'
        # survivors before any threshold exists).
        monkeypatch.setattr(block, "REFINE_BLOCK", 16)
        data, query = walks
        for measure in (DTWMeasure(radius=3), LCSSMeasure(delta=2, epsilon=0.5), EuclideanMeasure()):
            reference = knn_search(data, query, measure, k=3)
            funnels = set()
            for plan in enumerate_plans(measure):
                policy = CascadePolicy(measure, tiers=plan.tiers)
                assert knn_search(data, query, measure, k=3, pruner=policy) == reference, plan.name
                funnels.add(tuple(sorted(policy.stats().items())))
            assert len(funnels) == 1, measure.name
            stats = dict(funnels.pop())
            pairs = len(data) * len(query)
            assert stats["leaf_candidates"] == stats["keogh_reached"] == pairs
            assert stats["kim_rejections"] == 0
            assert stats["keogh_reached"] >= stats["improved_reached"] >= stats["full_computations"]
            assert stats["keogh_rejections"] + stats["improved_reached"] == pairs or measure.lb_exact_for_singleton
            if measure.lb_exact_for_singleton:
                assert stats["full_computations"] == 0
            if isinstance(measure, DTWMeasure):
                assert stats["improved_rejections"] > 0
            else:
                assert stats["improved_rejections"] == 0

    def test_spans(self, walks):
        data, query = walks
        tracer = Tracer()
        knn_search(data, query, DTWMeasure(radius=3), k=3, tracer=tracer)
        names = [span.name for span in tracer.iter_spans()]
        assert names.count("block.bounds") == 1
        assert names.count("block.refine") >= 1


class _Manhattan(Measure):
    """A measure the engine has no vectorised keys for: L1 distance."""

    name = "manhattan"

    def distance(self, q, c, r=math.inf, counter=None):
        total = float(np.sum(np.abs(np.asarray(q) - np.asarray(c))))
        return total if total <= r else math.inf

    def expand_envelope(self, upper, lower):
        return np.asarray(upper, dtype=np.float64), np.asarray(lower, dtype=np.float64)

    def lower_bound(self, q, upper, lower, r=math.inf, counter=None):
        q = np.asarray(q)
        return float(np.sum(np.maximum(q - upper, 0.0) + np.maximum(lower - q, 0.0)))


def test_any_measure_through_its_scalar_protocol(walks):
    data, query = walks
    measure = _Manhattan()
    table = _distances(data, query, measure)
    got = knn_search(data, query, measure, k=4)
    assert [(nb.index, nb.distance) for nb in got] == _expected_knn(table, 4)
    _check_rotations(got, table)
    best = table.min(axis=1)
    radius = got[-1].distance
    assert [(nb.index, nb.distance) for nb in range_search(data, query, measure, radius)] == [
        (i, best[i]) for i in range(len(best)) if best[i] <= radius
    ]
