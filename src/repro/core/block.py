"""The flat rotation-block engine behind ``knn_search`` and ``range_search``.

H-Merge (:mod:`repro.core.hmerge`) walks a wedge hierarchy once per
database object to spend as few of the paper's ``num_steps`` as possible.
In this Python engine, though, that per-object traversal costs more than
the arithmetic it saves.  The block engine keeps the paper's insight --
LB_Keogh against a query rotation's envelope lower-bounds every
rotation-invariant measure -- and drops the hierarchy:

1. Take the query's rotation set.  The *query* is always the series that
   rotates: banded DTW gives different distances if the candidates are
   rotated instead.
2. Expand one envelope per rotation.
3. Bound every (object, rotation) pair with LB_Keogh, one broadcast per
   block of objects; no temporary holds more than
   :data:`BOUND_BLOCK_ELEMENTS` elements, or one object's ``R x n`` when
   that is larger.  Sums accumulate left to right, the library's
   sequential-accumulation rule.
4. Stable-argsort the bounds and visit the pairs in that order,
   :data:`REFINE_BLOCK` at a time.  In each block: drop the pairs that
   cannot change the answer, run LB_Improved on the rest (DTW with a
   radius above 0 only), refine the survivors with one pairwise-kernel
   call in which each pair abandons at ``min(best[object], k-th)``, then
   tighten the threshold.
5. Stop at the first bound that cannot matter.  Euclidean distance needs
   no refinement: its bound against a single rotation is the distance.

The engine has one configuration, chosen from the measure alone
(:func:`bound_tiers`): LB_Keogh always runs (it sets the visiting order),
LB_Improved runs for DTW with a radius above 0 and never for LCSS, where
it cost more than it saved in every measured case (docs/PLANNER.md has
the table).

Exactness rules (each pinned by ``tests/test_block_engine.py``):

(a) **Ties at the k-th distance.**  Pairs arrive in bound order, not
    index order, so a pair is pruned only when its bound is above the
    k-th distance, or equal to it with an object index above the k-th
    entry's.  Answers keep the canonical ``(distance, index)`` order.
(b) **LCSS rounding.**  A tight LCSS bound ``c/n`` can compute one ulp
    *above* the distance ``1 - (n - c)/n`` it bounds.  Bounds, thresholds
    and refined distances are therefore compared as integer mismatch
    counts; only the reported distance is converted.
(c) **Rotation ties.**  An object reports the first rotation, in
    ``(bound, rotation index)`` order, among those at its best distance.
    The rule depends on neither shard layout nor block size.

Every computed bound and every computed DP cell is charged to the step
counter, so steps per query are higher than H-Merge's; wall time is what
this path minimises.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counters import StepCounter
from repro.distances.base import Measure
from repro.distances.dtw import DTWMeasure
from repro.distances.euclidean import EuclideanMeasure
from repro.distances.lcss import LCSSMeasure
from repro.obs.trace import NULL_TRACER

__all__ = ["BOUND_BLOCK_ELEMENTS", "REFINE_BLOCK", "block_search", "bound_tiers"]

#: Most elements one LB_Keogh broadcast temporary may hold (512 KiB of
#: float64); the object block shrinks to fit, down to one object.
BOUND_BLOCK_ELEMENTS = 1 << 16

#: Pairs visited per refinement block: the threshold tightens between
#: blocks, and each block's survivors go to one pairwise-kernel call.
REFINE_BLOCK = 128


def bound_tiers(measure: Measure) -> tuple[str, ...]:
    """The bound tiers the engine runs for ``measure``, in order.

    LB_Keogh always runs: it sets the visiting order.  LB_Improved runs
    for DTW with a radius above 0 (at radius 0 the envelope is the
    rotation itself, so the second pass cannot tighten the first).
    """
    if isinstance(measure, DTWMeasure) and measure.radius > 0:
        return ("keogh", "improved")
    return ("keogh",)


def _inclusive(thresholds: np.ndarray) -> np.ndarray:
    """Distance thresholds nudged up by one part in 10^12, so a pair at
    exactly its threshold is computed, never abandoned (the kernels square
    the threshold, which can round below the squared distance)."""
    return thresholds * (1.0 + 1e-12) + 1e-300


class _Keys:
    """How a measure's bounds and distances enter the engine.

    The engine compares *keys*: values that order pairs exactly as their
    distances do.  This generic version serves any
    :class:`~repro.distances.base.Measure` through its scalar protocol
    (``expand_envelope``, ``lower_bound``, ``distance``); the subclasses
    below vectorise Euclidean distance, DTW and LCSS.
    """

    #: The bound of a pair is its distance, so nothing is refined.
    exact = False

    def __init__(self, measure: Measure, rotations: np.ndarray):
        self.measure = measure
        self.rotations = rotations
        self.n = rotations.shape[1]
        self.uppers, self.lowers = self.envelopes(rotations)

    def envelopes(self, rotations):
        arms = [self.measure.expand_envelope(rot, rot) for rot in rotations]
        return np.array([a[0] for a in arms]), np.array([a[1] for a in arms])

    def bounds(self, objects: np.ndarray) -> np.ndarray:
        """``(B, R)`` bound keys of every object of the block at every rotation."""
        return np.array(
            [
                [self.measure.lower_bound(obj, u, lo) for u, lo in zip(self.uppers, self.lowers)]
                for obj in objects
            ]
        )

    def radius_key(self, radius: float) -> float:
        return radius

    def refine(self, objects, rot, thresholds):
        """``(keys, distances, steps, abandoned)`` of each pair, pair ``t``
        abandoning once its key provably exceeds ``thresholds[t]``."""
        counter = StepCounter()
        limits = _inclusive(thresholds)
        dists = np.array(
            [
                self.measure.distance(obj, self.rotations[j], limit, counter=counter)
                for obj, j, limit in zip(objects, rot, limits)
            ]
        )
        return dists, dists, counter.steps, np.isinf(dists)


class _EuclideanKeys(_Keys):
    """LB_Keogh keys; against a single Euclidean rotation they are exact."""

    exact = True

    def envelopes(self, rotations):
        return rotations, rotations

    def bounds(self, objects):
        obj = objects[:, np.newaxis, :]
        above = obj - self.uppers
        np.maximum(above, 0.0, out=above)
        np.square(above, out=above)
        below = self.lowers - obj
        np.maximum(below, 0.0, out=below)
        np.square(below, out=below)
        above += below
        # Left-to-right sums: bit-identical to the Euclidean distance and
        # to every backend's LB_Keogh.
        np.cumsum(above, axis=2, out=above)
        return np.sqrt(above[:, :, -1])


class _DTWKeys(_EuclideanKeys):
    exact = False

    def envelopes(self, rotations):
        from repro.core.batch import batch_sliding_envelope

        return batch_sliding_envelope(rotations, self.measure.radius)

    def improve(self, objects, rot):
        rows = self.rotations[rot]
        bounds, steps = self.measure.resolved_backend().lb_improved_batch(
            objects, self.uppers[rot], self.lowers[rot], rows, rows, self.measure.radius, math.inf
        )
        return bounds, int(steps.sum())

    def refine(self, objects, rot, thresholds):
        radius = min(self.measure.radius, self.n - 1)
        dists, steps, abandoned = self.measure.resolved_backend().dtw_pairwise(
            objects, self.rotations[rot], radius, _inclusive(thresholds)
        )
        return dists, dists, steps, abandoned


class _LCSSKeys(_Keys):
    """Integer mismatch counts: ``n - matches`` for distances, the count of
    points outside the envelope for bounds (exactness rule (b))."""

    def envelopes(self, rotations):
        from repro.core.batch import batch_sliding_envelope

        uppers, lowers = batch_sliding_envelope(rotations, self.measure.delta)
        return uppers + self.measure.epsilon, lowers - self.measure.epsilon

    def bounds(self, objects):
        obj = objects[:, np.newaxis, :]
        outside = (obj > self.uppers) | (obj < self.lowers)
        return outside.sum(axis=2).astype(np.float64)

    def radius_key(self, radius):
        # The largest mismatch count whose reported distance is within
        # ``radius`` -- computed with the kernels' own arithmetic.
        matches = np.arange(self.n + 1, dtype=np.float64)
        inside = 1.0 - matches / self.n <= radius
        return float(self.n - matches[inside].min())

    def refine(self, objects, rot, thresholds):
        delta = min(self.measure.delta, self.n - 1)
        sims, steps, abandoned = self.measure.resolved_backend().lcss_pairwise(
            objects, self.rotations[rot], delta, self.measure.epsilon, self.n - thresholds
        )
        keys = np.where(abandoned, math.inf, self.n - np.rint(sims * self.n))
        return keys, 1.0 - sims, steps, abandoned


def _keys_for(measure: Measure, rotations: np.ndarray) -> _Keys:
    for kind, keys in (
        (EuclideanMeasure, _EuclideanKeys),
        (DTWMeasure, _DTWKeys),
        (LCSSMeasure, _LCSSKeys),
    ):
        if isinstance(measure, kind):
            return keys(measure, rotations)
    return _Keys(measure, rotations)


def block_search(
    database,
    rotations: np.ndarray,
    measure: Measure,
    k: int | None = None,
    radius: float | None = None,
    counter: StepCounter | None = None,
    tracer=None,
    pruner=None,
) -> list[tuple[int, float, int]]:
    """Exact k-NN (``k``) or range (``radius``) answer as
    ``(index, distance, rotation)`` triples.

    k-NN answers come in canonical ``(distance, index)`` order; range hits
    (distance at most ``radius``) in ascending index order.  ``rotations``
    is the ``(R, n)`` rotation matrix of the query.  ``pruner`` (a
    :class:`~repro.core.cascade.CascadePolicy`) only receives the per-pair
    tier funnel: the engine never reads its tier set, because which
    bounds run is fixed by the measure.  ``tracer`` records one
    ``block.bounds`` span and one ``block.refine`` span per kernel call.
    """
    counter = counter if counter is not None else StepCounter()
    tracer = NULL_TRACER if tracer is None else tracer
    data = np.asarray(database, dtype=np.float64)
    if len(data) == 0:
        return []
    rotations = np.asarray(rotations, dtype=np.float64)
    n_rot, n = rotations.shape
    if data.ndim != 2 or data.shape[1] != n:
        raise ValueError(f"database rows must have the query's length {n}, got shape {data.shape}")
    m = data.shape[0]
    pairs = m * n_rot
    keys = _keys_for(measure, rotations)

    with tracer.span("block.bounds", pairs=pairs):
        lb = np.empty((m, n_rot))
        step = max(1, BOUND_BLOCK_ELEMENTS // (n_rot * n))
        for lo in range(0, m, step):
            lb[lo : lo + step] = keys.bounds(data[lo : lo + step])
        order = np.argsort(lb, axis=None, kind="stable")
    lb = lb.ravel()
    counter.lb_calls += pairs
    counter.add(pairs * n)

    best_key = np.full(m, math.inf)
    best_dist = np.full(m, math.inf)
    best_rot = np.full(m, -1, dtype=np.int64)
    # A pair can change the answer only if its bound is below ``limit``,
    # or equal to it with an object index below ``limit_index`` (rule (a)).
    limit = math.inf if radius is None else keys.radius_key(radius)
    limit_index = m
    improves = "improved" in bound_tiers(measure)
    survived = improved_out = refined = 0

    def useful(bound, obj):
        return (bound < best_key[obj]) & ((bound < limit) | ((bound == limit) & (obj < limit_index)))

    def ranked():
        held = np.flatnonzero(np.isfinite(best_key))
        return held[np.lexsort((held, best_key[held]))]

    for start in range(0, pairs, REFINE_BLOCK):
        bound = lb[order[start : start + REFINE_BLOCK]]
        if bound[0] > limit:
            break  # bounds only grow from here
        obj, rot = np.divmod(order[start : start + REFINE_BLOCK], n_rot)
        keep = useful(bound, obj)
        bound, obj, rot = bound[keep], obj[keep], rot[keep]
        survived += obj.size
        if obj.size and improves:
            bound, steps = keys.improve(data[obj], rot)
            counter.lb_calls += obj.size
            counter.add(steps)
            keep = useful(bound, obj)
            improved_out += obj.size - int(keep.sum())
            bound, obj, rot = bound[keep], obj[keep], rot[keep]
        if not obj.size:
            continue
        if keys.exact:
            found, dists = bound, bound
        else:
            thresholds = np.minimum(best_key[obj], limit)
            with tracer.span("block.refine", pairs=obj.size):
                found, dists, steps, abandoned = keys.refine(data[obj], rot, thresholds)
            refined += obj.size
            counter.distance_calls += obj.size
            counter.add(steps)
            counter.early_abandons += int(np.count_nonzero(abandoned))
        # Per object, the first pair (visiting order) at its smallest key:
        # rule (c).
        by_object = np.lexsort((found, obj))
        first = np.ones(by_object.size, dtype=bool)
        first[1:] = obj[by_object[1:]] != obj[by_object[:-1]]
        winners = by_object[first]
        winners = winners[found[winners] < best_key[obj[winners]]]
        best_key[obj[winners]] = found[winners]
        best_dist[obj[winners]] = dists[winners]
        best_rot[obj[winners]] = rot[winners]
        if k is not None:
            top = ranked()
            if top.size >= k:
                limit, limit_index = best_key[top[k - 1]], top[k - 1]

    if pruner is not None:
        pruner.add_block_funnel(pairs, survived, improved_out, refined)
    answer = ranked()[:k] if k is not None else np.flatnonzero(best_key <= limit)
    return [(int(i), float(best_dist[i]), int(best_rot[i])) for i in answer]
