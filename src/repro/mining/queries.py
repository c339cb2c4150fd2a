"""k-NN and range queries under rotation invariance.

The paper's engine answers 1-NN queries; real data-mining clients
(classification with k > 1, density estimation, radius joins) need the two
standard generalisations, both of which fall out of the same wedge
machinery:

* **k-NN** -- maintain a max-heap of the k best matches; the pruning
  threshold is the *k-th* best distance instead of the best.
* **range search** -- the threshold is fixed at the query radius; every
  object whose best rotation beats it is reported.

Both are exact (no false dismissals) for Euclidean, DTW, and LCSS.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.counters import StepCounter
from repro.core.hmerge import h_merge
from repro.core.search import RotationQuery
from repro.distances.base import Measure

__all__ = ["Neighbor", "knn_search", "range_search"]


@dataclass(frozen=True)
class Neighbor:
    """One match: database position, distance, aligning rotation."""

    index: int
    distance: float
    rotation: int


@dataclass
class QueryStats:
    counter: StepCounter = field(default_factory=StepCounter)


def _prepare(query, measure, mirror, max_degrees, k_frontier, counter):
    rq = query if isinstance(query, RotationQuery) else RotationQuery(
        query, mirror=mirror, max_degrees=max_degrees
    )
    tree = rq.wedge_tree(counter)
    frontier = tree.frontier(min(k_frontier, tree.max_k))
    return rq, frontier


def knn_search(
    database: Sequence,
    query,
    measure: Measure,
    k: int = 1,
    mirror: bool = False,
    max_degrees: float | None = None,
    wedge_set_size: int = 8,
    counter: StepCounter | None = None,
    tracer=None,
    pruner=None,
) -> list[Neighbor]:
    """The k nearest rotation-invariant neighbours, ascending by distance.

    Exact: identical to sorting all rotation-invariant distances and taking
    the first k, but pruned with wedges against the running k-th best.
    Returns fewer than ``k`` entries only when the database is smaller.
    ``tracer`` (a :class:`repro.obs.Tracer`) records per-tier pruning
    spans via ``h_merge``; it never affects answers or step counts.
    ``pruner`` (a :class:`~repro.core.cascade.CascadePolicy`, typically
    configured from a :class:`~repro.core.planner.QueryPlan`) routes leaves
    through the full cascade and accumulates the tier funnel; ``None``
    keeps the plain LB_Keogh traversal.  Answers are identical either way.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    counter = counter if counter is not None else StepCounter()
    _rq, frontier = _prepare(query, measure, mirror, max_degrees, wedge_set_size, counter)
    # Max-heap of (-distance, -index, rotation); its root is the worst kept
    # entry.  Negating the index makes the root the *largest* index among
    # equal-distance ties, so eviction always drops the entry the canonical
    # (distance, index) order prefers least.  The returned set is then
    # exactly "sort every rotation-invariant distance by (distance, index)
    # and take the first k" regardless of scan history -- the property the
    # sharded service's global top-K merge relies on for tie parity.
    heap: list[tuple[float, int, int]] = []
    for i, obj in enumerate(database):
        obj = np.asarray(obj, dtype=np.float64)
        threshold = -heap[0][0] if len(heap) == k else math.inf
        dist, rotation = h_merge(
            obj,
            frontier,
            measure,
            r=threshold,
            counter=counter,
            tracer=tracer,
            pruner=pruner,
        )
        if not math.isfinite(dist):
            continue
        if len(heap) < k:
            heapq.heappush(heap, (-dist, -i, rotation))
        else:
            heapq.heappushpop(heap, (-dist, -i, rotation))
    neighbours = [Neighbor(-negi, -negd, rot) for negd, negi, rot in heap]
    neighbours.sort(key=lambda nb: (nb.distance, nb.index))
    return neighbours


def range_search(
    database: Sequence,
    query,
    measure: Measure,
    radius: float,
    mirror: bool = False,
    max_degrees: float | None = None,
    wedge_set_size: int = 8,
    counter: StepCounter | None = None,
    tracer=None,
    pruner=None,
) -> list[Neighbor]:
    """Every object within ``radius`` of the query under any rotation.

    Results are ordered by ascending database position, one entry per
    position -- the canonical order
    :func:`repro.core.search.merge_range_hits` preserves when shard-level
    hit lists are merged.  Objects at *exactly* ``radius`` are included:
    the threshold below nudges the strict ``<`` pruning comparison by one
    part in 10^12 so boundary hits survive, and the final ``dist <=
    radius`` filter keeps the reported set inclusive.  The threshold never
    shrinks, so pruning power is exactly the paper's "range" semantics for
    early abandoning (Definition 1).
    """
    if not radius >= 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    counter = counter if counter is not None else StepCounter()
    _rq, frontier = _prepare(query, measure, mirror, max_degrees, wedge_set_size, counter)
    hits: list[Neighbor] = []
    # h_merge prunes with a strict < threshold; nudge so that objects at
    # exactly ``radius`` are reported, matching inclusive range semantics.
    threshold = radius * (1.0 + 1e-12) + 1e-300
    for i, obj in enumerate(database):
        obj = np.asarray(obj, dtype=np.float64)
        dist, rotation = h_merge(
            obj,
            frontier,
            measure,
            r=threshold,
            counter=counter,
            tracer=tracer,
            pruner=pruner,
        )
        if math.isfinite(dist) and dist <= radius:
            hits.append(Neighbor(i, dist, rotation))
    return hits
