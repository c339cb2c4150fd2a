"""k-NN and range queries under rotation invariance.

The paper's engine answers 1-NN queries; real data-mining clients
(classification with k > 1, density estimation, radius joins) need the two
standard generalisations:

* **k-NN** -- the pruning threshold is the *k-th* best distance instead of
  the best;
* **range search** -- the threshold is fixed at the query radius; every
  object whose best rotation is within it is reported.

Both run on the flat rotation-block engine (:mod:`repro.core.block`): one
LB_Keogh broadcast over every (object, rotation) pair, then pairwise-kernel
refinement of the survivors in bound order.  Both are exact (no false
dismissals) for Euclidean, DTW, and LCSS.  H-Merge over the wedge
hierarchy (:func:`repro.core.hmerge.h_merge`, used by
:func:`repro.core.search.wedge_search`) stays the paper-reproduction path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.block import block_search
from repro.core.counters import StepCounter
from repro.core.hmerge import h_merge  # noqa: F401 (perfbench/layers.py wraps it by name)
from repro.core.search import RotationQuery
from repro.distances.base import Measure

__all__ = ["Neighbor", "knn_search", "range_search"]


@dataclass(frozen=True)
class Neighbor:
    """One match: database position, distance, aligning rotation."""

    index: int
    distance: float
    rotation: int


def _rotations(query, mirror, max_degrees):
    rq = query if isinstance(query, RotationQuery) else RotationQuery(
        query, mirror=mirror, max_degrees=max_degrees
    )
    return rq.rotations


def knn_search(
    database: Sequence,
    query,
    measure: Measure,
    k: int = 1,
    mirror: bool = False,
    max_degrees: float | None = None,
    counter: StepCounter | None = None,
    tracer=None,
    pruner=None,
) -> list[Neighbor]:
    """The k nearest rotation-invariant neighbours, ascending by distance.

    Exact: identical to sorting all rotation-invariant distances by
    ``(distance, index)`` and taking the first k -- the property the
    sharded service's global top-K merge relies on for tie parity.
    Returns fewer than ``k`` entries only when the database is smaller.
    Each neighbour reports the first rotation, in (bound, rotation index)
    order, at its best distance.  ``tracer`` (a :class:`repro.obs.Tracer`)
    records the engine's ``block.bounds`` / ``block.refine`` spans; it
    never affects answers or step counts.  ``pruner`` (a
    :class:`~repro.core.cascade.CascadePolicy`) only accumulates the
    per-pair tier funnel; its tier set is never read, because the measure
    alone fixes which bounds run (:mod:`repro.core.block`).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    hits = block_search(
        database,
        _rotations(query, mirror, max_degrees),
        measure,
        k=k,
        counter=counter,
        tracer=tracer,
        pruner=pruner,
    )
    return [Neighbor(*hit) for hit in hits]


def range_search(
    database: Sequence,
    query,
    measure: Measure,
    radius: float,
    mirror: bool = False,
    max_degrees: float | None = None,
    counter: StepCounter | None = None,
    tracer=None,
    pruner=None,
) -> list[Neighbor]:
    """Every object within ``radius`` of the query under any rotation.

    Results are ordered by ascending database position, one entry per
    position -- the canonical order
    :func:`repro.core.search.merge_range_hits` preserves when shard-level
    hit lists are merged.  Objects at *exactly* ``radius`` are included:
    the engine computes every pair at its threshold exactly and reports
    each object whose distance is ``<= radius``.  ``tracer`` and
    ``pruner`` behave as in :func:`knn_search`: the pruner is only the
    sink of the tier funnel.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    hits = block_search(
        database,
        _rotations(query, mirror, max_degrees),
        measure,
        radius=radius,
        counter=counter,
        tracer=tracer,
        pruner=pruner,
    )
    return [Neighbor(*hit) for hit in hits]
