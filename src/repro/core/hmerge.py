"""The H-Merge search over hierarchical wedge sets (Table 6) and the
dynamic wedge-set-size policy of Section 4.1.

Given a candidate series and a wedge set ``W = {Wset(1) .. Wset(K)}`` built
from the query's rotations, :func:`h_merge` finds the distance from the
candidate to its best-matching rotation, pruning whole groups of rotations
whenever ``LB_Keogh(candidate, wedge)`` early-abandons against the running
threshold.  Descending from a pruned-but-not-abandoned wedge to its children
recovers exactness: leaf wedges degenerate to single rotations, where the
bound equals Euclidean distance (or where the true DTW/LCSS distance is
computed after a final, tighter bound check).

The paper tunes the wedge-set size ``K`` *during* the scan: "Each time the
bestSoFar value changes, we test a subset of the possible values of K and
choose the most efficient one (as measured by num_steps)".
:class:`DynamicKPolicy` reproduces that scheme, probe cost included.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counters import StepCounter
from repro.core.wedge import Wedge
from repro.distances.base import Measure
from repro.obs.trace import NULL_TRACER

__all__ = ["h_merge", "DynamicKPolicy", "FixedKPolicy"]


def h_merge(
    candidate: np.ndarray,
    wedge_set: list[Wedge],
    measure: Measure,
    r: float = math.inf,
    counter: StepCounter | None = None,
    order: str = "dfs",
    pruner=None,
    tracer=None,
) -> tuple[float, int]:
    """Distance from ``candidate`` to the nearest sequence under the wedges.

    Parameters
    ----------
    candidate:
        The series being tested (a database object; the wedges enclose the
        query's rotations).
    wedge_set:
        The starting frontier ``W`` (any size ``K``); children are visited
        only when a wedge cannot be pruned.
    measure:
        Euclidean, DTW, or LCSS measure.
    r:
        Initial threshold (the search's best-so-far); rotations at distance
        ``>= r`` are of no interest.
    counter:
        Step accounting.
    order:
        ``"dfs"`` follows the paper's stack traversal; ``"best-first"``
        expands the wedge with the smallest lower bound first (an ablation).
    pruner:
        Optional :class:`~repro.core.cascade.CascadePolicy`.  When given,
        internal wedges go through its Kim tier, leaves through its full
        LB_Kim -> LB_Keogh -> LB_Improved -> distance cascade, and tier
        rejection counts accumulate on the policy.  ``None`` keeps the
        plain LB_Keogh-only traversal.
    tracer:
        A :class:`~repro.obs.trace.Tracer` receiving one event per frontier
        pop.  ``None`` (the default) uses the no-op null tracer; per-tier
        cascade events come from the ``pruner``'s own tracer.  Tracing
        never changes step accounting.

    Returns
    -------
    (distance, rotation_index):
        The best distance below ``r`` and the enclosed-sequence index that
        achieved it, or ``(math.inf, -1)`` when every rotation was pruned.
    """
    if order not in ("dfs", "best-first"):
        raise ValueError(f"unknown traversal order {order!r}")
    candidate = np.asarray(candidate, dtype=np.float64)
    tracer = NULL_TRACER if tracer is None else tracer
    best = float(r)
    best_idx = -1

    if order == "best-first":
        return _h_merge_best_first(candidate, wedge_set, measure, best, counter, pruner)

    stack: list[Wedge] = list(reversed(wedge_set))
    while stack:
        wedge = stack.pop()
        if wedge.is_leaf:
            dist = _leaf_distance(candidate, wedge, measure, best, counter, pruner)
            if dist < best:
                best = dist
                best_idx = wedge.indices[0]
            continue
        if pruner is not None:
            lb = pruner.wedge_bound(candidate, wedge, best, counter)
        else:
            upper, lower = wedge.envelope_for(measure, counter=counter)
            lb = measure.lower_bound(candidate, upper, lower, best, counter=counter)
        if tracer.enabled:
            tracer.event(
                "hmerge.pop",
                cardinality=wedge.cardinality,
                bound=float(lb),
                pruned=bool(lb >= best),
            )
        if lb >= best:
            continue  # early-abandoned (inf) or provably no better than best
        stack.extend(reversed(wedge.children))
    if best_idx < 0:
        return math.inf, -1
    return best, best_idx


def _leaf_distance(
    candidate: np.ndarray,
    leaf: Wedge,
    measure: Measure,
    threshold: float,
    counter: StepCounter | None,
    pruner,
) -> float:
    """Evaluate one frontier leaf: the pruner's cascade, or without one
    plain LB_Keogh and then the distance."""
    if pruner is not None:
        return pruner.leaf_distance(candidate, leaf, threshold, counter)
    upper, lower = leaf.envelope_for(measure, counter=counter)
    lb = measure.lower_bound(candidate, upper, lower, threshold, counter=counter)
    if lb >= threshold:
        return math.inf
    if measure.lb_exact_for_singleton:
        return lb
    return measure.distance(candidate, leaf.series, threshold, counter=counter)


def _h_merge_best_first(
    candidate: np.ndarray,
    wedge_set: list[Wedge],
    measure: Measure,
    best: float,
    counter: StepCounter | None,
    pruner=None,
) -> tuple[float, int]:
    """Priority-queue variant: always expand the most promising wedge."""
    import heapq

    def bound(wedge: Wedge, threshold: float) -> float:
        if pruner is not None:
            return pruner.wedge_bound(candidate, wedge, threshold, counter)
        upper, lower = wedge.envelope_for(measure, counter=counter)
        return measure.lower_bound(candidate, upper, lower, threshold, counter=counter)

    tie = 0
    heap: list[tuple[float, int, Wedge]] = []
    for wedge in wedge_set:
        lb = bound(wedge, best)
        if lb < best:
            heapq.heappush(heap, (lb, tie, wedge))
            tie += 1
    best_idx = -1
    while heap:
        lb, _, wedge = heapq.heappop(heap)
        if lb >= best:
            break  # all remaining bounds are at least this large
        if wedge.is_leaf:
            if measure.lb_exact_for_singleton:
                dist = lb
            elif pruner is not None:
                dist = pruner.leaf_distance(candidate, wedge, best, counter)
            else:
                dist = measure.distance(candidate, wedge.series, best, counter=counter)
            if dist < best:
                best = dist
                best_idx = wedge.indices[0]
        else:
            for child in wedge.children:
                child_lb = bound(child, best)
                if child_lb < best:
                    heapq.heappush(heap, (child_lb, tie, child))
                    tie += 1
    if best_idx < 0:
        return math.inf, -1
    return best, best_idx


class FixedKPolicy:
    """Always search from the same wedge-set size ``K`` (ablation baseline)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"K must be positive, got {k}")
        self.k = k

    def current_k(self, max_k: int) -> int:
        """The configured K, clamped to the tree's leaf count."""
        return min(self.k, max_k)

    def candidates_after_improvement(self, max_k: int) -> list[int]:
        """Fixed policies never probe."""
        return []

    def observe_probe(self, k: int, steps: int) -> None:  # pragma: no cover
        """No-op: fixed policies ignore probe measurements."""


class DynamicKPolicy:
    """The paper's adaptive wedge-set-size scheme (end of Section 4.1).

    Starts at ``K = 2``.  Whenever the best-so-far improves, the next
    database object is probed with the candidate values of ``K`` that evenly
    divide ``[1, K]`` and ``[K, max_K]`` into ``intervals`` parts; the value
    with the fewest ``num_steps`` becomes the new ``K``.  The paper reports
    the scheme is insensitive to ``intervals`` anywhere in 3..20.
    """

    def __init__(self, intervals: int = 5, initial_k: int = 2):
        if intervals < 2:
            raise ValueError(f"intervals must be at least 2, got {intervals}")
        self.intervals = intervals
        self.initial_k = initial_k
        self._k: int | None = None
        self._probe_results: dict[int, int] = {}

    def current_k(self, max_k: int) -> int:
        """The currently adopted K (initially 2), clamped to ``max_k``."""
        if self._k is None:
            self._k = min(self.initial_k, max_k)
        return min(self._k, max_k)

    def candidates_after_improvement(self, max_k: int) -> list[int]:
        """Candidate K values to probe on the next object."""
        k = self.current_k(max_k)
        lows = np.linspace(1, k, self.intervals + 1)
        highs = np.linspace(k, max_k, self.intervals + 1)
        candidates = sorted({int(round(v)) for v in np.concatenate([lows, highs])})
        self._probe_results.clear()
        return [c for c in candidates if 1 <= c <= max_k]

    def observe_probe(self, k: int, steps: int) -> None:
        """Record the measured cost of one probe and adopt the best K."""
        self._probe_results[k] = steps
        self._k = min(self._probe_results, key=self._probe_results.get)
