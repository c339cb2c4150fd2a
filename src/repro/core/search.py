"""Rotation-invariant nearest-neighbour search strategies.

This module assembles the paper's four competing search algorithms over a
database ``Q = {Q1 .. Qm}`` of series at arbitrary rotation (Figures 19-23):

* :func:`brute_force_search` -- Table 3 with early abandoning disabled:
  every rotation of the query is fully compared to every object.
* :func:`early_abandon_search` -- Tables 2+3: the same scan, but every
  distance computation abandons against the running best-so-far.
* :func:`fft_search` -- the Fourier-magnitude lower bound screens each
  object (at the paper's ``n log n`` step cost) before the early-abandoning
  rotation scan; Euclidean only, since coefficient magnitudes do not bound
  DTW.
* :func:`wedge_search` -- the paper's contribution: the query's rotations
  are clustered into a hierarchical wedge tree (O(n^2) start-up, charged),
  and every object is matched with H-Merge under a dynamically tuned
  wedge-set size K.

All four return a :class:`SearchResult` carrying the best match, its
aligning rotation, and the full step accounting, and all four are **exact**:
they always return the same nearest neighbour (Proposition 1/2 -- no false
dismissals).

For query *throughput* (many queries against one database),
:func:`search_many` chunks a batch of queries across a
:mod:`concurrent.futures` pool -- threads for Euclidean, whose batched
NumPy kernels (:mod:`repro.core.batch`) release the GIL, processes for the
CPU-bound DTW/LCSS dynamic programs -- returning per-query results with
the same exactness guarantee and step accounting as a sequential loop.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.cascade import CascadePolicy, empty_tier_stats
from repro.core.counters import StepCounter, fft_step_cost
from repro.core.hmerge import DynamicKPolicy, FixedKPolicy, h_merge
from repro.core.planner import Planner, QueryPlan, default_plan
from repro.core.rotation import RotationSet
from repro.core.wedge_builder import WedgeTree, build_wedge_tree
from repro.distances.base import Measure
from repro.distances.euclidean import EuclideanMeasure
from repro.obs.metrics import MetricsRegistry, record_query
from repro.obs.trace import NULL_TRACER

__all__ = [
    "SearchResult",
    "RotationQuery",
    "AnytimeResult",
    "brute_force_search",
    "early_abandon_search",
    "fft_search",
    "wedge_search",
    "auto_search",
    "anytime_wedge_search",
    "test_all_rotations",
    "search_many",
    "merge_counters",
    "merge_neighbors",
    "merge_range_hits",
]


@dataclass
class SearchResult:
    """Outcome of one nearest-neighbour query.

    Attributes
    ----------
    index:
        Position of the best match in the database (-1 when nothing beat the
        initial threshold).
    distance:
        The rotation-invariant distance to the best match.
    rotation:
        Which candidate rotation aligned best (an index into the query's
        :class:`~repro.core.rotation.RotationSet`).
    counter:
        Full step accounting for the query, start-up costs included.
    strategy:
        Which algorithm produced this result.
    tier_stats:
        Per-tier funnel and rejection counts from the pruning cascade
        (:meth:`repro.core.cascade.CascadePolicy.stats`).  Strategies that
        run no cascade report the zeroed
        :func:`~repro.core.cascade.empty_tier_stats` sentinel with the
        same key schema, so reporting code never branches on ``None``.
    plan:
        Canonical name of the :class:`~repro.core.planner.QueryPlan` that
        executed the query, or ``None`` when no explicit plan was involved
        (legacy toggle-driven calls).
    """

    index: int
    distance: float
    rotation: int
    counter: StepCounter = field(default_factory=StepCounter)
    strategy: str = ""
    tier_stats: dict = field(default_factory=empty_tier_stats)
    plan: str | None = None

    @property
    def found(self) -> bool:
        return self.index >= 0


class RotationQuery:
    """A query pre-processed for rotation-invariant matching.

    Bundles the rotation set (Section 3's matrix **C**, with optional mirror
    augmentation and rotation limiting) with the hierarchical wedge tree of
    Section 4.1.  The wedge tree is built lazily on first use so strategies
    that do not need wedges (brute force, FFT) pay nothing for it.
    """

    def __init__(
        self,
        series,
        mirror: bool = False,
        max_degrees: float | None = None,
        linkage_method: str = "average",
    ):
        self.rotation_set = RotationSet.full(series, mirror=mirror, max_degrees=max_degrees)
        self.linkage_method = linkage_method
        self._tree: WedgeTree | None = None
        self._signature_cache: dict[int | None, np.ndarray] = {}

    @property
    def length(self) -> int:
        return self.rotation_set.length

    @property
    def rotations(self) -> np.ndarray:
        return self.rotation_set.rotations

    def wedge_tree(self, counter: StepCounter | None = None) -> WedgeTree:
        """The hierarchical wedge tree, built (and charged) once."""
        if self._tree is None:
            self._tree = build_wedge_tree(
                self.rotation_set, method=self.linkage_method, counter=counter
            )
        return self._tree

    def signature(self, n_coefficients: int | None = None) -> np.ndarray:
        """Fourier magnitude signature (identical for every rotation)."""
        # Imported here: repro.index pulls in modules that themselves import
        # this one, so a top-level import would be circular.
        from repro.index.fourier import fourier_signature

        if n_coefficients not in self._signature_cache:
            self._signature_cache[n_coefficients] = fourier_signature(
                self.rotation_set.series, n_coefficients
            )
        return self._signature_cache[n_coefficients]


def _as_query(
    query,
    mirror: bool,
    max_degrees: float | None,
    linkage_method: str = "average",
) -> RotationQuery:
    if isinstance(query, RotationQuery):
        return query
    return RotationQuery(
        query, mirror=mirror, max_degrees=max_degrees, linkage_method=linkage_method
    )


def test_all_rotations(
    candidate,
    query: RotationQuery,
    measure: Measure,
    r: float = math.inf,
    counter: StepCounter | None = None,
    early_abandon: bool = True,
) -> tuple[float, int]:
    """The paper's ``Test_All_Rotations`` (Table 2).

    Scans every candidate rotation of ``query`` against ``candidate`` with a
    running best-so-far seeded at ``r``.  Returns ``(distance, rotation)``;
    the distance is ``math.inf`` when no rotation beat ``r``.
    """
    return measure.batch_min_distance(
        np.asarray(candidate, dtype=np.float64),
        query.rotations,
        r=r,
        counter=counter,
        early_abandon=early_abandon,
    )


def _observe_query(
    result: SearchResult,
    measure: Measure,
    wall_seconds: float,
    metrics,
    query_log,
    query_id,
    extra: dict | None = None,
) -> SearchResult:
    """Opt-in telemetry fan-out shared by every strategy.

    Records the finished query into a :class:`~repro.obs.metrics.MetricsRegistry`
    and/or appends one JSONL record to a
    :class:`~repro.obs.querylog.QueryLogger`.  Both sinks are post-hoc:
    nothing here runs inside the scan, so step accounting and answers are
    untouched.  Query-log records carry the resolved kernel backend name so
    runs remain attributable after the fact.
    """
    if metrics is not None:
        record_query(result, measure.name, wall_seconds, registry=metrics)
    if query_log is not None:
        query_log.log_result(
            result,
            measure=measure.name,
            wall_seconds=wall_seconds,
            query_id=query_id,
            backend=measure.backend_name,
            **(extra or {}),
        )
    return result


def brute_force_search(
    database: Sequence,
    query,
    measure: Measure,
    mirror: bool = False,
    max_degrees: float | None = None,
    *,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    query_log=None,
    query_id=None,
    backend: str | None = None,
) -> SearchResult:
    """Exhaustive search with no pruning at all (the paper's "Brute force")."""
    tracer = NULL_TRACER if tracer is None else tracer
    if backend is not None:
        measure = measure.with_backend(backend)
    t0 = perf_counter()
    rq = _as_query(query, mirror, max_degrees)
    counter = StepCounter()
    best = math.inf
    best_index, best_rotation = -1, -1
    with tracer.span(
        "query", strategy="brute-force", measure=measure.name, backend=measure.backend_name
    ):
        for i, obj in enumerate(database):
            dist, rotation = test_all_rotations(
                obj, rq, measure, r=math.inf, counter=counter, early_abandon=False
            )
            if dist < best:
                best, best_index, best_rotation = dist, i, rotation
                if tracer.enabled:
                    tracer.event("best_so_far", index=i, distance=float(best))
    result = SearchResult(best_index, best, best_rotation, counter, "brute-force")
    return _observe_query(
        result, measure, perf_counter() - t0, metrics, query_log, query_id
    )


def early_abandon_search(
    database: Sequence,
    query,
    measure: Measure,
    mirror: bool = False,
    max_degrees: float | None = None,
    *,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    query_log=None,
    query_id=None,
    backend: str | None = None,
) -> SearchResult:
    """Linear scan with early abandoning everywhere (the "Early abandon" line)."""
    tracer = NULL_TRACER if tracer is None else tracer
    if backend is not None:
        measure = measure.with_backend(backend)
    t0 = perf_counter()
    rq = _as_query(query, mirror, max_degrees)
    counter = StepCounter()
    best = math.inf
    best_index, best_rotation = -1, -1
    with tracer.span(
        "query", strategy="early-abandon", measure=measure.name, backend=measure.backend_name
    ):
        for i, obj in enumerate(database):
            dist, rotation = test_all_rotations(
                obj, rq, measure, r=best, counter=counter, early_abandon=True
            )
            if dist < best:
                best, best_index, best_rotation = dist, i, rotation
                if tracer.enabled:
                    tracer.event("best_so_far", index=i, distance=float(best))
    result = SearchResult(best_index, best, best_rotation, counter, "early-abandon")
    return _observe_query(
        result, measure, perf_counter() - t0, metrics, query_log, query_id
    )


def fft_search(
    database: Sequence,
    query,
    measure: Measure | None = None,
    mirror: bool = False,
    max_degrees: float | None = None,
    *,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    query_log=None,
    query_id=None,
    backend: str | None = None,
) -> SearchResult:
    """Fourier-magnitude screening before the early-abandoning scan.

    Only valid for Euclidean distance: DFT magnitudes bound rotation-
    invariant ED, not DTW or LCSS.  Each screening test is charged the
    paper's ``n log n`` step cost.
    """
    if measure is None:
        measure = EuclideanMeasure()
    if measure.name != "euclidean":
        raise ValueError(
            "the Fourier magnitude bound only lower-bounds Euclidean distance; "
            f"got measure {measure.name!r}"
        )
    from repro.index.fourier import fourier_signature, signature_distance

    tracer = NULL_TRACER if tracer is None else tracer
    if backend is not None:
        measure = measure.with_backend(backend)
    t0 = perf_counter()
    rq = _as_query(query, mirror, max_degrees)
    counter = StepCounter()
    n = rq.length
    query_sig = rq.signature()
    best = math.inf
    best_index, best_rotation = -1, -1
    with tracer.span(
        "query", strategy="fft", measure=measure.name, backend=measure.backend_name
    ):
        for i, obj in enumerate(database):
            counter.lb_calls += 1
            counter.add(fft_step_cost(n))
            lb = signature_distance(query_sig, fourier_signature(obj))
            if lb >= best:
                counter.early_abandons += 1
                if tracer.enabled:
                    tracer.event("fft.screen", outcome="reject", index=i, bound=float(lb))
                continue
            dist, rotation = test_all_rotations(
                obj, rq, measure, r=best, counter=counter, early_abandon=True
            )
            if dist < best:
                best, best_index, best_rotation = dist, i, rotation
                if tracer.enabled:
                    tracer.event("best_so_far", index=i, distance=float(best))
    result = SearchResult(best_index, best, best_rotation, counter, "fft")
    return _observe_query(
        result, measure, perf_counter() - t0, metrics, query_log, query_id
    )


def wedge_search(
    database: Sequence,
    query,
    measure: Measure,
    mirror: bool = False,
    max_degrees: float | None = None,
    linkage_method: str = "average",
    k_policy: DynamicKPolicy | FixedKPolicy | None = None,
    order: str = "dfs",
    charge_setup: bool = True,
    use_kim: bool = False,
    use_improved: bool = True,
    plan: QueryPlan | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    query_log=None,
    query_id=None,
    backend: str | None = None,
) -> SearchResult:
    """The paper's wedge-based search (Section 4.1).

    Builds the query's hierarchical wedge tree (charging the O(n^2)
    start-up unless ``charge_setup=False``), then scans the database with
    H-Merge.  The wedge-set size ``K`` follows ``k_policy`` -- by default
    the dynamic scheme that re-tunes K (by probing candidate values on the
    next object, probe cost included) every time the best-so-far improves.

    Every object runs through one shared
    :class:`~repro.core.cascade.CascadePolicy`: LB_Keogh against each
    frontier wedge, then (for DTW/LCSS with ``use_improved``) the two-pass
    LB_Improved tier, then the full distance; ``use_kim`` switches the
    O(1) Kim pre-tier on.  The per-tier rejection counts are returned on
    ``SearchResult.tier_stats``.

    ``plan`` supersedes the individual cascade toggles: a
    :class:`~repro.core.planner.QueryPlan` pins the tier set *and order*
    and (when ``backend`` is not given) the kernel backend.  Any plan
    returns bit-identical answers -- the tiers are each admissible on
    their own -- and the plan's canonical name is stamped on the query
    span, the query-log record, and ``SearchResult.plan``.

    ``tracer``/``metrics``/``query_log`` are the opt-in observability
    hooks: the tracer receives the full span tree (wedge-tree build,
    H-Merge pops, cascade tiers), the registry and logger record the
    finished query.  With a query log attached the record additionally
    carries the K trajectory (the wedge-set size used per object, probes
    included) and the best-so-far radius trace.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    if plan is not None and backend is None:
        backend = plan.backend
    if backend is not None:
        measure = measure.with_backend(backend)
    t0 = perf_counter()
    rq = _as_query(query, mirror, max_degrees, linkage_method)
    counter = StepCounter()
    span_attrs = {"strategy": "wedge", "measure": measure.name, "backend": measure.backend_name}
    if plan is not None:
        span_attrs["plan"] = plan.name
    with tracer.span("query", **span_attrs):
        with tracer.span("wedge_tree.build") as build_span:
            tree = rq.wedge_tree(counter if charge_setup else None)
            build_span.set(max_k=tree.max_k, length=rq.length)
        policy = k_policy if k_policy is not None else DynamicKPolicy()
        pruner = CascadePolicy(
            measure,
            use_kim=use_kim,
            use_improved=use_improved,
            tracer=tracer,
            tiers=plan.tiers if plan is not None else None,
        )
        max_k = tree.max_k
        best = math.inf
        best_index, best_rotation = -1, -1
        probe_ks: list[int] = []
        trajectories = query_log is not None or tracer.enabled
        k_trajectory: list[int] = []
        radius_trace: list[float] = []
        for i, obj in enumerate(database):
            obj = np.asarray(obj, dtype=np.float64)
            if probe_ks:
                dist, rotation = math.inf, -1
                for k in probe_ks:
                    counter.checkpoint()
                    dist, rotation = h_merge(
                        obj,
                        tree.frontier(k),
                        measure,
                        r=best,
                        counter=counter,
                        order=order,
                        pruner=pruner,
                        tracer=tracer,
                    )
                    policy.observe_probe(k, counter.since_checkpoint())
                    if trajectories:
                        k_trajectory.append(k)
                probe_ks = []
            else:
                k = policy.current_k(max_k)
                dist, rotation = h_merge(
                    obj,
                    tree.frontier(k),
                    measure,
                    r=best,
                    counter=counter,
                    order=order,
                    pruner=pruner,
                    tracer=tracer,
                )
                if trajectories:
                    k_trajectory.append(k)
            if dist < best:
                best, best_index, best_rotation = dist, i, rotation
                probe_ks = policy.candidates_after_improvement(max_k)
                if trajectories:
                    radius_trace.append(float(best))
                if tracer.enabled:
                    tracer.event("best_so_far", index=i, distance=float(best))
    result = SearchResult(
        best_index,
        best,
        best_rotation,
        counter,
        "wedge",
        tier_stats=pruner.stats(),
        plan=plan.name if plan is not None else None,
    )
    extra = (
        {"k_trajectory": k_trajectory, "radius_trace": radius_trace}
        if query_log is not None
        else None
    )
    if extra is not None and plan is not None:
        extra["plan"] = plan.name
    return _observe_query(
        result, measure, perf_counter() - t0, metrics, query_log, query_id, extra
    )


def auto_search(
    database: Sequence,
    query,
    measure: Measure,
    mirror: bool = False,
    max_degrees: float | None = None,
    *,
    plan: QueryPlan | None = None,
    planner: Planner | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    query_log=None,
    query_id=None,
    backend: str | None = None,
    **kwargs,
) -> SearchResult:
    """Planner-routed search (``strategy="auto"``).

    Resolution order for the plan: an explicit ``plan`` wins; otherwise a
    supplied ``planner`` selects one from its cost model (and the finished
    query's ``tier_stats`` are fed back into it); otherwise the measure's
    canonical default plan runs -- which is exactly the pre-planner
    behaviour.  Whatever the plan, the answer is bit-identical to every
    other plan's: the planner only ever trades work, never correctness.
    """
    if plan is None:
        plan = planner.plan() if planner is not None else default_plan(measure, backend=backend)
    if plan.strategy != "wedge":
        fn = _STRATEGIES[plan.strategy]
        return fn(
            database,
            query,
            measure,
            mirror=mirror,
            max_degrees=max_degrees,
            tracer=tracer,
            metrics=metrics,
            query_log=query_log,
            query_id=query_id,
            backend=backend if backend is not None else plan.backend,
            **kwargs,
        )
    t0 = perf_counter()
    result = wedge_search(
        database,
        query,
        measure,
        mirror=mirror,
        max_degrees=max_degrees,
        plan=plan,
        tracer=tracer,
        metrics=metrics,
        query_log=query_log,
        query_id=query_id,
        backend=backend,
        **kwargs,
    )
    if planner is not None:
        # Funnel counts drive the step model; the measured wall clock feeds
        # the latency tie-break (see Planner.observe).
        planner.observe(
            result.tier_stats, wall_seconds=perf_counter() - t0, plan=plan
        )
    return result


@dataclass
class AnytimeResult:
    """Outcome of a budgeted search: the best answer found so far.

    ``exact`` is True when the whole database was scanned within budget,
    in which case ``result`` carries the same guarantee as
    :func:`wedge_search`; otherwise it is the best over
    ``objects_scanned`` objects -- an anytime answer that only improves
    with budget.
    """

    result: SearchResult
    exact: bool
    objects_scanned: int


def anytime_wedge_search(
    database: Sequence,
    query,
    measure: Measure,
    step_budget: int,
    mirror: bool = False,
    max_degrees: float | None = None,
    order_by_signature: bool = True,
    wedge_set_size: int = 8,
    *,
    tracer=None,
    backend: str | None = None,
) -> AnytimeResult:
    """Wedge search under a hard step budget (anytime semantics).

    The scan stops once ``step_budget`` steps have been spent (the wedge
    build is charged first -- a budget below the O(n^2) start-up yields an
    empty answer).  With ``order_by_signature`` (Euclidean only), objects
    are visited in ascending Fourier-magnitude-bound order, so the most
    promising candidates are verified first and the early answer is
    typically already the true nearest neighbour.
    """
    if step_budget < 1:
        raise ValueError(f"step_budget must be positive, got {step_budget}")
    tracer = NULL_TRACER if tracer is None else tracer
    if backend is not None:
        measure = measure.with_backend(backend)
    rq = _as_query(query, mirror, max_degrees)
    counter = StepCounter()
    tree = rq.wedge_tree(counter)
    frontier = tree.frontier(min(wedge_set_size, tree.max_k))

    order = range(len(database))
    if order_by_signature and measure.name == "euclidean" and len(database):
        from repro.index.fourier import fourier_signature

        query_sig = rq.signature()
        bounds = []
        for obj in database:
            counter.add(fft_step_cost(rq.length))
            bounds.append(signature_gap(query_sig, obj))
        order = np.argsort(np.asarray(bounds), kind="stable")

    best = math.inf
    best_index, best_rotation = -1, -1
    scanned = 0
    with tracer.span(
        "query", strategy="anytime-wedge", measure=measure.name, backend=measure.backend_name
    ):
        for i in order:
            if counter.steps >= step_budget:
                if tracer.enabled:
                    tracer.event("budget_exhausted", steps=counter.steps, scanned=scanned)
                break
            obj = np.asarray(database[int(i)], dtype=np.float64)
            dist, rotation = h_merge(
                obj, frontier, measure, r=best, counter=counter, tracer=tracer
            )
            scanned += 1
            if dist < best:
                best, best_index, best_rotation = dist, int(i), rotation
    result = SearchResult(best_index, best, best_rotation, counter, "anytime-wedge")
    return AnytimeResult(result=result, exact=scanned == len(database), objects_scanned=scanned)


def signature_gap(query_signature: np.ndarray, candidate) -> float:
    """Fourier-magnitude bound between a precomputed signature and a raw series."""
    from repro.index.fourier import fourier_signature, signature_distance

    return signature_distance(query_signature, fourier_signature(candidate))


_STRATEGIES = {
    "brute-force": brute_force_search,
    "early-abandon": early_abandon_search,
    "fft": fft_search,
    "wedge": wedge_search,
    "auto": auto_search,
}

#: Measures whose distance kernels run Python-level dynamic programs and
#: therefore hold the GIL; these gain from process-based parallelism, while
#: Euclidean's NumPy kernels release the GIL and prefer cheap threads.
_CPU_BOUND_MEASURES = frozenset({"dtw", "lcss"})


def _search_chunk(args) -> tuple[list[SearchResult], MetricsRegistry | None]:
    """Pool worker: run one strategy over a contiguous chunk of queries.

    Module-level (not a closure) so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it.  Each query gets its own :class:`StepCounter` inside the
    strategy call, so chunk results carry independent, exact accounting.

    When ``record_metrics`` is set, the chunk runs against a private
    per-worker :class:`MetricsRegistry` that rides back with the results;
    the parent folds the worker registries together with
    :meth:`MetricsRegistry.merge` -- the same reduce shape as
    :func:`merge_counters` for step counts.  (File-backed sinks like
    :class:`~repro.obs.querylog.QueryLogger` stay parent-side: handles do
    not pickle.)

    ``backend`` is the kernel backend name the *parent* resolved at submit
    time.  It must ride along explicitly: a process worker re-imports
    :mod:`repro.kernels` from scratch, so re-running the resolution chain
    there could pick a different backend than the parent (e.g. a worker
    whose environment dropped ``REPRO_KERNEL_BACKEND`` silently reverting
    to auto-selection).  Re-pinning the measure on worker init keeps every
    chunk on the backend the caller chose.
    """
    strategy, database, queries, measure, kwargs, record_metrics, backend = args
    if backend is not None:
        measure = measure.with_backend(backend)
    fn = _STRATEGIES[strategy]
    registry = MetricsRegistry() if record_metrics else None
    results = [
        fn(database, query, measure, metrics=registry, **kwargs) for query in queries
    ]
    return results, registry


def merge_counters(results) -> StepCounter:
    """Fold per-query counters into one aggregate.

    Accepts an iterable of :class:`SearchResult` objects or of bare
    :class:`StepCounter` instances.  The merged counter reports exactly the
    work a sequential loop over the same queries would have reported --
    parallel execution changes wall clock, never the step bookkeeping.
    """
    merged = StepCounter()
    for item in results:
        merged.merge(item.counter if isinstance(item, SearchResult) else item)
    return merged


def merge_neighbors(neighbor_lists, k: int) -> list:
    """Exact global top-K merge of per-partition k-NN result lists.

    The k-NN analogue of :func:`merge_counters`: each partition (shard)
    contributes its own canonical top-k neighbours (any objects with
    ``distance``/``index``/ordering attributes work -- typically
    :class:`repro.mining.queries.Neighbor` with partition-offset-adjusted
    global indices), and the merge keeps the first ``k`` under the
    canonical ``(distance, index)`` order.  Because every member of the
    global top-k is a member of its own partition's top-k, merging partial
    lists of length ``min(k, partition size)`` is exact -- zero false
    dismissals -- and ties break identically to a single-process
    :func:`repro.mining.queries.knn_search` over the concatenated data.
    Partitions smaller than ``k`` (or empty) simply contribute what they
    have.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    merged = sorted(
        (nb for partition in neighbor_lists for nb in partition),
        key=lambda nb: (nb.distance, nb.index),
    )
    return merged[:k]


def merge_range_hits(neighbor_lists) -> list:
    """Exact global merge of per-partition range-search hit lists.

    The range analogue of :func:`merge_neighbors`, and the **explicit
    contract** the sharded service's range path honours:

    * hits come back sorted by ascending global index (the same order a
      single-process :func:`repro.mining.queries.range_search` over the
      concatenated database reports);
    * each global index appears exactly once (partitions are normally
      disjoint, but duplicated indices across partitions are collapsed,
      keeping the smallest distance);
    * the merge is partition-invariant: any split of the database into
      shards -- including empty shards -- yields the identical hit list.

    Inclusion at exactly ``radius`` is decided shard-side by
    ``range_search``'s ``1e-12`` inclusive nudge; the merge never re-tests
    distances, so boundary hits survive sharding bit-for-bit.
    """
    by_index: dict = {}
    for partition in neighbor_lists:
        for nb in partition:
            held = by_index.get(nb.index)
            if held is None or nb.distance < held.distance:
                by_index[nb.index] = nb
    return [by_index[index] for index in sorted(by_index)]


def search_many(
    database: Sequence,
    queries: Sequence,
    measure: Measure,
    strategy: str = "wedge",
    n_jobs: int | None = None,
    executor: str | None = None,
    metrics: MetricsRegistry | None = None,
    query_log=None,
    backend: str | None = None,
    **strategy_kwargs,
) -> list[SearchResult]:
    """Answer many rotation-invariant 1-NN queries, optionally in parallel.

    Chunks ``queries`` across a :mod:`concurrent.futures` pool and runs the
    selected search strategy on each chunk.  Results come back in query
    order and are *identical* -- indices, distances, rotations, and full
    :class:`StepCounter` accounting -- to a sequential loop of the same
    strategy: queries are independent, so parallelism cannot introduce
    false dismissals.  Use :func:`merge_counters` for the aggregate cost.

    Parameters
    ----------
    database:
        The shared collection every query searches.
    queries:
        The query series (or pre-built :class:`RotationQuery` objects for
        the thread executor; process workers require picklable raw series).
    measure:
        The distance measure, shared by all workers (measures are
        stateless by contract).
    strategy:
        One of ``"wedge"``, ``"early-abandon"``, ``"fft"``,
        ``"brute-force"``, or ``"auto"`` (planner-routed).  For ``"auto"``
        the plan is resolved **once, parent-side** -- from an explicit
        ``plan`` kwarg, a ``planner`` kwarg, or the measure's default --
        and shipped to every pool worker, mirroring the backend
        propagation: a process worker must never re-plan on its own or
        chunks could run different plans.  A supplied ``planner`` stays
        parent-side and is fed every result's ``tier_stats`` after the
        pool drains.
    n_jobs:
        Pool size.  ``None`` or ``1`` runs sequentially in-process (still
        on the batched kernels); ``<= 0`` uses one worker per CPU.
    executor:
        ``"thread"``, ``"process"``, or ``None`` to choose automatically:
        processes for CPU-bound scalar dynamic programs (DTW, LCSS),
        threads for Euclidean, whose NumPy kernels release the GIL.
    metrics:
        Optional :class:`MetricsRegistry`.  Each pool worker records into
        a private registry; the parent merges them into this one after the
        pool drains, so counts equal a sequential run's (counters and
        histograms sum; merge order only affects gauges).
    query_log:
        Optional :class:`~repro.obs.querylog.QueryLogger`.  Records are
        written parent-side after results return (file handles do not
        cross process boundaries), one JSONL line per query in query
        order.
    backend:
        Kernel backend name for the distance kernels, or ``None`` to use
        the measure's own setting (then the env var / auto chain).  The
        parent resolves the effective backend once, before chunking, and
        pins every pool worker to it -- process workers re-import the
        kernel registry and would otherwise re-run the resolution chain
        themselves.
    **strategy_kwargs:
        Forwarded to the strategy (``mirror``, ``max_degrees``, ...).
        Do not pass a shared stateful ``k_policy`` instance when running
        in parallel; leave it ``None`` so each query builds its own.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGIES)}")
    if executor not in (None, "thread", "process"):
        raise ValueError(f"unknown executor {executor!r}; choose 'thread' or 'process'")
    queries = list(queries)
    if not queries:
        return []
    if backend is not None:
        measure = measure.with_backend(backend)
    # Resolve the effective backend once, parent-side, so every worker --
    # thread or subprocess -- runs the same kernels the caller selected.
    backend_name = measure.backend_name if measure.uses_kernel_backends else None
    planner: Planner | None = None
    if strategy == "auto":
        # Resolve the plan once, parent-side, and ship the frozen picklable
        # QueryPlan to every worker -- the same rule as backend_name above.
        planner = strategy_kwargs.pop("planner", None)
        plan = strategy_kwargs.get("plan")
        if plan is None:
            plan = planner.plan() if planner is not None else default_plan(measure)
        if plan.backend is None and backend_name is not None:
            from dataclasses import replace

            plan = replace(plan, backend=backend_name)
        strategy_kwargs["plan"] = plan
    if n_jobs is not None and n_jobs <= 0:
        n_jobs = os.cpu_count() or 1
    jobs = min(n_jobs or 1, len(queries))
    record_metrics = metrics is not None
    if jobs <= 1:
        results, registry = _search_chunk(
            (strategy, database, queries, measure, strategy_kwargs, record_metrics, backend_name)
        )
        if registry is not None:
            metrics.merge(registry)
        if planner is not None:
            for result in results:
                planner.observe(result.tier_stats)
        _log_batch(results, measure, query_log)
        return results

    if executor is None:
        executor = "process" if measure.name in _CPU_BOUND_MEASURES else "thread"
    chunk_size = math.ceil(len(queries) / jobs)
    chunks = [queries[start : start + chunk_size] for start in range(0, len(queries), chunk_size)]
    pool_cls = (
        concurrent.futures.ProcessPoolExecutor
        if executor == "process"
        else concurrent.futures.ThreadPoolExecutor
    )
    results = []
    with pool_cls(max_workers=jobs) as pool:
        futures = [
            pool.submit(
                _search_chunk,
                (strategy, database, chunk, measure, strategy_kwargs, record_metrics, backend_name),
            )
            for chunk in chunks
        ]
        for future in futures:  # submission order == query order
            chunk_results, registry = future.result()
            results.extend(chunk_results)
            if registry is not None:
                metrics.merge(registry)
    if planner is not None:
        for result in results:
            planner.observe(result.tier_stats)
    _log_batch(results, measure, query_log)
    return results


def _log_batch(results: list[SearchResult], measure: Measure, query_log) -> None:
    """Append one JSONL record per batch result (parent-side, query order)."""
    if query_log is None:
        return
    backend = measure.backend_name
    for result in results:
        extra = {"plan": result.plan} if getattr(result, "plan", None) else {}
        query_log.log_result(
            result, measure=measure.name, wall_seconds=None, backend=backend, **extra
        )
