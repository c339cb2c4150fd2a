"""Traced run: where the wrappers go, and the per-layer metrics they yield.

Times come from :mod:`spans`; counts come from what the program already
returns (reply ``steps``/``tier_stats``/``plan``, the ``health`` and
``metrics`` ops, ``StepCounter``).  A layer that a workload does not run
reports 0 -- for example the engine spans of a service workload, whose
engine runs inside the shard worker processes.
"""

from __future__ import annotations

import statistics
import threading

import numpy as np

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = [
    ("transport_ms.p50", "ms"),
    ("protocol.codec_ms", "ms"),
    ("server.handle_ms.p50", "ms"),
    ("server.wait_ms.p50", "ms"),
    ("server.batch_size.mean", "count"),
    ("merge.ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_ms", "ms"),
    ("worker.rtt_ms.p50", "ms"),
    ("worker.restarts", "count"),
    ("worker.retries", "count"),
    ("worker.deadline_exceeded", "count"),
    ("planner.plan_ms", "ms"),
    ("planner.plan_switches", "count"),
    ("planner.plans_seen", "count"),
    ("tier.leaf_candidates", "count"),
    ("tier.kim_rejections", "count"),
    ("tier.keogh_rejections", "count"),
    ("tier.improved_rejections", "count"),
    ("tier.full_computations", "count"),
    ("wedge_tree.build_ms", "ms"),
    ("hmerge.self_ms", "ms"),
    ("hmerge.calls", "count"),
    ("queries.self_ms", "ms"),
    ("envelope.ms", "ms"),
    ("envelope.cache_hit_ratio", "ratio"),
    ("bound.ms", "ms"),
    ("bound.calls", "count"),
    ("full_distance.ms", "ms"),
    ("full_distance.calls", "count"),
    ("prune_ratio", "ratio"),
    ("steps_per_query", "count"),
    ("index.build_s", "s"),
    ("persistence.save_s", "s"),
    ("persistence.load_s", "s"),
    ("shard.build_s", "s"),
    ("service.ready_s", "s"),
    ("trace.overhead_pct", "%"),
]

TIERS = ("leaf_candidates", "kim_rejections", "keogh_rejections", "improved_rejections", "full_computations")


# -- wrappers -------------------------------------------------------------


def wrap_library(recorder, measure) -> None:
    """Spans around the engine layers ``knn_search``/``range_search`` call."""
    import repro.mining.queries as queries
    from repro.core.search import RotationQuery
    from repro.core.wedge import Wedge

    recorder.wrap(queries, "h_merge", "hmerge")
    recorder.wrap(RotationQuery, "wedge_tree", "wedge_tree")
    recorder.wrap(Wedge, "envelope_for", "envelope")
    recorder.wrap(measure, "lower_bound", "bound")
    recorder.wrap(measure, "batch_wedge_bounds", "bound")
    recorder.wrap(measure, "distance", lambda *a, **k: ("full_distance", 1))
    recorder.wrap(measure, "batch_min_distance", lambda cand, rows, *a, **k: ("full_distance", len(rows)))


def wrap_service(recorder, pending) -> None:
    """Spans around the coordinator layers that run in this process."""
    import repro.core.search as search
    import repro.service.protocol as protocol
    import repro.service.worker as worker
    from repro.core.planner import Planner
    from repro.service.cache import AnswerCache
    from repro.service.server import ShardedSearchService

    def handle(service, message):
        if message.get("op") not in ("knn", "range"):
            return None
        return ("server.handle", 0, pending.claim(message))

    def coordinator_side(*args, **kwargs):
        # The client threads share this process and module; the service
        # loop and its executor threads are the coordinator.
        if threading.current_thread().name.startswith("repro-service"):
            return ("codec", 0)
        return None

    recorder.wrap(ShardedSearchService, "handle_request", handle)
    recorder.wrap(
        worker.SupervisedWorker,
        "request",
        lambda self, message, *a, **k: ("worker.request", 0) if message.get("op") == "search" else None,
    )
    recorder.wrap(search, "merge_neighbors", "merge")
    recorder.wrap(search, "merge_range_hits", "merge")
    recorder.wrap(AnswerCache, "get", "cache")
    recorder.wrap(AnswerCache, "put", "cache")
    recorder.wrap(Planner, "plan", "planner.plan")
    for module in (protocol, worker):
        recorder.wrap(module, "encode_payload", coordinator_side)
        recorder.wrap(module, "decode_payload", coordinator_side)


# -- span arithmetic ------------------------------------------------------


class SpanTable:
    def __init__(self, cols: dict):
        self.names = [str(name) for name in cols["names"]]
        self.name = cols["name"]
        self.start = cols["start"]
        self.end = cols["end"]
        self.parent = cols["parent"]
        self.rid = cols["rid"]
        self.pairs = cols["pairs"]
        self.duration = self.end - self.start

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(name) for name in names if name in self.names]
        return np.isin(self.name, ids)

    def outermost(self, *names) -> np.ndarray:
        """Spans of ``names`` not nested inside another span of ``names``."""
        hit = self.mask(*names)
        nested = np.zeros_like(hit)
        has_parent = self.parent >= 0
        nested[has_parent] = hit[self.parent[has_parent]]
        return hit & ~nested

    def self_time(self, name: str) -> np.ndarray:
        """Duration minus the time its child spans cover (children are nested)."""
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=self.duration.size
        )
        hit = self.mask(name)
        return (self.duration - covered)[hit]


def _union(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(starts, kind="stable")
    merged_s, merged_e = [], []
    for s, e in zip(starts[order], ends[order]):
        if merged_e and s <= merged_e[-1]:
            merged_e[-1] = max(merged_e[-1], e)
        else:
            merged_s.append(s)
            merged_e.append(e)
    return np.array(merged_s), np.array(merged_e)


def _covered(starts, ends, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Length of each ``[lo, hi]`` covered by the disjoint sorted intervals."""
    if starts.size == 0:
        return np.zeros_like(lo)
    lengths = ends - starts
    prefix = np.concatenate([[0.0], np.cumsum(lengths)])

    def upto(t):
        i = np.searchsorted(starts, t, side="right")
        partial = np.clip(t - starts[np.maximum(i - 1, 0)], 0.0, lengths[np.maximum(i - 1, 0)])
        return prefix[np.maximum(i - 1, 0)] + np.where(i > 0, partial, 0.0)

    return upto(hi) - upto(lo)


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


def library_layers(table: SpanTable, outcomes, objects: int, rotations: int) -> dict:
    queries = max(len(outcomes), 1)
    per_query_ms = lambda seconds: float(np.sum(seconds)) * 1e3 / queries  # noqa: E731
    bound = table.outermost("bound")
    full = table.outermost("full_distance")
    hits = sum(o.envelope_hits for o in outcomes)
    misses = sum(o.envelope_misses for o in outcomes)
    return {
        "wedge_tree.build_ms": per_query_ms(table.duration[table.mask("wedge_tree")]),
        "hmerge.self_ms": per_query_ms(table.self_time("hmerge")),
        "hmerge.calls": float(table.mask("hmerge").sum()) / queries,
        "queries.self_ms": per_query_ms(table.self_time("queries")),
        "envelope.ms": per_query_ms(table.duration[table.outermost("envelope")]),
        "envelope.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bound.ms": per_query_ms(table.duration[bound]),
        "bound.calls": float(bound.sum()) / queries,
        "full_distance.ms": per_query_ms(table.duration[full]),
        "full_distance.calls": float(full.sum()) / queries,
        "prune_ratio": 1.0 - float(table.pairs[full].sum()) / (queries * objects * rotations),
        "steps_per_query": sum(o.steps for o in outcomes) / queries,
    }


def service_layers(table: SpanTable, outcomes, objects: int, rotations: int) -> dict:
    requests = max(len(outcomes), 1)
    handle = table.mask("server.handle")
    handle_by_rid = {
        int(rid): float(duration)
        for rid, duration in zip(table.rid[handle], table.duration[handle])
        if rid >= 0
    }
    rtt = table.mask("client.rtt")
    transport = [
        float(duration) - handle_by_rid[int(rid)]
        for rid, duration in zip(table.rid[rtt], table.duration[rtt])
        if int(rid) in handle_by_rid
    ]
    inner = table.mask("worker.request", "merge", "cache")
    starts, ends = _union(table.start[inner], table.end[inner])
    waits = table.duration[handle] - _covered(starts, ends, table.start[handle], table.end[handle])
    computed = [o for o in outcomes if o.reply.get("ok") and not o.reply.get("cached")]
    per_computed = max(len(computed), 1)
    tiers = {
        f"tier.{tier}": sum(o.reply.get("tier_stats", {}).get(tier, 0) for o in computed) / per_computed
        for tier in TIERS
    }
    full = tiers["tier.full_computations"]
    return {
        "transport_ms.p50": _median_ms(transport),
        "protocol.codec_ms": float(table.duration[table.mask("codec")].sum()) * 1e3 / requests,
        "server.handle_ms.p50": _median_ms(table.duration[handle]),
        "server.wait_ms.p50": _median_ms(waits),
        "merge.ms": float(table.duration[table.mask("merge")].sum()) * 1e3 / requests,
        "cache.lookup_ms": float(table.duration[table.mask("cache")].sum()) * 1e3 / requests,
        "worker.rtt_ms.p50": _median_ms(table.duration[table.mask("worker.request")]),
        "planner.plan_ms": float(table.duration[table.mask("planner.plan")].sum()) * 1e3 / requests,
        "planner.plans_seen": float(len({o.reply.get("plan") for o in computed})),
        **tiers,
        "full_distance.calls": full,
        "prune_ratio": 1.0 - full / (objects * rotations) if computed else 0.0,
        "steps_per_query": sum(o.steps for o in computed) / per_computed,
    }
