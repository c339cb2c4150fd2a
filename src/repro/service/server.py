"""The asyncio coordinator: micro-batching, fan-out, exact global merge.

Request lifecycle: a TCP frame lands in :meth:`ShardedSearchService.
handle_request`, which enqueues it; the dispatcher coroutine drains the
queue into a micro-batch (everything that arrives within ``batch_window``
seconds, capped at ``max_batch`` -- the service-side analogue of
``search_many``'s query chunks), resolves cache hits, computes each
distinct miss **once**, and fans the chunk out to every shard worker in
parallel.  Each worker returns its shard's canonical top-k (global
indices, exact distances); the coordinator folds them with
:func:`repro.core.search.merge_neighbors`, whose ``(distance, index)``
tie-break makes the merged answer bit-identical to a single-process
``knn_search`` over the concatenated data.

Failure model (the self-healing layer):

* Workers are :class:`~repro.service.worker.SupervisedWorker` state
  machines: a dead worker is respawned with capped exponential backoff
  and the in-flight chunk replayed once; a background **monitor thread**
  resurrects silently dead workers between requests; a shard that fails
  ``RestartPolicy.degrade_after`` times in a row is marked *degraded*
  and stops consuming restarts.
* Every query carries a **deadline** (``timeout_ms``, default the
  service's ``request_timeout``): the coordinator splits the remaining
  budget across the initial fan-out and ``retry_budget`` bounded retries
  of shards that died or timed out, and ships the slice to the worker as
  ``budget_seconds`` so a worker stops computing once the budget is spent.
* A shard that stays unanswerable fails the affected queries with a
  structured error -- unless the request opted in with
  ``allow_partial=true``, in which case the reply is the **exact** merge
  over the shards that did answer, flagged ``partial`` with a
  ``missing_shards`` list.  Exactness over reachable data is preserved
  bit for bit; partial answers are never cached.

Metrics: the coordinator keeps its own registry (request counts, batch
sizes, worker deaths/restarts/degradations, retries, deadline misses,
partial results, restart-latency histogram) and answers the ``metrics``
op by pulling each *reachable* worker's snapshot, rebuilding it with
``registry_from_dict``, and folding everything into one Prometheus
exposition.  The ``health`` op reports the supervisor state machine
per shard without touching the workers at all.
"""

from __future__ import annotations

import asyncio
import atexit
import contextlib
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.block import bound_tiers
from repro.obs.metrics import MetricsRegistry, registry_from_dict
from repro.obs.slo import SloEngine, SloThresholds
from repro.obs.trace import Tracer, new_span_id
from repro.service.cache import AnswerCache
from repro.service.faults import FaultPlan
from repro.service.telemetry import TelemetryServer, TraceBuffer
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    measure_to_spec,
    read_frame,
    write_frame,
)
from repro.service.shard import load_manifest
from repro.service.worker import (
    RestartPolicy,
    ShardDegradedError,
    SupervisedWorker,
    WorkerDiedError,
)

__all__ = ["ServiceHandle", "ShardedSearchService", "serve", "start_service_thread"]

#: Batch-size histogram buckets (requests per micro-batch).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Floor on a per-worker wait slice so a retry attempt is never handed a
#: microscopic timeout by rounding.
MIN_SLICE_SECONDS = 0.05

_error = error_response

#: Keys of a normalized request that are coordinator-internal and must
#: not ride the worker pipes.
_COORDINATOR_KEYS = ("deadline", "allow_partial")


class ShardedSearchService:
    """Coordinator over one shard set: workers, cache, merge, metrics."""

    def __init__(
        self,
        shards_dir,
        measure,
        *,
        cache_size: int = 1024,
        batch_window: float = 0.002,
        max_batch: int = 64,
        request_timeout: float = 120.0,
        query_log=None,
        restart_policy: RestartPolicy | None = None,
        retry_budget: int = 1,
        monitor_interval: float = 0.25,
        fault_plan: FaultPlan | None = None,
        tracing: bool = True,
        trace_recent: int = 16,
        trace_slowest: int = 16,
        trace_max_spans: int = 20_000,
        worker_trace_max_spans: int = 4096,
        slo_thresholds: SloThresholds | None = None,
    ):
        self.manifest = load_manifest(shards_dir)
        self.measure = measure
        self.measure_spec = measure_to_spec(measure)
        #: Resolved once here and shipped to every worker by name, so the
        #: whole service provably runs one backend (satellite: stamped
        #: into query-log records and benchmark provenance).
        self.backend = self.measure_spec.get("backend", measure.backend_name)
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.request_timeout = request_timeout
        self.retry_budget = max(0, int(retry_budget))
        self.monitor_interval = monitor_interval
        self.restart_policy = restart_policy if restart_policy is not None else RestartPolicy()
        #: Chaos hook: an explicit plan wins, else ``REPRO_FAULT_SPEC``.
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.cache = AnswerCache(cache_size) if cache_size else None
        self.query_log = query_log
        self.registry = MetricsRegistry()
        self._requests_total = self.registry.counter(
            "service_requests_total", "Requests accepted by the front-end"
        )
        self._batch_sizes = self.registry.histogram(
            "service_batch_size", "Queries per micro-batch", buckets=BATCH_BUCKETS
        )
        self._worker_deaths = self.registry.counter(
            "service_worker_deaths_total", "Shard workers observed dead"
        )
        self._shard_retries = self.registry.counter(
            "service_shard_retries_total", "Shard chunks retried after a death or timeout"
        )
        self._deadline_exceeded = self.registry.counter(
            "service_deadline_exceeded_total", "Requests that ran out of deadline budget"
        )
        self._partial_results = self.registry.counter(
            "service_partial_results_total", "Replies served as exact merges over surviving shards"
        )
        self._cache_served = self.registry.counter(
            "service_cache_served_total",
            "Replies replayed from the answer cache",
        )
        self._trace_dropped_spans = self.registry.counter(
            "service_trace_dropped_spans_total",
            "Spans discarded at a tracer cap (coordinator or worker side)",
        )
        self._traces_total = self.registry.counter(
            "service_traces_total", "Stitched cross-process traces recorded"
        )
        #: Tracing is observation-only: answers and step counts are
        #: bit-identical with it on or off (regression-tested).
        self.tracing = bool(tracing)
        self.trace_max_spans = trace_max_spans
        self.worker_trace_max_spans = worker_trace_max_spans
        self.traces = TraceBuffer(recent=trace_recent, slowest=trace_slowest, errors=trace_recent)
        self.slo = SloEngine(thresholds=slo_thresholds)
        self.telemetry: TelemetryServer | None = None
        self._current_trace_id: str | None = None
        self._restarts_seen: dict[int, int] = {}
        self._degraded_seen: set[int] = set()
        self.workers = [
            SupervisedWorker(
                info.shard_id,
                self.manifest.shard_path(info.shard_id),
                info.offset,
                self.measure_spec,
                policy=self.restart_policy,
                registry=self.registry,
                fault_plan=self.fault_plan,
            )
            for info in self.manifest.shards
        ]
        # Two slots per worker: one for in-flight search chunks, one so a
        # metrics snapshot is never queued behind a long chunk.
        self._executor = ThreadPoolExecutor(
            max_workers=2 * len(self.workers), thread_name_prefix="repro-service"
        )
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self.shutdown_event: asyncio.Event | None = None
        self._query_seq = 0
        self._handler_tasks: set = set()
        self._client_writers: set = set()
        self._monitor_thread: threading.Thread | None = None
        self._monitor_stop = threading.Event()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the dispatcher to the running loop (idempotent)."""
        if self._dispatcher is None:
            self._queue = asyncio.Queue()
            self.shutdown_event = asyncio.Event()
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if self._monitor_thread is None and self.monitor_interval > 0:
            self._monitor_stop.clear()
            self._monitor_thread = threading.Thread(
                target=self._monitor_loop, name="repro-service-monitor", daemon=True
            )
            self._monitor_thread.start()

    def _monitor_loop(self) -> None:
        """Poll worker liveness so dead shards heal without traffic."""
        while not self._monitor_stop.wait(self.monitor_interval):
            for worker in self.workers:
                try:
                    worker.check()
                except Exception:  # pragma: no cover - monitor must never die
                    pass
            self._window_worker_events()

    def _window_worker_events(self) -> None:
        """Feed restart/degradation deltas into the SLO sliding windows."""
        for worker in self.workers:
            seen = self._restarts_seen.get(worker.shard_id, 0)
            if worker.restarts > seen:
                self.slo.record_event("restarts", worker.restarts - seen, shard=worker.shard_id)
                self._restarts_seen[worker.shard_id] = worker.restarts
            if worker.state == "degraded" and worker.shard_id not in self._degraded_seen:
                self._degraded_seen.add(worker.shard_id)
                self.slo.record_event("degraded", 1, shard=worker.shard_id)

    async def aclose(self) -> None:
        """Stop the dispatcher and every worker; fail leftover requests."""
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(5)
            self._monitor_thread = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        if self.telemetry is not None:
            self.telemetry.close()
            self.telemetry = None
        if self._queue is not None:
            while not self._queue.empty():
                _, fut, _ = self._queue.get_nowait()
                if not fut.done():
                    fut.set_result(_error("shutdown", "service is shutting down"))
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(loop.run_in_executor(self._executor, worker.stop) for worker in self.workers),
            return_exceptions=True,
        )
        self._executor.shutdown(wait=True)

    def reap_workers(self) -> None:
        """Last-resort synchronous cleanup: kill any surviving children.

        Registered via ``atexit`` by :func:`run_service` so an interpreter
        that exits without the graceful path (an exception past the loop,
        a signal handled as a plain exit) never leaves orphaned shard
        workers burning CPU.  Safe to call repeatedly.
        """
        self._monitor_stop.set()
        for supervisor in self.workers:
            try:
                process = supervisor.worker.process
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(2)
            except Exception:
                pass

    # -- request entry ------------------------------------------------

    async def handle_request(self, message: dict) -> dict:
        """Answer one decoded request message (any op)."""
        op = message.get("op")
        self._requests_total.inc(1, op=str(op))
        if op == "ping":
            return {
                "ok": True,
                "server": "repro-service",
                "protocol": PROTOCOL_VERSION,
                "shards": self.manifest.n_shards,
                "objects": self.manifest.objects,
                "length": self.manifest.length,
                "measure": self.measure.name,
                "backend": self.backend,
                "cache": self.cache is not None,
            }
        if op == "health":
            return self._health_response()
        if op == "metrics":
            return await self._metrics_response()
        if op == "shutdown":
            if self.shutdown_event is not None:
                self.shutdown_event.set()
            return {"ok": True, "message": "shutting down"}
        if op in ("knn", "range"):
            if self._queue is None:
                return _error("not-started", "service dispatcher is not running")
            fut = asyncio.get_running_loop().create_future()
            accepted = time.perf_counter()
            await self._queue.put((message, fut, accepted))
            response = await fut
            self.slo.record(
                time.perf_counter() - accepted,
                error=not response.get("ok", False),
                cached=bool(response.get("cached", False)),
            )
            return response
        return _error("bad-request", f"unknown op {op!r}")

    # -- dispatcher ---------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            if self.batch_window > 0:
                # Let concurrently arriving requests join this batch.
                await asyncio.sleep(self.batch_window)
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._run_batch(batch)
            except Exception as exc:  # pragma: no cover - defensive
                for _, fut, _ in batch:
                    if not fut.done():
                        fut.set_result(_error("internal", repr(exc)))

    def _normalize(self, message: dict) -> dict:
        """Validate a knn/range message into the request shipped to workers.

        Everything a worker could not answer is refused here as
        ``bad-request``: a query of the wrong length or with a non-finite
        value, ``k < 1``, a NaN, infinite or negative ``radius`` or
        ``max_degrees``, and a non-positive or non-finite ``timeout_ms``.
        """
        kind = message["op"]
        query = message.get("query")
        if not isinstance(query, list) or not query:
            raise ValueError("query must be a non-empty list of numbers")
        if len(query) != self.manifest.length:
            raise ValueError(
                f"query length {len(query)} != shard set length {self.manifest.length}"
            )
        values = [float(x) for x in query]
        if not all(math.isfinite(x) for x in values):
            raise ValueError("query values must be finite numbers")
        timeout_ms = message.get("timeout_ms")
        if timeout_ms is None:
            budget = self.request_timeout
        else:
            budget = float(timeout_ms) / 1000.0
            if not math.isfinite(budget) or budget <= 0:
                raise ValueError(f"timeout_ms must be a positive finite number, got {timeout_ms}")
        max_degrees = message.get("max_degrees")
        if max_degrees is not None:
            max_degrees = float(max_degrees)
            if not (math.isfinite(max_degrees) and max_degrees >= 0):
                raise ValueError(f"max_degrees must be a non-negative finite number, got {max_degrees}")
        request = {
            "kind": kind,
            "query": values,
            "mirror": bool(message.get("mirror", False)),
            "max_degrees": max_degrees,
            "allow_partial": bool(message.get("allow_partial", False)),
            "deadline": time.monotonic() + budget,
        }
        if kind == "knn":
            k = int(message.get("k", 1))
            if k < 1:
                raise ValueError(f"k must be positive, got {k}")
            request["k"] = k
        else:
            radius = float(message["radius"])
            if not (math.isfinite(radius) and radius >= 0):
                raise ValueError(f"radius must be a non-negative finite number, got {radius}")
            request["radius"] = radius
        return request

    def _cache_key(self, request: dict) -> tuple:
        knobs = {
            "mirror": request["mirror"],
            "max_degrees": request["max_degrees"],
        }
        if request["kind"] == "knn":
            knobs["k"] = request["k"]
        else:
            knobs["radius"] = request["radius"]
        # The shard-manifest checksum scopes every entry to this exact
        # shard set: a re-sharded or rebuilt dataset can never serve a
        # stale answer, even through a process that kept its cache.
        return AnswerCache.make_key(
            request["kind"],
            request["query"],
            self.measure,
            scope=self.manifest.checksum,
            **knobs,
        )

    async def _run_batch(self, batch: list) -> None:
        self._batch_sizes.observe(len(batch))
        # One stitched trace per micro-batch: the batch root span, a
        # queue-wait span per member, fan-out spans per shard attempt
        # (with worker subtrees rebased in), and the merge.  Tracing is
        # observation-only; every branch below behaves identically with
        # ``tracer is None``.
        tracer: Tracer | None = None
        batch_span = None
        batch_start = time.perf_counter()
        if self.tracing:
            tracer = Tracer(max_spans=self.trace_max_spans)
            batch_span = tracer.span("service.batch", batch_size=len(batch))
        self._current_trace_id = tracer.trace_id if tracer is not None else None
        jobs: list[dict] = []  # distinct requests to actually compute
        job_keys: list[tuple | None] = []
        job_by_key: dict[tuple, int] = {}
        plans: list[tuple] = []  # per batch item: ("done", resp) | ("job", idx, req)
        for message, _fut, enqueued_at in batch:
            if tracer is not None:
                tracer.attach(
                    batch_span,
                    "queue.wait",
                    enqueued_at,
                    batch_start,
                    op=str(message.get("op")),
                    queue_ms=round((batch_start - enqueued_at) * 1e3, 3),
                )
            try:
                request = self._normalize(message)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                plans.append(("done", _error("bad-request", str(exc))))
                continue
            if request["deadline"] <= time.monotonic():
                self._deadline_exceeded.inc(1)
                self.slo.record_event("deadline_exceeded")
                plans.append(
                    ("done", _error("deadline-exceeded", "deadline expired before dispatch"))
                )
                continue
            use_cache = self.cache is not None and not message.get("no_cache", False)
            key = self._cache_key(request) if use_cache else None
            if use_cache:
                cached = self.cache.get(key)
                if cached is not None:
                    if tracer is not None:
                        tracer.event("cache.hit", kind=request["kind"])
                    self._cache_served.inc(1, kind=request["kind"])
                    response = {**cached, "ok": True, "cached": True}
                    self._log_query(request, response)
                    plans.append(("done", response))
                    continue
                if key in job_by_key:
                    # Identical query already in this batch: compute once.
                    plans.append(("job", job_by_key[key], request))
                    continue
                job_by_key[key] = len(jobs)
            plans.append(("job", len(jobs), request))
            jobs.append(request)
            job_keys.append(key)

        answers: list[dict | None] = []
        missing: list[tuple[int, dict]] = []  # (shard_id, structured error)
        if jobs:
            outcomes, wall = await self._fan_out(jobs, tracer, batch_span)
            ok_replies = [
                outcome for _status, outcome in (outcomes[w.shard_id] for w in self.workers)
                if _status == "ok"
            ]
            missing = [
                (w.shard_id, outcome)
                for w in self.workers
                for _status, outcome in (outcomes[w.shard_id],)
                if _status != "ok"
            ]
            missing_ids = [shard_id for shard_id, _ in missing]
            merge_start = time.perf_counter()
            for j, request in enumerate(jobs):
                if not ok_replies:
                    answers.append(None)
                    continue
                answer = self._merge_job(request, j, ok_replies, wall, missing_ids)
                if job_keys[j] is not None and not missing and "error" not in answer:
                    # Partial answers and failed requests are never cached:
                    # the cache must only ever serve the full exact merge.
                    self.cache.put(job_keys[j], answer)
                answers.append(answer)
            if tracer is not None:
                tracer.attach(
                    batch_span,
                    "coordinator.merge",
                    merge_start,
                    time.perf_counter(),
                    jobs=len(jobs),
                    shards_answered=len(ok_replies),
                )

        batch_error = False
        for (message, fut, _enqueued_at), plan in zip(batch, plans):
            if fut.done():
                continue
            if plan[0] == "done":
                response = plan[1]
            else:
                _tag, idx, request = plan
                response = self._job_response(request, answers[idx], missing)
            if not response.get("ok", False):
                batch_error = True
            fut.set_result(response)

        if tracer is not None:
            batch_span.set(jobs=len(jobs))
            if batch_error:
                batch_span.set(error=True)
            batch_span.__exit__(None, None, None)
            self._record_trace(tracer, batch_span, len(batch), batch_error, missing)
            self._current_trace_id = None

    def _record_trace(self, tracer, batch_span, batch_size: int, error: bool, missing: list) -> None:
        """Fold one finished batch's trace into the ring buffers + metrics."""
        self._traces_total.inc(1)
        if tracer.dropped:
            self._trace_dropped_spans.inc(tracer.dropped, side="coordinator")
        entry = {
            "trace_id": tracer.trace_id,
            "wall_seconds": batch_span.duration,
            "batch_size": batch_size,
            "error": error,
            "missing_shards": [shard_id for shard_id, _ in missing],
            "dropped_spans": tracer.dropped,
            "trace": tracer.to_dict(),
        }
        self.traces.add(entry)

    def _job_response(self, request: dict, answer: dict | None, missing: list) -> dict:
        """Decide one message's reply from its job answer + missing shards."""
        if answer is not None and "error" in answer:
            return answer  # the request itself failed on the workers
        if not missing:
            response = {**answer, "ok": True, "cached": False}
            self._log_query(request, response)
            return response
        missing_ids = [shard_id for shard_id, _ in missing]
        if answer is not None and request["allow_partial"]:
            self._partial_results.inc(1)
            response = {**answer, "ok": True, "cached": False}
            self._log_query(request, response)
            return response
        # Surface the first failing shard's structured error, annotated
        # with the full missing set so the caller knows the blast radius.
        first_error = missing[0][1]["error"]
        if first_error["type"] == "deadline-exceeded":
            self._deadline_exceeded.inc(1)
            self.slo.record_event("deadline_exceeded")
        return {
            "ok": False,
            "error": {**first_error, "missing_shards": missing_ids},
        }

    def _timed_request(self, worker, chunk: dict, timeout: float):
        """Executor-thread wrapper: round-trip one shard, never raise.

        Returns ``(reply_or_exception, start, end, attempt_log)`` on the
        coordinator's ``perf_counter`` clock, so the fan-out can build
        trace spans for the attempt (and any supervisor replay) after
        the fact without a barrier between concurrent shards.
        """
        attempt_log: list = []
        start = time.perf_counter()
        try:
            reply = worker.request(chunk, timeout, attempt_log)
        except Exception as exc:
            return exc, start, time.perf_counter(), attempt_log
        return reply, start, time.perf_counter(), attempt_log

    def _stitch_shard(self, tracer, batch_span, worker, span_id, result, attempt, status) -> None:
        """Attach one shard attempt's spans (and worker subtree) to the trace."""
        reply, t0, t1, attempt_log = result
        fanout = tracer.attach(
            batch_span,
            "fanout.shard",
            t0,
            t1,
            span_id=span_id,
            shard=worker.shard_id,
            attempt=attempt,
            status=status,
        )
        if fanout is None:
            return
        for note in attempt_log:
            attrs = {"outcome": note["outcome"]}
            if note["error"]:
                attrs["error"] = note["error"]
            tracer.attach(fanout, f"worker.{note['phase']}", note["start"], note["end"], **attrs)
        worker_trace = reply.get("trace") if isinstance(reply, dict) else None
        if worker_trace is not None:
            # Rebase the worker's private clock onto ours: its subtree
            # started (one pipe transit after) the successful round-trip
            # began.  The leftover gap is the pipe + queue transit.
            ok_notes = [note for note in attempt_log if note["outcome"] == "ok"]
            local_start = ok_notes[-1]["start"] if ok_notes else t0
            local_end = ok_notes[-1]["end"] if ok_notes else t1
            shift = local_start - worker_trace["start"]
            transit = (local_end - local_start) - worker_trace.get("duration", 0.0)
            stitched = tracer.attach_tree(fanout, worker_trace, shift=shift)
            if stitched is not None:
                stitched.set(transit_ms=round(max(transit, 0.0) * 1e3, 3))
        dropped = reply.get("dropped_spans", 0) if isinstance(reply, dict) else 0
        if dropped:
            tracer.dropped += dropped
            self._trace_dropped_spans.inc(dropped, side="worker")

    async def _fan_out(self, jobs: list[dict], tracer=None, batch_span=None):
        """Ship one chunk to every worker, retrying failed shards once.

        Returns ``(outcomes, wall)`` where ``outcomes`` maps shard id to
        ``(status, payload)``: ``("ok", reply)`` for answered shards, or a
        failure status with a structured error.  The deadline budget (the
        tightest in the batch -- members arrive within one 2 ms window) is
        split across the initial attempt and ``retry_budget`` retries.

        With ``tracer`` set, each shard's chunk carries a trace context
        (``trace_id`` + a pre-minted fan-out span id as the worker's
        parent) and the reply's span subtree is stitched under a
        ``fanout.shard`` span recording attempt timing, retries, replays,
        and pipe transit.
        """
        loop = asyncio.get_running_loop()
        wire = [{k: v for k, v in job.items() if k not in _COORDINATOR_KEYS} for job in jobs]
        deadline = min(job["deadline"] for job in jobs)
        start = time.perf_counter()
        outcomes: dict[int, tuple[str, dict]] = {}
        ask = list(self.workers)
        for attempt in range(self.retry_budget + 1):
            if not ask:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            reserve = self.retry_budget - attempt
            if reserve > 0:
                slice_timeout = min(
                    remaining, max(remaining / (reserve + 1), MIN_SLICE_SECONDS)
                )
            else:
                slice_timeout = remaining
            base_chunk = {"op": "search", "requests": wire, "budget_seconds": slice_timeout}
            span_ids: list[str | None] = []
            calls = []
            for worker in ask:
                if tracer is not None:
                    span_id = new_span_id()
                    chunk = {
                        **base_chunk,
                        "trace": {
                            "trace_id": tracer.trace_id,
                            "parent_id": span_id,
                            "max_spans": self.worker_trace_max_spans,
                        },
                    }
                else:
                    span_id = None
                    chunk = base_chunk
                span_ids.append(span_id)
                calls.append(
                    loop.run_in_executor(self._executor, self._timed_request, worker, chunk, slice_timeout)
                )
            results = await asyncio.gather(*calls, return_exceptions=True)
            retry: list = []
            for worker, span_id, result in zip(ask, span_ids, results):
                if isinstance(result, BaseException):  # executor itself failed
                    result = (result, start, time.perf_counter(), [])
                reply = result[0]
                status, outcome = self._classify(worker, reply)
                if tracer is not None:
                    self._stitch_shard(tracer, batch_span, worker, span_id, result, attempt, status)
                if status in ("died", "timeout") and attempt < self.retry_budget:
                    self._shard_retries.inc(1, shard=str(worker.shard_id))
                    self.slo.record_event("shard_retries", shard=worker.shard_id)
                    retry.append(worker)
                else:
                    outcomes[worker.shard_id] = (status, outcome)
            ask = retry
        for worker in ask:
            # Deadline spent before this shard's (re)try could run.
            self.slo.record_event("deadline_exceeded", shard=worker.shard_id)
            if tracer is not None:
                now = time.perf_counter()
                tracer.attach(
                    batch_span,
                    "fanout.shard",
                    now,
                    now,
                    shard=worker.shard_id,
                    status="deadline-exhausted",
                )
            outcomes[worker.shard_id] = (
                "timeout",
                _error(
                    "deadline-exceeded",
                    f"deadline exhausted before shard {worker.shard_id} answered",
                    shard=worker.shard_id,
                ),
            )
        wall = time.perf_counter() - start
        return outcomes, wall

    def _classify(self, worker, reply) -> tuple[str, dict]:
        """Map one shard's raw fan-out result to ``(status, payload)``."""
        shard = worker.shard_id
        if isinstance(reply, dict):
            if reply.get("ok"):
                return ("ok", reply)
            if reply.get("error_type") == "deadline-exceeded":
                return (
                    "timeout",
                    _error("worker-timeout", str(reply.get("error")), shard=shard),
                )
            return (
                "fatal",
                _error(
                    "worker-error",
                    str(reply.get("error", "unknown worker error")),
                    shard=shard,
                ),
            )
        if isinstance(reply, WorkerDiedError):
            self._worker_deaths.inc(1, shard=str(reply.shard_id))
            self.slo.record_event("worker_deaths", shard=reply.shard_id)
            return (
                "died",
                _error(
                    "worker-died",
                    f"shard worker {reply.shard_id} died mid-query: {reply}",
                    shard=reply.shard_id,
                ),
            )
        if isinstance(reply, ShardDegradedError):
            return ("fatal", _error("shard-degraded", str(reply), shard=shard))
        if isinstance(reply, TimeoutError):
            return ("timeout", _error("worker-timeout", str(reply), shard=shard))
        return ("fatal", _error("internal", repr(reply), shard=shard))

    def _merge_job(
        self,
        request: dict,
        j: int,
        shard_replies: list,
        wall: float,
        missing_ids: list[int] | None = None,
    ) -> dict:
        from repro.core.search import merge_neighbors, merge_range_hits
        from repro.mining.queries import Neighbor

        entries = [reply["results"][j] for reply in shard_replies]
        for entry in entries:
            if "error" in entry:
                # The request raised on a worker; the rest of the batch
                # was still answered.
                return _error(entry["error_type"], entry["error"])
        partials = [
            [Neighbor(int(i), float(d), int(rot)) for i, d, rot in entry["neighbors"]]
            for entry in entries
        ]
        if request["kind"] == "knn":
            merged = merge_neighbors(partials, request["k"])
        else:
            # The explicit sharded range contract: ascending global index,
            # deduplicated, partition-invariant (see merge_range_hits).
            merged = merge_range_hits(partials)
        steps = sum(entry["steps"] for entry in entries)
        answer = {
            "kind": request["kind"],
            "neighbors": [[nb.index, nb.distance, nb.rotation] for nb in merged],
            "steps": steps,
            "wall_seconds": wall,
            "shards": self.manifest.n_shards,
            "shards_answered": len(shard_replies),
            "partial": bool(missing_ids),
            "backend": self.backend,
            "measure": self.measure.name,
        }
        tier_totals: dict[str, int] = {}
        for entry in entries:
            for key, value in entry["tier_stats"].items():
                tier_totals[key] = tier_totals.get(key, 0) + int(value)
        answer["tier_stats"] = tier_totals
        if missing_ids:
            answer["missing_shards"] = list(missing_ids)
        return answer

    def _log_query(self, request: dict, response: dict) -> None:
        if self.query_log is None:
            return
        self._query_seq += 1
        top = response["neighbors"][0] if response["neighbors"] else None
        self.query_log.log(
            {
                "query_id": f"svc-{self._query_seq:06d}",
                # Joins this record against the stitched trace in
                # /traces/recent (None with tracing disabled).
                "trace_id": self._current_trace_id,
                "op": request["kind"],
                "measure": self.measure.name,
                "backend": self.backend,
                "shards": self.manifest.n_shards,
                "cached": response.get("cached", False),
                "partial": response.get("partial", False),
                "k": request.get("k"),
                "radius": request.get("radius"),
                "steps": response["steps"],
                "wall_seconds": response["wall_seconds"],
                "n_results": len(response["neighbors"]),
                "result_index": top[0] if top else None,
                "distance": top[1] if top else None,
                "rotation": top[2] if top else None,
            }
        )

    # -- health and metrics -------------------------------------------

    def _health_response(self) -> dict:
        """Supervisor state per shard, plus resilience counters.

        Never touches the workers themselves -- health must stay cheap
        and answerable even while every shard is crash-looping.
        """
        shards = [worker.describe() for worker in self.workers]
        states = {entry["state"] for entry in shards}
        if "degraded" in states:
            status = "degraded"
        elif "restarting" in states:
            status = "restarting"
        else:
            status = "ok"
        slo_snapshot = self.slo.snapshot()
        return {
            # No planner runs here: the block engine's tiers are fixed by
            # the measure.  The block stays because perfbench/run.py reads
            # ``health["planner"]`` on every run.
            "planner": {"mode": "fixed", "plan": "block:" + ">".join(bound_tiers(self.measure))},
            "slo": {"alerts": self.slo.alerts(slo_snapshot), "windows": slo_snapshot},
            "ok": True,
            "server": "repro-service",
            "protocol": PROTOCOL_VERSION,
            "status": status,
            "shards": shards,
            "restarts": sum(entry["restarts"] for entry in shards),
            "counters": {
                "worker_deaths": self._worker_deaths.total(),
                "worker_restarts": self.registry.counter(
                    "service_worker_restarts_total"
                ).total(),
                "shard_retries": self._shard_retries.total(),
                "deadline_exceeded": self._deadline_exceeded.total(),
                "partial_results": self._partial_results.total(),
            },
        }

    async def _metrics_response(self) -> dict:
        loop = asyncio.get_running_loop()
        replies = await asyncio.gather(
            *(
                loop.run_in_executor(
                    self._executor, worker.request, {"op": "metrics"}, self.request_timeout
                )
                for worker in self.workers
            ),
            return_exceptions=True,
        )
        merged = MetricsRegistry()
        unreachable: list[int] = []
        for worker, reply in zip(self.workers, replies):
            # A dead or degraded shard must not take /metrics down with
            # it: fold what is reachable and name the rest.
            if isinstance(reply, WorkerDiedError):
                self._worker_deaths.inc(1, shard=str(reply.shard_id))
                unreachable.append(worker.shard_id)
                continue
            if isinstance(reply, BaseException):
                unreachable.append(worker.shard_id)
                continue
            merged.merge(registry_from_dict(reply["metrics"]))
        merged.merge(self.registry)
        if self.cache is not None:
            self.cache.record_into(merged)
        response = {"ok": True, "prometheus": merged.to_prometheus()}
        if unreachable:
            response["unreachable_shards"] = unreachable
        if self.cache is not None:
            response["cache"] = self.cache.stats()
        return response


# -- TCP front-end ----------------------------------------------------


async def serve(service: ShardedSearchService, host: str = "127.0.0.1", port: int = 0):
    """Start the length-prefixed-JSON TCP server; returns the asyncio server.

    Open connections and their handler tasks are tracked on the service so
    a shutdown can drain them gracefully (close the transports, let each
    handler observe EOF and finish) instead of leaving tasks to be killed
    mid-read by loop teardown.
    """

    async def handler(reader, writer):
        task = asyncio.current_task()
        service._handler_tasks.add(task)
        service._client_writers.add(writer)
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError as exc:
                    with contextlib.suppress(Exception):
                        await write_frame(writer, _error("protocol", str(exc)))
                    break
                if message is None:
                    break
                response = await service.handle_request(message)
                await write_frame(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            service._handler_tasks.discard(task)
            service._client_writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    await service.start()
    return await asyncio.start_server(handler, host, port)


async def _serve_until_shutdown(
    service,
    host,
    port,
    ready_callback=None,
    install_signal_handlers=None,
    telemetry_port=None,
    telemetry_host="127.0.0.1",
) -> None:
    server = await serve(service, host, port)
    actual_port = server.sockets[0].getsockname()[1]
    loop = asyncio.get_running_loop()
    if telemetry_port is not None:
        # The sidecar serves /metrics, /health, /slo, /traces/recent from
        # its own thread; closed by ``aclose`` during the drain below.
        service.telemetry = TelemetryServer(service, loop, host=telemetry_host, port=telemetry_port)
    if install_signal_handlers is None:
        install_signal_handlers = threading.current_thread() is threading.main_thread()
    installed: list = []
    if install_signal_handlers:
        # SIGTERM/SIGINT become a graceful shutdown: drain connections,
        # stop the workers -- the fix for the orphaned-worker leak when
        # `repro serve` is killed by the init system or Ctrl-C.
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.add_signal_handler(sig, service.shutdown_event.set)
                installed.append(sig)
    if ready_callback is not None:
        ready_callback(service, actual_port, loop)
    try:
        await service.shutdown_event.wait()
    finally:
        for sig in installed:
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(sig)
        server.close()
        await server.wait_closed()
        # Drain live connections: closing the transports lets each handler
        # see EOF and exit on its own before the loop is torn down.
        for writer in list(service._client_writers):
            writer.close()
        if service._handler_tasks:
            await asyncio.gather(*list(service._handler_tasks), return_exceptions=True)
        await service.aclose()


def run_service(shards_dir, measure, host: str = "127.0.0.1", port: int = 0, **kwargs) -> None:
    """Blocking entry point for ``repro serve``: serve until a shutdown op.

    Installs SIGTERM/SIGINT handlers (when running on the main thread)
    that trigger the graceful drain, plus an ``atexit`` reaper so shard
    worker processes are never orphaned however the interpreter exits.
    """
    on_ready = kwargs.pop("on_ready", None)
    install_signal_handlers = kwargs.pop("install_signal_handlers", None)
    telemetry_port = kwargs.pop("telemetry_port", None)
    telemetry_host = kwargs.pop("telemetry_host", "127.0.0.1")
    service = ShardedSearchService(shards_dir, measure, **kwargs)
    atexit.register(service.reap_workers)
    try:
        asyncio.run(
            _serve_until_shutdown(
                service,
                host,
                port,
                on_ready,
                install_signal_handlers,
                telemetry_port=telemetry_port,
                telemetry_host=telemetry_host,
            )
        )
    finally:
        atexit.unregister(service.reap_workers)
        service.reap_workers()


class ServiceHandle:
    """A service running in a background thread (tests, benchmarks, CI)."""

    def __init__(self):
        self.service: ShardedSearchService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self.thread: threading.Thread | None = None
        self.error: BaseException | None = None

    def request(self, message: dict, timeout: float = 120.0) -> dict:
        """Thread-safe in-process request (bypasses TCP, same code path)."""
        future = asyncio.run_coroutine_threadsafe(
            self.service.handle_request(message), self.loop
        )
        return future.result(timeout)

    def close(self, timeout: float = 30.0) -> None:
        if self.thread is None or not self.thread.is_alive():
            return
        self.loop.call_soon_threadsafe(self.service.shutdown_event.set)
        self.thread.join(timeout)


def start_service_thread(shards_dir, measure, **kwargs) -> ServiceHandle:
    """Run a full service (TCP included) in a daemon thread; returns its handle."""
    host = kwargs.pop("host", "127.0.0.1")
    port = kwargs.pop("port", 0)
    handle = ServiceHandle()
    ready = threading.Event()

    def on_ready(service, actual_port, loop):
        handle.service = service
        handle.port = actual_port
        handle.loop = loop
        ready.set()

    def runner():
        try:
            run_service(shards_dir, measure, host, port, on_ready=on_ready, **kwargs)
        except BaseException as exc:  # startup or serve failure
            handle.error = exc
            ready.set()

    handle.thread = threading.Thread(target=runner, name="repro-service", daemon=True)
    handle.thread.start()
    ready.wait(60.0)
    if handle.error is not None:
        raise handle.error
    if handle.port is None:
        raise RuntimeError("service failed to start within 60s")
    return handle
