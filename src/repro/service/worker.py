"""Shard worker process, its parent-side handle, and the supervisor.

One worker per shard: the child process opens its archive with
``load_index(mmap=True)`` exactly once at startup (the expensive part --
checksum verification and signature reconstruction -- is paid per process
lifetime, not per query), then loops answering request chunks from the
coordinator over a :class:`multiprocessing.Pipe`.  Messages are the wire
protocol's JSON bytes via ``send_bytes``/``recv_bytes`` -- never pickle --
so the worker boundary has the same data-only trust model as the archive
format.

Three layers live here:

* :func:`worker_main` -- the child-process loop.  Honors a per-chunk
  ``budget_seconds`` (stops computing once the coordinator's deadline is
  spent) and an optional :class:`~repro.service.faults.FaultPlan` so
  chaos tests can crash/delay/drop/corrupt it deterministically.
* :class:`ShardWorker` -- the parent-side pipe handle.  ``request`` polls
  child liveness (a worker that dies mid-query surfaces as
  :class:`WorkerDiedError` within ~50 ms, never a coordinator hang), and
  the process is **respawnable**: ``respawn()`` reaps whatever is left of
  the child and starts a fresh generation on a fresh pipe.
* :class:`SupervisedWorker` -- the self-healing state machine the
  coordinator actually talks to.  On a death it respawns the child with
  capped exponential backoff plus seeded jitter and replays the in-flight
  chunk exactly once; on a timeout it kills and respawns (a timed-out
  pipe is desynchronized -- a stale reply could pair with the next
  request); after :attr:`RestartPolicy.degrade_after` *consecutive*
  failures it marks the shard **degraded** and stops burning restarts
  (queries then raise :class:`ShardDegradedError`, which the coordinator
  turns into partial results or structured errors).  A background monitor
  may call :meth:`SupervisedWorker.check` to resurrect silently dead
  workers between requests.

Each worker keeps a private :class:`MetricsRegistry`; the ``metrics`` op
ships its ``to_dict()`` snapshot for the coordinator to fold via
``registry_from_dict`` + ``merge``.  The supervisor feeds restart /
degraded counters and a restart-latency histogram into the registry the
coordinator hands it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.service.faults import FaultPlan
from repro.service.protocol import ProtocolError, decode_payload, encode_payload

__all__ = [
    "RESTART_LATENCY_BUCKETS",
    "RestartPolicy",
    "ShardDegradedError",
    "ShardWorker",
    "SupervisedWorker",
    "WorkerDiedError",
    "worker_main",
]

#: Restart-latency histogram buckets (seconds from failure to live again,
#: including the backoff sleep and the archive re-open).
RESTART_LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)

#: Supervisor states surfaced by the ``health`` op.
STATE_LIVE = "live"
STATE_RESTARTING = "restarting"
STATE_DEGRADED = "degraded"
STATE_STOPPED = "stopped"


class WorkerDiedError(RuntimeError):
    """A shard worker process is gone (crashed, killed, or pipe broken)."""

    def __init__(self, shard_id: int, detail: str = ""):
        self.shard_id = shard_id
        message = f"shard worker {shard_id} died"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class ShardDegradedError(RuntimeError):
    """A shard exhausted its crash-loop budget; the supervisor gave up."""

    def __init__(self, shard_id: int, failures: int):
        self.shard_id = shard_id
        self.failures = failures
        super().__init__(
            f"shard {shard_id} is degraded after {failures} consecutive worker failures"
        )


def _search_one(request: dict, data, measure, counter, tracer=None, pruner=None):
    """Answer one normalized request against this worker's shard slice."""
    from repro.mining.queries import knn_search, range_search
    from repro.obs.trace import NULL_TRACER

    query = np.asarray(request["query"], dtype=np.float64)
    kind = request["kind"]
    common = {
        "mirror": bool(request.get("mirror", False)),
        "max_degrees": request.get("max_degrees"),
        "wedge_set_size": int(request.get("wedge_set_size", 8)),
        "counter": counter,
        "tracer": tracer if tracer is not None else NULL_TRACER,
        "pruner": pruner,
    }
    if kind == "knn":
        return knn_search(data, query, measure, k=int(request["k"]), **common)
    if kind == "range":
        return range_search(data, query, measure, radius=float(request["radius"]), **common)
    raise ValueError(f"unknown request kind {kind!r}")


def _apply_terminal_fault(rule, conn) -> None:
    """Carry out a crash/drop/corrupt rule.  Never returns normally."""
    if rule.kind == "crash":
        os._exit(13)
    if rule.kind == "drop":
        # Close our end of the pipe: the parent sees EOF while the process
        # is still winding down -- the half-open failure mode.
        conn.close()
        os._exit(14)
    if rule.kind == "corrupt":
        # An answer the parent cannot decode; the stream is untrustworthy
        # afterwards, so exit like a real corrupting worker would be killed.
        conn.send_bytes(b"\xff\xfe not json \x00")
        os._exit(15)
    raise AssertionError(f"not a terminal fault kind: {rule.kind!r}")


def worker_main(
    shard_id: int,
    archive_path: str,
    offset: int,
    conn,
    measure_spec: dict,
    fault_spec: dict | None = None,
) -> None:
    """Child-process entry point: open the shard, answer until shutdown/EOF."""
    from repro.core.cascade import empty_tier_stats
    from repro.core.counters import StepCounter
    from repro.core.search import SearchResult
    from repro.obs.metrics import MetricsRegistry, record_query
    from repro.obs.trace import NULL_TRACER, Tracer
    from repro.persistence import load_index
    from repro.service.protocol import measure_from_spec

    index = load_index(Path(archive_path), mmap=True)
    data = index.store.peek_all()
    measure = measure_from_spec(measure_spec)
    registry = MetricsRegistry()
    requests_total = registry.counter(
        "service_worker_requests_total", "Requests answered by this shard worker"
    )
    injector = (
        FaultPlan.from_dict(fault_spec).injector(shard_id) if fault_spec else None
    )
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break  # coordinator went away; nothing left to serve
        message = decode_payload(raw)
        op = message.get("op")
        if op == "shutdown":
            conn.send_bytes(encode_payload({"ok": True}))
            break
        if op == "ping":
            conn.send_bytes(
                encode_payload(
                    {
                        "ok": True,
                        "shard": shard_id,
                        "objects": int(data.shape[0]),
                        "offset": offset,
                        "backend": measure.backend_name,
                    }
                )
            )
            continue
        if op == "metrics":
            conn.send_bytes(
                encode_payload({"ok": True, "shard": shard_id, "metrics": registry.to_dict()})
            )
            continue
        if op == "search":
            budget = message.get("budget_seconds")
            # The coordinator resolves the query plan once per micro-batch
            # and ships it in the chunk (the same propagation rule as the
            # kernel backend): workers never re-plan on their own, so every
            # shard runs the identical cascade.  One CascadePolicy serves
            # the whole chunk and is reset() between requests so each
            # query's tier funnel rides home independently.
            plan_spec = message.get("plan")
            pruner = None
            plan_name = None
            if plan_spec:
                from repro.core.cascade import CascadePolicy
                from repro.core.planner import QueryPlan

                plan = QueryPlan.from_dict(plan_spec)
                plan_name = plan.name
                pruner = CascadePolicy(measure, tiers=plan.tiers)
            # Adopt the coordinator's trace context when one was shipped
            # in the chunk; the subtree rides home in the reply as plain
            # data for the coordinator to stitch (see server._fan_out).
            trace_ctx = message.get("trace")
            if trace_ctx:
                tracer = Tracer(
                    max_spans=int(trace_ctx.get("max_spans", 4096)),
                    trace_id=trace_ctx.get("trace_id"),
                    parent_id=trace_ctx.get("parent_id"),
                )
            else:
                tracer = NULL_TRACER
            chunk_span = tracer.span(
                "worker.chunk", shard=shard_id, requests=len(message.get("requests", []))
            )
            chunk_start = time.perf_counter()
            results = []
            aborted: str | None = None
            for done, request in enumerate(message.get("requests", [])):
                if budget is not None and time.perf_counter() - chunk_start > budget:
                    aborted = (
                        f"budget of {budget:g}s exhausted after "
                        f"{done}/{len(message['requests'])} requests"
                    )
                    break
                if injector is not None:
                    delays, terminal = injector.draw("search")
                    for delay in delays:
                        time.sleep(delay.delay_ms / 1000.0)
                    if terminal is not None:
                        _apply_terminal_fault(terminal, conn)
                counter = StepCounter()
                kind = request["kind"]
                if pruner is not None:
                    pruner.reset()  # independent per-query funnel
                with tracer.span("worker.query", kind=kind) as query_span:
                    start = time.perf_counter()
                    neighbors = _search_one(
                        request,
                        data,
                        measure,
                        counter,
                        tracer if trace_ctx else None,
                        pruner=pruner,
                    )
                    wall = time.perf_counter() - start
                    query_span.set(steps=counter.steps)
                    if plan_name is not None:
                        query_span.set(plan=plan_name)
                requests_total.inc(1, shard=str(shard_id), kind=kind)
                tier_stats = pruner.stats() if pruner is not None else None
                top = neighbors[0] if neighbors else None
                record_query(
                    SearchResult(
                        top.index if top else -1,
                        top.distance if top else math.inf,
                        top.rotation if top else -1,
                        counter,
                        f"service-{kind}",
                        tier_stats=tier_stats or empty_tier_stats(),
                        plan=plan_name,
                    ),
                    measure.name,
                    wall,
                    registry=registry,
                )
                entry = {
                    # Local index -> global index via the shard offset.
                    "neighbors": [
                        [nb.index + offset, nb.distance, nb.rotation] for nb in neighbors
                    ],
                    "steps": counter.steps,
                }
                if tier_stats is not None:
                    # Per-query funnel rides home so the coordinator can
                    # feed the planner's cost model (cache hits excluded
                    # coordinator-side).
                    entry["tier_stats"] = tier_stats
                results.append(entry)
            chunk_span.__exit__(None, None, None)
            reply: dict
            if aborted is not None:
                reply = {
                    "ok": False,
                    "error": aborted,
                    "error_type": "deadline-exceeded",
                    "shard": shard_id,
                }
            else:
                reply = {"ok": True, "results": results}
            if trace_ctx and tracer.roots:
                reply["trace"] = tracer.roots[0].to_dict()
                reply["dropped_spans"] = tracer.dropped
            conn.send_bytes(encode_payload(reply))
            continue
        conn.send_bytes(encode_payload({"ok": False, "error": f"unknown op {op!r}"}))


class ShardWorker:
    """Parent-side handle: spawns the process, speaks the pipe protocol.

    The handle outlives any single child process: ``respawn()`` reaps the
    current child (if anything is left of it) and starts a fresh one on a
    fresh pipe, bumping :attr:`generation` so concurrent failure handlers
    can tell whether somebody else already replaced the corpse.
    """

    def __init__(
        self,
        shard_id: int,
        archive_path,
        offset: int,
        measure_spec: dict,
        ctx=None,
        fault_spec: dict | None = None,
    ):
        self.shard_id = shard_id
        self.archive_path = str(archive_path)
        self.offset = offset
        self.measure_spec = measure_spec
        self.fault_spec = fault_spec
        self._ctx = ctx if ctx is not None else multiprocessing.get_context()
        self.generation = 0
        self.process = None
        self._conn = None
        # One in-flight request per pipe: a metrics snapshot racing a
        # search chunk would interleave responses.  Held for the duration
        # of ``request``, so ``respawn`` (which also takes it) can never
        # swap the pipe out from under an in-flight round-trip.
        self._lock = threading.Lock()
        with self._lock:
            self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.generation += 1
        self.process = self._ctx.Process(
            target=worker_main,
            args=(self.shard_id, self.archive_path, self.offset, child_conn, self.measure_spec),
            kwargs={"fault_spec": self.fault_spec},
            name=f"repro-shard-{self.shard_id}-gen{self.generation}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn

    def _teardown(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(5)

    def respawn(self) -> None:
        """Reap whatever is left of the child and start a fresh generation."""
        with self._lock:
            self._teardown()
            self._spawn()

    def ensure_dead(self) -> None:
        """Reap the child without starting a replacement (degraded shards)."""
        with self._lock:
            self._teardown()

    def request(self, message: dict, timeout: float = 120.0) -> dict:
        """One request/response round-trip; raises :class:`WorkerDiedError`.

        Polls in short slices so a worker that dies mid-query is noticed
        within ~50 ms instead of hanging the coordinator until ``timeout``.
        A frame that fails to decode (a corrupting worker) is treated as a
        death: the stream can no longer be trusted to frame correctly.
        """
        with self._lock:
            if self._conn is None:
                raise WorkerDiedError(self.shard_id, "no live process")
            try:
                self._conn.send_bytes(encode_payload(message))
                deadline = time.monotonic() + timeout
                while not self._conn.poll(0.05):
                    if not self.process.is_alive() and not self._conn.poll(0):
                        raise WorkerDiedError(
                            self.shard_id, f"exit code {self.process.exitcode}"
                        )
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"shard worker {self.shard_id} gave no answer within {timeout}s"
                        )
                return decode_payload(self._conn.recv_bytes())
            except TimeoutError:
                # Not a death -- and TimeoutError subclasses OSError, so it
                # must be re-raised before the broken-pipe arm below.
                raise
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise WorkerDiedError(self.shard_id, str(exc)) from exc
            except ProtocolError as exc:
                raise WorkerDiedError(self.shard_id, f"corrupt frame: {exc}") from exc

    def stop(self, timeout: float = 5.0) -> None:
        """Best-effort graceful shutdown, then terminate."""
        if self.process is not None and self.process.is_alive():
            try:
                self.request({"op": "shutdown"}, timeout=timeout)
            except (WorkerDiedError, TimeoutError):
                pass
        if self.process is not None:
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


@dataclass(frozen=True)
class RestartPolicy:
    """How a :class:`SupervisedWorker` heals: backoff, jitter, give-up.

    ``degrade_after`` counts *consecutive* failures (deaths or timeouts)
    with no successful reply in between; any success resets the count, so
    a worker that crashes every few hundred queries restarts forever while
    a worker that cannot answer at all stops consuming restarts quickly.
    """

    degrade_after: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int | None = None

    def delay(self, failure_count: int, rng: random.Random) -> float:
        """Backoff before the ``failure_count``-th respawn, jittered."""
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(0, failure_count - 1),
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


class SupervisedWorker:
    """Self-healing wrapper around :class:`ShardWorker`.

    State machine: ``live`` -> (failure) -> ``restarting`` -> ``live``,
    or -> ``degraded`` once :attr:`RestartPolicy.degrade_after`
    consecutive failures accumulate.  Deaths trigger respawn + one replay
    of the in-flight chunk (queries are pure reads, so replay is safe);
    timeouts trigger kill + respawn but surface the :class:`TimeoutError`
    to the coordinator, which owns the retry budget.
    """

    def __init__(
        self,
        shard_id: int,
        archive_path,
        offset: int,
        measure_spec: dict,
        *,
        policy: RestartPolicy | None = None,
        registry=None,
        ctx=None,
        fault_plan: FaultPlan | None = None,
        sleep=time.sleep,
    ):
        self.policy = policy if policy is not None else RestartPolicy()
        self.shard_id = shard_id
        self.offset = offset
        seed = self.policy.seed
        self._rng = random.Random(None if seed is None else f"{seed}:{shard_id}")
        self._sleep = sleep
        self._lifecycle = threading.Lock()
        self.state = STATE_LIVE
        self.restarts = 0
        self.consecutive_failures = 0
        self.last_failure: str | None = None
        if registry is not None:
            self._restarts_total = registry.counter(
                "service_worker_restarts_total", "Shard workers respawned by the supervisor"
            )
            self._restart_seconds = registry.histogram(
                "service_worker_restart_seconds",
                "Seconds from observed worker failure to a live replacement",
                buckets=RESTART_LATENCY_BUCKETS,
            )
            self._degraded_total = registry.counter(
                "service_worker_degraded_total", "Shards marked degraded (crash-loop budget spent)"
            )
        else:
            self._restarts_total = self._restart_seconds = self._degraded_total = None
        self.worker = ShardWorker(
            shard_id,
            archive_path,
            offset,
            measure_spec,
            ctx=ctx,
            fault_spec=fault_plan.to_dict() if fault_plan is not None else None,
        )

    # -- request path --------------------------------------------------

    def request(self, message: dict, timeout: float = 120.0, attempt_log: list | None = None) -> dict:
        """Round-trip with self-healing; see the class docstring.

        ``attempt_log``, when given, collects one dict per pipe
        round-trip -- ``{"phase": "attempt"|"replay", "start", "end",
        "outcome", "error"}`` on the caller's ``perf_counter`` clock --
        so the coordinator can materialize failed-attempt and replay
        spans in the stitched trace after the fact.
        """

        def timed(phase: str) -> dict:
            start = time.perf_counter()
            try:
                reply = self.worker.request(message, timeout)
            except Exception as exc:
                if attempt_log is not None:
                    if isinstance(exc, WorkerDiedError):
                        outcome = "died"
                    elif isinstance(exc, TimeoutError):
                        outcome = "timeout"
                    else:
                        outcome = type(exc).__name__
                    attempt_log.append(
                        {
                            "phase": phase,
                            "start": start,
                            "end": time.perf_counter(),
                            "outcome": outcome,
                            "error": str(exc),
                        }
                    )
                raise
            if attempt_log is not None:
                attempt_log.append(
                    {
                        "phase": phase,
                        "start": start,
                        "end": time.perf_counter(),
                        "outcome": "ok",
                        "error": None,
                    }
                )
            return reply

        if self.state == STATE_DEGRADED:
            raise ShardDegradedError(self.shard_id, self.consecutive_failures)
        generation = self.worker.generation
        try:
            reply = timed("attempt")
        except WorkerDiedError as exc:
            if not self._revive(generation, str(exc)):
                raise ShardDegradedError(self.shard_id, self.consecutive_failures) from exc
            # Replay the in-flight chunk exactly once on the fresh process.
            generation = self.worker.generation
            try:
                reply = timed("replay")
            except WorkerDiedError as exc2:
                self._revive(generation, str(exc2))
                raise
            except TimeoutError:
                self._revive(self.worker.generation, "timeout during replay")
                raise
        except TimeoutError:
            # The pipe is desynchronized (a stale reply may surface later);
            # the only safe recovery is a fresh process.  The coordinator
            # owns the retry, so surface the timeout after healing.
            self._revive(generation, f"no answer within {timeout:g}s")
            raise
        self._note_success()
        return reply

    def _note_success(self) -> None:
        with self._lifecycle:
            if self.state != STATE_DEGRADED:
                self.consecutive_failures = 0
                self.state = STATE_LIVE

    def _revive(self, generation: int, reason: str) -> bool:
        """Handle one observed failure; ``False`` once the shard degrades."""
        with self._lifecycle:
            if self.state in (STATE_DEGRADED, STATE_STOPPED):
                return False
            if self.worker.generation != generation:
                # Another thread already replaced this corpse.
                return self.state == STATE_LIVE
            self.consecutive_failures += 1
            self.last_failure = reason
            if self.consecutive_failures >= self.policy.degrade_after:
                self.state = STATE_DEGRADED
                self.worker.ensure_dead()
                if self._degraded_total is not None:
                    self._degraded_total.inc(1, shard=str(self.shard_id))
                return False
            self.state = STATE_RESTARTING
            started = time.perf_counter()
            self._sleep(self.policy.delay(self.consecutive_failures, self._rng))
            self.worker.respawn()
            elapsed = time.perf_counter() - started
            self.restarts += 1
            self.state = STATE_LIVE
            if self._restarts_total is not None:
                self._restarts_total.inc(1, shard=str(self.shard_id))
                self._restart_seconds.observe(elapsed)
            return True

    # -- monitoring ----------------------------------------------------

    def check(self) -> bool:
        """Proactive liveness poll: respawn a silently dead worker.

        Returns ``True`` when the shard is currently usable.  Called by
        the coordinator's monitor loop so a SIGKILLed worker comes back
        even if no query touches its shard in the meantime.
        """
        if self.state != STATE_LIVE:
            return False
        process = self.worker.process
        if process is None or process.is_alive():
            return self.state == STATE_LIVE
        return self._revive(
            self.worker.generation, f"found dead by monitor (exit code {process.exitcode})"
        )

    def describe(self) -> dict:
        """JSON-ready shard health: state, restarts, pid, liveness."""
        process = self.worker.process
        return {
            "shard": self.shard_id,
            "state": self.state,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "last_failure": self.last_failure,
            "pid": process.pid if process is not None else None,
            "alive": bool(process is not None and process.is_alive()),
            "generation": self.worker.generation,
        }

    def stop(self, timeout: float = 5.0) -> None:
        with self._lifecycle:
            self.state = STATE_STOPPED
        self.worker.stop(timeout)
