"""Set-up and measured phases, through the program's public entry points.

Library workloads call ``knn_search`` / ``range_search`` in-process over
an index built, saved and re-opened the way ``repro index build`` /
``query`` do.  Service workloads shard the corpus with ``save_shards``,
run the coordinator with ``start_service_thread`` in this process (shard
workers are real processes) and load it from closed-loop client threads,
each with its own ``ServiceClient`` connection.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from dataclasses import dataclass, field, replace

from repro.core.counters import StepCounter
from repro.index.linear_scan import SignatureFilteredScan
from repro.mining.queries import knn_search, range_search
from repro.persistence import load_index, save_index
from repro.service import ServiceClient, save_shards, start_service_thread

from spans import current_request
from workloads import K

CLIENT_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One attempted operation, as the client saw it."""

    request: object
    start: float
    end: float
    neighbors: list | None = None  # [(index, distance, rotation)]
    error: str | None = None
    reply: dict = field(default_factory=dict)
    #: Traced run: True if spans were recorded from send to answer, False
    #: if not, None if recording switched while the request ran.
    traced: bool | None = False
    steps: int = 0
    envelope_hits: int = 0
    envelope_misses: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    outcomes: list
    elapsed: float
    cycles: int  # whole cycles sent, over all clients


def timed_cycles(source, client: int, seconds: float, began: float, after_first=None):
    """``client``'s cycles: the whole number of them closest to ``seconds``.

    The first cycle always runs, and ``after_first`` (if given) is called
    when it ends.  Another starts only if, at the pace of the last one,
    it would end less than half a cycle after ``seconds`` have passed
    since ``began``.  A run never cuts a cycle short, so every run sends
    the same mix of queries, however fast the host is.
    """
    start = began
    for cycle in source.cycles(client):
        yield cycle
        if after_first is not None:
            after_first()
            after_first = None
        now = time.perf_counter()
        if now + (now - start) / 2 > began + seconds:
            return
        start = now


def traced(qid: int, block: int) -> bool:
    """Whether the traced run records request ``qid``.

    Blocks of ``block`` requests alternate between untraced and traced,
    and every other pair of blocks swaps the order, so that neither
    condition always runs first: U T, T U, U T, ...
    """
    b = qid // block
    return (b + b // 2) % 2 == 1


# -- library workloads --------------------------------------------------


def setup_library(database, workdir, reps: int):
    """Build, save and mmap-load the index ``reps`` times; keep the last."""
    timings = []
    loaded = None
    for rep in range(reps):
        t0 = time.perf_counter()
        index = SignatureFilteredScan(database)
        t1 = time.perf_counter()
        path = save_index(index, workdir / f"index-{rep}.npz")
        t2 = time.perf_counter()
        loaded = load_index(path, mmap=True)
        t3 = time.perf_counter()
        timings.append(
            {
                "setup_s": t3 - t0,
                "index.build_s": t1 - t0,
                "persistence.save_s": t2 - t1,
                "persistence.load_s": t3 - t2,
            }
        )
    return loaded, timings


def search(data, measure, request, counter=None):
    """One in-process query through the public search functions."""
    if request.kind == "knn":
        return knn_search(data, request.query, measure, k=K, counter=counter)
    return range_search(data, request.query, measure, request.radius, counter=counter)


def library_phase(data, measure, source, seconds: float, recorder=None, after_first=None) -> Phase:
    """Whole request cycles for ``seconds``, one query at a time.

    With a ``recorder`` (wrappers installed), recording is switched on for
    the traced requests only; see :func:`traced`.
    """
    outcomes = []
    cycles = 0
    began = time.perf_counter()
    for cycle in timed_cycles(source, 0, seconds, began, after_first):
        cycles += 1
        for request in cycle:
            request = replace(request, qid=len(outcomes))
            counter = StepCounter()
            token = None
            if recorder is not None:
                recorder.enabled = traced(request.qid, 1)
                if recorder.enabled:
                    current_request.set(request.qid)
                    token = recorder.begin("queries", rid=request.qid)
            outcome = Outcome(request, time.perf_counter(), 0.0, traced=token is not None)
            try:
                answer = search(data, measure, request, counter)
                outcome.end = time.perf_counter()
                outcome.neighbors = [(nb.index, nb.distance, nb.rotation) for nb in answer]
            except Exception as exc:  # noqa: BLE001 - an operation failure is counted, not fatal
                outcome.end = time.perf_counter()
                outcome.error = repr(exc)
            if token is not None:
                recorder.finish(token)
            outcome.steps = counter.steps
            outcome.envelope_hits = counter.envelope_cache_hits
            outcome.envelope_misses = counter.envelope_cache_misses
            outcomes.append(outcome)
    if recorder is not None:
        recorder.enabled = False
    return Phase(outcomes, outcomes[-1].end - began, cycles)


# -- service workloads ----------------------------------------------------


def wait_ready(port: int, timeout: float = 60.0) -> dict:
    """Poll ``health`` until every shard is live; returns that reply."""
    deadline = time.monotonic() + timeout
    with ServiceClient(port=port, timeout=CLIENT_TIMEOUT_S) as client:
        while True:
            health = client.health()
            if health.get("shards") and all(
                shard["state"] == "live" and shard["alive"] for shard in health["shards"]
            ):
                return health
            if time.monotonic() > deadline:
                raise RuntimeError(f"shards not live after {timeout}s: {health}")
            time.sleep(0.002)


def start_service(database, measure, shards_dir):
    """``save_shards`` then ``start_service_thread`` (defaults) until ready."""
    t0 = time.perf_counter()
    save_shards(database, shards_dir, 2)
    t1 = time.perf_counter()
    handle = start_service_thread(shards_dir, measure)
    try:
        wait_ready(handle.port)
    except BaseException:
        handle.close()
        raise
    t2 = time.perf_counter()
    return handle, {"setup_s": t2 - t0, "shard.build_s": t1 - t0, "service.ready_s": t2 - t1}


def stop_service(handle, pids) -> None:
    """Shut the service down and wait until its worker processes are gone."""
    handle.close()
    if handle.thread is not None and handle.thread.is_alive():
        raise RuntimeError("service thread did not stop")
    deadline = time.monotonic() + 10.0
    for pid in pids:
        while _pid_alive(pid):
            if time.monotonic() > deadline:
                raise RuntimeError(f"shard worker {pid} did not exit")
            time.sleep(0.01)


def _pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as status:
            return "State:\tZ" not in status.read()
    except FileNotFoundError:
        return False


def worker_pids(port: int) -> list[int]:
    with ServiceClient(port=port, timeout=CLIENT_TIMEOUT_S) as client:
        return [shard["pid"] for shard in client.health()["shards"] if shard["pid"]]


def send(client, request) -> dict:
    if request.kind == "knn":
        return client.knn(request.query, k=K)
    return client.range_query(request.query, request.radius)


def service_phase(
    port, source, clients: int, seconds: float, recorder=None, pending=None, block=1, after_first=None
) -> Phase:
    """Closed loop: each client sends its next request when the last returns.

    Each client sends whole request cycles for ``seconds``; ``after_first``
    is called when client 0 ends its first cycle.  With a
    ``recorder`` (wrappers installed), recording follows :func:`traced`
    over the order in which requests are issued, in blocks of ``block``.
    """
    per_client: list[list] = [[] for _ in range(clients)]
    cycles = [0] * clients
    barrier = threading.Barrier(clients + 1)
    issue_lock = threading.Lock()
    issued = itertools.count()

    def attempt(client, request, out) -> bool:
        with issue_lock:
            request = replace(request, qid=next(issued))
            sent_traced = recorder is not None and traced(request.qid, block)
            if recorder is not None:
                recorder.enabled = sent_traced
        if sent_traced and pending is not None:
            pending.register(request)
        outcome = Outcome(request, time.perf_counter(), 0.0)
        try:
            outcome.reply = send(client, request)
            outcome.end = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            outcome.end = time.perf_counter()
            outcome.error = repr(exc)
            out.append(outcome)
            return False
        if pending is not None:
            pending.discard(request)
        if recorder is not None:
            outcome.traced = sent_traced if recorder.enabled == sent_traced else None
        if outcome.reply.get("ok"):
            outcome.neighbors = [tuple(nb) for nb in outcome.reply["neighbors"]]
            outcome.steps = int(outcome.reply.get("steps", 0))
        else:
            outcome.error = str(outcome.reply.get("error"))
        if outcome.traced:
            recorder.add("client.rtt", outcome.start, outcome.end, request.qid)
        out.append(outcome)
        return True

    def run(tid: int) -> None:
        out = per_client[tid]
        try:
            client = ServiceClient(port=port, timeout=CLIENT_TIMEOUT_S)
        except OSError as exc:
            out.append(Outcome(None, 0.0, 0.0, error=f"connect: {exc!r}"))
            barrier.abort()
            return
        with client:
            barrier.wait()
            first = after_first if tid == 0 else None
            for cycle in timed_cycles(source, tid, seconds, time.perf_counter(), first):
                cycles[tid] += 1
                if not all(attempt(client, request, out) for request in cycle):
                    return

    threads = [
        threading.Thread(target=run, args=(tid,), name=f"perfbench-client-{tid}")
        for tid in range(clients)
    ]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if recorder is not None:
        recorder.enabled = False
    outcomes = [outcome for out in per_client for outcome in out]
    end = max((outcome.end for outcome in outcomes), default=began)
    return Phase(outcomes, end - began, sum(cycles))


class PendingRequests:
    """Client-side request ids, matched to the server's view of a message.

    A request is keyed by its op and query values (JSON carries floats
    exactly); identical concurrent requests are matched first in, first out.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pending: dict[tuple, collections.deque] = collections.defaultdict(collections.deque)

    def register(self, request) -> None:
        key = (request.kind, tuple(request.query.tolist()))
        with self._lock:
            self._pending[key].append(request.qid)

    def claim(self, message: dict) -> int:
        key = (message.get("op"), tuple(message.get("query") or ()))
        with self._lock:
            queue = self._pending.get(key)
            return queue.popleft() if queue else -1

    def discard(self, request) -> None:
        """Forget ``request`` if the server never claimed it."""
        key = (request.kind, tuple(request.query.tolist()))
        with self._lock:
            queue = self._pending.get(key)
            if queue and request.qid in queue:
                queue.remove(request.qid)
