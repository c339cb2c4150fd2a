#!/usr/bin/env python3
"""perfbench: the repository's named benchmark for exact rotation-invariant search.

Run from the root of a checkout::

    python3 perfbench/run.py --workload svc-dtw-cold --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload lib-lcss --seed 1 --seconds 50 --trace 1

One run generates its workload from ``--seed``, sets the collection up
several times (``setup_s`` is the median), measures a closed loop of
whole request cycles for ``--seconds`` (never cutting a cycle short),
checks every answer against an exhaustive reference,
and prints one JSON object as its last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs
wrappers around each layer's public functions, records spans for
alternating blocks of requests, and reports the per-layer metrics plus
the tracing overhead.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 9


def src_digest() -> str:
    """SHA-256 over every source file under ``src/`` (path and content)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(path.relative_to(src).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb(worker_pids=()) -> float:
    """VmHWM of this process plus each still-running shard worker."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:  # a restarted worker; the premise checks flag it
            pass
    return total_kb / 1024.0


def percentile_ms(latencies, pct: float) -> float:
    return float(np.percentile(np.asarray(latencies), pct)) * 1e3 if latencies else 0.0


class Checker:
    """Checks outcomes against the reference; memoises repeated answers."""

    def __init__(self, reference, database, measure):
        self.reference = reference
        self.database = database
        self.measure = measure
        self._seen: dict = {}

    def failures(self, outcomes) -> list[str]:
        from reference import check_answer

        failed = []
        for outcome in outcomes:
            request = outcome.request
            if outcome.error is not None:
                qid = request.qid if request is not None else "-"
                failed.append(f"q{qid}: error {outcome.error}")
                continue
            key = (request.kind, request.base, request.shift, tuple(outcome.neighbors))
            if key not in self._seen:
                self._seen[key] = check_answer(
                    request.kind,
                    request.query,
                    request.radius,
                    outcome.neighbors,
                    self.reference[request.base],
                    self.database,
                    self.measure,
                )
            if self._seen[key]:
                failed.append(f"q{request.qid}: " + "; ".join(self._seen[key]))
        return failed


E2E_UNITS = {
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tracing_overhead_pct(outcomes, block: int) -> float:
    """Traced against untraced latency over paired blocks, in percent.

    Blocks ``2j`` and ``2j + 1`` of the issue order hold one untraced and
    one traced block (see :func:`phases.traced`).  The overhead is the
    median over pairs of the ratio of their median latencies.  Requests
    whose recording switched while they ran are left out.
    """
    from phases import traced

    pairs: dict[int, tuple[list, list]] = {}
    for outcome in outcomes:
        if outcome.error is None and outcome.traced is not None:
            qid = outcome.request.qid
            if outcome.traced == traced(qid, block):
                pairs.setdefault(qid // block // 2, ([], []))[outcome.traced].append(outcome.latency)
    ratios = [
        statistics.median(on) / statistics.median(off) for off, on in pairs.values() if off and on
    ]
    return (statistics.median(ratios) - 1.0) * 100.0 if ratios else 0.0


def end_to_end(latencies, correct, elapsed, setups, rss_mb, workload) -> dict:
    return {
        "latency_ms.p50": percentile_ms(latencies, 50.0),
        "latency_ms.tail": percentile_ms(latencies, workload.tail_pct),
        "throughput_qps": correct / elapsed if elapsed > 0 else 0.0,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": rss_mb,
    }


# -- library workloads ------------------------------------------------------


def run_library(workload, measure, database, source, args, rundir) -> dict:
    from phases import library_phase, search, setup_library
    from layers import SpanTable, library_layers, wrap_library
    from spans import SpanRecorder

    loaded, setups = setup_library(database, rundir, SETUP_REPS)
    data = loaded.store.peek_all()
    search(data, measure, source.warmup_request())
    rss = []

    def read_rss():
        rss.append(peak_rss_mb())

    run = {"setups": setups, "plans": []}
    if not args.trace:
        phase = library_phase(data, measure, source, args.seconds, after_first=read_rss)
        run.update(phase=phase, rss_mb=rss[0])
        return run
    recorder = SpanRecorder()
    wrap_library(recorder, measure)
    try:
        phase = library_phase(data, measure, source, args.seconds, recorder=recorder, after_first=read_rss)
    finally:
        recorder.restore()
    cols = recorder.columns()
    recorder.save(WORK / f"spans-{workload.name}.npz")
    traced = [o for o in phase.outcomes if o.traced]
    layers = library_layers(SpanTable(cols), traced, len(data), database.shape[1])
    run.update(phase=phase, layers=layers, rss_mb=rss[0])
    return run


# -- service workloads ------------------------------------------------------


def _snapshot(port) -> dict:
    from repro.service import ServiceClient

    with ServiceClient(port=port, timeout=60.0) as client:
        health = client.health()
        metrics = client.metrics()
    batch = {}
    for line in metrics.get("prometheus", "").splitlines():
        for suffix in ("sum", "count"):
            if line.startswith(f"service_batch_size_{suffix} "):
                batch[suffix] = float(line.split()[1])
    return {"health": health, "cache": metrics.get("cache", {}), "batch": batch}


def _delta(before: dict, after: dict) -> dict:
    hits = after["cache"].get("hits", 0) - before["cache"].get("hits", 0)
    misses = after["cache"].get("misses", 0) - before["cache"].get("misses", 0)
    batches = after["batch"].get("count", 0) - before["batch"].get("count", 0)
    counters = after["health"]["counters"]
    return {
        "cache.hits": hits,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.batch_size.mean": (after["batch"].get("sum", 0) - before["batch"].get("sum", 0)) / batches
        if batches
        else 0.0,
        "worker.restarts": float(after["health"]["restarts"]),
        "worker.retries": float(counters["shard_retries"]),
        "worker.deadline_exceeded": float(counters["deadline_exceeded"]),
        "planner.plan_switches": float(
            after["health"]["planner"].get("plan_switches", 0)
            - before["health"]["planner"].get("plan_switches", 0)
        ),
    }


def run_service(workload, measure, database, source, args, rundir) -> dict:
    from phases import (
        PendingRequests,
        send,
        service_phase,
        start_service,
        stop_service,
        worker_pids,
    )
    from layers import SpanTable, service_layers, wrap_service
    from repro.service import ServiceClient
    from spans import SpanRecorder

    setups = []
    handle = None
    try:
        for rep in range(SETUP_REPS):
            if handle is not None:
                stop_service(handle, worker_pids(handle.port))
            handle, timing = start_service(database, measure, rundir / f"shards-{rep}")
            setups.append(timing)
        port = handle.port
        warm = source.hot_requests() if workload.hot_set else [source.warmup_request()]
        with ServiceClient(port=port, timeout=60.0) as client:
            for request in warm:
                reply = send(client, request)
                if not reply.get("ok"):
                    raise RuntimeError(f"warm-up request failed: {reply}")
        first = _snapshot(port)
        pids = [shard["pid"] for shard in first["health"]["shards"] if shard["pid"]]
        rss = []

        def read_rss():
            rss.append(peak_rss_mb(pids))

        run = {"setups": setups}
        if not args.trace:
            phase = service_phase(port, source, workload.clients, args.seconds, after_first=read_rss)
        else:
            recorder = SpanRecorder()
            pending = PendingRequests()
            wrap_service(recorder, pending)
            try:
                phase = service_phase(
                    port,
                    source,
                    workload.clients,
                    args.seconds,
                    recorder=recorder,
                    pending=pending,
                    block=workload.trace_block,
                    after_first=read_rss,
                )
            finally:
                recorder.restore()
            cols = recorder.columns()
            recorder.save(WORK / f"spans-{workload.name}.npz")
            traced = [o for o in phase.outcomes if o.traced]
            run["layers"] = service_layers(SpanTable(cols), traced, len(database), database.shape[1])
        last = _snapshot(port)
        pids = [shard["pid"] for shard in last["health"]["shards"] if shard["pid"]]
        run.update(
            phase=phase,
            rss_mb=rss[0],
            totals=_delta(first, last),
            shards=last["health"]["shards"],
            plans=sorted({o.reply["plan"] for o in phase.outcomes if o.reply.get("plan")}),
        )
        if args.trace:
            run["layers"].update(run["totals"])
        stop_service(handle, pids)
        handle = None
        return run
    finally:
        if handle is not None:
            handle.close()


def premises(workload, run) -> list[str]:
    """Ways this run failed to exercise what its workload claims to."""
    broken = []
    outcomes = run["phase"].outcomes
    empty = [o.request.qid for o in outcomes if o.request and o.request.kind == "range" and not o.neighbors]
    if empty:
        broken.append(f"range queries with no hit: {empty[:10]}")
    if workload.service:
        ratio = run["totals"]["cache.hit_ratio"]
        if workload.hot_set and ratio < 0.99:
            broken.append(f"hot cache hit ratio {ratio:.4f} < 0.99")
        if not workload.hot_set and run["totals"]["cache.hits"]:
            broken.append(f"cold workload served {run['totals']['cache.hits']} cache hits")
        not_live = [s["shard"] for s in run["shards"] if s["state"] != "live" or not s["alive"]]
        if not_live or run["totals"]["worker.restarts"]:
            broken.append(f"shards not live {not_live}, restarts {run['totals']['worker.restarts']}")
    return broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from reference import expected_knn, reference_for, self_test
    from workloads import WORKLOADS, RequestSource, make_corpus

    missed = self_test()
    if missed:
        print(f"perfbench: answer checker missed: {missed}", file=sys.stderr)
        return 3
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    measure = workload.make_measure()
    database, bases = make_corpus(workload)
    reference = reference_for(database, bases, measure, WORK / "refcache")
    kth = [expected_knn(row)[-1][1] for row in reference]
    source = RequestSource(workload, args.seed, bases, kth, paired=bool(args.trace) and workload.clients == 1)
    checker = Checker(reference, database, measure)

    rundir = WORK / f"run-{workload.name}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_service if workload.service else run_library
        run = runner(workload, measure, database, source, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    outcomes = run["phase"].outcomes
    failures = checker.failures(outcomes)
    broken = premises(workload, run)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycles": run["phase"].cycles,
        "trace": args.trace,
        "src_sha256": src_digest(),
        "cpu_count": os.cpu_count(),
        "backend": measure.backend_name,
        "numba": importlib.util.find_spec("numba") is not None,
        "plans": run["plans"],
        "samples": len(outcomes),
        "tail_percentile": workload.tail_pct,
    }
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"  {'error_rate':<22} {len(failures) / max(len(outcomes), 1):.6g}  ({len(failures)} of {len(outcomes)})")
    for line in failures[:20]:
        print(f"  MISMATCH {line}")
    for line in broken:
        print(f"  PREMISE FAILED {line}")

    from layers import PER_LAYER

    if args.trace:
        layers = {name: 0.0 for name, _unit in PER_LAYER}
        layers.update({k: v for k, v in run["layers"].items() if k in layers})
        layers.update(
            {k: statistics.median(s[k] for s in run["setups"]) for k in run["setups"][0] if k in layers}
        )
        layers["trace.overhead_pct"] = tracing_overhead_pct(outcomes, workload.trace_block)
        for name, value in layers.items():
            print(f"  {name:<26} {value:.6g}")
        metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in PER_LAYER}
    else:
        latencies = [o.latency for o in outcomes if o.request is not None]
        correct = len(outcomes) - len(failures)
        e2e = end_to_end(latencies, correct, run["phase"].elapsed, run["setups"], run["rss_mb"], workload)
        for name, value in e2e.items():
            print(f"  {name:<22} {value:.6g}")
        print(f"  latency_ms.tail is p{workload.tail_pct:g} of {len(latencies)} samples")
        print("  latency_ms by percentile " + " ".join(
            f"p{pct:g}={percentile_ms(latencies, pct):.4g}" for pct in (10, 25, 50, 75, 90, 95, 99, 99.9)
        ))
        metrics = {name: {"value": float(value), "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    result = {
        "correct": not failures and not broken,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
