"""Command-line interface: explore the library without writing code.

Examples
--------
List the reconstructable datasets::

    python -m repro datasets

Run a rotation-invariant nearest-neighbour search on a synthetic archive::

    python -m repro search --collection points --size 200 --measure dtw --radius 5

Reproduce one Table-8 row::

    python -m repro classify --dataset OSULeaves --per-class 4 --length 48

Mine a light-curve archive for outliers::

    python -m repro discords --collection lightcurves --size 40 --top 3

Trace one query and summarize a structured run log::

    python -m repro search --size 50 --trace --obs-log runs.jsonl
    python -m repro obs log runs.jsonl

Watch a live service and render one of its stitched traces::

    python -m repro serve --shards shards/ --measure dtw --telemetry-port 9464
    python -m repro top --port 9464
    python -m repro obs trace http://127.0.0.1:9464/traces/recent --waterfall

Build a durable index archive once, then inspect and query it (optionally
memory-mapped, so the collection never materialises in RAM)::

    python -m repro index build --collection points --size 200 --out points_idx.npz
    python -m repro index inspect points_idx.npz --verify
    python -m repro index query points_idx.npz --collection points --size 200 \
        --query-index 7 --measure dtw --mmap

Shard a collection and serve it as a long-lived query service::

    python -m repro index shard --collection points --size 200 --shards 4 --out shards/
    python -m repro serve --shards shards/ --measure dtw --radius 3 --port 7043
    python -m repro client --port 7043 --op knn --collection points --size 200 --k 5
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _build_collection(name: str, size: int, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if name == "points":
        from repro.datasets.shapes_data import projectile_point_collection

        return projectile_point_collection(rng, size, length=length)
    if name == "lightcurves":
        from repro.datasets.lightcurve_data import light_curve_collection

        return light_curve_collection(rng, size, length=length)
    if name == "heterogeneous":
        from repro.datasets.registry import heterogeneous_collection

        return heterogeneous_collection(rng, size, length=length)
    raise SystemExit(f"unknown collection {name!r}; choose points, lightcurves, heterogeneous")


def _build_measure(args):
    backend = getattr(args, "backend", None)
    if args.measure == "euclidean":
        from repro.distances.euclidean import EuclideanMeasure

        return EuclideanMeasure()
    if args.measure == "dtw":
        from repro.distances.dtw import DTWMeasure

        try:
            return DTWMeasure(radius=args.radius, backend=backend)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    if args.measure == "lcss":
        from repro.distances.lcss import LCSSMeasure

        try:
            return LCSSMeasure(delta=args.radius, epsilon=args.epsilon, backend=backend)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    raise SystemExit(f"unknown measure {args.measure!r}")


def cmd_datasets(args) -> int:
    from repro.datasets.registry import TABLE_EIGHT

    print(f"{'name':<16} {'classes':>8} {'paper N':>8} {'paper ED%':>10} {'paper DTW%':>11}")
    for spec in TABLE_EIGHT.values():
        print(
            f"{spec.name:<16} {spec.n_classes:>8} {spec.paper_instances:>8} "
            f"{spec.paper_ed_error:>10.2f} {spec.paper_dtw_error:>11.2f}"
        )
    print("\ncollections for `search`/`discords`: points, lightcurves, heterogeneous")
    return 0


def cmd_search(args) -> int:
    from repro.core.search import (
        auto_search,
        brute_force_search,
        early_abandon_search,
        fft_search,
        wedge_search,
    )

    archive = _build_collection(args.collection, args.size, args.length, args.seed)
    measure = _build_measure(args)
    query_index = args.query_index % len(archive)
    query = archive[query_index]
    database = list(np.delete(archive, query_index, axis=0))

    strategies = {
        "wedge": wedge_search,
        "brute": brute_force_search,
        "early-abandon": early_abandon_search,
        "fft": fft_search,
        "auto": auto_search,
    }
    if args.plan is not None and args.strategy != "auto":
        # --plan implies the plan-routed strategy.
        args.strategy = "auto"
    search = strategies[args.strategy]
    kwargs = dict(mirror=args.mirror)
    if args.max_degrees is not None:
        kwargs["max_degrees"] = args.max_degrees
    if args.strategy == "auto":
        from repro.core.planner import parse_plan

        try:
            plan = parse_plan(args.plan or "auto", measure)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        if plan is not None:
            kwargs["plan"] = plan

    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    metrics = None
    if args.metrics_out:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    query_log = None
    if args.obs_log:
        from repro.obs.querylog import QueryLogger

        query_log = QueryLogger(args.obs_log)
    obs_kwargs = dict(tracer=tracer, metrics=metrics, query_log=query_log)

    if args.strategy == "fft":
        result = search(database, query, mirror=args.mirror, **obs_kwargs)
    else:
        result = search(database, query, measure, **kwargs, **obs_kwargs)
    if query_log is not None:
        query_log.close()

    brute_steps = len(database) * archive.shape[1] * measure.pairwise_cost(archive.shape[1])
    print(f"query: object {query_index} of the {args.collection} collection")
    print(f"measure: {measure.name} (kernel backend: {measure.backend_name})")
    if getattr(result, "plan", None):
        print(f"plan: {result.plan}")
    print(f"best match: object {result.index} at distance {result.distance:.4f} (rotation {result.rotation})")
    print(f"steps: {result.counter.steps:,} ({result.counter.steps / brute_steps:.2%} of brute force)")
    if any(result.tier_stats.values()):
        stats = result.tier_stats
        print(
            "cascade funnel: "
            f"{stats['leaf_candidates']} leaves -> {stats['keogh_reached']} past kim -> "
            f"{stats['improved_reached']} past keogh -> {stats['full_computations']} full distances"
        )
    if tracer is not None:
        print("\ntrace:")
        print(tracer.format_tree())
    if metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_prometheus())
        print(f"\nmetrics written to {args.metrics_out}")
    if args.obs_log:
        print(f"query record appended to {args.obs_log}")
    return 0


def cmd_obs(args) -> int:
    from repro.obs.report import format_summary, summarize_query_log

    summary = summarize_query_log(args.log, top=args.top)
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    return 0


def _fetch_json(source: str, timeout: float = 10.0) -> dict:
    """Load JSON from a local file or an http(s) URL (telemetry endpoint)."""
    import json

    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        with urlopen(source, timeout=timeout) as resp:  # noqa: S310 - operator-supplied URL
            return json.loads(resp.read().decode("utf-8"))
    with open(source, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_obs_trace(args) -> int:
    from repro.obs.waterfall import pick_trace, render_waterfall

    try:
        payload = _fetch_json(args.source)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.source}: {exc}") from exc
    try:
        trace = pick_trace(payload, trace_id=args.trace_id, index=args.index)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        import json

        print(json.dumps(trace, indent=2, sort_keys=True))
    else:
        # --waterfall is the default (and only) text rendering; the flag
        # exists so scripts can state their intent explicitly.
        print(render_waterfall(trace, width=args.width))
    return 0


def cmd_top(args) -> int:
    import json
    import time

    from repro.service.telemetry import format_dashboard

    base = f"http://{args.host}:{args.port}"
    while True:
        try:
            slo = _fetch_json(base + "/slo", timeout=args.timeout)
            health = _fetch_json(base + "/health", timeout=args.timeout)
            traces = _fetch_json(base + "/traces/recent", timeout=args.timeout)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot reach telemetry at {base}: {exc}", file=sys.stderr)
            return 1
        frame = format_dashboard(slo, health, traces)
        if args.once:
            print(frame)
            return 0
        # ANSI clear + home keeps the dashboard in place between polls.
        print("\x1b[2J\x1b[H" + frame, flush=True)
        time.sleep(args.interval)


def _make_obs(args):
    """Build the (tracer, metrics, query_log) trio from shared CLI flags."""
    tracer = None
    if getattr(args, "trace", False):
        from repro.obs.trace import Tracer

        tracer = Tracer()
    metrics = None
    if getattr(args, "metrics_out", None):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    query_log = None
    if getattr(args, "obs_log", None):
        from repro.obs.querylog import QueryLogger

        query_log = QueryLogger(args.obs_log)
    return tracer, metrics, query_log


def cmd_index_build(args) -> int:
    from repro.index.linear_scan import SignatureFilteredScan
    from repro.persistence import save_index

    if args.from_npz:
        from repro.persistence import load_dataset_file

        archive = load_dataset_file(args.from_npz).series
    else:
        archive = _build_collection(args.collection, args.size, args.length, args.seed)
    index = SignatureFilteredScan(
        archive,
        n_coefficients=args.coefficients,
        structure=args.structure,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
    )
    path = save_index(index, args.out)
    sidecar = path.with_name(path.stem + ".data.npy")
    print(
        f"indexed {len(index)} objects of length {index.store.length} "
        f"(structure={index.structure}, D={index.n_coefficients}, "
        f"page_size={index.store.page_size}, buffer_pages={index.store.buffer_pages})"
    )
    print(
        f"archive: {path} ({path.stat().st_size / 1024:.0f} KiB) "
        f"+ {sidecar.name} ({sidecar.stat().st_size / 1024:.0f} KiB)"
    )
    return 0


def cmd_index_inspect(args) -> int:
    from repro.persistence import inspect_archive

    info = inspect_archive(args.archive, verify=args.verify)
    verified = info.get("verified") or {}
    failed = sorted(name for name, state in verified.items() if state != "ok")
    if args.json:
        import json

        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(f"{info['path']}: format v{info['format_version']}")
        print(
            f"  {info['objects']} objects x {info['length']} points, "
            f"structure={info['structure']}, D={info['n_coefficients']}"
        )
        if info["disk_store"] is not None:
            store = info["disk_store"]
            print(
                f"  disk store: page_size={store['page_size']}, "
                f"buffer_pages={store['buffer_pages']}"
            )
        else:
            print("  disk store: not recorded (v1 limitation; loads with defaults)")
        if info["checksums"]:
            for name, digest in sorted(info["checksums"].items()):
                status = f"  [{verified[name]}]" if name in verified else ""
                print(f"  sha256 {name:<12} {digest}{status}")
        else:
            print("  checksums: none (v1; load falls back to multi-probe spot check)")
        created = info.get("created") or {}
        if created:
            print(
                f"  created: {created.get('timestamp_utc')} "
                f"(git {created.get('git_sha') or 'unknown'}, "
                f"numpy {created.get('numpy')}, python {created.get('python')})"
            )
    if failed:
        print(f"VERIFICATION FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_index_query(args) -> int:
    from repro.persistence import load_index

    index = load_index(args.archive, mmap=args.mmap)
    measure = _build_measure(args)
    query_seed = args.query_seed if args.query_seed is not None else args.seed + 1
    pool = _build_collection(args.collection, args.size, args.length, query_seed)
    if pool.shape[1] != index.store.length:
        raise SystemExit(
            f"query length {pool.shape[1]} does not match the indexed series "
            f"length {index.store.length}; pass a matching --length"
        )
    query = pool[args.query_index % len(pool)]

    tracer, metrics, query_log = _make_obs(args)
    payload: dict = {
        "archive": str(args.archive),
        "measure": measure.name,
        "backend": measure.backend_name,
        "mmap": bool(args.mmap),
        "query_index": int(args.query_index),
        "query_seed": int(query_seed),
    }
    if args.k > 1:
        neighbours, accounting = index.query_knn(
            query, measure, k=args.k, mirror=args.mirror, tracer=tracer
        )
        payload["neighbors"] = [
            {"index": nb.index, "distance": nb.distance, "rotation": nb.rotation}
            for nb in neighbours
        ]
    else:
        accounting = index.query(
            query,
            measure,
            mirror=args.mirror,
            tracer=tracer,
            metrics=metrics,
            query_log=query_log,
            query_id=args.query_index,
        )
    if query_log is not None:
        query_log.close()
    result = accounting.result
    payload.update(
        index=int(result.index),
        distance=float(result.distance),
        rotation=int(result.rotation),
        steps=int(result.counter.steps),
        objects_retrieved=int(accounting.objects_retrieved),
        fraction_retrieved=float(accounting.fraction_retrieved),
        signature_tests=int(accounting.signature_tests),
    )

    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        mode = "mmap" if args.mmap else "in-RAM"
        print(f"loaded {len(index)}-object index ({mode}) from {args.archive}")
        if args.k > 1:
            for rank, nb in enumerate(payload["neighbors"], 1):
                print(
                    f"{rank}. object {nb['index']:>4}  distance {nb['distance']:.4f}  "
                    f"(rotation {nb['rotation']})"
                )
        else:
            print(
                f"best match: object {result.index} at distance {result.distance:.4f} "
                f"(rotation {result.rotation})"
            )
        print(
            f"retrieved {accounting.objects_retrieved}/{len(index)} objects "
            f"({accounting.fraction_retrieved:.2%}), "
            f"{accounting.signature_tests} signature tests, "
            f"{result.counter.steps:,} steps"
        )
    if tracer is not None and not args.json:
        print("\ntrace:")
        print(tracer.format_tree())
    if metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_prometheus())
        if not args.json:
            print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_index_shard(args) -> int:
    from repro.service.shard import save_shards

    if args.from_npz:
        from repro.persistence import load_dataset_file

        archive = load_dataset_file(args.from_npz).series
    else:
        archive = _build_collection(args.collection, args.size, args.length, args.seed)
    manifest = save_shards(
        archive,
        args.out,
        args.shards,
        n_coefficients=args.coefficients,
        structure=args.structure,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
    )
    print(
        f"sharded {manifest.objects} objects of length {manifest.length} "
        f"into {manifest.n_shards} archives under {args.out}"
    )
    for info in manifest.shards:
        print(f"  shard {info.shard_id}: {info.file} (objects {info.offset}..{info.offset + info.objects - 1})")
    return 0


def cmd_serve(args) -> int:
    from repro.service.faults import FaultPlan
    from repro.service.server import run_service
    from repro.service.worker import RestartPolicy

    measure = _build_measure(args)
    query_log = None
    if args.obs_log:
        from repro.obs.querylog import QueryLogger

        query_log = QueryLogger(
            args.obs_log, max_bytes=args.obs_log_max_bytes, keep=args.obs_log_keep
        )
    # --fault-spec beats the REPRO_FAULT_SPEC env var (run_service falls
    # back to the env var when no explicit plan is passed).
    fault_plan = FaultPlan.parse(args.fault_spec) if args.fault_spec else None
    restart_policy = RestartPolicy(degrade_after=args.degrade_after)

    def on_ready(service, port, loop):
        telemetry = (
            f", telemetry http://{service.telemetry.host}:{service.telemetry.port}"
            if service.telemetry is not None
            else ""
        )
        print(
            f"repro-service listening on {args.host}:{port} "
            f"({service.manifest.n_shards} shards, {service.manifest.objects} objects, "
            f"measure={measure.name}, backend={service.backend}, "
            f"cache={'on' if service.cache is not None else 'off'}{telemetry})",
            flush=True,
        )

    try:
        run_service(
            args.shards,
            measure,
            args.host,
            args.port,
            cache_size=args.cache_size,
            batch_window=args.batch_window_ms / 1000.0,
            max_batch=args.max_batch,
            query_log=query_log,
            restart_policy=restart_policy,
            fault_plan=fault_plan,
            tracing=not args.no_tracing,
            telemetry_port=args.telemetry_port,
            telemetry_host=args.telemetry_host,
            on_ready=on_ready,
        )
    finally:
        if query_log is not None:
            query_log.close()
    print("repro-service stopped")
    return 0


def cmd_client(args) -> int:
    import json

    from repro.service.client import ServiceClient

    op = "health" if args.health else args.op
    with ServiceClient(args.host, args.port) as client:
        if op == "ping":
            payload = client.ping()
        elif op == "health":
            payload = client.health()
            if payload.get("ok") and not args.json:
                print(f"status: {payload['status']}  (total restarts: {payload['restarts']})")
                for entry in payload["shards"]:
                    last = f"  last failure: {entry['last_failure']}" if entry["last_failure"] else ""
                    print(
                        f"  shard {entry['shard']}: {entry['state']:<10} "
                        f"pid={entry['pid']} restarts={entry['restarts']}{last}"
                    )
                counters = payload["counters"]
                print(
                    "counters: "
                    + "  ".join(f"{name}={int(value)}" for name, value in sorted(counters.items()))
                )
                return 0
        elif op == "metrics":
            payload = client.metrics()
            if payload.get("ok") and not args.json:
                print(payload["prometheus"], end="")
                return 0
        elif op == "shutdown":
            payload = client.shutdown()
        else:
            query_seed = args.query_seed if args.query_seed is not None else args.seed + 1
            pool = _build_collection(args.collection, args.size, args.length, query_seed)
            query = pool[args.query_index % len(pool)]
            knobs = {
                "mirror": args.mirror,
                "no_cache": args.no_cache,
                "timeout_ms": args.timeout_ms,
                "allow_partial": args.allow_partial,
            }
            if op == "knn":
                payload = client.knn(query, k=args.k, **knobs)
            else:
                payload = client.range_query(query, args.range_radius, **knobs)
    if args.json or not payload.get("ok"):
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload.get("ok") else 1
    if op in ("knn", "range"):
        for rank, (index, distance, rotation) in enumerate(payload["neighbors"], 1):
            print(f"{rank}. object {index:>4}  distance {distance:.4f}  (rotation {rotation})")
        answered = (
            f"{payload.get('shards_answered', payload['shards'])}/{payload['shards']} shards"
            if payload.get("partial")
            else f"{payload['shards']} shards"
        )
        print(
            f"{len(payload['neighbors'])} results from {answered}, "
            f"{payload['steps']:,} steps, backend={payload['backend']}, "
            f"cached={payload['cached']}"
        )
        if payload.get("partial"):
            print(f"PARTIAL result: missing shards {payload.get('missing_shards')}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_classify(args) -> int:
    from repro.classify.evaluation import evaluate_dataset
    from repro.datasets.registry import TABLE_EIGHT, load_dataset

    if args.dataset not in TABLE_EIGHT:
        raise SystemExit(f"unknown dataset {args.dataset!r}; run `python -m repro datasets`")
    spec = TABLE_EIGHT[args.dataset]
    dataset = load_dataset(args.dataset, seed=args.seed, per_class=args.per_class, length=args.length)
    row = evaluate_dataset(
        dataset,
        candidate_radii=(1, 2, 3),
        max_instances=args.max_instances,
        seed=args.seed,
        paper_euclidean_error=spec.paper_ed_error,
        paper_dtw_error=spec.paper_dtw_error,
    )
    print(row.format())
    return 0


def cmd_discords(args) -> int:
    from repro.mining.discords import find_discords

    archive = _build_collection(args.collection, args.size, args.length, args.seed)
    measure = _build_measure(args)
    discords = find_discords(list(archive), measure, top=args.top)
    print(f"top {args.top} discords of the {args.collection} collection ({args.size} objects, {args.measure}):")
    for rank, discord in enumerate(discords, 1):
        print(
            f"{rank}. object {discord.index:>4}  NN distance {discord.nn_distance:8.3f}  "
            f"(nearest: object {discord.nn_index})"
        )
    return 0


def cmd_motif(args) -> int:
    from repro.mining.motifs import find_motif

    archive = _build_collection(args.collection, args.size, args.length, args.seed)
    measure = _build_measure(args)
    motif = find_motif(list(archive), measure)
    print(f"motif of the {args.collection} collection ({args.size} objects, {args.measure}):")
    print(
        f"objects {motif.first} and {motif.second}, distance {motif.distance:.4f}, "
        f"aligned at rotation {motif.rotation}"
    )
    return 0


def _add_collection_args(parser):
    parser.add_argument("--collection", default="points", choices=("points", "lightcurves", "heterogeneous"))
    parser.add_argument("--size", type=int, default=100, help="collection size")
    parser.add_argument("--length", type=int, default=128, help="series length")
    parser.add_argument("--seed", type=int, default=0)


def _add_measure_args(parser):
    parser.add_argument("--measure", default="euclidean", choices=("euclidean", "dtw", "lcss"))
    parser.add_argument("--radius", type=int, default=5, help="DTW band / LCSS delta")
    parser.add_argument("--epsilon", type=float, default=0.5, help="LCSS epsilon")
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend for the DTW/LCSS dynamic programs (scalar, wavefront, "
        "numba if installed, or auto); default: REPRO_KERNEL_BACKEND env var, then "
        "the fastest registered backend",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rotation-invariant shape/light-curve indexing (Keogh et al., VLDB 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table-8 dataset reconstructions").set_defaults(
        func=cmd_datasets
    )

    search = sub.add_parser("search", help="rotation-invariant 1-NN search")
    _add_collection_args(search)
    _add_measure_args(search)
    search.add_argument("--query-index", type=int, default=0)
    search.add_argument(
        "--strategy", default="wedge", choices=("wedge", "brute", "early-abandon", "fft", "auto")
    )
    search.add_argument(
        "--plan",
        default=None,
        metavar="SPEC",
        help="query plan: 'auto' (cost-model planner) or 'fixed:<tier>[><tier>...]', "
        "e.g. fixed:kim>keogh>improved or fixed:none; implies --strategy auto",
    )
    search.add_argument("--mirror", action="store_true")
    search.add_argument("--max-degrees", type=float, default=None)
    search.add_argument("--trace", action="store_true", help="print the query's span tree")
    search.add_argument(
        "--obs-log", default=None, metavar="FILE", help="append a JSONL query record to FILE"
    )
    search.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write Prometheus-text metrics for the query to FILE",
    )
    search.set_defaults(func=cmd_search)

    index = sub.add_parser(
        "index", help="build, inspect and query durable index archives (format v2)"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    build = index_sub.add_parser(
        "build", help="index a collection and persist it as a checksummed archive"
    )
    _add_collection_args(build)
    build.add_argument(
        "--from-npz",
        default=None,
        metavar="FILE",
        help="index the series of a dataset saved with save_dataset instead of a synthetic collection",
    )
    build.add_argument("--coefficients", type=int, default=16, help="signature dimensionality D")
    build.add_argument("--structure", default="flat", choices=("flat", "vptree", "rtree"))
    build.add_argument("--page-size", type=int, default=1, help="objects per simulated disk page")
    build.add_argument("--buffer-pages", type=int, default=0, help="LRU buffer pool size in pages")
    build.add_argument("--out", required=True, metavar="FILE", help="archive path (.npz)")
    build.set_defaults(func=cmd_index_build)

    inspect = index_sub.add_parser("inspect", help="show an archive's metadata and checksums")
    inspect.add_argument("archive", help="path to a saved index archive")
    inspect.add_argument(
        "--verify", action="store_true", help="re-hash every stored array (exit 1 on mismatch)"
    )
    inspect.add_argument("--json", action="store_true", help="emit the description as JSON")
    inspect.set_defaults(func=cmd_index_inspect)

    iquery = index_sub.add_parser(
        "query", help="load an archive and run a rotation-invariant query through it"
    )
    iquery.add_argument("archive", help="path to a saved index archive")
    _add_collection_args(iquery)
    _add_measure_args(iquery)
    iquery.add_argument(
        "--query-seed",
        type=int,
        default=None,
        help="seed for the query collection (default: --seed + 1, so queries differ from the indexed members)",
    )
    iquery.add_argument("--query-index", type=int, default=0)
    iquery.add_argument("--k", type=int, default=1, help="report the k nearest neighbours")
    iquery.add_argument("--mirror", action="store_true")
    iquery.add_argument(
        "--mmap", action="store_true", help="memory-map the collection sidecar instead of loading it into RAM"
    )
    iquery.add_argument("--json", action="store_true", help="emit the answer as JSON")
    iquery.add_argument("--trace", action="store_true", help="print the query's span tree")
    iquery.add_argument(
        "--obs-log", default=None, metavar="FILE", help="append a JSONL query record to FILE"
    )
    iquery.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write Prometheus-text metrics for the query to FILE",
    )
    iquery.set_defaults(func=cmd_index_query)

    shard = index_sub.add_parser(
        "shard", help="split a collection into N independent shard archives + manifest"
    )
    _add_collection_args(shard)
    shard.add_argument(
        "--from-npz",
        default=None,
        metavar="FILE",
        help="shard the series of a dataset saved with save_dataset instead of a synthetic collection",
    )
    shard.add_argument("--shards", type=int, default=4, help="number of shards")
    shard.add_argument("--coefficients", type=int, default=16, help="signature dimensionality D")
    shard.add_argument("--structure", default="flat", choices=("flat", "vptree", "rtree"))
    shard.add_argument("--page-size", type=int, default=1, help="objects per simulated disk page")
    shard.add_argument("--buffer-pages", type=int, default=0, help="LRU buffer pool size in pages")
    shard.add_argument("--out", required=True, metavar="DIR", help="shard set directory")
    shard.set_defaults(func=cmd_index_shard)

    serve = sub.add_parser(
        "serve", help="serve a shard set over TCP (asyncio front-end + shard workers)"
    )
    serve.add_argument("--shards", required=True, metavar="DIR", help="shard set directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7043, help="TCP port (0 = ephemeral)")
    _add_measure_args(serve)
    serve.add_argument(
        "--cache-size", type=int, default=1024, help="answer cache capacity (0 disables)"
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="micro-batch collection window in milliseconds",
    )
    serve.add_argument("--max-batch", type=int, default=64, help="max queries per micro-batch")
    serve.add_argument(
        "--obs-log", default=None, metavar="FILE", help="append JSONL service query records to FILE"
    )
    serve.add_argument(
        "--fault-spec",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault-injection spec, e.g. "
            "'seed=7;crash:p=0.05,shard=1;delay:ms=40,every=3' "
            "(overrides the REPRO_FAULT_SPEC env var)"
        ),
    )
    serve.add_argument(
        "--degrade-after",
        type=int,
        default=3,
        help="consecutive worker failures before a shard is marked degraded",
    )
    serve.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /health, /slo, /traces/recent over HTTP on PORT (0 = ephemeral)",
    )
    serve.add_argument("--telemetry-host", default="127.0.0.1")
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable per-batch distributed tracing (answers are bit-identical either way)",
    )
    serve.add_argument(
        "--obs-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the --obs-log file before it exceeds N bytes",
    )
    serve.add_argument(
        "--obs-log-keep",
        type=int,
        default=3,
        metavar="N",
        help="rotated --obs-log files to retain (default 3)",
    )
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser("client", help="query a running repro-service over TCP")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7043)
    client.add_argument(
        "--op", default="knn", choices=("knn", "range", "ping", "health", "metrics", "shutdown")
    )
    client.add_argument(
        "--health", action="store_true", help="shorthand for --op health"
    )
    client.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-request deadline enforced by the coordinator (milliseconds)",
    )
    client.add_argument(
        "--allow-partial",
        action="store_true",
        help="accept an exact merge over surviving shards when some are degraded",
    )
    _add_collection_args(client)
    client.add_argument(
        "--query-seed",
        type=int,
        default=None,
        help="seed for the query collection (default: --seed + 1)",
    )
    client.add_argument("--query-index", type=int, default=0)
    client.add_argument("--k", type=int, default=1, help="neighbours for --op knn")
    client.add_argument(
        "--range-radius", type=float, default=1.0, help="radius for --op range"
    )
    client.add_argument("--mirror", action="store_true")
    client.add_argument("--no-cache", action="store_true", help="bypass the answer cache")
    client.add_argument("--json", action="store_true", help="emit the raw response as JSON")
    client.set_defaults(func=cmd_client)

    obs = sub.add_parser("obs", help="observability: query-log summaries and trace rendering")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_log = obs_sub.add_parser(
        "log", help="summarize a JSONL query log (tier funnel, slow queries)"
    )
    obs_log.add_argument("log", help="path to a query log written by QueryLogger / --obs-log")
    obs_log.add_argument("--top", type=int, default=5, help="how many slow queries to list")
    obs_log.add_argument("--json", action="store_true", help="emit the summary as JSON")
    obs_log.set_defaults(func=cmd_obs)
    obs_trace = obs_sub.add_parser(
        "trace", help="render a stitched cross-process trace as a waterfall"
    )
    obs_trace.add_argument(
        "source",
        help="trace JSON: a file, or a live service's http://HOST:PORT/traces/recent URL",
    )
    obs_trace.add_argument(
        "--waterfall",
        action="store_true",
        help="timeline rendering (the default; flag kept for explicit scripts)",
    )
    obs_trace.add_argument(
        "--trace-id", default=None, metavar="ID", help="select by trace id (prefix match)"
    )
    obs_trace.add_argument(
        "--index", type=int, default=0, help="select the Nth trace when no --trace-id (default 0)"
    )
    obs_trace.add_argument("--width", type=int, default=100, help="waterfall width in columns")
    obs_trace.add_argument("--json", action="store_true", help="emit the selected trace as JSON")
    obs_trace.set_defaults(func=cmd_obs_trace)

    top = sub.add_parser("top", help="live terminal dashboard over a service's telemetry port")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=9464, help="telemetry HTTP port")
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    top.add_argument(
        "--once", action="store_true", help="print one frame and exit (CI / scripting)"
    )
    top.add_argument("--timeout", type=float, default=5.0, help="per-request HTTP timeout")
    top.set_defaults(func=cmd_top)

    classify = sub.add_parser("classify", help="Table-8 protocol on one dataset")
    classify.add_argument("--dataset", required=True)
    classify.add_argument("--per-class", type=int, default=4)
    classify.add_argument("--length", type=int, default=48)
    classify.add_argument("--max-instances", type=int, default=32)
    classify.add_argument("--seed", type=int, default=8)
    classify.set_defaults(func=cmd_classify)

    discords = sub.add_parser("discords", help="find the collection's outliers")
    _add_collection_args(discords)
    _add_measure_args(discords)
    discords.add_argument("--top", type=int, default=3)
    discords.set_defaults(func=cmd_discords)

    motif = sub.add_parser("motif", help="find the collection's closest pair")
    _add_collection_args(motif)
    _add_measure_args(motif)
    motif.set_defaults(func=cmd_motif)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `repro obs <logfile>` predates the log/trace split.
    if argv[:1] == ["obs"] and len(argv) > 1 and argv[1] not in ("log", "trace", "-h", "--help"):
        argv.insert(1, "log")
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
