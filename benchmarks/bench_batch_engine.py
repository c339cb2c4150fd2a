"""Micro-benchmark: the batched query engine vs the seed per-pair path.

Two claims are checked, wall clock aside:

1. **Exactness** -- the batched Euclidean linear scan returns the same
   nearest neighbour, aligning rotation, distance, *and step counts* as a
   reference scan that calls the scalar ``ea_euclidean_distance`` once per
   (object, rotation) pair, i.e. the engine before batching.  Any mismatch
   exits non-zero: this doubles as a regression tripwire.
2. **Speed** -- on the acceptance workload (a 500-object x 256-length
   synthetic database, one full-rotation query) the batched scan must be
   several times faster; pass ``--min-speedup`` to enforce a floor.

A second section times :func:`repro.core.search.search_many` at several
pool sizes and verifies parallel results match the sequential ones.

Run directly::

    python benchmarks/bench_batch_engine.py            # acceptance size
    python benchmarks/bench_batch_engine.py --quick    # CI smoke size

The table lands in ``benchmarks/results/batch_engine.txt``; ``--quick``
writes it under the git-ignored ``benchmarks/results/obs_quick/`` instead.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from harness import QUICK_RESULTS_DIR, RESULTS_DIR, time_search_many, write_result  # noqa: E402

from repro.core.search import RotationQuery, early_abandon_search  # noqa: E402
from repro.distances.euclidean import EuclideanMeasure, ea_euclidean_distance  # noqa: E402


def synthetic_database(m: int, n: int, seed: int = 2006) -> np.ndarray:
    """Z-normalised random-walk series: smooth, shape-like, distinct."""
    rng = np.random.default_rng(seed)
    walks = np.cumsum(rng.normal(size=(m, n)), axis=1)
    walks -= walks.mean(axis=1, keepdims=True)
    walks /= walks.std(axis=1, keepdims=True)
    return walks


def per_pair_linear_scan(database, rotations: np.ndarray):
    """The seed engine: one scalar early-abandoning call per (object, rotation).

    Semantically identical to ``early_abandon_search`` -- same scan order,
    same running best-so-far -- but with every distance going through the
    per-pair ``ea_euclidean_distance``, which is what every hot path did
    before the batch kernels landed.
    """
    best = math.inf
    best_index, best_rotation = -1, -1
    steps = 0
    distance_calls = 0
    abandons = 0
    for i, obj in enumerate(database):
        running = best
        local_rotation = -1
        for t in range(rotations.shape[0]):
            dist, pair_steps = ea_euclidean_distance(obj, rotations[t], running)
            steps += pair_steps
            distance_calls += 1
            if math.isinf(dist):
                abandons += 1
            elif dist < running:
                running = dist
                local_rotation = t
        if local_rotation >= 0 and running < best:
            best, best_index, best_rotation = running, i, local_rotation
    return {
        "index": best_index,
        "rotation": best_rotation,
        "distance": best,
        "steps": steps,
        "distance_calls": distance_calls,
        "early_abandons": abandons,
    }


def compare_linear_scans(m: int, n: int) -> tuple[list[str], float]:
    """Race the per-pair path against the batched engine; verify exact parity."""
    archive = synthetic_database(m + 1, n)
    database = list(archive[:m])
    query = archive[m]
    rq = RotationQuery(query)
    measure = EuclideanMeasure()

    start = perf_counter()
    reference = per_pair_linear_scan(database, rq.rotations)
    per_pair_seconds = perf_counter() - start

    batched_seconds = math.inf
    for _ in range(3):
        start = perf_counter()
        result = early_abandon_search(database, query, measure)
        batched_seconds = min(batched_seconds, perf_counter() - start)

    mismatches = []
    if result.index != reference["index"]:
        mismatches.append(f"index {result.index} != {reference['index']}")
    if result.rotation != reference["rotation"]:
        mismatches.append(f"rotation {result.rotation} != {reference['rotation']}")
    if not math.isclose(result.distance, reference["distance"], rel_tol=1e-9):
        mismatches.append(f"distance {result.distance} != {reference['distance']}")
    for key in ("steps", "distance_calls", "early_abandons"):
        got = getattr(result.counter, key)
        if got != reference[key]:
            mismatches.append(f"{key} {got} != {reference[key]}")
    if mismatches:
        raise SystemExit(
            "batched engine diverged from the per-pair reference: " + "; ".join(mismatches)
        )

    speedup = per_pair_seconds / batched_seconds
    lines = [
        f"Euclidean linear scan, m={m} objects, n={n} (all {n} rotations per object)",
        f"{'per-pair (seed) path':>24}: {per_pair_seconds:9.3f} s",
        f"{'batched kernels':>24}: {batched_seconds:9.3f} s",
        f"{'speedup':>24}: {speedup:9.1f} x",
        f"{'steps (both paths)':>24}: {reference['steps']}",
        f"{'nearest neighbour':>24}: #{result.index} @ rotation {result.rotation}",
    ]
    return lines, speedup


def compare_search_many(m: int, n: int, n_queries: int, jobs: int) -> list[str]:
    """Throughput of search_many at several pool sizes, parity enforced."""
    archive = synthetic_database(m + n_queries, n, seed=7)
    database = list(archive[:m])
    queries = list(archive[m:])
    measure = EuclideanMeasure()

    base_seconds, base_results = time_search_many(database, queries, measure, n_jobs=1)
    lines = [
        "",
        f"search_many wedge throughput, {n_queries} queries over the same database",
        f"{'n_jobs=1':>24}: {base_seconds:9.3f} s",
    ]
    for n_jobs in (2, jobs):
        seconds, results = time_search_many(database, queries, measure, n_jobs=n_jobs)
        for sequential, parallel in zip(base_results, results):
            if (
                sequential.index != parallel.index
                or sequential.counter.steps != parallel.counter.steps
            ):
                raise SystemExit(
                    f"search_many(n_jobs={n_jobs}) diverged from the sequential scan"
                )
        lines.append(f"{f'n_jobs={n_jobs}':>24}: {seconds:9.3f} s ({base_seconds / seconds:.1f}x)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (120 x 128) instead of the 500 x 256 acceptance run"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, help="fail unless batched speedup reaches this floor"
    )
    args = parser.parse_args(argv)

    m, n = (120, 128) if args.quick else (500, 256)
    lines, speedup = compare_linear_scans(m, n)
    lines += compare_search_many(
        m=max(40, m // 4), n=n, n_queries=4 if args.quick else 8, jobs=4
    )
    write_result("batch_engine", "\n".join(lines), QUICK_RESULTS_DIR if args.quick else RESULTS_DIR)

    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: batched speedup {speedup:.1f}x below floor {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
