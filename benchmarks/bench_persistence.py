"""Durable-index benchmark: cold load vs recompute, mmap vs in-RAM queries.

The disk-index argument of Section 5.4 assumes an index that is *built once
and queried many times*: the O(m n log n) signature pass is paid at build
time and amortised over every later query.  This benchmark measures what
the format-v2 archive actually buys:

* **cold load vs recompute** -- wall clock of ``load_index`` (checksum
  verification included) against rebuilding ``SignatureFilteredScan`` from
  the raw collection;
* **mmap vs in-RAM** -- per-query wall clock with the collection sidecar
  memory-mapped (``np.load(..., mmap_mode="r")``) against fully loaded;

while enforcing the exactness contract as hard invariants (non-zero exit):

* built, in-RAM-loaded and mmap-loaded indexes return bit-identical
  answers, step counts and retrieval fractions on Euclidean and DTW
  queries;
* a legacy v1 archive loaded through the migration shim answers
  identically too;
* a single corrupted byte in the collection sidecar makes the load fail.

The numbers land in ``benchmarks/results/BENCH_persistence.json`` with an
embedded provenance block.  ``--quick`` shrinks the corpus for the CI
smoke run and writes under the git-ignored ``benchmarks/results/obs_quick/``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

CONFIG = {"m": 150, "n": 128, "coefficients": 16, "radius": 4, "seed": 23, "n_queries": 3}
QUICK_CONFIG = {"m": 40, "n": 64, "coefficients": 8, "radius": 2, "seed": 23, "n_queries": 2}


def _setup_path() -> None:
    src = BENCH_DIR.parent / "src"
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _query_all(index, queries, measures) -> tuple[dict, float]:
    """Run every (query, measure) pair; return answers and total wall clock."""
    answers = {}
    start = time.perf_counter()
    for qid, query in enumerate(queries):
        for measure in measures:
            outcome = index.query(query, measure)
            answers[(qid, measure.name)] = (
                outcome.result.index,
                outcome.result.distance,
                outcome.result.rotation,
                outcome.result.counter.steps,
                outcome.objects_retrieved,
                outcome.fraction_retrieved,
            )
    return answers, time.perf_counter() - start


def run_benchmark(config: dict) -> tuple[dict, dict, list]:
    import numpy as np

    from repro.datasets.shapes_data import projectile_point_collection
    from repro.distances.dtw import DTWMeasure
    from repro.distances.euclidean import EuclideanMeasure
    from repro.index.linear_scan import SignatureFilteredScan
    from repro.persistence import _save_index_v1, load_index, save_index

    rng = np.random.default_rng(config["seed"])
    archive = projectile_point_collection(rng, config["m"], length=config["n"])
    queries = [
        archive[i] + rng.normal(0, 0.05, config["n"])
        for i in range(0, config["m"], max(1, config["m"] // config["n_queries"]))[
            : config["n_queries"]
        ]
    ]
    measures = (EuclideanMeasure(), DTWMeasure(radius=config["radius"]))
    failures: list[str] = []
    phases: dict[str, float] = {}

    t0 = time.perf_counter()
    built = SignatureFilteredScan(archive, n_coefficients=config["coefficients"])
    build_s = time.perf_counter() - t0
    phases["build"] = build_s

    report: dict = {"config": dict(config), "build_s": round(build_s, 6)}

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench_index.npz"
        t0 = time.perf_counter()
        save_index(built, path)
        phases["save"] = time.perf_counter() - t0
        sidecar = path.with_name(path.stem + ".data.npy")
        report["archive_bytes"] = path.stat().st_size
        report["sidecar_bytes"] = sidecar.stat().st_size

        t0 = time.perf_counter()
        loaded_ram = load_index(path)
        load_ram_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded_mmap = load_index(path, mmap=True)
        load_mmap_s = time.perf_counter() - t0
        phases["load_ram"] = load_ram_s
        phases["load_mmap"] = load_mmap_s
        report["cold_load_ram_s"] = round(load_ram_s, 6)
        report["cold_load_mmap_s"] = round(load_mmap_s, 6)
        report["cold_load_vs_recompute_speedup"] = round(build_s / load_ram_s, 3)

        base_answers, base_wall = _query_all(built, queries, measures)
        ram_answers, ram_wall = _query_all(loaded_ram, queries, measures)
        mmap_answers, mmap_wall = _query_all(loaded_mmap, queries, measures)
        phases["queries"] = base_wall + ram_wall + mmap_wall
        report["query_wall_built_s"] = round(base_wall, 6)
        report["query_wall_ram_s"] = round(ram_wall, 6)
        report["query_wall_mmap_s"] = round(mmap_wall, 6)
        report["n_query_runs"] = len(base_answers)

        if ram_answers != base_answers:
            failures.append("in-RAM-loaded index disagrees with the built index")
        if mmap_answers != base_answers:
            failures.append("mmap-loaded index disagrees with the built index")
        if not loaded_mmap.store.backed_by_mmap:
            failures.append("mmap load did not leave the collection memory-mapped")

        # v1 migration shim must keep answering identically
        v1_path = Path(tmp) / "bench_index_v1.npz"
        _save_index_v1(built, v1_path)
        v1_answers, _ = _query_all(load_index(v1_path), queries, measures)
        if v1_answers != base_answers:
            failures.append("v1-shim-loaded index disagrees with the built index")

        # a single flipped byte in the sidecar must be rejected at load
        raw = bytearray(sidecar.read_bytes())
        raw[-5] ^= 0xFF
        sidecar.write_bytes(bytes(raw))
        try:
            load_index(path)
        except ValueError:
            report["corruption_rejected"] = True
        else:
            report["corruption_rejected"] = False
            failures.append("single-byte sidecar corruption was NOT rejected at load")

    return report, phases, failures


def _print_report(report: dict) -> None:
    config = report["config"]
    print(f"corpus: {config['m']} x {config['n']} projectile points")
    print(
        f"build {report['build_s'] * 1e3:8.1f} ms   "
        f"cold load (RAM) {report['cold_load_ram_s'] * 1e3:8.1f} ms   "
        f"cold load (mmap) {report['cold_load_mmap_s'] * 1e3:8.1f} ms"
    )
    print(f"cold-load-vs-recompute speedup: {report['cold_load_vs_recompute_speedup']:.1f}x")
    print(
        f"query wall over {report['n_query_runs']} runs: "
        f"built {report['query_wall_built_s'] * 1e3:8.1f} ms   "
        f"in-RAM {report['query_wall_ram_s'] * 1e3:8.1f} ms   "
        f"mmap {report['query_wall_mmap_s'] * 1e3:8.1f} ms"
    )
    print(
        f"archive: {report['archive_bytes'] / 1024:.0f} KiB npz "
        f"+ {report['sidecar_bytes'] / 1024:.0f} KiB sidecar; "
        f"corruption rejected: {report['corruption_rejected']}"
    )


def main(argv=None) -> int:
    _setup_path()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: tiny corpus, same invariants"
    )
    args = parser.parse_args(argv)

    report, phases, failures = run_benchmark(QUICK_CONFIG if args.quick else CONFIG)
    _print_report(report)

    import harness

    harness.write_json_result(
        "BENCH_persistence",
        report,
        phases,
        directory=harness.QUICK_RESULTS_DIR if args.quick else harness.RESULTS_DIR,
    )

    if failures:
        print("\nBENCH_persistence FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
