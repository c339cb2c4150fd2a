"""Shared benchmark harness: the paper's experimental protocol, runnable.

Section 5.3's protocol, reproduced faithfully:

* performance is the implementation-free ``num_steps`` metric, reported
  **relative to brute force** (whose cost is analytic and deterministic);
* queries are randomly chosen database members, removed from the database
  before searching, and results are averaged over several queries;
* the wedge strategy's O(n^2) start-up cost is charged;
* database size ``m`` sweeps a doubling grid, so each figure is a series of
  (m, fraction-of-brute-force) points per strategy.

Every experiment writes a plain-text table to ``benchmarks/results/`` (and
echoes it to stdout) in the same rows/series layout as the paper's figure,
so paper-vs-measured comparisons are a diff away.

Scale: the default grids are CI-sized.  Set ``REPRO_SCALE=4`` (or more) to
grow databases toward the paper's sizes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.core.search import (
    early_abandon_search,
    fft_search,
    search_many,
    wedge_search,
)
from repro.distances.base import Measure

RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: Where ``--quick`` smoke runs write, git-ignored so they never overwrite
#: the committed acceptance-size artifacts.
QUICK_RESULTS_DIR = RESULTS_DIR / "obs_quick"


def scale() -> float:
    raw = os.environ.get("REPRO_SCALE", "")
    return float(raw) if raw else 1.0


def size_grid(maximum: int, minimum: int = 32) -> list[int]:
    """Doubling grid of database sizes, like the paper's x axes."""
    maximum = int(maximum * scale())
    sizes = []
    m = minimum
    while m < maximum:
        sizes.append(m)
        m *= 2
    sizes.append(maximum)
    return sizes


@dataclass
class SpeedupResult:
    """One figure's worth of data: per-strategy fractions over m."""

    title: str
    m_values: list[int]
    fractions: dict[str, list[float]] = field(default_factory=dict)

    def format(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        header = f"{'m':>8} " + " ".join(f"{name:>14}" for name in self.fractions)
        lines.append(header)
        for i, m in enumerate(self.m_values):
            row = f"{m:>8} " + " ".join(
                f"{series[i]:>14.5f}" for series in self.fractions.values()
            )
            lines.append(row)
        return "\n".join(lines)


def write_result(name: str, text: str, directory: Path = RESULTS_DIR) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def write_json_result(
    name: str,
    payload: dict,
    phase_timings: dict[str, float] | None = None,
    provenance_extra: dict | None = None,
    directory: Path = RESULTS_DIR,
) -> Path:
    """Write a ``BENCH_*.json`` artifact with an embedded provenance block.

    The provenance (git SHA + dirty flag, platform, interpreter/NumPy
    versions, ``REPRO_SCALE``, UTC timestamp) answers "what produced this
    number" when two artifacts disagree; ``phase_timings`` adds per-phase
    wall-clock seconds (setup vs measured runs) so a slow artifact can be
    blamed on the right phase.  ``provenance_extra`` merges additional
    benchmark-specific facts (e.g. the service benchmark stamps its
    resolved kernel backend and shard counts) into the provenance block.
    """
    from repro.obs.provenance import provenance_block

    directory.mkdir(parents=True, exist_ok=True)
    extra: dict = {"benchmark": name}
    if phase_timings:
        extra["phase_timings_s"] = {k: round(v, 4) for k, v in phase_timings.items()}
    if provenance_extra:
        extra.update(provenance_extra)
    document = dict(payload)
    document["provenance"] = provenance_block(extra)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[written to {path}]")
    return path


def brute_force_steps(m: int, n_rotations: int, pairwise_cost: int) -> int:
    """Analytic brute-force cost: every rotation fully compared, no pruning."""
    return m * n_rotations * pairwise_cost


StrategyFn = Callable[[list, np.ndarray, Measure], int]


def ea_strategy(db, query, measure) -> int:
    return early_abandon_search(db, query, measure).counter.steps


def fft_strategy(db, query, measure) -> int:
    return fft_search(db, query, measure).counter.steps


def wedge_strategy(db, query, measure) -> int:
    return wedge_search(db, query, measure).counter.steps


def time_search_many(
    database,
    queries,
    measure: Measure,
    strategy: str = "wedge",
    n_jobs: int = 1,
    executor: str | None = None,
):
    """Wall-clock one :func:`search_many` call.

    Returns ``(seconds, results)`` so throughput experiments can both time
    the batch and verify that parallel results match the sequential ones
    (the engine's exactness contract).
    """
    start = perf_counter()
    results = search_many(
        database, queries, measure, strategy=strategy, n_jobs=n_jobs, executor=executor
    )
    return perf_counter() - start, results


def run_speedup_experiment(
    title: str,
    archive: np.ndarray,
    measure: Measure,
    strategies: dict[str, StrategyFn],
    m_values: Sequence[int] | None = None,
    n_queries: int = 3,
    seed: int = 0,
    brute_pairwise_cost: int | None = None,
    extra_brute_lines: dict[str, int] | None = None,
    mirror: bool = False,
) -> SpeedupResult:
    """The Figure 19-23 protocol.

    Parameters
    ----------
    archive:
        ``(m_max, n)`` collection; prefixes of it form the databases.
    measure:
        The distance measure under test.
    strategies:
        Name -> callable returning total steps for one query.
    m_values:
        Database sizes; defaults to a doubling grid up to ``len(archive)``.
    n_queries:
        Queries per size (query = random member, removed).
    brute_pairwise_cost:
        Steps of one full distance computation (default
        ``measure.pairwise_cost(n)``); brute force is
        ``m * n_rotations * this``, computed analytically.
    extra_brute_lines:
        Additional analytic baselines, e.g. the banded "Brute force, R=5"
        line of Figure 20: name -> pairwise cost.
    """
    rng = np.random.default_rng(seed)
    archive = np.asarray(archive, dtype=np.float64)
    m_max, n = archive.shape
    if m_values is None:
        m_values = size_grid(m_max)
    m_values = [m for m in m_values if m <= m_max]
    pairwise = brute_pairwise_cost if brute_pairwise_cost is not None else measure.pairwise_cost(n)
    n_rotations = n * (2 if mirror else 1)

    result = SpeedupResult(title, list(m_values))
    result.fractions["brute-force"] = [1.0] * len(m_values)
    for name, cost in (extra_brute_lines or {}).items():
        result.fractions[name] = [
            cost / pairwise for _ in m_values
        ]
    for name in strategies:
        result.fractions[name] = []

    for m in m_values:
        query_ids = rng.choice(m, size=min(n_queries, m), replace=False)
        totals = {name: 0.0 for name in strategies}
        for qid in query_ids:
            db = np.delete(archive[:m], qid, axis=0)
            query = archive[qid]
            brute = brute_force_steps(len(db), n_rotations, pairwise)
            for name, fn in strategies.items():
                steps = fn(list(db), query, measure)
                totals[name] += steps / brute
        for name in strategies:
            result.fractions[name].append(totals[name] / len(query_ids))
    return result
