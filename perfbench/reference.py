"""Exhaustive reference answers and the answer checker.

The reference scores every database object at every query rotation with
the measure's full distance -- no lower bound, no early abandoning -- and
keeps each object's best distance.  Answers are then checked for exact
equality: the same indices, the same distances, and every reported
rotation reproducing its distance through ``measure.distance``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from repro.core.search import RotationQuery
from repro.distances.dtw import dtw_batch
from repro.distances.lcss import lcss_batch

from workloads import K


def best_distances(database: np.ndarray, query: np.ndarray, measure) -> np.ndarray:
    """Each object's distance to its best-matching query rotation, unpruned."""
    rotations = RotationQuery(query).rotations
    if measure.name == "dtw":
        # One batched DP per rotation over all objects (banded DTW is
        # symmetric, and the batch kernel equals ``measure.distance``).
        scores = np.array([dtw_batch(rot, database, measure.radius)[0] for rot in rotations])
    elif measure.name == "lcss":
        scores = np.array(
            [1.0 - lcss_batch(rot, database, measure.delta, measure.epsilon)[0] for rot in rotations]
        )
    else:
        scores = np.array([[measure.distance(obj, rot) for obj in database] for rot in rotations])
    return scores.min(axis=0)


def reference_for(database, bases, measure, cache_dir: Path | None) -> np.ndarray:
    """Best distances per base, ``(n_bases, m)``; cached on a hash of the inputs."""
    digest = hashlib.sha256()
    for part in (database, bases):
        digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    digest.update(repr(measure.cache_key()).encode())
    path = None
    if cache_dir is not None:
        path = cache_dir / f"ref-{digest.hexdigest()[:32]}.npy"
        if path.exists():
            return np.load(path)
    table = np.array([best_distances(database, base, measure) for base in bases])
    if path is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(f"{path.stem}-{os.getpid()}.tmp.npy")
        np.save(partial, table)
        os.replace(partial, path)  # concurrent runs never read a half-written file
    return table


def expected_knn(best: np.ndarray, k: int = K) -> list[tuple[int, float]]:
    order = sorted(range(best.size), key=lambda i: (best[i], i))[:k]
    return [(i, float(best[i])) for i in order]


def expected_range(best: np.ndarray, radius: float) -> list[tuple[int, float]]:
    return [(i, float(best[i])) for i in range(best.size) if best[i] <= radius]


def check_answer(kind, query, radius, neighbors, best, database, measure) -> list[str]:
    """Problems with one answer (empty when it matches the reference).

    ``neighbors`` is a list of ``(index, distance, rotation)``.
    """
    want = expected_knn(best) if kind == "knn" else expected_range(best, radius)
    got = [(int(i), float(d)) for i, d, _rot in neighbors]
    problems = []
    if got != want:
        problems.append(f"{kind} answer {got} != reference {want}")
    rotations = RotationQuery(query).rotations
    for index, distance, rotation in neighbors:
        if not 0 <= rotation < len(rotations) or not 0 <= index < len(database):
            problems.append(f"object {index} rotation {rotation} out of range")
            continue
        again = measure.distance(database[index], rotations[rotation])
        if again != distance:
            problems.append(f"object {index} rotation {rotation} gives {again!r}, not {distance!r}")
    return problems


def self_test() -> list[str]:
    """Feed the checker three wrong answers; returns the ones it missed."""
    from repro.distances.euclidean import EuclideanMeasure
    from repro.mining.queries import knn_search, range_search

    rng = np.random.default_rng(11)
    database = rng.standard_normal((24, 16))
    query = np.roll(database[5] + 0.1 * rng.standard_normal(16), 3)
    measure = EuclideanMeasure()
    best = best_distances(database, query, measure)
    knn = [(nb.index, nb.distance, nb.rotation) for nb in knn_search(database, query, measure, k=K)]
    radius = knn[-1][1]
    hits = [(nb.index, nb.distance, nb.rotation) for nb in range_search(database, query, measure, radius)]
    missed = []
    if check_answer("knn", query, 0.0, knn, best, database, measure):
        missed.append("a correct k-NN answer was flagged")
    if check_answer("range", query, radius, hits, best, database, measure):
        missed.append("a correct range answer was flagged")
    swapped = list(knn)
    swapped[0], swapped[1] = (knn[1][0], knn[0][1], knn[0][2]), (knn[0][0], knn[1][1], knn[1][2])
    if not check_answer("knn", query, 0.0, swapped, best, database, measure):
        missed.append("swapped neighbour")
    index, distance, rotation = knn[0]
    bad_rotation = [(index, distance, (rotation + 1) % 16)] + knn[1:]
    if not check_answer("knn", query, 0.0, bad_rotation, best, database, measure):
        missed.append("rotation that does not reproduce its distance")
    if not check_answer("range", query, radius, hits[1:], best, database, measure):
        missed.append("missing range hit")
    return missed

