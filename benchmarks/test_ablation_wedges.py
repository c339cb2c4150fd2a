"""Ablations of the wedge search's design choices (DESIGN.md section 5).

The paper motivates several decisions qualitatively; this bench measures
each on the projectile-point archive:

* **K policy** -- the dynamic scheme vs fixed K in {1, sqrt(n), n}.  The
  paper: a single fat wedge prunes poorly, all-singletons degenerates to
  the early-abandon scan, and the sweet spot moves with the best-so-far,
  which is why K is re-tuned online.
* **Clustering linkage** used to build the tree -- group-average (the
  paper's choice) vs single, complete, and the clustering-free contiguous
  tree.
* **Traversal order** -- the paper's DFS stack vs best-first expansion.
"""

import math

import numpy as np

from harness import write_result
from repro.core.hmerge import FixedKPolicy
from repro.core.search import wedge_search
from repro.distances.euclidean import EuclideanMeasure


def run_ablation(archive, n_queries=3, seed=12):
    rng = np.random.default_rng(seed)
    measure = EuclideanMeasure()
    n = archive.shape[1]
    query_ids = rng.choice(len(archive), size=n_queries, replace=False)

    variants = {
        "dynamic-K (paper)": dict(k_policy=None),
        "fixed K=1": dict(k_policy=FixedKPolicy(1)),
        f"fixed K={int(math.sqrt(n))}": dict(k_policy=FixedKPolicy(int(math.sqrt(n)))),
        f"fixed K={n} (singletons)": dict(k_policy=FixedKPolicy(n)),
        "single linkage": dict(linkage_method="single"),
        "complete linkage": dict(linkage_method="complete"),
        "contiguous tree": dict(linkage_method="contiguous"),
        "best-first order": dict(order="best-first"),
    }
    steps = {}
    reference = {}
    for name, kwargs in variants.items():
        total = 0
        for qid in query_ids:
            db = list(np.delete(archive, qid, axis=0))
            result = wedge_search(db, archive[qid], measure, **kwargs)
            total += result.counter.steps
            if name == "dynamic-K (paper)":
                reference[int(qid)] = (result.index, result.distance)
            else:
                # Every variant is exact: same answer as the reference.
                ref_idx, ref_dist = reference[int(qid)]
                assert result.index == ref_idx
                assert math.isclose(result.distance, ref_dist, rel_tol=1e-9)
        steps[name] = total / n_queries
    return steps


def test_ablation_wedge_design(benchmark, points_archive_small):
    archive = points_archive_small[: min(len(points_archive_small), 250)]
    steps = benchmark.pedantic(lambda: run_ablation(archive), rounds=1, iterations=1)

    base = steps["dynamic-K (paper)"]
    lines = [
        "Ablation -- wedge-search design choices (average steps per query)",
        "=" * 72,
        f"{'variant':>26} {'steps':>14} {'vs dynamic-K':>14}",
    ]
    for name, value in steps.items():
        lines.append(f"{name:>26} {value:>14.0f} {value / base:>14.2f}")
    write_result("ablation_wedges", "\n".join(lines))

    # The dynamic policy must be competitive with the best fixed choice
    # (within 2x) and never catastrophically worse than any variant.
    best = min(steps.values())
    assert base <= 2.5 * best
    # A single fat wedge should not beat the hierarchy on smooth data.
    assert steps["fixed K=1"] >= 0.8 * base


def run_cascade(archive, n_queries=4, seed=13):
    """How much of the leaf-level DTW work the LB_Kim tier removes."""
    from repro.core.cascade import CascadePolicy
    from repro.core.search import RotationQuery
    from repro.distances.dtw import DTWMeasure

    rng = np.random.default_rng(seed)
    measure = DTWMeasure(radius=5)
    query_ids = rng.choice(len(archive), size=n_queries, replace=False)
    rows = {}
    for use_kim in (False, True):
        policy = CascadePolicy(measure, use_kim=use_kim)
        from repro.core.counters import StepCounter

        counter = StepCounter()
        for qid in query_ids:
            rq = RotationQuery(archive[qid])
            frontier = rq.wedge_tree().frontier(8)
            import math as _math

            best = _math.inf
            # One leaf wedge per rotation for the whole query, so the
            # policy's per-wedge envelope-extremes memo can hit.
            leaves = {}
            for j, obj in enumerate(archive):
                if j == qid:
                    continue
                # Evaluate every leaf through the cascade (a deliberately
                # leaf-heavy workload so the tiers' contributions show).
                for wedge in frontier:
                    for leaf_idx in wedge.indices[:: max(1, len(wedge.indices) // 4)]:
                        leaf = leaves.get(leaf_idx)
                        if leaf is None:
                            leaf = leaves[leaf_idx] = _leaf_for(rq, leaf_idx)
                        dist = policy.leaf_distance(obj, leaf, best if best < _math.inf else 10.0, counter)
                        if dist < best:
                            best = dist
        rows["with LB_Kim" if use_kim else "without LB_Kim"] = dict(
            policy.stats(), steps=counter.steps
        )
    return rows


def _leaf_for(rq, rotation_index):
    from repro.core.wedge import Wedge

    return Wedge.from_series(rq.rotations[rotation_index], rotation_index)


def test_cascade_tiers(benchmark, points_archive_small):
    archive = points_archive_small[: min(len(points_archive_small), 60)]
    rows = benchmark.pedantic(lambda: run_cascade(archive), rounds=1, iterations=1)

    lines = [
        "Cascade ablation -- LB_Kim in front of LB_Keogh in front of DTW",
        "=" * 68,
        f"{'variant':>16} {'kim rej.':>10} {'keogh rej.':>11} {'full DTW':>10} {'steps':>12}",
    ]
    for name, stats in rows.items():
        lines.append(
            f"{name:>16} {stats['kim_rejections']:>10} {stats['keogh_rejections']:>11} "
            f"{stats['full_computations']:>10} {stats['steps']:>12,}"
        )
    write_result("ablation_cascade", "\n".join(lines))

    with_kim = rows["with LB_Kim"]
    without = rows["without LB_Kim"]
    # The O(1) tier absorbs a solid share of the rejections ...
    assert with_kim["kim_rejections"] > 0
    # ... and never changes *what* gets rejected (LB_Kim <= LB_Keogh), so
    # the number of full DTW computations is identical.
    assert with_kim["full_computations"] == without["full_computations"]
    # Finding: against an *early-abandoning* LB_Keogh (which often dies
    # after 1-3 points anyway), the extra tier is roughly cost-neutral --
    # its classical value was against full-scan LB_Keogh implementations.
    assert with_kim["steps"] <= 1.25 * without["steps"]
