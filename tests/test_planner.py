"""Planner tests: the exactness contract, the cost model, and plan specs.

The hard invariant this file enforces is **plan invariance**: every plan
:func:`~repro.core.planner.enumerate_plans` can emit -- any tier subset,
any legal order -- returns answers bit-identical to brute force and to
every other plan.  The planner is free to trade work; it is never free
to change an answer.

On top of that sit the cost-model properties the issue pins:

* a tier whose measured rejection rate is 0 is *always* dropped once the
  planner trusts its telemetry (its expected saving is exactly
  ``-test_cost``);
* cache-served answers never enter the cost model, so a hot cached query
  cannot shift the plan.
"""

import math

import numpy as np
import pytest

from repro.core.planner import (
    DatasetStats,
    Planner,
    QueryPlan,
    default_plan,
    enumerate_plans,
    parse_plan,
)
from repro.core.cascade import CASCADE_TIERS, empty_tier_stats
from repro.core.search import auto_search, wedge_search
from repro.distances.dtw import DTWMeasure
from repro.distances.euclidean import EuclideanMeasure
from repro.distances.lcss import LCSSMeasure
from repro.mining.queries import knn_search


#: Size of each measure's enumerable plan space: every tier subset in
#: every order that keeps Keogh before Improved.
PLAN_COUNTS = {"euclidean": 5, "dtw": 9, "lcss": 3}

#: Leaf-mode suffixes an earlier plan-spec grammar accepted; every leaf now
#: runs the per-leaf cascade, so a spec carrying one must be rejected.
RETIRED_LEAF_MODES = ("batch", "scalar")


def _measures():
    return [
        EuclideanMeasure(),
        DTWMeasure(radius=3),
        LCSSMeasure(delta=3, epsilon=0.5),
    ]


def _brute_force(database, query, measure):
    """(distance, index) of the true rotation-invariant 1-NN, canonical
    (distance, index) tie-break, no pruning anywhere."""
    best_d, best_i = math.inf, -1
    q = np.asarray(query, dtype=np.float64)
    for i, obj in enumerate(database):
        obj = np.asarray(obj, dtype=np.float64)
        d = min(measure.distance(np.roll(q, rot), obj, math.inf) for rot in range(len(q)))
        if d < best_d:
            best_d, best_i = d, i
    return best_d, best_i


class TestPlanInvariance:
    """Every enumerable plan is bit-identical to every other and to brute
    force -- the fuzz suite the exactness contract demands."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "measure", _measures(), ids=lambda m: m.name
    )
    def test_all_plans_bit_identical_1nn(self, measure, seed):
        rng = np.random.default_rng(seed)
        database = [np.cumsum(rng.standard_normal(24)) for _ in range(14)]
        query = np.cumsum(rng.standard_normal(24))
        reference = wedge_search(database, query, measure)
        for plan in enumerate_plans(measure):
            result = wedge_search(database, query, measure, plan=plan)
            assert (result.index, result.distance, result.rotation) == (
                reference.index,
                reference.distance,
                reference.rotation,
            ), f"plan {plan.name} diverged from the default plan"

    @pytest.mark.parametrize("measure", _measures(), ids=lambda m: m.name)
    def test_default_plan_matches_brute_force(self, measure):
        rng = np.random.default_rng(7)
        database = [np.cumsum(rng.standard_normal(16)) for _ in range(10)]
        query = np.cumsum(rng.standard_normal(16))
        result = wedge_search(database, query, measure, plan=default_plan(measure))
        brute_d, brute_i = _brute_force(database, query, measure)
        assert result.index == brute_i
        assert math.isclose(result.distance, brute_d, rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("radius_q", [0.5, 1.0])
    def test_all_plans_bit_identical_knn_and_range(self, radius_q):
        """Plans thread through knn_search / range_search via the pruner."""
        from repro.core.cascade import CascadePolicy
        from repro.mining.queries import range_search

        measure = DTWMeasure(radius=2)
        rng = np.random.default_rng(13)
        database = np.cumsum(rng.standard_normal((12, 20)), axis=1)
        query = np.cumsum(rng.standard_normal(20))
        ref_knn = knn_search(database, query, measure, k=4)
        probe = knn_search(database, query, measure, k=6)
        radius = probe[-1].distance * radius_q
        ref_range = range_search(database, query, measure, radius=radius)
        for plan in enumerate_plans(measure):
            pruner = CascadePolicy(measure, tiers=plan.tiers)
            got_knn = knn_search(database, query, measure, k=4, pruner=pruner)
            assert [(nb.index, nb.distance, nb.rotation) for nb in got_knn] == [
                (nb.index, nb.distance, nb.rotation) for nb in ref_knn
            ], plan.name
            pruner.reset()
            got_range = range_search(database, query, measure, radius=radius, pruner=pruner)
            assert [(nb.index, nb.distance, nb.rotation) for nb in got_range] == [
                (nb.index, nb.distance, nb.rotation) for nb in ref_range
            ], plan.name

    def test_auto_search_bit_identical_while_planner_warms(self):
        """The planner may switch plans mid-stream; answers never move."""
        measure = DTWMeasure(radius=2)
        rng = np.random.default_rng(3)
        database = [np.cumsum(rng.standard_normal(20)) for _ in range(15)]
        planner = Planner(measure, DatasetStats(size=15, length=20))
        for _ in range(6):
            query = np.cumsum(rng.standard_normal(20))
            expected = wedge_search(database, query, measure)
            got = auto_search(database, query, measure, planner=planner)
            assert (got.index, got.distance, got.rotation) == (
                expected.index,
                expected.distance,
                expected.rotation,
            )
        assert planner.observations == 6


class TestPlannerCostModel:
    def _planner(self, measure=None):
        measure = measure or DTWMeasure(radius=3)
        return Planner(measure, DatasetStats(size=100, length=64))

    def _stats(self, **overrides):
        stats = empty_tier_stats()
        stats.update(overrides)
        return stats

    def test_cold_planner_emits_the_canonical_default(self):
        planner = self._planner()
        assert planner.plan() == default_plan(planner.measure)

    def test_untrusted_telemetry_keeps_the_default(self):
        planner = self._planner()
        # Fewer leaf candidates than MIN_OBSERVATIONS: still canonical.
        planner.observe(
            self._stats(leaf_candidates=8, keogh_reached=8, improved_reached=8,
                        full_computations=8)
        )
        assert planner.plan() == default_plan(planner.measure)

    @pytest.mark.parametrize("tier", ["kim", "keogh", "improved"])
    def test_zero_rejection_tier_always_dropped(self, tier):
        """The monotonicity property: rate 0 => saving = -test_cost < 0."""
        planner = self._planner()
        # Every candidate reaches every tier, nothing is ever rejected
        # except at the *other* tiers, which reject everything they see.
        n = 10 * Planner.MIN_OBSERVATIONS
        counts = {
            "leaf_candidates": n,
            "kim_rejections": 0,
            "keogh_reached": n,
            "keogh_rejections": 0,
            "improved_reached": n,
            "improved_rejections": 0,
            "full_computations": n,
        }
        for other in ("kim", "keogh", "improved"):
            if other != tier:
                counts[f"{other}_rejections"] = counts[
                    "leaf_candidates" if other == "kim" else f"{other}_reached"
                ]
        planner.observe(counts)
        plan = planner.plan()
        assert tier not in plan.tiers, plan.name
        for other in ("kim", "keogh", "improved"):
            if other != tier and not (other == "improved" and tier == "keogh"):
                assert other in plan.tiers, plan.name
        # Whatever the model drops, the plan must remain executable.
        from repro.core.cascade import CascadePolicy

        CascadePolicy(planner.measure, tiers=plan.tiers)

    def test_high_rejection_tiers_all_kept_in_canonical_order(self):
        planner = self._planner()
        n = 10 * Planner.MIN_OBSERVATIONS
        planner.observe(
            self._stats(
                leaf_candidates=n, kim_rejections=n // 2,
                keogh_reached=n // 2, keogh_rejections=n // 4,
                improved_reached=n // 4, improved_rejections=n // 8,
                full_computations=n // 8,
            )
        )
        assert planner.plan().tiers == ("kim", "keogh", "improved")

    def test_euclidean_never_drops_keogh(self):
        """For exact-at-Keogh measures the Keogh pass IS the distance."""
        planner = self._planner(EuclideanMeasure())
        n = 10 * Planner.MIN_OBSERVATIONS
        planner.observe(
            self._stats(leaf_candidates=n, keogh_reached=n,
                        improved_reached=n, full_computations=0)
        )
        assert "keogh" in planner.plan().tiers

    def test_cached_observations_never_shift_the_plan(self):
        """Satellite bugfix: replayed cache hits stay out of the model."""
        planner = self._planner()
        n = 10 * Planner.MIN_OBSERVATIONS
        real = self._stats(
            leaf_candidates=n, kim_rejections=n - 4,
            keogh_reached=4, keogh_rejections=2,
            improved_reached=2, improved_rejections=1, full_computations=1,
        )
        planner.observe(real)
        before = planner.plan()
        totals_before = dict(planner.totals)
        # A hot cached query replaying very different stats, many times over:
        hot = self._stats(leaf_candidates=n, keogh_reached=n,
                          improved_reached=n, full_computations=n)
        for _ in range(50):
            planner.observe(hot, cached=True)
        assert planner.totals == totals_before
        assert planner.plan() == before
        assert planner.cached_skipped == 50
        assert planner.observations == 1

    def test_plan_switches_counted(self):
        planner = self._planner()
        first = planner.plan()
        assert planner.plan_switches == 0
        n = 10 * Planner.MIN_OBSERVATIONS
        planner.observe(
            self._stats(leaf_candidates=n, keogh_reached=n,
                        improved_reached=n, full_computations=n)
        )
        second = planner.plan()
        assert second != first
        assert planner.plan_switches == 1
        planner.plan()  # same decision: no switch
        assert planner.plan_switches == 1
        assert len(planner.decisions) == 2

    def test_snapshot_is_json_safe(self):
        import json

        planner = self._planner()
        planner.observe(self._stats(leaf_candidates=5, keogh_reached=5,
                                    improved_reached=5, full_computations=5))
        snap = planner.snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["plan"] == planner.current_plan.name
        assert parsed["observations"] == 1
        assert set(parsed["tier_estimates"]) <= set(CASCADE_TIERS)


class TestPlanSpecs:
    def test_auto_returns_none(self):
        assert parse_plan("auto") is None

    def test_fixed_round_trips_through_name_and_dict(self):
        measure = DTWMeasure(radius=2)
        for plan in enumerate_plans(measure):
            assert QueryPlan.from_dict(plan.to_dict()) == plan
        plan = parse_plan("fixed:keogh>improved", measure)
        assert plan.name == "wedge:keogh>improved"
        assert parse_plan(plan.name.replace("wedge:", "fixed:"), measure) == plan
        assert parse_plan("fixed:none").tiers == ()

    def test_measure_filters_unsupported_tiers(self):
        lcss = LCSSMeasure(delta=2, epsilon=0.5)
        plan = parse_plan("fixed:kim>keogh>improved", lcss)
        assert plan.tiers == ("keogh", "improved")

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            "fixed:keogh:maybe",
            *(f"fixed:kim>keogh:{mode}" for mode in RETIRED_LEAF_MODES),
            f"fixed:keogh:{RETIRED_LEAF_MODES[0]}:extra",
            "fixed:frobnicate",
            "fixed:keogh>keogh",
            "fixed:improved",
            "fixed:improved>keogh",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_plan(spec)

    def test_enumerate_plans_covers_the_advertised_space(self):
        measure = DTWMeasure(radius=2)
        plans = enumerate_plans(measure)
        names = {p.name for p in plans}
        assert len(names) == len(plans)  # no duplicates
        assert "wedge:kim>keogh>improved" in names
        assert "wedge:none" in names
        assert "wedge:keogh>kim" in names
        for m in _measures():
            assert len(enumerate_plans(m)) == PLAN_COUNTS[m.name]
        # Illegal orders never appear.
        for p in plans:
            if "improved" in p.tiers:
                assert p.tiers.index("keogh") < p.tiers.index("improved")
        # Euclidean has no improved tier anywhere in its space.
        for p in enumerate_plans(EuclideanMeasure()):
            assert "improved" not in p.tiers
