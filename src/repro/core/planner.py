"""Cost-model query planner: choose a cascade plan, never change an answer.

Every lower-bound tier in the cascade is independently admissible, so *any*
subset of tiers in *any* order returns exactly the same neighbours -- the
only thing a plan changes is how much work the search does.  That freedom
is what this module exploits: a :class:`QueryPlan` pins down the knobs a
query can vary (strategy, cascade tier set and order, kernel backend),
and a :class:`Planner` picks one per query from

* **static dataset statistics** (database size, series length, rotation-set
  size, measure) -- enough to seed a sensible default before any traffic; and
* **live telemetry** -- the per-tier funnel counts (``tier_stats``) the
  observability layer already records.  A tier earns its place when its
  measured rejection rate times the downstream cost it avoids exceeds its
  own test cost; tiers that fail that test are dropped and the survivors
  run cheapest-first.

The exactness contract is the hard invariant: the planner may only ever
choose among plans that return bit-identical answers.  The plan-invariance
fuzz suite (``tests/test_planner.py``) and the ``run_all.py --quick``
tripwire enforce it.

Cost currency is the repo's ``num_steps`` accounting (the paper's own
metric): a Kim test is 4 comparisons, a Keogh pass is one O(n) scan, an
Improved pass a second O(n) scan, and a full distance costs
``measure.pairwise_cost(n)`` (n for Euclidean, O(nR) for DTW/LCSS).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.cascade import CASCADE_TIERS, canonical_tiers, empty_tier_stats
from repro.distances.base import Measure

__all__ = [
    "QueryPlan",
    "DatasetStats",
    "Planner",
    "enumerate_plans",
    "parse_plan",
    "default_plan",
]


@dataclass(frozen=True)
class QueryPlan:
    """An immutable, picklable description of how to execute one query.

    Frozen so it can be resolved once parent-side and shipped verbatim to
    pool workers (the same propagation rule as kernel backends).
    """

    strategy: str = "wedge"
    tiers: tuple[str, ...] = CASCADE_TIERS
    backend: str | None = None

    @property
    def name(self) -> str:
        """Canonical human-readable name, e.g. ``wedge:kim>keogh>improved``."""
        tier_part = ">".join(self.tiers) if self.tiers else "none"
        base = f"{self.strategy}:{tier_part}"
        if self.backend:
            base += f":{self.backend}"
        return base

    def to_dict(self) -> dict:
        """Wire form for JSON pipes and logs."""
        return {
            "strategy": self.strategy,
            "tiers": list(self.tiers),
            "backend": self.backend,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryPlan":
        return cls(
            strategy=payload.get("strategy", "wedge"),
            tiers=tuple(payload.get("tiers", CASCADE_TIERS)),
            backend=payload.get("backend"),
        )


@dataclass(frozen=True)
class DatasetStats:
    """Static facts the planner can know before any query runs."""

    size: int
    length: int
    n_rotations: int | None = None
    measure: str | None = None

    @classmethod
    def from_database(cls, database, measure: Measure | None = None) -> "DatasetStats":
        import numpy as np

        arr = np.asarray(database[0]) if len(database) else np.zeros(0)
        return cls(
            size=len(database),
            length=int(arr.shape[-1]) if arr.ndim else 0,
            n_rotations=int(arr.shape[-1]) if arr.ndim else None,
            measure=getattr(measure, "name", None),
        )


def _supported_tiers(measure: Measure) -> tuple[str, ...]:
    return tuple(
        t
        for t in CASCADE_TIERS
        if not (t == "kim" and not measure.kim_compatible)
        and not (t == "improved" and not measure.has_improved_bound)
    )


def _tiers_valid(tiers: tuple[str, ...]) -> bool:
    """Keogh-before-Improved is the one ordering constraint plans must honour."""
    if "improved" in tiers:
        return "keogh" in tiers and tiers.index("keogh") < tiers.index("improved")
    return True


def default_plan(measure: Measure, backend: str | None = None) -> QueryPlan:
    """The plan every release before the planner hardcoded."""
    return QueryPlan(strategy="wedge", tiers=canonical_tiers(measure), backend=backend)


def enumerate_plans(measure: Measure, backend: str | None = None) -> list[QueryPlan]:
    """Every executable wedge plan for ``measure``: tier subsets x orders.

    This is the space the plan-invariance fuzz suite quantifies over and the
    space :func:`parse_plan` accepts as ``fixed:`` specs.
    """
    supported = _supported_tiers(measure)
    return [
        QueryPlan(strategy="wedge", tiers=order, backend=backend)
        for r in range(len(supported) + 1)
        for subset in itertools.combinations(supported, r)
        for order in itertools.permutations(subset)
        if _tiers_valid(order)
    ]


def parse_plan(spec: str, measure: Measure | None = None, backend: str | None = None):
    """Parse a ``repro search --plan`` spec.

    ``"auto"`` returns ``None`` (callers construct a :class:`Planner`);
    ``"fixed:<t1>[><t2>...]"`` returns the pinned :class:`QueryPlan`.
    ``fixed:none`` runs no lower-bound tier at all.
    """
    spec = spec.strip()
    if spec == "auto":
        return None
    if not spec.startswith("fixed:"):
        raise ValueError(f"plan spec must be 'auto' or 'fixed:...', got {spec!r}")
    tier_part = spec[len("fixed:") :]
    if ":" in tier_part:
        raise ValueError(f"unrecognised plan spec {spec!r}; expected 'fixed:<t1>[><t2>...]'")
    tiers = () if tier_part in ("none", "") else tuple(tier_part.split(">"))
    for name in tiers:
        if name not in CASCADE_TIERS:
            raise ValueError(f"unknown cascade tier {name!r}; expected one of {CASCADE_TIERS}")
    if len(set(tiers)) != len(tiers):
        raise ValueError(f"duplicate cascade tier in plan spec {spec!r}")
    if not _tiers_valid(tiers):
        raise ValueError(f"plan {spec!r} runs 'improved' without a preceding 'keogh'")
    if measure is not None:
        tiers = tuple(t for t in tiers if t in _supported_tiers(measure))
    return QueryPlan(strategy="wedge", tiers=tiers, backend=backend)


class Planner:
    """Selects a :class:`QueryPlan` per query from stats and live telemetry.

    The cost model (all in ``num_steps``):

    * a Kim test costs 4 comparisons,
    * a Keogh pass costs one O(n) scan,
    * an Improved pass costs a second O(n) scan (~2n with its envelope),
    * a full distance costs ``measure.pairwise_cost(n)``.

    For a tier with measured rejection rate ``p`` (rejections / candidates
    entering the tier), the expected saving per candidate is
    ``p * downstream_cost - test_cost`` where ``downstream_cost`` is the
    cost of the stages the rejection short-circuits.  Tiers with
    non-positive expected saving are dropped -- in particular a tier with
    measured rejection rate 0 is *always* dropped (its saving is exactly
    ``-test_cost``).  Survivors run cheapest-first, which together with the
    Keogh-before-Improved constraint reproduces the canonical order.

    Steps are the right *admissibility* currency but a blind *latency* one:
    constant factors (vectorised kernels, early abandoning, per-leaf Python
    overhead) can make a step-expensive plan wall-cheap.  When callers also
    report measured per-query wall clock (``observe(..., wall_seconds=...,
    plan=...)``, as ``auto_search`` does), the planner probes a small
    shortlist of candidate plans -- the step model's pick plus the minimal
    plans it cannot rank -- and commits to the measured fastest,
    re-evaluating as samples accumulate.  Without wall telemetry the
    steps model alone decides.

    Until a tier has been observed (``reached == 0``) the planner keeps the
    measure's canonical default membership, so a cold planner emits exactly
    the pre-planner behaviour.
    """

    #: Funnel observations below this many leaf candidates are considered
    #: too noisy to overrule the canonical default.
    MIN_OBSERVATIONS = 32

    #: Wall-clock samples per candidate plan before the measured-latency
    #: tie-break trusts its number for that plan.
    PROBE_SAMPLES = 2

    #: Per-plan wall samples kept (rolling window; old machines drift).
    MAX_WALL_SAMPLES = 64

    def __init__(
        self,
        measure: Measure,
        stats: DatasetStats | None = None,
        backend: str | None = None,
    ):
        self.measure = measure
        self.stats = stats
        self.backend = backend
        self.totals = empty_tier_stats()
        self.observations = 0
        self.cached_skipped = 0
        self.plan_switches = 0
        self.decisions: list[dict] = []
        self._current: QueryPlan | None = None
        #: Measured per-query wall clock keyed by tier tuple.
        #: Populated only when callers report ``wall_seconds`` (the span
        #: cost the obs layer already times); empty = steps-model only.
        self._wall_samples: dict[tuple, list[float]] = {}

    # ----------------------------------------------------------- telemetry

    def observe(
        self,
        tier_stats: dict | None,
        cached: bool = False,
        wall_seconds: float | None = None,
        plan: QueryPlan | None = None,
    ) -> None:
        """Fold one query's tier funnel into the model.

        ``cached=True`` marks an answer served from the answer cache: its
        ``tier_stats`` replay work that already ran once, so folding them in
        again would double-count rejections and let a hot cached query pin
        the plan.  Cache hits are counted but never enter the cost model.

        ``wall_seconds`` (with the ``plan`` that produced it) feeds the
        measured-latency tie-break: the step model is blind to constant
        factors (a vectorised kernel's early-abandoned "expensive" distance
        can be wall-cheaper than a Python-level bound test), so when wall
        telemetry is available the planner probes a shortlist of candidate
        plans and commits to the measured fastest.
        """
        if cached:
            self.cached_skipped += 1
            return
        if wall_seconds is not None and plan is not None:
            samples = self._wall_samples.setdefault(plan.tiers, [])
            samples.append(float(wall_seconds))
            del samples[: -self.MAX_WALL_SAMPLES]
        if not tier_stats:
            return
        for key in self.totals:
            self.totals[key] += int(tier_stats.get(key, 0))
        self.observations += 1

    # ----------------------------------------------------------- cost model

    def tier_test_cost(self, tier: str) -> float:
        """Per-candidate cost of running one tier's test, in steps."""
        n = self.stats.length if self.stats is not None else 64
        if tier == "kim":
            return 4.0
        if tier == "keogh":
            return float(n)
        if tier == "improved":
            return 2.0 * n
        raise ValueError(f"unknown tier {tier!r}")

    def full_cost(self) -> float:
        """Cost of one full distance computation, in steps."""
        n = self.stats.length if self.stats is not None else 64
        return float(self.measure.pairwise_cost(n))

    def tier_rejection_rate(self, tier: str) -> float | None:
        """Measured rejection rate for ``tier``, or ``None`` if unobserved."""
        t = self.totals
        if tier == "kim":
            reached, rejected = t["leaf_candidates"], t["kim_rejections"]
        elif tier == "keogh":
            reached, rejected = t["keogh_reached"], t["keogh_rejections"]
        elif tier == "improved":
            reached, rejected = t["improved_reached"], t["improved_rejections"]
        else:
            raise ValueError(f"unknown tier {tier!r}")
        if reached <= 0:
            return None
        return rejected / reached

    def tier_estimates(self) -> dict[str, dict]:
        """Per-tier cost-model view (for ``/health``, BENCH, and debugging)."""
        estimates = {}
        for tier in _supported_tiers(self.measure):
            rate = self.tier_rejection_rate(tier)
            test_cost = self.tier_test_cost(tier)
            downstream = self._downstream_cost(tier)
            saving = None if rate is None else rate * downstream - test_cost
            estimates[tier] = {
                "rejection_rate": rate,
                "test_cost": test_cost,
                "downstream_cost": downstream,
                "expected_saving": saving,
            }
        return estimates

    def _downstream_cost(self, tier: str) -> float:
        """Steps a rejection at ``tier`` short-circuits (later tiers + full)."""
        supported = _supported_tiers(self.measure)
        later = supported[supported.index(tier) + 1 :]
        cost = sum(self.tier_test_cost(t) for t in later)
        if self.measure.lb_exact_for_singleton and tier == "kim":
            # For exact-at-Keogh measures the Keogh pass IS the distance;
            # a Kim rejection saves that single O(n) pass, nothing more.
            return float(cost)
        return float(cost + self.full_cost())

    # ----------------------------------------------------------- planning

    def _wall_candidates(self, model_tiers: tuple[str, ...]) -> list[QueryPlan]:
        """The shortlist the measured-latency tie-break probes.

        The step model ranks tiers by rejection value but cannot see
        constant factors, so the shortlist brackets its answer with the
        extremes it cannot rank: the no-bound plan, the cheapest single
        tier, and the model's plan.  Kept deliberately small -- every
        candidate costs one measured query to probe.
        """
        if self.measure.lb_exact_for_singleton:
            # Keogh IS the distance: the keogh-only plan is the floor.
            shortlist = [("keogh",)]
        else:
            shortlist = [(), model_tiers[:1]]
        shortlist.append(model_tiers)
        return [
            QueryPlan(strategy="wedge", tiers=tiers, backend=self.backend)
            for tiers in dict.fromkeys(shortlist)
        ]

    def _wall_pick(self, model_tiers: tuple[str, ...]) -> QueryPlan | None:
        """Probe-then-commit over the shortlist, or ``None`` when wall
        telemetry was never reported (steps-model only)."""
        if not self._wall_samples:
            return None
        cands = self._wall_candidates(model_tiers)
        for cand in cands:
            samples = self._wall_samples.get(cand.tiers, [])
            if len(samples) < self.PROBE_SAMPLES:
                return cand  # still probing: measure this one next
        def mean_wall(cand: QueryPlan) -> float:
            samples = self._wall_samples[cand.tiers]
            return sum(samples) / len(samples)

        return min(cands, key=mean_wall)

    def plan(self) -> QueryPlan:
        """Select the current best plan; counts switches for telemetry."""
        canonical = canonical_tiers(self.measure)
        kept: list[str] = []
        trusted = self.totals["leaf_candidates"] >= self.MIN_OBSERVATIONS
        for tier in _supported_tiers(self.measure):
            rate = self.tier_rejection_rate(tier)
            if rate is None or not trusted:
                if tier in canonical:
                    kept.append(tier)
                continue
            saving = rate * self._downstream_cost(tier) - self.tier_test_cost(tier)
            if saving > 0:
                kept.append(tier)
        # LB_Improved refines the Keogh pass: without Keogh it cannot run,
        # so dropping Keogh takes Improved down with it.
        if "improved" in kept and "keogh" not in kept:
            kept.remove("improved")
        # Survivors cheapest-first; Keogh must still precede Improved, which
        # the monotone cost model (4 < n < 2n) already guarantees.
        kept.sort(key=self.tier_test_cost)
        tiers = tuple(kept)
        if not _tiers_valid(tiers):  # pragma: no cover - the guards above ensure this
            tiers = tuple(t for t in CASCADE_TIERS if t in kept)
        if self.measure.lb_exact_for_singleton and "keogh" not in tiers:
            # Dropping Keogh for an exact-at-Keogh measure forfeits the
            # short-circuit that makes the full distance free; never do it.
            tiers = tuple(t for t in CASCADE_TIERS if t in kept or t == "keogh")
        plan = None
        if trusted:
            plan = self._wall_pick(tiers)
        if plan is None:
            plan = QueryPlan(strategy="wedge", tiers=tiers, backend=self.backend)
        if self._current is None or plan != self._current:
            if self._current is not None:
                self.plan_switches += 1
            self._current = plan
            self.decisions.append(
                {
                    "plan": plan.name,
                    "after_observations": self.observations,
                    "estimates": self.tier_estimates(),
                }
            )
            if len(self.decisions) > 64:
                del self.decisions[:-64]
        return plan

    @property
    def current_plan(self) -> QueryPlan:
        """The most recently selected plan (selecting one if none yet)."""
        if self._current is None:
            return self.plan()
        return self._current

    def wall_report(self) -> dict[str, dict]:
        """Measured per-plan wall clock (empty when never reported)."""
        report = {}
        for tiers, samples in sorted(self._wall_samples.items()):
            report[">".join(tiers) or "none"] = {
                "samples": len(samples),
                "mean_wall_s": round(sum(samples) / len(samples), 6),
            }
        return report

    def snapshot(self) -> dict:
        """JSON-safe state for ``/health`` and benchmark reports."""
        return {
            "plan": self.current_plan.name,
            "observations": self.observations,
            "cached_skipped": self.cached_skipped,
            "plan_switches": self.plan_switches,
            "totals": dict(self.totals),
            "tier_estimates": self.tier_estimates(),
            "wall_clock": self.wall_report(),
            "stats": None
            if self.stats is None
            else {
                "size": self.stats.size,
                "length": self.stats.length,
                "n_rotations": self.stats.n_rotations,
                "measure": self.stats.measure,
            },
        }
