"""Cascading lower bounds: LB_Kim -> LB_Keogh -> LB_Improved -> distance.

The lower-bounding literature the paper founded settled on a *cascade*:
test the cheapest bound first and escalate only on survival.  LB_Kim
(Kim, Park & Chu, ICDE 2001) compares just a handful of landmark points
-- O(1) against DTW's O(nR) -- and is the classic first tier:

    LB_Kim  <=  LB_Keogh  (not in general -- but both <= DTW, which is
                            what admissibility requires)

Between LB_Keogh and the full distance sits Lemire's two-pass LB_Improved
("Faster Retrieval with a Two-Pass Dynamic-Time-Warping Lower Bound"):
for the O(n) cost of a second envelope pass it often rejects candidates
LB_Keogh lets through, saving an O(nR) dynamic program.

This module provides:

* :func:`lb_kim` -- the 4-point bound (first, last, global min, global
  max) against a wedge envelope, admissible for DTW into the wedge;
* :func:`candidate_extremes` -- the once-per-candidate landmark scan,
  so repeated Kim tests really cost the 4 comparisons they are charged;
* :class:`CascadePolicy` -- a pluggable leaf policy for H-Merge-style
  search loops: given a candidate, a leaf wedge, and the current
  threshold, run the cascade and return the exact distance or prove the
  leaf hopeless after as little work as possible.

The ablation benchmark quantifies how many full DTW computations the
extra tiers remove.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counters import StepCounter
from repro.core.wedge import Wedge
from repro.distances.base import Measure
from repro.obs.trace import NULL_TRACER

__all__ = [
    "lb_kim",
    "candidate_extremes",
    "CascadePolicy",
    "empty_tier_stats",
    "CASCADE_TIERS",
    "canonical_tiers",
]

#: Canonical cascade order: cheapest admissible test first.  Plans may
#: drop tiers or permute them: exactness only needs admissibility, which
#: every tier has independently.
CASCADE_TIERS = ("kim", "keogh", "improved")

#: Keys every tier-stats dict exposes, cascade or not.  Non-cascade search
#: strategies report this zeroed sentinel on ``SearchResult.tier_stats`` so
#: downstream reporting (the ``repro obs`` funnel above all) never branches
#: on ``None``.
TIER_STAT_KEYS = (
    "leaf_candidates",
    "kim_rejections",
    "keogh_reached",
    "keogh_rejections",
    "improved_reached",
    "improved_rejections",
    "full_computations",
)


def empty_tier_stats() -> dict[str, int]:
    """A zeroed tier-stats dict with the full :data:`TIER_STAT_KEYS` schema."""
    return dict.fromkeys(TIER_STAT_KEYS, 0)


def canonical_tiers(measure: Measure, use_kim: bool = True, use_improved: bool = True) -> tuple[str, ...]:
    """The default tier tuple for ``measure`` under the two legacy toggles.

    This is the order every release before the planner hardcoded: Kim (when
    the measure is Kim-compatible), then Keogh, then Improved (when the
    measure has one).  ``CascadePolicy(measure)`` is exactly
    ``CascadePolicy(measure, tiers=canonical_tiers(measure))``.
    """
    tiers = []
    if use_kim and measure.kim_compatible:
        tiers.append("kim")
    tiers.append("keogh")
    if use_improved and measure.has_improved_bound:
        tiers.append("improved")
    return tuple(tiers)


def candidate_extremes(candidate: np.ndarray) -> tuple[float, float, float, float]:
    """The four landmark values LB_Kim needs: first, last, max, min.

    One O(n) scan; callers that test the same candidate against many wedges
    (every H-Merge descent) compute this once and pass it to :func:`lb_kim`,
    so each Kim test afterwards really is the 4 comparisons it is charged.
    """
    c = np.asarray(candidate, dtype=np.float64)
    return float(c[0]), float(c[-1]), float(c.max()), float(c.min())


def lb_kim(
    candidate: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
    extremes: tuple[float, float, float, float] | None = None,
) -> float:
    """The 4-point Kim bound against an (already measure-expanded) envelope.

    Admissibility: any warping path aligns the *first* points of the two
    series with each other and the *last* points with each other, so the
    first/last violations are unavoidable; and every candidate point --
    including its extremes -- must pay at least its distance to the
    envelope.  The bound is the largest single unavoidable violation,
    which can never exceed the full accumulated LB_Keogh (hence <= DTW).

    ``extremes`` is the output of :func:`candidate_extremes`; omitting it
    recomputes the landmarks here (an O(n) scan the caller then owns --
    honest step accounting charges that scan once per candidate, not per
    wedge, which is why cascades precompute).
    """
    if extremes is None:
        extremes = candidate_extremes(candidate)
    c_first, c_last, c_max, c_min = extremes
    n = upper.shape[0]

    def violation(value: float, hi: float, lo: float) -> float:
        if value > hi:
            return value - hi
        if value < lo:
            return lo - value
        return 0.0

    first = violation(c_first, upper[0], lower[0])
    last = violation(c_last, upper[n - 1], lower[n - 1])
    env_hi = float(upper.max())
    env_lo = float(lower.min())
    cmax = violation(c_max, env_hi, env_lo)
    cmin = violation(c_min, env_hi, env_lo)
    return max(first, last, cmax, cmin)


class CascadePolicy:
    """Evaluate a leaf through the LB_Kim -> LB_Keogh -> LB_Improved ->
    distance cascade.

    Parameters
    ----------
    measure:
        The final (expensive) measure; for Euclidean distance the second
        tier is already exact and the later ones never run.
    use_kim:
        Toggle the O(1) first tier (the ablation knob).  Forced off when
        the measure declares itself ``kim_compatible = False`` (LCSS: the
        value-space Kim bound is inadmissible in match-count space).
    use_improved:
        Toggle the two-pass LB_Improved tier between LB_Keogh and the full
        distance.  It only ever runs when the measure declares
        ``has_improved_bound`` and the threshold is finite (an infinite
        threshold rejects nothing, so the second pass would be pure cost).
    tracer:
        A :class:`~repro.obs.trace.Tracer` receiving one event per tier
        decision (and a span around each full distance computation).
        Defaults to the no-op null tracer; tracing never touches the step
        accounting.

    Besides the per-tier *rejection* counts, the policy tracks the tier
    **funnel**: how many leaf candidates entered the cascade
    (``leaf_candidates``), survived into the LB_Keogh tier
    (``keogh_reached``), survived into the LB_Improved stage
    (``improved_reached``), and paid a full distance
    (``full_computations``).  Exactness makes the funnel monotonically
    non-increasing; observability code asserts that.
    """

    def __init__(
        self,
        measure: Measure,
        use_kim: bool = True,
        use_improved: bool = True,
        tracer=None,
        tiers: tuple[str, ...] | None = None,
    ):
        self.measure = measure
        if tiers is None:
            tiers = canonical_tiers(measure, use_kim=use_kim, use_improved=use_improved)
        else:
            tiers = self._validate_tiers(measure, tiers)
        self.tiers = tiers
        self.use_kim = "kim" in tiers
        self.use_improved = "improved" in tiers
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Resolved once per policy (i.e. per query): stamped on the
        # full-distance trace spans so traces say which kernels ran.
        self.backend_name = measure.backend_name
        self.leaf_candidates = 0
        self.keogh_reached = 0
        self.improved_reached = 0
        self.kim_rejections = 0
        self.keogh_rejections = 0
        self.improved_rejections = 0
        self.full_computations = 0
        self._prepared: np.ndarray | None = None
        self._extremes: tuple[float, float, float, float] | None = None
        self._env_extremes: dict[Wedge, tuple[float, float]] = {}

    @staticmethod
    def _validate_tiers(measure: Measure, tiers: tuple[str, ...]) -> tuple[str, ...]:
        """Normalise an explicit tier tuple against the measure's abilities.

        Unknown names and duplicates are errors; tiers the measure cannot
        support (``kim`` for non-Kim-compatible measures, ``improved`` when
        the measure has no improved bound) are silently dropped, matching
        the legacy toggle semantics.  ``improved`` without a preceding
        ``keogh`` is rejected: LB_Improved's second pass refines the Keogh
        envelope distance and is only cheaper *given* that first pass.
        """
        tiers = tuple(tiers)
        for name in tiers:
            if name not in CASCADE_TIERS:
                raise ValueError(f"unknown cascade tier {name!r}; expected one of {CASCADE_TIERS}")
        if len(set(tiers)) != len(tiers):
            raise ValueError(f"duplicate cascade tier in {tiers!r}")
        kept = tuple(
            name
            for name in tiers
            if not (name == "kim" and not measure.kim_compatible)
            and not (name == "improved" and not measure.has_improved_bound)
        )
        if "improved" in kept and ("keogh" not in kept or kept.index("keogh") > kept.index("improved")):
            raise ValueError(
                f"tier order {tiers!r} runs 'improved' without a preceding 'keogh'; "
                "LB_Improved refines the Keogh pass and must follow it"
            )
        return kept

    def reset(self) -> None:
        """Zero the funnel counters and drop per-candidate memos.

        A policy instance reused across queries *must* call this between
        them: the counters otherwise accumulate for the instance lifetime
        and any per-query consumer (the planner's cost model above all)
        would see a blended funnel.
        """
        self.leaf_candidates = 0
        self.keogh_reached = 0
        self.improved_reached = 0
        self.kim_rejections = 0
        self.keogh_rejections = 0
        self.improved_rejections = 0
        self.full_computations = 0
        self._prepared = None
        self._extremes = None
        self._env_extremes.clear()

    def prepare(self, candidate: np.ndarray, counter: StepCounter | None = None) -> None:
        """Memoize the candidate's Kim landmarks (one O(n) scan, charged here).

        Called automatically by :meth:`leaf_distance` / :meth:`wedge_bound`
        when the candidate changes; callers looping one candidate over many
        wedges pay the scan exactly once.
        """
        if self._prepared is candidate:
            return
        self._prepared = candidate
        if self.use_kim:
            self._extremes = candidate_extremes(candidate)
            if counter is not None:
                counter.add(np.asarray(candidate).size)
        else:
            self._extremes = None

    def _kim(
        self,
        candidate: np.ndarray,
        wedge: Wedge,
        upper: np.ndarray,
        lower: np.ndarray,
        counter: StepCounter | None,
    ) -> float:
        """One Kim test: 4 comparisons after the memoized landmark scans."""
        self.prepare(candidate, counter)
        env = self._env_extremes.get(wedge)
        if env is None:
            env = (float(upper.max()), float(lower.min()))
            self._env_extremes[wedge] = env
            if counter is not None:
                counter.add(upper.shape[0])
        c_first, c_last, c_max, c_min = self._extremes
        n = upper.shape[0]
        env_hi, env_lo = env

        def violation(value: float, hi: float, lo: float) -> float:
            if value > hi:
                return value - hi
            if value < lo:
                return lo - value
            return 0.0

        if counter is not None:
            counter.lb_calls += 1
            counter.add(4)  # four landmark comparisons
        return max(
            violation(c_first, upper[0], lower[0]),
            violation(c_last, upper[n - 1], lower[n - 1]),
            violation(c_max, env_hi, env_lo),
            violation(c_min, env_hi, env_lo),
        )

    def wedge_bound(
        self,
        candidate: np.ndarray,
        wedge: Wedge,
        threshold: float,
        counter: StepCounter | None = None,
    ) -> float:
        """Lower bound of ``candidate`` against any (internal) wedge.

        Runs the cheap Kim tier first when enabled, then LB_Keogh; used by
        H-Merge to decide whether a subtree can be pruned wholesale.
        """
        upper, lower = wedge.envelope_for(self.measure, counter=counter)
        tracer = self.tracer
        if self.use_kim:
            kim = self._kim(candidate, wedge, upper, lower, counter)
            if kim >= threshold:
                self.kim_rejections += 1
                if tracer.enabled:
                    tracer.event(
                        "cascade.kim",
                        outcome="reject",
                        kind="wedge",
                        cardinality=wedge.cardinality,
                        bound=float(kim),
                    )
                return kim
        lb = self.measure.lower_bound(candidate, upper, lower, threshold, counter=counter)
        if tracer.enabled:
            tracer.event(
                "cascade.keogh",
                outcome="reject" if lb >= threshold else "pass",
                kind="wedge",
                cardinality=wedge.cardinality,
                bound=float(lb),
            )
        return lb

    def leaf_distance(
        self,
        candidate: np.ndarray,
        leaf: Wedge,
        threshold: float,
        counter: StepCounter | None = None,
    ) -> float:
        """Exact distance to the leaf's series, or ``inf`` once provably
        >= ``threshold`` -- after as little work as the cascade allows.

        The tiers run in the order this policy was configured with.  The
        funnel counters keep their canonical meaning under any order: a
        candidate is counted as *reaching* the Keogh/Improved stage when it
        survives long enough that the canonical cascade would have run that
        stage -- so a plan that drops a tier passes candidates through its
        ``*_reached`` counter untested, and ``funnel_is_monotone`` holds for
        every legal plan.
        """
        self.leaf_candidates += 1
        tracer = self.tracer
        upper, lower = leaf.envelope_for(self.measure, counter=counter)
        keogh: float | None = None
        keogh_credited = False
        improved_credited = False
        for tier in self.tiers:
            if tier == "kim":
                kim = self._kim(candidate, leaf, upper, lower, counter)
                if kim >= threshold:
                    self.kim_rejections += 1
                    if tracer.enabled:
                        tracer.event("cascade.kim", outcome="reject", kind="leaf", bound=float(kim))
                    return math.inf
                if tracer.enabled:
                    tracer.event("cascade.kim", outcome="pass", kind="leaf", bound=float(kim))
            elif tier == "keogh":
                self.keogh_reached += 1
                keogh_credited = True
                keogh = self.measure.lower_bound(candidate, upper, lower, threshold, counter=counter)
                if keogh >= threshold:
                    self.keogh_rejections += 1
                    if tracer.enabled:
                        tracer.event(
                            "cascade.keogh", outcome="reject", kind="leaf", bound=float(keogh)
                        )
                    return math.inf
                if tracer.enabled:
                    tracer.event("cascade.keogh", outcome="pass", kind="leaf", bound=float(keogh))
                if self.measure.lb_exact_for_singleton:
                    return keogh
            elif tier == "improved":
                if not keogh_credited:
                    self.keogh_reached += 1
                    keogh_credited = True
                self.improved_reached += 1
                improved_credited = True
                if math.isfinite(threshold):
                    improved = self.measure.improved_lower_bound(
                        candidate,
                        upper,
                        lower,
                        leaf.upper,
                        leaf.lower,
                        threshold,
                        keogh=keogh,
                        counter=counter,
                    )
                    if improved >= threshold:
                        self.improved_rejections += 1
                        if tracer.enabled:
                            tracer.event(
                                "cascade.improved",
                                outcome="reject",
                                kind="leaf",
                                bound=float(improved),
                            )
                        return math.inf
                    if tracer.enabled:
                        tracer.event(
                            "cascade.improved", outcome="pass", kind="leaf", bound=float(improved)
                        )
        if not keogh_credited:
            self.keogh_reached += 1
        if not improved_credited:
            self.improved_reached += 1
        self.full_computations += 1
        with tracer.span("cascade.full_distance", backend=self.backend_name) as span:
            dist = self.measure.distance(candidate, leaf.series, threshold, counter=counter)
            span.set(distance=float(dist))
        return dist

    def add_block_funnel(self, pairs: int, survived: int, improved_rejections: int, refined: int) -> None:
        """Fold one block-engine query (:mod:`repro.core.block`) into the funnel.

        That engine counts (object, rotation) *pairs*: every pair is a leaf
        candidate and reaches LB_Keogh (its visiting order, so it always
        runs; ``kim`` tests nothing there); ``survived`` pairs passed it,
        ``improved_rejections`` of them failed LB_Improved, and ``refined``
        paid a pairwise kernel.  Euclidean pairs never reach a later tier:
        their LB_Keogh is the distance.
        """
        self.leaf_candidates += pairs
        self.keogh_reached += pairs
        self.keogh_rejections += pairs - survived
        if not self.measure.lb_exact_for_singleton:
            self.improved_reached += survived
        self.improved_rejections += improved_rejections
        self.full_computations += refined

    def stats(self) -> dict[str, int]:
        """Tier funnel and rejection counts (for reports and ``repro obs``).

        Same key schema as :func:`empty_tier_stats`; the ``*_reached`` keys
        count leaf candidates *entering* each tier, the ``*_rejections``
        keys count candidates each tier removed (internal-wedge Kim/Keogh
        rejections from :meth:`wedge_bound` are folded into the same
        rejection buckets).
        """
        return {
            "leaf_candidates": self.leaf_candidates,
            "kim_rejections": self.kim_rejections,
            "keogh_reached": self.keogh_reached,
            "keogh_rejections": self.keogh_rejections,
            "improved_reached": self.improved_reached,
            "improved_rejections": self.improved_rejections,
            "full_computations": self.full_computations,
        }
