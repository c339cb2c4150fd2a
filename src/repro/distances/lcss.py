"""Longest Common SubSequence similarity (Section 4.3, Figures 14-15).

LCSS is DTW's robust cousin: instead of forcing every point to match, it
simply ignores parts of the series that are too difficult to match --
occlusions, broken projectile-point tips, missing skull bones.  Two points
``q_i`` and ``c_j`` *match* when they are within ``epsilon`` in value and
within ``delta`` in time; the LCSS length is the largest number of
monotonically ordered matches.

Following the paper (and Vlachos et al. [37], which it cites for the lower
bound), we report:

* ``similarity(q, c) = lcss_length / n``  in ``[0, 1]``,
* ``distance(q, c)   = 1 - similarity``   so the wedge machinery can treat
  LCSS uniformly as a distance (the paper: "The minor changes include
  reversing some inequality signs since LCSS is a similarity measure").

The dynamic program runs over anti-diagonals exactly like
:mod:`repro.distances.dtw`, with ``max`` in place of ``min``, and abandons
early once even a perfect match of all remaining points could not bring the
distance below the threshold.  The DP itself lives in the pluggable kernel
backends of :mod:`repro.kernels`; this module validates arguments, selects
a backend, and keeps the step accounting.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counters import StepCounter
from repro.distances.base import Measure
from repro.kernels import get_backend
from repro.timeseries.ops import sliding_envelope

__all__ = ["LCSSMeasure", "lcss_similarity", "lcss_batch"]


def lcss_similarity(q, c, delta: int, epsilon: float) -> float:
    """LCSS similarity of two equal-length series, in ``[0, 1]``."""
    sims, _steps, _abandoned = lcss_batch(q, np.atleast_2d(c), delta, epsilon)
    return float(sims[0])


def lcss_batch(
    q,
    candidates,
    delta: int,
    epsilon: float,
    min_similarity: float = 0.0,
    backend: str | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Banded LCSS similarity of ``q`` against every row of ``candidates``.

    Parameters
    ----------
    q, candidates:
        Query series and a ``(k, n)`` matrix of candidates.
    delta:
        Maximum time separation ``|i - j|`` of a matched pair.
    epsilon:
        Maximum value separation of a matched pair.
    min_similarity:
        Early-abandonment floor: a candidate is abandoned once even matching
        every remaining point could not reach this similarity.  Abandoned
        candidates report similarity ``-inf``.
    backend:
        Kernel backend name, or ``None`` for the default resolution chain.

    Returns
    -------
    (similarities, steps, abandoned)
    """
    q = np.asarray(q, dtype=np.float64)
    rows = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if rows.shape[1] != q.size:
        raise ValueError(f"length mismatch: {rows.shape[1]} vs {q.size}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    delta = min(int(delta), q.size - 1)
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return get_backend(backend).lcss_batch(q, rows, delta, float(epsilon), float(min_similarity))


class LCSSMeasure(Measure):
    """LCSS exposed as a distance (``1 - similarity``) for the wedge engine.

    Parameters
    ----------
    delta:
        Time-warping band (like DTW's ``R``).
    epsilon:
        Value threshold below which two points are considered matched.
    backend:
        Kernel backend name to pin this instance to, or ``None`` (the
        default) to resolve per call.  Backends are exact, so the choice
        never enters :meth:`cache_key`.
    """

    name = "lcss"
    has_improved_bound = True
    # LB_Kim compares raw values; LCSS distance lives in match-count space,
    # where one large value discrepancy proves nothing about the distance.
    kim_compatible = False
    uses_kernel_backends = True

    def __init__(self, delta: int, epsilon: float, backend: str | None = None):
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.delta = int(delta)
        self.epsilon = float(epsilon)
        if backend is not None:
            backend = get_backend(backend).name
        self.backend = backend

    def cache_key(self) -> tuple:
        return (self.name, self.delta, self.epsilon)

    def distance(self, q, c, r=math.inf, counter: StepCounter | None = None) -> float:
        floor = max(0.0, 1.0 - r) if math.isfinite(r) else 0.0
        sims, steps, abandoned = lcss_batch(
            q,
            np.atleast_2d(c),
            self.delta,
            self.epsilon,
            min_similarity=floor,
            backend=self.backend,
        )
        if counter is not None:
            counter.distance_calls += 1
            counter.add(steps)
            counter.early_abandons += int(abandoned[0])
        if abandoned[0]:
            return math.inf
        return 1.0 - float(sims[0])

    def expand_envelope(self, upper, lower):
        """Widen the wedge by the time band ``delta`` and value band ``epsilon``."""
        u, lo = sliding_envelope(upper, lower, self.delta)
        return u + self.epsilon, lo - self.epsilon

    def lower_bound(
        self, q, upper, lower, r=math.inf, counter: StepCounter | None = None
    ) -> float:
        """``1 - (matchable points) / n`` lower-bounds the LCSS distance.

        A point of the candidate that lies outside the expanded envelope can
        never participate in a match with any enclosed query rotation, so
        the count of in-envelope points upper-bounds the LCSS length.
        Scanning abandons once the mismatch count alone already exceeds
        ``r * n``.
        """
        q = np.asarray(q, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        lower = np.asarray(lower, dtype=np.float64)
        n = q.size
        outside = (q > upper) | (q < lower)
        if counter is not None:
            counter.lb_calls += 1
        if math.isfinite(r):
            misses = np.cumsum(outside)
            allowed = r * n
            cut = int(np.searchsorted(misses, allowed, side="right"))
            if cut < n:
                if counter is not None:
                    counter.add(cut + 1)
                    counter.early_abandons += 1
                return math.inf
        if counter is not None:
            counter.add(n)
        return float(int(outside.sum())) / n

    def improved_lower_bound(
        self,
        q,
        upper,
        lower,
        raw_upper,
        raw_lower,
        r=math.inf,
        keogh: float | None = None,
        counter: StepCounter | None = None,
    ) -> float:
        """The sign-flipped LCSS analogue of LB_Improved.

        Pass 1 counts points of ``q`` no enclosed series can match.  Pass 2
        counts wedge positions ``j`` whose whole raw interval lies outside
        the ``delta``/``epsilon`` band of the projection ``H = clip(q, L,
        U)`` -- unmatchable by *any* point of ``q``: a matchable pair needs
        ``q_i`` inside the expanded envelope (else pass 1 already excludes
        it), and there ``H_i == q_i``.  Each match consumes one position on
        either side, so ``matches <= n - max(pass1, pass2)`` and the bound
        is the *max* of the two passes (summing would be inadmissible --
        unlike DTW's additive cost, a match blocked twice is still just one
        lost match).
        """
        if keogh is None:
            keogh = self.lower_bound(q, upper, lower, r, counter=counter)
        if not math.isfinite(keogh):
            return keogh
        q = np.asarray(q, dtype=np.float64)
        n = q.size
        projection = np.clip(q, lower, upper)
        env_hi, env_lo = sliding_envelope(projection, projection, self.delta)
        unmatchable = (np.asarray(raw_upper) < env_lo - self.epsilon) | (
            np.asarray(raw_lower) > env_hi + self.epsilon
        )
        if counter is not None:
            counter.lb_calls += 1
            counter.add(2 * n)
        return max(keogh, float(int(unmatchable.sum())) / n)

    def batch_wedge_bounds(
        self,
        candidate,
        uppers,
        lowers,
        raw_uppers,
        raw_lowers,
        r=math.inf,
        counter: StepCounter | None = None,
        use_improved: bool = True,
    ) -> np.ndarray:
        """Vectorised mismatch-count bounds against ``k`` stacked envelopes."""
        q = np.asarray(candidate, dtype=np.float64)
        uppers = np.atleast_2d(np.asarray(uppers, dtype=np.float64))
        lowers = np.atleast_2d(np.asarray(lowers, dtype=np.float64))
        raw_uppers = np.atleast_2d(np.asarray(raw_uppers, dtype=np.float64))
        raw_lowers = np.atleast_2d(np.asarray(raw_lowers, dtype=np.float64))
        k, n = uppers.shape
        outside = (q[np.newaxis, :] > uppers) | (q[np.newaxis, :] < lowers)
        bounds = np.full(k, math.inf)
        if math.isfinite(r):
            misses = np.cumsum(outside, axis=1)
            allowed = r * n
            # First column whose running mismatch count exceeds r*n, per row
            # (n when the row finishes the scan).
            cuts = (misses <= allowed).sum(axis=1)
            finished = cuts >= n
            steps = np.where(finished, n, np.minimum(cuts + 1, n)).astype(np.int64)
        else:
            misses = None
            finished = np.ones(k, dtype=bool)
            steps = np.full(k, n, dtype=np.int64)
        first = outside.sum(axis=1) / n
        bounds[finished] = first[finished]
        improve = use_improved and math.isfinite(r) and finished.any()
        if improve:
            second = (
                self.unmatchable_counts(
                    q[np.newaxis, :],
                    uppers[finished],
                    lowers[finished],
                    raw_uppers[finished],
                    raw_lowers[finished],
                )
                / n
            )
            bounds[finished] = np.maximum(bounds[finished], second)
            steps[finished] += 2 * n
        if counter is not None:
            counter.lb_calls += k
            counter.add(int(steps.sum()))
            counter.early_abandons += int((~finished).sum())
        return bounds

    def unmatchable_counts(self, rows, uppers, lowers, raw_uppers, raw_lowers) -> np.ndarray:
        """LB_Improved's second pass per row, as integer counts.

        Row ``t`` of ``rows`` is projected onto its expanded envelope
        ``(uppers[t], lowers[t])``; the result counts the positions of the
        raw arms ``(raw_uppers[t], raw_lowers[t])`` that lie wholly outside
        the ``delta``/``epsilon`` band of that projection (see
        :meth:`improved_lower_bound`).  ``rows`` broadcasts against the
        ``(k, n)`` arms.
        """
        from repro.core.batch import batch_sliding_envelope

        projection = np.clip(rows, lowers, uppers)
        env_hi, env_lo = batch_sliding_envelope(projection, self.delta)
        unmatchable = (raw_uppers < env_lo - self.epsilon) | (raw_lowers > env_hi + self.epsilon)
        return unmatchable.sum(axis=1)

    def pairwise_cost(self, n: int) -> int:
        from repro.distances.dtw import band_cell_count

        return band_cell_count(n, self.delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LCSSMeasure(delta={self.delta}, epsilon={self.epsilon})"
