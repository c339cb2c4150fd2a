"""The ``scalar`` reference backend: interpreted per-cell dynamic programs.

This backend executes the shared kernel sources of
:mod:`repro.kernels._dp` as plain Python.  It is deliberately the slowest
backend -- its job is to be the unambiguous ground truth: the operation
order every compiled or vectorised backend must reproduce bit for bit.

The one exception is :func:`dtw_single_pair`, the row-wise per-pair DTW
over Python lists.  It predates the backend registry (it was
``distances.dtw._dtw_single``) and remains the fastest *interpreted*
implementation of the H-Merge leaf hot path -- list indexing beats NumPy
scalar indexing by a wide margin -- so both the scalar and wavefront
backends route ``dtw_single`` through it.  Its float operations are
ordered identically to the array twin in ``_dp.dtw_single``, which the
parity tests verify.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels import KernelBackend
from repro.kernels import _dp

__all__ = ["ScalarBackend", "dtw_single_pair"]


def dtw_single_pair(q, c, radius: int, r: float = math.inf) -> tuple[float, int, bool]:
    """Row-wise banded DTW for a single (pre-validated) pair.

    The anti-diagonal batch kernels pay ~10 small-array numpy dispatches
    per diagonal, which dominates when comparing one pair of short series
    -- exactly the H-Merge leaf case.  This kernel runs the same dynamic
    program over Python floats, abandoning after any row whose minimum
    exceeds ``r^2`` (every warping path visits every row, so this is
    admissible).  Returns ``(distance, steps, abandoned)``.
    """
    q_list = np.asarray(q, dtype=np.float64).tolist()
    c_list = np.asarray(c, dtype=np.float64).tolist()
    n = len(q_list)
    threshold = r * r if math.isfinite(r) else math.inf
    inf = math.inf
    prev = [inf] * n
    steps = 0
    for i in range(n):
        j_lo = max(0, i - radius)
        j_hi = min(n - 1, i + radius)
        cur = [inf] * n
        row_min = inf
        qi = q_list[i]
        for j in range(j_lo, j_hi + 1):
            diff = qi - c_list[j]
            if i == 0 and j == 0:
                best_prev = 0.0
            else:
                best_prev = prev[j]
                if j > 0:
                    if prev[j - 1] < best_prev:
                        best_prev = prev[j - 1]
                    if cur[j - 1] < best_prev:
                        best_prev = cur[j - 1]
            cost = diff * diff + best_prev
            cur[j] = cost
            if cost < row_min:
                row_min = cost
            steps += 1
        if row_min > threshold:
            return math.inf, steps, True
        prev = cur
    final = prev[n - 1]
    if final > threshold:
        return math.inf, steps, True
    return math.sqrt(final), steps, False


class ScalarBackend(KernelBackend):
    """Interpreted reference kernels (the shared ``_dp`` sources, un-jitted)."""

    name = "scalar"
    priority = 0

    def dtw_single(self, q, c, radius, r):
        return dtw_single_pair(q, c, radius, r)

    def dtw_pairwise(self, qs, rows, radius, r):
        qs, rows = self._coerce(qs, rows)
        dists, steps, abandoned = _dp.dtw_pairwise(qs, rows, radius, self._squared_thresholds(r))
        return dists, int(steps), abandoned

    def lcss_pairwise(self, qs, rows, delta, epsilon, required):
        qs, rows, required = self._coerce(qs, rows, required)
        sims, steps, abandoned = _dp.lcss_pairwise(qs, rows, delta, epsilon, required)
        return sims, int(steps), abandoned

    def lb_keogh(self, q, upper, lower, r):
        q, upper, lower = self._coerce(q, upper, lower)
        bound, steps = _dp.lb_keogh(q, upper, lower, self._squared_threshold(r))
        return float(bound), int(steps)

    def lb_improved_pass2(self, q, upper, lower, raw_upper, raw_lower, radius):
        q, upper, lower, raw_upper, raw_lower = self._coerce(
            q, upper, lower, raw_upper, raw_lower
        )
        return float(_dp.lb_improved_pass2(q, upper, lower, raw_upper, raw_lower, radius))

    def lb_improved_batch(self, rows, upper, lower, raw_upper, raw_lower, radius, r):
        rows, u, lo, raw_u, raw_lo = np.broadcast_arrays(
            *self._coerce(rows, upper, lower, raw_upper, raw_lower)
        )
        rows = np.atleast_2d(rows)
        u, lo = np.atleast_2d(u), np.atleast_2d(lo)
        raw_u, raw_lo = np.atleast_2d(raw_u), np.atleast_2d(raw_lo)
        bounds, steps = _dp.lb_improved_batch(
            rows, u, lo, raw_u, raw_lo, radius, self._squared_threshold(r)
        )
        return bounds, steps
