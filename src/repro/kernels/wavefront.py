"""The ``wavefront`` backend: pure-NumPy anti-diagonal kernels.

Cells on one anti-diagonal (constant ``i + j``) of the warping matrix have
no mutual dependencies, so each diagonal is one vectorised update and a
whole chunk of candidates advances simultaneously.  The DTW kernel here
improves on the original batched implementation by keeping the dynamic
program in **three rotating ``(k, n+1)`` buffers** with a permanent +inf
sentinel column (cell ``i`` lives in column ``i + 1``): predecessor reads
become plain slices -- no per-diagonal ``np.full`` allocation, no pad
column concatenation -- while the band edges are kept +inf by clearing one
column on each side of the written band (sufficient because the band
boundaries are non-decreasing in ``s``, so every future read window is
covered).  The floating-point operation sequence per cell is unchanged, so
results and step counts stay bit-identical to the scalar reference.

This backend has no dependencies beyond NumPy and is the auto-selected
fallback whenever the optional numba backend is unavailable.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels import KernelBackend
from repro.kernels._dp import diag_bounds
from repro.kernels.scalar import dtw_single_pair

__all__ = ["WavefrontBackend"]


def _dtw_batch_wavefront(q, rows, radius: int, threshold: float):
    """Vectorised anti-diagonal banded DTW with sentinel-column buffers."""
    from repro.core.batch import shared_workspace

    n = q.size
    k = rows.shape[0]
    workspace = shared_workspace()
    p2 = workspace.scratch("wavefront_dtw_a", (k, n + 1))
    p1 = workspace.scratch("wavefront_dtw_b", (k, n + 1))
    wr = workspace.scratch("wavefront_dtw_c", (k, n + 1))
    p2.fill(np.inf)
    p1.fill(np.inf)
    p1_min = np.full(k, np.inf)
    p2_min = np.full(k, np.inf)
    alive = np.ones(k, dtype=bool)
    steps = 0
    finite = math.isfinite(threshold)

    for s in range(2 * n - 1):
        lo, hi = diag_bounds(s, n, radius)
        if lo > hi:
            # Empty diagonal (radius=0, odd s): rotate in an all-inf
            # diagonal so predecessor reads stay depth-aligned.
            wr.fill(np.inf)
            p2, p1, wr = p1, wr, p2
            p2_min = p1_min
            p1_min = np.full(k, np.inf)
            continue
        width = hi - lo + 1
        # Cell i of diagonal s lands in column i+1; its j-coordinate runs
        # s-lo down to s-hi as i runs lo..hi (hence the reversed slice).
        target = wr[:, lo + 1 : hi + 2]
        np.subtract(
            rows[:, s - hi : s - lo + 1][:, ::-1], q[lo : hi + 1][np.newaxis, :], out=target
        )
        np.square(target, out=target)
        if s > 0:
            # Transitions: (i-1, j) and (i, j-1) live on diagonal s-1 at
            # columns i and i+1; (i-1, j-1) on diagonal s-2 at column i.
            up = p1[:, lo : hi + 1]
            left = p1[:, lo + 1 : hi + 2]
            diag = p2[:, lo : hi + 1]
            best_prev = np.minimum(up, left)
            np.minimum(best_prev, diag, out=best_prev)
            target += best_prev
        steps += int(alive.sum()) * width
        new_min = target.min(axis=1)
        # Re-arm the sentinels one column beyond each end of the written
        # band; the band edges never retreat, so this covers every read
        # window of the next two diagonals.
        wr[:, lo] = np.inf
        if hi + 2 <= n:
            wr[:, hi + 2] = np.inf
        p2, p1, wr = p1, wr, p2
        p2_min = p1_min
        p1_min = new_min
        if finite:
            # A complete path must touch anti-diagonal s or s+1, so once
            # the minima of the two most recent diagonals both exceed r^2
            # no path can finish within r.
            doomed = (np.minimum(p1_min, p2_min) > threshold) & alive
            if doomed.any():
                alive &= ~doomed
                if not alive.any():
                    break

    distances = np.full(k, np.inf)
    final = p1[:, n].copy()
    finished = alive & np.isfinite(final)
    if finite:
        finished &= final <= threshold
    distances[finished] = np.sqrt(final[finished])
    abandoned = ~finished
    return distances, steps, abandoned


def _lcss_batch_wavefront(q, rows, delta: int, epsilon: float, required: float):
    """Vectorised anti-diagonal banded LCSS (zero-padded buffers, max DP)."""
    n = q.size
    k = rows.shape[0]

    # Missing predecessors -- the virtual row/column -1 and cells outside
    # the band -- are read as 0.  This is exact: every optimal in-band match
    # sequence can be realised by a skip path that never leaves the band,
    # and LCSS lengths are non-negative, so clamping missing cells to 0
    # neither gains nor loses matches.
    prev1 = np.zeros((k, n))
    prev2 = np.zeros((k, n))
    alive = np.ones(k, dtype=bool)
    prev1_best = np.zeros(k)
    prev2_best = np.zeros(k)
    steps = 0

    for s in range(2 * n - 1):
        lo, hi = diag_bounds(s, n, delta)
        if lo > hi:
            prev2, prev2_best = prev1, prev1_best
            prev1 = np.zeros((k, n))
            prev1_best = np.zeros(k)
            continue
        width = hi - lo + 1
        q_slice = q[lo : hi + 1]
        c_slice = rows[:, s - hi : s - lo + 1][:, ::-1]
        match = (np.abs(c_slice - q_slice[np.newaxis, :]) <= epsilon).astype(np.float64)

        if s == 0:
            current = match
        else:
            up = prev1[:, lo - 1 : hi] if lo >= 1 else _pad_left_zeros(prev1[:, lo:hi], k)
            left = prev1[:, lo : hi + 1]
            diag = prev2[:, lo - 1 : hi] if lo >= 1 else _pad_left_zeros(prev2[:, lo:hi], k)
            # L[i,j] = max(L[i-1,j], L[i,j-1], L[i-1,j-1] + match(i,j)) is
            # the standard skip/extend formulation of LCSS.
            current = np.maximum(np.maximum(up, left), diag + match)

        steps += int(alive.sum()) * width

        new_best = current.max(axis=1)
        prev2 = prev1
        prev2_best = prev1_best
        prev1 = np.zeros((k, n))
        prev1[:, lo : hi + 1] = current
        prev1_best = new_best

        if required > 0:
            # From any cell on diagonal s, at most n - 1 - ceil(s/2) further
            # matches are possible (each match advances both coordinates).
            # A path may also jump from diagonal s - 1 straight to s + 1, so
            # that diagonal is credited with its own, larger budget.
            reachable = np.maximum(
                prev1_best + (n - 1 - (s + 1) // 2), prev2_best + (n - 1 - s // 2)
            )
            doomed = (reachable < required) & alive
            if doomed.any():
                alive &= ~doomed
                if not alive.any():
                    break

    sims = np.full(k, -np.inf)
    final = prev1[:, n - 1]
    # A candidate that survived to the last anti-diagonal is finished; a
    # finished candidate that still misses the floor is reported as-is.
    # Only truly abandoned candidates carry -inf.
    sims[alive] = final[alive] / n
    abandoned = ~alive
    return sims, steps, abandoned


def _pad_left_zeros(block: np.ndarray, k: int) -> np.ndarray:
    pad = np.zeros((k, 1))
    if block.shape[1] == 0:
        return pad
    return np.concatenate([pad, block], axis=1)


class WavefrontBackend(KernelBackend):
    """Pure-NumPy anti-diagonal kernels (the no-new-dependencies default)."""

    name = "wavefront"
    priority = 10

    def dtw_single(self, q, c, radius, r):
        # Per-pair DP over short series: the interpreted list loop beats
        # any small-array NumPy formulation, so the wavefront backend
        # shares the scalar implementation for this one operation.
        return dtw_single_pair(q, c, radius, r)

    def dtw_batch(self, q, rows, radius, r):
        q, rows = self._coerce(q, rows)
        return _dtw_batch_wavefront(q, rows, radius, self._squared_threshold(r))

    def lcss_batch(self, q, rows, delta, epsilon, min_similarity):
        q, rows = self._coerce(q, rows)
        required = min_similarity * q.shape[0]
        return _lcss_batch_wavefront(q, rows, delta, epsilon, required)

    def lb_keogh(self, q, upper, lower, r):
        from repro.core.batch import shared_workspace
        from repro.distances.euclidean import _ea_envelope_lb

        return _ea_envelope_lb(q, upper, lower, r, workspace=shared_workspace())

    def lb_improved_pass2(self, q, upper, lower, raw_upper, raw_lower, radius):
        from repro.timeseries.ops import sliding_envelope

        q, upper, lower, raw_upper, raw_lower = self._coerce(
            q, upper, lower, raw_upper, raw_lower
        )
        projection = np.clip(q, lower, upper)
        env_hi, env_lo = sliding_envelope(projection, projection, radius)
        gap = np.maximum(env_lo - raw_upper, raw_lower - env_hi)
        np.maximum(gap, 0.0, out=gap)
        np.square(gap, out=gap)
        # Sequential (cumulative) sum, not a pairwise/BLAS reduction: the
        # library-wide accumulation rule that keeps backends bit-identical.
        return float(np.cumsum(gap)[-1])

    def lb_improved_batch(self, rows, upper, lower, raw_upper, raw_lower, radius, r):
        from repro.core.batch import batch_lb_improved, shared_workspace

        return batch_lb_improved(
            rows,
            upper,
            lower,
            raw_upper,
            raw_lower,
            radius,
            r=r,
            workspace=shared_workspace(),
        )
