"""Shared dynamic-program kernel sources for the pluggable backends.

Every function in this module is written in the restricted Python subset
that Numba's ``@njit`` compiles in nopython mode: plain loops over float64
arrays, no closures, no calls into other Python functions.  The ``scalar``
backend executes these functions *interpreted* (they are the readable,
per-cell reference implementations of the paper's pseudocode); the
``numba`` backend compiles the very same function objects.  Because both
backends run the identical sequence of floating-point operations, their
answers -- and their ``num_steps`` accounting -- agree bit for bit by
construction, and the test suite holds the pure-NumPy ``wavefront``
backend to the same standard.

Conventions shared by every kernel:

* inputs are pre-validated, float64, with band parameters already clamped
  to ``n - 1`` by the public wrappers in :mod:`repro.distances`;
* ``threshold`` is the *squared* abandonment threshold (``r * r``), or
  ``+inf`` when no abandonment is requested -- comparisons against ``+inf``
  are simply never true, so no separate flag is needed;
* accumulations are strictly sequential (left to right), matching the
  library-wide rule that every partial sum is a cumulative sum, never a
  pairwise/BLAS reduction.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "diag_bounds",
    "dtw_single",
    "dtw_batch",
    "lcss_batch",
    "lb_keogh",
    "lb_improved_pass2",
    "lb_improved_batch",
]


def diag_bounds(s: int, n: int, radius: int) -> tuple[int, int]:
    """Inclusive ``i`` range of banded cells on anti-diagonal ``i + j = s``.

    The canonical band-geometry helper (previously duplicated by the DTW
    and LCSS modules); the jitted kernels inline the same expressions.
    """
    lo = max(0, s - (n - 1), (s - radius + 1) // 2)
    hi = min(n - 1, s, (s + radius) // 2)
    return lo, hi


def dtw_single(q, c, radius, threshold):
    """Row-wise banded DTW for one pair: ``(distance, steps, abandoned)``.

    Abandons after any row whose minimum exceeds ``threshold`` (every
    warping path visits every row, so this is admissible).  The two row
    buffers carry one +inf sentinel beyond each end of the written band,
    which is exactly the set of out-of-band cells the next row can read
    (the band shifts by at most one per row).
    """
    n = q.shape[0]
    prev = np.empty(n)
    cur = np.empty(n)
    for j in range(n):
        prev[j] = np.inf
    steps = 0
    for i in range(n):
        j_lo = i - radius
        if j_lo < 0:
            j_lo = 0
        j_hi = i + radius
        if j_hi > n - 1:
            j_hi = n - 1
        if j_lo > 0:
            cur[j_lo - 1] = np.inf
        row_min = np.inf
        qi = q[i]
        for j in range(j_lo, j_hi + 1):
            diff = qi - c[j]
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
            return np.inf, steps, True
        if j_hi + 1 < n:
            cur[j_hi + 1] = np.inf
        tmp = prev
        prev = cur
        cur = tmp
    final = prev[n - 1]
    if final > threshold:
        return np.inf, steps, True
    return math.sqrt(final), steps, False


def dtw_batch(q, rows, radius, threshold):
    """Anti-diagonal banded DTW of ``q`` against every row of ``rows``.

    Per-candidate twin of the vectorised wavefront kernel: each candidate
    walks the anti-diagonals with three rotating cell buffers and is
    abandoned once the minima of its two most recent diagonals both exceed
    ``threshold`` (every complete path touches one of any two consecutive
    anti-diagonals).  Steps are charged per diagonal *before* the doom
    check, matching the batched kernel's accounting exactly.  Returns
    ``(distances, steps, abandoned)``.
    """
    k = rows.shape[0]
    n = q.shape[0]
    distances = np.full(k, np.inf)
    abandoned = np.zeros(k, dtype=np.bool_)
    total_steps = 0
    p1 = np.empty(n)
    p2 = np.empty(n)
    wr = np.empty(n)
    for t in range(k):
        for x in range(n):
            p1[x] = np.inf
            p2[x] = np.inf
        p1_min = np.inf
        p2_min = np.inf
        doomed = False
        for s in range(2 * n - 1):
            lo = (s - radius + 1) // 2
            if lo < 0:
                lo = 0
            if lo < s - (n - 1):
                lo = s - (n - 1)
            hi = (s + radius) // 2
            if hi > n - 1:
                hi = n - 1
            if hi > s:
                hi = s
            if lo > hi:
                # Empty diagonal (radius=0, odd s): rotate in an all-inf
                # diagonal so predecessor reads stay depth-aligned.
                tmp = p2
                p2 = p1
                p2_min = p1_min
                p1 = tmp
                for x in range(n):
                    p1[x] = np.inf
                p1_min = np.inf
                continue
            if lo > 0:
                wr[lo - 1] = np.inf
            cur_min = np.inf
            for i in range(lo, hi + 1):
                j = s - i
                d = q[i] - rows[t, j]
                local = d * d
                if s == 0:
                    cell = local
                else:
                    up = p1[i - 1] if i > 0 else np.inf
                    left = p1[i]
                    diag = p2[i - 1] if i > 0 else np.inf
                    best_prev = up if up < left else left
                    if diag < best_prev:
                        best_prev = diag
                    cell = local + best_prev
                wr[i] = cell
                if cell < cur_min:
                    cur_min = cell
            total_steps += hi - lo + 1
            if hi + 1 < n:
                wr[hi + 1] = np.inf
            tmp = p2
            p2 = p1
            p2_min = p1_min
            p1 = wr
            p1_min = cur_min
            wr = tmp
            two_diag_min = p1_min if p1_min < p2_min else p2_min
            if two_diag_min > threshold:
                doomed = True
                break
        if doomed:
            abandoned[t] = True
            continue
        final = p1[n - 1]
        if np.isfinite(final) and final <= threshold:
            distances[t] = math.sqrt(final)
        else:
            abandoned[t] = True
    return distances, total_steps, abandoned


def lcss_batch(q, rows, delta, epsilon, required):
    """Anti-diagonal banded LCSS of ``q`` against every row of ``rows``.

    ``required`` is the match count needed to stay viable
    (``min_similarity * n``); a candidate is abandoned once even matching
    every remaining point could not reach it.  Abandoned candidates report
    similarity ``-inf``.  Returns ``(similarities, steps, abandoned)``.
    """
    k = rows.shape[0]
    n = q.shape[0]
    sims = np.full(k, -np.inf)
    abandoned = np.zeros(k, dtype=np.bool_)
    total_steps = 0
    p1 = np.empty(n)
    p2 = np.empty(n)
    wr = np.empty(n)
    for t in range(k):
        for x in range(n):
            p1[x] = 0.0
            p2[x] = 0.0
        p1_best = 0.0
        p2_best = 0.0
        doomed = False
        for s in range(2 * n - 1):
            lo = (s - delta + 1) // 2
            if lo < 0:
                lo = 0
            if lo < s - (n - 1):
                lo = s - (n - 1)
            hi = (s + delta) // 2
            if hi > n - 1:
                hi = n - 1
            if hi > s:
                hi = s
            if lo > hi:
                tmp = p2
                p2 = p1
                p2_best = p1_best
                p1 = tmp
                for x in range(n):
                    p1[x] = 0.0
                p1_best = 0.0
                continue
            if lo > 0:
                wr[lo - 1] = 0.0
            cur_best = -np.inf
            for i in range(lo, hi + 1):
                j = s - i
                d = q[i] - rows[t, j]
                if d < 0.0:
                    d = -d
                match = 1.0 if d <= epsilon else 0.0
                if s == 0:
                    cell = match
                else:
                    up = p1[i - 1] if i > 0 else 0.0
                    left = p1[i]
                    diag = (p2[i - 1] if i > 0 else 0.0) + match
                    cell = up if up > left else left
                    if diag > cell:
                        cell = diag
                wr[i] = cell
                if cell > cur_best:
                    cur_best = cell
            total_steps += hi - lo + 1
            if hi + 1 < n:
                wr[hi + 1] = 0.0
            tmp = p2
            p2 = p1
            p2_best = p1_best
            p1 = wr
            p1_best = cur_best
            wr = tmp
            if required > 0.0:
                # From any cell on diagonal s, at most n - 1 - ceil(s/2)
                # further matches remain (a match advances both coordinates).
                # A path may also jump from diagonal s - 1 straight to s + 1,
                # so that diagonal is credited with its own, larger budget.
                reach = p1_best + (n - 1 - (s + 1) // 2)
                reach_prev = p2_best + (n - 1 - s // 2)
                if reach_prev > reach:
                    reach = reach_prev
                if reach < required:
                    doomed = True
                    break
        if doomed:
            abandoned[t] = True
            continue
        sims[t] = p1[n - 1] / n
    return sims, total_steps, abandoned


def lb_keogh(q, upper, lower, threshold):
    """Early-abandoning LB_Keogh against an expanded envelope.

    The sequential-scan reference of the paper's Table 5: returns
    ``(bound, steps)`` where the bound is ``+inf`` and ``steps`` the
    1-based index of the violating element when the running squared sum
    exceeds ``threshold``.
    """
    n = q.shape[0]
    acc = 0.0
    for i in range(n):
        x = q[i]
        a = x - upper[i]
        if a < 0.0:
            a = 0.0
        b = lower[i] - x
        if b < 0.0:
            b = 0.0
        acc += a * a + b * b
        if acc > threshold:
            return np.inf, i + 1
    return math.sqrt(acc), n


def lb_improved_pass2(q, upper, lower, raw_upper, raw_lower, radius):
    """Second pass of Lemire's LB_Improved: the squared-gap total.

    Projects ``q`` onto the expanded envelope, takes the windowed extrema
    of the projection (the Sakoe-Chiba envelope of the projection), and
    sequentially accumulates the squared gap between the raw wedge arms
    and that envelope.  Returns the squared total; the caller combines it
    with the squared first pass before the final square root.
    """
    n = q.shape[0]
    if radius > n - 1:
        radius = n - 1
    proj = np.empty(n)
    for i in range(n):
        x = q[i]
        if x < lower[i]:
            x = lower[i]
        if x > upper[i]:
            x = upper[i]
        proj[i] = x
    acc = 0.0
    for i in range(n):
        w_lo = i - radius
        if w_lo < 0:
            w_lo = 0
        w_hi = i + radius
        if w_hi > n - 1:
            w_hi = n - 1
        env_hi = -np.inf
        env_lo = np.inf
        for j in range(w_lo, w_hi + 1):
            v = proj[j]
            if v > env_hi:
                env_hi = v
            if v < env_lo:
                env_lo = v
        g = env_lo - raw_upper[i]
        g2 = raw_lower[i] - env_hi
        if g2 > g:
            g = g2
        if g < 0.0:
            g = 0.0
        acc += g * g
    return acc


def lb_improved_batch(rows, upper, lower, raw_upper, raw_lower, radius, threshold):
    """Two-pass LB_Improved of every row against its own ``(m, n)`` envelope.

    Per row: the early-abandoning LB_Keogh first pass (abandoned rows
    report ``+inf`` and the scalar loop's step count), then -- for
    survivors, when ``radius > 0`` -- the projection second pass charged
    ``2n`` extra steps.  The two squared totals are combined with a single
    addition before the square root, matching the batched NumPy kernel.
    Returns ``(bounds, steps)``.
    """
    m = rows.shape[0]
    n = rows.shape[1]
    eff_radius = radius
    if eff_radius > n - 1:
        eff_radius = n - 1
    bounds = np.full(m, np.inf)
    steps = np.empty(m, dtype=np.int64)
    proj = np.empty(n)
    for t in range(m):
        acc = 0.0
        cut = -1
        for i in range(n):
            x = rows[t, i]
            a = x - upper[t, i]
            if a < 0.0:
                a = 0.0
            b = lower[t, i] - x
            if b < 0.0:
                b = 0.0
            acc += a * a + b * b
            if acc > threshold:
                cut = i
                break
        if cut >= 0:
            steps[t] = cut + 1
            continue
        steps[t] = n
        total = acc
        if radius > 0:
            for i in range(n):
                x = rows[t, i]
                if x < lower[t, i]:
                    x = lower[t, i]
                if x > upper[t, i]:
                    x = upper[t, i]
                proj[i] = x
            acc2 = 0.0
            for i in range(n):
                w_lo = i - eff_radius
                if w_lo < 0:
                    w_lo = 0
                w_hi = i + eff_radius
                if w_hi > n - 1:
                    w_hi = n - 1
                env_hi = -np.inf
                env_lo = np.inf
                for j in range(w_lo, w_hi + 1):
                    v = proj[j]
                    if v > env_hi:
                        env_hi = v
                    if v < env_lo:
                        env_lo = v
                g = env_lo - raw_upper[t, i]
                g2 = raw_lower[t, i] - env_hi
                if g2 > g:
                    g = g2
                if g < 0.0:
                    g = 0.0
                acc2 += g * g
            total = acc + acc2
            steps[t] = 3 * n
        bounds[t] = math.sqrt(total)
    return bounds, steps
