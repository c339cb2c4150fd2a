"""The optional ``numba`` backend: ``@njit``-compiled shared kernel sources.

This module imports :mod:`numba` at the top level; the package registry
wraps the import in ``try/except ImportError`` so a missing (or broken)
numba degrades to a logged notice and the pure-NumPy wavefront backend.

The compiled functions are the *same function objects* the scalar backend
runs interpreted (:mod:`repro.kernels._dp`), compiled with default IEEE
semantics (no ``fastmath``): identical operation order, hence bit-identical
distances, bounds, abandonment decisions, and step counts.  ``cache=True``
persists the compiled artifacts on disk so repeated processes (CI steps,
benchmark reruns) skip recompilation; ``nogil=True`` releases the GIL so
thread-pool searches overlap kernel execution.
"""

from __future__ import annotations

import math

import numpy as np
from numba import njit

from repro.kernels import KernelBackend
from repro.kernels import _dp

__all__ = ["NumbaBackend"]

_JIT = {"cache": True, "nogil": True}

_dtw_single = njit(**_JIT)(_dp.dtw_single)
_dtw_pairwise = njit(**_JIT)(_dp.dtw_pairwise)
_lcss_pairwise = njit(**_JIT)(_dp.lcss_pairwise)
_lb_keogh = njit(**_JIT)(_dp.lb_keogh)
_lb_improved_pass2 = njit(**_JIT)(_dp.lb_improved_pass2)
_lb_improved_batch = njit(**_JIT)(_dp.lb_improved_batch)


def _c1(*arrays):
    """C-contiguous float64 copies-on-demand (numba prefers unit strides)."""
    return tuple(np.ascontiguousarray(a, dtype=np.float64) for a in arrays)


class NumbaBackend(KernelBackend):
    """Compiled kernels; registers only when numba imports cleanly."""

    name = "numba"
    priority = 20

    def dtw_single(self, q, c, radius, r):
        q, c = _c1(q, c)
        dist, steps, abandoned = _dtw_single(q, c, radius, self._squared_threshold(r))
        return float(dist), int(steps), bool(abandoned)

    def dtw_pairwise(self, qs, rows, radius, r):
        qs, rows, thresholds = _c1(qs, rows, self._squared_thresholds(r))
        dists, steps, abandoned = _dtw_pairwise(qs, rows, radius, thresholds)
        return dists, int(steps), abandoned

    def lcss_pairwise(self, qs, rows, delta, epsilon, required):
        qs, rows, required = _c1(qs, rows, required)
        sims, steps, abandoned = _lcss_pairwise(qs, rows, delta, float(epsilon), required)
        return sims, int(steps), abandoned

    def lb_keogh(self, q, upper, lower, r):
        q, upper, lower = _c1(q, upper, lower)
        bound, steps = _lb_keogh(q, upper, lower, self._squared_threshold(r))
        return float(bound), int(steps)

    def lb_improved_pass2(self, q, upper, lower, raw_upper, raw_lower, radius):
        q, upper, lower, raw_upper, raw_lower = _c1(q, upper, lower, raw_upper, raw_lower)
        return float(_lb_improved_pass2(q, upper, lower, raw_upper, raw_lower, radius))

    def lb_improved_batch(self, rows, upper, lower, raw_upper, raw_lower, radius, r):
        rows, u, lo, raw_u, raw_lo = np.broadcast_arrays(
            *self._coerce(rows, upper, lower, raw_upper, raw_lower)
        )
        rows, u, lo, raw_u, raw_lo = _c1(
            np.atleast_2d(rows),
            np.atleast_2d(u),
            np.atleast_2d(lo),
            np.atleast_2d(raw_u),
            np.atleast_2d(raw_lo),
        )
        bounds, steps = _lb_improved_batch(
            rows, u, lo, raw_u, raw_lo, radius, self._squared_threshold(r)
        )
        return bounds, steps

    def warmup(self, n: int = 8) -> None:
        """Force-compile every kernel on tiny inputs (benchmarks call this
        so JIT compilation never lands inside a timed region)."""
        q = np.linspace(0.0, 1.0, n)
        rows = np.vstack([q + 0.5, q - 0.5])
        self.dtw_single(q, q + 0.5, 1, math.inf)
        self.dtw_single(q, q + 0.5, 1, 0.1)
        self.dtw_batch(q, rows, 1, math.inf)
        self.lcss_batch(q, rows, 1, 0.25, 0.0)
        self.lb_keogh(q, q + 1.0, q - 1.0, math.inf)
        self.lb_improved_pass2(q, q + 1.0, q - 1.0, q, q, 1)
        self.lb_improved_batch(rows, rows + 1.0, rows - 1.0, rows, rows, 1, math.inf)
