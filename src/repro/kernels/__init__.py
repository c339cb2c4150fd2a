"""Pluggable kernel backends for the distance dynamic programs.

The per-cell dynamic programs behind DTW, LCSS, and the LB_Keogh /
LB_Improved bounds dominate search wall clock once the pruning cascade
has removed the easy work.  This package lets the same ``Measure``
protocol run those kernels through interchangeable *backends*:

``scalar``
    The per-cell reference implementation (the shared sources in
    :mod:`repro.kernels._dp`, executed interpreted).  Slow, readable,
    and the ground truth every other backend is held to.
``wavefront``
    Pure NumPy, no new dependencies: anti-diagonal (wavefront) updates
    advance a whole chunk of candidates one diagonal at a time through
    three rotating sentinel-padded buffers.
``numba``
    ``@njit``-compiled versions of the *same* shared sources -- identical
    operation order, so bit-identical answers -- registered only when
    :mod:`numba` imports cleanly (the optional ``repro[kernels]`` extra).

Selection (:func:`get_backend`) resolves, in order: an explicit name
argument, the ``REPRO_KERNEL_BACKEND`` environment variable, then the
fastest registered backend (highest priority).  Exactness is a contract,
not a hope: every backend must produce bit-identical distances, bounds,
abandonment decisions, *and* ``num_steps`` against the scalar reference;
CI enforces this on every push with and without numba installed.
"""

from __future__ import annotations

import logging
import math
import os

import numpy as np

__all__ = [
    "ENV_VAR",
    "KernelBackend",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "numba_available",
    "NUMBA_IMPORT_ERROR",
]

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_KERNEL_BACKEND"

logger = logging.getLogger("repro.kernels")


class KernelBackend:
    """Interface every kernel backend implements.

    All methods receive pre-validated float64 arrays with band parameters
    already clamped to ``n - 1``; thresholds ``r`` are in distance space
    (the backend squares them).  Implementations must reproduce the scalar
    reference bit for bit: same distances and bounds, same abandonment
    decisions, same step counts.

    To add a backend: subclass, set a unique :attr:`name` and a
    :attr:`priority` reflecting its relative speed, implement the six
    kernel methods (``dtw_batch`` and ``lcss_batch`` come for free from
    the pairwise kernels), and call :func:`register_backend` (conditionally, if
    the backend has optional dependencies).  The cross-backend parity
    suite in ``tests/test_kernels.py`` picks up registered backends
    automatically.
    """

    #: Unique registry key (also what ``--backend`` and the env var match).
    name: str = "abstract"
    #: Auto-selection rank; the highest-priority registered backend wins.
    priority: int = 0

    def dtw_single(self, q, c, radius: int, r: float) -> tuple[float, int, bool]:
        """Row-wise banded DTW of one pair: ``(distance, steps, abandoned)``."""
        raise NotImplementedError

    def dtw_pairwise(self, qs, rows, radius: int, r):
        """Banded DTW of each pair ``(qs[t], rows[t])``, abandoning pair ``t``
        at its own threshold ``r[t]``: ``(distances, steps, abandoned)``."""
        raise NotImplementedError

    def lcss_pairwise(self, qs, rows, delta: int, epsilon: float, required):
        """Banded LCSS similarity of each pair ``(qs[t], rows[t])``; pair ``t``
        is abandoned once it cannot reach ``required[t]`` matches:
        ``(similarities, steps, abandoned)``."""
        raise NotImplementedError

    def dtw_batch(self, q, rows, radius: int, r: float):
        """Banded DTW of ``q`` against each row: ``(distances, steps, abandoned)``.

        The pairwise kernel with the query broadcast to every row.
        """
        q, rows = self._coerce(q, rows)
        return self.dtw_pairwise(
            np.broadcast_to(q, rows.shape), rows, radius, np.full(rows.shape[0], float(r))
        )

    def lcss_batch(self, q, rows, delta: int, epsilon: float, min_similarity: float):
        """Banded LCSS similarities: ``(similarities, steps, abandoned)``.

        The pairwise kernel with the query broadcast to every row.
        """
        q, rows = self._coerce(q, rows)
        required = np.full(rows.shape[0], min_similarity * q.shape[0])
        return self.lcss_pairwise(np.broadcast_to(q, rows.shape), rows, delta, epsilon, required)

    def lb_keogh(self, q, upper, lower, r: float) -> tuple[float, int]:
        """Early-abandoning LB_Keogh against an expanded envelope."""
        raise NotImplementedError

    def lb_improved_pass2(self, q, upper, lower, raw_upper, raw_lower, radius: int) -> float:
        """Squared-gap total of LB_Improved's projection pass."""
        raise NotImplementedError

    def lb_improved_batch(self, rows, upper, lower, raw_upper, raw_lower, radius: int, r: float):
        """Two-pass LB_Improved per ``(m, n)`` row/envelope pair: ``(bounds, steps)``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name!r} priority={self.priority}>"

    @staticmethod
    def _coerce(*arrays) -> tuple[np.ndarray, ...]:
        """Float64 views of ``arrays`` (copies only when conversion demands)."""
        return tuple(np.asarray(a, dtype=np.float64) for a in arrays)

    @staticmethod
    def _squared_threshold(r: float) -> float:
        return r * r if math.isfinite(r) else math.inf

    @staticmethod
    def _squared_thresholds(r) -> np.ndarray:
        """Per-pair squared thresholds (``+inf`` stays ``+inf``)."""
        r = np.asarray(r, dtype=np.float64)
        return r * r


_REGISTRY: dict[str, KernelBackend] = {}

#: The import failure message when numba could not be loaded, else ``None``.
NUMBA_IMPORT_ERROR: str | None = None


def register_backend(backend: KernelBackend, replace: bool = False) -> KernelBackend:
    """Add ``backend`` to the registry (``replace=True`` to override)."""
    if not backend.name or backend.name in ("auto", "abstract"):
        raise ValueError(f"invalid kernel backend name {backend.name!r}")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"kernel backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, fastest (highest priority) first."""
    return tuple(sorted(_REGISTRY, key=lambda name: (-_REGISTRY[name].priority, name)))


def default_backend_name() -> str:
    """The backend auto-selection picks: the fastest one registered."""
    return available_backends()[0]


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a kernel backend.

    Resolution order: an explicit ``name`` argument beats the
    ``REPRO_KERNEL_BACKEND`` environment variable, which beats the
    auto-selected fastest registered backend.  ``"auto"`` (anywhere in the
    chain) forces auto-selection.  An unknown or unavailable explicit name
    raises ``ValueError`` naming the registered backends.
    """
    if name is None:
        env = os.environ.get(ENV_VAR)
        if env is not None:
            name = env.strip() or None
    if name is None or name == "auto":
        return _REGISTRY[default_backend_name()]
    backend = _REGISTRY.get(name)
    if backend is None:
        if name == "numba" and NUMBA_IMPORT_ERROR is not None:
            raise ValueError(
                "kernel backend 'numba' is not available: numba failed to import "
                f"({NUMBA_IMPORT_ERROR}); install it with the [kernels] extra "
                "(pip install 'repro[kernels]'). Registered backends: "
                + ", ".join(available_backends())
            )
        raise ValueError(
            f"unknown kernel backend {name!r}; registered backends: "
            + ", ".join(available_backends())
            + " (or 'auto')"
        )
    return backend


def numba_available() -> bool:
    """Whether the compiled numba backend registered successfully."""
    return "numba" in _REGISTRY


# --- registration -------------------------------------------------------
# The built-in backends register at import time; the numba backend is
# import-gated and degrades to a *logged* (never raised) notice, so the
# library works identically -- just slower -- without the optional extra.

from repro.kernels.scalar import ScalarBackend  # noqa: E402
from repro.kernels.wavefront import WavefrontBackend  # noqa: E402

register_backend(ScalarBackend())
register_backend(WavefrontBackend())

try:
    from repro.kernels.numba_backend import NumbaBackend
except ImportError as exc:  # pragma: no cover - exercised by the no-numba CI leg
    NUMBA_IMPORT_ERROR = str(exc)
    logger.info(
        "numba kernel backend unavailable (%s); falling back to the pure-NumPy "
        "'wavefront' backend. Install the [kernels] extra for compiled kernels.",
        exc,
    )
else:
    register_backend(NumbaBackend())
