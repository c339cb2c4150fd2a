"""Benchmark-side span recorder for the traced run.

Spans are recorded by wrapping public functions at each layer boundary
from the outside; the program itself is not changed.  Each span holds a
name, start, end, parent span and request id (plus a pair count used for
the prune ratio).  Every thread appends to its own column buffers, so
recording takes no lock; parents are tracked per thread, because a
synchronous call nests inside the frame that made it.  The wrappers stay
installed for the whole traced run and record only while
:attr:`SpanRecorder.enabled` is set, so traced and untraced requests can
alternate.  Spans stay in memory and are written once, by
:meth:`SpanRecorder.save`, at the end.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: Request id of the request the current coroutine or call serves.
current_request: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_rid", default=-1)


_DTYPES = {
    "name": np.int32,
    "start": np.float64,
    "end": np.float64,
    "parent": np.int64,
    "rid": np.int64,
    "pairs": np.int64,
}


class _Buffer:
    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.pairs = array("q")
        self.stack: list[int] = []


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple] = []
        #: Wrapped calls record spans only while this is set.
        self.enabled = True

    # -- recording ------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._buffers_lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def begin(self, name: str, rid: int | None = None, pairs: int = 0, nest: bool = True) -> tuple:
        buf = self._buffer()
        index = len(buf.start)
        buf.name.append(self._name_id(name))
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.rid.append(current_request.get() if rid is None else rid)
        buf.pairs.append(pairs)
        buf.end.append(0.0)
        if nest:
            buf.stack.append(index)
        buf.start.append(time.perf_counter())
        return buf, index, nest

    def finish(self, token: tuple) -> None:
        end = time.perf_counter()
        buf, index, nest = token
        buf.end[index] = end
        if nest:
            buf.stack.pop()

    def add(self, name: str, start: float, end: float, rid: int = -1) -> None:
        """Record an already-timed root span (e.g. a client round trip)."""
        buf = self._buffer()
        buf.name.append(self._name_id(name))
        buf.parent.append(-1)
        buf.rid.append(rid)
        buf.pairs.append(0)
        buf.start.append(start)
        buf.end.append(end)

    # -- wrapping public functions --------------------------------------

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a recording wrapper until :meth:`restore`.

        ``name`` is a span name, or a callable of the call's arguments
        returning ``(name, pairs)`` or ``(name, pairs, request_id)`` -- or
        ``None`` to pass the call through unrecorded.  A coroutine's
        wrapper records a root span (coroutines interleave on one thread)
        and makes its request id current for the rest of that task.
        """
        had_own = attr in vars(owner)
        raw = vars(owner)[attr] if had_own else None
        original = getattr(owner, attr)
        classify = name if callable(name) else (lambda *a, _n=name, **k: (_n, 0))
        recorder = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await original(*args, **kwargs)
                label = classify(*args, **kwargs)
                if label is None:
                    return await original(*args, **kwargs)
                name, pairs, rid = (*label, None)[:3]
                token = recorder.begin(name, rid=rid, pairs=pairs, nest=False)
                if rid is not None:
                    current_request.set(rid)
                try:
                    return await original(*args, **kwargs)
                finally:
                    recorder.finish(token)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                label = classify(*args, **kwargs) if recorder.enabled else None
                if label is None:
                    return original(*args, **kwargs)
                token = recorder.begin(label[0], pairs=label[1])
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.finish(token)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, had_own, raw))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- results ----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        cols = {key: [] for key in _DTYPES}
        offset = 0
        with self._buffers_lock:
            buffers = list(self._buffers)
        for buf in buffers:
            count = len(buf.start)
            for key, dtype in _DTYPES.items():
                cols[key].append(np.frombuffer(getattr(buf, key), dtype=dtype)[:count].copy())
            cols["parent"][-1][cols["parent"][-1] >= 0] += offset
            offset += count
        out = {
            key: np.concatenate(parts) if parts else np.zeros(0, dtype=_DTYPES[key])
            for key, parts in cols.items()
        }
        out["names"] = np.array(self.names)
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.columns())
