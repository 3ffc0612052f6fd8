"""In-memory span recorder for traced benchmark runs, and self-time arithmetic.

A span is one call across a layer boundary: ``(name, start, end, parent,
replicate)``.  Times are ``perf_counter_ns`` integers so self time is exact
integer arithmetic.  Each thread appends to its own buffer (the campaign
service runs the scheduler in executor threads while the event loop keeps
serving), so recording needs no lock; parent links stay within a thread,
which is where call nesting lives.  Nothing is written while the benchmark
runs: :meth:`SpanRecorder.columns` merges the buffers at the end and
:meth:`SpanRecorder.save` writes them out.
"""

from __future__ import annotations

import functools
import threading
from array import array
from time import perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["SpanRecorder", "self_times"]


class _Buffer:
    """One thread's spans, as parallel typed columns."""

    __slots__ = ("name", "start", "end", "parent", "rep", "stack", "rep_id")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")  # index into this buffer, -1 = root
        self.rep = array("i")  # replicate id, -1 = outside any replicate
        self.stack: List[int] = []
        self.rep_id = -1


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._next_rep = 0

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def buffer(self) -> _Buffer:
        """The calling thread's buffer (created on first use)."""
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str):
        """``fn`` wrapped so every call records one span named ``name``."""
        nid = self.name_id(name)
        local = self._local
        buffer = self.buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or buffer()
            stack = buf.stack
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.rep.append(buf.rep_id)
            buf.end.append(0)
            stack.append(i)
            buf.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = perf_counter_ns()
                stack.pop()

        return traced

    def begin_replicate(self) -> Tuple[_Buffer, int]:
        """Tag the calling thread's next spans with a fresh replicate id."""
        buf = self.buffer()
        with self._lock:
            rep = self._next_rep
            self._next_rep += 1
        prev = buf.rep_id
        buf.rep_id = rep
        return buf, prev

    def columns(self) -> Dict[str, np.ndarray]:
        """Every thread's spans merged; parent indices rebased to the merge."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "rep", "thread")}
        offset = 0
        for t, buf in enumerate(self._buffers):
            n = len(buf.start)
            # copies, not views: a view would stop the buffers from growing
            parent = np.array(buf.parent, dtype=np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.array(buf.name, dtype=np.int32))
            cols["start"].append(np.array(buf.start, dtype=np.int64))
            cols["end"].append(np.array(buf.end, dtype=np.int64))
            cols["rep"].append(np.array(buf.rep, dtype=np.int32))
            cols["thread"].append(np.full(n, t, dtype=np.int32))
            offset += n
        out = {
            k: (np.concatenate(v) if v else np.zeros(0, dtype=np.int64))
            for k, v in cols.items()
        }
        return out

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, self_seconds)}`` over every recorded span."""
        cols = self.columns()
        if not len(cols["start"]):
            return {}
        own = self_times(cols["start"], cols["end"], cols["parent"])
        calls = np.bincount(cols["name"], minlength=len(self.names))
        self_ns = np.bincount(cols["name"], weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_ns[i]) / 1e9)
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once (interval union), so the result never goes
    negative.  Grandchildren count only through their own parent.  All
    arrays are integer nanoseconds; ``parent`` is -1 for roots.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    if not len(kids):
        return own
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.maximum(np.minimum(end[kids], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    first = np.ones(len(p), dtype=bool)
    first[1:] = p[1:] != p[:-1]
    group = np.cumsum(first) - 1
    # running max of child ends within each parent's group: offset every
    # group above the previous one so one accumulate never crosses groups
    lo = int(s.min())
    width = int(e.max()) - lo + 1
    key = group * width + (e - lo)
    run = np.maximum.accumulate(key) - group * width + lo
    prev_end = np.empty_like(run)
    prev_end[0] = lo
    prev_end[1:] = run[:-1]
    prev_end[first] = s[first]
    covered = np.maximum(e - np.maximum(s, prev_end), 0)
    return own - np.bincount(p, weights=covered, minlength=len(own)).astype(np.int64)
