"""Happens-before over trace events, via vector clocks.

The causality relation the paper's features rest on (§4.1):

* program order: events of one process in trace order;
* message order: a send happens before its matching receive;
* transitive closure of the above.

"The consistency of breakpoints derived from the stopline follows from
the causality of communications in the trace file, i.e., no message was
received before it was sent."

The clocks live in the shared
:class:`~repro.analysis.history.HistoryIndex` in compact form, a
:class:`ClockTable`: a process's clock changes its other components
only at receive joins, so event i's clock is a table row (its segment
base, ``seg[i]``) with its own-process count ``own[i]`` written at
``proc(i)``.  The table holds one row per matched join plus a zero
row -- O(joins * p + n) memory instead of an (n, p) matrix -- and each
comparison stays O(1).  Closures are answered from the index's
:class:`RowTable` rather than by scanning clocks: ``VC[e][q]`` counts
q's events in e's past, so the past of ``e`` on row q is the first
``VC[e][q]`` entries, and its future on row q is the suffix where
``VC[.][proc(e)]`` -- nondecreasing along every row -- reaches
``VC[e][proc(e)]``.  A query is O(p log n + output).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .history import HistoryIndex


@dataclass(frozen=True)
class RowTable:
    """Trace indexes grouped by process, each row in program order.

    A CSR layout: row q is ``members[offsets[q]:offsets[q + 1]]``.  Its
    entry k (0-based) is q's (k+1)-th event, the one whose own clock
    component is k + 1.  The arrays are never written after creation.
    """

    members: np.ndarray  # (n,) int64
    offsets: np.ndarray  # (nprocs + 1,) int64

    def gather(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Ascending trace indexes of the union of the row slices
        ``members[lo[q]:hi[q]]``."""
        lengths = hi - lo
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        shift = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        return np.sort(self.members[np.arange(total) + shift])

    def bisect(
        self,
        key: Callable[[np.ndarray], np.ndarray],
        lo: np.ndarray,
        hi: np.ndarray,
        target: "np.ndarray | int",
    ) -> np.ndarray:
        """Per row, the first position in ``[lo[q], hi[q])`` whose key is
        ``>= target`` (``hi[q]`` when there is none).

        ``key`` maps member positions to values that never decrease
        along a row; it is only called on positions inside the ranges.
        One binary search runs over all rows at once: each step gathers
        one probe per row still searching.
        """
        lo = lo.copy()
        hi = hi.copy()
        target = np.broadcast_to(target, lo.shape)
        while True:
            rows = np.nonzero(lo < hi)[0]
            if rows.size == 0:
                return lo
            a, b = lo[rows], hi[rows]
            mid = (a + b) >> 1
            below = key(mid) < target[rows]
            lo[rows] = np.where(below, mid + 1, a)
            hi[rows] = np.where(below, b, mid)


@dataclass(frozen=True)
class ClockTable:
    """Vector clocks of n events in compact form.

    The clock of event i is ``table[seg[i]]`` with ``own[i]`` written at
    ``procs[i]``: row 0 of ``table`` is the zero clock (the base of every
    process before its first join), and every other row is the clock
    after one matched receive join.  Component q != procs[i] of event
    i's clock is therefore ``table[seg[i], q]``.  A join's row holds the
    receive's own count on its own process, so for a join r and an
    event x of the same process, ``table[seg[x], procs[r]] < own[r]``
    exactly when x precedes r.  The arrays are never written after
    creation (a grown index appends rows past this view).
    """

    table: np.ndarray  # (1 + joins, nprocs) int64
    seg: np.ndarray  # (n,) int64: each event's table row
    own: np.ndarray  # (n,) int64: each event's own-process count
    procs: np.ndarray  # (n,) process of each event

    def __len__(self) -> int:
        return int(self.seg.size)

    def row(self, i: int) -> np.ndarray:
        """Event ``i``'s clock (a fresh (nprocs,) array)."""
        out = self.table[self.seg[i]].copy()
        out[self.procs[i]] = self.own[i]
        return out

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The clocks of events ``idx`` as a fresh (k, nprocs) array:
        O(k * p), for small selections."""
        idx = np.asarray(idx, dtype=np.int64)
        out = self.table[self.seg[idx]]
        out[np.arange(idx.size), self.procs[idx]] = self.own[idx]
        return out


class EventCones:
    """The past and future of one event as slices of the row table.

    On row q the past is ``[starts[q], past_end[q])`` and the future is
    ``[future_start[q], ends[q])``; the concurrency region lies between
    them.  The future bound costs one :meth:`RowTable.bisect` and is
    derived on first use.
    """

    def __init__(
        self, table: RowTable, ends: np.ndarray, clocks: ClockTable, e: int, pe: int
    ) -> None:
        self.table = table
        self.starts = table.offsets[:-1]
        self.ends = ends
        self.event = e
        self.proc = pe
        self._clocks = clocks
        self.past_end = self.starts + clocks.row(e)
        self.past_end[pe] -= 1  # e counts itself; its past does not
        # the first position after the past that is not e itself
        self.after = self.past_end.copy()
        self.after[pe] += 1

    @cached_property
    def future_start(self) -> np.ndarray:
        """Per row, the first position in e's future.  Every later event
        of e's own process is in it, so only the other rows are
        searched; on those, component ``proc(e)`` of a clock is its
        segment's table entry."""
        clocks, members, pe = self._clocks, self.table.members, self.proc
        col, seg = clocks.table[:, pe], clocks.seg
        lo = self.after.copy()
        lo[pe] = self.ends[pe]  # nothing to search on e's own row
        start = self.table.bisect(
            lambda pos: col[seg[members[pos]]],
            lo,
            self.ends,
            clocks.own[self.event],
        )
        start[pe] = self.after[pe]
        return start

    def past(self) -> np.ndarray:
        return self.table.gather(self.starts, self.past_end)

    def future(self) -> np.ndarray:
        return self.table.gather(self.future_start, self.ends)

    def concurrent(self) -> np.ndarray:
        return self.table.gather(self.after, self.future_start)

    def last_past(self) -> np.ndarray:
        """Per process, the latest event in the past (-1: none)."""
        return self._members_at(self.past_end - 1, self.past_end > self.starts)

    def first_future(self) -> np.ndarray:
        """Per process, the earliest event in the future (-1: none)."""
        return self._members_at(self.future_start, self.future_start < self.ends)

    def _members_at(self, pos: np.ndarray, has: np.ndarray) -> np.ndarray:
        out = np.full(pos.size, -1, dtype=np.int64)
        out[has] = self.table.members[pos[has]]
        return out


@dataclass
class CausalOrder:
    """Vector clocks plus comparison/closure queries for one trace.

    ``clocks.row(i)`` is the vector clock of the record with trace index
    ``i`` (component p = count of events of process p in that record's
    causal past, inclusive), held as a compact :class:`ClockTable`.
    ``trace`` and ``clocks`` are a snapshot of ``index``; closures read
    the index's row table and stay answers for the snapshot after the
    index grows.  No query builds a record.
    """

    trace: Trace
    clocks: ClockTable
    index: "HistoryIndex"

    # ------------------------------------------------------------------
    # pairwise relations
    # ------------------------------------------------------------------
    def happens_before(self, a: int, b: int) -> bool:
        """Does record ``a`` causally precede record ``b``?  (strict)

        Standard vector-clock test: since every record increments its own
        process component, ``a -> b`` iff b's clock has seen a's own
        component: ``VC[a][proc(a)] <= VC[b][proc(a)]``.  On one process
        that is trace order; across processes b's component is its
        segment's table entry.
        """
        if a == b:
            return False
        c = self.clocks
        procs = c.procs
        pa = procs[a]
        if pa == procs[b]:
            return a < b
        return bool(c.own[a] <= c.table[c.seg[b], pa])

    def concurrent(self, a: int, b: int) -> bool:
        """Neither ordered: the pair lies in each other's concurrency
        region (the area between the slanted lines of Figure 8)."""
        if a == b:
            return False
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    # ------------------------------------------------------------------
    # closures
    # ------------------------------------------------------------------
    def cones(self, e: int) -> EventCones:
        """Past and future of ``e`` as row-table slices."""
        table = self.index.row_table()
        ends = table.offsets[1:]
        n = len(self.clocks)
        if table.members.size > n:  # the index grew past this snapshot
            members = table.members
            ends = table.bisect(lambda pos: members[pos], table.offsets[:-1], ends, n)
        return EventCones(table, ends, self.clocks, e, int(self.clocks.procs[e]))

    def past(self, e: int) -> np.ndarray:
        """Trace indexes of all events that happen before ``e``.

        "The past of the event is defined as the set of events that are
        guaranteed to have happened before it."
        """
        return self.cones(e).past()

    def future(self, e: int) -> np.ndarray:
        """Trace indexes of all events ``e`` happens before.

        "An event is in the future of the current event if the [current
        event] happened before [it]."
        """
        return self.cones(e).future()

    def concurrency_region(self, e: int) -> np.ndarray:
        """Events neither in the past nor the future of ``e``."""
        return self.cones(e).concurrent()


def compute_causal_order(trace: Trace) -> CausalOrder:
    """The causal order of a trace, from its shared
    :class:`~repro.analysis.history.HistoryIndex`."""
    from .history import ensure_index

    return ensure_index(trace).order


def check_trace_causality(trace: Trace, index=None) -> Optional[str]:
    """Verify the fundamental invariant: no receive completes before its
    matching send completed (returns a description of the first
    violation, or None).

    This is the property that makes a vertical stopline a consistent cut
    (§4.1: "no message was received before it was sent").  Pass a
    :class:`~repro.analysis.history.HistoryIndex` via ``index=`` to reuse
    an existing matching.  One compare over the matched-pair arrays.
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    sends, recvs = idx.pair_indexes()
    t1 = idx.column("t1")
    bad = np.flatnonzero(t1[recvs] < t1[sends])
    if bad.size == 0:
        return None
    r, s = int(recvs[bad[0]]), int(sends[bad[0]])
    return (
        f"receive {r} (t1={float(t1[r])}) completes "
        f"before its send {s} (t1={float(t1[s])})"
    )
