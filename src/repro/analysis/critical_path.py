"""Critical-path analysis over the happens-before DAG.

The longest causal chain through the trace bounds the execution's
makespan: no scheduling or overlap can make the run shorter than its
critical path.  Identifying it tells the user *which* dependency chain
(computes and message hops) to attack -- the quantitative companion to
eyeballing the time-space diagram's dominant diagonal.

Edges and weights:

* program order: consecutive records of one process, weighted by the
  later record's duration (plus any idle gap in between -- idle gaps are
  *not* on the critical path, so they carry zero weight);
* message order: a send's record to its receive's record, weighted by
  the transfer portion of the receive (completion minus send time).

The path is computed by a longest-path pass in trace order, which is a
topological order of the happens-before DAG (receives are recorded after
their sends; per-process order is program order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.trace.columnar import KIND_CODES
from repro.trace.events import COLLECTIVE_KINDS, EventKind, TraceRecord
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .history import HistoryIndex

#: kinds whose records carry zero path weight: aggregate/wait records
#: overlap their constituent point-to-point events (which carry the
#: weight) and include wait time.
ZERO_WEIGHT_KINDS = frozenset(COLLECTIVE_KINDS) | {
    EventKind.WAIT,
    EventKind.WAITALL,
    EventKind.WAITANY,
    EventKind.SENDRECV,
    EventKind.TEST,
}
_ZERO_WEIGHT_CODES = np.array(
    sorted(KIND_CODES[k] for k in ZERO_WEIGHT_KINDS), dtype=np.uint8
)


@dataclass
class CriticalPath:
    """The longest weighted causal chain of a trace."""

    records: list[TraceRecord]
    length: float
    #: total duration of all events on every process (for the ratio)
    span: float
    #: effective work weight of each path record (blocked receive time
    #: excluded), parallel to ``records``
    weights: list[float] = None  # type: ignore[assignment]

    @property
    def dominance(self) -> float:
        """Path length / trace span: near 1.0 means fully serialized."""
        return self.length / self.span if self.span > 0 else 0.0

    def hops(self) -> int:
        """How many times the path crosses processes (message edges)."""
        return sum(
            1
            for a, b in zip(self.records, self.records[1:])
            if a.proc != b.proc
        )

    def as_text(self, limit: int = 30) -> str:
        lines = [
            f"critical path: {self.length:.2f} time units over "
            f"{len(self.records)} events, {self.hops()} message hops, "
            f"dominance {self.dominance:.2f}"
        ]
        shown = self.records if len(self.records) <= limit else (
            self.records[: limit // 2] + self.records[-limit // 2:]
        )
        skipped = len(self.records) - len(shown)
        for i, rec in enumerate(shown):
            if skipped and i == limit // 2:
                lines.append(f"  ... {skipped} events ...")
            lines.append(f"  {rec}")
        return "\n".join(lines)


def critical_path(
    trace: "Trace | Iterable[TraceRecord]",
    index: "Optional[HistoryIndex]" = None,
) -> CriticalPath:
    """Longest path through the happens-before DAG of the trace.

    Accepts a materialized :class:`Trace` or any record iterator (the
    streaming consumers hand a file reader's stream straight in).  The
    send-of-recv map and span come from the shared
    :class:`~repro.analysis.history.HistoryIndex`.

    The DP runs as per-process cumulative-sum segments delimited by
    receive joins (Python touches only the joins).  Wall-clock goes into
    the index's per-kernel stats (``critical_path``).
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    start = time.perf_counter()
    try:
        return _critical_path(idx)
    finally:
        idx.record_kernel("critical_path", time.perf_counter() - start)


def _critical_path(idx: "HistoryIndex") -> CriticalPath:
    """Vectorized kernel over the index's column store.

    Between receive joins, a process's DP is a pure running sum (every
    weight and distance is non-negative, so the program-order candidate
    always wins or ties the fresh-start one), so each process's rows
    split into segments delimited by its matched receives and a segment
    is one chained ``np.cumsum`` flush -- sequential additions, hence
    bitwise-identical to a per-record loop.  Python touches only the
    joins (O(messages) iterations), where the send edge competes with
    the program edge under a fixed tie-break (program first, send wins
    only strictly).
    """
    trace = idx.trace
    n = len(trace)
    if n == 0:
        return CriticalPath([], 0.0, 0.0, [])
    cols = idx.columns
    send_of_recv = idx.send_of_recv  # also forces matching before clocks
    nprocs = idx.nprocs
    t0 = cols["t0"]
    t1 = cols["t1"]
    kind = cols["kind"]
    proc_col = cols["proc"]

    # --- weights, vectorized ------------------------------------------
    from .history import RECV_CODES

    w = t1 - t0
    w[np.isin(kind, _ZERO_WEIGHT_CODES)] = 0.0
    w[kind == RECV_CODES[0]] = 0.0  # unmatched receives contribute nothing
    if send_of_recv:
        r_arr = np.fromiter(
            send_of_recv.keys(), dtype=np.int64, count=len(send_of_recv)
        )
        s_arr = np.fromiter(
            send_of_recv.values(), dtype=np.int64, count=len(send_of_recv)
        )
        w[r_arr] = np.maximum(0.0, t1[r_arr] - np.maximum(t1[s_arr], t0[r_arr]))

    # --- per-process segment machinery --------------------------------
    order = np.argsort(proc_col, kind="stable").astype(np.int64)
    bounds = np.searchsorted(proc_col[order], np.arange(nprocs + 1))
    idxs_by_proc = [order[bounds[p]: bounds[p + 1]] for p in range(nprocs)]
    rowpos = np.empty(n, dtype=np.int64)
    for p in range(nprocs):
        rows = idxs_by_proc[p]
        rowpos[rows] = np.arange(rows.size, dtype=np.int64)

    dist = np.zeros(n, dtype=np.float64)
    pred = np.full(n, -1, dtype=np.int64)
    tail = [0.0] * nprocs  # dist of each process's last flushed record
    flushed = [0] * nprocs  # rowpos high-water mark per process
    # contiguous per-process weight views: flushes slice, never gather
    w_by_proc = [w[idxs_by_proc[p]] for p in range(nprocs)]

    def flush(p: int, upto: int) -> None:
        a = flushed[p]
        if upto > a:
            rows = idxs_by_proc[p][a:upto]
            wseg = w_by_proc[p][a:upto]
            buf = np.empty(rows.size + 1, dtype=np.float64)
            buf[0] = tail[p]
            buf[1:] = wseg
            np.add.accumulate(buf, out=buf)  # sequential adds, bitwise
            seg = buf[1:]
            dist[rows] = seg
            prev_i = np.empty(rows.size, dtype=np.int64)
            prev_i[0] = idxs_by_proc[p][a - 1] if a > 0 else -1
            prev_i[1:] = rows[:-1]
            # the program edge is taken only when strictly better than a
            # fresh start
            pred[rows] = np.where(seg > wseg, prev_i, -1)
            tail[p] = float(seg[-1])
            flushed[p] = upto

    joins = sorted(send_of_recv.keys())
    if joins:
        j_arr = np.asarray(joins, dtype=np.int64)
        s_list = [send_of_recv[i] for i in joins]
        s_arr2 = np.asarray(s_list, dtype=np.int64)
        jp_l = proc_col[j_arr].tolist()
        jrp_l = rowpos[j_arr].tolist()
        jw_l = w[j_arr].tolist()
        sq_l = proc_col[s_arr2].tolist()
        srp_l = rowpos[s_arr2].tolist()
    for k, i in enumerate(joins):
        s = s_list[k]
        p = jp_l[k]
        rp = jrp_l[k]
        flush(p, rp)
        wi = jw_l[k]
        best = wi
        best_pred = -1
        if rp > 0:
            prev = int(idxs_by_proc[p][rp - 1])
            cand = float(dist[prev]) + wi
            if cand > best:
                best, best_pred = cand, prev
        q = sq_l[k]
        if srp_l[k] >= flushed[q]:
            # the send's distance is still pending in q's open segment;
            # every q-row up to it is join-free (joins are processed in
            # ascending trace order), so flushing through it is exact
            flush(q, srp_l[k] + 1)
        cand = float(dist[s]) + wi
        if cand > best:
            best, best_pred = cand, s
        dist[i] = best
        pred[i] = best_pred
        tail[p] = best
        flushed[p] = rp + 1
    for p in range(nprocs):
        flush(p, idxs_by_proc[p].size)

    end = int(np.argmax(dist))  # first maximum
    path = []
    i = end
    while i >= 0:
        path.append(trace[i])
        i = int(pred[i])
    path.reverse()
    t_lo, t_hi = idx.span
    return CriticalPath(
        records=path,
        length=float(dist[end]),
        span=t_hi - t_lo,
        weights=[float(w[rec.index]) for rec in path],
    )


def slack_per_process(
    trace: Trace,
    path: "CriticalPath | None" = None,
    index: "Optional[HistoryIndex]" = None,
) -> dict[int, float]:
    """Per-process slack: how much of the run each process spent NOT on
    the critical path (a target ranking for load balancing)."""
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    trace = idx.trace
    if path is None:
        path = critical_path(trace, index=idx)
    on_path: dict[int, float] = {p: 0.0 for p in range(trace.nprocs)}
    for rec, w in zip(path.records, path.weights):
        on_path[rec.proc] += w
    t_lo, t_hi = idx.span
    total = t_hi - t_lo
    return {p: max(0.0, total - on_path[p]) for p in range(trace.nprocs)}
