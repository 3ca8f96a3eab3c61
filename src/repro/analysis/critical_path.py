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

    Wall-clock goes into the index's per-kernel stats
    (``critical_path``).
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    start = time.perf_counter()
    try:
        return _critical_path(idx)
    finally:
        idx.record_kernel("critical_path", time.perf_counter() - start)


def _critical_path(idx: "HistoryIndex") -> CriticalPath:
    """Kernel over the index's column store: weights vectorized, the DP
    one scalar pass in trace order.

    Each row starts from its own weight; the program edge (the process's
    previous row) is taken only when strictly longer, then the message
    edge (the matched send) only when strictly longer still -- the same
    sequential float additions and tie-breaks as the per-record
    reference, hence bitwise-identical lengths, negative durations
    included.  The pass runs over Python lists: on message-dense traces
    numpy segments between receive joins are one or two rows long, and
    per-call overhead would dominate.
    """
    n = len(idx)
    if n == 0:
        return CriticalPath([], 0.0, 0.0, [])
    cols = idx.columns
    sends, joins = idx.pair_indexes()
    t0 = cols["t0"]
    t1 = cols["t1"]
    kind = cols["kind"]

    # --- weights, vectorized ------------------------------------------
    from .history import RECV_CODES

    w = t1 - t0
    w[np.isin(kind, _ZERO_WEIGHT_CODES)] = 0.0
    w[kind == RECV_CODES[0]] = 0.0  # unmatched receives contribute nothing
    w[joins] = np.maximum(0.0, t1[joins] - np.maximum(t1[sends], t0[joins]))

    # --- longest-path DP, one step per row in trace order -------------
    w_l = w.tolist()
    send_l = idx.matched_sends().tolist()
    dist = [0.0] * n
    pred = [-1] * n
    last = [-1] * idx.nprocs  # each process's previous row
    for i, p in enumerate(cols["proc"].tolist()):
        wi = w_l[i]
        best, best_pred = wi, -1
        j = last[p]
        if j >= 0 and dist[j] + wi > best:
            best, best_pred = dist[j] + wi, j
        s = send_l[i]
        if s >= 0 and dist[s] + wi > best:
            best, best_pred = dist[s] + wi, s
        dist[i] = best
        pred[i] = best_pred
        last[p] = i

    length = max(dist)
    end = dist.index(length)  # first maximum
    path = []
    i = end
    while i >= 0:
        path.append(i)
        i = pred[i]
    path.reverse()
    t_lo, t_hi = idx.span
    # the path's records are built here, in one batch: a lazy view
    # would keep the whole index alive for as long as the path is held
    return CriticalPath(
        records=idx.records_at(path),
        length=length,
        span=t_hi - t_lo,
        weights=w[path].tolist(),
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
