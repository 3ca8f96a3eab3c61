"""Consistent frontiers and concurrency regions (paper §4.1, Figure 8).

    "In order to depict the past and future of an event we use the
    notion of consistent frontier [15].  It is defined as a set of
    events in which no event happens before another.  Lack of circular
    message dependencies in the trace file guarantees that set of most
    recent events in the past is a consistent frontier (past frontier).
    The same is true for the set of earliest events of the future
    (future frontier)."

Figure 8: the user clicks an event; the debugger draws the past and
future frontiers in the timeline; the region between them is the
concurrency region.  §4.1 also sketches frontier *stoplines*: "stopping
execution in each process either immediately after the point where it
could last affect the selected state or immediately before the point
where it could first be affected by the selected state" -- implemented
here as the per-process marker thresholds the two frontiers induce.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.trace.events import TraceRecord
from repro.trace.trace import Trace

from .causality import CausalOrder, EventCones

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .history import HistoryIndex


class Frontier:
    """One event per process (None where the process has no event on the
    relevant side).

    Held as trace indexes (``members[p]``, -1 for none); the member
    records are built from ``rows`` (the trace) when first read.
    """

    def __init__(self, members: np.ndarray, rows: Sequence[TraceRecord]) -> None:
        self.members = members
        self._rows = rows

    @cached_property
    def events(self) -> dict[int, Optional[TraceRecord]]:
        return {
            p: self._rows[i] if i >= 0 else None
            for p, i in enumerate(self.members.tolist())
        }

    def event(self, proc: int) -> Optional[TraceRecord]:
        if not 0 <= proc < self.members.size or self.members[proc] < 0:
            return None
        return self._rows[int(self.members[proc])]

    def indexes(self) -> list[int]:
        return [i for i in self.members.tolist() if i >= 0]

    def times(self) -> dict[int, float]:
        return {
            p: r.t1 for p, r in self.events.items() if r is not None
        }

    def markers(self) -> dict[int, int]:
        return {
            p: r.marker for p, r in self.events.items() if r is not None
        }


def stop_thresholds(markers: Mapping[int, int]) -> dict[int, int]:
    """Per-rank replay thresholds from the markers a stopline selects.

    Every stopline threshold is produced here.  A ``PROC_START`` record
    carries marker 0 but no construct does, so a process asked to stop
    at 0 parks at its first construct, marker 1: the threshold says so.
    """
    return {p: max(1, m) for p, m in markers.items()}


def frontier_thresholds(
    cones: EventCones, marker: np.ndarray, future: bool
) -> dict[int, int]:
    """The §4.1 frontier stopline of ``cones.event``.

    Past (``future=False``): stop each process *immediately after* the
    last event that could affect the selected state.  A threshold of
    ``m`` stops before the construct with marker ``m``, so "immediately
    after event with marker k" is ``k + 1``; processes with no past
    event get threshold 1 (stop at their first construct).

    Future: stop each process *immediately before* the first event the
    selected state could affect; processes never affected get no
    threshold (they run to completion).

    The selected process stops at the selected construct either way.
    ``marker`` is the index's marker column.
    """
    if future:
        members = cones.first_future()
        has = np.nonzero(members >= 0)[0]
        out = dict(zip(has.tolist(), marker[members[has]].tolist()))
    else:
        members = cones.last_past()
        out = dict(enumerate(
            np.where(members >= 0, marker[members] + 1, 1).tolist()
        ))
    out[cones.proc] = int(marker[cones.event])
    return stop_thresholds(out)


class FrontierAnalysis:
    """Past/future frontiers and concurrency region of one event.

    The frontier members are found eagerly, as trace indexes; records
    (the selected event, frontier members) are built when read, and the
    concurrency region is gathered from the row table on first read of
    :attr:`concurrency_indexes`.
    """

    def __init__(self, order: CausalOrder, event_index: int) -> None:
        self.order = order
        self.event_index = event_index
        self.cones = order.cones(event_index)
        self.past_frontier = Frontier(self.cones.last_past(), order.trace)
        self.future_frontier = Frontier(self.cones.first_future(), order.trace)

    @cached_property
    def event(self) -> TraceRecord:
        return self.order.trace[self.event_index]

    @cached_property
    def concurrency_indexes(self) -> list[int]:
        """Trace indexes neither in the past nor the future, ascending."""
        return self.cones.concurrent().tolist()

    def concurrency_events(self) -> list[TraceRecord]:
        return [self.order.trace[i] for i in self.concurrency_indexes]

    # -- frontier stoplines (§4.1 last paragraph) ------------------------
    def past_stopline(self) -> dict[int, int]:
        """Marker thresholds stopping each process *immediately after*
        the last event that could affect the selected state (see
        :func:`frontier_thresholds`)."""
        marker = self.order.index.column("marker")
        return frontier_thresholds(self.cones, marker, future=False)

    def future_stopline(self) -> dict[int, int]:
        """Thresholds stopping each process *immediately before* the
        first event the selected state could affect.  Processes never
        affected get no threshold (omitted: they run to completion)."""
        marker = self.order.index.column("marker")
        return frontier_thresholds(self.cones, marker, future=True)


def analyze_frontiers(
    trace: "Trace | Iterable[TraceRecord]",
    event_index: int,
    index: "Optional[HistoryIndex]" = None,
) -> FrontierAnalysis:
    """Compute past/future frontiers of the event at ``event_index``.

    ``trace`` may be a materialized :class:`Trace` or any record
    iterator (e.g. a trace-file reader's stream) -- the streaming form
    of the §4.1 analysis.  The causal order and row table come from the
    shared :class:`~repro.analysis.history.HistoryIndex` (``index=`` to
    pass an existing one; a bare trace memoizes one on demand).

    O(p log n): the past-frontier member on process q is entry
    ``VC[e][q]`` of row q (counting from 1), and the future frontier is
    one binary search over all rows.
    """
    from .history import ensure_index

    return FrontierAnalysis(ensure_index(trace, index=index).order, event_index)


def is_antichain(
    trace: "Trace | Iterable[TraceRecord]",
    indexes: Sequence[int],
    index: "Optional[HistoryIndex]" = None,
) -> bool:
    """Literal reading of the paper's definition: "a set of events in
    which no event happens before another".

    One vectorized comparison over the k selected events' clocks (a
    (k, nprocs) expansion of their rows of the compact clock table):
    ``a -> b`` iff ``VC[a][proc(a)] <= VC[b][proc(a)]``, so comparing
    each member's own count against the k x k matrix of the members'
    components on each other's processes answers every pair at once.
    """
    from .history import ensure_index

    sel = np.asarray(list(indexes), dtype=np.int64)
    if len(sel) < 2:
        return True
    vc = ensure_index(trace, index=index).order.clocks
    procs = vc.procs[sel]
    clocks = vc.rows(sel)  # (k, nprocs)
    own = vc.own[sel]  # own component of each member
    # hb[b, a] <=> member a happens before member b (a's own component
    # is visible in b's clock).
    hb = own[None, :] <= clocks[:, procs]
    distinct = sel[None, :] != sel[:, None]  # i != j on *event* identity
    return not bool(np.any(hb & distinct))


def _frontier_bounds(
    idx: "HistoryIndex", indexes: Sequence[int], inclusive: bool
) -> Optional[np.ndarray]:
    """Per process, the first trace index outside the prefix cut a
    frontier bounds (0 where the process has no member); None when two
    members share a process."""
    members = np.asarray(list(indexes), dtype=np.int64)
    procs = idx.column("proc")[members]
    if members.size and np.bincount(procs).max() > 1:
        return None
    bounds = np.zeros(idx.nprocs, dtype=np.int64)
    bounds[procs] = members + 1 if inclusive else members
    return bounds


def _prefix_cut_consistent(idx: "HistoryIndex", bounds: np.ndarray) -> bool:
    """Is the per-process prefix cut {i : i < bounds[proc(i)]} closed
    under message order?  One pass over the matched-pair arrays: rows
    are in program order, so each endpoint's trace index against its
    process's bound places it inside or outside."""
    sends, recvs = idx.pair_indexes()
    proc = idx.column("proc")
    recv_in = recvs < bounds[proc[recvs]]
    send_out = sends >= bounds[proc[sends]]
    return not bool(np.any(recv_in & send_out))


def cut_of_frontier(
    trace: "Trace | Iterable[TraceRecord]",
    indexes: Sequence[int],
    inclusive: bool = True,
    index: "Optional[HistoryIndex]" = None,
) -> Optional[set[int]]:
    """The per-process prefix cut a frontier bounds.

    ``inclusive`` keeps each frontier member inside the cut (the shape
    of a *past* frontier: "immediately after the point where it could
    last affect"); ``inclusive=False`` cuts strictly before each member
    (the shape of a *future* frontier / stopline: stop *before* the
    member executes).  Processes without a member contribute an empty
    prefix when exclusive and their whole row is outside either way.

    Returns None for an ill-formed frontier (two members on one process).
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    bounds = _frontier_bounds(idx, indexes, inclusive)
    if bounds is None:
        return None
    table = idx.row_table()
    members = table.members
    starts = table.offsets[:-1]
    ends = table.bisect(lambda pos: members[pos], starts, table.offsets[1:], bounds)
    return set(table.gather(starts, ends).tolist())


def is_consistent_cut(
    trace: Trace,
    included: "set[int]",
    index: "Optional[HistoryIndex]" = None,
) -> bool:
    """Is the event set closed under happens-before?

    Messages are the only cross-process causality, so a per-process
    prefix set is a consistent cut iff no message is received inside it
    but sent outside it -- the paper's "no message was received before
    it was sent" criterion (§4.1).  (The caller guarantees the
    per-process prefix property; :func:`cut_of_frontier` constructs it.)
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    inside = np.fromiter(included, dtype=np.int64, count=len(included))
    bounds = np.zeros(idx.nprocs, dtype=np.int64)
    np.maximum.at(bounds, idx.column("proc")[inside], inside + 1)
    return _prefix_cut_consistent(idx, bounds)


def is_consistent_frontier(
    trace: "Trace | Iterable[TraceRecord]",
    indexes: Sequence[int],
    inclusive: bool = True,
    index: "Optional[HistoryIndex]" = None,
) -> bool:
    """Does this frontier bound a consistent cut?

    This is what the paper's "consistent frontier" guarantees in
    practice: a legal set of cross-process breakpoints [18].  A *past*
    frontier (most recent events in the past) is consistent inclusively;
    a *future* frontier (earliest events of the future) is consistent
    exclusively -- stopping just before each member.  Frontier members
    need not form an antichain (see :func:`is_antichain` for the
    literal reading): a past-frontier member may causally precede
    another through a message chain without invalidating the cut.
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    bounds = _frontier_bounds(idx, indexes, inclusive)
    return bounds is not None and _prefix_cut_consistent(idx, bounds)
