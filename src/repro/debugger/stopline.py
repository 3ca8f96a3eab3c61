"""Stoplines: breakpoints in the timeline (paper §3.1, §4.1).

    "This combination of features permits p2d2 to implement a stopline,
    that is, a breakpoint in the timeline.  When the user requests one
    at a particular point, the debugger can find out the corresponding
    execution markers for each of the processes ... When execution is
    replayed, the execution markers tell the debugger when to stop each
    of the processes."

A stopline is computed from a trace plus a selected point and yields a
:class:`~repro.trace.markers.MarkerVector` of per-process thresholds.
Three placements:

* ``vertical`` -- the Figure 2/6 vertical slice at the selected event's
  start time.  Consistent because trace causality guarantees no message
  crosses a time slice backwards ("the stopline passes through a
  concurrent set of events").
* ``past`` / ``future`` -- the §4.1 frontier placements: stop each
  process immediately after the last event that could affect the
  selected state, or immediately before the first event it could
  affect.

Thresholds follow the UserMonitor convention: a process parks when its
counter *reaches* the threshold, i.e. before executing the construct
bearing that marker.  No threshold is below 1
(:func:`~repro.analysis.frontiers.stop_thresholds`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.analysis.frontiers import frontier_thresholds, stop_thresholds
from repro.trace.events import TraceRecord
from repro.trace.markers import MarkerVector
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.history import HistoryIndex


class StoplinePlacement(enum.Enum):
    VERTICAL = "vertical"
    PAST_FRONTIER = "past"
    FUTURE_FRONTIER = "future"


@dataclass
class Stopline:
    """A computed stopline: the selected point plus per-rank thresholds.

    ``time`` is where the indicator line is drawn in the time-space
    display; ``thresholds`` is what the replay programs into the
    UserMonitor threshold variables.  The selected event is held as its
    trace index (``anchor_index``, None for a bare time); ``anchor``
    builds its record from ``trace`` when read.
    """

    placement: StoplinePlacement
    time: float
    anchor_index: Optional[int]
    thresholds: MarkerVector
    trace: Optional[Trace] = field(default=None, repr=False, compare=False)

    @property
    def anchor(self) -> Optional[TraceRecord]:
        if self.anchor_index is None or self.trace is None:
            return None
        return self.trace[self.anchor_index]

    def describe(self) -> str:
        parts = [f"stopline ({self.placement.value}) at t={self.time:.2f}"]
        if self.anchor is not None:
            parts.append(
                f"anchored on p{self.anchor.proc} marker {self.anchor.marker}"
            )
        parts.append(
            "thresholds: "
            + ", ".join(f"p{r}:{self.thresholds[r]}" for r in self.thresholds)
        )
        return "; ".join(parts)


def vertical_stopline_at_time(trace: Trace, time: float) -> Stopline:
    """A vertical stopline at an arbitrary time (no anchoring event).

    Each process stops before its first construct *not yet completed*
    at ``time`` (a receive that was still blocked at the slice is
    re-executed and blocks again -- the replayed state matches the
    original).  Processes whose trace ends earlier get no threshold: a
    replay lets them run to completion, which is where they were.
    The resulting cut is consistent by construction: every included
    event completed by ``time``, and trace causality puts each included
    receive's send no later than the receive.
    """
    thresholds: dict[int, int] = {}
    for p in range(trace.nprocs):
        rec = trace.first_ending_after(p, time)
        if rec is not None:
            thresholds[p] = rec.marker
    return Stopline(
        placement=StoplinePlacement.VERTICAL,
        time=time,
        anchor_index=None,
        thresholds=MarkerVector(stop_thresholds(thresholds)),
    )


def compute_stopline(
    trace: Trace,
    event_index: int,
    placement: StoplinePlacement = StoplinePlacement.VERTICAL,
    index: "Optional[HistoryIndex]" = None,
) -> Stopline:
    """Stopline for a selected event (the user's click).

    ``vertical`` slices at the event's start time; the selected process
    is pinned to stop exactly at the selected construct.  ``past`` /
    ``future`` use the frontier thresholds
    (:func:`~repro.analysis.frontiers.frontier_thresholds`) of the
    event's row-table cones in the shared HistoryIndex: O(p log n),
    and a past stopline needs no search at all.
    """
    from repro.analysis.history import ensure_index

    idx = ensure_index(trace, index=index)
    trace = idx.trace
    marker = idx.column("marker")
    t0 = float(idx.column("t0")[event_index])
    if placement is StoplinePlacement.VERTICAL:
        sl = vertical_stopline_at_time(trace, t0)
        merged = sl.thresholds.as_dict()
        merged[int(idx.column("proc")[event_index])] = int(marker[event_index])
        thresholds = stop_thresholds(merged)
    else:
        thresholds = frontier_thresholds(
            idx.order.cones(event_index),
            marker,
            future=placement is StoplinePlacement.FUTURE_FRONTIER,
        )
    return Stopline(
        placement=placement,
        time=t0,
        anchor_index=event_index,
        thresholds=MarkerVector(thresholds),
        trace=trace,
    )


def verify_stopline_consistency(
    trace: Trace,
    stopline: Stopline,
    index: "Optional[HistoryIndex]" = None,
) -> bool:
    """Check the §4.1 consistency argument on the achieved cut.

    The cut "everything with marker < threshold per process" must not
    contain a receive whose send lies outside -- no message into the cut
    from beyond the stopline.  One pass over the matched-pair arrays:
    each endpoint's marker against its process's threshold.
    """
    from repro.analysis.history import ensure_index

    idx = ensure_index(trace, index=index)
    limit = np.full(idx.nprocs, np.iinfo(np.int64).max, dtype=np.int64)
    for p in range(idx.nprocs):
        limit[p] = stopline.thresholds.get(p, limit[p])
    sends, recvs = idx.pair_indexes()
    marker, proc = idx.column("marker"), idx.column("proc")
    recv_in = marker[recvs] < limit[proc[recvs]]
    send_out = marker[sends] >= limit[proc[sends]]
    return not bool(np.any(recv_in & send_out))
