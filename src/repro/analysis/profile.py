"""Trace-derived performance profiles.

AIMS -- the toolkit the paper builds its first acquisition method on --
is a *performance* analysis system; the same traces that drive debugging
answer "where did the time go".  This module distills a trace into the
three classic reports:

* :func:`time_breakdown` -- per process: computing / communicating /
  blocked-in-receive virtual time (the colored-bar totals of the
  time-space diagram);
* :func:`communication_matrix` -- messages and payload volume per
  (src, dst) route;
* :func:`function_profile` -- inclusive/exclusive virtual time and call
  counts per function (needs function-entry instrumentation).

Each has an ``as_text`` rendering used by the debugger's reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.trace.events import COLLECTIVE_KINDS, EventKind
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .history import HistoryIndex


# ----------------------------------------------------------------------
# time breakdown
# ----------------------------------------------------------------------
@dataclass
class ProcTimeBreakdown:
    """Virtual-time totals for one process."""

    proc: int
    compute: float = 0.0
    send: float = 0.0
    #: receive time spent after the message was available (overhead)
    recv_overhead: float = 0.0
    #: receive time spent waiting for the message to exist (blocked)
    recv_blocked: float = 0.0
    collective: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.send
            + self.recv_overhead
            + self.recv_blocked
            + self.collective
        )


def time_breakdown(
    trace: Trace,
    index: "Optional[HistoryIndex]" = None,
) -> list[ProcTimeBreakdown]:
    """Per-process virtual-time decomposition.

    Receive time is split at the matched message's send completion: the
    portion of the receive bar before ``peer_time`` is genuine waiting
    (the process could not have proceeded), the rest is transfer and
    overhead.  Collective records overlap their constituent traffic, so
    only the overhead *not* inside constituent sends/receives is counted
    (approximated as the collective record's duration minus contained
    message durations, floored at zero).
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    trace = idx.trace
    out = [ProcTimeBreakdown(p) for p in range(trace.nprocs)]
    for rec in trace:
        row = out[rec.proc]
        if rec.kind is EventKind.COMPUTE:
            row.compute += rec.duration
        elif rec.is_send:
            row.send += rec.duration
        elif rec.is_recv:
            if rec.peer_time >= 0.0:
                blocked = max(0.0, min(rec.peer_time, rec.t1) - rec.t0)
            else:
                blocked = 0.0
            row.recv_blocked += blocked
            row.recv_overhead += rec.duration - blocked
        elif rec.kind in COLLECTIVE_KINDS:
            inner = sum(
                r.duration
                for r in idx.by_proc(rec.proc)
                if r.is_message and rec.t0 <= r.t0 and r.t1 <= rec.t1
            )
            row.collective += max(0.0, rec.duration - inner)
    return out


def time_breakdown_text(trace: Trace, index: "Optional[HistoryIndex]" = None) -> str:
    rows = time_breakdown(trace, index=index)
    lines = ["proc   compute     send  recv-wait  recv-ovhd  collective"]
    for r in rows:
        lines.append(
            f"p{r.proc:<4d} {r.compute:8.2f} {r.send:8.2f} "
            f"{r.recv_blocked:10.2f} {r.recv_overhead:10.2f} "
            f"{r.collective:11.2f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# communication matrix
# ----------------------------------------------------------------------
@dataclass
class CommMatrix:
    """Message counts and element volume per (src, dst) route."""

    nprocs: int
    counts: np.ndarray  # (nprocs, nprocs) int64
    volume: np.ndarray  # (nprocs, nprocs) int64

    def busiest_route(self) -> tuple[int, int]:
        flat = int(np.argmax(self.volume))
        return divmod(flat, self.nprocs)

    def totals(self) -> tuple[int, int]:
        """(total messages, total elements)."""
        return int(self.counts.sum()), int(self.volume.sum())

    def as_text(self) -> str:
        lines = ["message counts (rows = src, cols = dst)"]
        header = "     " + "".join(f"{d:>6d}" for d in range(self.nprocs))
        lines.append(header)
        for s in range(self.nprocs):
            cells = "".join(f"{int(self.counts[s, d]):>6d}" for d in range(self.nprocs))
            lines.append(f"p{s:<4d}{cells}")
        msgs, elems = self.totals()
        lines.append(f"total: {msgs} messages, {elems} elements")
        return "\n".join(lines)


def communication_matrix(
    trace: Trace,
    user_only: bool = True,
    index: "Optional[HistoryIndex]" = None,
) -> CommMatrix:
    """Build the route matrix from send records.

    ``user_only`` drops collective plumbing (reserved tags), showing the
    application's own traffic pattern.
    """
    from repro.mp.datatypes import COLLECTIVE_TAG_BASE

    from .history import SEND_CODES, ensure_index

    idx = ensure_index(trace, index=index)
    nprocs = idx.nprocs
    cols = idx.columns
    counts = np.zeros((nprocs, nprocs), dtype=np.int64)
    volume = np.zeros_like(counts)
    src = cols["src"]
    dst = cols["dst"]
    mask = np.isin(cols["kind"], SEND_CODES)
    if user_only:
        mask &= cols["tag"] < COLLECTIVE_TAG_BASE
    mask &= (src >= 0) & (src < nprocs) & (dst >= 0) & (dst < nprocs)
    np.add.at(counts, (src[mask], dst[mask]), 1)
    np.add.at(volume, (src[mask], dst[mask]), cols["size"][mask])
    return CommMatrix(nprocs, counts, volume)


# ----------------------------------------------------------------------
# function profile
# ----------------------------------------------------------------------
@dataclass
class FunctionStats:
    """Dynamic profile of one function (across all processes)."""

    name: str
    calls: int = 0
    inclusive: float = 0.0  # time between entry and exit
    exclusive: float = 0.0  # inclusive minus time in instrumented callees


def function_profile(
    trace: Trace,
    index: "Optional[HistoryIndex]" = None,
) -> dict[str, FunctionStats]:
    """gprof-flavoured profile from FUNC_ENTRY/FUNC_EXIT records."""
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    trace = idx.trace
    stats: dict[str, FunctionStats] = {}
    for p in range(trace.nprocs):
        # stack of [name, t_entry, child_time]
        stack: list[list] = []
        for rec in idx.by_proc(p):
            if rec.kind is EventKind.FUNC_ENTRY:
                stack.append([rec.location.function, rec.t0, 0.0])
            elif rec.kind is EventKind.FUNC_EXIT and stack:
                if stack[-1][0] != rec.location.function:
                    continue  # mismatched exit (partial trace); skip
                name, t_in, child = stack.pop()
                fs = stats.setdefault(name, FunctionStats(name))
                dur = rec.t1 - t_in
                fs.calls += 1
                fs.inclusive += dur
                fs.exclusive += max(0.0, dur - child)
                if stack:
                    stack[-1][2] += dur
    return stats


def function_profile_text(
    trace: Trace,
    top: int = 15,
    index: "Optional[HistoryIndex]" = None,
) -> str:
    stats = sorted(
        function_profile(trace, index=index).values(), key=lambda s: -s.exclusive
    )[:top]
    lines = ["function                     calls   inclusive   exclusive"]
    for s in stats:
        lines.append(
            f"{s.name:<26s} {s.calls:7d} {s.inclusive:11.2f} {s.exclusive:11.2f}"
        )
    return "\n".join(lines) if stats else "(no function records in trace)"
