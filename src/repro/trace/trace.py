"""The :class:`Trace` container: an execution history plus query indexes.

Downstream layers query a trace in a few stereotyped ways:

* per-process event sequences in program order (time-space rows);
* send/receive pairing by the (src, dst, tag, seq) key -- unique under
  MPI non-overtaking, the paper's Section 3.2 observation;
* marker <-> record translation (stopline placement and replay);
* time-window slices (zoom rescan for the disseminated trace graph).

All indexes are built lazily and cached; a Trace is immutable once
constructed (the recorder builds a new one per flush).  A trace over a
history index's rows (:meth:`Trace.over_index`) holds no record list of
its own and answers these queries from the index instead.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from .events import EventKind, TraceRecord


@dataclass(frozen=True)
class MessagePair:
    """A matched (send record, receive record) pair."""

    send: TraceRecord
    recv: TraceRecord

    @property
    def key(self) -> tuple[int, int, int, int]:
        return self.send.message_key()

    @property
    def latency(self) -> float:
        """Virtual time from send completion to receive completion."""
        return self.recv.t1 - self.send.t1


def _index_answers(method):
    """Route a query to the trace's bound history index, when it answers
    for this trace, under the same name and arguments."""

    @functools.wraps(method)
    def query(self, *args):
        index = self._bound()
        if index is not None:
            return getattr(index, method.__name__)(*args)
        return method(self, *args)

    return query


class Trace:
    """An immutable sequence of trace records with query indexes."""

    def __init__(self, records: Sequence[TraceRecord], nprocs: int) -> None:
        self._records: Sequence[TraceRecord] = list(records)
        self.nprocs = nprocs
        self._by_proc: Optional[list[Sequence[TraceRecord]]] = None
        self._pairs: Optional[list[MessagePair]] = None
        self._unmatched_sends: Optional[list[TraceRecord]] = None
        self._unmatched_recvs: Optional[list[TraceRecord]] = None
        self._span: Optional[tuple[float, float]] = None
        #: shared analysis substrate memoized on this trace (see
        #: :mod:`repro.analysis.history`); populated on first demand
        self._history_index = None

    @classmethod
    def over_index(cls, rows: Sequence[TraceRecord], nprocs: int, index) -> "Trace":
        """A trace whose records are ``rows`` -- a history index's lazy
        row view, neither copied nor iterated here -- bound to
        ``index``, which answers the whole-trace queries below while
        it holds exactly this history."""
        trace = cls((), nprocs)
        trace._records = rows
        trace._history_index = index
        return trace

    def _bound(self):
        """The bound history index, if it answers for this exact trace
        (see :meth:`repro.analysis.history.HistoryIndex.answers_for`)."""
        index = self._history_index
        if index is not None and index.answers_for(self):
            return index
        return None

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def records(self) -> Sequence[TraceRecord]:
        """All records: a tuple, or the index's lazy row view for a
        trace over an index."""
        if isinstance(self._records, list):
            return tuple(self._records)
        return self._records

    def by_proc(self, proc: int) -> Sequence[TraceRecord]:
        """This process's records in program order."""
        if self._by_proc is None:
            index = self._bound()
            if index is not None:
                self._by_proc = [index.by_proc(p) for p in range(self.nprocs)]
            else:
                rows: list[list[TraceRecord]] = [[] for _ in range(self.nprocs)]
                for rec in self._records:
                    rows[rec.proc].append(rec)
                self._by_proc = rows  # type: ignore[assignment]
        return self._by_proc[proc]

    def of_kind(self, *kinds: EventKind) -> list[TraceRecord]:
        wanted = set(kinds)
        return [r for r in self._records if r.kind in wanted]

    @property
    def span(self) -> tuple[float, float]:
        """(earliest, latest) over every t0 and t1 of the trace; (0, 0)
        if empty (see :attr:`HistoryIndex.span
        <repro.analysis.history.HistoryIndex.span>`).

        Computed once: a Trace is immutable once constructed, so the two
        full scans happen on first access only.
        """
        index = self._bound()
        if index is not None:
            return index.span
        if self._span is None:
            if not self._records:
                return (0.0, 0.0)
            self._span = (
                min(min(r.t0, r.t1) for r in self._records),
                max(max(r.t0, r.t1) for r in self._records),
            )
        return self._span

    def history_index(self):
        """The shared analysis substrate for this trace, built on first
        demand and memoized (see :class:`repro.analysis.history.HistoryIndex`).

        All analyses routed through :func:`repro.analysis.history.ensure_index`
        on the same trace object share this one index -- vector clocks
        and message matching are derived exactly once per history.
        """
        from repro.analysis.history import ensure_index

        return ensure_index(self)

    # ------------------------------------------------------------------
    # message matching (Section 3.2: unique under non-overtaking)
    # ------------------------------------------------------------------
    def _match_messages(self) -> None:
        # A bound history index (repro.analysis.history) already holds
        # the matching for this exact history -- adopt it instead of
        # re-deriving.
        index = self._bound()
        if index is not None:
            self._pairs = index.message_pairs()
            self._unmatched_sends = index.unmatched_sends()
            self._unmatched_recvs = index.unmatched_recvs()
            return
        sends: dict[tuple[int, int, int, int], TraceRecord] = {}
        pairs: list[MessagePair] = []
        matched_send_keys: set[tuple[int, int, int, int]] = set()
        unmatched_recvs: list[TraceRecord] = []
        for rec in self._records:
            if rec.is_send:
                sends[rec.message_key()] = rec
        for rec in self._records:
            if rec.is_recv:
                key = rec.message_key()
                send = sends.get(key)
                if send is None:
                    unmatched_recvs.append(rec)
                else:
                    pairs.append(MessagePair(send, rec))
                    matched_send_keys.add(key)
        self._pairs = pairs
        self._unmatched_sends = [
            rec
            for rec in self._records
            if rec.is_send and rec.message_key() not in matched_send_keys
        ]
        self._unmatched_recvs = unmatched_recvs

    def message_pairs(self) -> Sequence[MessagePair]:
        """All matched (send, recv) record pairs."""
        if self._pairs is None:
            self._match_messages()
        assert self._pairs is not None
        return self._pairs

    def unmatched_sends(self) -> list[TraceRecord]:
        """Send records whose message was never received -- the "missed
        messages" the paper's Figure 6 analysis surfaces."""
        if self._unmatched_sends is None:
            self._match_messages()
        assert self._unmatched_sends is not None
        return self._unmatched_sends

    def unmatched_recvs(self) -> list[TraceRecord]:
        """Receive records with no matching send in the trace (possible
        when instrumentation was toggled off around the send)."""
        if self._unmatched_recvs is None:
            self._match_messages()
        assert self._unmatched_recvs is not None
        return self._unmatched_recvs

    # ------------------------------------------------------------------
    # marker and time translation
    # ------------------------------------------------------------------
    @_index_answers
    def record_at_marker(self, proc: int, marker: int) -> Optional[TraceRecord]:
        """The first record of ``proc`` carrying ``marker`` (None if the
        marker fell between instrumented constructs)."""
        for rec in self.by_proc(proc):
            if rec.marker == marker:
                return rec
            if rec.marker > marker:
                break
        return None

    @_index_answers
    def first_at_or_after(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Earliest record of ``proc`` starting at or after time ``t``."""
        rows = self.by_proc(proc)
        starts = [r.t0 for r in rows]
        i = bisect.bisect_left(starts, t)
        return rows[i] if i < len(rows) else None

    @_index_answers
    def first_ending_after(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Earliest record of ``proc`` completing strictly after ``t``.

        Completion times are monotone in program order (a construct
        cannot start before its predecessor ends), so this is the first
        construct not yet finished at time ``t`` -- the vertical-stopline
        threshold construct.
        """
        rows = self.by_proc(proc)
        ends = [r.t1 for r in rows]
        i = bisect.bisect_right(ends, t)
        return rows[i] if i < len(rows) else None

    @_index_answers
    def last_before(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Latest record of ``proc`` starting strictly before ``t``."""
        rows = self.by_proc(proc)
        starts = [r.t0 for r in rows]
        i = bisect.bisect_left(starts, t)
        return rows[i - 1] if i > 0 else None

    @_index_answers
    def window(self, t_lo: float, t_hi: float) -> list[TraceRecord]:
        """Records overlapping [t_lo, t_hi] -- the zoom-rescan primitive
        the disseminated trace graph uses to reconstruct merged arcs.
        An inverted window (``t_lo > t_hi``) holds nothing."""
        if t_lo > t_hi:
            return []
        return [r for r in self._records if r.t1 >= t_lo and r.t0 <= t_hi]

    # ------------------------------------------------------------------
    @_index_answers
    def final_markers(self) -> dict[int, int]:
        """Rank -> highest marker seen (end-of-trace marker vector)."""
        out: dict[int, int] = {}
        for rec in self._records:
            if rec.marker > out.get(rec.proc, -1):
                out[rec.proc] = rec.marker
        return out

    @_index_answers
    def counts_by_kind(self) -> dict[EventKind, int]:
        out: dict[EventKind, int] = {}
        for rec in self._records:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out

    @_index_answers
    def recv_counts(self) -> dict[int, int]:
        """Rank -> number of completed receives (the Figure 6 diagnostic:
        "processes 1-6 each receive 2 messages and process 7 only
        receives 1")."""
        out = {p: 0 for p in range(self.nprocs)}
        for rec in self._records:
            if rec.is_recv:
                out[rec.proc] += 1
        return out

    @_index_answers
    def send_counts(self) -> dict[int, int]:
        out = {p: 0 for p in range(self.nprocs)}
        for rec in self._records:
            if rec.is_send:
                out[rec.proc] += 1
        return out


def ensure_trace(
    source: "Trace | Iterable[TraceRecord]",
    nprocs: Optional[int] = None,
) -> Trace:
    """Coerce a record stream into a :class:`Trace` (pass-through for an
    existing one).

    This is the batch <-> streaming bridge: every analysis entry point
    accepts either a materialized trace or any iterator of records (a
    file reader's ``iter_records``/``seek_window``, a sink's retained
    history, a generator).  ``nprocs`` is inferred from the records when
    not given (highest rank + 1, including message endpoints).

    Analyses assume ``record.index == position`` (vector clocks, path
    DP); a stream cut from the middle of a trace (seek_window, ring
    buffer) has sparse global indexes, so such records are re-indexed on
    positional *copies* -- the originals, and their global indexes, are
    left untouched.
    """
    if isinstance(source, Trace):
        return source
    records = list(source)
    if any(rec.index != k for k, rec in enumerate(records)):
        records = [replace(rec, index=k) for k, rec in enumerate(records)]
    if nprocs is None:
        nprocs = 0
        for rec in records:
            nprocs = max(nprocs, rec.proc + 1, rec.src + 1, rec.dst + 1)
    return Trace(records, nprocs)


def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Concatenate traces (e.g. per-segment flushes) re-indexed globally."""
    records: list[TraceRecord] = []
    nprocs = 0
    for tr in traces:
        nprocs = max(nprocs, tr.nprocs)
        records.extend(tr.records)
    records.sort(key=lambda r: r.index)
    return Trace(records, nprocs)
