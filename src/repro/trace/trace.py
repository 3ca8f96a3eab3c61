"""The :class:`Trace` container: an execution history and its queries.

Downstream layers query a trace in a few stereotyped ways:

* per-process event sequences in program order (time-space rows);
* send/receive pairing by the (src, dst, tag, seq) key -- unique under
  MPI non-overtaking, the paper's Section 3.2 observation;
* marker <-> record translation (stopline placement and replay);
* time-window slices (zoom rescan for the disseminated trace graph).

A Trace is an immutable view, and every query is answered by one
:class:`~repro.analysis.history.HistoryIndex`: the index the trace is a
view of (:meth:`Trace.over_index`, what a recorder's ``snapshot()``
returns) while that index is live and holds exactly the trace's rows,
otherwise an index built once over the trace's own rows -- a snapshot
taken before the execution went on, one from a replaced generation, or
``Trace(records, nprocs)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .events import EventKind, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> trace)
    from repro.analysis.history import HistoryIndex


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


class Trace:
    """An immutable sequence of trace records, queried through one
    history index.

    Analyses assume ``record.index == position`` (vector clocks, path
    DP); records whose indexes are not positional -- a stream cut from
    the middle of a trace (``seek_window``, a bounded recorder tail) --
    are kept as re-indexed positional *copies*, so ``trace[i]`` and the
    queries agree.  The originals, and their global indexes, are left
    untouched.
    """

    def __init__(self, records: Iterable[TraceRecord], nprocs: int) -> None:
        records = list(records)
        if any(rec.index != k for k, rec in enumerate(records)):
            records = [replace(rec, index=k) for k, rec in enumerate(records)]
        self._records: Sequence[TraceRecord] = records
        self.nprocs = nprocs
        self._index: "Optional[HistoryIndex]" = None

    @classmethod
    def over_index(
        cls, rows: Sequence[TraceRecord], nprocs: int, index: "HistoryIndex"
    ) -> "Trace":
        """A trace whose records are ``rows`` -- the first ``len(rows)``
        of ``index``'s rows as its lazy row view, neither copied nor
        iterated here -- answered by ``index`` while it holds exactly
        these rows."""
        trace = cls((), nprocs)
        trace._records = rows
        trace._index = index
        return trace

    def history_index(self) -> "HistoryIndex":
        """The index that answers this trace's queries: the one it is a
        view of while that index is live and holds exactly this trace's
        rows, else one built once over its own rows (see
        :class:`repro.analysis.history.HistoryIndex`)."""
        index = self._index
        if index is None or index.stale or len(index) != len(self._records):
            from repro.analysis.history import HistoryIndex

            index = self._index = HistoryIndex.from_trace(self)
        return index

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

    # ------------------------------------------------------------------
    # queries (each answered by the history index)
    # ------------------------------------------------------------------
    def by_proc(self, proc: int) -> Sequence[TraceRecord]:
        """This process's records in program order."""
        return self.history_index().by_proc(proc)

    def of_kind(self, *kinds: EventKind) -> list[TraceRecord]:
        """Records of the given kinds, in trace order."""
        return self.history_index().of_kind(*kinds)

    @property
    def span(self) -> tuple[float, float]:
        """(earliest, latest) over every t0 and t1 of the trace; (0, 0)
        if empty."""
        return self.history_index().span

    def message_pairs(self) -> Sequence[MessagePair]:
        """All matched (send, recv) record pairs, in receive order."""
        return self.history_index().message_pairs()

    def unmatched_sends(self) -> list[TraceRecord]:
        """Send records whose message was never received -- the "missed
        messages" the paper's Figure 6 analysis surfaces."""
        return self.history_index().unmatched_sends()

    def unmatched_recvs(self) -> list[TraceRecord]:
        """Receive records with no matching send in the trace (possible
        when instrumentation was toggled off around the send)."""
        return self.history_index().unmatched_recvs()

    def record_at_marker(self, proc: int, marker: int) -> Optional[TraceRecord]:
        """The first record of ``proc`` carrying ``marker`` (None if the
        marker fell between instrumented constructs)."""
        return self.history_index().record_at_marker(proc, marker)

    def first_at_or_after(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Earliest record of ``proc`` starting at or after time ``t``."""
        return self.history_index().first_at_or_after(proc, t)

    def first_ending_after(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Earliest record of ``proc`` completing strictly after ``t``.

        Completion times are monotone in program order (a construct
        cannot start before its predecessor ends), so this is the first
        construct not yet finished at time ``t`` -- the vertical-stopline
        threshold construct.
        """
        return self.history_index().first_ending_after(proc, t)

    def last_before(self, proc: int, t: float) -> Optional[TraceRecord]:
        """Latest record of ``proc`` starting strictly before ``t``."""
        return self.history_index().last_before(proc, t)

    def window(self, t_lo: float, t_hi: float) -> list[TraceRecord]:
        """Records overlapping [t_lo, t_hi] -- the zoom-rescan primitive
        the disseminated trace graph uses to reconstruct merged arcs.
        An inverted window (``t_lo > t_hi``) holds nothing."""
        return self.history_index().window(t_lo, t_hi)

    def final_markers(self) -> dict[int, int]:
        """Rank -> highest marker seen (end-of-trace marker vector)."""
        return self.history_index().final_markers()

    def counts_by_kind(self) -> dict[EventKind, int]:
        return self.history_index().counts_by_kind()

    def recv_counts(self) -> dict[int, int]:
        """Rank -> number of completed receives (the Figure 6 diagnostic:
        "processes 1-6 each receive 2 messages and process 7 only
        receives 1")."""
        return self.history_index().recv_counts()

    def send_counts(self) -> dict[int, int]:
        return self.history_index().send_counts()


def ensure_trace(
    source: "Trace | Iterable[TraceRecord]",
    nprocs: Optional[int] = None,
) -> Trace:
    """Coerce a record stream into a :class:`Trace` (pass-through for an
    existing one).

    This is the batch <-> streaming bridge: every analysis entry point
    accepts either a materialized trace or any iterator of records (a
    file reader's ``iter_records``/``seek_window``, a recorder's
    retained history, a generator).  ``nprocs`` is inferred from the
    records when not given (highest rank + 1, including message
    endpoints).
    """
    if isinstance(source, Trace):
        return source
    records = list(source)
    if nprocs is None:
        nprocs = 0
        for rec in records:
            nprocs = max(nprocs, rec.proc + 1, rec.src + 1, rec.dst + 1)
    return Trace(records, nprocs)
