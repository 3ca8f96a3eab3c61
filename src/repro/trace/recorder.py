"""The trace recorder: filters, stamps, and publishes every record.

One recorder serves a whole runtime.  Instrumentation (wrapper library,
UserMonitor, AIMS-style source monitors) appends records; the recorder
applies the paper's Section 3 size-control knobs ("The size of trace
file can be controlled by selectively instrumenting constructs and by
toggling the collection on and off in the monitor" -- see
:meth:`set_enabled` and :meth:`set_kind_filter`), stamps the global
index, and publishes each surviving record once to a
:class:`~repro.trace.sinks.TraceBus`.

The recorder owns its execution's history: each surviving record is
appended to the recorder's :class:`~repro.analysis.history.HistoryIndex`
before it is published, and :meth:`TraceRecorder.snapshot` is that
index's :class:`Trace` view -- the only copy of the history a live
execution keeps.  Under a ``memory_limit`` only a bounded tail is kept
instead.  Other consumers are bus sinks (see :mod:`repro.trace.sinks`):
a trace file, an incremental trace graph, or arbitrary analysis
callbacks can be attached at any time and observe the same live stream.

Thread-safety: records are only appended by the process thread holding
the scheduler token, and read by the controller thread while no process
runs, so no locking is required -- a property of the cooperative runtime.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Union

from repro.mp.datatypes import SourceLocation

from .events import EventKind, TraceRecord
from .sinks import CallbackSink, FileSink, TraceBus, TraceSink
from .trace import Trace
from .tracefile import TraceFileWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> trace)
    from repro.analysis.history import HistoryIndex


class TraceRecorder:
    """Collects trace records for one execution.

    Parameters
    ----------
    nprocs:
        Communicator size (rows of the eventual time-space diagram).
    kinds:
        If given, only these event kinds are recorded (selective
        construct instrumentation).
    memory_limit:
        If given, in-memory retention is the last this many records
        (bounded memory for long runs), and :meth:`snapshot` covers only
        that tail.  None keeps the full history in :attr:`history`.
    """

    def __init__(
        self,
        nprocs: int,
        kinds: Optional[Iterable[EventKind]] = None,
        memory_limit: Optional[int] = None,
    ) -> None:
        from repro.analysis.history import HistoryIndex

        self.nprocs = nprocs
        self.bus = TraceBus()
        #: this execution's history index (None under a memory_limit)
        self.history: "Optional[HistoryIndex]" = None
        self._tail: "Optional[deque[TraceRecord]]" = None
        if memory_limit is None:
            self.history = HistoryIndex(nprocs=nprocs)
            self._keep = self.history.extend
        else:
            if memory_limit < 1:
                raise ValueError(f"memory_limit must be >= 1, got {memory_limit}")
            self._tail = deque(maxlen=memory_limit)
            self._keep = self._tail.append
        self._next_index = 0
        self._enabled_global = True
        self._enabled_proc = [True] * nprocs
        self._kind_filter: Optional[frozenset[EventKind]] = (
            frozenset(kinds) if kinds is not None else None
        )
        self._file_sink: Optional[FileSink] = None
        #: records dropped by toggles/filters (observability of gaps)
        self.dropped = 0

    # ------------------------------------------------------------------
    # collection control (paper Section 3 size-control knobs)
    # ------------------------------------------------------------------
    def set_enabled(self, on: bool, proc: Optional[int] = None) -> None:
        """Toggle collection globally (``proc=None``) or for one rank."""
        if proc is None:
            self._enabled_global = on
        else:
            self._enabled_proc[proc] = on

    def is_enabled(self, proc: int) -> bool:
        return self._enabled_global and self._enabled_proc[proc]

    def set_kind_filter(self, kinds: Optional[Iterable[EventKind]]) -> None:
        """Restrict recording to the given kinds (None = everything)."""
        self._kind_filter = frozenset(kinds) if kinds is not None else None

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def record(
        self,
        proc: int,
        kind: EventKind,
        t0: float,
        t1: float,
        marker: int,
        location: Optional[SourceLocation] = None,
        **fields: Any,
    ) -> Optional[TraceRecord]:
        """Append a record; returns it, or None when filtered out."""
        if not self.is_enabled(proc) or (
            self._kind_filter is not None and kind not in self._kind_filter
        ):
            self.dropped += 1
            return None
        rec = TraceRecord(
            index=self._next_index,
            proc=proc,
            kind=kind,
            t0=t0,
            t1=t1,
            marker=marker,
            location=location or SourceLocation.unknown(),
            **fields,
        )
        self._next_index += 1
        self._keep(rec)
        self.bus.publish(rec)
        return rec

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Trace:
        """A consistent Trace over the retained history: the history
        index's trace view, or a trace over the tail under a
        ``memory_limit``."""
        if self.history is not None:
            return self.history.trace
        return Trace(self._tail, self.nprocs)

    def __len__(self) -> int:
        return len(self.history if self.history is not None else self._tail)

    @property
    def records(self) -> Sequence[TraceRecord]:
        """The retained records: the history index's lazy rows, or the
        tail (with its global indexes) under a ``memory_limit``."""
        if self.history is not None:
            return self.history.records
        return tuple(self._tail)

    @property
    def total_recorded(self) -> int:
        """Records published over the recorder's lifetime (>= retained)."""
        return self._next_index

    # ------------------------------------------------------------------
    # pluggable sinks (the streaming pipeline surface)
    # ------------------------------------------------------------------
    def subscribe(self, sink: TraceSink, backfill: bool = False) -> TraceSink:
        """Attach a sink to the live stream; ``backfill`` first replays
        the retained in-memory history into it so a late subscriber
        still sees the full prefix."""
        if backfill:
            for rec in self.records:
                sink.emit(rec)
        return self.bus.attach(sink)

    def unsubscribe(self, sink: TraceSink) -> None:
        self.bus.detach(sink)

    def add_callback(
        self, fn: Callable[[TraceRecord], None], backfill: bool = False
    ) -> CallbackSink:
        """Attach a per-record callback (analysis subscriber shim)."""
        sink = CallbackSink(fn)
        self.subscribe(sink, backfill=backfill)
        return sink

    # ------------------------------------------------------------------
    # file backing (flush-on-demand, Section 2.1)
    # ------------------------------------------------------------------
    def attach_file(
        self,
        path: Union[str, Path],
        auto_flush_every: Optional[int] = None,
        durable: bool = False,
    ) -> TraceFileWriter:
        """Mirror all future records into a trace file (back-filling
        anything already retained in memory)."""
        if self._file_sink is not None:
            raise RuntimeError("a trace file is already attached")
        sink = FileSink(path, self.nprocs, auto_flush_every, durable=durable)
        self.subscribe(sink, backfill=True)
        self._file_sink = sink
        return sink.writer

    def flush(self) -> int:
        """Flush every attached sink; returns records moved to disk."""
        return self.bus.flush()

    def close(self) -> None:
        if self._file_sink is not None:
            self.bus.detach(self._file_sink)
            self._file_sink.close()
            self._file_sink = None
