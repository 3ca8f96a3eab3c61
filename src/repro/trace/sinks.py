"""The streaming trace pipeline: an event bus with pluggable sinks.

The paper's debugger consumes trace history *during* execution ("flush
trace information on demand", Section 2.1), and the tracer-driver line
of work (Langevine & Ducassé) generalizes that into a trace *flow* that
several dynamic analyses observe simultaneously.  This module is that
seam: instrumentation publishes each :class:`TraceRecord` once to a
:class:`TraceBus`, and any number of sinks -- a trace file, a trace
graph grown record by record, arbitrary analysis callbacks -- consume
it live.  The in-memory history is not a sink: the recorder appends
each record to its :class:`~repro.analysis.history.HistoryIndex` before
publishing it.

Sinks never see a record the filters dropped (the recorder applies the
Section 3 size-control knobs before publishing), and the bus preserves
publication order, so every sink observes the same history prefix.

Thread-safety matches the recorder's: records are published by the
process thread holding the scheduler token and sinks are read by the
controller thread while no process runs, so no locking is required.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

from .events import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graphs -> trace)
    from repro.graphs.tracegraph import TraceGraph


class TraceSink:
    """Base class for trace-event consumers attached to a bus.

    Subclasses implement :meth:`emit`; :meth:`flush` and :meth:`close`
    are no-ops by default (only buffering sinks need them).
    """

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def flush(self) -> int:
        """Propagate buffered records (returns how many moved)."""
        return 0

    def close(self) -> None:
        """Release resources; the sink must not be emitted to after."""


class TraceBus:
    """Ordered fan-out of trace records to attached sinks.

    A sink attached mid-execution observes only records published after
    attachment; the recorder's ``subscribe(sink, backfill=True)`` first
    replays its retained history into the sink (it does this when a file
    is attached late).
    """

    def __init__(self) -> None:
        self._sinks: list[TraceSink] = []
        #: total records published (the stream position)
        self.published = 0

    # ------------------------------------------------------------------
    @property
    def sinks(self) -> tuple[TraceSink, ...]:
        return tuple(self._sinks)

    def attach(self, sink: TraceSink) -> TraceSink:
        """Subscribe a sink; returns it for chaining."""
        if sink in self._sinks:
            raise ValueError("sink is already attached")
        self._sinks.append(sink)
        return sink

    def detach(self, sink: TraceSink) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            raise ValueError("sink is not attached") from None

    # ------------------------------------------------------------------
    def publish(self, record: TraceRecord) -> None:
        """Deliver one record to every attached sink, in attach order."""
        self.published += 1
        for sink in self._sinks:
            sink.emit(record)

    def flush(self) -> int:
        return sum(sink.flush() for sink in self._sinks)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()


# ----------------------------------------------------------------------
# concrete sinks
# ----------------------------------------------------------------------
class CallbackSink(TraceSink):
    """Invokes ``fn(record)`` per event -- the analysis-subscriber shim."""

    def __init__(
        self,
        fn: Callable[[TraceRecord], None],
        on_flush: Optional[Callable[[], None]] = None,
        on_close: Optional[Callable[[], None]] = None,
    ) -> None:
        self.fn = fn
        self._on_flush = on_flush
        self._on_close = on_close
        #: events delivered through this sink
        self.delivered = 0

    def emit(self, record: TraceRecord) -> None:
        self.delivered += 1
        self.fn(record)

    def flush(self) -> int:
        if self._on_flush is not None:
            self._on_flush()
        return 0

    def close(self) -> None:
        if self._on_close is not None:
            self._on_close()


class FileSink(TraceSink):
    """Streams records into a trace file (see ``repro.trace.tracefile``).

    Accepts either an existing :class:`TraceFileWriter` /
    :class:`~repro.trace.shard.TraceShardWriter` (borrowed: the caller
    owns closing unless ``own=True``) or a path to create one with
    :func:`~repro.trace.tracefile.open_writer`: ``compression`` selects
    per-block compression, and ``shards`` (a count, or ``"proc"`` for
    one shard per rank) creates a sharded store with a manifest at the
    given path instead of a single file.
    """

    def __init__(
        self,
        writer_or_path: "Union[str, Path, object]",
        nprocs: Optional[int] = None,
        auto_flush_every: Optional[int] = None,
        durable: bool = False,
        own: bool = True,
        compression: "Union[None, bool, str]" = None,
        shards: "Union[None, int, str]" = None,
    ) -> None:
        from .tracefile import open_writer

        if isinstance(writer_or_path, (str, Path)):
            if nprocs is None:
                raise ValueError("nprocs is required when creating a writer")
            self.writer = open_writer(
                writer_or_path,
                nprocs,
                auto_flush_every,
                durable=durable,
                compression=compression,
                shards=shards,
            )
        else:
            self.writer = writer_or_path  # type: ignore[assignment]
        self._own = own

    def emit(self, record: TraceRecord) -> None:
        self.writer.write(record)

    def flush(self) -> int:
        return self.writer.flush()

    @property
    def records_written(self) -> int:
        """Records the underlying writer has committed to disk."""
        return getattr(self.writer, "records_written", 0)

    def close(self) -> None:
        if self._own:
            self.writer.close()


class GraphSink(TraceSink):
    """Folds the stream into a trace graph incrementally (§3.2 "built as
    the execution is running") -- no materialized ``Trace`` needed."""

    def __init__(
        self,
        graph: "Optional[TraceGraph]" = None,
        nprocs: Optional[int] = None,
        arc_limit: Optional[int] = 64,
    ) -> None:
        if graph is None:
            if nprocs is None:
                raise ValueError("nprocs is required when creating a graph")
            from repro.graphs.tracegraph import TraceGraph

            graph = TraceGraph(nprocs, arc_limit)
        self.graph = graph

    def emit(self, record: TraceRecord) -> None:
        self.graph.add_record(record)
