"""``repro.trace`` -- the execution-history model.

Trace records (:mod:`~repro.trace.events`), execution markers
(:mod:`~repro.trace.markers`), the queryable :class:`Trace` container,
the persistent indexed trace-file format with on-demand flushing
(:mod:`~repro.trace.tracefile`) and its binary columnar block codec
(:mod:`~repro.trace.columnar`), the streaming event bus with pluggable
sinks (:mod:`~repro.trace.sinks`), and the recorder that filters and
publishes what instrumentation layers write
(:mod:`~repro.trace.recorder`).
"""

from .diff import (
    Divergence,
    TraceDiff,
    diff_traces,
    record_signature,
    verify_replay_prefix,
)
from .events import (
    COLLECTIVE_KINDS,
    OP_TO_KIND,
    RECV_KINDS,
    SEND_KINDS,
    EventKind,
    TraceRecord,
)
from .markers import ExecutionMarker, MarkerVector
from .recorder import TraceRecorder
from .sinks import (
    CallbackSink,
    FileSink,
    GraphSink,
    TraceBus,
    TraceSink,
)
from .columnar import ColumnBlock, ColumnDecodeError
from .shard import ShardManifest, TraceShardWriter
from .trace import MessagePair, Trace, ensure_trace
from .tracefile import (
    FORMAT_VERSION,
    TraceFileError,
    TraceFileReader,
    TraceFileWriter,
    TraceIndex,
    load_trace,
    save_trace,
)

__all__ = [
    "COLLECTIVE_KINDS",
    "CallbackSink",
    "ColumnBlock",
    "ColumnDecodeError",
    "FORMAT_VERSION",
    "Divergence",
    "FileSink",
    "GraphSink",
    "ShardManifest",
    "TraceBus",
    "TraceDiff",
    "TraceSink",
    "diff_traces",
    "ensure_trace",
    "record_signature",
    "verify_replay_prefix",
    "EventKind",
    "ExecutionMarker",
    "MarkerVector",
    "MessagePair",
    "OP_TO_KIND",
    "RECV_KINDS",
    "SEND_KINDS",
    "Trace",
    "TraceFileError",
    "TraceFileReader",
    "TraceFileWriter",
    "TraceIndex",
    "TraceRecord",
    "TraceRecorder",
    "TraceShardWriter",
    "load_trace",
    "save_trace",
]
