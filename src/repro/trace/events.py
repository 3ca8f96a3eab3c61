"""Trace records: the unit of execution history.

"The trace contains a record for each execution of each instrumented
program construct, such as a communication event.  A record identifies
the construct by giving its program location, the id of the process that
executed the construct, and the start and end time of the construct
execution.  In addition, if the construct is a message passing operation,
the record contains the message tag together with the source and
destination of the message." -- paper, Section 3.

Every record additionally carries the *execution marker* in force when
the construct began (Section 2: "tags in the execution trace that allow
mapping from a particular trace record to the point of its generation"),
which is what lets a stopline selected in the display be translated into
replay thresholds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.mp.datatypes import SourceLocation


class EventKind(enum.Enum):
    """Construct kinds a trace record can describe."""

    # --- function-level constructs (uinst / AIMS function instrumentation)
    FUNC_ENTRY = "func_entry"
    FUNC_EXIT = "func_exit"
    # --- finer source constructs (AIMS selective instrumentation)
    LOOP_ENTRY = "loop_entry"
    LOOP_EXIT = "loop_exit"
    STATEMENT = "statement"
    # --- point-to-point communication
    SEND = "send"
    SSEND = "ssend"
    RSEND = "rsend"
    ISEND = "isend"
    ISSEND = "issend"
    RECV = "recv"
    IRECV = "irecv"
    PROBE = "probe"
    IPROBE = "iprobe"
    SENDRECV = "sendrecv"
    WAIT = "wait"
    TEST = "test"
    WAITALL = "waitall"
    WAITANY = "waitany"
    CANCEL = "cancel"
    # --- collectives
    BARRIER = "barrier"
    BCAST = "bcast"
    SCATTER = "scatter"
    GATHER = "gather"
    ALLGATHER = "allgather"
    REDUCE = "reduce"
    ALLREDUCE = "allreduce"
    ALLTOALL = "alltoall"
    SCAN = "scan"
    SPLIT = "split"
    # --- local activity & lifecycle
    COMPUTE = "compute"
    PROC_START = "proc_start"
    PROC_EXIT = "proc_exit"


#: Kinds that put a message into flight.
SEND_KINDS = frozenset(
    {EventKind.SEND, EventKind.SSEND, EventKind.RSEND, EventKind.ISEND, EventKind.ISSEND}
)

#: Kinds that consume a message.  Wrappers normalize completed
#: wait/test/waitany receive completions into ``RECV`` records, so RECV
#: is the single receive-side kind the matching analysis needs.
RECV_KINDS = frozenset({EventKind.RECV})

#: Collective kinds (their constituent traffic appears as SEND/RECV too).
COLLECTIVE_KINDS = frozenset(
    {
        EventKind.BARRIER,
        EventKind.BCAST,
        EventKind.SCATTER,
        EventKind.GATHER,
        EventKind.ALLGATHER,
        EventKind.REDUCE,
        EventKind.ALLREDUCE,
        EventKind.ALLTOALL,
        EventKind.SCAN,
        EventKind.SPLIT,
    }
)


@dataclass(slots=True)
class TraceRecord:
    """One executed construct.

    The class is slotted: a record has no instance ``__dict__`` (about
    half the memory of a plain dataclass instance, and less for the
    garbage collector to walk when a window or index materializes tens
    of thousands of them).  So a record takes no ad-hoc attributes and
    no weak references; open-ended data goes in ``extra``.

    Attributes
    ----------
    index:
        Global position in the trace (recording order; deterministic).
    proc:
        Rank that executed the construct.
    kind:
        The construct kind.
    t0 / t1:
        Virtual start / end times of the construct execution.
    marker:
        The process's execution-marker value identifying this construct
        instance (replay threshold ``marker`` stops *before* it runs).
    location:
        Program source of the construct.
    src / dst / tag / size / seq:
        Message fields (message operations only; -1/-1/-1/0/-1 otherwise).
        ``seq`` is the per-(src,dst,tag) sequence number whose uniqueness
        under non-overtaking gives the send<->recv pairing.
    peer_location / peer_marker / peer_time:
        For receives: where/when the matched message was sent.
    construct_id:
        AIMS-style id into a construct table (source instrumentation);
        -1 when the record did not come from source instrumentation.
    extra:
        Open dictionary for instrumentation-specific fields.
    """

    index: int
    proc: int
    kind: EventKind
    t0: float
    t1: float
    marker: int
    location: SourceLocation = field(default_factory=SourceLocation.unknown)
    src: int = -1
    dst: int = -1
    tag: int = -1
    size: int = 0
    seq: int = -1
    peer_location: Optional[SourceLocation] = None
    peer_marker: int = -1
    peer_time: float = -1.0
    construct_id: int = -1
    extra: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def is_send(self) -> bool:
        return self.kind in SEND_KINDS

    @property
    def is_recv(self) -> bool:
        return self.kind in RECV_KINDS

    @property
    def is_message(self) -> bool:
        return self.is_send or self.is_recv

    @property
    def is_collective(self) -> bool:
        return self.kind in COLLECTIVE_KINDS

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def message_key(self) -> tuple[int, int, int, int]:
        """The (src, dst, tag, seq) join key pairing sends with receives."""
        return (self.src, self.dst, self.tag, self.seq)

    def __str__(self) -> str:  # pragma: no cover - display convenience
        core = (
            f"[{self.index}] p{self.proc} {self.kind.value} "
            f"t={self.t0:.2f}..{self.t1:.2f} m={self.marker}"
        )
        if self.is_message:
            core += f" {self.src}->{self.dst} tag={self.tag} #{self.seq}"
        return core

    # ------------------------------------------------------------------
    # serialization (line-oriented trace files)
    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "i": self.index,
            "p": self.proc,
            "k": self.kind.value,
            "t0": self.t0,
            "t1": self.t1,
            "m": self.marker,
            "loc": [self.location.filename, self.location.lineno, self.location.function],
        }
        if (
            self.src != -1
            or self.dst != -1
            or self.tag != -1
            or self.seq != -1
            or self.size != 0
        ):
            out.update(src=self.src, dst=self.dst, tag=self.tag,
                       size=self.size, seq=self.seq)
        if self.peer_location is not None:
            out["ploc"] = [
                self.peer_location.filename,
                self.peer_location.lineno,
                self.peer_location.function,
            ]
            out["pm"] = self.peer_marker
            out["pt"] = self.peer_time
        if self.construct_id != -1:
            out["cid"] = self.construct_id
        if self.extra:
            out["x"] = self.extra
        return out

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "TraceRecord":
        loc = data.get("loc") or ["<unknown>", 0, "<unknown>"]
        ploc = data.get("ploc")
        return cls(
            index=data["i"],
            proc=data["p"],
            kind=EventKind(data["k"]),
            t0=data["t0"],
            t1=data["t1"],
            marker=data["m"],
            location=SourceLocation(loc[0], loc[1], loc[2]),
            src=data.get("src", -1),
            dst=data.get("dst", -1),
            tag=data.get("tag", -1),
            size=data.get("size", 0),
            seq=data.get("seq", -1),
            peer_location=SourceLocation(ploc[0], ploc[1], ploc[2]) if ploc else None,
            peer_marker=data.get("pm", -1),
            peer_time=data.get("pt", -1.0),
            construct_id=data.get("cid", -1),
            extra=data.get("x", {}),
        )


#: Mapping from runtime operation names to trace kinds, used by the
#: wrapper instrumentation library.
OP_TO_KIND: dict[str, EventKind] = {
    "send": EventKind.SEND,
    "ssend": EventKind.SSEND,
    "rsend": EventKind.RSEND,
    "isend": EventKind.ISEND,
    "issend": EventKind.ISSEND,
    "recv": EventKind.RECV,
    "irecv": EventKind.IRECV,
    "probe": EventKind.PROBE,
    "iprobe": EventKind.IPROBE,
    "sendrecv": EventKind.SENDRECV,
    "wait": EventKind.WAIT,
    "test": EventKind.TEST,
    "waitall": EventKind.WAITALL,
    "waitany": EventKind.WAITANY,
    "cancel": EventKind.CANCEL,
    "barrier": EventKind.BARRIER,
    "bcast": EventKind.BCAST,
    "scatter": EventKind.SCATTER,
    "gather": EventKind.GATHER,
    "allgather": EventKind.ALLGATHER,
    "reduce": EventKind.REDUCE,
    "allreduce": EventKind.ALLREDUCE,
    "alltoall": EventKind.ALLTOALL,
    "scan": EventKind.SCAN,
    "split": EventKind.SPLIT,
    "compute": EventKind.COMPUTE,
}
