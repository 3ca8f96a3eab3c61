"""The trace graph -- the paper's navigable abstraction of history (§3.2).

    "The trace graph of the execution is a graph whose vertex set
    consists of a node for each function in the program and a node for
    each communication channel (one channel per pair of processes).
    There are two types of arcs in the trace graph.  Each function call
    is represented with an arc from the node of the caller to the callee
    node.  Each message send/receive is represented with an arc from the
    function performing the send/receive to the channel involved."

Size control (§4.3): node count is bounded by (#functions x #procs +
#procs^2); arc count is kept bounded by the *dissemination* technique --
"if the number of arcs incident to a node exceeds a limit, we merge
every other arc with the previous one" -- at the cost of resolution,
recoverable by rescanning the trace window an arc covers.

Arc orientation: call arcs run caller -> callee; send arcs run function
-> channel; receive arcs run channel -> function, so directed paths in
the trace graph follow causality ("The arcs describe causality").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Union

import numpy as np

from repro.trace.events import RECV_KINDS, SEND_KINDS, EventKind, TraceRecord
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.columnar import ColumnBlock
    from repro.trace.sinks import TraceSink
    from repro.trace.tracefile import TraceFileReader

#: kinds that change the graph topology; everything else is skipped
#: before materialization on the columnar ingest path
_TOPOLOGY_KINDS = frozenset(
    {EventKind.FUNC_ENTRY, EventKind.FUNC_EXIT} | SEND_KINDS | RECV_KINDS
)


# ----------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionNode:
    """One program function on one process."""

    proc: int
    function: str

    def __str__(self) -> str:
        return f"p{self.proc}:{self.function}"


@dataclass(frozen=True)
class ChannelNode:
    """The communication channel between an unordered pair of processes."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @classmethod
    def between(cls, p: int, q: int) -> "ChannelNode":
        return cls(min(p, q), max(p, q))

    def __str__(self) -> str:
        return f"ch({self.a},{self.b})"


Node = Union[FunctionNode, ChannelNode]

#: Default name for the per-process root function (the rank's target).
ROOT_FUNCTION = "<main>"


class ArcKind(enum.Enum):
    CALL = "call"
    SEND = "send"
    RECV = "recv"


@dataclass
class Arc:
    """A (possibly merged) arc of the trace graph.

    ``count`` is how many original events the arc stands for after
    dissemination merges; ``first_index``/``last_index`` bound the trace
    records covered, and ``t0``/``t1`` bound their times -- together the
    "image in the execution trace" used to reconstruct detail on zoom.
    """

    kind: ArcKind
    src: Node
    dst: Node
    count: int
    first_index: int
    last_index: int
    t0: float
    t1: float
    tag: int = -1

    def merge_with(self, other: "Arc") -> None:
        """Absorb ``other`` (same endpoints/kind) into this arc."""
        self.count += other.count
        self.first_index = min(self.first_index, other.first_index)
        self.last_index = max(self.last_index, other.last_index)
        self.t0 = min(self.t0, other.t0)
        self.t1 = max(self.t1, other.t1)


#: Edge identity: (kind, src, dst).  Parallel arcs of one edge live in a
#: single list shared by both endpoint nodes, so dissemination merges
#: are applied exactly once however many nodes observe them.
EdgeKey = tuple  # (ArcKind, Node, Node)


class TraceGraph:
    """Function + channel nodes, call + message arcs, with dissemination.

    Parameters
    ----------
    nprocs:
        Communicator size.
    arc_limit:
        Max arcs incident to any node before dissemination merges every
        other arc with its predecessor (None disables merging).
    """

    def __init__(self, nprocs: int, arc_limit: Optional[int] = 64) -> None:
        if arc_limit is not None and arc_limit < 2:
            raise ValueError(f"arc_limit must be >= 2, got {arc_limit}")
        self.nprocs = nprocs
        self.arc_limit = arc_limit
        #: edge key -> parallel arc list (the canonical arc storage)
        self._edges: dict[EdgeKey, list[Arc]] = {}
        #: node -> edge keys incident to it
        self._node_edges: dict[Node, set[EdgeKey]] = {}
        #: per-node dissemination merge counts
        self._merge_counts: dict[Node, int] = {}
        self._call_stacks: list[list[FunctionNode]] = [
            [FunctionNode(p, ROOT_FUNCTION)] for p in range(nprocs)
        ]
        for p in range(nprocs):
            self._touch(FunctionNode(p, ROOT_FUNCTION))
        #: total original events folded into the graph
        self.events_consumed = 0

    # ------------------------------------------------------------------
    # incremental construction ("built as the execution is running")
    # ------------------------------------------------------------------
    def add_record(self, rec: TraceRecord) -> None:
        """Fold one trace record into the graph."""
        if rec.kind is EventKind.FUNC_ENTRY:
            callee = FunctionNode(rec.proc, rec.location.function)
            caller = self._current_function(rec.proc)
            self._add_arc(Arc(
                ArcKind.CALL, caller, callee, 1,
                rec.index, rec.index, rec.t0, rec.t1,
            ))
            self._call_stacks[rec.proc].append(callee)
            self.events_consumed += 1
        elif rec.kind is EventKind.FUNC_EXIT:
            stack = self._call_stacks[rec.proc]
            if len(stack) > 1:
                stack.pop()
            self.events_consumed += 1
        elif rec.is_send:
            fn = self._current_function(rec.proc)
            ch = ChannelNode.between(rec.src, rec.dst)
            self._add_arc(Arc(
                ArcKind.SEND, fn, ch, 1,
                rec.index, rec.index, rec.t0, rec.t1, tag=rec.tag,
            ))
            self.events_consumed += 1
        elif rec.is_recv:
            fn = self._current_function(rec.proc)
            ch = ChannelNode.between(rec.src, rec.dst)
            self._add_arc(Arc(
                ArcKind.RECV, ch, fn, 1,
                rec.index, rec.index, rec.t0, rec.t1, tag=rec.tag,
            ))
            self.events_consumed += 1
        # other kinds (compute, collectives wrappers, lifecycle) do not
        # change the graph topology

    def add_columns(self, block: "ColumnBlock") -> int:
        """Fold one decoded columnar block into the graph.

        The kind column is pre-filtered with a numpy mask so only
        topology-relevant records (function entries/exits, sends,
        receives) are materialized at all -- on typical traces that
        skips the compute/lifecycle majority without touching Python.
        Returns how many records were folded in.
        """
        if not len(block):
            return 0
        codes = [
            code
            for code, kind in enumerate(block.kind_table)
            if kind in _TOPOLOGY_KINDS
        ]
        mask = np.isin(block.columns["kind"], codes)
        if not mask.any():
            return 0
        relevant = block if mask.all() else block.filter(mask)
        for rec in relevant.to_records():
            self.add_record(rec)
        return len(relevant)

    def _current_function(self, proc: int) -> FunctionNode:
        return self._call_stacks[proc][-1]

    def _touch(self, node: Node) -> set:
        edges = self._node_edges.get(node)
        if edges is None:
            edges = self._node_edges[node] = set()
        return edges

    def _add_arc(self, arc: Arc) -> None:
        key = (arc.kind, arc.src, arc.dst)
        arcs = self._edges.get(key)
        if arcs is None:
            arcs = self._edges[key] = []
        arcs.append(arc)
        endpoints = (arc.src,) if arc.src == arc.dst else (arc.src, arc.dst)
        for node in endpoints:
            self._touch(node).add(key)
        for node in endpoints:
            if (
                self.arc_limit is not None
                and self.incident_count(node) > self.arc_limit
            ):
                self._disseminate(node)

    def _disseminate(self, node: Node) -> None:
        """Merge every other arc with the previous one (paper §4.3).

        Applied per edge (parallel-arc list), so merging is exact: only
        arcs with identical (kind, src, dst) combine, and each merge is
        performed once even though both endpoints share the list.
        """
        for key in self._node_edges[node]:
            arcs = self._edges[key]
            if len(arcs) < 2:
                continue
            merged: list[Arc] = []
            for i in range(0, len(arcs) - 1, 2):
                arcs[i].merge_with(arcs[i + 1])
                merged.append(arcs[i])
                self._merge_counts[node] = self._merge_counts.get(node, 0) + 1
            if len(arcs) % 2:
                merged.append(arcs[-1])
            self._edges[key] = merged

    def sink(self) -> "TraceSink":
        """A bus sink feeding this graph -- attach it to a recorder
        (``recorder.subscribe(graph.sink())``) and the graph tracks the
        execution live, no materialized :class:`Trace` required."""
        from repro.trace.sinks import GraphSink

        return GraphSink(graph=self)

    # ------------------------------------------------------------------
    # whole-trace construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls, trace: Trace, arc_limit: Optional[int] = 64
    ) -> "TraceGraph":
        graph = cls(trace.nprocs, arc_limit)
        for rec in trace:
            graph.add_record(rec)
        return graph

    @classmethod
    def from_records(
        cls,
        records: Iterable[TraceRecord],
        nprocs: int,
        arc_limit: Optional[int] = 64,
    ) -> "TraceGraph":
        """Build from any record iterator (a file reader's stream, a
        sink's history) without materializing a :class:`Trace`."""
        graph = cls(nprocs, arc_limit)
        for rec in records:
            graph.add_record(rec)
        return graph

    @classmethod
    def from_columns(
        cls,
        block: "ColumnBlock",
        nprocs: int,
        arc_limit: Optional[int] = 64,
    ) -> "TraceGraph":
        """Build from a decoded columnar block (the
        :meth:`TraceFileReader.read_columns` feed)."""
        graph = cls(nprocs, arc_limit)
        graph.add_columns(block)
        return graph

    @classmethod
    def from_file(
        cls, reader: "TraceFileReader", arc_limit: Optional[int] = 64
    ) -> "TraceGraph":
        """Build from a trace file through the bulk columnar path: v3
        files decode column-wise and irrelevant kinds are masked out
        before any record object exists; v1/v2 lines are parsed into
        blocks on the way."""
        return cls.from_columns(reader.read_columns(), reader.nprocs, arc_limit)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        return list(self._node_edges)

    def function_nodes(self, proc: Optional[int] = None) -> list[FunctionNode]:
        return [
            n
            for n in self._node_edges
            if isinstance(n, FunctionNode) and (proc is None or n.proc == proc)
        ]

    def channel_nodes(self) -> list[ChannelNode]:
        return [n for n in self._node_edges if isinstance(n, ChannelNode)]

    def arcs(self, node: Optional[Node] = None) -> list[Arc]:
        """All arcs, or those incident to ``node``."""
        if node is not None:
            out: list[Arc] = []
            for key in self._node_edges[node]:
                out.extend(self._edges[key])
            return out
        all_arcs: list[Arc] = []
        for arcs in self._edges.values():
            all_arcs.extend(arcs)
        return all_arcs

    def out_arcs(self, node: Node) -> list[Arc]:
        return [a for a in self.arcs(node) if a.src == node]

    def in_arcs(self, node: Node) -> list[Arc]:
        return [a for a in self.arcs(node) if a.dst == node]

    def incident_count(self, node: Node) -> int:
        return sum(len(self._edges[key]) for key in self._node_edges.get(node, ()))

    def total_merges(self) -> int:
        return sum(self._merge_counts.values())

    # ------------------------------------------------------------------
    # zoom reconstruction (§4.3)
    # ------------------------------------------------------------------
    def reconstruct_arc(self, arc: Arc, trace) -> list[TraceRecord]:
        """Recover the original events a merged arc stands for by
        rescanning the covered portion of the trace.

        ``trace`` may be an in-memory :class:`Trace`, a
        :class:`~repro.analysis.history.HistoryIndex` (both answer
        ``window``), or an (indexed) ``TraceFileReader`` -- with the
        latter, only the blocks covering the arc's time window are
        read ("rescanning the appropriate portion of the trace file",
        §4.3).
        """
        if hasattr(trace, "seek_window"):
            window = trace.seek_window(arc.t0, arc.t1)
        else:
            window = trace.window(arc.t0, arc.t1)
        out = []
        for rec in window:
            if arc.first_index <= rec.index <= arc.last_index:
                if arc.kind is ArcKind.CALL and rec.kind is EventKind.FUNC_ENTRY:
                    if rec.proc == getattr(arc.dst, "proc", -1) and rec.location.function == getattr(arc.dst, "function", ""):
                        out.append(rec)
                elif arc.kind is ArcKind.SEND and rec.is_send:
                    if ChannelNode.between(rec.src, rec.dst) == arc.dst:
                        out.append(rec)
                elif arc.kind is ArcKind.RECV and rec.is_recv:
                    if ChannelNode.between(rec.src, rec.dst) == arc.src:
                        out.append(rec)
        return out

    # ------------------------------------------------------------------
    def node_count_bound(self, n_functions: int) -> int:
        """The paper's bound: #functions * #procs + #procs^2."""
        return n_functions * self.nprocs + self.nprocs * self.nprocs


def projection(graph: TraceGraph, proc: int) -> list[Arc]:
    """Project the trace graph onto one process (§3.2): keep only call
    arcs between that process's function nodes.  (This is the dynamic
    call graph; :mod:`repro.graphs.callgraph` offers the richer API.)"""
    out = []
    for arc in graph.arcs():
        if (
            arc.kind is ArcKind.CALL
            and isinstance(arc.src, FunctionNode)
            and isinstance(arc.dst, FunctionNode)
            and arc.src.proc == proc
            and arc.dst.proc == proc
        ):
            out.append(arc)
    return out


def iter_channel_traffic(graph: TraceGraph) -> Iterable[tuple[ChannelNode, int, int]]:
    """(channel, send-arc event count, recv-arc event count) per channel."""
    for ch in graph.channel_nodes():
        sends = sum(a.count for a in graph.in_arcs(ch) if a.kind is ArcKind.SEND)
        recvs = sum(a.count for a in graph.out_arcs(ch) if a.kind is ArcKind.RECV)
        yield ch, sends, recvs
