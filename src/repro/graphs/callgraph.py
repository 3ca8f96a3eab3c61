"""Dynamic call graphs (paper Figure 9 and §3.2/§4.3).

The projection of the trace graph onto one process is that process's
dynamic call graph [Graham-Kessler-McKusick].  Figure 9 displays it with
*multiple parallel arcs* for repeated calls -- "Multiple arcs show
multiple function calls.  The number of calls per arc is adjustable" --
which is exactly the dissemination trade-off: an arc of weight k stands
for k calls.

This module builds call graphs directly from FUNC_ENTRY/FUNC_EXIT trace
records (entry/exit pairing by a per-process stack) and renders them
through :mod:`repro.graphs.export` in VCG format, as the paper did with
xvcg.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.trace.events import EventKind
from repro.trace.trace import Trace

from .tracegraph import ROOT_FUNCTION


@dataclass
class CallEdge:
    """caller -> callee with dynamic call statistics."""

    caller: str
    callee: str
    calls: int = 0
    #: total virtual time spent inside callee for these calls (inclusive)
    inclusive_time: float = 0.0
    #: trace indexes of the first and last call ("each arc has an image
    #: in the execution trace")
    first_index: int = -1
    last_index: int = -1

    def arcs_displayed(self, calls_per_arc: int) -> int:
        """How many parallel arcs Figure 9-style rendering draws."""
        if calls_per_arc < 1:
            raise ValueError("calls_per_arc must be >= 1")
        return max(1, -(-self.calls // calls_per_arc))


@dataclass
class CallGraph:
    """The dynamic call graph of one process (or a merged view)."""

    proc: Optional[int]
    edges: dict[tuple[str, str], CallEdge] = field(default_factory=dict)
    #: per-function entry counts
    counts: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _edge(self, caller: str, callee: str) -> CallEdge:
        key = (caller, callee)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = CallEdge(caller, callee)
        return edge

    def functions(self) -> list[str]:
        names = set(self.counts)
        for caller, callee in self.edges:
            names.add(caller)
            names.add(callee)
        return sorted(names)

    def total_calls(self) -> int:
        return sum(e.calls for e in self.edges.values())

    # ------------------------------------------------------------------
    def as_text(self, calls_per_arc: int = 1) -> str:
        """Text rendering ("the user can display them either in text or
        in graphical form")."""
        lines = [f"dynamic call graph (proc={'all' if self.proc is None else self.proc})"]
        for edge in sorted(self.edges.values(), key=lambda e: (e.caller, e.callee)):
            arcs = edge.arcs_displayed(calls_per_arc)
            lines.append(
                f"  {edge.caller} -> {edge.callee}"
                f"  calls={edge.calls}  arcs={arcs}"
                f"  t={edge.inclusive_time:.2f}"
            )
        return "\n".join(lines)


def build_call_graph(trace: Trace, proc: Optional[int] = None) -> CallGraph:
    """Build from FUNC_ENTRY/FUNC_EXIT records.

    ``proc=None`` merges all processes into one graph (useful for SPMD
    programs where all ranks share code).
    """
    graph = CallGraph(proc)
    procs = range(trace.nprocs) if proc is None else [proc]
    for p in procs:
        # stack entries: (function name, entry time, entry index)
        stack: list[tuple[str, float, int]] = [(ROOT_FUNCTION, 0.0, -1)]
        graph.counts.setdefault(ROOT_FUNCTION, 0)
        for rec in trace.by_proc(p):
            if rec.kind is EventKind.FUNC_ENTRY:
                fn = rec.location.function
                caller = stack[-1][0]
                edge = graph._edge(caller, fn)
                edge.calls += 1
                if edge.first_index < 0:
                    edge.first_index = rec.index
                edge.last_index = rec.index
                graph.counts[fn] = graph.counts.get(fn, 0) + 1
                stack.append((fn, rec.t0, rec.index))
            elif rec.kind is EventKind.FUNC_EXIT:
                if len(stack) > 1 and stack[-1][0] == rec.location.function:
                    fn, t_in, _ = stack.pop()
                    caller = stack[-1][0]
                    graph._edge(caller, fn).inclusive_time += rec.t1 - t_in
    return graph
