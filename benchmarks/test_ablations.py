"""Ablations of the paper's design knobs (DESIGN.md §6).

Not tables in the paper, but trade-offs it discusses explicitly:

* the dissemination arc limit (§4.3: "this technique allows us to
  control the size of the history at the cost of some resolution");
* instrumentation granularity (§2: the three methods "vary in ...
  the history event resolution"; §3: trace size is controlled "by
  selectively instrumenting constructs").
"""

from __future__ import annotations

from repro import mp
from repro.apps import fibonacci as fibmod
from repro.apps import strassen as st
from repro.graphs import ArcKind, TraceGraph
from repro.instrument import (
    AimsMonitor,
    Uinst,
    WrapperLibrary,
    instrument_app_function,
    lifecycle_wrapper,
)
from repro.trace import TraceRecorder

from .conftest import traced_run, write_artifact


# ----------------------------------------------------------------------
# 1. dissemination limit vs graph size & zoom resolution
# ----------------------------------------------------------------------
def test_ablation_dissemination_limit(benchmark):
    _, trace = traced_run(fibmod.fib_program(12), 1, functions=[fibmod.fib])
    limits = [None, 64, 16, 4]

    def build_all():
        return {lim: TraceGraph.from_trace(trace, arc_limit=lim) for lim in limits}

    graphs = benchmark(build_all)

    def call_arcs(g):
        return [a for a in g.arcs() if a.kind is ArcKind.CALL]

    baseline_events = sum(a.count for a in call_arcs(graphs[None]))
    rows = ["limit   arcs   merges   events   max_arc_span"]
    stats = {}
    for lim in limits:
        g = graphs[lim]
        arcs = call_arcs(g)
        events = sum(a.count for a in arcs)
        span = max((a.last_index - a.first_index for a in arcs), default=0)
        stats[lim] = (len(arcs), g.total_merges(), events, span)
        rows.append(
            f"{str(lim):>5}  {len(arcs):5d}  {g.total_merges():6d}  "
            f"{events:6d}  {span:6d}"
        )
    write_artifact("ablation_dissemination.txt", "\n".join(rows))

    # Conservation at every limit; arc count monotone in the limit;
    # resolution (trace span per arc) degrades as the limit shrinks.
    for lim in limits:
        assert stats[lim][2] == baseline_events
    assert stats[4][0] <= stats[16][0] <= stats[64][0] <= stats[None][0]
    assert stats[4][0] < stats[None][0]  # merging actually happened
    assert stats[4][3] >= stats[None][3]  # coarser arcs cover more trace

    # Zoom reconstruction recovers the originals from the coarsest graph.
    g4 = graphs[4]
    merged = max(call_arcs(g4), key=lambda a: a.count)
    originals = g4.reconstruct_arc(merged, trace)
    assert len(originals) >= merged.count


# ----------------------------------------------------------------------
# 2. marker granularity vs trace size
# ----------------------------------------------------------------------
LOOPY_SRC_FN = None  # instrumented lazily below


def _loopy(n):
    total = 0
    for i in range(n):
        total += i * i
    for i in range(n):
        total -= i
    return total


def test_ablation_instrumentation_granularity(benchmark):
    cfg = st.StrassenConfig(n=8, nprocs=4)
    program = st.strassen_program(cfg)

    def run_with(level: str) -> int:
        rt = mp.Runtime(4)
        recorder = TraceRecorder(4)
        WrapperLibrary(rt, recorder)
        wrappers = [lifecycle_wrapper(recorder)]
        if level in ("functions", "loops"):
            uinst = Uinst(rt, recorder)
            uinst.register_module(st)
            wrappers.insert(0, uinst.target_wrapper())
        loopy = _loopy
        if level == "loops":
            monitor = AimsMonitor(rt, recorder)
            loopy = instrument_app_function(
                _loopy, monitor, constructs=("function", "loop")
            )

        def prog(comm):
            out = program(comm)
            loopy(10)  # a loop-bearing local phase every rank runs
            return out

        rt.run(prog, target_wrappers=wrappers)
        rt.shutdown()
        return len(recorder.snapshot())

    sizes = {level: run_with(level) for level in ("comm", "functions", "loops")}
    benchmark(lambda: run_with("comm"))

    write_artifact(
        "ablation_granularity.txt",
        "instrumentation level -> trace records (same program)\n"
        + "\n".join(
            f"  {level:10s} {n:6d}"
            for level, n in sizes.items()
        )
        + "\n(§2's resolution spectrum: wrappers < +function entries < +loops)",
    )

    # The paper's resolution/size trade-off, monotone across methods.
    assert sizes["comm"] < sizes["functions"] < sizes["loops"]
