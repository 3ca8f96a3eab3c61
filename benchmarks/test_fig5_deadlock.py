"""Figure 5: "Process 0 (at the bottom) and process 7 (at the top) are
blocked in receives waiting for data from each other."

The benchmark runs the buggy Strassen (wrong destination in matr_send),
confirms the run deadlocks with exactly the 0 <-> 7 receive cycle, and
regenerates the time-space view in which both hang in long receive bars.
"""

from __future__ import annotations

from repro import mp
from repro.analysis import analyze_deadlock
from repro.apps import strassen as st
from repro.trace import TraceRecorder
from repro.instrument import WrapperLibrary
from repro.viz import build_diagram, render_ascii

from .conftest import write_artifact


def run_buggy():
    cfg = st.StrassenConfig(n=16, nprocs=8, buggy=True)
    rt = mp.Runtime(8)
    recorder = TraceRecorder(8)
    WrapperLibrary(rt, recorder)
    report = rt.run(st.strassen_program(cfg), raise_errors=False)
    trace = recorder.snapshot()
    waiting = list(report.waiting)
    outcome = report.outcome
    rt.shutdown()
    return outcome, trace, waiting


def test_fig5_deadlock(benchmark):
    outcome, trace, waiting = benchmark(run_buggy)

    analysis = analyze_deadlock(waiting, nprocs=8, trace=trace)
    diagram = build_diagram(trace)
    view = render_ascii(diagram, columns=100)
    write_artifact(
        "fig5_deadlock.txt", view + "\n\n" + analysis.as_text()
    )
    from repro.viz import render_svg

    write_artifact("fig5_deadlock.svg", render_svg(diagram))

    # --- the figure's claim -------------------------------------------------
    assert outcome is mp.RunOutcome.DEADLOCK
    blocked_ranks = sorted(w.rank for w in waiting)
    assert blocked_ranks == [0, 7], "exactly 0 and 7 fail to make progress"
    peers = {w.rank: w.peer for w in waiting}
    assert peers == {0: 7, 7: 0}, "waiting for data from each other"
    assert all(w.kind is mp.WaitKind.RECV for w in waiting), "blocked in receives"
    assert analysis.cycles == [[0, 7]]

    # Workers 1-6 finished their (mismatched) work: the hang is isolated
    # to the 0/7 pair, as the figure shows -- they each completed a
    # result send and are not in the blocked set.
    blocked_set = {w.rank for w in waiting}
    assert blocked_set.isdisjoint(range(1, 7))
    send_counts = trace.send_counts()
    assert all(send_counts[w] == 1 for w in range(1, 7))  # result sent
    assert send_counts[7] == 0  # worker 7 never got that far
