"""Trace-driven debugging of message passing programs.

A from-scratch Python reproduction of Frumkin, Hood & Lopez,
"Trace-Driven Debugging of Message Passing Programs" (IPPS 1998): the
p2d2 debugger's replay / stopline / undo machinery, its three trace
instrumentation methods, the trace / call / communication graph
abstractions, frontier-based causality analysis, and text/SVG analogues
of the NTV and VK trace visualizers -- all running on a deterministic
simulated message-passing substrate (:mod:`repro.mp`).

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.mp` -- the simulated MPI-like runtime (the substrate);
* :mod:`repro.instrument` -- AIMS-style source transform, uinst
  function-entry hooks, PMPI wrapper library, UserMonitor;
* :mod:`repro.trace` -- trace records, markers, trace files, recorder;
* :mod:`repro.graphs` -- trace / call / communication / action graphs;
* :mod:`repro.analysis` -- causality, frontiers, matching anomalies,
  deadlock and race detection;
* :mod:`repro.debugger` -- the p2d2 analog: sessions, breakpoints,
  stoplines, controlled replay, parallel undo;
* :mod:`repro.explore` -- schedule-space exploration: race-driven
  steer + replay fuzzing with clean/divergent/deadlock/crash verdicts;
* :mod:`repro.viz` -- time-space diagrams (ASCII/SVG) and animation;
* :mod:`repro.apps` -- the paper's workloads (Strassen, Fibonacci, LU).

Quickstart::

    from repro import mp
    from repro.debugger import DebugSession

    def hello(comm):
        if comm.rank == 0:
            comm.send("hi", dest=1)
        elif comm.rank == 1:
            return comm.recv(source=0)

    session = DebugSession(hello, nprocs=2)
    session.run()
    print(session.trace().message_pairs())

See README.md for the guided tour and ``examples/`` for complete
scenarios, including the paper's worked Figure 5-7 debugging session.
"""

from . import analysis, apps, debugger, explore, graphs, instrument, mp, trace, viz

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "debugger",
    "explore",
    "graphs",
    "instrument",
    "mp",
    "trace",
    "viz",
    "__version__",
]
