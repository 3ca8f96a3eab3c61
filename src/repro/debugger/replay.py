"""Controlled replay (paper §4.1-§4.2).

    "When the user requests a re-execution, the debugger restarts the
    computation, and as part of that, stores the execution markers in
    the UserMonitor threshold variables ...  When the routine generates
    an execution marker equal to the threshold value, it triggers a
    debugger-set breakpoint."

A replay is a *fresh execution* of the same program (the paper: "our
current implementation of replay and undo is done in straightforward
manner by re-executing until an execution marker threshold is
encountered") with two controls applied:

* the previous run's :class:`~repro.mp.record.CommLog` forces every
  wildcard receive and ``waitany`` to its recorded outcome (§4.2
  nondeterminism control), making the re-execution event-equivalent;
* a :class:`~repro.trace.markers.MarkerVector` of thresholds parks each
  process at the stopline.

:class:`ReplaySpec` captures everything needed to rebuild the execution
(program, nprocs, policy, seed, cost model, instrumentation choices);
:func:`execute_replay` performs one controlled re-execution and returns
the new runtime + instrumentation, leaving the caller (the debug
session) in charge from the stop onward.  A replay records its whole
re-execution, so the trace after a replay or an undo is the full
history up to the stop, never a suffix of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.instrument.uinst import Uinst
from repro.instrument.wrappers import WrapperLibrary, lifecycle_wrapper
from repro.mp.clock import CostModel
from repro.mp.record import CommLog
from repro.mp.runtime import ProgramSpec, Runtime
from repro.mp.scheduler import RunReport
from repro.trace.markers import MarkerVector
from repro.trace.recorder import TraceRecorder


@dataclass
class ReplaySpec:
    """Everything needed to re-create an execution deterministically."""

    program: ProgramSpec
    nprocs: int
    policy: str = "run_to_block"
    seed: int = 0
    #: execution backend name; must be cooperative, since replay drives
    #: the debugger surface
    backend: str = "simtime"
    cost_model: Optional[CostModel] = None
    #: functions / modules to instrument with uinst (function entries)
    uinst_functions: Sequence[Callable] = ()
    uinst_modules: Sequence[Any] = ()
    lifecycle_records: bool = True


@dataclass
class ReplayExecution:
    """A live (re-)execution: the runtime plus its instrumentation."""

    runtime: Runtime
    recorder: TraceRecorder
    wrapper_lib: WrapperLibrary
    uinst: Optional[Uinst] = None
    report: Optional[RunReport] = None


def build_execution(
    spec: ReplaySpec, replay_log: Optional[CommLog] = None
) -> ReplayExecution:
    """Construct and launch (but do not run) an execution of ``spec``."""
    runtime = Runtime(
        spec.nprocs,
        backend=spec.backend,
        policy=spec.policy,
        seed=spec.seed,
        cost_model=spec.cost_model,
        replay_log=replay_log,
    )
    recorder = TraceRecorder(spec.nprocs)
    wrapper_lib = WrapperLibrary(runtime, recorder)
    wrappers = []
    uinst = None
    if spec.uinst_functions or spec.uinst_modules:
        uinst = Uinst(runtime, recorder)
        for fn in spec.uinst_functions:
            uinst.register_function(fn)
        for mod in spec.uinst_modules:
            uinst.register_module(mod)
        wrappers.append(uinst.target_wrapper())
    if spec.lifecycle_records:
        wrappers.append(lifecycle_wrapper(recorder))
    runtime.launch(spec.program, target_wrappers=wrappers)
    return ReplayExecution(
        runtime=runtime, recorder=recorder, wrapper_lib=wrapper_lib, uinst=uinst
    )


def execute_replay(
    spec: ReplaySpec,
    replay_log: CommLog,
    thresholds: MarkerVector,
    on_build: Optional[Callable[[ReplayExecution], None]] = None,
) -> ReplayExecution:
    """One controlled replay: rebuild, program thresholds, run to stop.

    ``on_build`` is invoked after the execution is constructed but
    before it runs -- the hook the debug session uses to re-attach
    streaming sinks to the fresh recorder, so subscribers observe the
    re-execution's records as they are produced.

    Returns the execution with ``report`` filled; the caller owns
    shutdown.  Processes without a threshold run until they exit or
    block (they were past their last marker at the stopline).
    """
    execution = build_execution(spec, replay_log)
    if on_build is not None:
        on_build(execution)
    execution.runtime.set_thresholds(thresholds.as_dict())
    execution.report = execution.runtime.run_until_idle()
    return execution


def replay_matches_markers(
    execution: ReplayExecution, thresholds: MarkerVector
) -> bool:
    """Did every thresholded process stop exactly at its marker?

    Processes that exited or blocked before reaching the threshold
    return False -- the stopline lay beyond reachable history (e.g. a
    threshold past a deadlock).  A threshold naming a rank outside the
    execution is a caller error, reported as such.
    """
    procs = execution.runtime.procs
    check_threshold_ranks(thresholds, len(procs))
    return all(procs[rank].marker == thresholds[rank] for rank in thresholds)


def check_threshold_ranks(thresholds: MarkerVector, nprocs: int) -> None:
    """Raise ``ValueError`` unless every threshold names a rank in
    ``0..nprocs-1``.  (Counters need no check: a :class:`MarkerVector`
    refuses negative ones when it is built.)"""
    for rank in thresholds:
        if not 0 <= rank < nprocs:
            raise ValueError(
                f"marker threshold names rank {rank}, but the execution "
                f"has {nprocs} rank(s) (valid: 0..{nprocs - 1})"
            )
