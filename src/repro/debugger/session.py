"""The debug session -- the p2d2 analog.

One :class:`DebugSession` owns everything the paper's Figure 1 wires
together: the target execution (our simulated runtime), the
instrumentation producing trace data, the UserMonitor threshold surface,
location breakpoints, stopline computation, and the replay / undo
engines.  It is programmable rather than graphical: every p2d2 button is
a method, so the worked Figure 5-7 debugging session is a script (see
``examples/debug_deadlock.py``).

Replay discipline: the session's *generation* counts re-executions.
Every replay rebuilds the runtime from the :class:`ReplaySpec`, forces
recorded nondeterminism from the accumulated master communication log,
installs thresholds, and runs to the stop, recording the whole
re-execution.  Location breakpoints are re-registered across
generations.  Marker vectors at every stop are recorded: they are the
undo targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.analysis.deadlock import DeadlockReport, analyze_deadlock
from repro.analysis.history import HistoryIndex
from repro.analysis.matching import MatchingReport, analyze_matching
from repro.mp.clock import CostModel
from repro.mp.process import ProcState
from repro.mp.record import CommLog
from repro.mp.runtime import ProgramSpec
from repro.mp.scheduler import RunOutcome, RunReport
from repro.trace.markers import MarkerVector
from repro.trace.sinks import CallbackSink, TraceSink
from repro.trace.trace import Trace

from .breakpoints import Breakpoint, BreakpointManager
from .replay import (
    ReplayExecution,
    ReplaySpec,
    build_execution,
    check_threshold_ranks,
    execute_replay,
)
from .stopline import Stopline, StoplinePlacement, compute_stopline


@dataclass
class StopSummary:
    """What the debugger shows when control returns to the user."""

    generation: int
    outcome: RunOutcome
    states: dict[int, str]
    markers: dict[int, int]
    reasons: dict[int, Optional[str]]

    def describe(self) -> str:
        lines = [f"[gen {self.generation}] {self.outcome.value}"]
        for rank in sorted(self.states):
            reason = f" ({self.reasons[rank]})" if self.reasons.get(rank) else ""
            lines.append(
                f"  p{rank}: {self.states[rank]}"
                f" marker={self.markers[rank]}{reason}"
            )
        return "\n".join(lines)


class DebugSession:
    """A trace-driven debugging session over one program.

    Parameters mirror :class:`~repro.debugger.replay.ReplaySpec`; the
    wrapper instrumentation library is always installed (it provides the
    communication history and markers), uinst function-entry
    instrumentation is optional.
    """

    def __init__(
        self,
        program: ProgramSpec,
        nprocs: int,
        *,
        policy: str = "run_to_block",
        seed: int = 0,
        backend: str = "simtime",
        cost_model: Optional[CostModel] = None,
        uinst_functions: Sequence[Callable] = (),
        uinst_modules: Sequence[Any] = (),
    ) -> None:
        self.spec = ReplaySpec(
            program=program,
            nprocs=nprocs,
            policy=policy,
            seed=seed,
            backend=backend,
            cost_model=cost_model,
            uinst_functions=tuple(uinst_functions),
            uinst_modules=tuple(uinst_modules),
        )
        #: master nondeterminism log accumulated across generations
        self.master_log = CommLog()
        #: marker vectors recorded at each stop, oldest first (undo targets)
        self.stop_history: list[MarkerVector] = []
        self.generation = 0
        self.current_stopline: Optional[Stopline] = None
        self._saved_breakpoints: list[Breakpoint] = []
        #: sinks the user subscribed to the live trace stream; they are
        #: re-attached to every replay generation's fresh recorder
        self._streaming_sinks: list[TraceSink] = []
        self._execution: ReplayExecution = build_execution(self.spec)
        self.breakpoints = BreakpointManager(self.runtime)
        self._last_report: Optional[RunReport] = None
        #: this generation's shared analysis substrate (lazily attached
        #: to the live stream; invalidated and rebuilt across replays)
        self._index: Optional[HistoryIndex] = None
        #: an out-of-core paged index over an on-disk trace, when the
        #: user is debugging against a recorded file (``stats`` folds
        #: its cache counters into the report)
        self.paged_index = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def runtime(self):
        return self._execution.runtime

    @property
    def nprocs(self) -> int:
        return self.spec.nprocs

    def trace(self) -> Trace:
        """A consistent snapshot of the history collected so far."""
        return self._execution.recorder.snapshot()

    def index(self) -> HistoryIndex:
        """The shared analysis substrate for the current generation.

        Built on first demand: an :class:`~repro.analysis.history.IndexSink`
        is attached to the live trace stream (with backfill), so the
        index tracks the execution incrementally from then on.  All
        session analyses (stoplines, matching/deadlock reports, the
        ``stats`` command) consume this one index; vector clocks and
        matching are derived exactly once per generation.  After
        :meth:`replay`/:meth:`undo` the old index is invalidated and a
        fresh one is bound to the new execution on next demand.
        """
        if self._index is None or self._index.stale:
            self._index = HistoryIndex(
                nprocs=self.nprocs, generation=self.generation
            )
            self._execution.recorder.subscribe(self._index.sink(), backfill=True)
        # refresh the §4.4 blocked-wait snapshot for missed-message and
        # deadlock diagnoses
        self._index.set_blocked(self.runtime.blocked_waits())
        return self._index

    def attach_paged_index(self, paged) -> None:
        """Bind an :class:`~repro.analysis.paged.OutOfCoreIndex` so the
        ``stats`` command reports its block loads and cache hits."""
        self.paged_index = paged

    @property
    def recorder(self):
        """The current generation's trace recorder (its ``bus`` is the
        live event stream)."""
        return self._execution.recorder

    # ------------------------------------------------------------------
    # live trace stream (the streaming pipeline surface)
    # ------------------------------------------------------------------
    def subscribe(self, sink: TraceSink, backfill: bool = True) -> TraceSink:
        """Attach a sink to the live trace stream.

        The sink observes every record the instrumentation publishes
        from now on (``backfill`` first replays this generation's
        retained history so the prefix is complete).  Across
        :meth:`replay`/:meth:`undo` the subscription survives: the sink
        is re-attached to the new generation's recorder and sees the
        re-execution's records as they are produced.
        """
        self._streaming_sinks.append(sink)
        return self._execution.recorder.subscribe(sink, backfill=backfill)

    def unsubscribe(self, sink: TraceSink) -> None:
        self._streaming_sinks.remove(sink)
        self._execution.recorder.unsubscribe(sink)

    def add_trace_callback(self, fn, backfill: bool = True) -> CallbackSink:
        """Shorthand: subscribe a per-record analysis callback."""
        sink = CallbackSink(fn)
        self.subscribe(sink, backfill=backfill)
        return sink

    def live_graph(self, arc_limit: Optional[int] = 64):
        """A trace graph built incrementally from the live stream (§3.2
        "built as the execution is running").  The returned graph tracks
        this generation's history only; call again after a replay for a
        fresh one."""
        from repro.graphs.tracegraph import TraceGraph

        graph = TraceGraph(self.nprocs, arc_limit)
        self._execution.recorder.subscribe(graph.sink(), backfill=True)
        return graph

    def markers(self) -> MarkerVector:
        return MarkerVector(self.runtime.markers())

    def states(self) -> dict[int, ProcState]:
        return self.runtime.states()

    def results(self) -> list[Any]:
        return self.runtime.results()

    @property
    def finished(self) -> bool:
        return all(p.terminated for p in self.runtime.procs)

    # ------------------------------------------------------------------
    # execution control (the conventional debugger surface)
    # ------------------------------------------------------------------
    def _absorb_run(self, report: RunReport) -> StopSummary:
        self._last_report = report
        # Fold this generation's matching decisions into the master log
        # (matches made during replay equal the forced ones; matches
        # beyond the old history extend it).
        merged = dict(self.master_log.recv_matches)
        merged.update(self.runtime.comm_log.recv_matches)
        self.master_log.recv_matches = merged
        wa = dict(self.master_log.waitany_choices)
        wa.update(self.runtime.comm_log.waitany_choices)
        self.master_log.waitany_choices = wa
        # Record the stop vector (the undo target).
        self.stop_history.append(self.markers())
        return self._summary(report)

    def _summary(self, report: RunReport) -> StopSummary:
        return StopSummary(
            generation=self.generation,
            outcome=report.outcome,
            states={p.rank: p.state.value for p in self.runtime.procs},
            markers=self.runtime.markers(),
            reasons={
                p.rank: (p.stop.reason.value if p.stop.reason else None)
                for p in self.runtime.procs
            },
        )

    def run(self) -> StopSummary:
        """Run until the program finishes, stops, or deadlocks."""
        return self._absorb_run(self.runtime.run_until_idle())

    def cont(self, ranks: Optional[Sequence[int]] = None) -> StopSummary:
        """Resume stopped processes (all, or a subset) and run on."""
        return self._absorb_run(self.runtime.resume(ranks))

    def step(self, rank: int) -> StopSummary:
        """Advance one process to its next instrumentation point.

        This is the marker-granular "step" that, after a stopline
        replay, walks the user to the faulty construct (Figure 7: "a few
        step operations would lead the user to the loop of MatrSend").
        """
        return self._absorb_run(self.runtime.step(rank))

    def interrupt(self) -> StopSummary:
        """Stop everything at the next instrumentation points."""
        self.runtime.interrupt_all()
        summary = self._absorb_run(self.runtime.run_until_idle())
        self.runtime.clear_interrupts()
        return summary

    def set_threshold(self, rank: int, marker: Optional[int]) -> None:
        self.runtime.set_threshold(rank, marker)

    def clear_thresholds(self) -> None:
        for p in self.runtime.procs:
            p.set_threshold(None)

    def stack(self, rank: int, max_frames: int = 25) -> list[str]:
        """The user-level Python stack of a parked or blocked process.

        p2d2's conventional surface includes stack inspection; in the
        simulator a stopped process's worker thread is parked inside the
        scheduler, so its user frames are live and can be read with
        ``sys._current_frames``.  Runtime-internal frames are filtered
        out; frames are returned outermost first.
        """
        import sys

        from repro.mp.locutil import is_infrastructure_file

        proc = self.runtime.procs[rank]
        if proc.state not in (ProcState.STOPPED, ProcState.BLOCKED):
            raise ValueError(
                f"p{rank} is {proc.state.value}; stacks are readable only "
                "while stopped or blocked"
            )
        ident = self.runtime.backend.carrier_ident(proc)
        assert ident is not None
        frame = sys._current_frames().get(ident)
        out: list[str] = []
        depth = 0
        while frame is not None and depth < 200:
            filename = frame.f_code.co_filename
            if not is_infrastructure_file(filename) and "threading" not in filename:
                out.append(
                    f"{frame.f_code.co_name} at {filename}:{frame.f_lineno}"
                )
            frame = frame.f_back
            depth += 1
        out.reverse()
        return out[:max_frames]

    def frame_locals(self, rank: int, depth: int = 0) -> dict[str, str]:
        """repr()s of the locals of one user frame (0 = innermost).

        Read-only inspection: values are stringified immediately so no
        live references escape the parked thread.
        """
        import sys

        from repro.mp.locutil import is_infrastructure_file

        proc = self.runtime.procs[rank]
        if proc.state not in (ProcState.STOPPED, ProcState.BLOCKED):
            raise ValueError(f"p{rank} is {proc.state.value}")
        ident = self.runtime.backend.carrier_ident(proc)
        assert ident is not None
        frame = sys._current_frames().get(ident)
        user_frames = []
        while frame is not None:
            filename = frame.f_code.co_filename
            if not is_infrastructure_file(filename) and "threading" not in filename:
                user_frames.append(frame)
            frame = frame.f_back
        if depth >= len(user_frames):
            raise ValueError(
                f"p{rank} has {len(user_frames)} user frames; depth {depth} "
                "out of range"
            )
        target = user_frames[depth]
        return {k: repr(v)[:120] for k, v in target.f_locals.items()}

    def where(self, rank: int) -> str:
        """Current position of a process (location + marker + state)."""
        proc = self.runtime.procs[rank]
        wait = f" waiting: {proc.wait_info}" if proc.wait_info else ""
        return (
            f"p{rank} [{proc.state.value}] marker={proc.marker} "
            f"at {proc.current_location}{wait}"
        )

    # ------------------------------------------------------------------
    # stoplines (§4.1)
    # ------------------------------------------------------------------
    def set_stopline(
        self,
        event_index: int,
        placement: StoplinePlacement = StoplinePlacement.VERTICAL,
    ) -> Stopline:
        """Compute and remember a stopline from a trace event (the
        user's click in the time-space display)."""
        idx = self.index()
        self.current_stopline = compute_stopline(
            idx.trace, event_index, placement, index=idx
        )
        return self.current_stopline

    # ------------------------------------------------------------------
    # replay and undo (§4.1, §4.2)
    # ------------------------------------------------------------------
    def replay(
        self,
        thresholds: "MarkerVector | dict[int, int] | None" = None,
        use_checkpoint: bool = True,
    ) -> StopSummary:
        """Re-execute under nondeterminism control up to ``thresholds``
        (default: the current stopline's).

        The old execution is torn down; the new one stops each process
        at its threshold marker, giving the consistent cross-process
        breakpoint set of §4.1, and records its whole history.
        Thresholds naming a rank outside ``0..nprocs-1`` raise
        ``ValueError`` before anything is torn down.

        ``use_checkpoint`` is accepted and ignored: ``bench/`` still
        passes it, and the next benchmark change removes it.
        """
        if thresholds is None:
            if self.current_stopline is None:
                raise ValueError("no stopline set and no thresholds given")
            vector = self.current_stopline.thresholds
        elif isinstance(thresholds, MarkerVector):
            vector = thresholds
        else:
            vector = MarkerVector(thresholds)
        check_threshold_ranks(vector, self.nprocs)

        saved_bps = self.breakpoints.list()
        self.runtime.shutdown()
        # Finalize the outgoing generation's trace file (if any): the
        # recorder is discarded below, and an attached file would
        # otherwise be dropped with its tail unflushed and no index.
        self._execution.recorder.close()
        # The outgoing generation's history no longer describes any
        # execution: refuse every future query against it.
        if self._index is not None:
            self._index.invalidate()
            self._index = None
        self.generation += 1
        # Re-attach user subscriptions before the replay runs, so the
        # sinks observe the re-execution's records live.
        def _resubscribe(execution: ReplayExecution) -> None:
            for sink in self._streaming_sinks:
                execution.recorder.subscribe(sink, backfill=True)

        self._execution = execute_replay(
            self.spec, self.master_log, vector, on_build=_resubscribe
        )
        self.breakpoints = BreakpointManager(self.runtime)
        for bp in saved_bps:
            self.breakpoints._breakpoints[bp.bp_id] = bp
        report = self._execution.report
        assert report is not None
        return self._absorb_run(report)

    def undo(self, steps: int = 1) -> StopSummary:
        """The parallel undo (§4.2): replay to the marker vector recorded
        ``steps`` resumptions ago.

        "Every time a target process stops, p2d2 records its execution
        marker.  If an undo operation is requested, the debugger replays
        the program ... each process execution stops at the last
        creation of an execution tag preceding the desired state."
        """
        # stop_history[-1] is the *current* state; the undo target is
        # ``steps`` entries earlier.
        idx = len(self.stop_history) - 1 - steps
        if idx < 0:
            raise ValueError(
                f"cannot undo {steps} step(s): only "
                f"{len(self.stop_history) - 1} prior stop(s) recorded"
            )
        target = self.stop_history[idx]
        # Discard the undone suffix so consecutive undos walk backwards.
        del self.stop_history[idx:]
        return self.replay(thresholds=target)

    # ------------------------------------------------------------------
    # history analysis (§4.4)
    # ------------------------------------------------------------------
    def matching_report(self) -> MatchingReport:
        idx = self.index()
        return analyze_matching(
            idx.trace, blocked=self.runtime.blocked_waits(), index=idx
        )

    def deadlock_report(self) -> DeadlockReport:
        return analyze_deadlock(
            self.runtime.blocked_waits(), self.nprocs, index=self.index()
        )

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        self.runtime.shutdown()
        self._execution.recorder.close()

    def __enter__(self) -> "DebugSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
