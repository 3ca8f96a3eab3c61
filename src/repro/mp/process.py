"""The per-rank process abstraction.

How a rank's code physically executes (an OS thread per rank, a lazy
simulated-time carrier, a real worker process) is owned by the
execution backend (:mod:`repro.mp.backends`); this class is the
backend-independent state of one rank.  Under the cooperative backends
at most one process executes at any instant, so the program behaves
like the single-threaded message-passing processes the paper targets,
with fully deterministic interleaving.

A process carries the state the paper's debugging machinery needs:

* a **virtual clock** (time-space diagram coordinates, Section 3.1);
* an **execution-marker counter**, incremented at every instrumentation
  point.  This is the `UserMonitor` counter of Section 2.2: "increments a
  single global counter ... and tests to see if the global counter has
  reached a threshold value which can be set by the debugger";
* **stop control** -- marker thresholds, single-step flags, and debugger
  interrupts all park the process in the ``STOPPED`` state at the next
  instrumentation point, returning control to the debugger.
"""

from __future__ import annotations

import enum
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from .clock import VirtualClock
from .datatypes import SourceLocation
from .errors import ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from .backends.simtime import SimtimeBackend
    from .comm import Comm


class ProcState(enum.Enum):
    """Lifecycle states of a simulated process."""

    CREATED = "created"  # not yet started by the backend
    READY = "ready"  # runnable, waiting for the scheduler token
    RUNNING = "running"  # currently holds the token
    BLOCKED = "blocked"  # waiting on a communication condition
    STOPPED = "stopped"  # parked by the debugger at an instrumentation point
    EXITED = "exited"  # target function returned
    ERRORED = "errored"  # target function raised


#: States in which a process will never run again.
TERMINAL_STATES = frozenset({ProcState.EXITED, ProcState.ERRORED})


class WaitKind(enum.Enum):
    """What a blocked process is waiting for (deadlock reporting)."""

    RECV = "recv"
    SSEND = "ssend"
    BARRIER = "barrier"
    COLLECTIVE = "collective"
    REQUEST = "request"


@dataclass(frozen=True)
class WaitInfo:
    """Human- and analysis-readable description of a blocked condition.

    ``peer`` is the rank being waited on (or ``ANY_SOURCE``); together
    with ``kind`` this is the edge set of the wait-for graph the deadlock
    detector walks (paper Section 4.4: "detect deadlocks due to circular
    dependency in sends or receives").
    """

    rank: int
    kind: WaitKind
    peer: int
    tag: int
    location: SourceLocation = field(default_factory=SourceLocation.unknown)

    def __str__(self) -> str:
        return (
            f"proc {self.rank} blocked in {self.kind.value} "
            f"(peer={self.peer}, tag={self.tag}) at {self.location}"
        )


class StopReason(enum.Enum):
    """Why a process parked in ``STOPPED``."""

    THRESHOLD = "marker-threshold"  # UserMonitor counter hit its threshold
    BREAKPOINT = "breakpoint"  # location breakpoint
    STEP = "single-step"  # one-marker step completed
    INTERRUPT = "interrupt"  # debugger asked everyone to stop
    ENTRY = "entry"  # stop-on-entry before the first construct


@dataclass
class StopState:
    """Mutable debugger-facing stop control for one process.

    ``threshold`` is exactly the paper's UserMonitor threshold variable:
    during replay the debugger stores the stopline's execution marker
    here and the process parks when its counter reaches it.
    """

    threshold: Optional[int] = None
    stepping: bool = False
    interrupt: bool = False
    stop_on_entry: bool = False
    #: set by a location-breakpoint hook just before the stop evaluation
    breakpoint_hit: bool = False
    #: set when parked; cleared on resume
    reason: Optional[StopReason] = None

    def should_stop(self, marker: int) -> Optional[StopReason]:
        """Evaluate stop conditions for the marker value just generated."""
        if self.interrupt:
            return StopReason.INTERRUPT
        if self.breakpoint_hit:
            self.breakpoint_hit = False
            return StopReason.BREAKPOINT
        if self.threshold is not None and marker >= self.threshold:
            return StopReason.THRESHOLD
        if self.stepping:
            return StopReason.STEP
        return None


class Process:
    """One rank: clock, marker counter, and stop control.

    The execution backend (``self.scheduler``, a
    :class:`~repro.mp.backends.simtime.SimtimeBackend`) drives the
    process through :meth:`run_target` and the grant handshakes.  User
    code never sees this class directly -- it receives a
    :class:`~repro.mp.comm.Comm` bound to it.
    """

    def __init__(
        self,
        rank: int,
        scheduler: "SimtimeBackend",
        target: Callable[["Comm"], Any],
        name: Optional[str] = None,
    ) -> None:
        self.rank = rank
        self.scheduler = scheduler
        self.target = target
        self.name = name or f"rank{rank}"
        self.state = ProcState.CREATED
        self.clock = VirtualClock()
        self.comm: Optional["Comm"] = None  # bound by the runtime

        # --- execution markers (paper Section 2.2) -------------------
        #: count of instrumentation points executed so far
        self.marker = 0
        #: marker value at each past STOP, newest last (undo uses these)
        self.stop_markers: list[int] = []
        #: waitany call counter (replay key; per process, not per comm)
        self.waitany_calls = 0

        # --- stop control ---------------------------------------------
        self.stop = StopState()
        #: current blocked-wait description, None unless BLOCKED
        self.wait_info: Optional[WaitInfo] = None

        # --- completion -------------------------------------------------
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.traceback_text: Optional[str] = None

        # --- monitors: callables invoked at every marker point ----------
        #: ``fn(process, location, args) -> None``; installed by the
        #: instrumentation layers (UserMonitor lives here).
        self.marker_hooks: list[Callable[["Process", SourceLocation, tuple], None]] = []

        # --- teardown plumbing -------------------------------------------
        self._kill = False
        #: most recent user-frame location, maintained by instrumentation
        self.current_location: SourceLocation = SourceLocation.unknown()

    # ------------------------------------------------------------------
    # identity & predicates
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} rank={self.rank} state={self.state.value}>"

    @property
    def terminated(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def live(self) -> bool:
        return self.state not in TERMINAL_STATES and self.state != ProcState.CREATED

    # ------------------------------------------------------------------
    # worker-context entry (called by the backend's carrier)
    # ------------------------------------------------------------------
    def run_target(self) -> None:
        """Wait for the first grant, run the target, report completion.

        The backend invokes this from whatever execution context carries
        the rank; it returns only when the rank is terminal.
        """
        try:
            self.scheduler.await_grant(self)
            if self.stop.stop_on_entry:
                self.park(StopReason.ENTRY)
            self.result = self.target(self.comm)
            self.scheduler.proc_finished(self, ProcState.EXITED)
        except ProcessKilled:
            self.scheduler.proc_finished(self, ProcState.EXITED, killed=True)
        except BaseException as exc:  # noqa: BLE001 - report, don't swallow
            self.exception = exc
            self.traceback_text = traceback.format_exc()
            self.scheduler.proc_finished(self, ProcState.ERRORED)

    # ------------------------------------------------------------------
    # instrumentation points (called from the worker thread, token held)
    # ------------------------------------------------------------------
    def bump_marker(
        self,
        location: Optional[SourceLocation] = None,
        args: tuple = (),
    ) -> int:
        """Generate the next execution marker and evaluate stop control.

        This is the runtime half of the paper's ``UserMonitor``: it
        increments the per-process counter, lets installed monitor hooks
        record the event, then parks the process if a stop condition
        (threshold / step / interrupt) is met.

        Returns the new marker value.
        """
        self.check_killed()
        self.marker += 1
        loc = location or self.current_location
        for hook in self.marker_hooks:
            hook(self, loc, args)
        reason = self.stop.should_stop(self.marker)
        if reason is not None:
            self.park(reason)
        else:
            self.scheduler.maybe_preempt(self)
        return self.marker

    def park(self, reason: StopReason) -> None:
        """Park in STOPPED until the debugger resumes this process."""
        self.stop.reason = reason
        # A one-shot step or entry-stop is consumed by parking.
        self.stop.stepping = False
        self.stop.stop_on_entry = False
        self.stop_markers.append(self.marker)
        self.scheduler.yield_stopped(self)
        self.stop.reason = None

    def check_killed(self) -> None:
        """Raise :class:`ProcessKilled` if teardown was requested."""
        if self._kill:
            raise ProcessKilled()

    # ------------------------------------------------------------------
    # debugger-facing controls (called from the controller thread while
    # this process is parked/blocked, i.e. not running)
    # ------------------------------------------------------------------
    def set_threshold(self, marker: Optional[int]) -> None:
        """Set (or clear) the UserMonitor marker threshold."""
        self.stop.threshold = marker

    def request_step(self) -> None:
        """Arrange for the process to park after its next marker."""
        self.stop.stepping = True

    def request_interrupt(self) -> None:
        """Arrange for the process to park at its next marker."""
        self.stop.interrupt = True

    def clear_interrupt(self) -> None:
        self.stop.interrupt = False

    def request_kill(self) -> None:
        """Mark the process for termination at its next scheduling point."""
        self._kill = True

    def last_stop_marker(self) -> Optional[int]:
        """Marker recorded at the most recent stop (undo target)."""
        return self.stop_markers[-1] if self.stop_markers else None
