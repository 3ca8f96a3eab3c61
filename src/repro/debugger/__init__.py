"""``repro.debugger`` -- the p2d2 analog: trace-driven debugging (§4).

* :class:`DebugSession` -- the programmable debugger: launch, stop,
  step, inspect, plus the paper's contributions: stoplines, controlled
  replay, and parallel undo.
* :mod:`~repro.debugger.stopline` -- timeline breakpoints (vertical
  slice or past/future frontier placement).
* :mod:`~repro.debugger.replay` -- the marker-threshold replay engine
  with nondeterminism control; every replay re-executes from the start
  and records the whole history.
* :mod:`~repro.debugger.breakpoints` -- conventional location
  breakpoints over instrumentation points.
* :mod:`~repro.debugger.commands` -- a text command front end.
"""

from .breakpoints import Breakpoint, BreakpointManager, Watchpoint
from .commands import CommandError, CommandInterpreter, run_script
from .replay import (
    ReplayExecution,
    ReplaySpec,
    build_execution,
    execute_replay,
    replay_matches_markers,
)
from .session import DebugSession, StopSummary
from .stopline import (
    Stopline,
    StoplinePlacement,
    compute_stopline,
    verify_stopline_consistency,
    vertical_stopline_at_time,
)

__all__ = [
    "Breakpoint",
    "BreakpointManager",
    "CommandError",
    "CommandInterpreter",
    "DebugSession",
    "ReplayExecution",
    "ReplaySpec",
    "StopSummary",
    "Watchpoint",
    "Stopline",
    "StoplinePlacement",
    "build_execution",
    "compute_stopline",
    "execute_replay",
    "replay_matches_markers",
    "run_script",
    "verify_stopline_consistency",
    "vertical_stopline_at_time",
]
