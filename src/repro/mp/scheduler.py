"""Scheduling policies and run-outcome reporting.

At most one simulated process executes at any instant under the
cooperative engine (:class:`~repro.mp.backends.simtime.SimtimeBackend`),
which grants an
execution *token* to one READY process, waits for it to yield (block,
stop, finish, or volunteer preemption), and picks the next.  All
interleaving decisions flow through a pluggable
:class:`SchedulingPolicy`, so a given (program, policy, seed) triple
always produces the same execution -- the determinism that underpins the
paper's marker-threshold replay (Section 4.1: "This information is
sufficient for p2d2 to perform a replay").

This module owns the *decisions* (policies) and the *verdicts*
(:class:`RunOutcome` / :class:`RunReport`); the token machinery itself
lives in :mod:`repro.mp.backends`.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DeadlockError
from .process import Process, WaitInfo


class RunOutcome(enum.Enum):
    """Why a ``run_until_idle`` call returned."""

    FINISHED = "finished"  # every process exited normally
    STOPPED = "stopped"  # >= 1 process parked by the debugger
    DEADLOCK = "deadlock"  # live processes remain, all blocked
    ERROR = "error"  # >= 1 process raised; none ready/stopped
    LIMIT = "limit"  # grant budget exhausted (runaway guard)


@dataclass
class RunReport:
    """Outcome of one scheduling episode plus the evidence behind it."""

    outcome: RunOutcome
    stopped: list[Process] = field(default_factory=list)
    blocked: list[Process] = field(default_factory=list)
    errored: list[Process] = field(default_factory=list)
    waiting: list[WaitInfo] = field(default_factory=list)
    grants: int = 0

    def raise_on_error(self) -> "RunReport":
        """Re-raise the first user exception / deadlock, else return self."""
        if self.outcome is RunOutcome.ERROR and self.errored:
            exc = self.errored[0].exception
            assert exc is not None
            raise exc
        if self.outcome is RunOutcome.DEADLOCK:
            raise DeadlockError(self.waiting)
        return self


# ----------------------------------------------------------------------
# scheduling policies
# ----------------------------------------------------------------------
class SchedulingPolicy:
    """Strategy hooks: which READY process runs next, and whether the
    current process should voluntarily yield at an instrumentation point.

    Policies must be deterministic functions of their inputs (plus an
    explicit seed) so the whole simulation replays bit-identically.

    A policy whose choice is a pure minimum over the ready set may
    additionally define ``ready_key(proc)`` with the contract::

        pick(ready) == min(ready, key=lambda p: (ready_key(p), p.rank))

    and the key stable for as long as ``proc`` stays READY.  The engine
    then serves it from an incremental heap -- O(log n) per scheduling
    transition instead of an O(n) scan per grant -- without changing a
    single decision.  Stateful policies simply omit ``ready_key`` and
    receive the full rank-ordered candidate list, exactly as before.
    """

    name = "abstract"

    def pick(self, ready: Sequence[Process]) -> Process:
        raise NotImplementedError

    def should_preempt(self, current: Process, ready: Sequence[Process]) -> bool:
        """Called at marker points; ``ready`` excludes ``current``."""
        return False


class RunToBlockPolicy(SchedulingPolicy):
    """Run each process until it blocks/stops; pick the lowest rank next.

    The simplest deterministic policy and the default: context switches
    happen only at blocking communication, which matches how the paper's
    single-threaded processes interleave on distinct CPUs as far as
    message matching is concerned.
    """

    name = "run_to_block"

    def pick(self, ready: Sequence[Process]) -> Process:
        return min(ready, key=lambda p: p.rank)

    def ready_key(self, proc: Process) -> int:
        return 0  # ties broken by rank == lowest rank first


class RoundRobinPolicy(SchedulingPolicy):
    """Yield at every instrumentation point, cycling through ranks."""

    name = "round_robin"

    def __init__(self) -> None:
        self._last_rank = -1

    def pick(self, ready: Sequence[Process]) -> Process:
        after = [p for p in ready if p.rank > self._last_rank]
        chosen = min(after or ready, key=lambda p: p.rank)
        self._last_rank = chosen.rank
        return chosen

    def should_preempt(self, current: Process, ready: Sequence[Process]) -> bool:
        return bool(ready)


class VirtualTimePolicy(SchedulingPolicy):
    """Always run the process with the smallest virtual clock.

    Gives time-space diagrams in which concurrent progress appears
    interleaved in virtual time, closest to the paper's figures.
    """

    name = "virtual_time"

    def pick(self, ready: Sequence[Process]) -> Process:
        return min(ready, key=lambda p: (p.clock.now, p.rank))

    def ready_key(self, proc: Process) -> float:
        # Clocks only advance while RUNNING, so the key is stable for
        # the whole time a process sits in the ready set.
        return proc.clock.now

    def should_preempt(self, current: Process, ready: Sequence[Process]) -> bool:
        return any(p.clock.now < current.clock.now for p in ready)


class RandomPolicy(SchedulingPolicy):
    """Seeded random interleaving -- used by the race detector to explore
    alternative wildcard matchings (Section 4.4 message racing)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, ready: Sequence[Process]) -> Process:
        ordered = sorted(ready, key=lambda p: p.rank)
        return ordered[self._rng.randrange(len(ordered))]

    def should_preempt(self, current: Process, ready: Sequence[Process]) -> bool:
        return bool(ready) and self._rng.random() < 0.5


_POLICIES: dict[str, Callable[..., SchedulingPolicy]] = {
    "run_to_block": RunToBlockPolicy,
    "round_robin": RoundRobinPolicy,
    "virtual_time": VirtualTimePolicy,
    "random": RandomPolicy,
}


def make_policy(spec: "str | SchedulingPolicy", seed: int = 0) -> SchedulingPolicy:
    """Instantiate a policy from a name (or pass an instance through)."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    try:
        factory = _POLICIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {spec!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    if factory is RandomPolicy:
        return factory(seed)
    return factory()

