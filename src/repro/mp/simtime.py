"""The cooperative simulated-time engine: one deterministic token passer.

Ranks execute cooperatively: at most one rank runs at any instant, every
interleaving decision flows through a deterministic
:class:`~repro.mp.scheduler.SchedulingPolicy`, and a given (program,
policy, seed) triple always produces the same execution -- the paper's
replay precondition (Section 4.1).  ``tests/mp/golden_schedules.json``
pins that schedule per app and seed.

How the token changes hands:

* **Direct handoff.**  Each rank owns a private binary semaphore and the
  controller owns one more.  A grant is one ``release`` on the grantee's
  semaphore plus one ``acquire`` on the controller's -- O(1), touching
  exactly the two parties involved, however many ranks are parked.
* **Lazy, reused carriers.**  A rank gets its carrier thread on its
  *first* grant, not at launch.  Launching 1024 ranks allocates 1024
  semaphores and no threads; ranks that never run (e.g. a trace
  truncated by ``max_grants`` or an early stop) never take a carrier,
  and teardown retires them without unwinding a stack that was never
  built.  A finished rank's carrier parks in a process-wide pool, where
  a later first grant -- of any runtime, e.g. a replay -- takes it
  instead of starting an OS thread; it exits after
  :data:`CARRIER_IDLE_S` idle.

Why carrier threads at all?  Plain-callable rank targets (required so
the same program runs unmodified under the debugger) cannot be
suspended mid-stack on a single CPython thread without a stack-switching
extension (greenlet), which this environment does not ship.  Threads
here are purely suspension vehicles: at most one is ever runnable, none
contend, and the scheduler -- not the OS -- decides every interleaving.
"Simulated time" refers to what the engine preserves: virtual clocks
and the deterministic schedule, with no real-time component influencing
anything.

State transitions and ready-set accounting happen on the token holder's
side of the handoff, so the handoff primitives move only the token and
never interpret process state.

Ready-set accounting is incremental: re-scanning every process on every
grant would be O(nprocs) per grant, quadratic per run.  Policies that
declare a ``ready_key`` (pick == min over the ready set of
``(ready_key(p), p.rank)``) are served from a lazy-invalidation heap --
O(log n) per transition; other policies get the rank-ordered candidate
list a full scan would produce, so their decisions (and RNG
consumption) are the same.
"""

from __future__ import annotations

import heapq
import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from .comm import Comm
from .process import ProcState, Process, WaitInfo
from .scheduler import (
    RunOutcome,
    RunReport,
    SchedulingPolicy,
    make_policy,
)

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

#: seconds an idle carrier waits for its next rank before it exits
CARRIER_IDLE_S = 0.5


class _Carrier:
    """A carrier thread: runs one rank's job at a time and, between
    jobs, waits in :data:`_POOL` for the next one."""

    def __init__(self) -> None:
        self._wake = threading.Semaphore(0)
        self._job: Optional[tuple[Callable[[], None], threading.Event]] = None
        self.thread = threading.Thread(
            target=self._loop, name="simtime-carrier", daemon=True
        )
        self.thread.start()

    def run(self, job: Callable[[], None]) -> threading.Event:
        """Start ``job``; the event is set once it returned and this
        carrier is back in the pool."""
        done = threading.Event()
        self._job = (job, done)
        self._wake.release()
        return done

    def _loop(self) -> None:
        while True:
            if not self._wake.acquire(timeout=CARRIER_IDLE_S):
                with _POOL.lock:
                    if self in _POOL.idle:
                        _POOL.idle.remove(self)
                        return
                self._wake.acquire()  # taken as the timeout fired
            (job, done), self._job = self._job, None
            job()
            del job  # hold no runtime while idle
            with _POOL.lock:
                _POOL.idle.append(self)
            done.set()


class _CarrierPool:
    """Idle carriers, shared by every runtime in the process.

    Taking a carrier and a timed-out carrier's self-removal both hold
    ``lock``, so a carrier that is exiting is never handed a job.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lock = threading.Lock()
        self.idle: list[_Carrier] = []

    def take(self) -> Optional[_Carrier]:
        with self.lock:
            return self.idle.pop() if self.idle else None


_POOL = _CarrierPool()
# A forked child inherits the pool but none of its threads.
os.register_at_fork(after_in_child=_POOL.reset)


class SimtimeBackend:
    """Deterministic token-passing engine with lazy, reused carriers and
    per-rank semaphore handoffs; one instance drives one runtime."""

    name = "simtime"

    def __init__(
        self,
        runtime: "Runtime",
        policy: "str | SchedulingPolicy" = "run_to_block",
        seed: int = 0,
        max_grants: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.policy = make_policy(policy, seed)
        self.procs: list[Process] = []
        self.max_grants = max_grants
        self.total_grants = 0
        #: observers notified after every grant (runtime statistics)
        self.grant_hooks: list[Callable[[Process], None]] = []

        # -- incremental ready set -------------------------------------
        #: rank -> proc for every READY process (the exact ready set)
        self._ready: dict[int, Process] = {}
        #: lazy-invalidation heap of ((key, rank), stamp) entries;
        #: populated only for keyed policies
        self._heap: list[tuple[Any, int, int]] = []
        #: rank -> stamp of its live heap entry (stale entries skipped)
        self._stamp: dict[int, int] = {}
        self._stamp_counter = 0
        key_fn = getattr(self.policy, "ready_key", None)
        self._key_fn = key_fn if callable(key_fn) else None
        # A policy that never preempts skips candidate-list construction
        # at every marker point (the default run_to_block fast path).
        self._preemptive = (
            type(self.policy).should_preempt is not SchedulingPolicy.should_preempt
        )
        #: worker-context (thread ident) -> proc, registered eagerly when
        #: a carrier starts; ``current_proc`` is a plain dict lookup.
        self._ident_to_proc: dict[int, Process] = {}
        #: rank -> (carrier, set once the rank's job returned), taken on
        #: the rank's first grant
        self._carriers: dict[int, tuple[_Carrier, threading.Event]] = {}
        #: carriers this engine had to start (the idle pool was empty)
        self.carriers_started = 0
        #: controller's token-return semaphore (binary in practice)
        self._controller = threading.Semaphore(0)
        #: rank -> that rank's token-arrival semaphore
        self._sems: dict[int, threading.Semaphore] = {}
        #: a READY poller held out of the ready set until the next pick
        #: (see :meth:`poll_yield`)
        self._polled: Optional[Process] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def launch(
        self,
        targets: Sequence[Callable[[Comm], Any]],
        *,
        stop_on_entry: bool = False,
    ) -> None:
        rt = self.runtime
        for rank, target in enumerate(targets):
            proc = Process(rank, self, target)
            proc.stop.stop_on_entry = stop_on_entry
            comm = Comm(rt, rank)
            proc.comm = comm
            rt.procs.append(proc)
            rt.comms.append(comm)
            self.procs.append(proc)
        for proc in self.procs:
            self.start_proc(proc)

    def start_proc(self, proc: Process) -> None:
        """Make ``proc`` READY and schedulable; its carrier thread is
        deferred to the first grant."""
        if proc.rank in self._sems:
            raise RuntimeError(f"{proc!r} already started")
        proc.state = ProcState.READY
        self._ready_add(proc)
        self._sems[proc.rank] = threading.Semaphore(0)

    def _ensure_carrier(self, proc: Process) -> None:
        if proc.rank in self._carriers:
            return
        carrier = _POOL.take()
        if carrier is None:
            carrier = _Carrier()
            self.carriers_started += 1
        done = carrier.run(lambda: self._carrier_body(proc))
        self._carriers[proc.rank] = (carrier, done)

    def _carrier_body(self, proc: Process) -> None:
        # Attribute this execution context to ``proc`` before user code.
        self._ident_to_proc[threading.get_ident()] = proc
        proc.run_target()

    def current_proc(self) -> Process:
        try:
            return self._ident_to_proc[threading.get_ident()]
        except KeyError:
            raise RuntimeError(
                "current_proc() called from a thread that is not a "
                "simulated process"
            ) from None

    def carrier_ident(self, proc: Process) -> Optional[int]:
        """Thread ident of ``proc``'s carrier, if it has one.

        The debugger reads a parked process's live user frames through
        ``sys._current_frames()`` keyed by this ident.  Once the rank is
        terminal its carrier may be carrying another rank.
        """
        entry = self._carriers.get(proc.rank)
        return entry[0].thread.ident if entry is not None else None

    def join_proc(self, proc: Process) -> None:
        """Wait until ``proc``'s job returned and its carrier parked."""
        entry = self._carriers.get(proc.rank)
        if entry is not None:
            entry[1].wait(timeout=5.0)

    # ------------------------------------------------------------------
    # ready-set accounting (token holder only; no extra locking needed)
    # ------------------------------------------------------------------
    def _ready_add(self, proc: Process) -> None:
        """Enqueue a process that just became READY."""
        self._ready[proc.rank] = proc
        if self._key_fn is not None:
            self._stamp_counter += 1
            self._stamp[proc.rank] = self._stamp_counter
            heapq.heappush(
                self._heap,
                ((self._key_fn(proc), proc.rank), proc.rank, self._stamp_counter),
            )

    def _ready_discard(self, proc: Process) -> None:
        self._ready.pop(proc.rank, None)

    def _ready_candidates(self, exclude: Optional[Process] = None) -> list[Process]:
        """The ready set as the policy wants to see it: rank order (the
        candidate order a full registration-order scan used to produce,
        so order-sensitive policies make identical decisions)."""
        ready = self._ready
        return [
            ready[r]
            for r in sorted(ready)
            if exclude is None or ready[r] is not exclude
        ]

    def _pick_next(self) -> Optional[Process]:
        """Choose and claim the next grantee; equals ``policy.pick`` by
        contract.

        For keyed policies, popping live heap entries yields the minimum
        of (ready_key, rank) over the ready set -- the documented
        equivalence in :class:`~repro.mp.scheduler.SchedulingPolicy`.
        """
        if not self._ready:
            return None
        if self._key_fn is not None:
            heap = self._heap
            while heap:
                _, rank, stamp = heapq.heappop(heap)
                if self._stamp.get(rank) == stamp and rank in self._ready:
                    self._stamp.pop(rank, None)
                    return self._ready.pop(rank)
            raise AssertionError("ready set and ready heap diverged")
        chosen = self.policy.pick(self._ready_candidates())
        self._ready.pop(chosen.rank, None)
        return chosen

    # ------------------------------------------------------------------
    # controller-thread side
    # ------------------------------------------------------------------
    def run_until_idle(self) -> RunReport:
        """Grant the token until no process is READY, then classify.

        STOPPED takes priority over DEADLOCK: processes blocked on
        messages that a *stopped* peer would send are not deadlocked,
        merely waiting for the debugger.
        """
        grants = 0
        while True:
            if not self._ready:
                return self._classify(grants)
            if self.max_grants is not None and self.total_grants >= self.max_grants:
                return RunReport(outcome=RunOutcome.LIMIT, grants=grants)
            proc = self._pick_next()
            assert proc is not None
            if self._polled is not None:
                self._ready_add(self._polled)
                self._polled = None
            self._grant(proc)
            grants += 1
            self.total_grants += 1
            for hook in self.grant_hooks:
                hook(proc)

    def _classify(self, grants: int) -> RunReport:
        stopped = [p for p in self.procs if p.state is ProcState.STOPPED]
        blocked = [p for p in self.procs if p.state is ProcState.BLOCKED]
        errored = [p for p in self.procs if p.state is ProcState.ERRORED]
        report = RunReport(
            outcome=RunOutcome.FINISHED,
            stopped=stopped,
            blocked=blocked,
            errored=errored,
            waiting=[p.wait_info for p in blocked if p.wait_info is not None],
            grants=grants,
        )
        # Priority: a debugger stop owns the situation; then a user error
        # (processes blocked on an errored peer are a consequence, not a
        # deadlock); a true deadlock only when everyone left is blocked.
        if stopped:
            report.outcome = RunOutcome.STOPPED
        elif errored:
            report.outcome = RunOutcome.ERROR
        elif blocked:
            report.outcome = RunOutcome.DEADLOCK
        return report

    def resume_stopped(self, procs: Optional[Sequence[Process]] = None) -> None:
        """Flip STOPPED processes back to READY (debugger continue)."""
        for proc in procs if procs is not None else self.procs:
            if proc.state is ProcState.STOPPED:
                proc.state = ProcState.READY
                self._ready_add(proc)

    def shutdown(self) -> None:
        """Terminate all live processes (used on teardown / abandon).

        Each live process is marked for kill and granted once; its next
        scheduling point raises ``ProcessKilled``, unwinding the user
        stack.
        """
        for proc in self.procs:
            if proc.live:
                proc.request_kill()
        # Granting order doesn't matter for teardown; use rank order.
        for proc in sorted(self.procs, key=lambda p: p.rank):
            if proc.live:
                self._kill_grant(proc)
        for proc in self.procs:
            self.join_proc(proc)

    def _kill_grant(self, proc: Process) -> None:
        """Grant a kill-marked process so it can unwind."""
        if proc.terminated:
            return
        self._ready_discard(proc)
        if proc.rank not in self._carriers:
            # The carrier never started, so no user code ever ran and
            # there is no stack to unwind; retire the rank directly.
            proc.state = ProcState.EXITED
            return
        self._grant(proc)

    # ------------------------------------------------------------------
    # worker-side yields (token holder)
    # ------------------------------------------------------------------
    def yield_blocked(self, proc: Process, wait: WaitInfo) -> None:
        """Worker: release the token in BLOCKED state; return on re-grant.

        The caller must re-check its wait condition in a loop -- a grant
        does not guarantee the condition holds (spurious wakeups are
        possible when the debugger resumes everything).
        """
        proc.wait_info = wait
        self._release(proc, ProcState.BLOCKED)
        self.await_grant(proc)
        proc.wait_info = None

    def yield_stopped(self, proc: Process) -> None:
        """Worker: park in STOPPED (debugger stop); return on re-grant."""
        self._release(proc, ProcState.STOPPED)
        self.await_grant(proc)

    def yield_ready(self, proc: Process) -> None:
        """Worker: voluntary preemption; return when re-picked."""
        self._ready_add(proc)
        self._release(proc, ProcState.READY)
        self.await_grant(proc)

    def maybe_preempt(self, proc: Process) -> None:
        """Worker: consult the policy at an instrumentation point."""
        if not self._preemptive or not self._ready:
            return
        others = self._ready_candidates(exclude=proc)
        if others and self.policy.should_preempt(proc, others):
            self.yield_ready(proc)

    def poll_yield(self, proc: Process) -> None:
        """Worker: yield after an unsuccessful nonblocking poll.

        In a cooperative runtime the poller must voluntarily yield or a
        ``while not test()`` loop would starve the very process it is
        waiting on, regardless of scheduling policy.  The poller rejoins
        the ready set only after the next pick, so one of the other
        ready ranks (the policy's choice among them) always runs first;
        a policy that favours the poller -- ``run_to_block`` when it has
        the lowest rank -- would otherwise re-grant it forever.

        With no other rank ready the poller yields straight back into
        the ready set, so every failed poll still costs a grant: a poll
        loop that nothing will answer ends in ``LIMIT`` under
        ``max_grants`` instead of spinning outside the grant count.  It
        is not parked: its own loop body may still act (send, time out)
        after any number of polls.
        """
        if not self._ready:
            self.yield_ready(proc)
            return
        self._polled = proc
        self._release(proc, ProcState.READY)
        self.await_grant(proc)

    def unblock(self, proc: Process) -> None:
        """Any token holder: make a BLOCKED process READY again."""
        if proc.state is ProcState.BLOCKED:
            proc.state = ProcState.READY
            self._ready_add(proc)

    def proc_finished(
        self, proc: Process, final_state: ProcState, killed: bool = False
    ) -> None:
        """Worker: final release; the worker context exits after this."""
        del killed  # recorded implicitly: killed procs have no result
        self._release(proc, final_state)

    # ------------------------------------------------------------------
    # token transfer
    # ------------------------------------------------------------------
    def _grant(self, proc: Process) -> None:
        """Controller: hand the token to ``proc``, wait for its release."""
        proc.state = ProcState.RUNNING
        self._ensure_carrier(proc)
        self._sems[proc.rank].release()
        self._controller.acquire()

    def await_grant(self, proc: Process) -> None:
        """Worker: suspend until the token is handed to ``proc``.

        Raises ``ProcessKilled`` on a teardown grant, unwinding the user
        stack from whatever yield point the process was parked at.
        """
        self._sems[proc.rank].acquire()
        proc.check_killed()

    def _release(self, proc: Process, new_state: ProcState) -> None:
        """Worker: give the token back, leaving ``proc`` in ``new_state``."""
        proc.state = new_state
        self._controller.release()
