"""The runtime: program launch, message transport, and debugger control.

A :class:`Runtime` wires together the execution engine, one process +
mailbox + communicator per rank, the PMPI interposition layer, and the
communication log used for controlled replay.  It is the object the
debugger (:mod:`repro.debugger`) drives:

* ``launch`` + ``run_until_idle`` execute the program until everything
  exits, stops at a debugger condition, or deadlocks;
* per-rank marker thresholds (:meth:`set_threshold`) implement the
  stopline/replay/undo machinery of the paper's Section 4;
* :meth:`unmatched_sends` / :meth:`blocked_waits` feed the Section 4.4
  history analysis.

The runtime owns the protocol (mailboxes, matching, sequence numbers,
the CommLog, replay forcing); *how ranks execute* -- the token, the
carriers, suspension and resumption -- is the deterministic engine in
:mod:`repro.mp.simtime`, reachable as ``runtime.scheduler``.  See
DESIGN.md §8, "The execution engine".
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .channel import Mailbox, PendingRecv, iter_unmatched_sends
from .clock import CostModel
from .comm import Comm
from .errors import MPError
from .message import Envelope, Message
from .pmpi import PMPILayer
from .process import ProcState, Process, WaitInfo
from .record import CommLog
from .scheduler import RunOutcome, RunReport, SchedulingPolicy
from .simtime import SimtimeBackend

#: A program is one SPMD callable, or one callable per rank.
Target = Callable[[Comm], Any]
ProgramSpec = Union[Target, Sequence[Target], Mapping[int, Target]]


class Runtime:
    """A complete simulated message-passing machine for one execution.

    Parameters
    ----------
    nprocs:
        Number of ranks.
    backend:
        Must be ``"simtime"``, the one execution engine; any other value
        raises :class:`MPError`.  The keyword goes once ``bench/`` stops
        passing it (ROADMAP item 1).
    policy, seed:
        Scheduling policy name/instance and seed (see
        :mod:`repro.mp.scheduler`).  Everything downstream -- traces,
        matching, markers -- is a deterministic function of (program,
        policy, seed, replay log).
    cost_model:
        Virtual-time costs; default :class:`CostModel`.
    replay_log:
        A :class:`CommLog` from a previous run.  When given, wildcard
        receives and ``waitany`` choices are *forced* to the recorded
        outcomes (Section 4.2 nondeterminism control).
    max_grants:
        Optional scheduler-grant budget (runaway-loop guard for tests).
    """

    def __init__(
        self,
        nprocs: int,
        *,
        backend: str = "simtime",
        policy: "str | SchedulingPolicy" = "run_to_block",
        seed: int = 0,
        cost_model: Optional[CostModel] = None,
        replay_log: Optional[CommLog] = None,
        max_grants: Optional[int] = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if backend != "simtime":
            raise MPError(
                f"unknown execution backend {backend!r}; choose from ['simtime']"
            )
        self.nprocs = nprocs
        self.cost_model = cost_model or CostModel()
        #: the execution engine (the comm layer yields through it)
        self.scheduler = SimtimeBackend(
            self, policy=policy, seed=seed, max_grants=max_grants
        )
        self.pmpi_layer = PMPILayer()
        self.replay_log = replay_log
        #: matching decisions recorded during THIS run (always on; cheap)
        self.comm_log = CommLog()

        self.procs: list[Process] = []
        self.comms: list[Comm] = []
        self.mailboxes: list[Mailbox] = []
        for rank in range(nprocs):
            mailbox = Mailbox(rank)
            mailbox.on_message_matched = self._make_match_hook(rank)
            mailbox.on_deposit = self._make_deposit_hook(rank)
            self.mailboxes.append(mailbox)

        self._seq_counters: dict[tuple[int, int, int, int], itertools.count] = {}
        self._comm_id_counter = itertools.count(1)
        self._arrival_counter = itertools.count()
        self._ssend_pending: dict[int, int] = {}  # msg_id -> sender rank
        self._launched = False
        self._shut_down = False
        #: total messages deposited (statistics / tests)
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # launch / run / teardown
    # ------------------------------------------------------------------
    def launch(
        self,
        program: ProgramSpec,
        *,
        stop_on_entry: bool = False,
        target_wrappers: Sequence[Callable[[Target, int], Target]] = (),
    ) -> None:
        """Create the per-rank executions; they wait for the first grant.

        ``program`` may be a single SPMD callable (every rank runs it), a
        sequence of ``nprocs`` callables, or a rank->callable mapping
        (missing ranks run an empty body).

        ``target_wrappers`` are applied to each rank's target in order
        (``wrapper(target, rank) -> target``); instrumentation layers use
        them to install per-thread hooks (uinst's profile function) and
        lifecycle trace records.
        """
        if self._launched:
            raise RuntimeError("runtime already launched")
        self._launched = True
        targets = self._resolve_targets(program)
        for wrapper in target_wrappers:
            targets = [wrapper(t, rank) for rank, t in enumerate(targets)]
        self.scheduler.launch(targets, stop_on_entry=stop_on_entry)

    def _resolve_targets(self, program: ProgramSpec) -> list[Target]:
        if callable(program):
            return [program] * self.nprocs
        if isinstance(program, Mapping):
            def _idle(comm: Comm) -> None:
                return None

            return [program.get(rank, _idle) for rank in range(self.nprocs)]
        targets = list(program)
        if len(targets) != self.nprocs:
            raise ValueError(
                f"program sequence has {len(targets)} entries "
                f"for {self.nprocs} ranks"
            )
        return targets

    def current_proc(self) -> Process:
        """The process whose execution context is the calling one.

        Used by monitors shared across ranks (the AIMS monitor object of
        the source instrumentation) to attribute an event to a rank.
        """
        return self.scheduler.current_proc()

    def run_until_idle(self) -> RunReport:
        """Schedule until completion / debugger stop / deadlock."""
        if not self._launched:
            raise RuntimeError("launch() a program first")
        return self.scheduler.run_until_idle()

    def run(
        self,
        program: ProgramSpec,
        *,
        raise_errors: bool = True,
        target_wrappers: Sequence[Callable[[Target, int], Target]] = (),
    ) -> RunReport:
        """Convenience: launch + run to completion.

        With ``raise_errors`` (the default) a user exception or deadlock
        is torn down and re-raised.  With ``raise_errors=False`` the
        runtime is left *live* so the caller can inspect blocked waits,
        unmatched sends, and process states -- the post-mortem analysis
        of the paper's Figures 5-6 -- and must call :meth:`shutdown`
        (or use the runtime as a context manager).
        """
        self.launch(program, target_wrappers=target_wrappers)
        report = self.run_until_idle()
        if report.outcome is not RunOutcome.FINISHED and raise_errors:
            self.shutdown()
            report.raise_on_error()
        return report

    def shutdown(self) -> None:
        """Terminate all remaining processes (idempotent)."""
        if self._shut_down:
            return
        self._shut_down = True
        if self._launched:
            self.scheduler.shutdown()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # transport internals (called by Comm base implementations)
    # ------------------------------------------------------------------
    def next_seq(self, src: int, dst: int, tag: int, comm_id: int = 0) -> int:
        """Next per-(comm, src, dst, tag) sequence number (the
        non-overtaking key; communicators have independent orders)."""
        key = (comm_id, src, dst, tag)
        counter = self._seq_counters.get(key)
        if counter is None:
            counter = self._seq_counters[key] = itertools.count()
        return next(counter)

    def deposit(self, msg: Message) -> None:
        """Deliver a message to its destination mailbox."""
        msg.arrival_order = next(self._arrival_counter)
        self.messages_sent += 1
        if msg.synchronous:
            # Registered before deposit so an immediate match pops it.
            self._ssend_pending[msg.msg_id] = msg.envelope.src
        self.mailboxes[msg.envelope.dst].deposit(msg)

    def alloc_comm_id(self) -> int:
        """A fresh communicator context id (allocated by split's root;
        deterministic because execution is)."""
        return next(self._comm_id_counter)

    def ssend_outstanding(self, msg_id: int) -> bool:
        """Is a synchronous send still waiting for its match?"""
        return msg_id in self._ssend_pending

    def _make_match_hook(self, rank: int):
        def _on_match(msg: Message, pending: PendingRecv) -> None:
            # 1. Record the matching decision for future replays.
            self.comm_log.record_recv(rank, pending.post_order, msg.envelope)
            # 2. Release a rendezvous sender, if any.
            sender_rank = self._ssend_pending.pop(msg.msg_id, None)
            if sender_rank is not None:
                self.scheduler.unblock(self.procs[sender_rank])
            # 3. Wake the receiving process if it is blocked.
            self.scheduler.unblock(self.procs[rank])

        return _on_match

    def _make_deposit_hook(self, rank: int):
        def _on_deposit(msg: Message) -> None:
            # Wake the destination even when nothing matched: blocked
            # probes and replay-forced receives re-check their condition.
            self.scheduler.unblock(self.procs[rank])

        return _on_deposit

    # ------------------------------------------------------------------
    # replay forcing
    # ------------------------------------------------------------------
    def replay_forced_recv(
        self, rank: int, post_index: int, source: int, tag: int
    ) -> Optional[Envelope]:
        """Envelope this receive must match under replay, or None."""
        if self.replay_log is None:
            return None
        self.replay_log.check_recv_signature(rank, post_index, source, tag)
        return self.replay_log.forced_recv(rank, post_index)

    def replay_forced_waitany(self, rank: int, call_index: int) -> Optional[int]:
        if self.replay_log is None:
            return None
        return self.replay_log.forced_waitany(rank, call_index)

    def record_waitany(self, rank: int, call_index: int, choice: int) -> None:
        self.comm_log.record_waitany(rank, call_index, choice)

    # ------------------------------------------------------------------
    # debugger-facing control surface
    # ------------------------------------------------------------------
    def set_threshold(self, rank: int, marker: Optional[int]) -> None:
        """Store a UserMonitor threshold: the process parks when its
        execution-marker counter reaches ``marker`` (Section 2.2)."""
        self.procs[rank].set_threshold(marker)

    def set_thresholds(self, thresholds: Mapping[int, int]) -> None:
        """Set thresholds for several ranks at once (stopline replay)."""
        for rank, marker in thresholds.items():
            self.set_threshold(rank, marker)

    def interrupt_all(self) -> None:
        """Ask every live process to park at its next marker."""
        for proc in self.procs:
            if proc.live:
                proc.request_interrupt()

    def clear_interrupts(self) -> None:
        for proc in self.procs:
            proc.clear_interrupt()

    def resume(self, ranks: Optional[Sequence[int]] = None) -> RunReport:
        """Resume STOPPED processes (all, or the given ranks) and run on."""
        procs = None if ranks is None else [self.procs[r] for r in ranks]
        self.scheduler.resume_stopped(procs)
        return self.run_until_idle()

    def step(self, rank: int) -> RunReport:
        """Single-step one process: run it to its next marker point."""
        proc = self.procs[rank]
        proc.request_step()
        return self.resume([rank])

    # ------------------------------------------------------------------
    # introspection for history analysis (paper Section 4.4)
    # ------------------------------------------------------------------
    def unmatched_sends(self) -> list[Message]:
        """Messages deposited but never received (missed messages)."""
        return iter_unmatched_sends(self.mailboxes)

    def unmatched_recvs(self) -> list[PendingRecv]:
        """Posted receives never matched."""
        out: list[PendingRecv] = []
        for box in self.mailboxes:
            out.extend(box.posted_receives)
        return out

    def blocked_waits(self) -> list[WaitInfo]:
        """Wait descriptions for all currently-blocked processes."""
        return [
            proc.wait_info
            for proc in self.procs
            if proc.state is ProcState.BLOCKED and proc.wait_info is not None
        ]

    def states(self) -> dict[int, ProcState]:
        """Rank -> process state snapshot."""
        return {proc.rank: proc.state for proc in self.procs}

    def markers(self) -> dict[int, int]:
        """Rank -> current execution-marker value."""
        return {proc.rank: proc.marker for proc in self.procs}

    def clocks(self) -> dict[int, float]:
        """Rank -> virtual time."""
        return {proc.rank: proc.clock.now for proc in self.procs}

    def results(self) -> list[Any]:
        """Per-rank return values (None for non-exited processes)."""
        return [proc.result for proc in self.procs]

    def first_exception(self) -> Optional[BaseException]:
        for proc in self.procs:
            if proc.exception is not None:
                return proc.exception
        return None


def run_program(
    program: ProgramSpec,
    nprocs: int,
    *,
    backend: str = "simtime",
    policy: "str | SchedulingPolicy" = "run_to_block",
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    replay_log: Optional[CommLog] = None,
    raise_errors: bool = True,
) -> Runtime:
    """One-shot helper: build a runtime, run ``program``, return the runtime.

    ``backend`` is :class:`Runtime`'s: only ``"simtime"`` is accepted.

    Most tests and examples use this; the debugger builds runtimes
    directly because it needs to interleave control with execution.
    """
    rt = Runtime(
        nprocs,
        backend=backend,
        policy=policy,
        seed=seed,
        cost_model=cost_model,
        replay_log=replay_log,
    )
    report = rt.run(program, raise_errors=raise_errors)
    if report.outcome is RunOutcome.FINISHED:
        rt.shutdown()
    return rt


__all__ = [
    "Runtime",
    "run_program",
    "ProgramSpec",
    "Target",
    "MPError",
]
