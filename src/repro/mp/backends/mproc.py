"""Multiprocessing backend: one forked worker process per rank.

The only backend with *true parallelism*: ranks run concurrently on real
CPUs, so CPU-bound targets actually overlap.  What it trades away is
recorded in its capability flags -- the debugger control surface, target
wrappers, ready-send validation, and schedule determinism all require
the cooperative in-process engine.  What it keeps is the paper's
*protocol* layer: per-rank mailboxes with arrival-order matching, the
CommLog (recorded locally, merged at exit), replay forcing of wildcard
receives and ``waitany`` (each worker inherits the replay log across the
fork), and deadlock detection with per-rank wait descriptions.

Architecture
------------
* **Workers.**  Forked with the ``fork`` start method, so rank targets
  need not pickle and inherit the replay log / cost model for free.
  Each worker builds a :class:`_WorkerRuntime` -- a rank-local stand-in
  for :class:`~repro.mp.runtime.Runtime` that owns this rank's mailbox,
  clock, CommLog, and PMPI layer -- and runs the unmodified
  :class:`~repro.mp.comm.Comm` protocol code against it.

* **Transport.**  One inbound ``multiprocessing`` queue per rank.
  Message payloads are pickled eagerly at the send site so an
  unpicklable payload fails *there* with a clear error, not later in a
  queue feeder thread.  Sequence numbers keep their global meaning
  because they are keyed by (comm, src, dst, tag) and only rank ``src``
  ever sends under a given key; arrival order is receiver-assigned.
  Synchronous sends rendezvous via an ack routed back to the sender's
  queue.  Communicator context ids are namespaced by allocating world
  rank (id = rank + 1, stepping by nprocs) so concurrent splits rooted
  at different ranks never collide.

* **Merge-free trace recording.**  With ``trace_path`` set, each forked
  rank carries its own :class:`~repro.trace.recorder.TraceRecorder`
  stamping disjoint global indices (``index_start=rank,
  index_step=nprocs``) through the instrumented wrapper library.  Every
  worker streams its records straight into its own shard file --
  compression-aware, bounded memory -- and the parent's only job at
  exit is writing the one-line manifest from the workers' reported
  shard stats (falling back to
  :func:`~repro.trace.shard.scan_shard_info` for a worker that died
  without reporting).

* **Deadlock detection.**  Counting-based with confirmation: a blocked
  worker reports its wait description plus (puts, gots) transfer
  counters.  When every live worker is blocked and the global counters
  balance (no message in flight), the parent *suspects* deadlock and
  issues a ping wave; each still-blocked worker answers from inside its
  wait loop with its current counters.  Only if every pong confirms
  "still blocked, counters unchanged" is the deadlock real -- any
  progress report, counter drift, or timeout cancels the suspicion.
  Confirmed deadlocks (and errors) abort the remaining workers; the
  blocked stubs keep their wait info so post-mortem introspection
  (``blocked_waits``, Figure 5 analysis) still works in the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import time
import traceback
from itertools import count
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from ..channel import Mailbox, PendingRecv
from ..comm import Comm
from ..errors import MPError, ProcessKilled
from ..message import Envelope, Message
from ..pmpi import PMPILayer
from ..process import ProcState, Process, WaitInfo
from ..record import CommLog
from ..scheduler import RunOutcome, RunReport
from .base import ExecutionBackend

#: parent -> worker control frames (besides ("msg", bytes) transport)
_PING = "ping"
_ACK = "ack"
_MSG = "msg"
_ABORT = "abort"


def _safe_pickle(obj: Any, what: str) -> bytes:
    try:
        return pickle.dumps(obj)
    except Exception as exc:
        raise MPError(f"{what} is not picklable under the mproc backend: {exc!r}")


class _WorkerRuntime:
    """Rank-local Runtime stand-in: everything ``Comm`` calls, scoped to
    one rank, with remote access routed through the queues.

    Doubles as its own scheduler shim (``self.scheduler is self``): the
    worker is preemptively scheduled by the OS, so "yielding" means
    draining the inbound queue, and "blocking" means waiting on it.
    """

    def __init__(
        self,
        rank: int,
        nprocs: int,
        inqs: Sequence[Any],
        report_q: Any,
        replay_log: Optional[CommLog],
        cost_model: Any,
    ) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.cost_model = cost_model
        self.replay_log = replay_log
        self.comm_log = CommLog()
        self.pmpi_layer = PMPILayer()
        self.messages_sent = 0
        self._inqs = inqs
        self._inq = inqs[rank]
        self._report_q = report_q

        self.mailbox = Mailbox(rank)
        self.mailbox.on_message_matched = self._on_match
        self.mailboxes = _SelfOnly(rank, self.mailbox, "the mailbox")
        self.proc = Process(rank, self, _noop_target)
        self.procs = _SelfOnly(rank, self.proc, "the process")

        self._seq_counters: dict[tuple[int, int, int, int], Any] = {}
        # Context ids namespaced by allocating rank: rank+1, rank+1+nprocs, ...
        self._comm_id_counter = count(rank + 1, nprocs)
        self._arrival_counter = count()
        self._ssend_pending: set[int] = set()
        #: transfer counters for the parent's deadlock accounting
        self.puts = 0
        self.gots = 0

    # -- scheduler-shim surface ----------------------------------------
    @property
    def scheduler(self) -> "_WorkerRuntime":
        return self

    def await_grant(self, proc: Process) -> None:
        proc.check_killed()

    def maybe_preempt(self, proc: Process) -> None:
        pass  # the OS preempts; there is no token

    def poll_yield(self, proc: Process) -> None:
        # Between nonblocking polls, give arrivals a brief chance so a
        # ``while not test()`` loop doesn't spin dry.
        self._drain(block=True, timeout=0.001)

    def yield_ready(self, proc: Process) -> None:
        self._drain(block=False)

    def yield_blocked(self, proc: Process, wait: WaitInfo) -> None:
        proc.wait_info = wait
        self._report(("blocked", self.rank, wait, self.puts, self.gots))
        self._drain(block=True, blocked=True)
        self._report(("running", self.rank))
        proc.wait_info = None

    def yield_stopped(self, proc: Process) -> None:
        raise MPError(
            "debugger stops are not supported under the mproc backend"
        )

    def unblock(self, proc: Process) -> None:
        pass  # the blocked wait loop rechecks right after the drain

    def proc_finished(
        self, proc: Process, final_state: ProcState, killed: bool = False
    ) -> None:
        proc.state = final_state

    # -- transport ------------------------------------------------------
    def _put(self, dst: int, item: tuple) -> None:
        self.puts += 1
        self._inqs[dst].put(item)

    def _report(self, item: tuple) -> None:
        self._report_q.put(item)

    def _drain(
        self,
        *,
        block: bool,
        blocked: bool = False,
        timeout: Optional[float] = None,
    ) -> bool:
        """Move queued arrivals into the local mailbox.

        With ``block`` true, waits until at least one *progress-making*
        item (message or ack) arrives -- pings are answered in place and
        do not count as progress.  Returns whether progress was made.
        """
        progressed = False
        while True:
            try:
                if block and not progressed:
                    item = self._inq.get(timeout=timeout)
                else:
                    item = self._inq.get_nowait()
            except queue_mod.Empty:
                return progressed
            kind = item[0]
            if kind == _MSG:
                self.gots += 1
                msg = pickle.loads(item[1])
                msg.arrival_order = next(self._arrival_counter)
                self.mailbox.deposit(msg)
                progressed = True
            elif kind == _ACK:
                self.gots += 1
                self._ssend_pending.discard(item[1])
                progressed = True
            elif kind == _PING:
                self._report(
                    ("pong", self.rank, item[1], blocked, self.puts, self.gots)
                )
            elif kind == _ABORT:
                raise ProcessKilled()

    # -- Runtime protocol surface ---------------------------------------
    def next_seq(self, src: int, dst: int, tag: int, comm_id: int = 0) -> int:
        key = (comm_id, src, dst, tag)
        counter = self._seq_counters.get(key)
        if counter is None:
            counter = self._seq_counters[key] = count()
        return next(counter)

    def deposit(self, msg: Message) -> None:
        self.messages_sent += 1
        if msg.synchronous:
            self._ssend_pending.add(msg.msg_id)
        dst = msg.envelope.dst
        if dst == self.rank:
            msg.arrival_order = next(self._arrival_counter)
            self.mailbox.deposit(msg)
        else:
            data = _safe_pickle(msg, f"message payload for send to rank {dst}")
            self._put(dst, (_MSG, data))

    def alloc_comm_id(self) -> int:
        return next(self._comm_id_counter)

    def ssend_outstanding(self, msg_id: int) -> bool:
        return msg_id in self._ssend_pending

    def replay_forced_recv(
        self, rank: int, post_index: int, source: int, tag: int
    ) -> Optional[Envelope]:
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

    def current_proc(self) -> Process:
        return self.proc

    # -- mailbox hooks ---------------------------------------------------
    def _on_match(self, msg: Message, pending: PendingRecv) -> None:
        self.comm_log.record_recv(self.rank, pending.post_order, msg.envelope)
        if msg.synchronous:
            src = msg.envelope.src
            if src == self.rank:
                self._ssend_pending.discard(msg.msg_id)
            else:
                self._put(src, (_ACK, msg.msg_id))


class _SelfOnly:
    """Sequence facade exposing only this rank's own entry; indexing a
    remote rank fails with a clear capability error."""

    def __init__(self, rank: int, item: Any, what: str) -> None:
        self._rank = rank
        self._item = item
        self._what = what

    def __getitem__(self, idx: int) -> Any:
        if idx == self._rank:
            return self._item
        raise MPError(
            f"{self._what} of a remote rank is not accessible under the "
            "mproc backend (ranks run in separate OS processes)"
        )


def _noop_target(comm: "Comm") -> None:  # placeholder; real target runs below
    return None


def _worker_main(
    rank: int,
    target: Callable[[Comm], Any],
    nprocs: int,
    inqs: Sequence[Any],
    report_q: Any,
    replay_log: Optional[CommLog],
    cost_model: Any,
    trace_cfg: Optional[tuple] = None,
) -> None:
    """Worker-process entry: run one rank against a local runtime."""
    wrt = _WorkerRuntime(rank, nprocs, inqs, report_q, replay_log, cost_model)
    proc = wrt.proc

    recorder = None
    writer = None
    shard_path: Optional[str] = None
    if trace_cfg is not None:
        # Imported here, post-fork: keeps the backend module free of a
        # trace-package dependency cycle and costs nothing in the parent.
        from repro.instrument.wrappers import WrapperLibrary, lifecycle_wrapper
        from repro.trace.recorder import TraceRecorder
        from repro.trace.sinks import FileSink
        from repro.trace.tracefile import TraceFileWriter

        shard_path, compression, flush_every = trace_cfg
        # index_start=rank / index_step=nprocs mints this rank's disjoint
        # slice of the global index space with zero coordination, so the
        # per-rank streams merge back into one strictly increasing order.
        recorder = TraceRecorder(
            nprocs, memory_limit=1, index_start=rank, index_step=nprocs
        )
        WrapperLibrary(wrt, recorder)
        target = lifecycle_wrapper(recorder)(target, rank)
        writer = TraceFileWriter(
            shard_path, nprocs, flush_every, compression=compression
        )
        recorder.subscribe(FileSink(writer, own=False))

    proc.target = target
    comm = Comm(wrt, rank)
    proc.comm = comm
    proc.state = ProcState.RUNNING
    proc.run_target()

    trace_stats: Optional[dict] = None
    if writer is not None:
        try:
            recorder.flush()
            writer.close()
            index = writer._build_index()
            procs: frozenset[int] = (
                frozenset().union(*(b.procs for b in index.blocks))
                if index.blocks
                else frozenset()
            )
            trace_stats = {
                "records": index.records,
                "t_min": index.t_min,
                "t_max": index.t_max,
                "procs": sorted(procs),
                "nbytes": os.stat(shard_path).st_size,
            }
        except Exception:
            # A broken trace must not eat the rank's exit report; the
            # parent falls back to scanning the shard file directly.
            trace_stats = None

    result_data: Optional[bytes] = None
    result_repr: Optional[str] = None
    if proc.result is not None:
        try:
            result_data = pickle.dumps(proc.result)
        except Exception:
            result_repr = repr(proc.result)
    exc_data: Optional[bytes] = None
    exc_repr: Optional[str] = None
    if proc.exception is not None:
        try:
            exc_data = pickle.dumps(proc.exception)
        except Exception:
            exc_repr = repr(proc.exception)
    unmatched: list[bytes] = []
    for msg in wrt.mailbox.queued_messages:
        try:
            unmatched.append(pickle.dumps(msg))
        except Exception:
            pass
    report_q.put(
        (
            "exit",
            rank,
            {
                "state": proc.state.value,
                "result": result_data,
                "result_repr": result_repr,
                "exception": exc_data,
                "exception_repr": exc_repr,
                "traceback": proc.traceback_text,
                "marker": proc.marker,
                "clock": proc.clock.now,
                "waitany_calls": proc.waitany_calls,
                "comm_log": wrt.comm_log.to_jsonable(),
                "messages_sent": wrt.messages_sent,
                "unmatched": unmatched,
                "puts": wrt.puts,
                "gots": wrt.gots,
                "trace": trace_stats,
            },
        )
    )


class MprocBackend(ExecutionBackend):
    """Forked worker per rank; queue transport; counting deadlock detection."""

    name = "mproc"
    supports_debugger = False
    supports_wrappers = False
    supports_ready_send = False
    deterministic = False

    def __init__(
        self,
        policy: Any = "run_to_block",
        seed: int = 0,
        max_grants: Optional[int] = None,
        *,
        trace_path: Optional[Union[str, Path]] = None,
        trace_compression: Union[None, bool, str] = "auto",
        trace_flush_every: Optional[int] = 4096,
    ) -> None:
        super().__init__()
        # The OS schedules workers preemptively: scheduling policies and
        # grant budgets have no token to act on and are ignored.
        del policy, seed, max_grants
        #: shard manifest destination
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self._trace_compression = trace_compression
        self._trace_flush_every = trace_flush_every
        #: rank -> shard stats reported in the worker's exit payload
        self._trace_reports: dict[int, dict] = {}
        self._shard_paths: list[Path] = []
        self._trace_finalized = False
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise MPError(
                "the mproc backend requires the 'fork' start method "
                "(unavailable on this platform)"
            ) from None
        self._inqs: list[Any] = []
        self._report_q: Any = None
        self._workers: list[Any] = []
        self._exited: set[int] = set()
        self._blocked: dict[int, tuple[WaitInfo, int, int]] = {}
        self._parent_gots = 0
        self._ping_token = 0
        self._unmatched: list[Message] = []
        #: rank -> (puts, gots) reported at exit (counter balancing)
        self._exit_counters: dict[int, tuple[int, int]] = {}
        self._shut_down = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def launch(
        self,
        targets: Sequence[Callable[[Comm], Any]],
        *,
        stop_on_entry: bool = False,
    ) -> None:
        if stop_on_entry:
            raise self._debugger_unsupported("stop-on-entry")
        rt = self.runtime
        assert rt is not None
        nprocs = len(targets)
        self._inqs = [self._ctx.Queue() for _ in range(nprocs)]
        self._report_q = self._ctx.Queue()
        for rank, target in enumerate(targets):
            proc = Process(rank, self, target)  # parent-side stub
            proc.state = ProcState.READY
            comm = Comm(rt, rank)
            proc.comm = comm
            rt.procs.append(proc)
            rt.comms.append(comm)
        trace_cfgs: list[Optional[tuple]] = [None] * nprocs
        if self.trace_path is not None:
            from repro.trace.shard import SHARD_TEMPLATE

            self._shard_paths = [
                self.trace_path.parent
                / SHARD_TEMPLATE.format(stem=self.trace_path.stem, num=rank)
                for rank in range(nprocs)
            ]
            trace_cfgs = [
                (str(path), self._trace_compression, self._trace_flush_every)
                for path in self._shard_paths
            ]
        for rank, target in enumerate(targets):
            worker = self._ctx.Process(
                target=_worker_main,
                args=(
                    rank,
                    target,
                    nprocs,
                    self._inqs,
                    self._report_q,
                    rt.replay_log,
                    rt.cost_model,
                    trace_cfgs[rank],
                ),
                name=f"rank{rank}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    def current_proc(self) -> Process:
        raise MPError(
            "current_proc() is not available in the parent under the "
            "mproc backend; ranks run in separate OS processes"
        )

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run_until_idle(self) -> RunReport:
        rt = self.runtime
        assert rt is not None
        nprocs = len(rt.procs)
        while len(self._exited) < nprocs:
            self._drain_exited_queues()
            live = [r for r in range(nprocs) if r not in self._exited]
            suspicious = live and all(r in self._blocked for r in live)
            if suspicious and self._counters_balanced():
                if self._confirm_deadlock(live):
                    self._abort_remaining()
                    self._drain_trace_reports()
                    self._finalize_trace()
                    return self._classify()
            try:
                item = self._report_q.get(timeout=0.1)
            except queue_mod.Empty:
                self._reap_dead_workers()
                continue
            self._handle(item)
        # Every rank exited on its own: reap workers and classify.
        self._join_workers()
        self._finalize_trace()
        return self._classify()

    def _handle(self, item: tuple) -> None:
        rt = self.runtime
        assert rt is not None
        kind, rank = item[0], item[1]
        proc = rt.procs[rank]
        if kind == "blocked":
            _, _, wait, puts, gots = item
            self._blocked[rank] = (wait, puts, gots)
            proc.state = ProcState.BLOCKED
            proc.wait_info = wait
        elif kind == "running":
            self._blocked.pop(rank, None)
            proc.state = ProcState.RUNNING
            proc.wait_info = None
        elif kind == "exit":
            self._blocked.pop(rank, None)
            self._exited.add(rank)
            self._merge_exit(rank, item[2])
        # stray pongs from a cancelled suspicion are ignored

    def _merge_exit(self, rank: int, payload: dict) -> None:
        rt = self.runtime
        assert rt is not None
        proc = rt.procs[rank]
        proc.state = ProcState(payload["state"])
        proc.wait_info = None
        if payload["result"] is not None:
            proc.result = pickle.loads(payload["result"])
        elif payload["result_repr"] is not None:
            proc.result = payload["result_repr"]
        if payload["exception"] is not None:
            try:
                proc.exception = pickle.loads(payload["exception"])
            except Exception:
                proc.exception = MPError(
                    f"rank {rank} raised (unpicklable): {payload['traceback']}"
                )
        elif payload["exception_repr"] is not None:
            proc.exception = MPError(
                f"rank {rank} raised {payload['exception_repr']}"
            )
        proc.traceback_text = payload["traceback"]
        proc.marker = payload["marker"]
        proc.clock.advance_to(payload["clock"])
        proc.waitany_calls = payload["waitany_calls"]
        self._exit_counters[rank] = (payload["puts"], payload["gots"])
        rt.messages_sent += payload["messages_sent"]
        merged = CommLog.from_jsonable(payload["comm_log"])
        rt.comm_log.recv_matches.update(merged.recv_matches)
        rt.comm_log.waitany_choices.update(merged.waitany_choices)
        for data in payload["unmatched"]:
            try:
                self._unmatched.append(pickle.loads(data))
            except Exception:
                pass
        self._capture_trace_payload(rank, payload)

    def _capture_trace_payload(self, rank: int, payload: dict) -> None:
        """Keep the rank's trace contribution for :meth:`_finalize_trace`."""
        stats = payload.get("trace")
        if stats is not None:
            self._trace_reports[rank] = stats

    def _drain_exited_queues(self) -> None:
        """Consume traffic addressed to ranks that already exited, so the
        global put/got counters can balance; keep it as missed messages."""
        for rank in self._exited:
            inq = self._inqs[rank]
            while True:
                try:
                    item = inq.get_nowait()
                except queue_mod.Empty:
                    break
                if item[0] in (_MSG, _ACK):
                    self._parent_gots += 1
                    if item[0] == _MSG:
                        try:
                            self._unmatched.append(pickle.loads(item[1]))
                        except Exception:
                            pass

    def _counters_balanced(self) -> bool:
        puts = sum(p for (_, p, _) in self._blocked.values())
        gots = sum(g for (_, _, g) in self._blocked.values())
        for exit_puts, exit_gots in self._exit_counters.values():
            puts += exit_puts
            gots += exit_gots
        return puts == gots + self._parent_gots

    def _confirm_deadlock(self, live: list[int]) -> bool:
        """Ping wave: true only if every live worker is *still* blocked
        with unchanged counters when it answers."""
        self._ping_token += 1
        token = self._ping_token
        snapshot = dict(self._blocked)
        for rank in live:
            self._inqs[rank].put((_PING, token))
        pongs: dict[int, tuple[bool, int, int]] = {}
        deadline = time.monotonic() + 2.0
        while len(pongs) < len(live):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                item = self._report_q.get(timeout=remaining)
            except queue_mod.Empty:
                return False
            if item[0] == "pong" and item[2] == token:
                pongs[item[1]] = (item[3], item[4], item[5])
            else:
                # Any other report is progress: requeue-equivalent is to
                # handle it now and cancel the suspicion.
                self._handle(item)
                return False
        for rank in live:
            still_blocked, puts, gots = pongs[rank]
            old = snapshot.get(rank)
            if not still_blocked or old is None:
                return False
            if (puts, gots) != (old[1], old[2]):
                return False
        return True

    def _reap_dead_workers(self) -> None:
        """A worker that died without an exit report (crash, kill -9)
        would otherwise hang the loop; surface it as an error."""
        rt = self.runtime
        assert rt is not None
        for rank, worker in enumerate(self._workers):
            if rank in self._exited or worker.is_alive():
                continue
            # Give a just-exited worker a moment to flush its report.
            try:
                item = self._report_q.get(timeout=0.2)
            except queue_mod.Empty:
                item = None
            if item is not None:
                self._handle(item)
                if rank in self._exited:
                    continue
            proc = rt.procs[rank]
            proc.state = ProcState.ERRORED
            proc.exception = MPError(
                f"rank {rank} worker died with exit code {worker.exitcode} "
                "without reporting"
            )
            proc.wait_info = None
            self._blocked.pop(rank, None)
            self._exited.add(rank)

    def _classify(self) -> RunReport:
        rt = self.runtime
        assert rt is not None
        stopped: list[Process] = []
        blocked = [p for p in rt.procs if p.state is ProcState.BLOCKED]
        errored = [p for p in rt.procs if p.state is ProcState.ERRORED]
        report = RunReport(
            outcome=RunOutcome.FINISHED,
            stopped=stopped,
            blocked=blocked,
            errored=errored,
            waiting=[p.wait_info for p in blocked if p.wait_info is not None],
            grants=0,
        )
        if errored:
            report.outcome = RunOutcome.ERROR
        elif blocked:
            report.outcome = RunOutcome.DEADLOCK
        return report

    # ------------------------------------------------------------------
    # trace finalization (merge-free recording)
    # ------------------------------------------------------------------
    def _drain_trace_reports(self) -> None:
        """Harvest trace payloads from exit reports after an abort.

        An aborted worker still finishes its shard file and sends an
        exit report, but feeding that report through :meth:`_handle`
        would flip a BLOCKED proc to KILLED and destroy the deadlock
        snapshot the parent just confirmed.  So this drain extracts
        ONLY the trace contribution and leaves proc states untouched.
        """
        if self.trace_path is None or self._report_q is None:
            return
        while True:
            try:
                item = self._report_q.get(timeout=0.2)
            except (queue_mod.Empty, OSError, ValueError):
                return
            if item[0] == "exit":
                self._capture_trace_payload(item[1], item[2])

    def _finalize_trace(self) -> None:
        """Write the shard manifest exactly once, after the workers are
        done."""
        if self.trace_path is None or self._trace_finalized:
            return
        self._trace_finalized = True
        from repro.trace.shard import ShardInfo, scan_shard_info, write_manifest

        rt = self.runtime
        nprocs = len(rt.procs) if rt is not None else len(self._workers)
        infos = []
        for rank, shard_path in enumerate(self._shard_paths):
            stats = self._trace_reports.get(rank)
            if stats is not None:
                infos.append(
                    ShardInfo(
                        path=shard_path.name,
                        records=stats["records"],
                        t_min=stats["t_min"],
                        t_max=stats["t_max"],
                        procs=frozenset(stats["procs"]),
                        nbytes=stats["nbytes"],
                    )
                )
                continue
            # The worker died before reporting (or its report was lost):
            # recover what its shard file actually holds.
            info = scan_shard_info(shard_path)
            if info is not None:
                infos.append(info)
        write_manifest(self.trace_path, nprocs, infos, by="proc")

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _abort_remaining(self) -> None:
        """Stop live workers, keeping the parent's blocked/wait snapshot."""
        for rank, worker in enumerate(self._workers):
            if rank not in self._exited and worker.is_alive():
                try:
                    self._inqs[rank].put((_ABORT,))
                except Exception:
                    pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)

    def _join_workers(self) -> None:
        for worker in self._workers:
            worker.join(timeout=2.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)

    def shutdown(self) -> None:
        if self._shut_down:
            return
        self._shut_down = True
        self._abort_remaining()
        if not self._trace_finalized:
            self._drain_trace_reports()
            self._finalize_trace()
        for q in self._inqs:
            q.cancel_join_thread()
            q.close()
        if self._report_q is not None:
            self._report_q.cancel_join_thread()
            self._report_q.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def unmatched_sends(self) -> list[Message]:
        return list(self._unmatched)
