"""Replay executors: serial in-process, and a forked worker pool.

The driver hands both the same JSON-able job dicts; they differ only in
*where* :func:`~repro.explore.context.run_schedule_job` runs:

* :class:`SerialReplayExecutor` -- in the calling process, one job at a
  time.
* :class:`MprocReplayExecutor` (``batch="mproc"``) -- a persistent pool
  of ``fork``-ed worker processes, each replaying on its own simtime
  runtime.  Workers inherit the program, base trace, and context at fork
  time, so only forcing logs and outcome summaries cross the
  ``multiprocessing`` queues, and multiple replays overlap across OS
  processes.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from typing import Any

from repro.mp.errors import MPError

from .context import BaseRunFailed, ExploreContext, TracedRun, run_schedule_job

#: how long (seconds) the pool waits on one job's result before deciding
#: the worker died; replays are sub-second, so this is generous.
RESULT_TIMEOUT = 120.0


class SerialReplayExecutor:
    """Reference executor: replay every schedule in the calling process."""

    name = "serial"
    #: jobs the driver should hand over per wave (1 = strict DFS order)
    wave_size = 1

    def __init__(self, ctx: ExploreContext, base: TracedRun) -> None:
        self.ctx = ctx
        self.base = base

    def run(self, jobs: list[dict]) -> list[dict]:
        return [run_schedule_job(self.ctx, self.base, job) for job in jobs]

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialReplayExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _pool_worker(
    ctx: ExploreContext, base: TracedRun, job_q: Any, result_q: Any
) -> None:
    """Worker loop: drain jobs until the ``None`` sentinel."""
    while True:
        job = job_q.get()
        if job is None:
            return
        try:
            result = run_schedule_job(ctx, base, job)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            result = {
                "id": job["id"],
                "status": "crash",
                "realized": None,
                "divergences": [],
                "result_repr": None,
                "error": f"explorer worker failed: {type(exc).__name__}: {exc}",
                "blocked": [],
                "events": 0,
                "wall": 0.0,
                "candidates": [],
                "unsteerable": 0,
                "truncated": 0,
            }
        result_q.put(result)


class MprocReplayExecutor:
    """Persistent forked pool; jobs fan out, summaries fan back in."""

    name = "mproc"

    def __init__(
        self,
        ctx: ExploreContext,
        base: TracedRun,
        workers: int = 4,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need >= 1 worker, got {workers}")
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:
            raise MPError(
                "the mproc replay executor requires the 'fork' start "
                "method (unavailable on this platform); use batch='serial'"
            ) from None
        self.ctx = ctx
        self.base = base
        self.workers = workers
        self.wave_size = 2 * workers
        self._job_q: Any = None
        self._result_q: Any = None
        self._procs: list[Any] = []

    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._procs:
            return
        self._job_q = self._mp.Queue()
        self._result_q = self._mp.Queue()
        for i in range(self.workers):
            proc = self._mp.Process(
                target=_pool_worker,
                args=(self.ctx, self.base, self._job_q, self._result_q),
                name=f"explore-worker-{i}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def run(self, jobs: list[dict]) -> list[dict]:
        """Execute one wave; results return in job order."""
        if not jobs:
            return []
        self._ensure_started()
        for job in jobs:
            self._job_q.put(job)
        by_id: dict[int, dict] = {}
        while len(by_id) < len(jobs):
            try:
                result = self._result_q.get(timeout=RESULT_TIMEOUT)
            except queue_mod.Empty:
                self.close()
                raise MPError(
                    f"explore pool timed out after {RESULT_TIMEOUT:.0f}s "
                    f"waiting for {len(jobs) - len(by_id)} of {len(jobs)} "
                    "replay result(s); worker process(es) presumed dead"
                ) from None
            by_id[result["id"]] = result
        return [by_id[job["id"]] for job in jobs]

    def close(self) -> None:
        if not self._procs:
            return
        for _ in self._procs:
            try:
                self._job_q.put(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
        for q in (self._job_q, self._result_q):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._job_q = self._result_q = None

    def __enter__(self) -> "MprocReplayExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def make_executor(
    batch: str,
    ctx: ExploreContext,
    base: TracedRun,
    workers: int = 4,
):
    """Executor factory: ``batch`` is ``"serial"`` or ``"mproc"``."""
    if batch == "serial":
        return SerialReplayExecutor(ctx, base)
    if batch == "mproc":
        return MprocReplayExecutor(ctx, base, workers=workers)
    raise ValueError(f"unknown batch mode {batch!r}; expected 'serial' or 'mproc'")
