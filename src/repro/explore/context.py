"""Shared per-schedule work: traced replay, classification, expansion.

Both replay executors (serial in-process and the forked mproc pool) run
the same job function, :func:`run_schedule_job`, against an
:class:`ExploreContext` + :class:`BaseRun` pair.  The pair is built once
by the driver and -- under the pool -- inherited by workers across the
``fork``, so jobs and results crossing process boundaries are small
JSON-able dicts (a forcing log in, a classification + next-depth
candidates out), never traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.history import ensure_index
from repro.analysis.races import (
    UnsteerableAlternativeError,
    detect_races,
    matching_fingerprint,
    steer_to_alternative,
)
from repro.instrument.wrappers import WrapperLibrary
from repro.mp.record import CommLog
from repro.mp.runtime import ProgramSpec, Runtime
from repro.mp.scheduler import RunOutcome
from repro.trace.diff import (
    diff_traces,
    first_divergence_locations,
    results_equal,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.trace import Trace

from .report import ScheduleStatus


@dataclass
class ExploreContext:
    """Everything needed to re-execute and judge one schedule."""

    program: ProgramSpec
    nprocs: int
    policy: str = "run_to_block"
    seed: int = 0
    #: execution backend; must be cooperative (wrappers record the trace)
    backend: str = "simtime"
    include_tag_wildcards: bool = True
    #: cap on alternatives steered per race point (None = all)
    max_alternatives: Optional[int] = None
    rtol: float = 1e-9
    atol: float = 1e-12


@dataclass
class TracedRun:
    """One instrumented execution, reduced to what exploration needs."""

    outcome: RunOutcome
    trace: Trace
    comm_log: CommLog
    results: list
    blocked: list[str] = field(default_factory=list)
    error: Optional[str] = None


class BaseRunFailed(RuntimeError):
    """The un-steered base run did not finish cleanly."""


def run_traced(
    ctx: ExploreContext, replay_log: Optional[CommLog] = None
) -> TracedRun:
    """One instrumented execution of the context's program.

    Never raises on program failure: crashes and deadlocks are outcomes
    to classify, not errors.  The runtime is always shut down, so no
    execution threads outlive the call.
    """
    rt = Runtime(
        ctx.nprocs,
        backend=ctx.backend,
        policy=ctx.policy,
        seed=ctx.seed,
        replay_log=replay_log,
    )
    recorder = TraceRecorder(ctx.nprocs)
    WrapperLibrary(rt, recorder)
    try:
        report = rt.run(ctx.program, raise_errors=False)
        error = None
        exc = rt.first_exception()
        if exc is not None:
            error = f"{type(exc).__name__}: {exc}"
        blocked = [str(w) for w in report.waiting]
        if report.outcome is RunOutcome.LIMIT and error is None:
            error = "scheduler grant budget exhausted"
        return TracedRun(
            outcome=report.outcome,
            trace=recorder.snapshot(),
            comm_log=rt.comm_log,
            results=rt.results(),
            blocked=blocked,
            error=error,
        )
    finally:
        rt.shutdown()


def run_base(ctx: ExploreContext) -> TracedRun:
    """The recorded reference run; exploration needs it clean."""
    base = run_traced(ctx)
    if base.outcome is not RunOutcome.FINISHED:
        detail = base.error or "; ".join(base.blocked) or base.outcome.value
        raise BaseRunFailed(
            f"the base run did not finish ({base.outcome.value}): {detail} "
            "-- record a clean reference execution before exploring its "
            "schedule space"
        )
    return base


# ----------------------------------------------------------------------
# candidate generation
# ----------------------------------------------------------------------
class Candidates(list):
    """Candidate dicts, plus counts of the alternatives left out.

    ``unsteerable`` counts alternatives whose steer raised
    :class:`~repro.analysis.races.UnsteerableAlternativeError`;
    ``truncated`` counts those cut by ``max_alternatives``.  Either one
    nonzero means the explored space is smaller than the race space.
    """

    unsteerable = 0
    truncated = 0


def schedule_candidates(run: TracedRun, ctx: ExploreContext) -> Candidates:
    """All steered forcing logs one run's races admit, as JSON-able
    candidate dicts ``{fingerprint, log, steer}``.

    The fingerprint is the steered log's matching fingerprint extended
    with the racing receive's execution marker
    (:func:`~repro.analysis.races.matching_fingerprint`), the dedup key
    of the DFS: two candidates forcing the same prefix at the same steer
    point are the same schedule.
    """
    idx = ensure_index(run.trace)
    races = detect_races(
        run.trace,
        index=idx,
        include_tag_wildcards=ctx.include_tag_wildcards,
    )
    candidates = Candidates()
    for race in races:
        alternatives = race.alternatives
        if ctx.max_alternatives is not None:
            candidates.truncated += max(0, len(alternatives) - ctx.max_alternatives)
            alternatives = alternatives[: ctx.max_alternatives]
        for alt in alternatives:
            try:
                steered = steer_to_alternative(
                    run.comm_log, run.trace, race, alt, index=idx
                )
            except UnsteerableAlternativeError:
                # Consumed by a forced-prefix receive: reaching that
                # matching needs a multi-receive exchange, outside the
                # single-steer space this driver enumerates.
                candidates.unsteerable += 1
                continue
            fp = matching_fingerprint(
                steered, markers={race.recv.proc: race.recv.marker}
            )
            steer = (
                f"p{race.recv.proc} recv marker {race.recv.marker} "
                f"({race.recv.location}) takes {alt.src}->{alt.dst}"
                f"#{alt.seq} tag {alt.tag} instead of "
                f"{race.matched_send.src}->{race.matched_send.dst}"
                f"#{race.matched_send.seq}"
            )
            candidates.append(
                {
                    "fingerprint": fp,
                    "log": steered.to_jsonable(),
                    "steer": steer,
                    "race_key": (race.recv.proc, race.recv.marker),
                }
            )
    return candidates


# ----------------------------------------------------------------------
# the job function both executors run
# ----------------------------------------------------------------------
def classify(run: TracedRun, base: TracedRun, ctx: ExploreContext) -> ScheduleStatus:
    if run.outcome is RunOutcome.ERROR or run.outcome is RunOutcome.LIMIT:
        return ScheduleStatus.CRASH
    if run.outcome is RunOutcome.DEADLOCK:
        return ScheduleStatus.DEADLOCK
    if results_equal(run.results, base.results, ctx.rtol, ctx.atol):
        return ScheduleStatus.CLEAN
    return ScheduleStatus.DIVERGENT


def run_schedule_job(ctx: ExploreContext, base: TracedRun, job: dict) -> dict:
    """Replay one steered schedule and judge it.

    ``job`` carries ``{id, log, expand}``; the result mirrors it with
    the classification, divergence locations vs the base trace, the
    realized full-matching fingerprint (for convergence dedup), and --
    when ``expand`` -- the next depth's candidates derived from the
    replayed trace, with the counts of alternatives they left out.
    """
    t0 = time.perf_counter()
    steered = CommLog.from_jsonable(job["log"])
    run = run_traced(ctx, replay_log=steered)
    status = classify(run, base, ctx)
    divergences: list[dict] = []
    if status is not ScheduleStatus.CLEAN:
        divergences = first_divergence_locations(diff_traces(base.trace, run.trace))
    candidates = Candidates()
    if job.get("expand") and status in (
        ScheduleStatus.CLEAN,
        ScheduleStatus.DIVERGENT,
    ):
        candidates = schedule_candidates(run, ctx)
    result_repr = None
    if run.outcome is RunOutcome.FINISHED:
        result_repr = repr(run.results[0])
    return {
        "id": job["id"],
        "status": status.value,
        "realized": matching_fingerprint(run.comm_log),
        "divergences": divergences,
        "result_repr": result_repr,
        "error": run.error,
        "blocked": run.blocked,
        "events": len(run.trace),
        "wall": time.perf_counter() - t0,
        "candidates": list(candidates),
        "unsteerable": candidates.unsteerable,
        "truncated": candidates.truncated,
    }
