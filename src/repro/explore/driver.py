"""The schedule-space exploration driver.

Turns the §4.2 replay machinery into a nondeterminism fuzzer (ROADMAP
item 4, after MAD's event manipulation):

1. record one instrumented base run and index it;
2. enumerate race points (:func:`~repro.analysis.races.detect_races`)
   and build one steered forcing log per deliverable alternative
   (:func:`~repro.analysis.races.steer_to_alternative`);
3. replay candidates depth-bounded DFS-style, deduplicating forced
   prefixes by marker-extended matching fingerprint and realized
   schedules by full fingerprint -- every explored schedule is replayed
   exactly once;
4. classify each replay (clean / numeric divergence / deadlock /
   crash, with :func:`~repro.trace.diff.diff_traces` locating the first
   divergent event per process) and, below the depth bound, expand the
   replayed trace's *new* races into the next candidates;
5. batch replays through an executor -- serial, or a pool of forked
   workers (``batch="mproc"``) for throughput.

The result is an :class:`~repro.explore.report.ExplorationReport`: a
verdict ("schedule-insensitive over the explored space" or the precise
forcing log + first divergence of every schedule that went wrong).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.analysis.races import matching_fingerprint
from repro.mp.runtime import ProgramSpec

from .batch import make_executor
from .context import (
    ExploreContext,
    run_base,
    schedule_candidates,
)
from .report import ExplorationReport, ScheduleOutcome, ScheduleStatus


def explore(
    program: ProgramSpec,
    nprocs: int,
    *,
    depth: int = 1,
    max_schedules: int = 64,
    batch: str = "serial",
    workers: int = 4,
    policy: str = "run_to_block",
    seed: int = 0,
    backend: str = "simtime",
    include_tag_wildcards: bool = True,
    max_alternatives: Optional[int] = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    program_name: Optional[str] = None,
) -> ExplorationReport:
    """Systematically explore the matching space of ``program``.

    Parameters
    ----------
    depth:
        How many steers may be stacked: 1 explores every alternative of
        the base run's races; 2 additionally explores the races newly
        exposed by those schedules, and so on.
    max_schedules:
        Replay budget; candidates beyond it are counted as ``pending``.
    batch, workers:
        ``"serial"`` replays in-process; ``"mproc"`` fans replays out
        over ``workers`` forked processes.
    backend:
        Only ``"simtime"``; kept while ``bench/`` passes it (see
        :class:`~repro.mp.runtime.Runtime`).
    max_alternatives:
        Cap on alternatives steered per race point.  Cut alternatives
        are counted in the report's ``truncated``; alternatives that
        cannot be steered by one forced receive in ``unsteerable``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if max_schedules < 1:
        raise ValueError(f"max_schedules must be >= 1, got {max_schedules}")

    t0 = time.perf_counter()
    ctx = ExploreContext(
        program=program,
        nprocs=nprocs,
        policy=policy,
        seed=seed,
        backend=backend,
        include_tag_wildcards=include_tag_wildcards,
        max_alternatives=max_alternatives,
        rtol=rtol,
        atol=atol,
    )
    base = run_base(ctx)
    root = schedule_candidates(base, ctx)

    report = ExplorationReport(
        program=program_name or getattr(program, "__name__", repr(program)),
        nprocs=nprocs,
        depth=depth,
        batch=batch,
        races_at_root=len({c["race_key"] for c in root}),
        base_events=len(base.trace),
        unsteerable=root.unsteerable,
        truncated=root.truncated,
    )

    #: forced-prefix fingerprints already scheduled (pre-replay dedup)
    visited: set[tuple] = {c["fingerprint"] for c in root}
    #: realized full matchings already observed (post-replay dedup)
    realized: set[tuple] = {matching_fingerprint(base.comm_log)}

    # DFS stack of (candidate, depth); reversed so the first-found race
    # is explored first.
    stack: list[tuple[dict, int]] = [(c, 1) for c in reversed(root)]
    next_id = 0

    with make_executor(batch, ctx, base, workers=workers) as executor:
        while stack and next_id < max_schedules:
            wave_budget = min(executor.wave_size, max_schedules - next_id)
            wave: list[tuple[dict, int]] = []
            jobs: list[dict] = []
            while stack and len(jobs) < wave_budget:
                candidate, cand_depth = stack.pop()
                job = {
                    "id": next_id,
                    "log": candidate["log"],
                    "expand": cand_depth < depth,
                }
                next_id += 1
                wave.append((candidate, cand_depth))
                jobs.append(job)
            for (candidate, cand_depth), result in zip(
                wave, executor.run(jobs)
            ):
                fp = result["realized"]
                if fp is not None:
                    fp = tuple(fp)
                    if fp in realized:
                        report.converged += 1
                        continue
                    realized.add(fp)
                report.outcomes.append(
                    ScheduleOutcome(
                        schedule_id=result["id"],
                        depth=cand_depth,
                        steer=candidate["steer"],
                        fingerprint=candidate["fingerprint"],
                        forcing_log=candidate["log"],
                        status=ScheduleStatus(result["status"]),
                        divergences=result["divergences"],
                        result_repr=result["result_repr"],
                        error=result["error"],
                        blocked=result["blocked"],
                        events=result["events"],
                        wall=result["wall"],
                    )
                )
                report.unsteerable += result["unsteerable"]
                report.truncated += result["truncated"]
                for child in reversed(result["candidates"]):
                    if child["fingerprint"] in visited:
                        report.deduped += 1
                        continue
                    visited.add(child["fingerprint"])
                    stack.append((child, cand_depth + 1))

    report.pending = len(stack)
    report.wall = time.perf_counter() - t0
    return report
