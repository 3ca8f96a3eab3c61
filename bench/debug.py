"""``debug``: the paper's interactive loop on small traces.

Each round has three parts:

1. the Figure 7 localization on buggy Strassen@8: run to the deadlock,
   ask for the deadlock report, set a stopline before the first operand
   send, replay, and step process 0 to the send with the wrong
   destination;
2. ten cycles of the §4 loop on a 64-rank halo exchange: restart,
   set a stopline (vertical and past-frontier in turn), replay to it,
   step one process, undo, continue, and compute a frontier; one cycle
   is the workload's operation;
3. two schedule-space explorations: master/worker@16 (16 schedules,
   where building candidates dominates) and schedbug@4 to depth 2.

Re-execution, stoplines and candidate generation do the work; the
traces are a few thousand events, so the store and the paged index sit
idle.

The loop program is the 1-D blocking halo exchange rather than halo2d:
halo2d completes its receives in ``waitall``, which the wrapper library
does not record, so its trace has no receive records and a past-frontier
replay cannot reach its stopline.  Each cycle starts with a full replay
without checkpoints because a checkpointed replay records only the
suffix after its checkpoint, and a past-frontier stopline computed from
that partial trace is not reachable either.
"""

from __future__ import annotations

import random
import statistics

from repro.analysis import analyze_frontiers, is_consistent_frontier
from repro.apps import halo_program, master_worker_program, schedbug_program
from repro.apps import strassen as st
from repro.debugger import DebugSession
from repro.debugger.stopline import StoplinePlacement, verify_stopline_consistency
from repro.explore import ExploreContext, explore, run_base, schedule_candidates
from repro.mp import RunOutcome

from .harness import Run, percentile, ratio

BACKEND = "simtime"
NPROCS = 64
CYCLES = 10
#: the Figure 7 search: the buggy send must show up within this many steps
FIG7_STEPS = 4
#: op_tail_ms percentile: a run makes about 50 cycles
TAIL = 75


def _sizes(quick: bool) -> dict:
    if quick:
        return {"steps": 3, "mw_procs": 8, "schedules": 4}
    return {"steps": 4, "mw_procs": 16, "schedules": 16}


def stopped_at(session: DebugSession, thresholds) -> bool:
    """Did every thresholded rank stop exactly at its marker?  Read
    through the session's public marker vector."""
    markers = session.markers()
    return all(markers.get(rank) == thresholds[rank] for rank in thresholds)


class Events:
    """Trace events the debugger's executions record (the throughput
    numerator): each replay starts a fresh recorder."""

    def __init__(self) -> None:
        self.total = 0
        self._recorder = None
        self._seen = 0

    def count(self, session: DebugSession) -> None:
        recorder = session.recorder
        if recorder is not self._recorder:
            self._recorder, self._seen = recorder, 0
        self.total += recorder.total_recorded - self._seen
        self._seen = recorder.total_recorded


def fig7(run: Run, events: Events) -> float:
    """Part 1; returns its latency."""
    cfg = st.StrassenConfig(n=16, nprocs=8, buggy=True)
    start = run.busy
    session = run.timed("fig7_open", "debugger", DebugSession,
                        st.strassen_program(cfg), 8, backend=BACKEND)
    try:
        first = run.timed("fig7_run", "debugger", session.run)
        report = run.timed("deadlock_report", "debugger", session.deadlock_report)
        with run.spans.span("inspect", "bench"):
            first_send = next(r for r in session.trace().by_proc(0) if r.is_send)
        stopline = run.timed("fig7_stopline", "debugger", session.set_stopline,
                             first_send.index)
        replayed = run.timed("fig7_replay", "debugger", session.replay)
        with run.spans.span("check", "bench"):
            reached = stopped_at(session, stopline.thresholds)
        session.clear_thresholds()
        bug = None
        for _ in range(FIG7_STEPS):
            run.timed("fig7_step", "debugger", session.step, 0)
            with run.spans.span("inspect", "bench"):
                sends = [r for r in session.trace().by_proc(0) if r.is_send]
            if sends and sends[-1].tag == st.TAG_OPERAND_B and sends[-1].dst != 1:
                bug = sends[-1]
                break
        events.count(session)
    finally:
        run.timed("fig7_close", "debugger", session.shutdown, count=False)
    latency = run.busy - start
    with run.spans.span("check", "bench"):
        run.check(first.outcome is RunOutcome.DEADLOCK and report.deadlocked,
                  f"Figure 7 run ended {first.outcome.value}, not in a deadlock")
        run.check(replayed.outcome is RunOutcome.STOPPED and reached,
                  "Figure 7 replay did not stop at its stopline")
        run.check(bug is not None and bug.dst == 0,
                  f"Figure 7: no dst==0 send within {FIG7_STEPS} steps")
    return latency


def _frontier(session: DebugSession):
    """The user's frontier command: index this generation, analyze the
    event halfway through it."""
    idx = session.index()
    return idx, analyze_frontiers(idx.trace, len(idx) // 2, index=idx)


def cycle(run: Run, session: DebugSession, rng: random.Random, k: int,
          expected: list, events: Events) -> float:
    """One part-2 cycle; returns its latency (the workload's op).  The
    checks between calls run in spans of their own, outside the timing."""
    start = run.busy
    restarted = run.timed("restart", "debugger", session.replay, {},
                          use_checkpoint=False)
    events.count(session)
    with run.spans.span("inspect", "bench"):
        # the user clicks a message in the middle half of the time-space
        # diagram, cycle k in its k-th slice, so every round replays to
        # the same depths (a lifecycle record carries marker 0, which no
        # construct reaches); a full recording indexes records by position
        records = session.recorder.records
        step = len(records) // (2 * CYCLES)
        lo = len(records) // 4 + k * step
        anchor = rng.choice([
            i for i in range(lo, lo + step)
            if records[i].is_send or records[i].is_recv
        ])
    placement = (StoplinePlacement.VERTICAL if k % 2 == 0
                 else StoplinePlacement.PAST_FRONTIER)
    stopline = run.timed("stopline", "debugger", session.set_stopline,
                         anchor, placement)
    with run.spans.span("check", "bench"):
        idx = session.index()
        consistent = verify_stopline_consistency(idx.trace, stopline, index=idx)
    replayed = run.timed("replay", "debugger", session.replay)
    events.count(session)
    with run.spans.span("check", "bench"):
        reached = stopped_at(session, stopline.thresholds)
    session.clear_thresholds()
    run.timed("step", "debugger", session.step, rng.randrange(NPROCS))
    events.count(session)
    target = session.stop_history[-2]
    undone = run.timed("undo", "debugger", session.undo)
    events.count(session)
    with run.spans.span("check", "bench"):
        returned = stopped_at(session, target)
    session.clear_thresholds()
    finished = run.timed("cont", "debugger", session.cont)
    events.count(session)
    idx, frontier = run.timed("frontier", "analysis", _frontier, session)
    latency = run.busy - start
    with run.spans.span("check", "bench"):
        run.check(restarted.outcome is RunOutcome.FINISHED,
                  f"restart ended {restarted.outcome.value}")
        run.check(consistent, f"{placement.value} stopline is inconsistent")
        run.check(replayed.outcome is RunOutcome.STOPPED and reached,
                  f"replay missed its {placement.value} stopline")
        run.check(undone.outcome is RunOutcome.STOPPED and returned,
                  "undo did not return to the previous stop")
        run.check(finished.outcome is RunOutcome.FINISHED
                  and session.results() == expected,
                  "continuing after undo changed the results")
        run.check(is_consistent_frontier(
            idx.trace, frontier.past_frontier.indexes(), index=idx),
            "inconsistent past frontier")
    return latency


def explorations(run: Run, sizes: dict) -> tuple[list, int]:
    """Part 3; returns the reports and the events their runs recorded."""
    procs = sizes["mw_procs"]
    program = master_worker_program(n_tasks=2 * procs, task_cost=1.0)
    if run.spans.enabled:
        # explore() runs the base run and builds candidates inside one
        # call; time those inner public calls separately
        ctx = ExploreContext(program=program, nprocs=procs, backend=BACKEND)
        base = run.timed("explore_base", "explore", run_base, ctx, count=False)
        candidates = run.timed("explore_candidates", "explore",
                               schedule_candidates, base, ctx, count=False)
        run.metrics["explore.candidates"] = float(len(candidates))
    clean = run.timed("explore_mw", "explore", explore, program, procs,
                      max_schedules=sizes["schedules"], batch="serial",
                      backend=BACKEND, program_name="master_worker")
    buggy = run.timed("explore_schedbug", "explore", explore,
                      schedbug_program(n_tasks=6, task_cost=1.0), 4, depth=2,
                      batch="serial", backend=BACKEND, program_name="schedbug")
    with run.spans.span("check", "bench"):
        run.check(clean.explored > 0 and not clean.schedule_sensitive,
                  "master/worker exploration found a bad schedule")
        run.check(buggy.counts["divergent"] > 0,
                  "schedbug exploration found no divergent schedule")
    reports = [clean, buggy]
    recorded = sum(r.base_events + sum(o.events for o in r.outcomes)
                   for r in reports)
    return reports, recorded


def _open_session(steps: int) -> tuple[DebugSession, list]:
    session = DebugSession(halo_program(steps=steps, width=8), NPROCS,
                           backend=BACKEND)
    session.run()
    return session, session.results()


def debug(run: Run) -> None:
    sizes = _sizes(run.quick)
    session, expected = run.setup(
        lambda k: _open_session(sizes["steps"]), lambda s: s[0].shutdown()
    )
    rng = random.Random(run.seed)
    events = Events()
    cycles = []
    session_s = []
    reports = []
    explored_events = 0
    start = run.busy
    try:
        for _ in run.rounds():
            part1 = fig7(run, events)
            loop = [cycle(run, session, rng, k, expected, events)
                    for k in range(CYCLES)]
            cycles.extend(loop)
            session_s.append(part1 + sum(loop))
            done, recorded = explorations(run, sizes)
            reports.extend(done)
            explored_events += recorded
    finally:
        session.shutdown()
    run.samples["cycle"] = cycles
    run.finish("cycle", TAIL, events.total + explored_events, run.busy - start)
    replays = run.samples["replay"] + run.samples["undo"]
    attempted = sum(r.explored + r.converged + r.deduped for r in reports)
    explore_s = sum(run.samples["explore_mw"]) + sum(run.samples["explore_schedbug"])
    run.metrics.update({
        "debugger.stopline_ms": run.median_ms("stopline"),
        "debugger.replay_ms": run.median_ms("replay"),
        "debugger.undo_ms": run.median_ms("undo"),
        "debugger.step_ms": run.median_ms("step"),
        "debugger.cont_ms": run.median_ms("cont"),
        "debugger.restart_ms": run.median_ms("restart"),
        "debugger.deadlock_report_ms": run.median_ms("deadlock_report"),
        "debugger.replay_p80_ms": 1e3 * percentile(replays, 80),
        "debugger.session_s": statistics.median(session_s),
        "analysis.frontiers_p50_ms": run.median_ms("frontier"),
        "explore.dedup_ratio": ratio(
            sum(r.converged + r.deduped for r in reports), attempted),
        "explore.schedules_per_s": ratio(
            sum(r.explored for r in reports), explore_s),
    })
    if run.spans.enabled:
        base = run.median("explore_base")
        candidates = run.median("explore_candidates")
        run.metrics.update({
            "explore.base_s": base,
            "explore.candidates_s": candidates,
            "explore.replay_s": run.median("explore_mw") - base - candidates,
        })
    run.notes.append(
        f"{len(cycles)} loop cycles on halo@{NPROCS} x {sizes['steps']} "
        f"steps: replay p50 {run.metrics['debugger.replay_ms']:.1f} ms; "
        f"master_worker@{sizes['mw_procs']} and schedbug@4 explored at "
        f"{run.metrics['explore.schedules_per_s']:.1f} schedules/s"
    )
