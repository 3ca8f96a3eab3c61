"""Schedule-space exploration throughput: serial vs the forked pool.

The explorer's batch path exists for one reason: replaying dozens of
steered schedules one at a time in-process is the slow way to sweep a
schedule space.  The mproc executor forks a persistent worker pool so
replays overlap across OS processes; replaying one candidate wave
through it must be **>= 2x** faster than the serial sweep, at identical
classifications (asserted -- the speed is worthless if the verdicts
differ).  Both sides replay on the ``simtime`` engine.  Both executors replay the same candidates of the same
recorded base run, so the comparison isolates exactly what the batch
knob changes.

Results land in ``benchmarks/results/explore.txt``, with a >2x
regression gate against the committed baseline in
``explore_baseline.json`` (same pattern as the backend-compare gate in
the CI benchmark smoke job).
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import RESULTS_DIR, write_artifact
from repro.apps import master_worker_program
from repro.explore import (
    ExploreContext,
    make_executor,
    run_base,
    schedule_candidates,
)

NPROCS = 96
N_TASKS = 2 * NPROCS
MAX_SCHEDULES = 12
WORKERS = 4

BASELINE = RESULTS_DIR / "explore_baseline.json"
#: CI regression gate: fail when measured throughput metrics drop below
#: baseline/REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0
#: absolute floor: batched replays must beat the serial sweep by >= 2x.
MIN_SPEEDUP = 2.0


def replay_wave(batch: str, ctx, base, jobs, reps: int = 1):
    """Run one wave of replay jobs; returns (wall, status list).

    One untimed warmup job first: the pool forks its workers lazily on
    the first wave, and a long exploration amortizes that cost, so the
    measurement is steady-state throughput.  ``reps`` takes the best of
    several timed waves (used on the cheap side to shield the speedup
    floor from noise, as in the backend-compare benchmark).
    """
    best = float("inf")
    with make_executor(batch, ctx, base, workers=WORKERS) as executor:
        executor.run([jobs[0]])
        for _ in range(reps):
            t0 = time.perf_counter()
            results = executor.run(jobs)
            best = min(best, time.perf_counter() - t0)
    return best, [r["status"] for r in results]


def test_batched_replay_speedup():
    ctx = ExploreContext(
        program=master_worker_program(n_tasks=N_TASKS, task_cost=1.0),
        nprocs=NPROCS,
    )
    base = run_base(ctx)
    candidates = schedule_candidates(base, ctx)[:MAX_SCHEDULES]
    assert len(candidates) == MAX_SCHEDULES, (
        f"expected >= {MAX_SCHEDULES} steerable candidates at {NPROCS} "
        f"ranks, got {len(candidates)}"
    )
    jobs = [
        {"id": i, "log": c["log"], "expand": False}
        for i, c in enumerate(candidates)
    ]

    # serial = the debugger-default path: one replay at a time,
    # in-process.
    serial_wall, serial_statuses = replay_wave("serial", ctx, base, jobs)
    # mproc = the throughput path: forked pool, overlapping replays.
    mproc_wall, mproc_statuses = replay_wave("mproc", ctx, base, jobs, reps=2)

    # Same candidates, same verdicts (results return in job order).
    assert serial_statuses == mproc_statuses
    assert set(serial_statuses) == {"clean"}  # master/worker is commutative

    speedup = serial_wall / mproc_wall
    assert speedup >= MIN_SPEEDUP, (
        f"batched replay speedup is {speedup:.1f}x at {NPROCS} ranks, "
        f"below the {MIN_SPEEDUP}x floor"
    )

    # -- regression gate against the recorded baseline -----------------
    gate_lines = ["baseline: (none; recorded this run)"]
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        floor = baseline["speedup"] / REGRESSION_FACTOR
        rate_floor = baseline["mproc_schedules_per_sec"] / REGRESSION_FACTOR
        gate_lines = [
            f"baseline speedup {baseline['speedup']:.1f}x, "
            f"gate floor {floor:.1f}x",
            f"baseline mproc rate {baseline['mproc_schedules_per_sec']:.1f} "
            f"schedules/s, gate floor {rate_floor:.1f}/s",
        ]
        assert speedup >= floor, (
            f"replay speedup regressed: {speedup:.1f}x measured vs "
            f"{baseline['speedup']:.1f}x baseline (floor {floor:.1f}x)"
        )
        mproc_rate = len(jobs) / mproc_wall
        assert mproc_rate >= rate_floor, (
            f"mproc replay rate regressed: {mproc_rate:.1f}/s vs "
            f"{baseline['mproc_schedules_per_sec']:.1f}/s baseline "
            f"(floor {rate_floor:.1f}/s)"
        )
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(
            json.dumps(
                {
                    "speedup": round(speedup, 1),
                    "mproc_schedules_per_sec": round(
                        len(jobs) / mproc_wall, 1
                    ),
                    "nprocs": NPROCS,
                    "max_schedules": MAX_SCHEDULES,
                }
            )
            + "\n"
        )

    write_artifact(
        "explore.txt",
        "\n".join(
            [
                f"Steered-replay throughput on master_worker@{NPROCS} "
                f"({N_TASKS} tasks, {MAX_SCHEDULES} schedules)",
                "",
                f"  serial                       : {serial_wall:6.2f} s "
                f"({len(jobs) / serial_wall:5.1f} schedules/s)",
                f"  mproc x{WORKERS}                     : {mproc_wall:6.2f} s "
                f"({len(jobs) / mproc_wall:5.1f} schedules/s)",
                f"  speedup                      : {speedup:5.1f}x "
                f"(floor {MIN_SPEEDUP}x)",
                "",
                f"  verdicts identical across executors: "
                f"{len(jobs)}x clean",
                "",
                *gate_lines,
            ]
        ),
    )
