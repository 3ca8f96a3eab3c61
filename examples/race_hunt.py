#!/usr/bin/env python3
"""Races, replay, and the command-line debugger on a master/worker pool.

A self-scheduling master hands tasks to workers and collects results
with ``MPI_ANY_SOURCE`` -- the canonical message race.  This example:

1. detects the races statically from one trace (§4.4 race detection);
2. steers replays down the other side of each race (``repro.explore``)
   to show that different schedules produce different matchings, and
   that a recorded CommLog *forces* any schedule back to the original
   matching (§4.2 nondeterminism control);
3. drives the same investigation through the text command interpreter,
   the way a p2d2 user would click through it.

Run:  python examples/race_hunt.py
"""

from __future__ import annotations

from repro import mp
from repro.analysis import detect_races, matching_fingerprint
from repro.apps import master_worker_program
from repro.debugger import CommandInterpreter, DebugSession
from repro.explore import explore

N_TASKS = 10
NPROCS = 5


def main() -> None:
    program = master_worker_program(n_tasks=N_TASKS)

    # ------------------------------------------------------------------
    print("=== 1. static race detection from one trace ===")
    session = DebugSession(program, NPROCS)
    session.run()
    trace = session.trace()
    races = detect_races(trace)
    print(f"{len(races)} racing receives found on the master")
    for race in races[:3]:
        print("  " + race.describe())
    session.shutdown()

    # ------------------------------------------------------------------
    print("\n=== 2. schedules change the matching; replay pins it ===")
    report = explore(program, NPROCS, depth=1, program_name="master_worker")
    print(f"{report.explored} steered schedules each realized a matching "
          f"the base run did not ({report.counts['clean']} with the same "
          "results)")

    rt_orig = mp.Runtime(NPROCS, policy="random", seed=3)
    rt_orig.run(program)
    original = matching_fingerprint(rt_orig.comm_log)
    rt_orig.shutdown()

    rt_replay = mp.Runtime(NPROCS, policy="random", seed=99,
                           replay_log=rt_orig.comm_log)
    rt_replay.run(program)
    rt_replay.shutdown()
    forced = matching_fingerprint(rt_replay.comm_log)
    print("replay under a different schedule reproduces the matching:",
          forced == original)
    assert forced == original

    # ------------------------------------------------------------------
    print("\n=== 3. the same hunt through debugger commands ===")
    session = DebugSession(program, NPROCS)
    interp = CommandInterpreter(session)
    for line in (
        "threshold 0 8",
        "run",
        "where 0",
        "states",
        "threshold 0 off",
        "continue",
        "trace 6",
        "matching",
    ):
        print(f"(p2d2) {line}")
        out = interp.execute(line)
        if out:
            print("\n".join("    " + ln for ln in out.splitlines()))
    print(f"final results: {session.results()[0]}")
    session.shutdown()


if __name__ == "__main__":
    main()
