"""Property: replays and undos keep the session's whole history.

A replay re-executes the program from the start under the recorded
nondeterminism (§4.2), so after any sequence of stopline, replay, step
and undo the session's trace must be, process by process, a prefix of
a fresh full run's trace -- and after a final ``cont`` it must equal
it.  Processes are compared by their ``(kind, marker, src, dst, tag)``
sequences, not by global ``.index``: a replay interleaves processes
differently, so global positions legitimately move.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.apps.ring import halo_program, master_worker_program, ring_program
from repro.debugger import DebugSession, StoplinePlacement
from repro.mp.process import ProcState

NPROCS = 4

PROGRAMS = {
    "ring": lambda: ring_program(rounds=2),
    "halo": lambda: halo_program(steps=2),
    "master_worker": lambda: master_worker_program(n_tasks=6, task_cost=1.0),
}

cycles = hst.lists(
    hst.tuples(
        hst.sampled_from(list(StoplinePlacement)),
        hst.floats(0.0, 0.999),  # where the user clicks, as a fraction
        hst.integers(0, NPROCS - 1),  # the rank to step
    ),
    min_size=1,
    max_size=3,
)


def per_process(trace) -> list[list[tuple]]:
    return [
        [(r.kind, r.marker, r.src, r.dst, r.tag) for r in trace.by_proc(p)]
        for p in range(NPROCS)
    ]


def full_run(name: str, seed: int) -> list[list[tuple]]:
    session = DebugSession(PROGRAMS[name](), NPROCS, policy="random", seed=seed)
    session.run()
    history = per_process(session.trace())
    session.shutdown()
    return history


def assert_prefix(session: DebugSession, full: list[list[tuple]]) -> None:
    for p, seq in enumerate(per_process(session.trace())):
        assert seq == full[p][: len(seq)], f"p{p} is not a prefix"


@settings(max_examples=15, deadline=None)
@given(hst.sampled_from(sorted(PROGRAMS)), hst.integers(0, 20), cycles)
def test_replay_and_undo_keep_the_whole_history(name, seed, ops):
    full = full_run(name, seed)
    session = DebugSession(PROGRAMS[name](), NPROCS, policy="random", seed=seed)
    try:
        session.run()
        for placement, where, rank in ops:
            event = int(where * len(session.index()))
            session.set_stopline(event, placement)
            session.replay()
            assert_prefix(session, full)
            stopped = [
                p.rank for p in session.runtime.procs
                if p.state is ProcState.STOPPED
            ]
            if stopped:
                session.step(stopped[rank % len(stopped)])
                assert_prefix(session, full)
            session.undo()
            assert_prefix(session, full)
        session.clear_thresholds()
        session.cont()
        assert per_process(session.trace()) == full
    finally:
        session.shutdown()
