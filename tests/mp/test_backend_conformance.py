"""Engine conformance suite.

The cooperative ``simtime`` engine must reproduce the committed
schedule of every (program, seed) bit for bit (``golden_schedules.json``)
and give identical results when the same seed runs twice -- the
determinism the paper's replay machinery rests on.  Everything here is
parametrized over :data:`repro.apps.CONFORMANCE_PROGRAMS`, so a new app
is automatically held to the same bar.

The golden file hashes, per record, ``(i, p, k, src, dst, tag, seq, m,
t0, t1)`` plus the comm log, markers and final clocks -- not source
locations or result reprs, so editing an app's line numbers leaves it
valid.  After an intended schedule change, regenerate it with::

    PYTHONPATH=src:. python -m tests.mp.test_backend_conformance
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import CONFORMANCE_PROGRAMS, ring_program
from repro.debugger.replay import ReplaySpec, build_execution
from repro.mp import DeadlockError, ProcState, Runtime, RunOutcome, run_program

GOLDEN = Path(__file__).with_name("golden_schedules.json")
SEEDS = [0, 1, 2]
NPROCS = 8


def run_traced(program, nprocs=NPROCS, policy="random", seed=0):
    """Run one program fully instrumented on simtime; return the
    comparable artifacts: trace records, comm log, results, markers,
    final clocks."""
    spec = ReplaySpec(program=program, nprocs=nprocs, policy=policy, seed=seed)
    execution = build_execution(spec)
    rt = execution.runtime
    try:
        report = rt.run_until_idle()
        assert report.outcome is RunOutcome.FINISHED, report
        return {
            "records": execution.recorder.snapshot().records,
            "comm_log": rt.comm_log.to_jsonable(),
            "results": [repr(p.result) for p in rt.procs],
            "markers": [p.marker for p in rt.procs],
            "clocks": [p.clock.now for p in rt.procs],
        }
    finally:
        rt.shutdown()


def schedule_digest(run) -> str:
    """sha256 of a run's schedule, without locations or result reprs."""
    doc = {
        "records": [
            [r.index, r.proc, r.kind.value, r.src, r.dst, r.tag, r.seq,
             r.marker, r.t0, r.t1]
            for r in run["records"]
        ],
        "comm_log": run["comm_log"],
        "markers": run["markers"],
        "clocks": run["clocks"],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def conformance_run(app, seed):
    # adversarial: the random policy preempts at every marker point
    return run_traced(CONFORMANCE_PROGRAMS[app](NPROCS, seed), seed=seed)


def ring256_run():
    return run_traced(ring_program(rounds=1), nprocs=256, policy="run_to_block")


def golden():
    return json.loads(GOLDEN.read_text())


class TestTraceIdentity:
    """simtime reproduces the committed schedule, app x seed, and the
    same seed twice gives the same execution."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("app", sorted(CONFORMANCE_PROGRAMS))
    def test_matches_golden_schedule(self, app, seed):
        digests = golden()["digests"]
        assert schedule_digest(conformance_run(app, seed)) == digests[f"{app}/{seed}"]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("app", sorted(CONFORMANCE_PROGRAMS))
    def test_same_seed_twice_identical(self, app, seed):
        first = conformance_run(app, seed)
        second = conformance_run(app, seed)
        assert second["results"] == first["results"]
        assert second["markers"] == first["markers"]
        assert second["clocks"] == first["clocks"]
        assert second["comm_log"] == first["comm_log"]
        assert len(second["records"]) == len(first["records"])
        for i, (a, b) in enumerate(zip(first["records"], second["records"])):
            assert a.to_jsonable() == b.to_jsonable(), (
                f"{app} seed={seed}: trace diverges at record {i}"
            )


def recv_ring(comm):
    # Everyone receives first: a textbook cycle, deadlocks immediately.
    left = (comm.rank - 1) % comm.size
    got = comm.recv(source=left, tag=7)
    comm.send(got, dest=(comm.rank + 1) % comm.size, tag=7)


class TestDeadlockClassification:
    @pytest.mark.parametrize("backend", ["simtime"])
    def test_recv_cycle_detected(self, backend):
        rt = Runtime(3, backend=backend)
        report = rt.run(recv_ring, raise_errors=False)
        try:
            assert report.outcome is RunOutcome.DEADLOCK
            blocked = {p.rank for p in rt.procs if p.state is ProcState.BLOCKED}
            assert blocked == {0, 1, 2}
            waits = {p.rank: p.wait_info for p in rt.procs}
            assert all(w is not None for w in waits.values())
        finally:
            rt.shutdown()

    def test_deadlock_error_raised(self):
        with pytest.raises(DeadlockError):
            run_program(recv_ring, nprocs=3)


class TestDebuggerSurfaceOnSimtime:
    """The paper's control machinery on the engine."""

    @staticmethod
    def _stepper(n):
        def prog(comm):
            for _ in range(n):
                comm.compute(1.0)
            return comm.rank

        return prog

    def test_marker_thresholds_stop_exactly(self):
        # Markers advance at instrumentation points, so build the
        # execution with the wrapper library installed (as the debug
        # session does).
        spec = ReplaySpec(
            program=self._stepper(12), nprocs=2, backend="simtime"
        )
        execution = build_execution(spec)
        rt = execution.runtime
        try:
            rt.set_thresholds({0: 4, 1: 7})
            report = rt.run_until_idle()
            assert report.outcome is RunOutcome.STOPPED
            assert rt.procs[0].marker == 4
            assert rt.procs[1].marker == 7
            rt.set_threshold(0, None)
            rt.set_threshold(1, None)
            report = rt.resume()
            assert report.outcome is RunOutcome.FINISHED
            assert rt.results() == [0, 1]
        finally:
            rt.shutdown()

    def test_replay_log_forces_wildcard_matching(self):
        prog = CONFORMANCE_PROGRAMS["master_worker"](4, 0)
        rt1 = run_program(prog, nprocs=4, backend="simtime", policy="random", seed=5)
        original = rt1.results()[0]
        rt2 = run_program(
            prog,
            nprocs=4,
            backend="simtime",
            policy="random",
            seed=99,  # different schedule; the log must still win
            replay_log=rt1.comm_log,
        )
        assert rt2.results()[0] == original

    def test_session_undo_on_simtime(self):
        from repro.debugger.session import DebugSession

        session = DebugSession(self._stepper(20), 2, backend="simtime")
        try:
            assert session.runtime.scheduler.name == "simtime"
            session.set_threshold(0, 5)
            session.set_threshold(1, 5)
            session.run()
            first = session.markers()
            session.set_threshold(0, 10)
            session.set_threshold(1, 10)
            session.cont()
            assert session.markers().as_dict() == {0: 10, 1: 10}
            summary = session.undo()
            assert summary.outcome is RunOutcome.STOPPED
            assert session.markers() == first
        finally:
            session.shutdown()

    def test_stop_on_entry_and_step(self):
        rt = Runtime(2, backend="simtime")
        try:
            rt.launch(self._stepper(3), stop_on_entry=True)
            report = rt.run_until_idle()
            assert report.outcome is RunOutcome.STOPPED
            assert all(p.state is ProcState.STOPPED for p in rt.procs)
            report = rt.resume()
            assert report.outcome is RunOutcome.FINISHED
        finally:
            rt.shutdown()


class TestScale:
    def test_1024_rank_ring_on_simtime(self):
        rt = run_program(
            ring_program(rounds=1), nprocs=1024, backend="simtime"
        )
        assert rt.results()[0] == float(sum(range(1024)))

    def test_256_rank_ring_matches_golden(self):
        assert schedule_digest(ring256_run()) == golden()["ring256_run_to_block"]

    def test_256_rank_ring_same_twice(self):
        first, second = ring256_run(), ring256_run()
        assert schedule_digest(first) == schedule_digest(second)
        assert first["results"] == second["results"]


if __name__ == "__main__":
    doc = {
        "nprocs": NPROCS,
        "policy": "random",
        "seeds": SEEDS,
        "digests": {
            f"{app}/{seed}": schedule_digest(conformance_run(app, seed))
            for app in sorted(CONFORMANCE_PROGRAMS)
            for seed in SEEDS
        },
        "ring256_run_to_block": schedule_digest(ring256_run()),
    }
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
