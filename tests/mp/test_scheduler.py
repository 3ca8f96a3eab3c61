"""Scheduling policies, determinism, and debugger-level process control."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import mp


def trace_of_order(policy, seed=0):
    """Run a 3-rank program and return the grant order of ranks."""
    order: list[int] = []

    def prog(comm):
        for _ in range(3):
            comm.compute(1.0)

    rt = mp.Runtime(3, policy=policy, seed=seed)
    rt.scheduler.grant_hooks.append(lambda p: order.append(p.rank))
    rt.run(prog)
    rt.shutdown()
    return order


class TestPolicies:
    def test_policy_names(self):
        for name in ("run_to_block", "round_robin", "virtual_time", "random"):
            assert mp.make_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            mp.make_policy("fair-share")

    def test_policy_instance_passthrough(self):
        pol = mp.RoundRobinPolicy()
        assert mp.make_policy(pol) is pol

    def test_run_to_block_runs_ranks_in_order(self):
        order = trace_of_order("run_to_block")
        # Without preemption each rank runs exactly once, lowest first.
        assert order == [0, 1, 2]

    def test_deterministic_repeat(self):
        for policy in ("run_to_block", "round_robin", "virtual_time"):
            assert trace_of_order(policy) == trace_of_order(policy)

    def test_random_policy_seeded(self):
        a = trace_of_order("random", seed=7)
        b = trace_of_order("random", seed=7)
        assert a == b

    def test_random_policy_seed_changes_schedule(self):
        runs = {tuple(trace_of_order("random", seed=s)) for s in range(8)}
        assert len(runs) > 1  # at least two distinct interleavings

    def test_results_identical_across_policies(self):
        """Different interleavings, same deterministic program result."""

        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            total = comm.rank
            for _ in range(comm.size - 1):
                total += comm.sendrecv(total, dest=right, sendtag=1,
                                       source=left, recvtag=1)
            return total

        outcomes = set()
        for policy in ("run_to_block", "round_robin", "virtual_time"):
            rt = mp.run_program(prog, 4, policy=policy)
            outcomes.add(tuple(rt.results()))
        assert len(outcomes) == 1


class TestMarkersAndStopControl:
    @staticmethod
    def _marked_prog(comm):
        # Markers are produced by instrumentation; here we bump manually
        # to exercise the substrate-level threshold machinery.
        for _ in range(10):
            comm.proc.bump_marker()
            comm.compute(1.0)

    def test_threshold_stops_process(self):
        rt = mp.Runtime(2)
        rt.set_threshold = rt.set_threshold  # no-op alias, readability
        rt.launch(self._marked_prog)
        rt.set_threshold(0, 4)
        report = rt.run_until_idle()
        assert report.outcome is mp.RunOutcome.STOPPED
        assert rt.procs[0].marker == 4
        assert rt.procs[0].stop.reason is mp.StopReason.THRESHOLD
        assert rt.procs[1].state is mp.ProcState.EXITED
        rt.set_threshold(0, None)
        final = rt.resume()
        assert final.outcome is mp.RunOutcome.FINISHED
        assert rt.procs[0].marker == 10

    def test_step_advances_one_marker(self):
        rt = mp.Runtime(1)
        rt.launch(self._marked_prog)
        rt.set_threshold(0, 2)
        rt.run_until_idle()
        assert rt.procs[0].marker == 2
        rt.set_threshold(0, None)
        report = rt.step(0)
        assert report.outcome is mp.RunOutcome.STOPPED
        assert rt.procs[0].marker == 3
        assert rt.procs[0].stop.reason is mp.StopReason.STEP
        rt.resume()
        rt.shutdown()

    def test_interrupt_all(self):
        rt = mp.Runtime(3)
        rt.launch(self._marked_prog)
        rt.interrupt_all()
        report = rt.run_until_idle()
        assert report.outcome is mp.RunOutcome.STOPPED
        assert all(p.state is mp.ProcState.STOPPED for p in rt.procs)
        rt.clear_interrupts()
        assert rt.resume().outcome is mp.RunOutcome.FINISHED

    def test_stop_markers_recorded(self):
        rt = mp.Runtime(1)
        rt.launch(self._marked_prog)
        rt.set_threshold(0, 3)
        rt.run_until_idle()
        rt.set_threshold(0, 7)
        rt.resume()
        assert rt.procs[0].stop_markers == [3, 7]
        rt.set_threshold(0, None)
        rt.resume()
        rt.shutdown()

    def test_stop_on_entry(self):
        rt = mp.Runtime(2)
        rt.launch(self._marked_prog, stop_on_entry=True)
        report = rt.run_until_idle()
        assert report.outcome is mp.RunOutcome.STOPPED
        assert all(p.marker == 0 for p in rt.procs)
        assert rt.resume().outcome is mp.RunOutcome.FINISHED

    def test_blocked_vs_stopped_is_not_deadlock(self):
        """A process blocked on a STOPPED peer is waiting, not deadlocked."""

        def prog(comm):
            if comm.rank == 0:
                for _ in range(5):
                    comm.proc.bump_marker()
                comm.send("late", dest=1)
            else:
                comm.recv(source=0)

        rt = mp.Runtime(2)
        rt.launch(prog)
        rt.set_threshold(0, 2)
        report = rt.run_until_idle()
        assert report.outcome is mp.RunOutcome.STOPPED
        assert rt.procs[1].state is mp.ProcState.BLOCKED
        rt.set_threshold(0, None)
        assert rt.resume().outcome is mp.RunOutcome.FINISHED


class TestShutdownAndGuards:
    def test_shutdown_unwinds_blocked_processes(self):
        def prog(comm):
            comm.recv(source=0, tag=42)  # blocks forever

        rt = mp.Runtime(2)
        report = rt.run(prog, raise_errors=False)
        assert report.outcome is mp.RunOutcome.DEADLOCK
        rt.shutdown()
        assert all(p.terminated for p in rt.procs)

    def test_shutdown_idempotent(self):
        rt = mp.Runtime(1)
        rt.run(lambda comm: None)
        rt.shutdown()
        rt.shutdown()

    def test_context_manager_cleans_up(self):
        with mp.Runtime(2) as rt:
            rt.launch(lambda comm: comm.recv(source=1 - comm.rank))
            rt.run_until_idle()
        assert all(p.terminated for p in rt.procs)

    def test_grant_limit_guard(self):
        """Two mutually-yielding spinners exhaust the grant budget.

        (The guard counts token grants; it can only fire when processes
        yield, which round_robin forces at every marker.)
        """

        def prog(comm):
            while True:
                comm.proc.bump_marker()
                comm.compute(0.1)

        rt = mp.Runtime(2, policy="round_robin", max_grants=50)
        rt.launch(prog)
        report = rt.run_until_idle()
        assert report.outcome is mp.RunOutcome.LIMIT
        assert rt.scheduler.total_grants >= 50
        rt.shutdown()

    def test_nprocs_validation(self):
        with pytest.raises(ValueError):
            mp.Runtime(0)

    def test_program_sequence_length_checked(self):
        rt = mp.Runtime(3)
        with pytest.raises(ValueError, match="entries"):
            rt.launch([lambda c: None])

    def test_program_mapping_fills_idle_ranks(self):
        rt = mp.Runtime(3)
        rt.run({1: lambda comm: "only-me"})
        assert rt.results() == [None, "only-me", None]

    def test_double_launch_rejected(self):
        rt = mp.Runtime(1)
        rt.launch(lambda comm: None)
        with pytest.raises(RuntimeError, match="already launched"):
            rt.launch(lambda comm: None)
        rt.run_until_idle()
        rt.shutdown()


def lower_rank_poller(poll):
    """Rank 0 spins on ``iprobe`` or ``test`` for a message rank 1 sends."""

    def prog(comm):
        if comm.rank == 1:
            comm.send("hello", dest=0, tag=8)
            return None
        if poll == "iprobe":
            st = mp.Status()
            while not comm.iprobe(1, 8, st):
                pass
            return comm.recv(source=1, tag=8)
        req = comm.irecv(source=1, tag=8)
        while True:
            done, value = comm.test(req)
            if done:
                return value

    return prog


class TestPolling:
    @pytest.mark.parametrize("poll", ["iprobe", "test"])
    @pytest.mark.parametrize(
        "policy", ["run_to_block", "round_robin", "virtual_time", "random"]
    )
    def test_poller_lets_another_ready_rank_run(self, policy, poll):
        # The budget turns a livelocked spin into LIMIT instead of a hang.
        rt = mp.Runtime(2, policy=policy, max_grants=10_000)
        try:
            rt.launch(lower_rank_poller(poll))
            report = rt.run_until_idle()
            assert report.outcome is mp.RunOutcome.FINISHED
            assert rt.results()[0] == "hello"
        finally:
            rt.shutdown()

    @pytest.mark.parametrize("send_after", [1, 2, 5])
    def test_poller_acting_between_polls_finishes(self, send_after):
        """Rank 1 waits for the message rank 0 sends only after several
        failed polls: stopping the poller at any of them would turn a
        finishing program into a false deadlock."""

        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=9)
                comm.send("done", dest=0, tag=8)
                return None
            polls = 0
            while not comm.iprobe(1, 8):
                polls += 1
                if polls == send_after:
                    comm.send("go", dest=1, tag=9)
            return comm.recv(source=1, tag=8)

        rt = mp.Runtime(2, max_grants=10_000)
        try:
            rt.launch(prog)
            assert rt.run_until_idle().outcome is mp.RunOutcome.FINISHED
            assert rt.results()[0] == "done"
        finally:
            rt.shutdown()

    def test_poller_with_every_peer_blocked_or_stopped_counts_grants(self):
        """A failed poll that no ready rank can answer still costs a
        grant, so ``max_grants`` ends the spin with LIMIT, and a later
        resume lets the stopped sender answer it.  Run in a child
        process so a spin outside the grant count fails the test on its
        timeout instead of hanging the suite."""
        script = """
import json
from repro import mp
from repro.debugger.replay import ReplaySpec, build_execution

def spinning(comm):
    if comm.rank == 0:
        while not comm.iprobe(1, 8):
            pass
    else:
        comm.recv(source=0, tag=9)

def stopped_sender(comm):
    if comm.rank == 1:
        comm.compute(1.0)
        comm.send("late", dest=0, tag=8)
        return None
    req = comm.irecv(source=1, tag=8)
    while True:
        done, value = comm.test(req)
        if done:
            return value

def summary(rt, report):
    return {
        "outcome": report.outcome.name,
        "grants": rt.scheduler.total_grants,
        "states": [p.state.name for p in rt.scheduler.procs],
    }

out = {}
rt = mp.Runtime(2, max_grants=1000)
rt.launch(spinning)
out["spinning"] = summary(rt, rt.run_until_idle())
rt.shutdown()

rt = build_execution(ReplaySpec(program=stopped_sender, nprocs=2)).runtime
rt.scheduler.max_grants = 1000
rt.set_threshold(1, 1)
out["stopped"] = summary(rt, rt.run_until_idle())
rt.set_threshold(1, None)
rt.scheduler.max_grants = None
out["resumed"] = summary(rt, rt.resume())
out["results"] = rt.results()
rt.shutdown()
print(json.dumps(out))
"""
        src = Path(__file__).resolve().parents[2] / "src"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
            )
        except subprocess.TimeoutExpired:
            pytest.fail("a poller whose peers are all blocked spun forever")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["spinning"] == {
            "outcome": "LIMIT", "grants": 1000, "states": ["READY", "BLOCKED"],
        }
        assert out["stopped"] == {
            "outcome": "LIMIT", "grants": 1000, "states": ["READY", "STOPPED"],
        }
        assert out["resumed"]["outcome"] == "FINISHED"
        assert out["results"] == ["late", None]
