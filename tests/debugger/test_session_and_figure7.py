"""Session mechanics, breakpoints, replay history, commands -- and the
paper's worked Figure 5-7 debugging scenario end to end."""

from __future__ import annotations

import pytest

from repro import mp
from repro.apps import strassen as st
from repro.apps.ring import halo_program
from repro.debugger import (
    CommandError,
    CommandInterpreter,
    DebugSession,
)


def stepper(n):
    def prog(comm):
        for _ in range(n):
            comm.compute(1.0)
        return comm.rank

    return prog


class TestBreakpoints:
    def test_function_breakpoint_via_uinst(self):
        from repro.apps import fibonacci as fibmod

        session = DebugSession(
            fibmod.fib_program(8), 1, uinst_functions=[fibmod.fib]
        )
        bp = session.breakpoints.break_at_function("fib")
        summary = session.run()
        assert summary.outcome is mp.RunOutcome.STOPPED
        assert summary.reasons[0] == "breakpoint"
        assert bp.hits == 1
        assert session.runtime.procs[0].current_location.function == "fib"
        session.breakpoints.remove(bp.bp_id)
        assert session.cont().outcome is mp.RunOutcome.FINISHED
        session.shutdown()

    def test_ignore_count(self):
        from repro.apps import fibonacci as fibmod

        session = DebugSession(
            fibmod.fib_program(8), 1, uinst_functions=[fibmod.fib]
        )
        bp = session.breakpoints.break_at_function("fib", ignore_count=4)
        session.run()
        assert session.markers()[0] == 5  # stopped at the 5th fib entry
        assert bp.hits == 5
        session.breakpoints.clear()
        session.cont()
        session.shutdown()

    def test_rank_restricted_breakpoint(self):
        def prog(comm):
            comm.compute(1.0)
            comm.compute(1.0)

        session = DebugSession(prog, 3)
        session.breakpoints.break_when(
            lambda proc, loc: True, description="always", ranks=[1]
        )
        summary = session.run()
        assert summary.states[1] == "stopped"
        assert summary.states[0] == "exited"
        session.breakpoints.clear()
        session.cont()
        session.shutdown()

    def test_line_breakpoint(self):
        session = DebugSession(stepper(5), 1)
        # The compute() call sites inside stepper: find the line from a
        # first uninstrumented probe run is overkill; break on this file.
        bp = session.breakpoints.break_at_line("test_session_and_figure7.py", 0)
        assert len(session.breakpoints) == 1
        assert session.breakpoints.get(bp.bp_id) is bp
        session.breakpoints.remove(bp.bp_id)
        session.run()
        session.shutdown()


class TestReplayHistory:
    def test_replay_records_whole_history(self):
        # earlier stops at 5, 10, 15 and 20 must not shorten a replay's
        # recording: it re-executes from the start and records it all
        session = DebugSession(stepper(30), 1)
        for m in (5, 10, 15, 20):
            session.set_threshold(0, m)
            session.run() if m == 5 else session.cont()
        session.replay(thresholds={0: 12})
        assert session.markers()[0] == 12
        markers = [r.marker for r in session.trace().by_proc(0)]
        assert markers == list(range(12))  # the start record carries 0
        session.shutdown()

    def test_halo_history_survives_replay_and_cont(self):
        session = DebugSession(halo_program(steps=4), 16)
        session.cont()
        assert len(session.trace()) == 336
        session.set_stopline(168)
        session.replay()
        session.clear_thresholds()
        session.cont()
        assert len(session.trace()) == 336
        # an index from the full history resolves: the stopline works
        assert len(session.set_stopline(268).thresholds) > 0
        session.shutdown()

    @pytest.mark.parametrize("thresholds, message", [
        ({7: 3}, r"rank 7.*valid: 0\.\.3"),
        ({-1: 2}, r"rank -1"),
        ({0: -1}, r"marker counter must be >= 0"),
    ])
    def test_bad_thresholds_leave_the_session_intact(self, thresholds, message):
        session = DebugSession(halo_program(steps=2), 4)
        session.run()
        trace, index = session.trace(), session.index()
        with pytest.raises(ValueError, match=message):
            session.replay(thresholds)
        assert session.generation == 0
        assert list(session.trace()) == list(trace)
        assert session.index() is index and not index.stale
        assert session.runtime.procs[0].terminated
        session.shutdown()


class TestCommandInterpreter:
    def test_basic_flow(self):
        session = DebugSession(stepper(6), 2)
        interp = CommandInterpreter(session)
        interp.execute("threshold 0 3")
        out = interp.execute("run")
        assert "stopped" in out
        assert "p0: stopped marker=3" in interp.execute("states")
        interp.execute("threshold 0 off")
        out = interp.execute("continue")
        assert "finished" in out
        session.shutdown()

    def test_stopline_replay_undo_commands(self):
        session = DebugSession(stepper(8), 1)
        interp = CommandInterpreter(session)
        interp.execute("run")
        out = interp.execute("stopline 3")
        assert "stopline (vertical)" in out
        assert "stopped" in interp.execute("replay")
        interp.execute("threshold 0 6")
        interp.execute("continue")
        assert session.markers()[0] == 6
        interp.execute("undo")
        assert session.markers()[0] < 6
        session.shutdown()

    def test_trace_and_reports(self):
        session = DebugSession(stepper(3), 1)
        interp = CommandInterpreter(session)
        interp.execute("run")
        assert "compute" in interp.execute("trace 5")
        assert "no anomalies" in interp.execute("matching")
        assert "no blocked processes" in interp.execute("deadlock")
        assert "usage" not in interp.execute("help")
        session.shutdown()

    def test_errors(self):
        session = DebugSession(stepper(2), 1)
        interp = CommandInterpreter(session)
        with pytest.raises(CommandError, match="unknown command"):
            interp.execute("teleport 3")
        with pytest.raises(CommandError, match="usage: step"):
            interp.execute("step")
        with pytest.raises(CommandError, match="expected a rank"):
            interp.execute("step zero")
        assert interp.execute("") == ""
        session.run()
        session.shutdown()


class TestFigure567Scenario:
    """The paper's worked example, end to end:

    1. the buggy Strassen run deadlocks (Figure 5);
    2. trace analysis shows worker 7 received one message where workers
       1-6 received two, and finds the missed message (Figure 6);
    3. a stopline before the first operand send, replay, and stepping
       lead to the send with the wrong destination (Figure 7).
    """

    def test_full_scenario(self):
        cfg = st.StrassenConfig(n=8, nprocs=8, buggy=True)
        session = DebugSession(st.strassen_program(cfg), 8)

        # --- 1. run; observe the Figure 5 deadlock -----------------------
        summary = session.run()
        assert summary.outcome is mp.RunOutcome.DEADLOCK
        dl = session.deadlock_report()
        assert dl.cycles == [[0, 7]]  # 0 and 7 wait on each other

        # --- 2. the Figure 6 diagnosis -----------------------------------
        tr = session.trace()
        counts = tr.recv_counts()
        assert all(counts[w] == 2 for w in range(1, 7))
        assert counts[7] == 1  # the missing tick
        report = session.matching_report()
        assert len(report.missed) == 1
        assert report.missed[0].starving.rank == 7

        # --- 3. stopline before the first operand send, replay ----------
        first_send = next(r for r in tr.by_proc(0) if r.is_send)
        stopline = session.set_stopline(first_send.index)
        summary = session.replay()
        assert summary.outcome is mp.RunOutcome.STOPPED
        assert session.markers()[0] == stopline.thresholds[0]
        # Workers are stopped/blocked before receiving anything.
        assert all(counts == 0 for counts in session.trace().recv_counts().values())

        # --- 4. step process 0 through matr_send to the bad send --------
        session.clear_thresholds()
        bad_send = None
        for _ in range(10):
            session.step(0)
            tr_now = session.trace()
            sends = [r for r in tr_now.by_proc(0) if r.is_send]
            if len(sends) >= 2:
                bad_send = sends[1]  # the second operand send of jres=0
                break
        assert bad_send is not None
        # The user's discovery: the second operand went to rank 0, not 1.
        assert bad_send.tag == st.TAG_OPERAND_B
        assert bad_send.dst == 0  # should have been 1 + (0 % 7) == 1
        assert "strassen.py" in bad_send.location.filename
        session.shutdown()
