"""The schedule-space exploration driver, end to end.

The acceptance bar: pointed at the demo app with a seeded
schedule-dependent bug, the explorer finds the bug with no human in the
loop and reports the forcing log that reproduces it plus the first
divergent event per process.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import master_worker_program, reference_result, schedbug_program
from repro.explore import (
    BaseRunFailed,
    ExploreContext,
    MprocReplayExecutor,
    ScheduleStatus,
    explore,
    make_executor,
    run_base,
    schedule_candidates,
)
from repro.explore.__main__ import main, resolve_app
from repro.mp.datatypes import ANY_SOURCE
from tests.analysis.test_races_steering import two_source_program

NPROCS = 4
N_TASKS = 6


def explore_mode(mode: str, **kw):
    kw.setdefault("depth", 1)
    kw.setdefault("program_name", f"schedbug:{mode}")
    return explore(
        schedbug_program(n_tasks=N_TASKS, mode=mode, task_cost=1.0),
        NPROCS,
        **kw,
    )


class TestFindsSeededBugs:
    def test_unsafe_mode_divergence_found(self):
        report = explore_mode("unsafe")
        assert report.schedule_sensitive
        assert report.counts["divergent"] > 0
        assert report.races_at_root > 0
        worst = report.worst()
        assert worst.status is ScheduleStatus.DIVERGENT
        # The report carries everything needed to reproduce the bug:
        assert worst.forcing_log["recv_matches"]
        div = worst.first_divergence()
        assert div is not None
        assert div["proc"] == 0  # the master's fold diverges
        assert "SCHEDULE-SENSITIVE" in report.as_text()

    def test_safe_mode_certified_clean(self):
        report = explore_mode("safe")
        assert not report.schedule_sensitive
        assert report.explored > 0
        assert all(o.status is ScheduleStatus.CLEAN for o in report.outcomes)
        assert all(
            o.result_repr == repr(reference_result(N_TASKS))
            for o in report.outcomes
        )
        assert "schedule-insensitive" in report.as_text()

    def test_crash_mode_reports_the_raise(self):
        report = explore_mode("crash")
        crashes = [
            o for o in report.outcomes if o.status is ScheduleStatus.CRASH
        ]
        assert crashes
        assert any("finished before task 0" in (o.error or "") for o in crashes)
        assert report.worst().status is ScheduleStatus.CRASH

    def test_deadlock_mode_reports_blocked_waits(self):
        report = explore_mode("deadlock")
        stuck = [
            o for o in report.outcomes if o.status is ScheduleStatus.DEADLOCK
        ]
        assert stuck
        assert all(o.blocked for o in stuck)

    def test_outcome_describe_names_the_steer(self):
        report = explore_mode("unsafe")
        text = report.worst().describe()
        assert "steer: p0 recv marker" in text
        assert "first divergence" in text
        assert "forcing log" in text


class TestDriverMechanics:
    def test_depth_two_expands_and_dedups(self):
        shallow = explore_mode("unsafe", depth=1)
        deep = explore_mode("unsafe", depth=2, max_schedules=48)
        assert deep.explored + deep.converged > shallow.explored
        assert any(o.depth == 2 for o in deep.outcomes)
        assert deep.deduped > 0  # depth-2 candidates repeat forced prefixes

    def test_budget_leaves_pending(self):
        report = explore_mode("unsafe", max_schedules=2)
        assert report.explored + report.converged == 2
        assert report.pending > 0

    def test_serial_and_mproc_agree_at_depth_one(self):
        """At depth 1 both executors replay the same candidate set, so
        the classification counts must match exactly."""
        serial = explore_mode("unsafe", batch="serial")
        pooled = explore_mode("unsafe", batch="mproc", workers=2)
        assert pooled.batch == "mproc"
        assert pooled.counts == serial.counts
        assert pooled.explored == serial.explored
        assert pooled.converged == serial.converged

    def test_failing_base_run_rejected(self):
        def broken(comm):
            raise RuntimeError("dead on arrival")

        with pytest.raises(BaseRunFailed, match="did not finish"):
            explore(broken, 2)

    def test_parameter_validation(self):
        prog = schedbug_program(n_tasks=4, task_cost=1.0)
        with pytest.raises(ValueError, match="depth"):
            explore(prog, NPROCS, depth=0)
        with pytest.raises(ValueError, match="max_schedules"):
            explore(prog, NPROCS, max_schedules=0)

    def test_executor_factory_validation(self):
        ctx = ExploreContext(
            program=schedbug_program(n_tasks=4, task_cost=1.0), nprocs=NPROCS
        )
        base = run_base(ctx)
        with pytest.raises(ValueError, match="unknown batch mode"):
            make_executor("threads", ctx, base)
        with pytest.raises(ValueError, match=">= 1 worker"):
            MprocReplayExecutor(ctx, base, workers=0)

    def test_candidates_are_jsonable(self):
        ctx = ExploreContext(
            program=schedbug_program(n_tasks=N_TASKS, task_cost=1.0),
            nprocs=NPROCS,
        )
        base = run_base(ctx)
        candidates = schedule_candidates(base, ctx)
        assert candidates
        for cand in candidates:
            json.dumps(cand["log"])  # crosses the pool queues as-is
            assert cand["steer"].startswith("p0 recv marker")
        # One fingerprint per candidate: the dedup key separates them.
        fps = {cand["fingerprint"] for cand in candidates}
        assert len(fps) == len(candidates)

    def test_report_is_jsonable(self):
        report = explore_mode("unsafe")
        blob = json.dumps(report.to_jsonable())
        parsed = json.loads(blob)
        assert parsed["schedule_sensitive"] is True
        assert parsed["explored"] == report.explored
        assert parsed["outcomes"][0]["forcing_log"]["recv_matches"]


class TestCertificate:
    """Alternatives the explorer leaves out are counted and qualify the
    clean verdict instead of vanishing."""

    def test_unsteerable_alternatives_counted(self):
        # The second ANY_SOURCE receive's alternative is the message the
        # first one consumed: one forced receive cannot deliver it.
        report = explore(two_source_program, 3, depth=2)
        assert report.unsteerable > 0
        # the replayed schedule's own unsteerable alternatives are added
        assert report.unsteerable > explore(two_source_program, 3).unsteerable
        assert report.to_jsonable()["unsteerable"] == report.unsteerable
        text = report.as_text()
        assert f"{report.unsteerable} unsteerable" in text
        if not report.schedule_sensitive:
            assert "qualified" in text

    def test_max_alternatives_cut_counted(self):
        prog = master_worker_program(n_tasks=8)
        capped = explore(prog, 4, depth=1, max_alternatives=1)
        full = explore(prog, 4, depth=1)
        assert capped.truncated > 0
        assert full.truncated == 0
        assert capped.to_jsonable()["truncated"] == capped.truncated
        assert not capped.schedule_sensitive
        assert "qualified" in capped.as_text()

    def test_truncation_counted_at_expanded_depths(self):
        prog = master_worker_program(n_tasks=8)
        shallow = explore(prog, 4, depth=1, max_alternatives=1)
        deep = explore(prog, 4, depth=2, max_alternatives=1)
        assert deep.truncated > shallow.truncated

    def test_candidates_still_a_list(self):
        ctx = ExploreContext(program=two_source_program, nprocs=3)
        candidates = schedule_candidates(run_base(ctx), ctx)
        assert isinstance(candidates, list)
        assert len(candidates) >= 1
        assert candidates.unsteerable > 0

    def test_complete_exploration_is_unqualified(self):
        def one_wildcard(comm):
            # one ANY_SOURCE receive, then the other sender by name: every
            # alternative is steerable and the sum is order-independent
            if comm.rank == 0:
                a = comm.recv(source=ANY_SOURCE, tag=7)
                return a + comm.recv(source=3 - a, tag=7)
            comm.send(comm.rank, dest=0, tag=7)

        report = explore(one_wildcard, 3, depth=2)
        assert report.explored == 1
        assert (report.unsteerable, report.truncated) == (0, 0)
        assert not report.schedule_sensitive
        assert "qualified" not in report.as_text()


class TestCli:
    def test_qualified_clean_verdict_exits_three(self, capsys):
        assert main(["--app", "schedbug:safe", "--nprocs", "4", "--depth", "1"]) == 3
        out = capsys.readouterr().out
        assert "schedule-insensitive" in out
        assert "qualified:" in out

    def test_race_free_app_exits_zero(self, capsys):
        assert main(["--app", "ring", "--nprocs", "4", "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "schedule-insensitive" in out
        assert "qualified:" not in out

    def test_unsafe_app_exits_one(self, capsys):
        assert main(["--app", "schedbug", "--nprocs", "4", "--depth", "1"]) == 1
        assert "SCHEDULE-SENSITIVE" in capsys.readouterr().out

    def test_json_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "--app",
                "schedbug:unsafe",
                "--nprocs",
                "4",
                "--depth",
                "1",
                "--json",
                str(out),
                "--verbose",
            ]
        )
        assert code == 1
        parsed = json.loads(out.read_text())
        assert parsed["program"] == "schedbug:unsafe"
        assert parsed["counts"]["divergent"] > 0

    def test_resolve_app_errors(self):
        with pytest.raises(SystemExit, match="unknown schedbug mode"):
            resolve_app("schedbug:typo", 4, 0)
        with pytest.raises(SystemExit, match="unknown app"):
            resolve_app("no_such_app", 4, 0)
        with pytest.raises(SystemExit, match="takes no option"):
            resolve_app("master_worker:fast", 4, 0)
