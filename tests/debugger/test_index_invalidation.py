"""Generation discipline of the session-held HistoryIndex.

An index describes exactly one execution.  ``DebugSession.replay()`` /
``undo()`` discard the old execution, so the index built before the
replay must refuse every post-replay query (StaleIndexError), and the
session must hand out a fresh index bound to the new generation.
"""

from __future__ import annotations

import pytest

from repro.analysis import StaleIndexError
from repro.apps.ring import ring_program
from repro.debugger import DebugSession
from repro.debugger.commands import CommandInterpreter


@pytest.fixture()
def session():
    s = DebugSession(ring_program(rounds=2), 3)
    yield s
    s.shutdown()


def test_index_tracks_live_stream(session):
    index = session.index()
    session.run()
    trace = session.trace()
    assert len(index) == len(trace)
    assert [(p.send.index, p.recv.index) for p in index.message_pairs()] == [
        (p.send.index, p.recv.index) for p in trace.message_pairs()
    ]


def test_replay_invalidates_old_index(session):
    session.run()
    old = session.index()
    old.message_pairs()  # force derivation on the old generation
    recv = next(r for r in session.trace() if r.is_recv)
    session.set_stopline(recv.index)
    session.replay()

    # pre-replay index must not serve post-replay queries
    assert old.stale
    with pytest.raises(StaleIndexError):
        old.message_pairs()
    with pytest.raises(StaleIndexError):
        _ = old.order

    new = session.index()
    assert new is not old
    assert new.generation == session.generation
    assert not new.stale
    # the new index tracks the replayed (truncated) execution
    assert len(new) == len(session.trace())


def test_undo_rebinds_index_per_generation(session):
    session.run()
    gen0 = session.index()
    recv = next(r for r in session.trace() if r.is_recv)
    session.set_stopline(recv.index)
    session.replay()
    gen1 = session.index()
    session.undo()  # replays again: generation 2
    gen2 = session.index()
    assert gen0.stale and gen1.stale and not gen2.stale
    assert len({gen0.generation, gen1.generation, gen2.generation}) == 3
    assert gen2.generation == session.generation


def test_session_analyses_share_one_index(session):
    """matching + deadlock + stopline + stats all ride the same index:
    one matching build, one clock build for the whole session."""
    session.run()
    recv = next(r for r in session.trace() if r.is_recv)
    session.set_stopline(recv.index)
    session.matching_report()
    session.deadlock_report()
    stats = session.index().stats()
    assert stats.matching_builds <= 1
    assert stats.clock_builds <= 1
    assert stats.generation == session.generation


def test_stats_command(session):
    interp = CommandInterpreter(session)
    interp.execute("run")
    interp.execute("matching")
    interp.execute("critical")
    out = interp.execute("stats")
    assert "history index stats" in out
    assert "1 build(s)" in out
    assert "help" in interp.execute("help") or "stats" in interp.execute("help")


def test_stats_command_reports_paged_index(session, tmp_path):
    """With an out-of-core index attached, ``stats`` folds in its
    cache counters next to the history-index report."""
    from repro.analysis.paged import OutOfCoreIndex
    from repro.trace import TraceFileReader, save_trace

    interp = CommandInterpreter(session)
    interp.execute("run")
    assert "paged index" not in interp.execute("stats")

    path = tmp_path / "run.trace"
    save_trace(session.trace(), path)
    paged = OutOfCoreIndex(TraceFileReader(path), cache_blocks=4)
    session.attach_paged_index(paged)
    lo, hi = paged.span
    paged.seek_window(lo, hi)
    out = interp.execute("stats")
    assert "history index stats" in out
    assert "paged index: 1 window query" in out
    assert "demand loads" in out
    paged.close()
