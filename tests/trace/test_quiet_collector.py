"""Record materialization pauses the cyclic collector, and only then.

``ColumnBlock.to_records`` builds a burst of acyclic records inside
``columnar._quiet_collector``: automatic collection is paused for a
burst of at least a young generation's worth of rows, the young
generation is collected before the build returns, and the caller's
collector state comes back on every exit.  The collector is
process-global, so these tests run in a fresh process in CI too (an
earlier test's garbage changes when a collection fires).
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

from repro.analysis.paged import OutOfCoreIndex
from repro.mp.datatypes import SourceLocation
from repro.trace import TraceFileReader, TraceFileWriter
from repro.trace.columnar import COLUMN_SPEC, ColumnBlock, _quiet_collector

BIG = 20_000
NPROCS = 4


def make_block(n: int, nprocs: int = NPROCS) -> ColumnBlock:
    """``n`` rows, one per unit of time, round-robin over ``nprocs``;
    every seventh row carries an ``extra`` dict."""
    cols = {name: np.zeros(n, dtype=dt) for name, dt in COLUMN_SPEC}
    cols["index"][:] = np.arange(n)
    cols["proc"][:] = np.arange(n) % nprocs
    cols["t0"][:] = np.arange(n, dtype=np.float64)
    cols["t1"][:] = cols["t0"] + 0.5
    cols["marker"][:] = np.arange(n) + 1
    cols["ploc"][:] = -1
    cols["extra"][:] = -1
    cols["extra"][::7] = 0
    return ColumnBlock(cols, [SourceLocation("app.py", 3, "main")], [], [{"k": 1}])


@pytest.fixture
def collector_on():
    """Automatic collection on, whatever the test leaves behind."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.fixture
def spy_toggles(monkeypatch):
    """Calls of ``gc.disable``/``gc.enable``, in order."""
    calls: list[str] = []
    disable, enable = gc.disable, gc.enable

    def spy_disable():
        calls.append("disable")
        disable()

    def spy_enable():
        calls.append("enable")
        enable()

    monkeypatch.setattr(gc, "disable", spy_disable)
    monkeypatch.setattr(gc, "enable", spy_enable)
    return calls


class TestCollectorState:
    def test_restored_when_it_was_enabled(self, collector_on):
        threshold = gc.get_threshold()[0]
        with _quiet_collector(threshold):
            assert not gc.isenabled()
        assert gc.isenabled()
        assert len(make_block(BIG).to_records()) == BIG
        assert gc.isenabled()

    def test_left_off_when_it_was_disabled(self, collector_on, spy_toggles):
        gc.disable()
        try:
            with _quiet_collector(BIG):
                assert not gc.isenabled()
            assert len(make_block(BIG).to_records()) == BIG
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert spy_toggles == ["disable", "enable"]  # the test's own

    def test_restored_when_the_builder_raises(self, collector_on):
        with pytest.raises(RuntimeError):
            with _quiet_collector(BIG):
                raise RuntimeError("builder failed")
        assert gc.isenabled()
        block = make_block(BIG)
        block.columns["loc"][-1] = 5  # no such interned location
        with pytest.raises(IndexError):
            block.to_records()
        assert gc.isenabled()


class TestBurst:
    def test_large_build_runs_no_older_collection(self, collector_on):
        block = make_block(BIG)
        threshold = gc.get_threshold()[0]
        assert BIG >= threshold
        started: list[int] = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            records = block.to_records()
            count = gc.get_count()[0]
        finally:
            gc.callbacks.remove(on_gc)
        assert len(records) == BIG
        assert [g for g in started if g > 0] == []
        assert started == [0]  # the young collection settled inside
        assert count < threshold

    def test_small_burst_never_toggles(self, collector_on, spy_toggles):
        threshold = gc.get_threshold()[0]
        assert len(make_block(threshold - 1).to_records()) == threshold - 1
        with _quiet_collector(threshold - 1):
            pass
        assert spy_toggles == []

    def test_zero_threshold_never_toggles(self, collector_on, spy_toggles):
        saved = gc.get_threshold()
        gc.set_threshold(0)
        try:
            assert len(make_block(BIG).to_records()) == BIG
        finally:
            gc.set_threshold(*saved)
        assert spy_toggles == []


def test_concurrent_seek_windows_leave_the_collector_on(tmp_path, collector_on):
    path = tmp_path / "big.trace"
    with TraceFileWriter(path, NPROCS, index_block=4096) as w:
        w.write_columns(make_block(4 * BIG))
    paged = OutOfCoreIndex(TraceFileReader(path), cache_blocks=8)
    windows = [(float(lo), float(lo + BIG)) for lo in range(0, 3 * BIG + 1, BIG // 2)]
    results: dict[int, list] = {}
    barrier = threading.Barrier(4, timeout=30)

    def run(k: int) -> None:
        barrier.wait()
        results[k] = [paged.seek_window(lo, hi) for lo, hi in windows]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the bursts finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert gc.isenabled()
    reader = TraceFileReader(path)
    expected = [reader.seek_window(lo, hi) for lo, hi in windows]
    assert all(len(recs) >= BIG for recs in expected)
    for k in range(4):
        assert results[k] == expected
