"""Carrier reuse in the simtime backend: ranks of later runs ride the
threads earlier runs started, idle carriers exit, and forked children
start with an empty pool."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

from repro import mp
from repro.debugger import DebugSession
from repro.mp.backends import simtime


def exchange(comm):
    """Every rank sends to its right neighbour and receives from its left."""
    comm.send(comm.rank, dest=(comm.rank + 1) % comm.size)
    return comm.recv(source=(comm.rank - 1) % comm.size)


def run_once(nprocs: int) -> mp.Runtime:
    rt = mp.Runtime(nprocs)
    rt.run(exchange)
    rt.shutdown()
    assert rt.results() == [(r - 1) % nprocs for r in range(nprocs)]
    return rt


def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def test_second_run_starts_no_carrier():
    run_once(64)
    assert run_once(64).backend.carriers_started == 0


def drained() -> bool:
    return len(simtime._POOL.idle) == 0 and not any(
        t.name == "simtime-carrier" for t in threading.enumerate()
    )


def test_idle_carriers_are_bounded_and_exit():
    assert wait_for(drained)  # carriers of earlier tests time out first
    before = threading.active_count()
    for _ in range(20):
        run_once(64)
        assert len(simtime._POOL.idle) <= 64
    assert wait_for(lambda: threading.active_count() <= before)
    assert drained()


def test_forked_child_runs_on_fresh_carriers():
    run_once(4)
    assert len(simtime._POOL.idle) > 0
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        ok = False
        try:
            ok = len(simtime._POOL.idle) == 0
            ok = ok and run_once(4).backend.carriers_started > 0
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError("forked child hung on an inherited carrier")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def parked_prog(comm):
    depth_marker = comm.rank
    comm.compute(1.0)
    comm.compute(1.0)
    return depth_marker


def test_parked_rank_frames_readable_on_reused_carrier():
    run_once(2)
    session = DebugSession(parked_prog, 2)
    session.set_threshold(1, 2)
    session.run()
    backend = session.runtime.backend
    assert backend.carriers_started == 0
    ident = backend.carrier_ident(session.runtime.procs[1])
    frame = sys._current_frames()[ident]
    names = []
    while frame is not None:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    assert "parked_prog" in names
    assert session.frame_locals(1, 0)["depth_marker"] == "1"
    session.clear_thresholds()
    session.cont()
    session.shutdown()


def test_take_races_idle_exit(monkeypatch):
    """Controllers on several threads take carriers while idle carriers
    time out every millisecond: no job is handed to an exiting carrier
    (that run would hang) and every run returns its results."""
    monkeypatch.setattr(simtime, "CARRIER_IDLE_S", 0.001)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    failures = []

    def controller():
        try:
            for _ in range(15):
                run_once(6)
                time.sleep(0.002)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    try:
        threads = [threading.Thread(target=controller, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "a run hung"
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
