"""Shared fixtures and artifact helpers for the per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs
the workload, produces the same rows/series the paper reports, asserts
the *shape* (who wins, what pattern holds -- absolute numbers differ by
construction: the substrate is a simulator, not an SGI cluster), and
writes the artifact under ``benchmarks/results/`` for inspection.

Runtimes built here (``traced_run`` and the fixtures) run on the
default ``simtime`` execution backend, the one the debugger drives.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import mp
from repro.apps import strassen as st
from repro.instrument import Uinst, WrapperLibrary, lifecycle_wrapper
from repro.trace import TraceRecorder

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = RESULTS_DIR.parent.parent


def write_artifact(name: str, content: str) -> Path:
    """Persist a reproduction artifact; also echo it for ``-s`` runs.

    Paths under the repository root (the source locations records
    carry) are written relative to it, so an artifact reads the same
    from every checkout.
    """
    content = content.replace(f"{REPO_ROOT}{os.sep}", "")
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content if content.endswith("\n") else content + "\n")
    print(f"\n--- {name} ---\n{content}")
    return path


def traced_run(program, nprocs, *, functions=(), raise_errors=True, **rt_kw):
    """One instrumented run; returns (runtime, trace)."""
    rt = mp.Runtime(nprocs, **rt_kw)
    recorder = TraceRecorder(nprocs)
    WrapperLibrary(rt, recorder)
    wrappers = [lifecycle_wrapper(recorder)]
    if functions:
        uinst = Uinst(rt, recorder)
        for fn in functions:
            uinst.register_function(fn)
        wrappers.insert(0, uinst.target_wrapper())
    rt.run(program, raise_errors=raise_errors, target_wrappers=wrappers)
    rt.shutdown()
    return rt, recorder.snapshot()


@pytest.fixture(scope="session")
def strassen8_trace():
    """The Figure 3 run: correct Strassen on 8 processes."""
    cfg = st.StrassenConfig(n=16, nprocs=8)
    _, trace = traced_run(st.strassen_program(cfg), 8)
    return trace


@pytest.fixture(scope="session")
def buggy_strassen_state():
    """The Figure 5 run: buggy Strassen, returns (trace, waiting list)."""
    cfg = st.StrassenConfig(n=16, nprocs=8, buggy=True)
    rt = mp.Runtime(8)
    recorder = TraceRecorder(8)
    WrapperLibrary(rt, recorder)
    report = rt.run(st.strassen_program(cfg), raise_errors=False)
    trace = recorder.snapshot()
    waiting = list(report.waiting)
    rt.shutdown()
    return trace, waiting
