"""The ``backend=`` keyword: it names the one engine and nothing else."""

from __future__ import annotations

import pytest

from repro.apps import ring_program
from repro.debugger import DebugSession
from repro.mp import MPError, Runtime, SimtimeBackend, run_program


class TestRegistry:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(MPError, match="unknown execution backend 'nope'"):
            Runtime(2, backend="nope")
        with pytest.raises(MPError, match=r"choose from \['simtime'\]"):
            Runtime(2, backend="nope")

    def test_default_is_simtime(self):
        rt = Runtime(2)
        try:
            assert isinstance(rt.scheduler, SimtimeBackend)
            assert rt.scheduler.runtime is rt
        finally:
            rt.shutdown()


class TestRuntimeIntegration:
    @pytest.mark.parametrize("backend", ["simtime"])
    def test_run_program_backend_kwarg(self, backend):
        rt = run_program(ring_program(rounds=1), nprocs=3, backend=backend)
        assert rt.procs[0].result == 1.0 * sum(range(3))
        assert rt.scheduler.name == backend

    def test_unknown_backend_at_runtime_construction(self):
        for backend in ("mproc", SimtimeBackend):
            with pytest.raises(MPError, match="unknown execution backend"):
                DebugSession(ring_program(rounds=1), 2, backend=backend)
