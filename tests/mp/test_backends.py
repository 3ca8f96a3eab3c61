"""Backend selection by name, and capability gating."""

from __future__ import annotations

import pytest

from repro.apps import ring_program
from repro.mp import (
    MPError,
    MprocBackend,
    Runtime,
    SimtimeBackend,
    available_backends,
    make_backend,
    run_program,
)


class TestRegistry:
    def test_builtins(self):
        assert available_backends() == ["mproc", "simtime"]
        assert isinstance(make_backend("simtime"), SimtimeBackend)
        assert isinstance(make_backend("mproc"), MprocBackend)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(MPError, match="unknown execution backend 'nope'"):
            make_backend("nope")
        with pytest.raises(MPError, match="simtime"):
            make_backend("nope")

    def test_instance_passthrough(self):
        be = SimtimeBackend()
        assert make_backend(be) is be

    def test_default_is_simtime(self):
        rt = Runtime(2)
        try:
            assert isinstance(rt.backend, SimtimeBackend)
            assert rt.backend.runtime is rt
        finally:
            rt.shutdown()


class TestRuntimeIntegration:
    @pytest.mark.parametrize("backend", ["simtime", "mproc"])
    def test_run_program_backend_kwarg(self, backend):
        rt = run_program(ring_program(rounds=1), nprocs=3, backend=backend)
        assert rt.procs[0].result == 1.0 * sum(range(3))
        assert rt.backend.name == backend

    def test_unknown_backend_at_runtime_construction(self):
        with pytest.raises(MPError, match="unknown execution backend"):
            Runtime(2, backend="bogus")

    def test_backend_rebind_rejected(self):
        rt = Runtime(2)
        try:
            with pytest.raises(MPError, match="already bound"):
                Runtime(2, backend=rt.backend)
        finally:
            rt.shutdown()

    def test_scheduler_property_is_backend(self):
        rt = Runtime(2, backend="simtime")
        try:
            assert rt.scheduler is rt.backend
        finally:
            rt.shutdown()


class TestCapabilityGating:
    def test_mproc_rejects_debugger_surface(self):
        rt = Runtime(2, backend="mproc")
        try:
            with pytest.raises(MPError, match="does not support the debugger"):
                rt.set_thresholds({0: 1})
        finally:
            rt.shutdown()

    def test_mproc_rejects_target_wrappers(self):
        rt = Runtime(2, backend="mproc")
        try:
            with pytest.raises(MPError, match="target_wrappers"):
                rt.launch(ring_program(), target_wrappers=[lambda t, r: t])
        finally:
            rt.shutdown()

    def test_mproc_rejects_stop_on_entry(self):
        rt = Runtime(2, backend="mproc")
        try:
            with pytest.raises(MPError, match="debugger"):
                rt.launch(ring_program(), stop_on_entry=True)
        finally:
            rt.shutdown()

    def test_simtime_supports_debugger(self):
        be = make_backend("simtime")
        assert be.supports_debugger and be.supports_wrappers
        assert be.deterministic
        assert not MprocBackend().deterministic
