"""The PMPI interposition layer: wrappers over communication calls."""

from __future__ import annotations

import pytest

from repro import mp


def pingpong(comm):
    if comm.rank == 0:
        comm.send("ping", dest=1)
        return comm.recv(source=1)
    got = comm.recv(source=0)
    comm.send(got + "-pong", dest=0)
    return None


class TestWrapperMechanics:
    def test_wrapper_sees_calls(self):
        events = []

        def wrap_send(next_call, comm, obj, dest, tag=0):
            events.append(("send", comm.rank, dest))
            return next_call(comm, obj, dest, tag)

        rt = mp.Runtime(2)
        rt.pmpi_layer.install("send", wrap_send)
        rt.run(pingpong)
        assert ("send", 0, 1) in events and ("send", 1, 0) in events

    def test_wrapper_reads_op_detail(self):
        details = []

        def wrap_recv(next_call, comm, *args, **kw):
            out = next_call(comm, *args, **kw)
            details.append(comm.last_op)
            return out

        rt = mp.Runtime(2)
        rt.pmpi_layer.install("recv", wrap_recv)
        rt.run(pingpong)
        assert all(d.op == "recv" for d in details)
        assert {(d.src, d.dst) for d in details} == {(0, 1), (1, 0)}
        assert all(d.t1 >= d.t0 for d in details)

    def test_wrapper_stacking_order(self):
        """Last-installed wrapper runs outermost, like link order."""
        calls = []

        def make(tagname):
            def wrapper(next_call, comm, *args, **kw):
                calls.append(f"{tagname}-in")
                out = next_call(comm, *args, **kw)
                calls.append(f"{tagname}-out")
                return out

            return wrapper

        rt = mp.Runtime(1)
        rt.pmpi_layer.install("compute", make("A"))
        rt.pmpi_layer.install("compute", make("B"))
        rt.run(lambda comm: comm.compute(1.0))
        assert calls == ["B-in", "A-in", "A-out", "B-out"]

    def test_uninstall(self):
        count = [0]

        def wrapper(next_call, comm, *args, **kw):
            count[0] += 1
            return next_call(comm, *args, **kw)

        layer = mp.PMPILayer()
        layer.install("send", wrapper)
        assert layer.wrapper_count("send") == 1
        assert layer.uninstall("send", wrapper) is True
        assert layer.uninstall("send", wrapper) is False
        assert layer.wrapper_count("send") == 0

    def test_unknown_op_rejected(self):
        layer = mp.PMPILayer()
        with pytest.raises(ValueError, match="unknown interposable"):
            layer.install("teleport", lambda *a: None)

    def test_clear_removes_everything(self):
        layer = mp.PMPILayer()
        layer.install("send", lambda n, c, *a, **k: n(c, *a, **k))
        layer.install("recv", lambda n, c, *a, **k: n(c, *a, **k))
        layer.clear()
        assert layer.wrapper_count("send") == 0
        assert layer.wrapper_count("recv") == 0

    def test_pmpi_name_shift_direct_call(self):
        """Calling pmpi_send directly bypasses the wrapper, as PMPI_Send
        bypasses a tool's MPI_Send."""
        seen = []

        def wrap_send(next_call, comm, *args, **kw):
            seen.append(args)
            return next_call(comm, *args, **kw)

        def prog(comm):
            if comm.rank == 0:
                comm.pmpi_send("direct", 1, 0)  # PMPI_ name: not wrapped
                comm.send("wrapped", dest=1, tag=0)  # MPI_ name: wrapped
            else:
                return [comm.recv(source=0), comm.recv(source=0)]

        rt = mp.Runtime(2)
        rt.pmpi_layer.install("send", wrap_send)
        rt.run(prog)
        assert rt.results()[1] == ["direct", "wrapped"]
        assert len(seen) == 1

    def test_collectives_route_constituents_through_wrappers(self):
        """A bcast's internal point-to-point traffic hits the send wrapper
        -- the property that makes collective traffic visible as message
        lines in the time-space diagram."""
        sends = []

        def wrap_send(next_call, comm, obj, dest, tag=0):
            sends.append((comm.rank, dest, tag))
            return next_call(comm, obj, dest, tag)

        rt = mp.Runtime(4)
        rt.pmpi_layer.install("send", wrap_send)
        rt.run(lambda comm: comm.bcast("data", root=0))
        assert len(sends) == 3
        assert all(tag == int(mp.CollectiveTag.BCAST) for (_, _, tag) in sends)

    def test_install_all(self):
        ops_seen = set()

        def factory(op):
            def wrapper(next_call, comm, *args, **kw):
                ops_seen.add(op)
                return next_call(comm, *args, **kw)

            return wrapper

        rt = mp.Runtime(2)
        rt.pmpi_layer.install_all(("send", "recv", "compute"), factory)

        def prog(comm):
            comm.compute(1.0)
            if comm.rank == 0:
                comm.send(1, dest=1)
            else:
                comm.recv(source=0)

        rt.run(prog)
        assert ops_seen == {"send", "recv", "compute"}

    def test_chain_follows_install_and_uninstall_between_calls(self):
        """The per-op chain is built once, but a library linked or
        unlinked after an op's first call takes effect on the next call,
        and two libraries keep the order B -> A -> pmpi."""
        calls = []

        def make(tagname):
            def wrapper(next_call, comm, *args, **kw):
                calls.append(tagname)
                return next_call(comm, *args, **kw)

            return wrapper

        a, b = make("A"), make("B")
        layer = None

        def step(comm, *edits):
            calls.clear()
            for edit in edits:
                edit()
            comm.compute(1.0)
            calls.append("pmpi")
            return list(calls)

        def prog(comm):
            return [
                step(comm),
                step(comm, lambda: layer.install("compute", a)),
                step(comm, lambda: layer.install("compute", b)),
                step(comm, lambda: layer.uninstall("compute", a)),
                step(comm, layer.clear),
            ]

        rt = mp.Runtime(1)
        layer = rt.pmpi_layer
        rt.run(prog)
        assert rt.results()[0] == [
            ["pmpi"],
            ["A", "pmpi"],
            ["B", "A", "pmpi"],
            ["B", "pmpi"],
            ["pmpi"],
        ]
