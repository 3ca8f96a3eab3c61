"""Call-site locations: the memoized stack walk agrees with the uncached
oracle on every wrapped call, and shares one object per line."""

from __future__ import annotations

import os

import pytest

from repro import mp
from repro.apps import strassen as st
from repro.apps.ring import halo_program, ring_program
from repro.instrument import WrapperLibrary
from repro.mp.locutil import caller_location
from repro.trace import TraceRecorder
from tests import oracles

#: app -> (program factory, nprocs, the file its constructs live in)
PROGRAMS = {
    "ring": (lambda: ring_program(rounds=2), 4, "ring.py"),
    "halo": (lambda: halo_program(steps=2), 6, "ring.py"),
    "strassen": (
        lambda: st.strassen_program(st.StrassenConfig(n=8, nprocs=4)),
        4,
        "strassen.py",
    ),
}


#: The extra wrapper is compiled under an instrumentation-package path:
#: a profiling library's frames are infrastructure, so both walks step
#: over it exactly as they step over the WrapperLibrary's own frames.
ORACLE_WRAPPER_FILE = os.path.join(os.sep, "oracle", "repro", "instrument", "oracle.py")
ORACLE_WRAPPER_SRC = """
def make(expected, oracle_location):
    def wrapper(next_call, comm, *args, **kwargs):
        expected.setdefault((comm.rank, comm.proc.marker), oracle_location())
        return next_call(comm, *args, **kwargs)

    return wrapper
"""


def oracle_wrapper(expected):
    namespace: dict = {}
    exec(compile(ORACLE_WRAPPER_SRC, ORACLE_WRAPPER_FILE, "exec"), namespace)
    return namespace["make"](expected, oracles.caller_location)


@pytest.mark.parametrize("app", sorted(PROGRAMS))
def test_record_locations_equal_uncached_walk(app):
    """An extra wrapper, linked before the library so it runs inside it,
    takes the oracle's location of every call, keyed by the marker the
    library just bumped; each library record carries that location."""
    make, nprocs, source = PROGRAMS[app]
    rt = mp.Runtime(nprocs)
    expected: dict = {}
    wrapper = oracle_wrapper(expected)
    rt.pmpi_layer.install_all(mp.INTERPOSABLE_OPS, lambda op: wrapper)
    recorder = TraceRecorder(nprocs)
    WrapperLibrary(rt, recorder)
    rt.run(make())
    rt.shutdown()
    trace = recorder.snapshot()
    assert len(trace) > 0
    for rec in trace:
        assert rec.location == expected[(rec.proc, rec.marker)], rec
        assert rec.location.filename.endswith(os.path.join("apps", source))


def test_same_line_returns_identical_object():
    def here():
        return caller_location(), oracles.caller_location()

    locs = []
    for _ in range(3):
        loc, want = here()
        assert loc == want
        locs.append(loc)
    assert locs[0] is locs[1] is locs[2]
    assert locs[0].function == "test_same_line_returns_identical_object"
    other, _ = here()  # another line of the same function
    assert other is not locs[0] and other.lineno != locs[0].lineno
