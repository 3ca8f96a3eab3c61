"""Property tests of the pure data structures: marker vectors, trace
records, viewports, and dissemination."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from repro.mp.datatypes import SourceLocation
from repro.trace import EventKind, MarkerVector, Trace, TraceRecord
from repro.viz import Viewport

# ----------------------------------------------------------------------
# MarkerVector algebra
# ----------------------------------------------------------------------
marker_vectors = hst.dictionaries(
    hst.integers(0, 5), hst.integers(0, 100), max_size=6
).map(MarkerVector)


@settings(max_examples=200)
@given(marker_vectors)
def test_vector_dominates_reflexive(v):
    assert v.dominates(v)


@settings(max_examples=200)
@given(marker_vectors, marker_vectors)
def test_merged_min_is_lower_bound(a, b):
    m = a.merged_min(b)
    assert a.dominates(m) and b.dominates(m)


@settings(max_examples=200)
@given(marker_vectors, marker_vectors)
def test_merged_min_commutative(a, b):
    assert a.merged_min(b) == b.merged_min(a)


#: three fully-constrained vectors over the same rank set (transitivity
#: only holds for comparable vectors: an unconstrained rank is a
#: wildcard by design).
_full_triples = hst.integers(1, 5).flatmap(
    lambda n: hst.tuples(
        *(
            hst.lists(hst.integers(0, 100), min_size=n, max_size=n).map(
                lambda vals: MarkerVector(dict(enumerate(vals)))
            )
            for _ in range(3)
        )
    )
)


@settings(max_examples=200)
@given(_full_triples)
def test_dominates_transitive(triple):
    a, b, c = triple
    if a.dominates(b) and b.dominates(c):
        assert a.dominates(c)


# ----------------------------------------------------------------------
# TraceRecord JSON roundtrip
# ----------------------------------------------------------------------
locations = hst.builds(
    SourceLocation,
    filename=hst.text(min_size=1, max_size=20).filter(lambda s: "\x00" not in s),
    lineno=hst.integers(0, 10_000),
    function=hst.text(min_size=1, max_size=15),
)

records = hst.builds(
    TraceRecord,
    index=hst.integers(0, 10**6),
    proc=hst.integers(0, 63),
    kind=hst.sampled_from(list(EventKind)),
    t0=hst.floats(0, 1e6, allow_nan=False),
    t1=hst.floats(0, 1e6, allow_nan=False),
    marker=hst.integers(0, 10**6),
    location=locations,
    src=hst.integers(-1, 63),
    dst=hst.integers(-1, 63),
    tag=hst.integers(-1, 1000),
    size=hst.integers(0, 10**6),
    seq=hst.integers(-1, 10**4),
    construct_id=hst.integers(-1, 100),
)


@settings(max_examples=300)
@given(records)
def test_record_json_roundtrip(rec):
    assert TraceRecord.from_jsonable(rec.to_jsonable()) == rec


# ----------------------------------------------------------------------
# Viewport math
# ----------------------------------------------------------------------
def viewport_strategy():
    return hst.tuples(
        hst.floats(-1e5, 1e5, allow_nan=False),
        hst.floats(1e-3, 1e5, allow_nan=False),
        hst.integers(2, 500),
    ).map(lambda t: Viewport(t[0], t[0] + t[1], t[2]))


@settings(max_examples=200)
@given(viewport_strategy(), hst.floats(-2.0, 3.0))
def test_column_clamped(vp, rel):
    t = vp.t0 + rel * vp.width
    col = vp.column_of(t)
    assert 0 <= col <= vp.columns - 1


@settings(max_examples=200)
@given(viewport_strategy(), hst.integers(0, 499))
def test_time_of_column_inside(vp, col):
    assume(col < vp.columns)
    t = vp.time_of(col)
    assert vp.t0 - 1e-6 <= t <= vp.t1 + 1e-6


@settings(max_examples=200)
@given(viewport_strategy(), hst.floats(1.01, 10.0))
def test_zoom_out_then_in_preserves_center(vp, factor):
    center = (vp.t0 + vp.t1) / 2
    back = vp.zoom(factor).zoom(1.0 / factor)
    assert abs(((back.t0 + back.t1) / 2) - center) <= max(1e-6, abs(center) * 1e-9)
    assert abs(back.width - vp.width) <= max(1e-6, vp.width * 1e-9)


# ----------------------------------------------------------------------
# Dissemination conserves event counts
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    hst.lists(hst.sampled_from(["f", "g", "h"]), min_size=1, max_size=120),
    hst.integers(2, 32),
)
def test_dissemination_conserves_calls(calls, limit):
    """Random call sequences: merged arc counts sum to the call count."""
    from repro.graphs import ArcKind, TraceGraph

    records = []
    t = 0.0
    for i, fn in enumerate(calls):
        records.append(
            TraceRecord(
                index=len(records), proc=0, kind=EventKind.FUNC_ENTRY,
                t0=t, t1=t, marker=i + 1,
                location=SourceLocation("app.py", 1, fn),
            )
        )
        records.append(
            TraceRecord(
                index=len(records), proc=0, kind=EventKind.FUNC_EXIT,
                t0=t + 0.5, t1=t + 0.5, marker=i + 1,
                location=SourceLocation("app.py", 1, fn),
            )
        )
        t += 1.0
    trace = Trace(records, nprocs=1)
    g = TraceGraph.from_trace(trace, arc_limit=limit)
    total = sum(a.count for a in g.arcs() if a.kind is ArcKind.CALL)
    assert total == len(calls)
