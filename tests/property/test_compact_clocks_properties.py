"""Property: every answer read from the compact clock table equals the
full clock matrix's.

The index keeps vector clocks as a table of segment bases plus each
row's segment and own count (``ClockTable``).  On random traces (the
adversarial generator of ``test_analysis_kernels_properties``), indexed
in one batch, by chunked ``extend`` with a catch-up after every chunk
(so sends are often matched, and joined, in a later catch-up than the
one that clocked them) and from a v3 file, these must equal the answers
of ``tests.oracles.clocks``'s (n, p) matrix: ``happens_before`` over all
pairs, the past, future and concurrency region of every event,
``is_antichain`` on random subsets, ``detect_races``, and the forcing
log of every ``steer_to_alternative`` (against the per-receive
happens-before rule of ``tests.oracles.steer_to_alternative``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.analysis import HistoryIndex, is_antichain
from repro.analysis.races import detect_races, steer_to_alternative
from repro.mp.message import Envelope
from repro.mp.record import CommLog
from repro.trace import TraceFileReader, TraceFileWriter
from tests import oracles
from tests.property.test_analysis_kernels_properties import trace_records

BUILDS = ("batch", "chunked", "file")


def build(nprocs, records, how, chunk, tmp: Path) -> HistoryIndex:
    if how == "batch":
        return HistoryIndex(records, nprocs=nprocs)
    if how == "chunked":
        idx = HistoryIndex(nprocs=nprocs)
        for lo in range(0, len(records), chunk):
            idx.extend_many(records[lo:lo + chunk])
            _ = idx.order  # a clock catch-up per chunk
        assert idx.stats().clock_builds == 1
        return idx
    path = tmp / "t.trace"
    with TraceFileWriter(path, nprocs, index_block=16) as w:
        for rec in records:
            w.write(rec)
    return HistoryIndex.from_file(TraceFileReader(path))


def base_log(records, nprocs) -> CommLog:
    """The forcing log of the recorded execution: each rank's receives,
    in program order, matched to their own envelopes."""
    log = CommLog()
    for r, row in enumerate(oracles.by_proc(records, nprocs)):
        for post, rec in enumerate(x for x in row if x.is_recv):
            log.recv_matches[(r, post)] = Envelope(
                src=rec.src, dst=rec.dst, tag=rec.tag, seq=rec.seq,
                comm_id=rec.extra.get("comm", 0),
            )
    return log


def steer_outcome(steer, *args, **kwargs):
    try:
        return dict(steer(*args, **kwargs).recv_matches)
    except ValueError as exc:  # UnsteerableAlternativeError included
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.sampled_from(BUILDS), hst.integers(1, 9), hst.data())
def test_compact_clocks_answer_like_the_matrix(tr, how, chunk, data):
    nprocs, records = tr
    with tempfile.TemporaryDirectory() as tmp:
        idx = build(nprocs, records, how, chunk, Path(tmp))
    n = len(records)
    sor = oracles.match(records).send_of_recv
    vc = oracles.clocks(records, nprocs, sor)
    procs = np.array([r.proc for r in records], dtype=np.int64)
    order = idx.order

    # happens_before, all pairs: a -> b iff VC[a][pa] <= VC[b][pa]
    own = vc[np.arange(n), procs]
    hb = own[:, None] <= vc[:, procs].T
    np.fill_diagonal(hb, False)
    got = np.array(
        [[order.happens_before(a, b) for b in range(n)] for a in range(n)]
    )
    np.testing.assert_array_equal(got, hb)

    # the cones of every event
    for e in range(n):
        ref = oracles.frontiers(vc, procs, e)
        cones = order.cones(e)
        assert cones.past().tolist() == ref.past.tolist()
        assert cones.future().tolist() == ref.future.tolist()
        assert cones.concurrent().tolist() == ref.concurrency.tolist()

    # is_antichain on random subsets
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**31)))
    for _ in range(10):
        sel = rng.choice(n, size=min(n, int(rng.integers(1, 6))), replace=False)
        want = not hb[np.ix_(sel, sel)].any()
        assert is_antichain(idx.trace, sel.tolist(), index=idx) == want

    # races, and the steering log of every alternative
    races = detect_races(idx.trace, index=idx)
    ref_races = oracles.detect_races(records, sor, vc)
    assert [
        (r.recv.index, r.matched_send.index, [a.index for a in r.alternatives])
        for r in races
    ] == [
        (r.recv.index, r.matched_send.index, [a.index for a in r.alternatives])
        for r in ref_races
    ]
    log = base_log(records, nprocs)
    for race in races:
        for alt in race.alternatives:
            assert steer_outcome(
                steer_to_alternative, log, idx.trace, race, alt, index=idx
            ) == steer_outcome(
                oracles.steer_to_alternative, log, records, nprocs, race, alt, vc
            )
