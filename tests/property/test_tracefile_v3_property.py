"""Property: format v3 agrees with v2 record-for-record.

A v3 file is just an encoding change -- whatever batch of records goes
in, the decoded stream (whole-file, windowed, or columnar via
``read_columns``) must equal what the v2 JSON-lines path yields for the
same batch, including unicode payloads, and a crash-truncated v3 file
must decode to an exact block-aligned prefix.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
)
from tests.legacy_formats import write_legacy

NPROCS = 4
KINDS = list(EventKind)

# text that exercises interning and unicode (payload side tables are
# UTF-8 JSON): includes multibyte, RTL, and surrogate-adjacent chars
name_strategy = hst.text(
    alphabet=hst.characters(
        blacklist_categories=("Cs",),  # no lone surrogates (not UTF-8)
        min_codepoint=1,
    ),
    min_size=1,
    max_size=12,
)

time_strategy = hst.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False,
    width=64,
)


@hst.composite
def record_strategy(draw, index: int):
    t0 = draw(time_strategy)
    rec = TraceRecord(
        index=index,
        proc=draw(hst.integers(0, NPROCS - 1)),
        kind=draw(hst.sampled_from(KINDS)),
        t0=t0,
        t1=t0 + draw(hst.floats(0.0, 100.0, allow_nan=False, width=64)),
        marker=draw(hst.integers(0, 2**31)),
        location=SourceLocation(
            draw(name_strategy), draw(hst.integers(0, 10_000)), draw(name_strategy)
        ),
    )
    if draw(hst.booleans()):
        rec.src = draw(hst.integers(-1, NPROCS - 1))
        rec.dst = draw(hst.integers(-1, NPROCS - 1))
        rec.tag = draw(hst.integers(-1, 2**31 - 1))  # i4 column bound
        rec.size = draw(hst.integers(0, 2**40))
        rec.seq = draw(hst.integers(-1, 2**40))
    if draw(hst.booleans()):
        rec.peer_location = SourceLocation(
            draw(name_strategy), draw(hst.integers(0, 10_000)), draw(name_strategy)
        )
        rec.peer_marker = draw(hst.integers(-1, 2**31))
        rec.peer_time = draw(time_strategy)
    if draw(hst.booleans()):
        rec.extra = draw(
            hst.dictionaries(
                name_strategy,
                hst.one_of(
                    hst.integers(-(2**31), 2**31),
                    name_strategy,
                    hst.floats(allow_nan=False, allow_infinity=False),
                ),
                max_size=3,
            )
        )
    return rec


@hst.composite
def batch_strategy(draw, max_size=60):
    n = draw(hst.integers(0, max_size))
    return [draw(record_strategy(i)) for i in range(n)]


def write_file(path, batch, version, index_block=8):
    if version == 2:
        write_legacy(path, NPROCS, batch, 2, index_block)
        return
    with TraceFileWriter(path, nprocs=NPROCS, index_block=index_block) as w:
        for rec in batch:
            w.write(rec)


@settings(max_examples=30, deadline=None)
@given(batch=batch_strategy())
def test_v3_equals_v2_record_for_record(tmp_path_factory, batch):
    tmp = tmp_path_factory.mktemp("v3prop")
    p2, p3 = tmp / "t2.trace", tmp / "t3.trace"
    write_file(p2, batch, version=2)
    write_file(p3, batch, version=3)
    via_v2 = TraceFileReader(p2).read_all()
    reader3 = TraceFileReader(p3)
    via_v3 = reader3.read_all()
    assert via_v3 == via_v2 == batch
    # the columnar bulk path agrees record-for-record too
    assert reader3.read_columns().to_records() == via_v2
    # and streaming iteration
    assert list(reader3.iter_records()) == via_v2


@settings(max_examples=20, deadline=None)
@given(
    batch=batch_strategy(max_size=40),
    lo=time_strategy,
    width=hst.floats(0.0, 1e6, allow_nan=False, width=64),
    procs=hst.one_of(
        hst.none(), hst.sets(hst.integers(0, NPROCS - 1), max_size=NPROCS)
    ),
)
def test_v3_windows_equal_v2_windows(tmp_path_factory, batch, lo, width, procs):
    tmp = tmp_path_factory.mktemp("v3win")
    p2, p3 = tmp / "t2.trace", tmp / "t3.trace"
    write_file(p2, batch, version=2)
    write_file(p3, batch, version=3)
    hi = lo + width
    want = TraceFileReader(p2).seek_window(lo, hi, procs)
    reader3 = TraceFileReader(p3)
    assert reader3.seek_window(lo, hi, procs) == want
    assert reader3.read_columns(t_lo=lo, t_hi=hi, procs=procs).to_records() == want


@settings(max_examples=20, deadline=None)
@given(batch=batch_strategy(max_size=40), cut=hst.integers(1, 200))
def test_truncated_v3_decodes_to_block_prefix(tmp_path_factory, batch, cut):
    """Cutting bytes off an unfooted v3 file yields an exact prefix of
    the batch at a block boundary (never scrambled or interleaved)."""
    tmp = tmp_path_factory.mktemp("v3cut")
    path = tmp / "t.trace"
    w = TraceFileWriter(path, nprocs=NPROCS, index_block=8)
    for rec in batch:
        w.write(rec)
    w.flush()  # crash before close: no footer
    body_start = TraceFileReader(path)._data_offset
    size = path.stat().st_size
    cut = min(cut, size - body_start)
    with path.open("rb+") as fh:
        fh.truncate(size - cut)
    w.close()  # release the handle (footer lands past our truncation point)
    with path.open("rb+") as fh:
        fh.truncate(size - cut)
    reader = TraceFileReader(path)
    got = reader.read_all(tolerant=True)
    assert got == batch[: len(got)]
    assert len(got) % 8 == 0 or len(got) == len(batch)
    if cut > 0:
        assert reader.last_skipped_lines <= 1


@settings(max_examples=25, deadline=None)
@given(
    batch=batch_strategy(max_size=50),
    by=hst.sampled_from(["proc", "hash"]),
    compression=hst.sampled_from([None, "zlib"]),
)
def test_sharded_compressed_equals_single_file(
    tmp_path_factory, batch, by, compression
):
    """A sharded (and optionally compressed) store decodes to exactly
    the same record stream as a plain single-file v3 store -- whole-file,
    columnar, and windowed reads alike."""
    from repro.trace import TraceShardWriter

    tmp = tmp_path_factory.mktemp("shardprop")
    single, sharded = tmp / "single.trace", tmp / "sharded.trace"
    write_file(single, batch, version=3)
    kwargs = {"by": by} if by == "proc" else {"by": by, "shards": 3}
    with TraceShardWriter(
        sharded, nprocs=NPROCS, index_block=8, compression=compression, **kwargs
    ) as w:
        for rec in batch:
            w.write(rec)
    want = TraceFileReader(single).read_all()
    reader = TraceFileReader(sharded)
    assert reader.sharded
    assert reader.read_all() == want == batch
    assert reader.read_columns().to_records() == want
    assert list(reader.iter_records()) == want
    if batch:
        t_lo = min(r.t0 for r in batch)
        t_hi = max(r.t0 for r in batch)
        mid = (t_lo + t_hi) / 2.0
        assert reader.seek_window(t_lo, mid) == TraceFileReader(
            single
        ).seek_window(t_lo, mid)
