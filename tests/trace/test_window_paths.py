"""Every windowed read agrees on every storage layout.

A window query has one kernel (``columnar.gather_window``) fed by
several block sources: footer-selected blocks, the linear walk of a
footerless or v1 file, v2 record lines parsed into blocks, the shards
of a manifest, and the paged index's cache.  The differential test
below is the oracle across them: each read path on each layout returns
what the in-memory ``HistoryIndex.window`` returns, filtered by procs.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis import HistoryIndex
from repro.analysis.paged import OutOfCoreIndex
from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    TraceFileError,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
    TraceShardWriter,
)
from repro.trace.trace import Trace
from repro.trace.tracefile import main as tracefile_main
from repro.viz import build_window_diagram
from tests.legacy_formats import write_legacy

NPROCS = 4
INDEX_BLOCK = 16
LAYOUTS = [
    "v1",
    "v2",
    "v2-footerless",
    "v3",
    "v3-footerless",
    "v3-zlib",
    "sharded-proc",
    "sharded-hash",
]
FOOTER_PREFIX = b'{"__trace_index__'


def make_records(seed: int, n: int = 300) -> list[TraceRecord]:
    """Seeded records in index order, with message fields, peer
    locations, ``extra`` dicts, zero-length records and a few that end
    before they start.  A receive takes the key of an earlier send still
    in flight, when there is one; keys never repeat."""
    rng = random.Random(seed)
    kinds = [EventKind.COMPUTE, EventKind.SEND, EventKind.RECV, EventKind.FUNC_ENTRY]
    in_flight: list[TraceRecord] = []
    out = []
    for i in range(n):
        t0 = round(rng.uniform(0, 100), 3)
        t1 = t0 if rng.random() < 0.1 else round(t0 + rng.uniform(0, 4), 3)
        if rng.random() < 0.05:
            t1 = round(t0 - rng.uniform(0.5, 20), 3)
        rec = TraceRecord(
            index=i,
            proc=rng.randrange(NPROCS),
            kind=rng.choice(kinds),
            t0=t0,
            t1=t1,
            marker=i + 1,
            location=SourceLocation(f"f{rng.randrange(3)}.py", rng.randrange(1, 40), "fn"),
        )
        if rec.kind is EventKind.SEND:
            rec.src, rec.dst, rec.tag, rec.seq = rec.proc, rng.randrange(NPROCS), 7, i
            in_flight.append(rec)
        if rec.kind is EventKind.RECV:
            rec.src = rng.randrange(NPROCS)
            if in_flight:
                send = in_flight.pop(rng.randrange(len(in_flight)))
                rec.proc, rec.src, rec.dst = send.dst, send.src, send.dst
                rec.tag, rec.seq = send.tag, send.seq
            rec.peer_location = SourceLocation("peer.py", rng.randrange(1, 9), "send")
        if rng.random() < 0.2:
            rec.extra = {"note": f"x{i}"}
        out.append(rec)
    return out


def write_layout(path, layout: str, records) -> None:
    if layout[:2] in ("v1", "v2"):
        footer = not layout.endswith("footerless")
        write_legacy(path, NPROCS, records, int(layout[1]), INDEX_BLOCK, footer)
        return
    if layout.startswith("sharded"):
        routing = {"by": "proc"} if layout == "sharded-proc" else {"by": "hash", "shards": 3}
        writer = TraceShardWriter(path, NPROCS, index_block=INDEX_BLOCK, **routing)
    else:
        writer = TraceFileWriter(
            path,
            NPROCS,
            index_block=INDEX_BLOCK,
            compression="zlib" if layout == "v3-zlib" else None,
        )
    with writer as w:
        for rec in records:
            w.write(rec)
    if layout.endswith("footerless"):
        data = path.read_bytes()
        # v3 writes a newline before its footer
        path.write_bytes(data[: data.rindex(FOOTER_PREFIX) - 1])


def windows(seed: int, records) -> list[tuple[float, float, object]]:
    """Seeded windows: inverted, empty procs, one rank, the whole span,
    a record that ends before it starts, and random ones."""
    rng = random.Random(seed)
    lo = min(min(r.t0, r.t1) for r in records)
    hi = max(max(r.t0, r.t1) for r in records)
    backwards = next(r for r in records if r.t1 < r.t0)
    out = [
        (60.0, 40.0, None),
        (lo, hi, set()),
        (lo, hi, {rng.randrange(NPROCS)}),
        (lo, hi, None),
        (backwards.t1, backwards.t0, None),
        (backwards.t1 + 0.001, backwards.t0, {backwards.proc}),
    ]
    for _ in range(6):
        a = rng.uniform(lo, hi)
        b = a + rng.uniform(0, 15)
        procs = set(rng.sample(range(NPROCS), 2)) if rng.random() < 0.5 else None
        out.append((a, b, procs))
    return out


def oracle(history: HistoryIndex, t_lo, t_hi, procs) -> list[TraceRecord]:
    return [
        r for r in history.window(t_lo, t_hi) if procs is None or r.proc in procs
    ]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_window_path_agrees_with_the_history_index(tmp_path, layout, seed):
    records = make_records(seed)
    history = HistoryIndex.from_trace(Trace(records, NPROCS))
    pairs = [(p.send, p.recv) for p in history.message_pairs()]
    assert len(pairs) > 20
    path = tmp_path / "w.trace"
    write_layout(path, layout, records)
    reader = TraceFileReader(path)
    assert reader.has_index == (layout not in ("v1", "v2-footerless", "v3-footerless"))
    paged = OutOfCoreIndex(reader, cache_blocks=4) if reader.has_index else None
    for t_lo, t_hi, procs in windows(seed, records):
        want = oracle(history, t_lo, t_hi, procs)
        where = f"{layout} window [{t_lo}, {t_hi}] procs={procs}"
        assert reader.seek_window(t_lo, t_hi, procs) == want, where
        assert reader.seek_window(t_lo, t_hi, procs, use_index=False) == want, where
        assert reader.read_columns(t_lo, t_hi, procs).to_records() == want, where
        assert reader.last_skipped_lines == 0, where
        if paged is not None:
            assert paged.seek_window(t_lo, t_hi, procs) == want, where
            assert paged.read_columns(t_lo, t_hi, procs).to_records() == want, where
        bars = [
            r
            for r in want
            if r.t1 > r.t0 and r.kind not in (EventKind.PROC_START, EventKind.PROC_EXIT)
        ]
        kept = {r.index for r in want}
        lines = [(s, r) for s, r in pairs if s.index in kept and r.index in kept]
        for source in (reader, paged) if paged is not None else (reader,):
            diagram = build_window_diagram(source, t_lo, t_hi, procs)
            assert [b.record for b in diagram.bars] == bars, where
            assert [(m.send, m.recv) for m in diagram.messages] == lines, where
            # a line's ends are the records its bars hold
            drawn = {id(b.record) for b in diagram.bars}
            assert all(
                id(end) in drawn
                for m in diagram.messages
                for end in (m.send, m.recv)
                if end.t1 > end.t0
            ), where
    assert reader.read_columns().to_records() == records


# ----------------------------------------------------------------------
# torn files: the §4.1 crash case
# ----------------------------------------------------------------------
def plain_records(n: int) -> list[TraceRecord]:
    return [
        TraceRecord(i, i % 2, EventKind.COMPUTE, float(i) / 100, float(i) / 100 + 0.5, i + 1)
        for i in range(n)
    ]


@pytest.mark.parametrize("layout", ["v1", "v2-footerless", "v3-footerless"])
def test_windowed_reads_of_a_torn_file_return_the_intact_prefix(tmp_path, capsys, layout):
    """A file whose writer died mid-flush: the last line or block is cut.
    Windowed reads return the intact prefix's window and count the torn
    tail once, whatever the format version."""
    records = plain_records(2000)
    path = tmp_path / "torn.trace"
    write_layout(path, layout, records)
    path.write_bytes(path.read_bytes()[:-20])
    # v1/v2 lose the torn line; v3 loses the torn block
    intact = records[:-1] if layout[1] in "12" else records[:-INDEX_BLOCK]
    reader = TraceFileReader(path)
    assert not reader.has_index
    for t_lo, t_hi in [(10.0, 20.0), (0.0, 30.0)]:
        want = [r for r in intact if r.t1 >= t_lo and r.t0 <= t_hi]
        assert want
        got = reader.read_columns(t_lo, t_hi).to_records()
        assert got == want
        assert reader.last_skipped_lines == 1
        assert reader.seek_window(t_lo, t_hi) == want
        assert reader.last_skipped_lines == 1
        bars = build_window_diagram(reader, t_lo, t_hi).bars
        assert [b.record.marker for b in bars] == [r.marker for r in want]
        assert reader.last_skipped_lines == 1
    with pytest.raises(TraceFileError, match="malformed"):
        reader.read_columns(10.0, 20.0, tolerant=False)
    # ``info`` walks the file once, so it counts the torn tail once
    tracefile_main(["info", "--json", str(path)])
    info = json.loads(capsys.readouterr().out)
    assert (info["records"], info["damage"]) == (len(intact), 1)


# ----------------------------------------------------------------------
# per-read damage on a manifest
# ----------------------------------------------------------------------
def test_manifest_damage_count_covers_only_the_shards_a_read_touches(tmp_path):
    """Shard 1 lost its footer and the end of its last block; a read
    that only touches shard 0 reports no damage."""
    records = plain_records(600)
    path = tmp_path / "store.trace"
    with TraceShardWriter(path, 2, by="proc", index_block=64, compression=None) as w:
        for rec in records:
            w.write(rec)
    shard1 = tmp_path / "store-shard0001.trace"
    data = shard1.read_bytes()
    shard1.write_bytes(data[: data.rindex(FOOTER_PREFIX) - 1 - 20])

    reader = TraceFileReader(path)
    reader.read_all(tolerant=True)
    assert reader.last_skipped_lines == 1
    want = [r for r in records if r.proc == 0 and r.t1 >= 1.0 and r.t0 <= 2.0]
    assert reader.seek_window(1.0, 2.0, procs={0}) == want
    assert reader.last_skipped_lines == 0
    assert reader.read_columns(1.0, 2.0, procs={0}).to_records() == want
    assert reader.last_skipped_lines == 0
    reader.read_columns()
    assert reader.last_skipped_lines == 1
    assert reader.skipped_lines == 2
