"""Property-style round-trip tests for the trace-file format.

Arbitrary record batches through ``TraceFileWriter`` then back through
``TraceFileReader`` must preserve order, kinds, and payloads -- for the
current (v3, columnar) format, and for the v2 indexed JSON-lines and
legacy v1 files the reader still reads (written by
``tests.legacy_formats``), and whether the read is a full load, a
linear stream, or an indexed window seek.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
)
from repro.trace.tracefile import FORMAT_NAME
from tests.legacy_formats import write_legacy

KINDS = list(EventKind)


def random_record(rng: random.Random, index: int, nprocs: int) -> TraceRecord:
    """One arbitrary record; ~half carry message fields and payloads."""
    t0 = round(rng.uniform(0, 100), 3)
    kind = rng.choice(KINDS)
    rec = TraceRecord(
        index=index,
        proc=rng.randrange(nprocs),
        kind=kind,
        t0=t0,
        t1=round(t0 + rng.uniform(0, 5), 3),
        marker=index + 1,
        location=SourceLocation(
            f"file{rng.randrange(3)}.py", rng.randrange(1, 500), f"fn{rng.randrange(5)}"
        ),
    )
    if rng.random() < 0.5:
        rec.src = rng.randrange(nprocs)
        rec.dst = rng.randrange(nprocs)
        rec.tag = rng.randrange(100)
        rec.size = rng.randrange(1, 1 << 16)
        rec.seq = rng.randrange(1000)
    if rng.random() < 0.3:
        rec.peer_location = SourceLocation("peer.py", 7, "sender")
        rec.peer_marker = rng.randrange(100)
        rec.peer_time = round(rng.uniform(0, 100), 3)
    if rng.random() < 0.3:
        rec.extra = {"note": f"x{index}", "n": rng.randrange(10)}
    return rec


def make_batch(seed: int, n: int, nprocs: int = 4) -> list[TraceRecord]:
    rng = random.Random(seed)
    return [random_record(rng, i, nprocs) for i in range(n)]


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 17), (2, 100), (3, 613)])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_roundtrip_preserves_everything(tmp_path, seed, n, version):
    batch = make_batch(seed, n)
    path = tmp_path / "t.jsonl"
    if version == 3:
        with TraceFileWriter(path, nprocs=4, index_block=64) as w:
            for rec in batch:
                w.write(rec)
    else:
        write_legacy(path, 4, batch, version, index_block=64)
    back = list(TraceFileReader(path).iter_records())
    assert back == batch  # order, kinds, every payload field


@pytest.mark.parametrize("seed", [5, 6])
def test_roundtrip_through_flush_boundaries(tmp_path, seed):
    """Flush cadence must not affect the decoded stream."""
    batch = make_batch(seed, 200)
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(path, nprocs=4, auto_flush_every=7) as w:
        for rec in batch:
            w.write(rec)
    assert list(TraceFileReader(path).iter_records()) == batch


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_seek_window_equals_linear_filter(tmp_path, seed):
    """The indexed path answers exactly what the linear path answers."""
    batch = make_batch(seed, 400)
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(path, nprocs=4, index_block=32) as w:
        for rec in batch:
            w.write(rec)
    reader = TraceFileReader(path)
    assert reader.has_index
    rng = random.Random(seed * 31)
    for _ in range(5):
        t_lo = rng.uniform(0, 90)
        t_hi = t_lo + rng.uniform(0, 30)
        procs = rng.choice([None, {0}, {1, 3}])
        indexed = reader.seek_window(t_lo, t_hi, procs)
        linear = reader.seek_window(t_lo, t_hi, procs, use_index=False)
        assert indexed == linear


def test_seek_window_reads_fewer_bytes(tmp_path):
    batch = make_batch(11, 2000)
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(path, nprocs=4, index_block=64) as w:
        for rec in batch:
            w.write(rec)
    reader = TraceFileReader(path)
    reader.seek_window(10.0, 12.0)
    seek_bytes = reader.bytes_read
    reader.seek_window(10.0, 12.0, use_index=False)
    linear_bytes = reader.bytes_read - seek_bytes
    assert 0 < seek_bytes < linear_bytes


def test_v1_file_backward_compat(tmp_path):
    """A legacy v1 file (hand-written, no footer) reads unchanged."""
    batch = make_batch(12, 50)
    path = tmp_path / "legacy.jsonl"
    lines = [json.dumps({"format": FORMAT_NAME, "version": 1, "nprocs": 4})]
    lines += [json.dumps(r.to_jsonable()) for r in batch]
    path.write_text("\n".join(lines) + "\n")
    reader = TraceFileReader(path)
    assert reader.version == 1
    assert not reader.has_index
    assert list(reader.iter_records()) == batch
    # windowing still works through the linear fallback
    got = reader.seek_window(5.0, 20.0, procs={0, 1})
    assert got == [r for r in batch
                   if r.t1 >= 5.0 and r.t0 <= 20.0 and r.proc in {0, 1}]


def test_unclosed_v2_file_falls_back_to_linear(tmp_path):
    """Footer missing (writer never closed / crashed): linear path."""
    batch = make_batch(14, 20)
    path = tmp_path / "t.jsonl"
    write_legacy(path, 4, batch, 2, footer=False)
    reader = TraceFileReader(path)
    assert reader.version == 2
    assert not reader.has_index
    assert list(reader.iter_records()) == batch
    assert reader.seek_window(0.0, 1000.0) == batch


def test_index_survives_tolerant_read(tmp_path):
    """The footer line is never miscounted as a damaged record."""
    batch = make_batch(15, 10)
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(path, nprocs=4) as w:
        for rec in batch:
            w.write(rec)
    reader = TraceFileReader(path)
    trace, skipped = reader.read_checked(tolerant=True)
    assert len(trace) == 10
    assert skipped == 0


def test_span_from_index(tmp_path):
    batch = make_batch(16, 100)
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(path, nprocs=4) as w:
        for rec in batch:
            w.write(rec)
    reader = TraceFileReader(path)
    before = reader.bytes_read
    t_lo, t_hi = reader.span()
    assert reader.bytes_read == before  # answered from the footer
    assert t_lo == min(r.t0 for r in batch)
    assert t_hi == max(r.t1 for r in batch)
