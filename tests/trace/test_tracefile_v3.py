"""Format v3: binary columnar blocks, bulk column reads, indexed window
reads, the recovery CLI, and the writer/seek edge-case fixes.

Compatibility invariants (v1/v2 files still read, written by
``tests.legacy_formats``) live in ``test_roundtrip_property`` and
``test_legacy_formats``; this module covers what v3 adds.
"""

from __future__ import annotations

import json
import mmap
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.history import HistoryIndex
from repro.graphs.tracegraph import TraceGraph
from repro.mp.datatypes import SourceLocation
from repro.trace import (
    ColumnBlock,
    EventKind,
    TraceFileError,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
)
from repro.trace.tracefile import main as tracefile_main
from repro.viz.timespace import build_window_diagram
from tests.legacy_formats import write_legacy

KINDS = list(EventKind)


def random_record(rng: random.Random, index: int, nprocs: int) -> TraceRecord:
    t0 = round(rng.uniform(0, 100), 3)
    rec = TraceRecord(
        index=index,
        proc=rng.randrange(nprocs),
        kind=rng.choice(KINDS),
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


def write_v3(path, batch, nprocs=4, index_block=64, close=True):
    writer = TraceFileWriter(path, nprocs=nprocs, index_block=index_block)
    for rec in batch:
        writer.write(rec)
    if close:
        writer.close()
    return writer


def write_version(path, batch, version, index_block=64):
    """``batch`` as a v1, v2 (``tests.legacy_formats``) or v3 file."""
    if version == 3:
        write_v3(path, batch, index_block=index_block)
    else:
        write_legacy(path, 4, batch, version, index_block)


class TestV3Format:
    def test_default_version_is_v3_and_indexed(self, tmp_path):
        path = tmp_path / "t.trace"
        write_v3(path, make_batch(0, 100))
        reader = TraceFileReader(path)
        assert reader.version == 3
        assert reader.has_index
        assert all(b.encoding == "columnar" for b in reader.index.blocks)

    def test_header_is_text_body_is_binary(self, tmp_path):
        path = tmp_path / "t.trace"
        write_v3(path, make_batch(1, 10))
        raw = path.read_bytes()
        header = json.loads(raw.split(b"\n", 1)[0])
        assert header["version"] == 3
        assert header["kinds"] == [k.value for k in EventKind]
        assert b"RTB3" in raw

    def test_read_all_roundtrip(self, tmp_path):
        batch = make_batch(2, 613)
        path = tmp_path / "t.trace"
        write_v3(path, batch)
        assert TraceFileReader(path).read_all() == batch

    def test_footerless_v3_reads_linearly(self, tmp_path):
        """Crashed writer (no footer): the self-delimiting block walk."""
        batch = make_batch(3, 100)
        path = tmp_path / "t.trace"
        w = write_v3(path, batch, close=False)
        w.flush()  # blocks on disk, no footer
        reader = TraceFileReader(path)
        assert reader.version == 3
        assert not reader.has_index
        assert reader.read_all() == batch
        assert reader.seek_window(0.0, 1000.0) == batch
        w.close()

    def test_trailing_garbage_strict_and_tolerant(self, tmp_path):
        batch = make_batch(4, 20)
        path = tmp_path / "t.trace"
        write_v3(path, batch)
        with path.open("ab") as fh:
            fh.write(b"RTB3garbage-that-is-not-a-block")
        with pytest.raises(TraceFileError, match="malformed record"):
            TraceFileReader(path).read()
        reader = TraceFileReader(path)
        trace, skipped = reader.read_checked(tolerant=True)
        assert len(trace) == len(batch)
        assert skipped == 1
        reader.read(tolerant=True)
        assert reader.skipped_lines == 2  # cumulative, like v2

    def test_truncated_final_block_tolerant(self, tmp_path):
        """A torn flush (block cut mid-bytes) drops only that block."""
        batch = make_batch(5, 100)
        path = tmp_path / "t.trace"
        w = write_v3(path, batch, index_block=32, close=False)
        w.flush()
        size = path.stat().st_size
        with path.open("rb+") as fh:
            fh.truncate(size - 11)
        reader = TraceFileReader(path)
        got = reader.read_all(tolerant=True)
        assert reader.last_skipped_lines == 1
        assert got == batch[: len(got)]  # an exact prefix, block-aligned
        assert len(got) == 96  # 3 of 4 blocks survive
        w.close()

    def test_unicode_payloads_roundtrip(self, tmp_path):
        rec = TraceRecord(
            index=0, proc=0, kind=EventKind.COMPUTE, t0=0.0, t1=1.0, marker=1,
            location=SourceLocation("méshページ.py", 3, "søknad"),
            extra={"λ": "данные", "emoji": "🜲"},
        )
        path = tmp_path / "t.trace"
        write_v3(path, [rec], nprocs=1)
        assert TraceFileReader(path).read_all() == [rec]


class TestIndexedWindow:
    def test_read_all_decodes_every_block_in_order(self, tmp_path):
        batch = make_batch(6, 800)
        path = tmp_path / "t.trace"
        write_v3(path, batch, index_block=32)  # 25 blocks
        reader = TraceFileReader(path)
        assert len(reader.index.blocks) >= 4
        assert reader.read_all() == batch
        assert list(reader.iter_records()) == batch
        assert reader.read_columns().to_records() == batch

    def test_indexed_window_equals_linear_scan(self, tmp_path):
        batch = make_batch(7, 800)
        path = tmp_path / "t.trace"
        write_v3(path, batch, index_block=32)
        reader = TraceFileReader(path)
        rng = random.Random(7)
        for _ in range(5):
            t_lo = rng.uniform(0, 90)
            t_hi = t_lo + rng.uniform(0, 30)
            procs = rng.choice([None, {0}, {1, 3}])
            indexed = reader.seek_window(t_lo, t_hi, procs)
            linear = reader.seek_window(t_lo, t_hi, procs, use_index=False)
            cols = reader.read_columns(t_lo, t_hi, procs).to_records()
            assert indexed == linear == cols

    def test_indexed_window_reads_fewer_bytes_than_linear(self, tmp_path):
        # records ordered in time so blocks have disjoint spans
        batch = make_batch(8, 2000)
        batch.sort(key=lambda r: r.t0)
        for i, rec in enumerate(batch):
            rec.index = i
        path = tmp_path / "t.trace"
        write_v3(path, batch, index_block=64)
        reader = TraceFileReader(path)
        reader.seek_window(10.0, 12.0)
        seek_bytes = reader.bytes_read
        reader.seek_window(10.0, 12.0, use_index=False)
        linear_bytes = reader.bytes_read - seek_bytes
        assert 0 < seek_bytes < linear_bytes


class TestWriterFooterOnException:
    def test_context_manager_writes_footer_when_body_raises(self, tmp_path):
        """Regression: a raising ``with`` body must still produce an
        indexed file (close() runs via __exit__ even on error)."""
        batch = make_batch(9, 50)
        path = tmp_path / "t.trace"
        with pytest.raises(RuntimeError, match="boom"):
            with TraceFileWriter(path, nprocs=4) as w:
                for rec in batch:
                    w.write(rec)
                raise RuntimeError("boom")
        reader = TraceFileReader(path)
        assert reader.has_index
        assert reader.read_all() == batch

    def test_footer_survives_failing_final_flush(self, tmp_path):
        """A v3 flush can fail at encode time (JSON-unserializable
        extra).  close() must still write a footer covering the records
        that made it to disk."""
        batch = make_batch(10, 40)
        poison = TraceRecord(
            index=40, proc=0, kind=EventKind.COMPUTE, t0=0.0, t1=1.0,
            marker=41, extra={"bad": object()},
        )
        path = tmp_path / "t.trace"
        w = TraceFileWriter(path, nprocs=4, index_block=16)
        for rec in batch:
            w.write(rec)
        w.flush()
        w.write(poison)
        with pytest.raises(TypeError):
            w.close()
        reader = TraceFileReader(path)
        assert reader.has_index
        assert reader.index.records == 40
        assert reader.read_all() == batch

    def test_double_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.trace"
        w = TraceFileWriter(path, nprocs=2)
        w.write(TraceRecord(index=0, proc=0, kind=EventKind.COMPUTE,
                            t0=0.0, t1=1.0, marker=1))
        w.close()
        w.close()
        reader = TraceFileReader(path)
        assert reader.index.records == 1


class TestSeekWindowEdgeCases:
    @pytest.fixture()
    def reader(self, tmp_path):
        recs = [
            TraceRecord(index=i, proc=i % 2, kind=EventKind.COMPUTE,
                        t0=float(i), t1=float(i) + 1.0, marker=i + 1)
            for i in range(10)
        ]
        path = tmp_path / "t.trace"
        write_v3(path, recs, nprocs=2, index_block=4)
        return TraceFileReader(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_empty_window_returns_nothing_without_io(self, tmp_path, version):
        path = tmp_path / "t.trace"
        write_version(path, make_batch(11, 30), version)
        reader = TraceFileReader(path)
        before = reader.bytes_read
        assert reader.seek_window(5.0, 1.0) == []  # t_lo > t_hi
        assert reader.bytes_read == before  # answered without touching disk

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_empty_procs_returns_nothing_without_io(self, tmp_path, version):
        path = tmp_path / "t.trace"
        write_version(path, make_batch(12, 30), version)
        reader = TraceFileReader(path)
        before = reader.bytes_read
        assert reader.seek_window(0.0, 100.0, procs=set()) == []
        assert reader.bytes_read == before

    def test_exact_boundaries_inclusive(self, reader):
        # record 3 spans [3, 4]: t1 == t_lo and t0 == t_hi both hit
        got = reader.seek_window(4.0, 4.0)
        assert sorted(r.index for r in got) == [3, 4]
        assert reader.seek_window(4.0, 4.0) == reader.seek_window(
            4.0, 4.0, use_index=False
        )

    def test_point_window_on_gap(self, reader):
        assert reader.seek_window(-5.0, -1.0) == []
        assert reader.seek_window(200.0, 300.0) == []

    def test_proc_filter(self, reader):
        got = reader.seek_window(0.0, 100.0, procs={1})
        assert [r.index for r in got] == [1, 3, 5, 7, 9]


class TestReadColumns:
    def test_columns_match_records(self, tmp_path):
        batch = make_batch(13, 500)
        path = tmp_path / "t.trace"
        write_v3(path, batch, index_block=64)
        reader = TraceFileReader(path)
        block = reader.read_columns()
        assert isinstance(block, ColumnBlock)
        assert len(block) == len(batch)
        assert block.to_records() == batch
        assert block.columns["t0"].tolist() == [r.t0 for r in batch]

    def test_windowed_columns_match_seek_window(self, tmp_path):
        batch = make_batch(14, 500)
        path = tmp_path / "t.trace"
        write_v3(path, batch, index_block=64)
        reader = TraceFileReader(path)
        block = reader.read_columns(t_lo=20.0, t_hi=40.0, procs={0, 2})
        assert block.to_records() == reader.seek_window(20.0, 40.0, {0, 2})

    def test_degenerate_window_columns_empty(self, tmp_path):
        path = tmp_path / "t.trace"
        write_v3(path, make_batch(15, 50))
        reader = TraceFileReader(path)
        assert len(reader.read_columns(t_lo=5.0, t_hi=1.0)) == 0
        assert len(reader.read_columns(procs=set())) == 0

    @pytest.mark.parametrize("version", [1, 2])
    def test_v1_v2_bridge(self, tmp_path, version):
        batch = make_batch(16, 120)
        path = tmp_path / "t.trace"
        write_legacy(path, 4, batch, version)
        block = TraceFileReader(path).read_columns()
        assert block.to_records() == batch

    def test_footerless_columns(self, tmp_path):
        batch = make_batch(17, 90)
        path = tmp_path / "t.trace"
        w = write_v3(path, batch, close=False)
        w.flush()
        assert TraceFileReader(path).read_columns().to_records() == batch
        w.close()


#: rewrites a long v3 file in place with a short one under a live
#: reader; run in its own process, since reading a mapping past the
#: end of a file that shrank kills the process with SIGBUS
REWRITE_SHORTER = textwrap.dedent(
    """
    import sys
    from repro.trace import (
        EventKind, TraceFileError, TraceFileReader, TraceFileWriter, TraceRecord,
    )

    def write(path, n):
        records = [
            TraceRecord(i, i % 4, EventKind.COMPUTE, i / 100, i / 100 + 0.5, i + 1)
            for i in range(n)
        ]
        with TraceFileWriter(path, 4, index_block=64, compression=None) as w:
            for rec in records:
                w.write(rec)
        return records

    path = sys.argv[1]
    long = write(path, 20000)
    reader = TraceFileReader(path)
    assert reader.read_columns().to_records() == long
    short = write(path, 200)
    assert list(reader.iter_records()) == short
    try:
        got = reader.read_columns().to_records()
    except TraceFileError:
        pass
    else:
        assert got == short
    print("ok")
    """
)


class TestFileMapping:
    def test_repeated_block_loads_map_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "t.trace"
        batch = make_batch(30, 400)
        write_v3(path, batch, index_block=32)
        maps = []
        real_mmap = mmap.mmap

        def counting_mmap(*args, **kwargs):
            maps.append(args)
            return real_mmap(*args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", counting_mmap)
        reader = TraceFileReader(path)  # maps the file to read its footer
        refs = reader.block_entries()
        assert len(refs) > 4
        blocks = [reader.load_block(ref) for ref in refs + refs]
        assert len(maps) == 1
        assert [r for b in blocks[: len(refs)] for r in b.to_records()] == batch

    def test_a_file_rewritten_shorter_is_read_afresh(self, tmp_path):
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c", REWRITE_SHORTER, str(tmp_path / "t.trace")],
            env=env, cwd=root, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout.strip()) == (0, "ok"), done.stderr


class TestBulkConsumers:
    def make_file(self, tmp_path, seed=18, n=400):
        batch = make_batch(seed, n)
        path = tmp_path / "t.trace"
        write_v3(path, batch, index_block=64)
        return path, batch

    def test_history_index_extend_columns(self, tmp_path):
        path, batch = self.make_file(tmp_path)
        reader = TraceFileReader(path)
        bulk = HistoryIndex(nprocs=reader.nprocs)
        bulk.extend_columns(reader.read_columns())
        ref = HistoryIndex(nprocs=reader.nprocs)
        ref.extend_many(batch)
        assert len(bulk) == len(ref)
        assert list(bulk.records) == list(ref.records)
        assert bulk.span == ref.span
        assert [p.send.index for p in bulk.message_pairs()] == [
            p.send.index for p in ref.message_pairs()
        ]
        assert (bulk.clocks == ref.clocks).all()
        for p in range(4):
            assert list(bulk.by_proc(p)) == list(ref.by_proc(p))

    def test_history_index_from_file(self, tmp_path):
        path, batch = self.make_file(tmp_path, seed=19)
        idx = HistoryIndex.from_file(TraceFileReader(path))
        assert list(idx.records) == batch

    def test_tracegraph_from_file(self, tmp_path):
        path, batch = self.make_file(tmp_path, seed=20)
        via_file = TraceGraph.from_file(TraceFileReader(path))
        via_records = TraceGraph.from_records(batch, nprocs=4)
        assert via_file.events_consumed == via_records.events_consumed
        assert sorted(map(str, via_file.nodes)) == sorted(
            map(str, via_records.nodes)
        )
        assert len(via_file.arcs()) == len(via_records.arcs())

    def test_timespace_file_diagram(self, tmp_path):
        path, batch = self.make_file(tmp_path, seed=21)
        reader = TraceFileReader(path)
        diagram = build_window_diagram(reader)
        from repro.viz.timespace import build_diagram

        ref = build_diagram(batch, nprocs=4)
        assert len(diagram.bars) == len(ref.bars)
        assert len(diagram.messages) == len(ref.messages)

    def test_timespace_window_diagram_v3(self, tmp_path):
        path, batch = self.make_file(tmp_path, seed=22)
        reader = TraceFileReader(path)
        diagram = build_window_diagram(reader, 10.0, 30.0)
        wanted = reader.seek_window(10.0, 30.0)
        assert {b.record.marker for b in diagram.bars} <= {
            r.marker for r in wanted
        }
        assert len(diagram.bars) == sum(
            1 for r in wanted
            if r.t1 > r.t0
            and r.kind not in (EventKind.PROC_START, EventKind.PROC_EXIT)
        )


class TestCLI:
    def make_file(self, tmp_path, n=150, close=True):
        batch = make_batch(23, n)
        path = tmp_path / "t.trace"
        w = TraceFileWriter(path, nprocs=4, index_block=32)
        for rec in batch:
            w.write(rec)
        if close:
            w.close()
        else:
            w.flush()
        return path, batch, w

    def test_info_indexed(self, tmp_path, capsys):
        path, batch, _ = self.make_file(tmp_path)
        assert tracefile_main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "v3" in out and "150" in out and "columnar" in out

    def test_info_footerless(self, tmp_path, capsys):
        path, batch, w = self.make_file(tmp_path, close=False)
        assert tracefile_main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "linear scan" in out and "reindex" in out
        w.close()

    @pytest.mark.parametrize("src_v,dst_v", [(1, 3), (2, 3), (3, 3)])
    def test_convert_roundtrip(self, tmp_path, capsys, src_v, dst_v):
        """``convert`` rewrites every version as an indexed v3 file."""
        batch = make_batch(23, 150)
        path = tmp_path / "t.trace"
        write_version(path, batch, src_v, index_block=32)
        dst = tmp_path / "out.trace"
        assert tracefile_main(["convert", str(path), str(dst)]) == 0
        reader = TraceFileReader(dst)
        assert reader.version == dst_v
        assert reader.has_index
        assert reader.read_all() == batch

    @pytest.mark.parametrize("layout", ["same", "respelled", "shard", "output-shard"])
    def test_convert_onto_its_source_is_refused(self, tmp_path, capsys, layout):
        """A ``dst`` that is the source file (however spelled), one of its
        manifest's shards, or a manifest whose shard files would be the
        source is refused before any writer truncates it."""
        from repro.trace import TraceShardWriter

        batch = make_batch(31, 300)
        src = tmp_path / "a.trace"
        extra = []
        if layout == "shard":
            with TraceShardWriter(src, 4, compression=None) as w:
                for rec in batch:
                    w.write(rec)
            dst = tmp_path / "a-shard0002.trace"
        elif layout == "output-shard":
            src = tmp_path / "m-shard0001.trace"
            write_v3(src, batch)
            dst, extra = tmp_path / "m.trace", ["--by", "proc"]
        else:
            write_v3(src, batch)
            (tmp_path / "x").mkdir()
            dst = src if layout == "same" else tmp_path / "x" / ".." / "a.trace"

        def files():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

        before = files()
        assert tracefile_main(["convert", str(src), str(dst), *extra]) == 2
        assert "source" in capsys.readouterr().err
        assert files() == before
        assert TraceFileReader(src).read_all() == batch

    def test_reindex_recovers_footerless_v3(self, tmp_path, capsys):
        path, batch, w = self.make_file(tmp_path, close=False)
        assert not TraceFileReader(path).has_index
        assert tracefile_main(["reindex", str(path)]) == 0
        reader = TraceFileReader(path)
        assert reader.has_index
        assert reader.index.records == len(batch)
        assert reader.read_all() == batch
        # the rebuilt index answers windows identically
        assert reader.seek_window(10.0, 30.0) == reader.seek_window(
            10.0, 30.0, use_index=False
        )
        w.close()

    def test_reindex_truncates_torn_tail(self, tmp_path, capsys):
        path, batch, w = self.make_file(tmp_path, close=False)
        with path.open("ab") as fh:
            fh.write(b"torn-tail-bytes")
        assert tracefile_main(["reindex", str(path)]) == 0
        assert "dropped" in capsys.readouterr().out
        reader = TraceFileReader(path)
        assert reader.has_index
        assert reader.read_all() == batch
        w.close()

    def test_reindex_already_indexed_is_noop(self, tmp_path, capsys):
        path, _, _ = self.make_file(tmp_path)
        before = path.read_bytes()
        assert tracefile_main(["reindex", str(path)]) == 0
        assert "already indexed" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_reindex_v1_refused(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        write_legacy(path, 4, make_batch(23, 50), 1)
        assert tracefile_main(["reindex", str(path)]) == 2
        assert "convert" in capsys.readouterr().err

    def test_reindex_footerless_v2_refused(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        write_legacy(path, 4, make_batch(23, 50), 2, footer=False)
        before = path.read_bytes()
        assert tracefile_main(["reindex", str(path)]) == 2
        assert "convert" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert tracefile_main(["info", str(tmp_path / "nope.trace")]) == 1
        assert "error" in capsys.readouterr().err

    def test_module_is_executable(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        path, batch, _ = self.make_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.trace.tracefile", "info", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "v3" in proc.stdout
