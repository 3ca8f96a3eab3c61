"""The out-of-core trace store: per-block compression, shard
manifests, and their corruption/compat edges.

Everything here holds the store's two contracts: (1) a sharded and/or
compressed layout is *record-for-record identical* to the plain
single-file layout under every read API, and (2) files written without
the new features stay byte-for-byte what they always were.
"""

from __future__ import annotations

import importlib.abc
import json
import random
import sys
import zlib

import pytest

from repro.mp.datatypes import SourceLocation
from repro.trace import (
    ColumnBlock,
    EventKind,
    FileSink,
    TraceBus,
    TraceFileError,
    TraceFileReader,
    TraceFileWriter,
    TraceRecord,
    TraceShardWriter,
    load_trace,
    save_trace,
)
from repro.trace import compression
from repro.trace.compression import (
    COMPRESSED_HEADER,
    COMPRESSED_MAGIC,
    NO_ZSTD_ENV,
    ZLIB_CODEC,
    ZSTD_CODEC,
    default_codec,
    resolve_codec,
)
from repro.trace.shard import ShardManifest
from repro.trace.tracefile import MANIFEST_FORMAT_NAME, main as tracefile_main
from repro.trace.trace import Trace
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
        rec.extra = {"note": f"x{index}"}
    return rec


def make_batch(seed: int, n: int, nprocs: int = 4) -> list[TraceRecord]:
    rng = random.Random(seed)
    return [random_record(rng, i, nprocs) for i in range(n)]


def write_single(path, batch, nprocs=4, index_block=64, compression=None):
    with TraceFileWriter(
        path, nprocs=nprocs, index_block=index_block, compression=compression
    ) as w:
        for rec in batch:
            w.write(rec)


def write_sharded(path, batch, nprocs=4, index_block=64, **kwargs):
    with TraceShardWriter(path, nprocs, index_block=index_block, **kwargs) as w:
        for rec in batch:
            w.write(rec)


# ----------------------------------------------------------------------
# compression
# ----------------------------------------------------------------------
class TestCompression:
    def test_zlib_roundtrip_and_smaller(self, tmp_path):
        batch = make_batch(0, 800)
        plain, packed = tmp_path / "p.trace", tmp_path / "z.trace"
        write_single(plain, batch)
        write_single(packed, batch, compression="zlib")
        reader = TraceFileReader(packed)
        assert reader.read_all() == batch
        assert packed.stat().st_size < plain.stat().st_size / 2
        assert all(
            b.encoding == "columnar+zlib" and b.raw_nbytes > b.nbytes
            for b in reader.index.blocks
        )

    def test_auto_picks_an_available_codec(self, tmp_path):
        batch = make_batch(1, 100)
        path = tmp_path / "a.trace"
        write_single(path, batch, compression="auto")
        reader = TraceFileReader(path)
        assert reader.read_all() == batch
        assert {b.encoding for b in reader.index.blocks} == {
            default_codec().encoding
        }

    def test_every_read_api_agrees_with_uncompressed(self, tmp_path):
        batch = make_batch(2, 500)
        plain, packed = tmp_path / "p.trace", tmp_path / "z.trace"
        write_single(plain, batch, index_block=32)
        write_single(packed, batch, index_block=32, compression="zlib")
        rp, rz = TraceFileReader(plain), TraceFileReader(packed)
        assert rz.read_all() == rp.read_all()
        assert list(rz.iter_records()) == list(rp.iter_records())
        assert rz.seek_window(20, 60, {0, 2}) == rp.seek_window(20, 60, {0, 2})
        assert (
            rz.read_columns(t_lo=20, t_hi=60).to_records()
            == rp.read_columns(t_lo=20, t_hi=60).to_records()
        )

    def test_uncompressed_output_is_byte_identical_to_before(self, tmp_path):
        """compression=None (the default) must not change the format:
        no RTBZ frames, no extra footer fields."""
        batch = make_batch(3, 120)
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        write_single(a, batch)
        with TraceFileWriter(b, nprocs=4, index_block=64) as w:
            for rec in batch:
                w.write(rec)
        raw = a.read_bytes()
        assert raw == b.read_bytes()
        assert COMPRESSED_MAGIC not in raw
        footer = json.loads(raw.rsplit(b"\n", 2)[-2])
        for entry in footer["__trace_index__"]["blocks"]:
            assert entry[6] == "columnar"  # encoding tag, no raw_nbytes
            assert len(entry) == 7

    def test_footerless_compressed_file_reads_linearly(self, tmp_path):
        batch = make_batch(4, 300)
        path = tmp_path / "z.trace"
        write_single(path, batch, compression="zlib")
        raw = path.read_bytes()
        path.write_bytes(raw[: raw.rfind(b'{"__trace_index__"')])
        reader = TraceFileReader(path)
        assert reader.index is None
        assert reader.read_all(tolerant=True) == batch

    def test_truncated_compressed_block_leaves_prefix_readable(self, tmp_path):
        """A torn compressed flush degrades exactly like a torn raw one:
        the block-aligned prefix decodes, the tail is skipped."""
        batch = make_batch(5, 256)
        path = tmp_path / "z.trace"
        write_single(path, batch, index_block=64, compression="zlib")
        reader = TraceFileReader(path)
        last = reader.index.blocks[-1]
        raw = path.read_bytes()
        # cut into the middle of the last block's payload, footer gone
        path.write_bytes(raw[: last.offset + last.nbytes // 2])
        damaged = TraceFileReader(path)
        got = damaged.read_all(tolerant=True)
        assert got == batch[:192]
        assert damaged.last_skipped_lines == 1
        # intolerant read surfaces the damage instead
        with pytest.raises(TraceFileError, match="truncated compressed"):
            TraceFileReader(path).read_all(tolerant=False)

    def test_unknown_codec_code_raises_clearly(self, tmp_path):
        batch = make_batch(6, 64)
        path = tmp_path / "z.trace"
        write_single(path, batch, index_block=64, compression="zlib")
        reader = TraceFileReader(path)
        block = reader.index.blocks[0]
        raw = bytearray(path.read_bytes())
        # codec code byte sits right after the 4-byte magic
        assert bytes(raw[block.offset : block.offset + 4]) == COMPRESSED_MAGIC
        raw[block.offset + 4] = 200
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFileError, match="codec code 200"):
            TraceFileReader(path).read_all(tolerant=True)

    def test_unknown_footer_encoding_raises_clearly(self, tmp_path):
        batch = make_batch(7, 64)
        path = tmp_path / "t.trace"
        write_single(path, batch, index_block=64)
        raw = path.read_bytes()
        head, footer, tail = raw.rsplit(b"\n", 2)
        footer = footer.replace(b'"columnar"', b'"columnar+lz99"')
        path.write_bytes(head + b"\n" + footer + b"\n" + tail)
        with pytest.raises(TraceFileError, match="unknown encoding"):
            TraceFileReader(path).read_all()

    def test_damaged_compressed_payload_raises_or_skips(self, tmp_path):
        batch = make_batch(8, 64)
        path = tmp_path / "z.trace"
        write_single(path, batch, index_block=64, compression="zlib")
        block = TraceFileReader(path).index.blocks[0]
        raw = bytearray(path.read_bytes())
        mid = block.offset + COMPRESSED_HEADER.size + 10
        raw[mid] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFileError, match="zlib"):
            TraceFileReader(path).read_all()

    def test_explicit_missing_codec_refuses(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NO_ZSTD_ENV, "1")
        assert not ZSTD_CODEC.available()
        with pytest.raises(TraceFileError, match="not available"):
            TraceFileWriter(tmp_path / "t.trace", 2, compression="zstd")
        # auto degrades to zlib instead of failing
        assert resolve_codec("auto") is ZLIB_CODEC

    def test_zstd_import_tried_once_per_process(self, tmp_path, monkeypatch):
        """A failed ``import zstandard`` rescans ``sys.path``; the second
        writer must not try again (a 64-shard sink opens 64 writers)."""
        monkeypatch.delenv(NO_ZSTD_ENV, raising=False)
        TraceFileWriter(tmp_path / "a.trace", 2, compression="auto").close()
        attempts = []

        class CountingFinder(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name == "zstandard":
                    attempts.append(name)
                return None

        finder = CountingFinder()
        sys.meta_path.insert(0, finder)
        try:
            TraceFileWriter(tmp_path / "b.trace", 2, compression="auto").close()
        finally:
            sys.meta_path.remove(finder)
        assert attempts == []

    def test_zstd_codec_with_a_stand_in_module(self, tmp_path, monkeypatch):
        """Codec code 2 end to end, through a zlib-backed stand-in for
        the two ``zstandard`` calls the codec makes."""

        class StandInZstd:
            class ZstdCompressor:
                def compress(self, data):
                    return zlib.compress(data)

            class ZstdDecompressor:
                def decompress(self, payload, max_output_size):
                    raw = zlib.decompress(payload)
                    assert len(raw) <= max_output_size
                    return raw

        monkeypatch.delenv(NO_ZSTD_ENV, raising=False)
        compression._import_zstd.cache_clear()
        monkeypatch.setattr(compression, "_import_zstd", lambda: StandInZstd)
        batch = make_batch(5, 300)
        path = tmp_path / "zstd.trace"
        write_single(path, batch, index_block=64, compression="auto")
        reader = TraceFileReader(path)
        assert {b.encoding for b in reader.index.blocks} == {"columnar+zstd"}
        assert reader.read_all() == batch
        assert reader.read_columns().to_records() == batch
        # the no-zstd lever degrades auto to zlib even with the package
        monkeypatch.setenv(NO_ZSTD_ENV, "1")
        fallback = tmp_path / "zlib.trace"
        write_single(fallback, batch, compression="auto")
        assert {b.encoding for b in TraceFileReader(fallback).index.blocks} == {
            "columnar+zlib"
        }
        # a zstd file read where the package is absent names the package
        monkeypatch.delenv(NO_ZSTD_ENV)
        monkeypatch.setattr(compression, "_import_zstd", lambda: None)
        with pytest.raises(TraceFileError, match="zstandard"):
            TraceFileReader(path).read_all()

    def test_unknown_compression_name_refuses(self, tmp_path):
        with pytest.raises(TraceFileError, match="unknown compression"):
            TraceFileWriter(tmp_path / "t.trace", 2, compression="brotli")

    def test_v1_v2_files_unchanged_and_readable(self, tmp_path):
        """The pre-columnar formats round-trip exactly as before."""
        batch = make_batch(9, 60)
        for version in (1, 2):
            path = tmp_path / f"v{version}.trace"
            write_legacy(path, 4, batch, version)
            raw = path.read_bytes()
            assert COMPRESSED_MAGIC not in raw and b"RTB3" not in raw
            assert TraceFileReader(path).read_all() == batch


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
class TestShardStore:
    def test_by_proc_roundtrip_record_for_record(self, tmp_path):
        batch = make_batch(10, 700)
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, batch)
        reader = TraceFileReader(manifest)
        assert reader.sharded
        assert reader.nprocs == 4
        assert reader.read_all() == batch
        assert list(reader.iter_records()) == batch

    def test_manifest_layout_on_disk(self, tmp_path):
        batch = make_batch(11, 200)
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, batch)
        header = json.loads(manifest.read_text())
        assert header["format"] == MANIFEST_FORMAT_NAME
        assert header["kinds"] == [k.value for k in EventKind]
        assert len(header["shards"]) == 4
        for entry in header["shards"]:
            shard_path = manifest.parent / entry["path"]
            assert shard_path.exists()
            # each shard is an ordinary, individually readable v3 file
            sub = TraceFileReader(shard_path)
            assert not sub.sharded
            assert len(sub.read_all()) == entry["records"]
        parsed = ShardManifest.from_jsonable(header)
        assert parsed.records == len(batch)

    def test_hash_routing(self, tmp_path):
        batch = make_batch(12, 300, nprocs=8)
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, batch, nprocs=8, by="hash", shards=3)
        reader = TraceFileReader(manifest)
        assert reader.manifest.nshards == 3
        assert reader.read_all() == batch

    def test_sharded_compressed_every_api_equals_single(self, tmp_path):
        batch = make_batch(13, 900)
        single, manifest = tmp_path / "s.trace", tmp_path / "m.trace"
        write_single(single, batch, index_block=32)
        write_sharded(manifest, batch, index_block=32, compression="zlib")
        rs, rm = TraceFileReader(single), TraceFileReader(manifest)
        assert rm.read_all() == rs.read_all()
        assert rm.span() == rs.span()
        for window in [(0, 100, None), (30, 70, {1, 3}), (99, 99.5, {0})]:
            assert rm.seek_window(*window) == rs.seek_window(*window)
            assert (
                rm.read_columns(
                    t_lo=window[0], t_hi=window[1], procs=window[2]
                ).to_records()
                == rs.read_columns(
                    t_lo=window[0], t_hi=window[1], procs=window[2]
                ).to_records()
            )
        assert rm.read_columns().to_records() == batch

    def test_seek_window_short_circuits_without_opening_files(self, tmp_path):
        batch = make_batch(14, 400)
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, batch)
        # degenerate window: no shard file touched
        reader = TraceFileReader(manifest)
        assert reader.seek_window(50, 10) == []
        assert reader.shards_opened == 0
        # empty procs filter: ditto
        assert reader.seek_window(0, 100, procs=set()) == []
        assert reader.shards_opened == 0
        # window outside the global span: ditto
        assert reader.seek_window(1e6, 2e6) == []
        assert reader.shards_opened == 0
        # a single-proc filter opens exactly that proc's shard
        assert reader.seek_window(0, 200, procs={2})
        assert reader.shards_opened == 1

    def test_empty_shards_never_opened(self, tmp_path):
        # procs 2/3 never record: their shard files exist but stay closed
        batch = [
            rec
            for rec in make_batch(15, 300)
            if rec.proc in (0, 1)
        ]
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, batch)
        reader = TraceFileReader(manifest)
        assert reader.read_all() == batch
        assert reader.shards_opened == 2
        reader2 = TraceFileReader(manifest)
        assert reader2.seek_window(0, 200, procs={2, 3}) == []
        assert reader2.shards_opened == 0

    def test_empty_recording(self, tmp_path):
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, [])
        reader = TraceFileReader(manifest)
        assert reader.read_all() == []
        assert reader.span() == (0.0, 0.0)
        assert reader.shards_opened == 0

    def test_single_proc_manifest(self, tmp_path):
        batch = [rec for rec in make_batch(16, 150, nprocs=1)]
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, batch, nprocs=1)
        reader = TraceFileReader(manifest)
        assert reader.manifest.nshards == 1
        assert reader.read_all() == batch
        assert reader.seek_window(0, 200, procs={0}) == [
            r for r in batch if r.t1 >= 0 and r.t0 <= 200
        ]

    def test_iter_records_where_filter(self, tmp_path):
        batch = make_batch(17, 300)
        manifest = tmp_path / "t.trace"
        write_sharded(manifest, batch)
        reader = TraceFileReader(manifest)
        got = list(reader.iter_records(where=lambda r: r.proc == 1))
        assert got == [r for r in batch if r.proc == 1]

    def test_write_columns_routes_and_roundtrips(self, tmp_path):
        batch = make_batch(18, 500)
        manifest = tmp_path / "t.trace"
        with TraceShardWriter(manifest, 4, compression="zlib") as w:
            assert w.write_columns(ColumnBlock.from_records(batch)) == 500
        assert TraceFileReader(manifest).read_all() == batch

    def test_writer_validation(self, tmp_path):
        with pytest.raises(ValueError, match="by='hash'"):
            TraceShardWriter(tmp_path / "a.trace", 4, shards=2, by="proc")
        with pytest.raises(ValueError, match="unknown routing"):
            TraceShardWriter(tmp_path / "b.trace", 4, by="range")
        w = TraceShardWriter(tmp_path / "c.trace", 2)
        bad = TraceRecord(index=0, proc=5, kind=EventKind.COMPUTE,
                          t0=0.0, t1=0.0, marker=0)
        with pytest.raises(ValueError, match="outside"):
            w.write(bad)
        w.close()
        with pytest.raises(TraceFileError, match="closed"):
            w.write(bad)

    def test_save_trace_shards_and_load(self, tmp_path):
        batch = make_batch(19, 200)
        trace = Trace(batch, 4)
        manifest = tmp_path / "t.trace"
        save_trace(trace, manifest, shards="proc", compression="zlib")
        assert load_trace(manifest).records == tuple(batch)

    def test_file_sink_shards_passthrough(self, tmp_path):
        batch = make_batch(20, 120)
        manifest = tmp_path / "t.trace"
        bus = TraceBus()
        bus.attach(FileSink(manifest, nprocs=4, shards="proc",
                            compression="zlib"))
        for rec in batch:
            bus.publish(rec)
        bus.close()
        reader = TraceFileReader(manifest)
        assert reader.sharded
        assert reader.read_all() == batch


# ----------------------------------------------------------------------
# CLI: info / convert / reindex over the new layouts
# ----------------------------------------------------------------------
class TestStoreCLI:
    def test_info_reports_compression(self, tmp_path, capsys):
        write_single(tmp_path / "z.trace", make_batch(21, 300),
                     compression="zlib")
        assert tracefile_main(["info", str(tmp_path / "z.trace")]) == 0
        out = capsys.readouterr().out
        assert "columnar+zlib" in out
        assert "compression" in out

    def test_info_reports_manifest_layout(self, tmp_path, capsys):
        write_sharded(tmp_path / "m.trace", make_batch(22, 300),
                      compression="zlib")
        assert tracefile_main(["info", str(tmp_path / "m.trace")]) == 0
        out = capsys.readouterr().out
        assert MANIFEST_FORMAT_NAME in out
        assert "m-shard0000.trace" in out
        assert "columnar+zlib" in out

    def test_convert_compress_and_back_roundtrips(self, tmp_path):
        batch = make_batch(23, 400)
        plain = tmp_path / "p.trace"
        write_single(plain, batch)
        packed = tmp_path / "z.trace"
        assert tracefile_main(
            ["convert", str(plain), str(packed), "--compress", "zlib"]
        ) == 0
        assert TraceFileReader(packed).read_all() == batch
        back = tmp_path / "back.trace"
        assert tracefile_main(["convert", str(packed), str(back)]) == 0
        # decompressing restores the original file byte-for-byte
        assert back.read_bytes() == plain.read_bytes()

    def test_convert_to_sharded_and_back(self, tmp_path):
        batch = make_batch(24, 400)
        plain = tmp_path / "p.trace"
        write_single(plain, batch)
        manifest = tmp_path / "m.trace"
        assert tracefile_main(
            ["convert", str(plain), str(manifest), "--by", "proc",
             "--compress", "zlib"]
        ) == 0
        assert TraceFileReader(manifest).read_all() == batch
        back = tmp_path / "back.trace"
        assert tracefile_main(["convert", str(manifest), str(back)]) == 0
        # side-table interning order differs after the shard merge, so
        # compare at the record level (the store's actual contract)
        reader = TraceFileReader(back)
        assert not reader.sharded
        assert reader.has_index
        assert reader.read_all() == batch

    def test_convert_hash_shards(self, tmp_path):
        batch = make_batch(25, 200)
        plain = tmp_path / "p.trace"
        write_single(plain, batch)
        manifest = tmp_path / "m.trace"
        assert tracefile_main(
            ["convert", str(plain), str(manifest), "--shards", "2"]
        ) == 0
        reader = TraceFileReader(manifest)
        assert reader.manifest.nshards == 2
        assert reader.read_all() == batch

    def test_reindex_refuses_manifest(self, tmp_path, capsys):
        write_sharded(tmp_path / "m.trace", make_batch(26, 50))
        assert tracefile_main(["reindex", str(tmp_path / "m.trace")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_reindex_rebuilds_compressed_footer(self, tmp_path):
        batch = make_batch(27, 256)
        path = tmp_path / "z.trace"
        write_single(path, batch, index_block=64, compression="zlib")
        raw = path.read_bytes()
        path.write_bytes(raw[: raw.rfind(b'{"__trace_index__"')])
        assert tracefile_main(["reindex", str(path)]) == 0
        reader = TraceFileReader(path)
        assert reader.index is not None
        assert all(
            b.encoding == "columnar+zlib" and b.raw_nbytes
            for b in reader.index.blocks
        )
        assert reader.read_all() == batch
