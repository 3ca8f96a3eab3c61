"""Malformed sharded stores fail loudly, and ``info --json`` is
machine-readable.

Satellite contract: a manifest with an empty shard list, or one naming
a shard file that is gone, raises a clear :class:`TraceFileError` from
every record-access API -- never a bare ``StopIteration`` or
``FileNotFoundError`` that a caller would misread as "empty trace".
"""

from __future__ import annotations

import json
import random

import pytest

from repro.mp.datatypes import SourceLocation
from repro.trace import (
    EventKind,
    TraceFileError,
    TraceFileReader,
    TraceShardWriter,
)
from repro.trace.shard import (
    SHARD_TEMPLATE,
    write_manifest,
)
from repro.trace.tracefile import main as tracefile_main

NPROCS = 4


def make_batch(seed: int, n: int):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        t0 = round(rng.uniform(0, 50), 3)
        from repro.trace import TraceRecord

        out.append(
            TraceRecord(
                index=i,
                proc=rng.randrange(NPROCS),
                kind=rng.choice(list(EventKind)),
                t0=t0,
                t1=round(t0 + rng.uniform(0, 2), 3),
                marker=i + 1,
                location=SourceLocation("f.py", 1, "fn"),
            )
        )
    return out


def write_store(tmp_path, name="store.trace", n=300):
    path = tmp_path / name
    with TraceShardWriter(path, NPROCS, index_block=64) as w:
        for rec in make_batch(7, n):
            w.write(rec)
    return path


# ----------------------------------------------------------------------
# empty shard list
# ----------------------------------------------------------------------
class TestEmptyShardList:
    @pytest.fixture()
    def empty_manifest(self, tmp_path):
        path = tmp_path / "empty.trace"
        write_manifest(path, NPROCS, [])
        return path

    def test_iter_records_raises_clearly(self, empty_manifest):
        reader = TraceFileReader(empty_manifest)
        with pytest.raises(TraceFileError, match="no shard files"):
            list(reader.iter_records())

    def test_seek_window_raises_clearly(self, empty_manifest):
        reader = TraceFileReader(empty_manifest)
        with pytest.raises(TraceFileError, match="no shard files"):
            reader.seek_window(0.0, 1.0)

    def test_read_all_and_columns_raise_clearly(self, empty_manifest):
        with pytest.raises(TraceFileError, match="no shard files"):
            TraceFileReader(empty_manifest).read_all()
        with pytest.raises(TraceFileError, match="no shard files"):
            TraceFileReader(empty_manifest).read_columns()

    def test_block_entries_raises_clearly(self, empty_manifest):
        with pytest.raises(TraceFileError, match="no shard files"):
            TraceFileReader(empty_manifest).block_entries()


# ----------------------------------------------------------------------
# manifest naming a missing shard file
# ----------------------------------------------------------------------
class TestMissingShardFile:
    @pytest.fixture()
    def broken_store(self, tmp_path):
        path = write_store(tmp_path)
        victim = tmp_path / SHARD_TEMPLATE.format(stem="store", num=0)
        assert victim.is_file()
        victim.unlink()
        return path, victim.name

    def test_iter_records_names_the_missing_file(self, broken_store):
        path, victim = broken_store
        reader = TraceFileReader(path)
        with pytest.raises(TraceFileError, match=victim):
            list(reader.iter_records())

    def test_seek_window_names_the_missing_file(self, broken_store):
        path, victim = broken_store
        reader = TraceFileReader(path)
        # window selection may touch any shard; the full span surely does
        with pytest.raises(TraceFileError, match=victim):
            reader.seek_window(0.0, 100.0)

    def test_error_is_not_filenotfound(self, broken_store):
        path, _ = broken_store
        try:
            TraceFileReader(path).read_all()
        except TraceFileError:
            pass
        else:  # pragma: no cover - the assertion above must fire
            pytest.fail("expected TraceFileError")


# ----------------------------------------------------------------------
# machine-readable info
# ----------------------------------------------------------------------
class TestInfoJson:
    def test_sharded_breakdown(self, tmp_path, capsys):
        path = write_store(tmp_path)
        assert tracefile_main(["info", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharded"] is True
        assert payload["nprocs"] == NPROCS
        assert payload["records"] == 300
        assert len(payload["shards"]) >= 1
        assert sum(s["records"] for s in payload["shards"]) == 300
        # per-encoding rollup covers every record exactly once
        assert sum(
            e["records"] for e in payload["encodings"].values()
        ) == 300

    def test_single_file_breakdown(self, tmp_path, capsys):
        from repro.trace import TraceFileWriter

        path = tmp_path / "single.trace"
        with TraceFileWriter(path, NPROCS, index_block=64,
                             compression="zlib") as w:
            for rec in make_batch(9, 200):
                w.write(rec)
        assert tracefile_main(["info", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharded"] is False
        assert payload["records"] == 200
        assert payload["index"]["source"] == "footer"
        encodings = payload["encodings"]
        assert sum(e["records"] for e in encodings.values()) == 200
        # compressed blocks report their on-disk compression ratio
        assert any(
            e.get("compression") is not None for e in encodings.values()
        )

    def test_plain_info_still_works(self, tmp_path, capsys):
        path = write_store(tmp_path)
        assert tracefile_main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
