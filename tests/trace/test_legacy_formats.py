"""Old trace files stay readable: golden v1 and v2 fixtures.

The library writes only format v3.  The files under ``data/`` were
written by its former v1/v2 writer from ``make_batch(2, 100)`` (4 procs,
``index_block=32``): a v1 file, a closed v2 file with its index footer,
and a v2 file whose writer flushed but never closed (no footer).
``tests.legacy_formats.write_legacy`` must reproduce each byte for
byte, so the tests that build old files with it test the real formats,
and every read path must return the batch from each fixture.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.paged import OutOfCoreIndex
from repro.trace import TraceFileReader
from repro.trace.tracefile import main as tracefile_main
from tests.legacy_formats import write_legacy
from tests.trace.test_tracefile_v3 import make_batch

DATA = Path(__file__).parent / "data"
BATCH = make_batch(2, 100)
#: fixture name -> (format version, has an index footer)
FIXTURES = {
    "legacy_v1": (1, False),
    "legacy_v2": (2, True),
    "legacy_v2_footerless": (2, False),
}
WINDOWS = [(0.0, 200.0, None), (10.0, 30.0, None), (40.0, 45.0, {1, 3}), (98.0, 120.0, {0, 3})]


def in_window(t_lo, t_hi, procs):
    return [
        r for r in BATCH
        if r.t1 >= t_lo and r.t0 <= t_hi and (procs is None or r.proc in procs)
    ]


@pytest.mark.parametrize("name", FIXTURES)
def test_write_legacy_reproduces_the_fixture(tmp_path, name):
    version, footer = FIXTURES[name]
    path = tmp_path / "t.trace"
    write_legacy(path, 4, BATCH, version, index_block=32, footer=footer)
    assert path.read_bytes() == (DATA / f"{name}.trace").read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_every_read_path_returns_the_batch(name):
    version, indexed = FIXTURES[name]
    reader = TraceFileReader(DATA / f"{name}.trace")
    assert (reader.version, reader.nprocs, reader.has_index) == (version, 4, indexed)
    assert reader.read_all() == BATCH
    assert reader.read_columns().to_records() == BATCH
    assert list(reader.iter_records()) == BATCH
    for t_lo, t_hi, procs in WINDOWS:
        want = in_window(t_lo, t_hi, procs)
        assert want
        assert reader.seek_window(t_lo, t_hi, procs) == want
        assert reader.seek_window(t_lo, t_hi, procs, use_index=False) == want
        assert reader.read_columns(t_lo, t_hi, procs).to_records() == want
    assert reader.skipped_lines == 0


def test_the_paged_index_pages_v2_line_blocks():
    reader = TraceFileReader(DATA / "legacy_v2.trace")
    assert {b.encoding for b in reader.index.blocks} == {"jsonl"}
    paged = OutOfCoreIndex(reader)
    assert paged.nblocks == 4
    for t_lo, t_hi, procs in WINDOWS:
        assert paged.seek_window(t_lo, t_hi, procs) == in_window(t_lo, t_hi, procs)
    assert paged.stats().cache_hits > 0


@pytest.mark.parametrize("name", FIXTURES)
def test_info_json_reports_the_batch(capsys, name):
    version, indexed = FIXTURES[name]
    assert tracefile_main(["info", "--json", str(DATA / f"{name}.trace")]) == 0
    info = json.loads(capsys.readouterr().out)
    assert (info["version"], info["records"]) == (version, len(BATCH))
    if indexed:
        assert info["index"] == {"blocks": 4, "source": "footer"}
        assert info["encodings"]["jsonl"]["records"] == len(BATCH)
    else:
        assert info["index"] is None
        assert "damage" not in info


@pytest.mark.parametrize("name", FIXTURES)
def test_convert_rewrites_the_fixture_as_indexed_v3(tmp_path, capsys, name):
    dst = tmp_path / "v3.trace"
    assert tracefile_main(["convert", str(DATA / f"{name}.trace"), str(dst)]) == 0
    reader = TraceFileReader(dst)
    assert (reader.version, reader.has_index) == (3, True)
    assert reader.read_all() == BATCH
