"""The slotted record layout: every path that builds a TraceRecord builds
the same equal, dict-free object, and records survive copying."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.mp.datatypes import SourceLocation
from repro.trace import EventKind, TraceRecord, TraceRecorder
from repro.trace.columnar import ColumnBlock, decode_block, encode_columns

#: every field away from its default
FIELDS = dict(
    index=0,
    proc=1,
    kind=EventKind.RECV,
    t0=1.5,
    t1=2.5,
    marker=7,
    location=SourceLocation("a.py", 10, "f"),
    src=0,
    dst=1,
    tag=4,
    size=16,
    seq=2,
    peer_location=SourceLocation("b.py", 20, "g"),
    peer_marker=5,
    peer_time=1.25,
    construct_id=9,
    extra={"note": "x", "n": 3},
)


def full() -> TraceRecord:
    return TraceRecord(**copy.deepcopy(FIELDS))


def plain(index: int) -> TraceRecord:
    return TraceRecord(index, 0, EventKind.COMPUTE, 0.0, 1.0, index + 1)


def from_recorder() -> TraceRecord:
    fields = copy.deepcopy(FIELDS)
    core = [fields.pop(k) for k in ("proc", "kind", "t0", "t1", "marker", "location")]
    del fields["index"]
    return TraceRecorder(2).record(*core, **fields)


def built_by_every_path() -> dict[str, TraceRecord]:
    block, _ = decode_block(
        encode_columns(ColumnBlock.from_records([plain(0), full(), plain(2)])), 0
    )
    return {
        "init": full(),
        "recorder": from_recorder(),
        "to_records": block.to_records()[1],
        "to_records_rows": block.to_records(np.array([1]))[0],
        "from_jsonable": TraceRecord.from_jsonable(
            json.loads(json.dumps(full().to_jsonable()))
        ),
        "replace": dataclasses.replace(plain(0), **copy.deepcopy(FIELDS)),
    }


@pytest.mark.parametrize("path", [
    "init", "recorder", "to_records", "to_records_rows", "from_jsonable",
    "replace",
])
def test_every_path_builds_an_equal_slotted_record(path):
    rec = built_by_every_path()[path]
    assert type(rec) is TraceRecord
    assert not hasattr(rec, "__dict__")
    assert rec == TraceRecord(**FIELDS)
    with pytest.raises(AttributeError):
        rec.ad_hoc = 1


def test_empty_extra_dicts_are_not_shared():
    a, b = ColumnBlock.from_records([plain(0), plain(1)]).to_records()
    assert a.extra == {} and a.extra is not b.extra
    a.extra["mark"] = True
    assert b.extra == {}
    assert plain(0).extra is not plain(1).extra


@pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, 2])
def test_pickle_round_trip(protocol):
    for rec in (full(), plain(3)):
        back = pickle.loads(pickle.dumps(rec, protocol=protocol))
        assert back == rec
        assert not hasattr(back, "__dict__")


def test_deepcopy_round_trip():
    rec = full()
    dup = copy.deepcopy(rec)
    assert dup == rec
    assert dup.extra is not rec.extra
    assert not hasattr(dup, "__dict__")
