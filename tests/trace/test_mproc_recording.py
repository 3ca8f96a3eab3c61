"""Merge-free trace recording under the mproc backend.

Contract: with ``trace_path`` set, each forked rank streams its own
shard file and the parent writes only the manifest -- and the merged
read of that store holds, rank by rank, the same record sequence as a
traced run of the same deterministic, wildcard-free program on the
``simtime`` engine.
"""

from __future__ import annotations

import json

from repro.instrument import WrapperLibrary, lifecycle_wrapper
from repro.mp.backends.mproc import MprocBackend
from repro.mp.runtime import Runtime
from repro.mp.scheduler import RunOutcome
from repro.trace import EventKind, TraceFileReader, TraceRecorder
from repro.trace.shard import SHARD_TEMPLATE, ShardManifest

NPROCS = 3


def ring_target(comm):
    """Deterministic ring: explicit sources, no wildcards, no races."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for k in range(3):
        comm.send((comm.rank, k), right, tag=5)
        comm.recv(left, tag=5)
    return comm.rank


def all_recv_target(comm):
    """Everyone sends once then waits for a message that never comes."""
    comm.send(("x", comm.rank), (comm.rank + 1) % comm.size, tag=1)
    comm.recv((comm.rank + 1) % comm.size, tag=99)


def run_traced(tmp_path, name, targets=None, nprocs=NPROCS):
    path = tmp_path / name
    backend = MprocBackend(trace_path=path)
    rt = Runtime(nprocs, backend=backend)
    rt.launch(targets if targets is not None else [ring_target] * nprocs)
    report = rt.run_until_idle()
    rt.shutdown()
    return path, report


def run_simtime_reference(nprocs=NPROCS):
    """The same ring, traced in-process on the deterministic engine."""
    rt = Runtime(nprocs, backend="simtime")
    recorder = TraceRecorder(nprocs)
    WrapperLibrary(rt, recorder)
    report = rt.run(
        [ring_target] * nprocs, target_wrappers=[lifecycle_wrapper(recorder)]
    )
    rt.shutdown()
    return recorder.snapshot(), report


def per_rank_keys(records, nprocs=NPROCS):
    """Each rank's ``(kind, marker, src, dst, tag, seq)`` sequence."""
    keys = [[] for _ in range(nprocs)]
    for rec in records:
        keys[rec.proc].append(
            (rec.kind, rec.marker, rec.src, rec.dst, rec.tag, rec.seq)
        )
    return keys


def test_shard_mode_writes_manifest_and_per_rank_shards(tmp_path):
    path, report = run_traced(tmp_path, "run.trace")
    assert report.outcome is RunOutcome.FINISHED
    # one shard file per rank, named by the manifest template
    for rank in range(NPROCS):
        shard = tmp_path / SHARD_TEMPLATE.format(stem="run", num=rank)
        assert shard.is_file()
    manifest = ShardManifest.from_jsonable(json.loads(path.read_text()))
    assert manifest.nprocs == NPROCS
    assert len(manifest.shards) == NPROCS
    # rank-owned shards: each holds exactly its own rank's records
    for rank, info in enumerate(manifest.shards):
        assert info.procs == frozenset({rank})
        assert info.records > 0

    reader = TraceFileReader(path)
    assert reader.sharded
    records = list(reader.iter_records())
    assert len(records) == manifest.records
    indices = [rec.index for rec in records]
    assert indices == sorted(indices)
    kinds = {rec.kind for rec in records}
    # lifecycle wrapping is on: every rank contributes start/exit marks
    assert EventKind.PROC_START in kinds and EventKind.PROC_EXIT in kinds
    assert sum(1 for r in records if r.kind is EventKind.PROC_START) == NPROCS


def test_shard_store_matches_simtime_reference(tmp_path):
    path, report = run_traced(tmp_path, "a.trace")
    reference, ref_report = run_simtime_reference()
    assert report.outcome is ref_report.outcome is RunOutcome.FINISHED
    reader = TraceFileReader(path)
    assert reader.sharded
    records = reader.read_all()
    assert len(records) == len(reference) > 0
    assert per_rank_keys(records) == per_rank_keys(reference)


def test_shard_store_read_is_index_ordered(tmp_path):
    path, report = run_traced(tmp_path, "ordered.trace")
    assert report.outcome is RunOutcome.FINISHED
    records = TraceFileReader(path).read_all()
    indices = [rec.index for rec in records]
    assert indices == sorted(indices)
    # per-rank index slices are disjoint and interleaved by nprocs
    for rec in records:
        assert rec.index % NPROCS == rec.proc


def test_each_shard_file_holds_only_its_rank(tmp_path):
    path, report = run_traced(tmp_path, "own.trace")
    assert report.outcome is RunOutcome.FINISHED
    merged = TraceFileReader(path).read_all()
    for rank in range(NPROCS):
        shard = tmp_path / SHARD_TEMPLATE.format(stem="own", num=rank)
        reader = TraceFileReader(shard)
        assert not reader.sharded
        records = reader.read_all()
        assert records and {rec.proc for rec in records} == {rank}
        assert records == [rec for rec in merged if rec.proc == rank]


def test_deadlocked_run_still_writes_manifest(tmp_path):
    path, report = run_traced(
        tmp_path, "dead.trace", targets=[all_recv_target] * NPROCS
    )
    # the abort-path drain must NOT disturb deadlock classification
    assert report.outcome is RunOutcome.DEADLOCK
    assert len(report.blocked) == NPROCS
    assert len(report.waiting) == NPROCS
    reader = TraceFileReader(path)
    records = list(reader.iter_records())
    # each rank got at least PROC_START and its send on disk
    kinds = {rec.kind for rec in records}
    assert EventKind.SEND in kinds
    assert sum(1 for r in records if r.kind is EventKind.PROC_START) == NPROCS


def test_untraced_backend_unchanged(tmp_path):
    backend = MprocBackend()
    rt = Runtime(NPROCS, backend=backend)
    rt.launch([ring_target] * NPROCS)
    report = rt.run_until_idle()
    rt.shutdown()
    assert report.outcome is RunOutcome.FINISHED
    assert list(tmp_path.iterdir()) == []
