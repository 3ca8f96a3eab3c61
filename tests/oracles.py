"""Scalar reference implementations of the analysis kernels.

``repro.analysis`` runs its kernels vectorized over the
:class:`~repro.analysis.history.HistoryIndex` column store.  The
functions here are the per-record loops those kernels must agree with:
the property suite (``tests/property/test_analysis_kernels_properties``)
checks exact equality on random traces, and
``benchmarks/test_analysis_kernels.py`` times the kernels against them.

Every function is pure and takes a positional record list
(``records[i].index == i``), plus whatever derived state it consumes
(the send-of-receive map, the clock matrix, the matched pairs) -- the
same inputs the production kernel reads from the index.  :func:`frontiers` and
:func:`cut_is_consistent` are the full-scan and set-based forms of the
row-table frontier, stopline and cut queries.  :func:`caller_location`
is the uncached stack walk the runtime's memoized one must agree with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.analysis.critical_path import ZERO_WEIGHT_KINDS, CriticalPath
from repro.analysis.matching import IntertwinedPair
from repro.analysis.races import MessageRace
from repro.mp.datatypes import ANY_SOURCE, ANY_TAG, SourceLocation
from repro.mp.locutil import is_infrastructure_file
from repro.trace.events import TraceRecord


@dataclass
class Matching:
    """Send/receive matching by record index."""

    #: (send, recv) pairs in receive order
    pairs: list[tuple[int, int]]
    send_of_recv: dict[int, int]
    #: sends never received, in trace order
    unmatched_sends: list[int]
    #: receives with no matching send, in trace order
    unmatched_recvs: list[int]


def match(records: list[TraceRecord]) -> Matching:
    """The per-record dict loop: a send opens its (src, dst, tag, seq)
    key (replacing any open send with the same key), a receive takes
    the open send with its key."""
    open_sends: dict[tuple[int, int, int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    unmatched_recvs: list[int] = []
    for rec in records:
        if rec.is_send:
            open_sends[rec.message_key()] = rec.index
        elif rec.is_recv:
            s = open_sends.pop(rec.message_key(), None)
            if s is None:
                unmatched_recvs.append(rec.index)
            else:
                pairs.append((s, rec.index))
    return Matching(
        pairs=pairs,
        send_of_recv={r: s for s, r in pairs},
        unmatched_sends=sorted(open_sends.values()),
        unmatched_recvs=unmatched_recvs,
    )


def clocks(
    records: list[TraceRecord], nprocs: int, send_of_recv: dict[int, int]
) -> np.ndarray:
    """Vector clocks, one Python iteration per record: tick the own
    component, join the matched send's clock at a receive."""
    out = np.zeros((len(records), nprocs), dtype=np.int64)
    current = np.zeros((nprocs, nprocs), dtype=np.int64)
    for rec in records:
        p = rec.proc
        row = current[p]
        row[p] += 1
        s = send_of_recv.get(rec.index)
        if s is not None:
            np.maximum(row, out[s], out=row)
        out[rec.index] = row
    return out


@dataclass
class Frontiers:
    """Closures and frontier members of one event, by trace index."""

    past: np.ndarray
    future: np.ndarray
    concurrency: np.ndarray
    #: per process, the latest past / earliest future event (-1: none)
    last_past: np.ndarray
    first_future: np.ndarray


def frontiers(clocks: np.ndarray, procs: np.ndarray, e: int) -> Frontiers:
    """Full-scan masks over the clock matrix: ``f`` is in the past of
    ``e`` iff ``VC[f][proc(f)] <= VC[e][proc(f)]``, in its future iff
    ``VC[f][proc(e)] >= VC[e][proc(e)]``; frontier members come from
    scatter assignments over the ascending closures."""
    n, nprocs = clocks.shape
    own = clocks[np.arange(n), procs]
    mask = own <= clocks[e, procs]
    mask[e] = False
    past = np.nonzero(mask)[0]
    pe = procs[e]
    mask = clocks[:, pe] >= clocks[e, pe]
    mask[e] = False
    future = np.nonzero(mask)[0]
    mask = np.ones(n, dtype=bool)
    mask[past] = False
    mask[future] = False
    mask[e] = False
    last_past = np.full(nprocs, -1, dtype=np.int64)
    last_past[procs[past]] = past  # ascending: the latest write wins
    first_future = np.full(nprocs, -1, dtype=np.int64)
    rev = future[::-1]
    first_future[procs[rev]] = rev
    return Frontiers(past, future, np.nonzero(mask)[0], last_past, first_future)


def frontier_stoplines(
    markers: list[int], procs: np.ndarray, e: int, fr: Frontiers
) -> tuple[dict[int, int], dict[int, int]]:
    """(past, future) stopline thresholds of ``e``: one past the last
    past member's marker (1 without one), the first future member's
    marker (no threshold without one), the selected construct on its
    own process; no threshold below 1."""
    pe = int(procs[e])
    past = {
        p: markers[i] + 1 if i >= 0 else 1
        for p, i in enumerate(fr.last_past.tolist())
    }
    future = {
        p: markers[i] for p, i in enumerate(fr.first_future.tolist()) if i >= 0
    }
    past[pe] = future[pe] = markers[e]
    return (
        {p: max(1, m) for p, m in past.items()},
        {p: max(1, m) for p, m in future.items()},
    )


def cut_is_consistent(
    pairs: list[tuple[int, int]], included: set[int]
) -> bool:
    """No message received inside the event set but sent outside it."""
    return not any(r in included and s not in included for s, r in pairs)


def window(
    records: list[TraceRecord], t_lo: float, t_hi: float
) -> list[TraceRecord]:
    """Records overlapping [t_lo, t_hi], by full scan, in trace order;
    an inverted window (``t_lo > t_hi``) holds nothing."""
    if t_lo > t_hi:
        return []
    return [r for r in records if r.t1 >= t_lo and r.t0 <= t_hi]


def intertwined(
    pairs: list[tuple[TraceRecord, TraceRecord]],
) -> list[IntertwinedPair]:
    """Same-route message pairs received in inverted send order, by the
    per-route loop: routes in order of first appearance among ``pairs``
    (given in receive order), each route's pairs stably sorted by send
    completion time, then every ``i < j`` whose receive completes
    later, row-major."""
    by_route: dict[tuple[int, int], list[tuple[TraceRecord, TraceRecord]]] = {}
    for send, recv in pairs:
        by_route.setdefault((send.src, send.dst), []).append((send, recv))
    out: list[IntertwinedPair] = []
    for route_pairs in by_route.values():
        route_pairs.sort(key=lambda p: p[0].t1)
        for i, (s1, r1) in enumerate(route_pairs):
            for s2, r2 in route_pairs[i + 1:]:
                if r1.t1 > r2.t1:
                    out.append(IntertwinedPair(s1, s2, r1, r2))
    return out


def _posted_pattern(rec: TraceRecord) -> tuple[int, int]:
    return rec.extra.get("posted_src", rec.src), rec.extra.get("posted_tag", rec.tag)


def detect_races(
    records: list[TraceRecord],
    send_of_recv: dict[int, int],
    vclocks: np.ndarray,
    include_tag_wildcards: bool = True,
) -> list[MessageRace]:
    """Per-pair race test: for each matched wildcard receive, every other
    send to its process that fits the posted pattern and does not
    causally follow the receive."""

    def happens_before(a: int, b: int) -> bool:
        if a == b:
            return False
        pa = records[a].proc
        return bool(vclocks[a, pa] <= vclocks[b, pa])

    sends = [r for r in records if r.is_send]
    races: list[MessageRace] = []
    for rec in records:
        if not rec.is_recv:
            continue
        psrc, ptag = _posted_pattern(rec)
        if psrc != ANY_SOURCE and ptag != ANY_TAG:
            continue
        if psrc != ANY_SOURCE and not include_tag_wildcards:
            continue
        s = send_of_recv.get(rec.index)
        if s is None:
            continue
        alternatives = []
        for s2 in sends:
            if s2.index == s or s2.dst != rec.proc:
                continue
            if psrc not in (ANY_SOURCE, s2.src):
                continue
            if ptag not in (ANY_TAG, s2.tag):
                continue
            if not happens_before(rec.index, s2.index):
                alternatives.append(s2)
        if alternatives:
            races.append(
                MessageRace(
                    recv=rec, matched_send=records[s], alternatives=alternatives
                )
            )
    return races


def critical_path(
    records: list[TraceRecord], send_of_recv: dict[int, int]
) -> CriticalPath:
    """Longest weighted path, one DP step per record in trace order.

    A receive's weight is its time after the matched send completed
    (waiting is carried by the message edge); unmatched receives and
    :data:`~repro.analysis.critical_path.ZERO_WEIGHT_KINDS` weigh
    nothing.  Ties keep the program-order edge; a message edge wins
    only when strictly longer.
    """
    n = len(records)
    if n == 0:
        return CriticalPath([], 0.0, 0.0, [])

    def work(rec: TraceRecord) -> float:
        if rec.is_recv:
            s = send_of_recv.get(rec.index)
            if s is None:
                return 0.0
            return max(0.0, rec.t1 - max(records[s].t1, rec.t0))
        if rec.kind in ZERO_WEIGHT_KINDS:
            return 0.0
        return rec.duration

    dist = [0.0] * n  # longest path ENDING at record i (inclusive)
    pred = [-1] * n
    last_on_proc: dict[int, int] = {}
    for rec in records:  # trace order is a topological order
        i = rec.index
        w = work(rec)
        best, best_pred = w, -1
        j = last_on_proc.get(rec.proc, -1)
        if j >= 0 and dist[j] + w > best:
            best, best_pred = dist[j] + w, j
        s = send_of_recv.get(i)
        if s is not None and dist[s] + w > best:
            best, best_pred = dist[s] + w, s
        dist[i] = best
        pred[i] = best_pred
        last_on_proc[rec.proc] = i

    end = max(range(n), key=lambda i: dist[i])
    path = []
    i = end
    while i >= 0:
        path.append(records[i])
        i = pred[i]
    path.reverse()
    span = max(r.t1 for r in records) - min(r.t0 for r in records)
    return CriticalPath(
        records=path,
        length=dist[end],
        span=span,
        weights=[work(rec) for rec in path],
    )


def caller_location(skip: int = 1, max_depth: int = 30) -> SourceLocation:
    """The nearest non-infrastructure frame above the caller, found by
    testing every frame and building a new location each call."""
    try:
        frame = sys._getframe(skip + 1)
    except ValueError:
        return SourceLocation.unknown()
    depth = 0
    while frame is not None and depth < max_depth:
        filename = frame.f_code.co_filename
        if not is_infrastructure_file(filename):
            return SourceLocation(
                filename=filename,
                lineno=frame.f_lineno,
                function=frame.f_code.co_name,
            )
        frame = frame.f_back
        depth += 1
    return SourceLocation.unknown()
