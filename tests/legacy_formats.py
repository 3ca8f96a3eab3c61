"""Writers for the v1 and v2 trace formats, which the library only reads.

``repro.trace`` writes format v3 alone, but must keep reading the two
JSON-lines formats that came before it.  :func:`write_legacy` produces
those bytes -- the same bytes the library's own v1/v2 writer produced
before it was removed (``tests/trace/test_legacy_formats.py`` pins that
against committed fixtures) -- so the read paths for old files stay
covered: footer-selected ``"jsonl"`` blocks, the linear fallback, and
``convert``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

from repro.trace.events import TraceRecord
from repro.trace.tracefile import FORMAT_NAME, IndexBlock, TraceIndex


def write_legacy(
    path: Union[str, Path],
    nprocs: int,
    records: Sequence[TraceRecord],
    version: int,
    index_block: int = 512,
    footer: bool = True,
) -> None:
    """Write ``records`` as a v1 or v2 file: a JSON header line, one
    JSON line per record, and for v2 the index footer line over blocks
    of ``index_block`` records.  ``footer=False`` leaves a v2 file as a
    writer that crashed before close left it."""
    if version not in (1, 2):
        raise ValueError(f"legacy formats are v1 and v2, not v{version}")
    header = {"format": FORMAT_NAME, "version": version, "nprocs": nprocs}
    out = [json.dumps(header).encode() + b"\n"]
    offset = len(out[0])
    blocks = []
    for start in range(0, len(records), index_block):
        chunk = records[start : start + index_block]
        lines = [json.dumps(r.to_jsonable()).encode() + b"\n" for r in chunk]
        nbytes = sum(map(len, lines))
        blocks.append(IndexBlock(
            offset, nbytes, len(chunk),
            min(min(r.t0, r.t1) for r in chunk),
            max(max(r.t0, r.t1) for r in chunk),
            frozenset(r.proc for r in chunk),
        ))
        out += lines
        offset += nbytes
    if version == 2 and footer:
        out.append(json.dumps(TraceIndex.of(blocks).to_jsonable()).encode() + b"\n")
    Path(path).write_bytes(b"".join(out))
