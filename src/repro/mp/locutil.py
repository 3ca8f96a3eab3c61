"""Caller-location discovery.

Trace records must point at the *user* construct that issued an operation
(the "click on a message line to see the send in the source" feature of
Section 3.1), so runtime frames have to be skipped when walking the
stack.  A frame belongs to the runtime if its file lives in one of the
infrastructure packages below; everything else -- applications, examples,
tests -- counts as user code.
"""

from __future__ import annotations

import os
import sys

from .datatypes import SourceLocation

#: Path fragments identifying infrastructure frames to skip.
_INFRA_FRAGMENTS = (
    os.sep + os.path.join("repro", "mp") + os.sep,
    os.sep + os.path.join("repro", "instrument") + os.sep,
    os.sep + os.path.join("repro", "debugger") + os.sep,
    os.sep + os.path.join("repro", "trace") + os.sep,
)


def is_infrastructure_file(filename: str) -> bool:
    """True for files inside the runtime/instrumentation packages."""
    return any(frag in filename for frag in _INFRA_FRAGMENTS)


#: memos keyed by strings, so that no code object is kept alive
_infra_by_file: dict[str, bool] = {}
_locations: dict[tuple[str, int, str], SourceLocation] = {}


def caller_location(skip: int = 1, max_depth: int = 30) -> SourceLocation:
    """The nearest non-infrastructure frame above the caller.

    ``skip`` frames are unconditionally discarded first (the helper's own
    caller chain).  Returns :meth:`SourceLocation.unknown` when the whole
    stack is infrastructure (e.g. runtime-internal self-tests).  Every
    call from the same line returns the same (frozen) object.
    """
    try:
        frame = sys._getframe(skip + 1)
    except ValueError:  # pragma: no cover - stack shallower than skip
        return SourceLocation.unknown()
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        filename = code.co_filename
        infra = _infra_by_file.get(filename)
        if infra is None:
            infra = _infra_by_file[filename] = is_infrastructure_file(filename)
        if not infra:
            key = (filename, frame.f_lineno, code.co_name)
            loc = _locations.get(key)
            if loc is None:
                loc = _locations[key] = SourceLocation(*key)
            return loc
        frame = frame.f_back
        depth += 1
    return SourceLocation.unknown()
