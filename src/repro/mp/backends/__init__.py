"""Execution backends, selected by name.

::

    from repro.mp import Runtime

    rt = Runtime(8)                      # simtime, the default
    rt = Runtime(8, backend="mproc")

``simtime``
    The deterministic cooperative engine: one rank runs at a time, lazy
    carriers and O(1) handoffs.  Full capability set (debugger,
    wrappers, replay); the only backend the debugger and the explorer
    drive.
``mproc``
    One forked worker process per rank -- true parallelism, reduced
    capability set (no debugger surface, no determinism).
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import MPError
from .base import ExecutionBackend
from .mproc import MprocBackend
from .simtime import SimtimeBackend

#: value accepted wherever a backend is selected
BackendSpec = Union[str, ExecutionBackend]

_BACKENDS = {"simtime": SimtimeBackend, "mproc": MprocBackend}


def available_backends() -> list[str]:
    """Names of the built-in backends, sorted."""
    return sorted(_BACKENDS)


def make_backend(
    spec: BackendSpec = "simtime",
    *,
    policy: object = "run_to_block",
    seed: int = 0,
    max_grants: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Unknown names raise :class:`~repro.mp.errors.MPError` listing the
    available backends.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        factory = _BACKENDS[spec]
    except KeyError:
        raise MPError(
            f"unknown execution backend {spec!r}; "
            f"choose from {available_backends()}"
        ) from None
    return factory(policy=policy, seed=seed, max_grants=max_grants)


__all__ = [
    "ExecutionBackend",
    "SimtimeBackend",
    "MprocBackend",
    "BackendSpec",
    "available_backends",
    "make_backend",
]
