"""``repro.mp`` -- the simulated message-passing substrate.

A deterministic, single-machine stand-in for the MPI/PVM layer the paper
runs on (see DESIGN.md, "Substitutions").  Public surface:

* :class:`Runtime` / :func:`run_program` -- build and execute programs
  on the deterministic ``simtime`` engine (:mod:`repro.mp.simtime`);
* :class:`Comm` -- the per-rank communicator (mpi4py-flavoured API);
* wildcards and constants (:data:`ANY_SOURCE`, :data:`ANY_TAG`, ...);
* :class:`CostModel` -- virtual-time tuning;
* :class:`CommLog` -- recorded nondeterminism for controlled replay;
* the error types, most importantly :class:`DeadlockError`.
"""

from .channel import Mailbox, PendingRecv
from .clock import CostModel, VirtualClock
from .comm import Comm, OpDetail
from .datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    TAG_UB,
    CollectiveTag,
    SendMode,
    SourceLocation,
)
from .errors import (
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    MPError,
    MPIError,
    ReplayDivergenceError,
    RequestError,
    TruncationError,
)
from .message import Envelope, Message, payload_size
from .pmpi import INTERPOSABLE_OPS, PMPILayer
from .process import ProcState, Process, StopReason, WaitInfo, WaitKind
from .record import CommLog
from .requests import RecvRequest, Request, SendRequest
from .runtime import ProgramSpec, Runtime, Target, run_program
from .scheduler import (
    RandomPolicy,
    RoundRobinPolicy,
    RunOutcome,
    RunReport,
    RunToBlockPolicy,
    SchedulingPolicy,
    VirtualTimePolicy,
    make_policy,
)
from .simtime import SimtimeBackend
from .status import Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "TAG_UB",
    "CollectiveTag",
    "Comm",
    "SimtimeBackend",
    "CommLog",
    "CostModel",
    "DeadlockError",
    "Envelope",
    "INTERPOSABLE_OPS",
    "InvalidRankError",
    "InvalidTagError",
    "MPError",
    "MPIError",
    "Mailbox",
    "Message",
    "OpDetail",
    "PMPILayer",
    "PendingRecv",
    "ProcState",
    "Process",
    "ProgramSpec",
    "RandomPolicy",
    "RecvRequest",
    "ReplayDivergenceError",
    "Request",
    "RequestError",
    "RoundRobinPolicy",
    "RunOutcome",
    "RunReport",
    "RunToBlockPolicy",
    "Runtime",
    "SchedulingPolicy",
    "SendMode",
    "SendRequest",
    "SourceLocation",
    "Status",
    "StopReason",
    "Target",
    "TruncationError",
    "VirtualClock",
    "VirtualTimePolicy",
    "WaitInfo",
    "WaitKind",
    "make_policy",
    "payload_size",
    "run_program",
]
