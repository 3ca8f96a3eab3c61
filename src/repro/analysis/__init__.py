"""``repro.analysis`` -- history analysis (paper §4.1, §4.4).

* :mod:`~repro.analysis.causality` -- vector clocks, happens-before,
  past/future closures.
* :mod:`~repro.analysis.frontiers` -- consistent frontiers, concurrency
  regions, frontier stoplines (Figure 8).
* :mod:`~repro.analysis.matching` -- unmatched send/receive lists,
  intertwined messages, missed-message diagnosis (Figure 6).
* :mod:`~repro.analysis.deadlock` -- wait-for graphs and circular
  dependency detection (Figure 5).
* :mod:`~repro.analysis.races` -- message-race detection and schedule
  exploration.
* :mod:`~repro.analysis.history` -- the shared, incrementally-maintained
  :class:`HistoryIndex` substrate every analysis above consumes.
"""

from .causality import CausalOrder, check_trace_causality, compute_causal_order
from .history import (
    HistoryIndex,
    IndexStats,
    StaleIndexError,
    ensure_index,
)
from .paged import BlockCache, OutOfCoreIndex, PagedStats
from .deadlock import (
    DeadlockReport,
    analyze_deadlock,
    build_wait_graph,
    find_cycles,
    wait_chain,
)
from .frontiers import (
    Frontier,
    FrontierAnalysis,
    analyze_frontiers,
    cut_of_frontier,
    is_antichain,
    is_consistent_cut,
    is_consistent_frontier,
)
from .matching import (
    IntertwinedPair,
    MatchingReport,
    MissedMessage,
    analyze_matching,
    diagnose_missed_messages,
    find_intertwined,
)
from .critical_path import CriticalPath, critical_path, slack_per_process
from .profile import (
    CommMatrix,
    FunctionStats,
    ProcTimeBreakdown,
    communication_matrix,
    function_profile,
    function_profile_text,
    time_breakdown,
    time_breakdown_text,
)
from .races import (
    MessageRace,
    detect_races,
    is_wildcard_recv,
    matching_fingerprint,
    steer_to_alternative,
)

__all__ = [
    "CausalOrder",
    "CommMatrix",
    "CriticalPath",
    "HistoryIndex",
    "IndexStats",
    "BlockCache",
    "OutOfCoreIndex",
    "PagedStats",
    "StaleIndexError",
    "ensure_index",
    "FunctionStats",
    "ProcTimeBreakdown",
    "communication_matrix",
    "critical_path",
    "function_profile",
    "function_profile_text",
    "slack_per_process",
    "steer_to_alternative",
    "time_breakdown",
    "time_breakdown_text",
    "DeadlockReport",
    "Frontier",
    "FrontierAnalysis",
    "IntertwinedPair",
    "MatchingReport",
    "MessageRace",
    "MissedMessage",
    "analyze_deadlock",
    "analyze_frontiers",
    "analyze_matching",
    "build_wait_graph",
    "check_trace_causality",
    "compute_causal_order",
    "detect_races",
    "diagnose_missed_messages",
    "find_cycles",
    "find_intertwined",
    "cut_of_frontier",
    "is_antichain",
    "is_consistent_cut",
    "is_consistent_frontier",
    "is_wildcard_recv",
    "matching_fingerprint",
    "wait_chain",
]
