"""Concurrency-control substrate: the tables put to work.

Transactions (:mod:`repro.cc.transaction`), the AD/CD dependency graph
(:mod:`repro.cc.dependencies`), shared objects with in-place execution
and replay (undo) recovery (:mod:`repro.cc.objects`), the table-driven
scheduler (:mod:`repro.cc.scheduler`) and its frozen seed-behaviour oracle
(:mod:`repro.cc.reference`), the deterministic closed-loop driver
(:mod:`repro.cc.harness`), workload generation
(:mod:`repro.cc.workload`), the discrete-event simulator
(:mod:`repro.cc.simulator`), serializability verification
(:mod:`repro.cc.serializability`) and the commit-time validation
scheduler over intentions lists (:mod:`repro.cc.validation`).
"""

from repro.cc.conflict_graph import (
    conflict_edges,
    is_conflict_serializable,
    serialization_graph_order,
)
from repro.cc.dependencies import DependencyGraph
from repro.cc.harness import Transcript, drive
from repro.cc.metrics import RunMetrics
from repro.cc.reference import ReferenceScheduler
from repro.cc.objects import AppliedOperation, SharedObject
from repro.cc.scheduler import (
    CommitDecision,
    OpDecision,
    SchedulerStats,
    TableDrivenScheduler,
)
from repro.cc.serializability import find_serialization, is_serializable, replay_serial
from repro.cc.simulator import (
    ObjectConfig,
    SimulationConfig,
    simulate,
    simulate_with_scheduler,
)
from repro.cc.validation import ValidationScheduler, ValidationStats
from repro.cc.transaction import (
    OperationRecord,
    Transaction,
    TransactionStatus,
    TxnId,
)
from repro.cc.workload import (
    Step,
    TransactionProgram,
    Workload,
    WorkloadConfig,
    generate,
)

__all__ = [
    "TxnId",
    "Transaction",
    "TransactionStatus",
    "OperationRecord",
    "DependencyGraph",
    "conflict_edges",
    "serialization_graph_order",
    "is_conflict_serializable",
    "SharedObject",
    "AppliedOperation",
    "TableDrivenScheduler",
    "ReferenceScheduler",
    "Transcript",
    "drive",
    "ValidationScheduler",
    "ValidationStats",
    "OpDecision",
    "CommitDecision",
    "SchedulerStats",
    "Workload",
    "WorkloadConfig",
    "TransactionProgram",
    "Step",
    "generate",
    "ObjectConfig",
    "SimulationConfig",
    "simulate",
    "simulate_with_scheduler",
    "RunMetrics",
    "replay_serial",
    "find_serialization",
    "is_serializable",
]
