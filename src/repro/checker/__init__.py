"""ES-Checker: runtime enforcement of execution specifications."""

from repro.checker.anomalies import (
    ALL_STRATEGIES, Action, Anomaly, CheckReport, Mode, Strategy,
    decide_action,
)
from repro.checker.degrade import (
    INFRA_EXCEPTIONS, DegradationPolicy, gap_report, retrain_reason,
)
from repro.checker.escheck import (
    BACKENDS, CHECK_BLOCK_COST, CHECK_STMT_COST, DEFAULT_BACKEND, ESChecker,
)
from repro.checker.sync import (
    FieldSyncOracle, MappingSyncOracle, NullSyncOracle, PreRoundSyncOracle,
    QueueSyncOracle, SyncOracle,
)

__all__ = [
    "ALL_STRATEGIES", "Action", "Anomaly", "CheckReport", "Mode",
    "Strategy", "decide_action",
    "BACKENDS", "CHECK_BLOCK_COST", "CHECK_STMT_COST", "DEFAULT_BACKEND",
    "ESChecker",
    "INFRA_EXCEPTIONS", "DegradationPolicy", "gap_report",
    "retrain_reason",
    "FieldSyncOracle", "MappingSyncOracle", "NullSyncOracle",
    "PreRoundSyncOracle", "QueueSyncOracle", "SyncOracle",
]
