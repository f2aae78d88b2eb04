"""ES-Checker: runtime enforcement of execution specifications."""

from repro.checker.anomalies import (
    ALL_STRATEGIES, Action, Anomaly, CheckReport, Mode, Strategy,
    decide_action,
)
from repro.checker.degrade import (
    DEFAULT_DEGRADATION, INFRA_EXCEPTIONS, DegradationConfig,
    DegradationPolicy, gap_report, retrain_reason, run_with_policy,
)
from repro.checker.escheck import (
    BACKENDS, CHECK_BLOCK_COST, CHECK_STMT_COST, DEFAULT_BACKEND, ESChecker,
)
from repro.checker.sync import (
    FieldSyncOracle, MappingSyncOracle, NullSyncOracle, QueueSyncOracle,
    SyncOracle,
)

__all__ = [
    "ALL_STRATEGIES", "Action", "Anomaly", "CheckReport", "Mode",
    "Strategy", "decide_action",
    "BACKENDS", "CHECK_BLOCK_COST", "CHECK_STMT_COST", "DEFAULT_BACKEND",
    "ESChecker",
    "DEFAULT_DEGRADATION", "INFRA_EXCEPTIONS", "DegradationConfig",
    "DegradationPolicy", "gap_report", "retrain_reason",
    "run_with_policy",
    "FieldSyncOracle", "MappingSyncOracle", "NullSyncOracle",
    "QueueSyncOracle", "SyncOracle",
]
