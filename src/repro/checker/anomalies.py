"""Anomaly taxonomy, check strategies, and working modes (Section VI)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class Strategy(enum.Enum):
    """The three check strategies of Section VI-A."""

    PARAMETER = "parameter"             # integer / buffer overflow
    INDIRECT_JUMP = "indirect_jump"     # control-flow hijack
    CONDITIONAL_JUMP = "conditional_jump"  # irregular device operation


ALL_STRATEGIES = frozenset(Strategy)


class Mode(enum.Enum):
    """ES-Checker working modes (Section VI-B).

    * PROTECTION  — halt on *any* anomaly (high security requirements).
    * ENHANCEMENT — halt only on parameter-check anomalies (which cannot
      be false positives); the other strategies merely warn.
    """

    PROTECTION = "protection"
    ENHANCEMENT = "enhancement"


class Action(enum.Enum):
    """Outcome of one I/O check."""

    ALLOW = "allow"
    WARN = "warn"
    HALT = "halt"
    #: The checker could not vouch for the round because its *own*
    #: machinery failed (trace loss, decode failure, transient fault) and
    #: the degradation policy is fail-closed.  Explicitly not a security
    #: verdict: a TRACE_GAP must never quarantine a tenant.
    TRACE_GAP = "trace_gap"


@dataclass(frozen=True)
class Anomaly:
    """A single detected violation of the execution specification."""

    strategy: Strategy
    kind: str             # e.g. "integer-overflow", "unobserved-branch"
    message: str
    block_address: int = 0
    io_key: str = ""

    def __str__(self) -> str:
        return (f"[{self.strategy.value}/{self.kind}] {self.message} "
                f"(block {self.block_address:#x}, io {self.io_key})")


@dataclass
class CheckReport:
    """Everything the ES-Checker learned about one I/O interaction."""

    io_key: str
    action: Action = Action.ALLOW
    anomalies: List[Anomaly] = field(default_factory=list)
    #: blocks the checker walked (proxy for its runtime cost)
    blocks_walked: int = 0
    dsod_stmts_executed: int = 0
    #: walk ended early without verdict (e.g. strategy disabled at the
    #: point where the path left the spec)
    incomplete: bool = False
    #: check-site executions per enabled strategy this round.  Both
    #: checker backends maintain these identically (the differential
    #: tests hold them to dataclass equality), so they double as a
    #: behavioural fingerprint of the walk.
    param_checks: int = 0
    indirect_checks: int = 0
    conditional_checks: int = 0
    #: degradation mode of the tenant policy in force when this report
    #: was produced, so an audit can tell fail-open allows apart from
    #: genuinely vetted ones; the fleet worker stamps it with
    #: ``policy_id`` and ``policy_generation`` (empty outside a fleet,
    #: where no tenant policy is in force)
    policy: str = ""
    #: resolved tenant-policy id and generation (policy hot-reload epoch)
    #: in force when this report was produced
    policy_id: str = ""
    policy_generation: int = 0
    #: spec generation (hot-reload epoch) the round was vetted under,
    #: stamped by the guarded instance when it records the report, so a
    #: verdict names the spec generation that made it
    spec_epoch: int = 0
    #: the enforcement machinery lost (part of) this round: the report is
    #: an infrastructure outcome, not a security one
    trace_gap: bool = False
    #: why the round degraded (empty unless ``trace_gap``)
    gap_reason: str = ""
    #: lazily-dumped shadow state — ``final_state`` is O(device state) to
    #: materialize, and only eval/report code reads it, so the checker
    #: binds a source instead of dumping on the hot path
    _final_state: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False)
    _final_state_source: Optional[Callable[[], Dict[str, int]]] = field(
        default=None, repr=False, compare=False)

    @property
    def final_state(self) -> Dict[str, int]:
        """Scalar shadow-state parameters after this round (lazy)."""
        if self._final_state is None:
            source = self._final_state_source
            self._final_state = source() if source is not None else {}
        return self._final_state

    @final_state.setter
    def final_state(self, value: Dict[str, int]) -> None:
        self._final_state = value

    def bind_final_state(self,
                         source: Callable[[], Dict[str, int]]) -> None:
        """Defer the state dump until someone actually reads it."""
        self._final_state_source = source

    @property
    def ok(self) -> bool:
        return not self.anomalies

    def first_anomaly(self) -> Optional[Anomaly]:
        return self.anomalies[0] if self.anomalies else None


def decide_action(anomalies: List[Anomaly], mode: Mode) -> Action:
    """Working-mode policy: what to do about the detected anomalies."""
    if not anomalies:
        return Action.ALLOW
    if mode is Mode.PROTECTION:
        return Action.HALT
    if any(a.strategy is Strategy.PARAMETER for a in anomalies):
        return Action.HALT
    return Action.WARN
