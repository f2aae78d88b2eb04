"""Degradation policies: what a check means when the checker itself fails.

SEDSpec must decide *before* the device executes, which assumes the
enforcement pipeline is healthy.  Real pipelines are not: Intel PT drops
packets under load, decode fails on corrupt buffers, a checker walk can
hit a transient fault.  A :class:`DegradationPolicy` makes the outcome of
those *infrastructure* failures explicit instead of an unhandled
exception with undefined enforcement semantics:

* **fail-closed** (default) — the round is not vouched for; surface an
  explicit :data:`Action.TRACE_GAP` outcome.  The request is refused as
  an infrastructure failure — emphatically *not* a detection, so it never
  feeds security quarantine.
* **fail-open** — allow the round but stamp the report ``trace_gap`` so
  audits can separate degraded allows from vetted ones.
* **retry** — re-run the check up to ``max_retries`` extra attempts
  (transient faults clear on replay); exhausting the budget falls back
  to fail-closed.

The mode and the retry budget are fields of the tenant's
:class:`~repro.policy.model.TenantPolicy`; the fleet instance applies
them (:mod:`repro.fleet.instance`) and the fleet worker stamps every
report it files with the mode in force.  The checker itself carries no
degradation setting.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import DecodeError, InfraError, TraceError
from repro.checker.anomalies import Action, CheckReport, Strategy

#: Exceptions that mean "the machinery failed", never "the guest is bad".
INFRA_EXCEPTIONS = (InfraError, DecodeError, TraceError)


class DegradationPolicy(enum.Enum):
    FAIL_CLOSED = "fail-closed"
    FAIL_OPEN = "fail-open"
    RETRY = "retry"


def gap_report(io_key: str, degradation: str,
               reason: str) -> CheckReport:
    """The explicit outcome for a round the machinery lost, under the
    *degradation* mode (a :class:`DegradationPolicy` value): ALLOW under
    fail-open, TRACE_GAP otherwise, and ``trace_gap`` either way."""
    report = CheckReport(io_key=io_key)
    report.trace_gap = True
    report.gap_reason = reason
    if degradation == DegradationPolicy.FAIL_OPEN.value:
        report.action = Action.ALLOW
    else:
        report.action = Action.TRACE_GAP
    return report


def retrain_reason(report: CheckReport) -> Optional[str]:
    """Why this round is a candidate training trace (None: it is not).

    The spec lifecycle's feedback loop: rounds the machinery could not
    vouch for (trace gaps), rounds whose walk left the specification
    (incomplete — the classic coverage hole), and *near misses* — rounds
    flagged only by the control-flow strategies, which is exactly how an
    unseen-but-legitimate behaviour manifests (the paper's §VIII false
    positive) — are worth re-observing in training.  Rounds with a
    PARAMETER violation are excluded: corrupted device state must never
    become training data.
    """
    if report.trace_gap or report.action is Action.TRACE_GAP:
        return "trace-gap"
    if report.incomplete:
        return "incomplete-walk"
    if report.anomalies and all(a.strategy is not Strategy.PARAMETER
                                for a in report.anomalies):
        return "near-miss"
    return None
