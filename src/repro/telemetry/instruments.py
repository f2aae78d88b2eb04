"""Instrument bundles: pre-resolved metric handles per subsystem.

Hot paths must not pay label hashing per event, so each instrumented
component builds one of these bundles when a recorder is attached and
afterwards touches only plain ``Counter``/``Histogram`` handles (attribute
adds).  With no recorder the component holds ``None`` and every
instrumentation point is a single identity test.

Deliberately no top-level imports from the instrumented packages — the
checker/interp/fleet modules import *this* module (lazily, at attach
time), so anything they own is imported inside the bundle constructors.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.telemetry.metrics import (
    DEFAULT_CYCLE_BUCKETS, DEFAULT_DEPTH_BUCKETS, DEFAULT_NS_BUCKETS,
)
from repro.telemetry.recorder import Recorder


#: Drain staged histogram samples after this many rounds so buffers stay
#: bounded even if nobody snapshots for millions of rounds.
_DRAIN_EVERY = 4096


class CheckerTelemetry:
    """Per-checker handles: strategy check counts, violation causes and
    the ns-per-round histogram (a mean per check is
    ``checker.round_ns`` total over the ``checker.checks`` sum).

    ``record_round`` consumes the finished :class:`CheckReport` (whose
    per-strategy check counters both backends maintain identically), so
    the enabled-telemetry cost is O(1) per I/O round regardless of how
    many blocks the walk visited.  The common all-clear round comes in
    through ``record_clean`` with just those counters and touches only
    plain slot ints and one list append; everything is drained
    into the recorder's Counter/Histogram objects by ``flush`` — which
    the recorder runs before every snapshot — or every ``_DRAIN_EVERY``
    rounds, whichever comes first.
    """

    __slots__ = ("_recorder", "_labels", "rounds", "incomplete", "checks",
                 "actions", "round_ns", "_anomalies", "_allow_action",
                 "_allow", "n_rounds", "n_param", "n_indirect", "n_cond",
                 "n_nonallow", "_elapsed")

    def __init__(self, recorder: Recorder, device: str, backend: str):
        from repro.checker.anomalies import Action, Strategy

        self._recorder = recorder
        self._labels = {"device": device, "backend": backend}
        labels = self._labels
        self.rounds = recorder.counter("checker.rounds", **labels)
        self.incomplete = recorder.counter("checker.incomplete_walks",
                                           **labels)
        self.checks = {
            s: recorder.counter("checker.checks", strategy=s.value,
                                **labels)
            for s in Strategy
        }
        self.actions = {
            a: recorder.counter("checker.actions", action=a.value,
                                **labels)
            for a in Action
        }
        self.round_ns = recorder.histogram("checker.round_ns",
                                           DEFAULT_NS_BUCKETS, **labels)
        #: (strategy value, kind) -> Counter, resolved lazily: anomaly
        #: kinds are open-ended and rare.
        self._anomalies: Dict[Tuple[str, str], object] = {}
        self._allow_action = Action.ALLOW
        self._allow = self.actions[Action.ALLOW]
        # Staged per-round state, drained by flush().
        self.n_rounds = 0
        self.n_param = 0
        self.n_indirect = 0
        self.n_cond = 0
        self.n_nonallow = 0
        self._elapsed: list = []
        recorder.add_flush(self.flush)

    def record_clean(self, param: int, indirect: int, conditional: int,
                     elapsed_ns: int) -> None:
        """One clean round — verdict ALLOW, walk complete — from its
        per-strategy check counts alone: the bytecode frame records a
        clean round without building a report for it."""
        self.n_rounds += 1
        self.n_param += param
        self.n_indirect += indirect
        self.n_cond += conditional
        elapsed = self._elapsed
        elapsed.append(elapsed_ns)
        if len(elapsed) >= _DRAIN_EVERY:
            self._drain()

    def record_round(self, report, elapsed_ns: int) -> None:
        self.record_clean(report.param_checks, report.indirect_checks,
                          report.conditional_checks, elapsed_ns)
        if (report.action is not self._allow_action or report.anomalies
                or report.incomplete):
            self._record_rare(report)

    def flush(self) -> None:
        """Fold staged state into the recorder-owned metrics."""
        from repro.checker.anomalies import Strategy

        self._drain()
        n = self.n_rounds
        if not n:
            return
        self.rounds.value += n
        self.checks[Strategy.PARAMETER].value += self.n_param
        self.checks[Strategy.INDIRECT_JUMP].value += self.n_indirect
        self.checks[Strategy.CONDITIONAL_JUMP].value += self.n_cond
        self._allow.value += n - self.n_nonallow
        self.n_rounds = 0
        self.n_param = self.n_indirect = self.n_cond = 0
        self.n_nonallow = 0

    def _drain(self) -> None:
        elapsed = self._elapsed
        if not elapsed:
            return
        self.round_ns.observe_many(elapsed)
        elapsed.clear()

    def _record_rare(self, report) -> None:
        if report.action is not self._allow_action:
            self.n_nonallow += 1
            self.actions[report.action].value += 1
        if report.incomplete:
            self.incomplete.value += 1
        for anomaly in report.anomalies:
            key = (anomaly.strategy.value, anomaly.kind)
            counter = self._anomalies.get(key)
            if counter is None:
                counter = self._recorder.counter(
                    "checker.anomalies", strategy=key[0], kind=key[1],
                    **self._labels)
                self._anomalies[key] = counter
            counter.inc()


class MachineTelemetry:
    """Per-device-machine handles: I/O rounds, blocks executed, faults.

    Stages into plain slot ints like :class:`CheckerTelemetry`; the
    registered ``flush`` folds them into the recorder's counters.
    """

    __slots__ = ("_recorder", "_labels", "io_rounds", "blocks", "_faults",
                 "n_rounds", "n_blocks")

    def __init__(self, recorder: Recorder, device: str):
        self._recorder = recorder
        self._labels = {"device": device}
        self.io_rounds = recorder.counter("interp.io_rounds",
                                          **self._labels)
        self.blocks = recorder.counter("interp.blocks", **self._labels)
        self._faults: Dict[str, object] = {}
        self.n_rounds = 0
        self.n_blocks = 0
        recorder.add_flush(self.flush)

    def record_round(self, steps: int) -> None:
        self.n_rounds += 1
        self.n_blocks += steps

    def record_fault(self, kind: str, steps: int) -> None:
        self.n_rounds += 1
        self.n_blocks += steps
        counter = self._faults.get(kind)
        if counter is None:
            counter = self._recorder.counter("interp.faults", kind=kind,
                                             **self._labels)
            self._faults[kind] = counter
        counter.inc()

    def flush(self) -> None:
        if self.n_rounds:
            self.io_rounds.value += self.n_rounds
            self.blocks.value += self.n_blocks
            self.n_rounds = 0
            self.n_blocks = 0


class PacketTelemetry:
    """IPT packet accounting, shared by the tracer (``dir=emitted``) and
    the decoder (``dir=decoded``)."""

    __slots__ = ("_recorder", "_dir", "_kinds", "rounds", "faulted")

    def __init__(self, recorder: Recorder, direction: str):
        self._recorder = recorder
        self._dir = direction
        self._kinds: Dict[str, object] = {}
        self.rounds = recorder.counter("ipt.rounds", dir=direction)
        self.faulted = recorder.counter("ipt.rounds_faulted",
                                        dir=direction)

    def count(self, packet) -> None:
        self.count_kind(type(packet).__name__)

    def count_kind(self, kind: str) -> None:
        """Count by kind name directly — the raw byte-level decoder never
        materializes packet objects for the common path."""
        counter = self._kinds.get(kind)
        if counter is None:
            counter = self._recorder.counter("ipt.packets", kind=kind,
                                             dir=self._dir)
            self._kinds[kind] = counter
        counter.inc()


class FleetTelemetry:
    """Supervisor-side fleet handles: per-tenant/per-worker latency,
    queue depth, quarantines, respawns, detections by strategy."""

    __slots__ = ("_recorder", "_depth", "_request_cycles", "_requests",
                 "_worker_cycles", "_detections", "_quarantines",
                 "_policy_responses",
                 "worker_respawns", "instance_respawns", "lost",
                 "duplicates", "trace_gaps", "infra_failures", "shed",
                 "circuit_opens", "watchdog_kills", "spec_reloads",
                 "retrain_enqueued", "promotions", "promotion_refusals",
                 "policy_reloads", "migrations")

    def __init__(self, recorder: Recorder):
        self._recorder = recorder
        self._depth: Dict[int, object] = {}
        self._request_cycles: Dict[str, object] = {}
        self._requests: Dict[Tuple[str, str], object] = {}
        self._worker_cycles: Dict[int, object] = {}
        self._detections: Dict[Tuple[str, str], object] = {}
        self._quarantines: Dict[str, object] = {}
        self.worker_respawns = recorder.counter("fleet.worker_respawns")
        self.instance_respawns = recorder.counter(
            "fleet.instance_respawns")
        self.lost = recorder.counter("fleet.lost_requests")
        self.duplicates = recorder.counter("fleet.duplicate_results")
        # Degradation counters: infrastructure outcomes, kept separate
        # from the security counters above by name.
        self.trace_gaps = recorder.counter("fleet.trace_gaps")
        self.infra_failures = recorder.counter("fleet.infra_failures")
        self.shed = recorder.counter("fleet.shed_requests")
        self.circuit_opens = recorder.counter("fleet.circuit_opens")
        self.watchdog_kills = recorder.counter("fleet.watchdog_kills")
        # Spec lifecycle: generation swaps and the feedback loop back
        # into training.
        self.spec_reloads = recorder.counter("fleet.spec_reloads")
        self.retrain_enqueued = recorder.counter(
            "fleet.retrain_enqueued")
        self.promotions = recorder.counter("fleet.spec_promotions")
        self.promotion_refusals = recorder.counter(
            "fleet.spec_promotion_refusals")
        # Tenant-policy lifecycle: hot swaps, graduated-ladder responses
        # (labeled per policy id), and live migrations.
        self._policy_responses: Dict[Tuple[str, str], object] = {}
        self.policy_reloads = recorder.counter("fleet.policy_reloads")
        self.migrations = recorder.counter("fleet.migrations")

    def record_dispatch(self, worker_id: int, depth: int) -> None:
        hist = self._depth.get(worker_id)
        if hist is None:
            hist = self._recorder.histogram(
                "fleet.queue_depth", DEFAULT_DEPTH_BUCKETS,
                worker=worker_id)
            self._depth[worker_id] = hist
        hist.observe(depth)

    def record_result(self, result) -> None:
        """One BatchResult's worth of per-tenant/per-worker accounting.
        ``result.op_cycles`` carries simulated cycles per completed
        request — at the nominal 1 GHz clock, cycles are nanoseconds."""
        tenant = result.tenant
        for outcome, n in (("completed", result.completed),
                           ("rejected", result.rejected),
                           ("fault", result.faults),
                           ("detected", result.detections)):
            if not n:
                continue
            key = (tenant, outcome)
            counter = self._requests.get(key)
            if counter is None:
                counter = self._recorder.counter(
                    "fleet.requests", tenant=tenant, outcome=outcome)
                self._requests[key] = counter
            counter.inc(n)
        hist = self._request_cycles.get(tenant)
        if hist is None:
            hist = self._recorder.histogram(
                "fleet.request_cycles", DEFAULT_CYCLE_BUCKETS,
                tenant=tenant)
            self._request_cycles[tenant] = hist
        for cycles in result.op_cycles:
            hist.observe(cycles)
        counter = self._worker_cycles.get(result.worker_id)
        if counter is None:
            counter = self._recorder.counter("fleet.worker_cycles",
                                             worker=result.worker_id)
            self._worker_cycles[result.worker_id] = counter
        counter.inc(result.cycles)
        if result.instance_respawns:
            self.instance_respawns.inc(result.instance_respawns)
        if result.trace_gaps:
            self.trace_gaps.inc(result.trace_gaps)
        if result.infra_failures:
            self.infra_failures.inc(result.infra_failures)
        if result.shed:
            self.shed.inc(result.shed)
        if result.circuit_opens:
            self.circuit_opens.inc(result.circuit_opens)

    def record_policy(self, result) -> None:
        """One BatchResult's graduated-ladder responses, labeled by the
        resolved policy id — the per-policy breakdown ``repro stats``
        surfaces (throttles/restores/fences per policy, mirroring the
        per-strategy detection labels)."""
        policy_id = result.policy_id
        if not policy_id:
            return
        for response, n in (("throttle", result.policy_throttles),
                            ("restore", result.policy_restores),
                            ("fence", result.policy_fences)):
            if not n:
                continue
            key = (policy_id, response)
            counter = self._policy_responses.get(key)
            if counter is None:
                counter = self._recorder.counter(
                    "fleet.policy_responses", policy=policy_id,
                    response=response)
                self._policy_responses[key] = counter
            counter.inc(n)

    def record_report(self, tenant: str, report) -> None:
        for strategy in {a.strategy for a in report.anomalies}:
            key = (tenant, strategy.value)
            counter = self._detections.get(key)
            if counter is None:
                counter = self._recorder.counter(
                    "fleet.detections", tenant=tenant,
                    strategy=strategy.value)
                self._detections[key] = counter
            counter.inc()

    def record_quarantine(self, tenant: str) -> None:
        counter = self._quarantines.get(tenant)
        if counter is None:
            counter = self._recorder.counter("fleet.quarantines",
                                             tenant=tenant)
            self._quarantines[tenant] = counter
        counter.inc()


class FaultTelemetry:
    """Injected-fault accounting: one ``faults.injected`` counter per
    site a :class:`~repro.faults.plan.FaultInjector` fires at."""

    __slots__ = ("_recorder", "_sites")

    def __init__(self, recorder: Recorder):
        self._recorder = recorder
        self._sites: Dict[str, object] = {}

    def record(self, site: str) -> None:
        counter = self._sites.get(site)
        if counter is None:
            counter = self._recorder.counter("faults.injected", site=site)
            self._sites[site] = counter
        counter.inc()
