"""One guarded tenant: a guest VM + device + deployed ES-Checker.

A :class:`GuardedInstance` is the fleet's unit of isolation.  It owns a
private :class:`~repro.vm.machine.GuestVM` with the tenant's device
attached and an execution specification deployed in front of it, and it
applies :class:`~repro.fleet.loadgen.OpRequest` records one at a time.
A SEDSpec detection *quarantines* the instance — the fleet analogue of
the paper's targeted termination: the offending tenant is fenced off, its
`CheckReport` recorded, and every other tenant keeps being served.

Quarantine is a **security** outcome.  The instance also recognizes
**infrastructure** outcomes — the enforcement machinery itself failed
(trace loss, decode failure, a transient interpreter fault) — and routes
them through the degradation mode of the
:class:`~repro.policy.model.TenantPolicy` each ``apply`` is given
instead: the op degrades to an explicit ``trace_gap`` status
(fail-closed), is allowed unvetted with the gap stamped on its report
(fail-open), or is retried (transient faults clear on a keyed
re-attempt).  An infra outcome never quarantines the tenant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.checker import (
    CheckReport, DEFAULT_BACKEND, INFRA_EXCEPTIONS, DegradationPolicy, Mode,
    gap_report,
)
from repro.core import deploy
from repro.errors import DecodeError, DeviceFault, InfraError, TraceError
from repro.fleet.loadgen import OpRequest
from repro.policy.model import DEFAULT_POLICY, TenantPolicy
from repro.vm.machine import SEDSpecHalt
from repro.spec import ExecutionSpec


def portable_report(report: CheckReport) -> CheckReport:
    """A copy safe to pickle across process boundaries: the lazy
    final-state *source* is a closure over live checker state, so
    materialize it once (detections are rare) and drop the binding."""
    return dataclasses.replace(report, _final_state=dict(report.final_state),
                               _final_state_source=None)


def run_attempts(arm: Callable[[str], None], attempts: int,
                 key: str) -> str:
    """Run the fault arm *arm* up to *attempts* times, keyed
    ``key:<attempt>``, until one attempt raises no infrastructure
    exception.  Returns "" once an attempt succeeds, else the last
    failure's text.  Any other exception propagates: a genuine bug
    stays loud."""
    last = ""
    for attempt in range(attempts):
        try:
            arm(f"{key}:{attempt}")
        except INFRA_EXCEPTIONS as exc:
            last = f"{type(exc).__name__}: {exc}"
            continue
        return ""
    return last


@dataclass
class OpOutcome:
    """What one applied request did to the instance."""

    #: "ok" | "detected" | "fault" | "rejected" | "trace_gap"
    status: str
    cycles: int = 0
    io_rounds: int = 0
    report: Optional[CheckReport] = None
    detail: str = ""
    quarantined: bool = False   # did *this* op trip the quarantine


class GuardedInstance:
    """Guards one tenant.  ``device_name`` may be composite
    (``"virtio-net+virtio-blk"``): the tenant then owns one guest VM with
    every part attached, a per-part spec deployed in front of each, and a
    *shared* quarantine verdict — a detection on any part fences the whole
    tenant, exactly as terminating the QEMU process would."""

    def __init__(self, tenant: str, device_name: str, qemu_version: str,
                 spec, mode: Mode = Mode.PROTECTION,
                 backend: str = DEFAULT_BACKEND,
                 injector=None, batch_rounds: int = 0):
        from repro.workloads.profiles import profile

        self.tenant = tenant
        self.device_name = device_name
        self.qemu_version = qemu_version
        self.mode = mode
        self.backend = backend
        self.injector = injector
        self.batch_rounds = batch_rounds
        #: which spec generation is deployed (hot-reload bookkeeping);
        #: epoch 0 is whatever the registry served at build time
        self.spec_epoch = 0
        self.spec_digest = ""
        self.profile = profile(device_name)
        self.vm, self.device = self.profile.make_vm(qemu_version,
                                                    backend=backend)
        specs = (spec if isinstance(spec, dict)
                 else {self.device.NAME: spec})
        self.attachments = {
            part: deploy(self.vm, self.vm.devices[part], part_spec,
                         mode=mode, backend=backend,
                         batch_rounds=batch_rounds)
            for part, part_spec in specs.items()}
        self.attachment = self.attachments[self.device.NAME]
        self.driver = self.profile.make_driver(self.vm)
        self.profile.prepare(self.vm, self.driver)
        self.quarantined = False
        self.quarantine_reason = ""
        self.reports: List[CheckReport] = []
        self._op_serial = 0
        self._tracer = None
        if injector is not None and any(
                injector.armed(s) for s in
                ("ipt.drop", "ipt.corrupt", "ipt.overflow")):
            # Verification tracer: captures the op's real packet stream so
            # the ipt fault arms exercise the genuine decode/resync path.
            from repro.ipt.tracer import IPTTracer
            self._tracer = IPTTracer(injector=injector)
            self.device.machine.add_sink(self._tracer)

    def quarantine(self, reason: str) -> None:
        self.quarantined = True
        self.quarantine_reason = reason

    def reload_spec(self, spec: ExecutionSpec, epoch: int,
                    digest: str = "") -> None:
        """Swap in a new spec generation between ops.

        ``apply`` is synchronous, so calling this between ops makes the
        swap atomic per instance: every round either ran wholly under
        the old spec or wholly under the new one.  The re-deploy
        replaces the VM's attachment and boot-syncs the fresh checker's
        shadow state from the *live* device state, so mid-stream guest
        state (an open drive, a pending command) survives the swap.
        The guest VM, driver, recorded reports and quarantine state are
        untouched.
        """
        specs = (spec if isinstance(spec, dict)
                 else {self.device.NAME: spec})
        for part, part_spec in specs.items():
            self.attachments[part] = deploy(
                self.vm, self.vm.devices[part], part_spec,
                mode=self.mode, backend=self.backend,
                batch_rounds=self.batch_rounds)
        self.attachment = self.attachments[self.device.NAME]
        self.spec_epoch = epoch
        self.spec_digest = digest

    def _record(self, report: CheckReport) -> CheckReport:
        """Stamp the spec generation the round ran under and file it."""
        report.spec_epoch = self.spec_epoch
        self.reports.append(report)
        return report

    def _warning_counts(self) -> dict:
        return {part: len(a.warnings)
                for part, a in self.attachments.items()}

    def _new_warning(self, before: dict) -> Optional[CheckReport]:
        for part, attachment in self.attachments.items():
            if len(attachment.warnings) > before.get(part, 0):
                return attachment.warnings[-1]
        return None

    def apply(self, op: OpRequest,
              policy: TenantPolicy = DEFAULT_POLICY) -> OpOutcome:
        """Serve *op*.  *policy*'s degradation mode and retry budget
        decide what an infrastructure failure means for it."""
        if self.quarantined:
            return OpOutcome("rejected", detail=self.quarantine_reason)
        self._op_serial += 1
        op_key = f"{self.tenant}:{self._op_serial}:{op.kind}:{op.index}"
        gap = self._pre_execution_gap(op, op_key, policy)
        if gap is not None:
            return gap
        before = self.vm.stats.snapshot()
        warned = self._warning_counts()
        if self._tracer is not None:
            self._tracer.clear()
        try:
            self._run(op)
            # Credit-batch discipline: the op boundary is a flush point,
            # so every round this op executed on credit is vetted before
            # the outcome is reported.
            self.vm.flush_batches()
        except SEDSpecHalt as halt:
            return self._detected(halt, before)
        except DeviceFault as fault:
            try:
                # Detection takes precedence over the fault outcome:
                # rounds credited before the crash are vetted first.
                self.vm.flush_batches()
            except SEDSpecHalt as halt:
                return self._detected(halt, before)
            return self._outcome("fault", before,
                                 detail=f"{fault.kind}: {fault}")
        gap = self._post_execution_gap(op_key, before, policy)
        if gap is not None:
            return gap
        warning = self._new_warning(warned)
        if warning is not None:
            # Enhancement mode warned-and-allowed: a detection on the
            # record, but the round completed and the tenant stays live.
            report = self._record(portable_report(warning))
            return self._outcome("detected", before, report=report,
                                 detail=str(report.first_anomaly()))
        return self._outcome("ok", before)

    def _detected(self, halt: SEDSpecHalt, before) -> OpOutcome:
        report = self._record(portable_report(halt.report))
        self.quarantine(str(halt.report.first_anomaly()))
        return self._outcome("detected", before, report=report,
                             detail=self.quarantine_reason,
                             quarantined=True)

    # -- fault arms ----------------------------------------------------------

    def _pre_execution_gap(self, op: OpRequest, op_key: str,
                           policy: TenantPolicy) -> Optional[OpOutcome]:
        """The ``interp.*`` arms: the checker's execution engine fails
        *before* the round runs (so nothing — device or shadow state — has
        advanced, and a retry genuinely replays from scratch)."""
        inj = self.injector
        if inj is None or not (inj.armed("interp.step")
                               or inj.armed("interp.stall")):
            return None
        failure = run_attempts(self._draw_interp_fault, policy.attempts,
                               op_key)
        if not failure:
            return None     # engine healthy (or the transient cleared)
        if policy.degradation == DegradationPolicy.FAIL_OPEN.value:
            # Checker machinery is down but policy says serve anyway:
            # run the round unguarded, then re-align the shadow state so
            # the blind spot does not cascade into false positives.
            return self._run_unguarded(op, op_key, failure)
        report = self._record(gap_report(op_key, policy.degradation,
                                         failure))
        return OpOutcome("trace_gap", report=report, detail=failure)

    def _draw_interp_fault(self, key: str) -> None:
        inj = self.injector
        spec = inj.decide("interp.step", self._op_serial, key)
        if spec is not None:
            raise InfraError("transient interpreter step fault",
                             kind="step")
        spec = inj.decide("interp.stall", self._op_serial, key)
        if spec is not None:
            raise InfraError(
                f"checker round stalled past deadline ({spec.arg}ms)",
                kind="stall")

    def _run_unguarded(self, op: OpRequest, op_key: str,
                       reason: str) -> OpOutcome:
        """Fail-open service: detach the checker for this op, execute,
        re-attach, resync the shadow device state."""
        before = self.vm.stats.snapshot()
        detached = {part: self.vm.attachments.pop(part)
                    for part in self.attachments}
        try:
            self._run(op)
        except DeviceFault as fault:
            return self._outcome("fault", before,
                                 detail=f"{fault.kind}: {fault}")
        finally:
            for part, attachment in detached.items():
                self.vm.attachments[part] = attachment
                attachment.checker.resync(self.vm.devices[part].state)
        report = self._record(gap_report(
            op_key, DegradationPolicy.FAIL_OPEN.value, reason))
        return self._outcome("ok", before, report=report, detail=reason)

    def _post_execution_gap(self, op_key: str, before,
                            policy: TenantPolicy) -> Optional[OpOutcome]:
        """The ``ipt.*`` arms: the op executed and was vetted, but the
        trace that vouches for it may be damaged.  Verification replays
        (decode attempts) are retryable; capture loss is not."""
        if self._tracer is None:
            return None
        failure = run_attempts(self._verify_trace, policy.attempts, op_key)
        if not failure:
            return None
        report = self._record(gap_report(op_key, policy.degradation,
                                         failure))
        if policy.degradation == DegradationPolicy.FAIL_OPEN.value:
            return self._outcome("ok", before, report=report,
                                 detail=failure)
        return self._outcome("trace_gap", before, report=report,
                             detail=failure)

    def _verify_trace(self, key: str) -> None:
        from repro.faults.plan import corrupt_bytes
        from repro.ipt.packets import decode_resilient

        tracer = self._tracer
        if tracer.dropped:
            raise TraceError(
                f"{tracer.dropped} packet(s) lost in capture "
                f"({tracer.overflows} overflow(s))")
        raw = corrupt_bytes(tracer.raw(), self.injector,
                            round_=self._op_serial, key=key)
        parsed = decode_resilient(raw)
        if parsed.gaps:
            reasons = ",".join(sorted({g.reason for g in parsed.gaps}))
            raise DecodeError(
                f"trace loss ({reasons}): {parsed.lost_bytes()} byte(s) "
                f"in {len(parsed.gaps)} gap(s)",
                offset=parsed.gaps[0].start, packets=parsed.packets)

    # -- execution -----------------------------------------------------------

    def _run(self, op: OpRequest) -> None:
        import random

        if op.kind == "exploit":
            from repro.exploits.corpus import resolve_attack
            attack = resolve_attack(op.cve)
            # Composite tenants: the PoC targets exactly one of the
            # tenant's devices; the quarantine verdict is shared.
            target = self.vm.devices.get(attack.device, self.device)
            attack.run(self.vm, target)
        elif op.kind == "common":
            fn = self.profile.common_ops[op.index
                                         % len(self.profile.common_ops)]
            fn(self.vm, self.driver, random.Random(op.seed))
        elif op.kind == "rare":
            fn = self.profile.rare_ops[op.index
                                       % len(self.profile.rare_ops)]
            fn(self.vm, self.driver, random.Random(op.seed))
        elif op.kind in ("crash", "hang"):
            pass                # tombstoned fault op: already handled
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")

    def _outcome(self, status: str, before, report=None, detail: str = "",
                 quarantined: bool = False) -> OpOutcome:
        delta = self.vm.stats.delta(before)
        return OpOutcome(status, delta.total_cycles, delta.io_rounds,
                         report=report, detail=detail,
                         quarantined=quarantined)
