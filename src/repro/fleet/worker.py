"""Fleet workers: each hosts N guarded instances and drains batches.

:class:`FleetWorker` is the execution core, used identically by the
in-process fallback and by :func:`worker_main`, the multiprocessing entry
point.  Instances are built lazily on a tenant's first batch (specs come
from the shared :class:`~repro.fleet.registry.SpecRegistry`, so a worker
process never retrains); a device fault respawns the instance in place
with bounded retries, after which the tenant is fenced off.

The worker also runs the fleet's per-tenant **circuit breaker** — an
infrastructure guard distinct from security quarantine: after the
tenant policy's ``throttle_after`` *consecutive* infra failures (trace
gaps, decode failures) a tenant's circuit opens and its requests are
shed (counted, never quarantined) until a half-open probe succeeds.
Every resilience setting — degradation mode, retries, respawn budget,
breaker and ladder — comes from the worker's
:class:`~repro.policy.model.PolicySet`, resolved per tenant once per
batch: every op of the batch runs under that policy, and every report
the batch files is stamped with its degradation mode, id and
generation.  Breaker inputs are
deterministic: tenants are pinned to workers, batches run sequentially,
and a batch requeued after a worker death carries its accumulated
``infra_strikes`` so the breaker survives the respawn that wiped the
worker's memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.checker import CheckReport, DEFAULT_BACKEND, Mode, \
    retrain_reason
from repro.errors import FleetError, PolicyError, SpecError
from repro.fleet.checkpoint import _envelope, _header, _restore, \
    checkpoint_instance, need, restore_instance, seal, verify
from repro.fleet.instance import GuardedInstance
from repro.fleet.loadgen import FAULT_OP_KINDS, OpRequest, RequestBatch
from repro.fleet.registry import SpecRegistry
from repro.policy.model import PolicySet, TenantPolicy
from repro.spec.lifecycle import RetrainRecord

#: Graduated-ladder rungs, in firing order (strike-count keyed).
RUNG_THROTTLE, RUNG_RESTORE, RUNG_FENCE = 1, 2, 3

#: The breaker keys a migration envelope carries, with their kinds.
_BREAKER_KEYS = (("strikes", int), ("circuit_open", bool),
                 ("shed_since_probe", int), ("rung", int),
                 ("fenced", bool), ("respawns", int))


def batch_wants_crash(batch: RequestBatch) -> bool:
    """A live (non-tombstoned) crash-injection op in this batch?"""
    return any(op.kind == "crash" and op.seed >= 0 for op in batch.ops)


def batch_wants_hang(batch: RequestBatch) -> bool:
    """A live (non-tombstoned) hang-injection op in this batch?"""
    return any(op.kind == "hang" and op.seed >= 0 for op in batch.ops)


def tombstone_crashes(batch: RequestBatch) -> RequestBatch:
    """Neutralize crash/hang ops so a requeued batch can drain normally."""
    if not any(op.kind in FAULT_OP_KINDS and op.seed >= 0
               for op in batch.ops):
        return batch
    ops = tuple(OpRequest(op.kind, op.index, -1, op.cve)
                if op.kind in FAULT_OP_KINDS else op for op in batch.ops)
    return replace(batch, ops=ops)


def requeue_batch(batch: RequestBatch) -> RequestBatch:
    """Prepare a batch for redelivery after its worker died: tombstone
    the fault op that killed the worker and record the infra strike so
    the respawned worker's circuit breaker starts where the dead one
    left off."""
    return replace(tombstone_crashes(batch),
                   infra_strikes=batch.infra_strikes + 1)


def instance_injector(fault_plan, recorder=None):
    """The worker-local injector for instance-level fault arms (the
    ipt/interp sites); None when the plan arms none of them."""
    if fault_plan is None:
        return None
    sub = fault_plan.for_sites("ipt.", "interp.")
    if not sub.specs:
        return None
    from repro.faults.plan import FaultInjector
    return FaultInjector(sub, recorder=recorder)


@dataclass
class BatchResult:
    """Per-batch accounting, aggregated by the supervisor."""

    tenant: str
    device: str
    seq: int
    worker_id: int
    submitted: int = 0
    completed: int = 0          # ok + detected rounds
    rejected: int = 0           # refused: instance quarantined
    faults: int = 0             # device crashed serving the request
    detections: int = 0
    instance_respawns: int = 0
    quarantined: bool = False   # instance quarantined after this batch
    quarantine_reason: str = ""
    #: ops refused because the enforcement machinery could not vouch for
    #: them (fail-closed / retry-exhausted trace loss)
    trace_gaps: int = 0
    #: ops whose round hit an infrastructure failure (degraded refusals
    #: plus fail-open degraded allows)
    infra_failures: int = 0
    #: ops shed by an open per-tenant circuit breaker
    shed: int = 0
    #: circuit-breaker open transitions during this batch
    circuit_opens: int = 0
    #: exploit ops that executed to completion *without* a detection —
    #: the chaos invariant I1 counts these as escapes
    exploit_escapes: int = 0
    #: exploit ops refused by degradation/shedding (fail-closed working:
    #: the CVE did not run, but it was not detected either)
    exploit_refusals: int = 0
    #: hot spec swaps performed before this batch's first op
    spec_reloads: int = 0
    #: hot tenant-policy swaps performed before this batch's first op
    policy_reloads: int = 0
    #: resolved policy id/generation this batch ran under
    policy_id: str = ""
    policy_generation: int = 0
    #: graduated-ladder responses fired during this batch
    policy_throttles: int = 0
    policy_restores: int = 0
    policy_fences: int = 0
    #: tenant is infrastructure-fenced (ladder rung 3) after this batch —
    #: deliberately distinct from security ``quarantined``
    fenced: bool = False
    cycles: int = 0
    io_rounds: int = 0
    #: simulated cycles per completed request (latency percentiles)
    op_cycles: Tuple[int, ...] = ()
    wall_seconds: float = 0.0
    reports: Tuple[CheckReport, ...] = ()
    #: rounds flagged as candidate training traces (anomaly-driven
    #: retraining queue); plain picklable records
    retrain: Tuple[RetrainRecord, ...] = ()


@dataclass
class FleetWorker:
    """Hosts the guarded instances of the tenants assigned to it."""

    worker_id: int
    registry: SpecRegistry
    mode: Mode = Mode.PROTECTION
    backend: str = DEFAULT_BACKEND
    #: credit-batch size for every hosted instance (0 = per-round vets)
    batch_rounds: int = 0
    injector: Optional[object] = None
    #: declarative per-tenant resilience policies
    policies: PolicySet = field(default_factory=PolicySet)
    instances: Dict[str, GuardedInstance] = field(default_factory=dict)
    _respawns: Dict[str, int] = field(default_factory=dict)
    _strikes: Dict[str, int] = field(default_factory=dict)
    _circuit_open: Dict[str, bool] = field(default_factory=dict)
    _shed_since_probe: Dict[str, int] = field(default_factory=dict)
    #: per-tenant policy hot-reload epoch (batch-stamped, like specs)
    _policy_epoch: Dict[str, int] = field(default_factory=dict)
    _policy_sets: Dict[str, PolicySet] = field(default_factory=dict)
    #: highest ladder rung fired during the current strike run
    _rung: Dict[str, int] = field(default_factory=dict)
    #: infrastructure-fenced tenants (ladder rung 3; never security)
    _fenced: Dict[str, bool] = field(default_factory=dict)
    #: last healthy checkpoint per tenant (taken only when the tenant's
    #: policy arms the snapshot-restore rung)
    _snapshots: Dict[str, dict] = field(default_factory=dict)

    # -- policy resolution --------------------------------------------------

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The tenant's resolved policy under its current epoch."""
        return self._policy_sets.get(tenant, self.policies).resolve(tenant)

    def _maybe_reload_policy(self, batch: RequestBatch,
                             result: BatchResult) -> None:
        """Epoch-based policy hot reload, mirroring the spec mechanism:
        the supervisor stamped this batch with a newer policy
        generation; the swap lands here, before the first op, so the
        previous batch finished wholly under the old policy."""
        tenant = batch.tenant
        if (batch.policy_epoch > self._policy_epoch.get(tenant, 0)
                and batch.policy_digest):
            self._policy_sets[tenant] = \
                self.registry.policies.get(batch.policy_digest)
            self._policy_epoch[tenant] = batch.policy_epoch
            result.policy_reloads += 1

    def _build(self, batch: RequestBatch) -> GuardedInstance:
        # A batch stamped with a generation digest builds straight at
        # that generation (fresh instances after a respawn must not
        # regress to the train-once spec mid-schedule).  Composite
        # tenants get one spec per part; the registry stays per-device.
        spec = self._spec_for(batch.device, batch.qemu_version,
                              batch.spec_digest)
        instance = GuardedInstance(batch.tenant, batch.device,
                                   batch.qemu_version, spec,
                                   mode=self.mode,
                                   backend=self.backend,
                                   injector=self.injector,
                                   batch_rounds=self.batch_rounds)
        instance.spec_epoch = batch.spec_epoch
        instance.spec_digest = batch.spec_digest
        return instance

    def _spec_for(self, device: str, qemu_version: str,
                  spec_digest: str = ""):
        from repro.workloads.profiles import split_device

        parts = split_device(device)
        if spec_digest:
            return self.registry.spec_by_digest(spec_digest)
        if len(parts) > 1:
            return {part: self.registry.get(part, qemu_version)
                    for part in parts}
        return self.registry.get(device, qemu_version)

    def instance_for(self, batch: RequestBatch) -> GuardedInstance:
        instance = self.instances.get(batch.tenant)
        if instance is None:
            instance = self._build(batch)
            self.instances[batch.tenant] = instance
        return instance

    def run_batch(self, batch: RequestBatch) -> BatchResult:
        start = time.perf_counter()
        tenant = batch.tenant
        result = BatchResult(tenant, batch.device, batch.seq,
                             self.worker_id, submitted=len(batch.ops))
        self._maybe_reload_policy(batch, result)
        pol = self.policy_for(tenant)
        result.policy_id = pol.policy_id
        result.policy_generation = self._policy_epoch.get(tenant, 0)
        instance = self.instance_for(batch)
        # Seed the breaker from the batch: strikes accrued before the
        # previous worker died must survive the respawn.  Seeded strikes
        # climb the same ladder in-batch failures do.
        if batch.infra_strikes > self._strikes.get(tenant, 0):
            self._strikes[tenant] = batch.infra_strikes
        instance = self._climb_ladder(batch, pol, result)
        if (batch.spec_epoch > instance.spec_epoch
                and not instance.quarantined):
            # Epoch-based hot reload: the supervisor stamped this batch
            # with a newer generation.  The previous batch finished
            # wholly under the old spec; the swap lands here, before
            # this batch's first op.
            instance.reload_spec(
                self.registry.spec_by_digest(batch.spec_digest),
                batch.spec_epoch, batch.spec_digest)
            result.spec_reloads += 1
        op_cycles = []
        reports = []
        retrain = []
        served = 0
        for op in batch.ops:
            if self._fenced.get(tenant, False):
                # Ladder rung 3: infrastructure fence.  Everything is
                # shed; deliberately *not* a security quarantine.
                result.shed += 1
                if op.kind == "exploit":
                    result.exploit_refusals += 1
                continue
            if pol.rate_quota and served >= pol.rate_quota:
                # Declarative rate quota: overflow past the per-batch
                # cap is shed as a throttle response.
                result.shed += 1
                result.policy_throttles += 1
                if op.kind == "exploit":
                    result.exploit_refusals += 1
                continue
            if self._circuit_open.get(tenant, False):
                since = self._shed_since_probe.get(tenant, 0)
                if since < pol.circuit_cooldown:
                    self._shed_since_probe[tenant] = since + 1
                    result.shed += 1
                    if op.kind == "exploit":
                        result.exploit_refusals += 1
                    continue
                self._shed_since_probe[tenant] = 0   # half-open probe
            served += 1
            outcome = instance.apply(op, pol)
            result.cycles += outcome.cycles
            result.io_rounds += outcome.io_rounds
            if outcome.report is not None:
                # Stamp the resolved policy the op ran under.
                outcome.report.policy = pol.degradation
                outcome.report.policy_id = pol.policy_id
                outcome.report.policy_generation = \
                    self._policy_epoch.get(tenant, 0)
                reports.append(outcome.report)
                reason = retrain_reason(outcome.report)
                if reason and op.kind in ("common", "rare"):
                    # Feed the round back to training: the op triple is
                    # enough to replay the exact guest interaction.
                    retrain.append(RetrainRecord(
                        tenant, batch.device, batch.qemu_version,
                        reason, outcome.report.io_key, batch.seq,
                        op.kind, op.index, op.seed))
            infra = (outcome.report is not None
                     and outcome.report.trace_gap)
            if infra:
                result.infra_failures += 1
                self._strikes[tenant] = self._strikes.get(tenant, 0) + 1
                instance = self._climb_ladder(batch, pol, result)
            if outcome.status == "trace_gap":
                result.trace_gaps += 1
                if op.kind == "exploit":
                    result.exploit_refusals += 1
                continue
            if outcome.status == "rejected":
                result.rejected += 1
                if op.kind == "exploit":
                    result.exploit_refusals += 1
                continue
            if outcome.status == "fault":
                result.faults += 1
                instance = self._respawn_or_fence(batch, pol,
                                                  outcome.detail, result)
                continue
            if not infra:
                # A vouched-for round: the tenant's machinery is healthy
                # again, so the strike run ends, an open circuit's
                # successful probe closes it, and the ladder resets.
                self._strikes[tenant] = 0
                self._circuit_open.pop(tenant, None)
                self._rung.pop(tenant, None)
            result.completed += 1
            op_cycles.append(outcome.cycles)
            if outcome.status == "detected":
                result.detections += 1
            elif op.kind == "exploit":
                # The exploit round ran to completion and nothing
                # flagged it: that is an I1 escape, full stop.
                result.exploit_escapes += 1
        result.quarantined = instance.quarantined
        result.quarantine_reason = instance.quarantine_reason
        result.fenced = self._fenced.get(tenant, False)
        result.op_cycles = tuple(op_cycles)
        result.reports = tuple(reports)
        result.retrain = tuple(retrain)
        result.wall_seconds = time.perf_counter() - start
        if (pol.restore_after > 0 and not result.fenced
                and not instance.quarantined
                and self._strikes.get(tenant, 0) == 0):
            # The batch ended healthy and this tenant's policy arms the
            # snapshot-restore rung: capture the rollback point.
            self._snapshots[tenant] = checkpoint_instance(instance)
        return result

    def _climb_ladder(self, batch: RequestBatch, pol: TenantPolicy,
                      result: BatchResult) -> GuardedInstance:
        """Fire every graduated-ladder rung the tenant's consecutive
        strike count has reached, in order, at most once per strike run
        (a vouched-for round resets the run)."""
        tenant = batch.tenant
        strikes = self._strikes.get(tenant, 0)
        rung = self._rung.get(tenant, 0)
        if (pol.throttle_after > 0 and strikes >= pol.throttle_after
                and not self._circuit_open.get(tenant, False)):
            self._open_circuit(tenant, result)
            result.policy_throttles += 1
            rung = max(rung, RUNG_THROTTLE)
        if (pol.restore_after > 0 and strikes >= pol.restore_after
                and rung < RUNG_RESTORE):
            rung = RUNG_RESTORE
            snapshot = self._snapshots.get(tenant)
            if snapshot is not None:
                self._restore_snapshot(batch, snapshot)
                result.policy_restores += 1
        if (pol.quarantine_after > 0 and strikes >= pol.quarantine_after
                and rung < RUNG_FENCE):
            rung = RUNG_FENCE
            self._fenced[tenant] = True
            result.policy_fences += 1
            result.fenced = True
        self._rung[tenant] = rung
        return self.instances.get(tenant) or self.instance_for(batch)

    def _restore_snapshot(self, batch: RequestBatch,
                          snapshot: dict) -> None:
        """Ladder rung 2: roll the instance back to its last healthy
        checkpoint.  Breaker state is deliberately *not* rolled back —
        the strike run continues toward the fence rung if the
        infrastructure stays unhealthy."""
        spec = self._spec_for(snapshot["device"],
                              snapshot["qemu_version"],
                              snapshot["spec_digest"])
        instance = restore_instance(snapshot, spec, injector=self.injector)
        if (batch.spec_epoch > instance.spec_epoch
                and not instance.quarantined):
            # The snapshot predates a spec hot reload this batch is
            # stamped with: bring the restored instance forward so the
            # rollback never regresses the deployed spec generation.
            instance.reload_spec(
                self.registry.spec_by_digest(batch.spec_digest),
                batch.spec_epoch, batch.spec_digest)
        self.instances[batch.tenant] = instance

    def _open_circuit(self, tenant: str, result: BatchResult) -> None:
        self._circuit_open[tenant] = True
        self._shed_since_probe[tenant] = 0
        result.circuit_opens += 1

    def _respawn_or_fence(self, batch: RequestBatch, pol: TenantPolicy,
                          detail: str,
                          result: BatchResult) -> GuardedInstance:
        """An unhandled device fault killed the instance: rebuild it from
        the shared spec (bounded by the tenant's declarative respawn
        budget), else quarantine the tenant."""
        spent = self._respawns.get(batch.tenant, 0)
        if spent < pol.respawn_budget:
            self._respawns[batch.tenant] = spent + 1
            result.instance_respawns += 1
            instance = self._build(batch)
        else:
            instance = self.instances[batch.tenant]
            instance.quarantine(f"fault budget exhausted: {detail}")
        self.instances[batch.tenant] = instance
        return instance

    # -- checkpoint / restore (live migration) -------------------------------

    def checkpoint_tenant(self, tenant: str) -> Optional[dict]:
        """Sealed migration envelope for *tenant*: the instance
        checkpoint plus the worker-side breaker/ladder/respawn counters,
        so a half-open probe does not reset across a shard move.  One
        seal covers every key.  None when the tenant never built an
        instance here."""
        instance = self.instances.get(tenant)
        if instance is None:
            return None
        envelope = _envelope(instance)
        envelope["breaker"] = {
            "strikes": self._strikes.get(tenant, 0),
            "circuit_open": self._circuit_open.get(tenant, False),
            "shed_since_probe": self._shed_since_probe.get(tenant, 0),
            "rung": self._rung.get(tenant, 0),
            "fenced": self._fenced.get(tenant, False),
            "respawns": self._respawns.get(tenant, 0),
        }
        envelope["policy"] = {
            "epoch": self._policy_epoch.get(tenant, 0),
            "digest": (self._policy_sets[tenant].digest
                       if tenant in self._policy_sets else ""),
        }
        return seal(envelope)

    def restore_tenant(self, envelope: dict) -> GuardedInstance:
        """Install a migrated tenant from its sealed envelope: verify it
        once, rebuild the instance at the envelope's spec generation,
        overlay the serialized state, and seed the breaker/ladder
        counters.  Everything is resolved and validated before anything
        is installed, so a refused envelope (:class:`FleetError`)
        leaves this worker as it was."""
        verify(envelope)
        header = _header(envelope)
        tenant = header["tenant"]
        breaker = epoch = policy_set = None
        if "breaker" in envelope:
            section = need(envelope, "breaker", "", dict)
            breaker = {key: need(section, key, "breaker.", kind)
                       for key, kind in _BREAKER_KEYS}
            if breaker["rung"] > RUNG_FENCE:
                raise FleetError(f"checkpoint breaker.rung is past the "
                                 f"ladder: {breaker['rung']!r}")
        if "policy" in envelope:
            section = need(envelope, "policy", "", dict)
            epoch = need(section, "epoch", "policy.")
            digest = need(section, "digest", "policy.", str)
            if digest:
                try:
                    policy_set = self.registry.policies.get(digest)
                except PolicyError as exc:
                    raise FleetError(
                        f"checkpoint policy.digest: {exc}") from None
        try:
            spec = self._spec_for(header["device"], header["qemu_version"],
                                  header["spec_digest"])
        except SpecError as exc:
            raise FleetError(f"checkpoint spec_digest: {exc}") from None
        instance = _restore(envelope, header, spec, self.injector)
        # Install: the tenant's worker-side state becomes the envelope's,
        # whatever an earlier stint of the tenant here left behind.
        self.instances[tenant] = instance
        if epoch is not None:
            self._policy_epoch[tenant] = epoch
            if policy_set is None:
                self._policy_sets.pop(tenant, None)
            else:
                self._policy_sets[tenant] = policy_set
        if breaker is not None:
            self._strikes[tenant] = breaker["strikes"]
            self._shed_since_probe[tenant] = breaker["shed_since_probe"]
            self._respawns[tenant] = breaker["respawns"]
            for latch, key in ((self._circuit_open, "circuit_open"),
                               (self._rung, "rung"),
                               (self._fenced, "fenced")):
                if breaker[key]:
                    latch[tenant] = breaker[key]
                else:
                    latch.pop(tenant, None)
        return instance


def worker_main(worker_id: int, registry: SpecRegistry, inbox, outbox,
                fault_plan=None, slow_start: float = 0.0, *,
                mode: Mode = Mode.PROTECTION,
                backend: str = DEFAULT_BACKEND, batch_rounds: int = 0,
                policies: PolicySet = PolicySet()) -> None:
    """Multiprocessing entry: drain ("batch", RequestBatch) messages
    from the *inbox* queue until ("stop",), answering on *outbox*, the
    sending end of this worker's own result pipe.  *registry* is the
    supervisor's, with the specs it primed (and, forked, their lowered
    frames); anything else — specs published later, the policy sets a
    hot reload names by digest — is loaded from its shared disk cache.
    The keyword arguments are the :class:`FleetWorker` settings, the
    same ones an inline lane gets.  ("checkpoint", tenant) answers
    with the tenant's sealed migration envelope; ("restore", envelope)
    installs a migrated tenant."""
    if slow_start > 0:
        # worker.slow_start arm: the respawned process takes its time
        # coming up; dispatched batches just wait in the inbox.
        time.sleep(slow_start)
    worker = FleetWorker(worker_id, registry, mode=mode, backend=backend,
                         batch_rounds=batch_rounds,
                         injector=instance_injector(fault_plan),
                         policies=policies)
    outbox.send(("ready", worker_id))
    while True:
        message = inbox.get()
        if message[0] == "stop":
            break
        if message[0] == "checkpoint":
            outbox.send(("checkpoint", worker_id,
                         worker.checkpoint_tenant(message[1])))
            continue
        if message[0] == "restore":
            worker.restore_tenant(message[1])
            outbox.send(("restored", worker_id, message[1]["tenant"]))
            continue
        batch: RequestBatch = message[1]
        if batch_wants_crash(batch):
            # Fault-injection hook: die the way a segfaulting QEMU
            # worker would — no goodbye message, exit code and all.
            os._exit(13)
        if batch_wants_hang(batch):
            # Stop responding without dying: only the supervisor's
            # watchdog can get this worker's lane moving again.
            while True:
                time.sleep(3600)
        outbox.send(("result", worker_id, worker.run_batch(batch)))
