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
worker's memory.  A security quarantine crosses a respawn too: the
supervisor hands the new worker the quarantines of its lane's tenants,
so a quarantined tenant's rebuilt instance starts quarantined.

A worker keeps one record per tenant (``FleetWorker.tenants``).  A
live migration is checkpoint → restore → release: the target lane
installs a record built from the envelope alone, and only then does
the source lane drop its own, so a tenant is resident on one lane.
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
class _Tenant:
    """Everything a worker holds for one tenant.  A restore installs a
    record whole and a migration's release drops it, so nothing from an
    earlier stint of the tenant on this lane outlives a move."""

    instance: GuardedInstance
    #: breaker and ladder state, under the ``_BREAKER_KEYS`` names a
    #: migration envelope carries
    strikes: int = 0
    circuit_open: bool = False
    shed_since_probe: int = 0
    #: highest ladder rung fired during the current strike run
    rung: int = 0
    #: infrastructure-fenced (ladder rung 3; never security)
    fenced: bool = False
    respawns: int = 0
    #: policy hot-reload epoch (batch-stamped, like specs) and the set
    #: it installed; ``None`` resolves from the worker's own set
    policy_epoch: int = 0
    policy_set: Optional[PolicySet] = None
    #: last healthy checkpoint (taken only when the tenant's policy
    #: arms the snapshot-restore rung)
    snapshot: Optional[dict] = None


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
    #: one record per hosted tenant
    tenants: Dict[str, _Tenant] = field(default_factory=dict)
    #: tenant -> reason: security quarantines a respawn of this lane
    #: carries over, applied to the tenant's first instance here
    quarantines: Dict[str, str] = field(default_factory=dict, init=False)

    # -- policy resolution --------------------------------------------------

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The tenant's resolved policy under its current epoch."""
        record = self.tenants.get(tenant)
        if record is None or record.policy_set is None:
            return self.policies.resolve(tenant)
        return record.policy_set.resolve(tenant)

    def _maybe_reload_policy(self, record: _Tenant, batch: RequestBatch,
                             result: BatchResult) -> None:
        """Epoch-based policy hot reload, mirroring the spec mechanism:
        the supervisor stamped this batch with a newer policy
        generation; the swap lands here, before the first op, so the
        previous batch finished wholly under the old policy."""
        if batch.policy_epoch > record.policy_epoch and batch.policy_digest:
            record.policy_set = \
                self.registry.policies.get(batch.policy_digest)
            record.policy_epoch = batch.policy_epoch
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

    def run_batch(self, batch: RequestBatch) -> BatchResult:
        start = time.perf_counter()
        tenant = batch.tenant
        result = BatchResult(tenant, batch.device, batch.seq,
                             self.worker_id, submitted=len(batch.ops))
        record = self.tenants.get(tenant)
        if record is None:
            record = self.tenants[tenant] = _Tenant(self._build(batch))
            reason = self.quarantines.pop(tenant, None)
            if reason is not None:
                record.instance.quarantine(reason)
        self._maybe_reload_policy(record, batch, result)
        pol = self.policy_for(tenant)
        result.policy_id = pol.policy_id
        result.policy_generation = record.policy_epoch
        # Seed the breaker from the batch: strikes accrued before the
        # previous worker died must survive the respawn.  Seeded strikes
        # climb the same ladder in-batch failures do.
        if batch.infra_strikes > record.strikes:
            record.strikes = batch.infra_strikes
        instance = self._climb_ladder(record, batch, pol, result)
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
            if record.fenced:
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
            if record.circuit_open:
                if record.shed_since_probe < pol.circuit_cooldown:
                    record.shed_since_probe += 1
                    result.shed += 1
                    if op.kind == "exploit":
                        result.exploit_refusals += 1
                    continue
                record.shed_since_probe = 0   # half-open probe
            served += 1
            outcome = instance.apply(op, pol)
            result.cycles += outcome.cycles
            result.io_rounds += outcome.io_rounds
            if outcome.report is not None:
                # Stamp the resolved policy the op ran under.
                outcome.report.policy = pol.degradation
                outcome.report.policy_id = pol.policy_id
                outcome.report.policy_generation = record.policy_epoch
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
                record.strikes += 1
                instance = self._climb_ladder(record, batch, pol, result)
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
                instance = self._respawn_or_fence(record, batch, pol,
                                                  outcome.detail, result)
                continue
            if not infra:
                # A vouched-for round: the tenant's machinery is healthy
                # again, so the strike run ends, an open circuit's
                # successful probe closes it, and the ladder resets.
                record.strikes = 0
                record.circuit_open = False
                record.rung = 0
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
        result.fenced = record.fenced
        result.op_cycles = tuple(op_cycles)
        result.reports = tuple(reports)
        result.retrain = tuple(retrain)
        result.wall_seconds = time.perf_counter() - start
        if (pol.restore_after > 0 and not result.fenced
                and not instance.quarantined and record.strikes == 0):
            # The batch ended healthy and this tenant's policy arms the
            # snapshot-restore rung: capture the rollback point.
            record.snapshot = checkpoint_instance(instance)
        return result

    def _climb_ladder(self, record: _Tenant, batch: RequestBatch,
                      pol: TenantPolicy,
                      result: BatchResult) -> GuardedInstance:
        """Fire every graduated-ladder rung the tenant's consecutive
        strike count has reached, in order, at most once per strike run
        (a vouched-for round resets the run)."""
        strikes, rung = record.strikes, record.rung
        if (pol.throttle_after > 0 and strikes >= pol.throttle_after
                and not record.circuit_open):
            record.circuit_open = True
            record.shed_since_probe = 0
            result.circuit_opens += 1
            result.policy_throttles += 1
            rung = max(rung, RUNG_THROTTLE)
        if (pol.restore_after > 0 and strikes >= pol.restore_after
                and rung < RUNG_RESTORE):
            rung = RUNG_RESTORE
            if record.snapshot is not None:
                self._restore_snapshot(record, batch)
                result.policy_restores += 1
        if (pol.quarantine_after > 0 and strikes >= pol.quarantine_after
                and rung < RUNG_FENCE):
            rung = RUNG_FENCE
            record.fenced = True
            result.policy_fences += 1
            result.fenced = True
        record.rung = rung
        return record.instance

    def _restore_snapshot(self, record: _Tenant,
                          batch: RequestBatch) -> None:
        """Ladder rung 2: roll the instance back to its last healthy
        checkpoint.  Breaker state is deliberately *not* rolled back —
        the strike run continues toward the fence rung if the
        infrastructure stays unhealthy."""
        snapshot = record.snapshot
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
        record.instance = instance

    def _respawn_or_fence(self, record: _Tenant, batch: RequestBatch,
                          pol: TenantPolicy, detail: str,
                          result: BatchResult) -> GuardedInstance:
        """An unhandled device fault killed the instance: rebuild it from
        the shared spec (bounded by the tenant's declarative respawn
        budget), else quarantine the tenant."""
        if record.respawns < pol.respawn_budget:
            record.respawns += 1
            result.instance_respawns += 1
            record.instance = self._build(batch)
        else:
            record.instance.quarantine(f"fault budget exhausted: {detail}")
        return record.instance

    # -- checkpoint / restore / release (live migration) ---------------------

    def checkpoint_tenant(self, tenant: str) -> Optional[dict]:
        """Sealed migration envelope for *tenant*: the instance
        checkpoint plus the record's breaker/ladder/respawn counters and
        policy generation, so a half-open probe does not reset across a
        shard move.  One seal covers every key.  None when *tenant* has
        no record here: it never built an instance on this lane, or a
        migration released it."""
        record = self.tenants.get(tenant)
        if record is None:
            return None
        envelope = _envelope(record.instance)
        envelope["breaker"] = {key: getattr(record, key)
                               for key, _ in _BREAKER_KEYS}
        envelope["policy"] = {
            "epoch": record.policy_epoch,
            "digest": ("" if record.policy_set is None
                       else record.policy_set.digest),
        }
        return seal(envelope)

    def restore_tenant(self, envelope: dict) -> GuardedInstance:
        """Install a migrated tenant from its sealed envelope: verify it
        once, rebuild the instance at the envelope's spec generation,
        overlay the serialized state, and install one record built from
        the envelope alone.  A section the envelope lacks starts at a
        fresh tenant's values and the snapshot starts empty, so nothing
        an earlier stint of the tenant here left behind survives.
        Everything is resolved and validated before the record is
        installed, so a refused envelope (:class:`FleetError`) leaves
        this worker as it was."""
        verify(envelope)
        header = _header(envelope)
        fields = {}
        if "breaker" in envelope:
            section = need(envelope, "breaker", "", dict)
            for key, kind in _BREAKER_KEYS:
                fields[key] = need(section, key, "breaker.", kind)
            if fields["rung"] > RUNG_FENCE:
                raise FleetError(f"checkpoint breaker.rung is past the "
                                 f"ladder: {fields['rung']!r}")
        if "policy" in envelope:
            section = need(envelope, "policy", "", dict)
            fields["policy_epoch"] = need(section, "epoch", "policy.")
            digest = need(section, "digest", "policy.", str)
            if digest:
                try:
                    fields["policy_set"] = \
                        self.registry.policies.get(digest)
                except PolicyError as exc:
                    raise FleetError(
                        f"checkpoint policy.digest: {exc}") from None
        try:
            spec = self._spec_for(header["device"], header["qemu_version"],
                                  header["spec_digest"])
        except SpecError as exc:
            raise FleetError(f"checkpoint spec_digest: {exc}") from None
        instance = _restore(envelope, header, spec, self.injector)
        self.tenants[header["tenant"]] = _Tenant(instance, **fields)
        return instance

    def release_tenant(self, tenant: str) -> None:
        """Drop *tenant*'s record: the last step of a migration, taken
        once its envelope is installed on another lane."""
        self.tenants.pop(tenant, None)


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
    installs a migrated tenant and answers ("restored", ...), or
    ("refused", ..., why) when the envelope is refused, leaving this
    worker as it was; ("release", tenant) drops a migrated-away
    tenant's record and ("quarantine", {tenant: reason}) hands a
    respawned worker the quarantines of its lane; neither answers."""
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
            try:
                worker.restore_tenant(message[1])
            except FleetError as exc:
                outbox.send(("refused", worker_id, str(exc)))
            else:
                outbox.send(("restored", worker_id, message[1]["tenant"]))
            continue
        if message[0] == "release":
            worker.release_tenant(message[1])
            continue
        if message[0] == "quarantine":
            worker.quarantines.update(message[1])
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
