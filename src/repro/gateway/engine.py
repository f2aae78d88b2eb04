"""The admission gateway: a deterministic discrete-event simulation in
front of sharded :class:`FleetSupervisor`\\ s.

Event loop on the simulated clock (cycles == nanoseconds at the nominal
1 GHz):

* **arrivals** from the open-loop per-tenant streams pass the admission
  gates (token-bucket quota, bounded queue) or are rejected;
* admitted ops queue per tenant; an idle worker lane **coalesces** up to
  ``coalesce_max`` queued ops for one tenant into a single
  :class:`RequestBatch` — one dispatch overhead, one credit-batch ride —
  and submits it synchronously through the shard's
  :class:`~repro.fleet.supervisor.FleetSession`;
* the result's deterministic cycle cost (plus ``dispatch_overhead_cycles``)
  occupies the lane until the completion event, which records
  arrival→completion latency for every op in the batch, checks it
  against the SLO, and dispatches the lane's next ready tenant;
* **rebalance** events swap the consistent-hash ring; queued tenants are
  re-routed eagerly, in-flight batches finish on their old shard, and
  subsequent dispatches land on the new one — nothing is lost or
  double-served, which ``GatewayResult.safety_failures`` certifies.

Tenant→shard placement is consistent-hash; within a shard, the session's
own first-appearance round-robin pins the tenant to a lane, so quarantine,
circuit-breaker, and hot-reload semantics are exactly the single-
supervisor ones.  Each shard owns a private
:class:`~repro.telemetry.registry.TelemetryRegistry`; the merged stats
plane is ``merge_snapshots`` over per-shard snapshots plus the gateway's
own recorder — associative and order-insensitive, so it does not matter
which shard reports first.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.checker import Mode
from repro.errors import GatewayError
from repro.fleet.loadgen import RequestBatch, TenantPlan
from repro.fleet.registry import SpecRegistry
from repro.fleet.supervisor import (
    FleetConfig, FleetResult, FleetStats, FleetSupervisor, TenantSummary,
    percentile,
)
from repro.gateway.admission import (
    ADMIT_OK, ADMIT_QUOTA, AdmissionConfig, AdmissionController,
)
from repro.gateway.arrivals import ArrivalSpec, TenantStream, build_streams
from repro.gateway.ring import DEFAULT_VNODES, HashRing, moved_tenants
from repro.interp.machine import DEFAULT_BACKEND
from repro.policy.model import PolicySet
from repro.telemetry.metrics import (
    DEFAULT_CYCLE_BUCKETS, TelemetrySnapshot, merge_snapshots,
)
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchtools import CYCLES_PER_SECOND

#: Event-heap tie-break order at one cycle: ring changes first (a
#: dispatch at cycle t must see the post-rebalance ring), then lane
#: completions (freeing lanes), then fresh arrivals.
_EV_REBALANCE, _EV_LANE, _EV_ARRIVAL = 0, 1, 2


@dataclass(frozen=True)
class RebalanceAction:
    """Shard add/remove at one simulated instant."""

    at_cycle: int
    add: Tuple[int, ...] = ()
    remove: Tuple[int, ...] = ()


@dataclass(frozen=True)
class PolicyReloadAction:
    """Fleet-wide tenant-policy hot reload at one simulated instant.

    *policies* is a :class:`PolicySet` or a raw policy-set document;
    validation happens when the gateway is constructed with the action
    (or when ``run`` reaches it), and a malformed document raises
    :class:`~repro.errors.PolicyError` without disturbing any shard.
    Dispatches at or after ``at_cycle`` are stamped with the new
    generation on every shard, current and future.
    """

    at_cycle: int
    policies: object = None


@dataclass
class GatewayConfig:
    shards: int = 2
    workers_per_shard: int = 4
    vnodes: int = DEFAULT_VNODES
    #: max queued ops folded into one worker dispatch per tenant
    coalesce_max: int = 8
    #: arrival→completion latency objective
    slo_ms: float = 2.0
    #: fixed cost a dispatch pays on top of execution (IPC + scheduling
    #: analogue); this is what makes coalescing measurable — k ops in
    #: one batch pay it once, k singleton dispatches pay it k times
    dispatch_overhead_cycles: int = 20_000
    seed: int = 0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    # fleet plumbing, forwarded to every shard supervisor
    inline: bool = True
    backend: str = DEFAULT_BACKEND
    #: credit-batch size per guarded instance: a coalesced lane's ops
    #: ride one credit batch *and* their rounds are vetted in batched
    #: checker invocations (0 keeps per-round vets)
    batch_rounds: int = 0
    mode: Mode = Mode.PROTECTION
    cache_dir: Optional[str] = None
    fault_plan: Optional[object] = None
    #: declarative per-tenant resilience policies, forwarded to every
    #: shard supervisor
    policies: PolicySet = field(default_factory=PolicySet)


@dataclass
class GatewayStats:
    pattern: str = ""
    tenants: int = 0
    shards: int = 0
    workers_per_shard: int = 0
    offered: int = 0
    admitted: int = 0
    quota_rejected: int = 0
    queue_shed: int = 0
    dispatches: int = 0
    dispatched_ops: int = 0
    makespan_cycles: int = 0
    latency_samples: int = 0
    p50_latency_cycles: float = 0.0
    p95_latency_cycles: float = 0.0
    p99_latency_cycles: float = 0.0
    slo_cycles: int = 0
    slo_violations: int = 0
    rebalances: int = 0
    moved_tenants: int = 0
    #: moved tenants whose live instance state travelled with them
    #: (checkpoint on the old shard, restore on the new one)
    migrations: int = 0
    #: fleet-wide policy hot reloads fired mid-run
    policy_reload_events: int = 0
    warmup_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def coalesce_mean(self) -> float:
        """Mean ops per dispatch (1.0 means coalescing never fired)."""
        return self.dispatched_ops / self.dispatches \
            if self.dispatches else 0.0

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles / CYCLES_PER_SECOND

    @property
    def p50_latency_ms(self) -> float:
        return 1e3 * self.p50_latency_cycles / CYCLES_PER_SECOND

    @property
    def p95_latency_ms(self) -> float:
        return 1e3 * self.p95_latency_cycles / CYCLES_PER_SECOND

    @property
    def p99_latency_ms(self) -> float:
        return 1e3 * self.p99_latency_cycles / CYCLES_PER_SECOND

    @property
    def slo_violation_rate(self) -> float:
        return self.slo_violations / self.latency_samples \
            if self.latency_samples else 0.0

    def describe(self) -> str:
        return (f"gateway[{self.pattern}]: {self.tenants} tenants over "
                f"{self.shards} shards x {self.workers_per_shard} lanes\n"
                f"  admission: offered={self.offered} "
                f"admitted={self.admitted} "
                f"quota_rejected={self.quota_rejected} "
                f"queue_shed={self.queue_shed}\n"
                f"  dispatch: {self.dispatches} batches / "
                f"{self.dispatched_ops} ops "
                f"(coalesce x{self.coalesce_mean:.2f}) "
                f"makespan={self.makespan_seconds * 1e3:.2f}ms "
                f"(simulated)\n"
                f"  latency p50={self.p50_latency_ms:.3f}ms "
                f"p95={self.p95_latency_ms:.3f}ms "
                f"p99={self.p99_latency_ms:.3f}ms; "
                f"SLO {1e3 * self.slo_cycles / CYCLES_PER_SECOND:.1f}ms "
                f"violated {self.slo_violations}x "
                f"({100 * self.slo_violation_rate:.2f}%)\n"
                f"  rebalances={self.rebalances} "
                f"moved_tenants={self.moved_tenants} "
                f"migrations={self.migrations} "
                f"policy_reloads={self.policy_reload_events} "
                f"warmup={self.warmup_seconds:.2f}s "
                f"wall={self.wall_seconds:.2f}s")


@dataclass
class GatewayResult:
    stats: GatewayStats
    #: merged across shards (counts summed, percentiles recomputed from
    #: the exact per-op samples, makespan = busiest shard)
    fleet: FleetStats
    tenants: Dict[str, TenantSummary]
    shard_results: Dict[int, FleetResult]
    #: merged stats plane: every shard registry + the gateway recorder
    telemetry: TelemetrySnapshot
    #: tenant -> (old_shard, new_shard) across all rebalances
    moves: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def quarantined_tenants(self) -> List[str]:
        return sorted(t for t, s in self.tenants.items() if s.quarantined)

    def attacked_tenants(self) -> List[str]:
        return sorted(t for t, s in self.tenants.items() if s.attacked)

    def safety_failures(self) -> List[str]:
        """Violated invariants (empty means the run is certified):

        * conservation — every offered op is exactly one of admitted /
          quota-rejected / queue-shed, and every admitted op was
          dispatched exactly once (rebalances lose and duplicate
          nothing);
        * zero exploit escapes — no seeded CVE op completed undetected;
        * no benign quarantine — only attacked tenants are quarantined.
        """
        failures: List[str] = []
        s = self.stats
        if s.offered != s.admitted + s.quota_rejected + s.queue_shed:
            failures.append(
                f"admission books don't balance: offered={s.offered} != "
                f"admitted={s.admitted} + quota={s.quota_rejected} "
                f"+ shed={s.queue_shed}")
        if s.dispatched_ops != s.admitted:
            failures.append(
                f"dispatch conservation broken: admitted={s.admitted} "
                f"but dispatched={s.dispatched_ops}")
        if self.fleet.requests != s.dispatched_ops:
            failures.append(
                f"fleet saw {self.fleet.requests} requests, gateway "
                f"dispatched {s.dispatched_ops}")
        if self.fleet.duplicate_results:
            failures.append(f"{self.fleet.duplicate_results} duplicate "
                            f"results across shards")
        escapes = sum(t.exploit_escapes for t in self.tenants.values())
        if escapes:
            failures.append(f"{escapes} exploit op(s) escaped detection")
        benign_quarantined = [t for t, v in self.tenants.items()
                              if v.quarantined and not v.attacked]
        if benign_quarantined:
            failures.append("benign tenant(s) quarantined: "
                            + ", ".join(sorted(benign_quarantined)))
        return failures


def merge_tenant_summaries(shard_results: Sequence[FleetResult]
                           ) -> Dict[str, TenantSummary]:
    """Fold per-shard tenant summaries (a moved tenant appears on both
    sides of a rebalance) into one fleet-wide view."""
    merged: Dict[str, TenantSummary] = {}
    for result in shard_results:
        for tenant, summary in result.tenants.items():
            into = merged.get(tenant)
            if into is None:
                merged[tenant] = replace(summary)
                continue
            into.attacked = into.attacked or summary.attacked
            into.submitted += summary.submitted
            into.completed += summary.completed
            into.rejected += summary.rejected
            into.faults += summary.faults
            into.detections += summary.detections
            into.trace_gaps += summary.trace_gaps
            into.infra_failures += summary.infra_failures
            into.shed += summary.shed
            into.exploit_escapes += summary.exploit_escapes
            into.exploit_refusals += summary.exploit_refusals
            if summary.quarantined:
                into.quarantined = True
                into.quarantine_reason = summary.quarantine_reason
            if summary.policy_id:
                into.policy_id = summary.policy_id
            into.fenced = into.fenced or summary.fenced
    return merged


def merge_fleet_stats(shard_stats: Sequence[FleetStats],
                      request_cycles: Sequence[float],
                      queue_waits: Sequence[float]) -> FleetStats:
    """Cross-shard :class:`FleetStats`: counts summed, makespan = the
    busiest shard (shards are parallel), percentiles recomputed from the
    exact per-op samples the gateway collected at dispatch time."""
    merged = FleetStats()
    for s in shard_stats:
        merged.workers += s.workers
        merged.requests += s.requests
        merged.completed += s.completed
        merged.rejected += s.rejected
        merged.faults += s.faults
        merged.lost += s.lost
        merged.detections += s.detections
        merged.quarantined_instances += s.quarantined_instances
        merged.worker_respawns += s.worker_respawns
        merged.instance_respawns += s.instance_respawns
        merged.duplicate_results += s.duplicate_results
        merged.trace_gaps += s.trace_gaps
        merged.infra_failures += s.infra_failures
        merged.shed += s.shed
        merged.circuit_opens += s.circuit_opens
        merged.watchdog_kills += s.watchdog_kills
        merged.spec_reloads += s.spec_reloads
        merged.policy_reloads += s.policy_reloads
        merged.policy_throttles += s.policy_throttles
        merged.policy_restores += s.policy_restores
        merged.policy_fences += s.policy_fences
        merged.fenced_tenants += s.fenced_tenants
        merged.migrations += s.migrations
        merged.retrain_candidates += s.retrain_candidates
        merged.io_rounds += s.io_rounds
        merged.total_cycles += s.total_cycles
        merged.makespan_cycles = max(merged.makespan_cycles,
                                     s.makespan_cycles)
        merged.wall_seconds = max(merged.wall_seconds, s.wall_seconds)
    merged.latency_samples = len(request_cycles)
    merged.p50_request_cycles = percentile(request_cycles, 0.50)
    merged.p95_request_cycles = percentile(request_cycles, 0.95)
    merged.p99_request_cycles = percentile(request_cycles, 0.99)
    merged.queue_wait_samples = len(queue_waits)
    merged.p50_queue_wait_s = percentile(queue_waits, 0.50)
    merged.p95_queue_wait_s = percentile(queue_waits, 0.95)
    merged.p99_queue_wait_s = percentile(queue_waits, 0.99)
    return merged


class _Lane:
    """One worker lane's simulated occupancy + ready tenants."""

    __slots__ = ("free_at", "ready")

    def __init__(self) -> None:
        self.free_at = 0
        self.ready: Deque[str] = deque()


class _Shard:
    """One supervisor shard: session, lanes, private telemetry."""

    def __init__(self, shard_id: int, supervisor: FleetSupervisor,
                 registry: TelemetryRegistry):
        self.shard_id = shard_id
        self.supervisor = supervisor
        self.telemetry = registry
        self.session = supervisor.session()
        self.lanes = [_Lane()
                      for _ in range(supervisor.config.workers)]
        self.routable = True


class Gateway:
    """Admission gateway over a sharded fleet; see the module docstring
    for the event-loop contract."""

    def __init__(self, config: Optional[GatewayConfig] = None,
                 registry: Optional[SpecRegistry] = None):
        self.config = config or GatewayConfig()
        if self.config.shards < 1:
            raise GatewayError("gateway needs at least one shard")
        if self.config.coalesce_max < 1:
            raise GatewayError("coalesce_max must be >= 1")
        self.registry = registry or SpecRegistry(
            cache_dir=self.config.cache_dir)
        self._reloads: List[Tuple[str, str, int, Optional[str]]] = []
        self._policy_reloads: List[PolicySet] = []
        self.telemetry = TelemetryRegistry()
        self._recorder = self.telemetry.recorder("gateway")

    def reload_spec(self, device: str, digest: str, at_seq: int = 0,
                    qemu_version: Optional[str] = None) -> None:
        """Schedule a hot reload on every shard, current and future
        (a shard added by a rebalance inherits the reload schedule)."""
        self.registry.spec_by_digest(digest)    # unknown digest: raise
        self._reloads.append((device, digest, at_seq, qemu_version))

    def _validate_policies(self, policies) -> PolicySet:
        """Validate a policy document eagerly (before any shard sees
        it); a malformed one raises PolicyError here, leaving every
        shard undisturbed."""
        if not isinstance(policies, PolicySet):
            policies = PolicySet.from_obj(policies)
        return policies

    def _new_shard(self, shard_id: int) -> _Shard:
        config = self.config
        telemetry = TelemetryRegistry()
        recorder = telemetry.recorder(f"shard{shard_id}")
        fleet_config = FleetConfig(
            workers=config.workers_per_shard, inline=config.inline,
            mode=config.mode, backend=config.backend,
            batch_rounds=config.batch_rounds,
            cache_dir=config.cache_dir,
            fault_plan=config.fault_plan,
            policies=config.policies)
        supervisor = FleetSupervisor(fleet_config,
                                     registry=self.registry,
                                     recorder=recorder)
        for device, digest, at_seq, qemu_version in self._reloads:
            supervisor.reload_spec(device, digest, at_seq, qemu_version)
        # A shard added mid-run inherits every policy reload already
        # fired, so its tenants run under the current generation.
        for policies in self._policy_reloads:
            supervisor.reload_policy(policies, at_seq=0)
        return _Shard(shard_id, supervisor, telemetry)

    def run(self, plans: Sequence[TenantPlan],
            streams: Optional[Sequence[TenantStream]] = None,
            rebalances: Sequence[RebalanceAction] = (),
            policy_reloads: Sequence[PolicyReloadAction] = ()
            ) -> GatewayResult:
        config = self.config
        wall_start = time.perf_counter()
        # Validate every scheduled policy document before the first
        # shard spins up: malformed input fails here, fleet untouched.
        validated_reloads = [
            (action.at_cycle, self._validate_policies(action.policies))
            for action in policy_reloads]
        if streams is None:
            streams = build_streams(plans, config.arrival, config.seed)
        plan_by_tenant = {p.tenant: p for p in plans}

        # Warmup: train/load every spec up front and report it apart
        # from serving time, so scaling rows compare like with like.
        self.registry.prime(sorted({(p.device, p.qemu_version)
                                    for p in plans}))
        warmup = time.perf_counter() - wall_start

        ring = HashRing(range(config.shards), config.vnodes)
        shards: Dict[int, _Shard] = {s: self._new_shard(s)
                                     for s in ring.shards}
        admission = AdmissionController(config.admission)
        pattern = config.arrival.pattern
        labels = {"pattern": pattern}
        admitted_ctr = self._recorder.counter("gateway.admitted",
                                              **labels)
        quota_ctr = self._recorder.counter("gateway.quota_rejected",
                                           **labels)
        shed_ctr = self._recorder.counter("gateway.queue_shed", **labels)
        dispatch_ctr = self._recorder.counter("gateway.dispatches",
                                              **labels)
        slo_ctr = self._recorder.counter("gateway.slo_violations",
                                         **labels)
        moves_ctr = self._recorder.counter("gateway.tenant_moves",
                                           **labels)
        migrations_ctr = self._recorder.counter("gateway.migrations",
                                                **labels)
        policy_reload_ctr = self._recorder.counter(
            "gateway.policy_reloads", **labels)
        latency_hist = self._recorder.histogram(
            "gateway.latency_cycles", DEFAULT_CYCLE_BUCKETS, **labels)

        pending: Dict[str, Deque[Tuple[int, object]]] = {}
        queued: Set[str] = set()
        busy: Set[str] = set()
        heap: List[tuple] = []
        tick = 0                    # heap insertion tie-break

        def push(cycle: int, order: int, event: tuple) -> None:
            nonlocal tick
            heapq.heappush(heap, (cycle, order, tick, event))
            tick += 1

        for action in rebalances:
            push(action.at_cycle, _EV_REBALANCE, ("rebalance", action))
        for at_cycle, policies in validated_reloads:
            # Same tie-break slot as rebalances: a dispatch at cycle t
            # must already see the new policy generation.
            push(at_cycle, _EV_REBALANCE, ("policy", policies))
        for stream in streams:
            tenant = stream.plan.tenant
            for cycle, op in stream.arrivals:
                push(cycle, _EV_ARRIVAL, ("arrival", tenant, op))

        slo_cycles = int(config.slo_ms * 1e-3 * CYCLES_PER_SECOND)
        latencies: List[float] = []
        request_cycles: List[float] = []
        slo_violations = 0
        dispatches = 0
        dispatched_ops = 0
        rebalance_count = 0
        migration_count = 0
        policy_reload_count = 0
        moves: Dict[str, Tuple[int, int]] = {}
        seq = 0

        def enqueue(tenant: str, cycle: int) -> None:
            """Queue *tenant* on its current shard/lane; kick the lane
            if it is idle."""
            shard = shards[ring.lookup(tenant)]
            lane_idx = shard.session.worker_for(tenant)
            lane = shard.lanes[lane_idx]
            lane.ready.append(tenant)
            queued.add(tenant)
            if lane.free_at <= cycle:
                push(cycle, _EV_LANE,
                     ("lane", shard.shard_id, lane_idx, None))

        def dispatch(shard: _Shard, lane_idx: int, cycle: int) -> None:
            """Serve the lane's next ready tenant, if any."""
            nonlocal seq, dispatches, dispatched_ops, slo_violations
            lane = shard.lanes[lane_idx]
            if lane.free_at > cycle:
                return              # stale wake-up: lane still occupied
            while lane.ready:
                tenant = lane.ready.popleft()
                # Skip entries invalidated by a rebalance (re-routed
                # eagerly) or already drained.
                if (tenant not in queued or not pending.get(tenant)
                        or not shard.routable
                        or ring.lookup(tenant) != shard.shard_id):
                    continue
                queued.discard(tenant)
                queue = pending[tenant]
                take = min(config.coalesce_max, len(queue))
                items = [queue.popleft() for _ in range(take)]
                plan = plan_by_tenant[tenant]
                batch = RequestBatch(
                    tenant, plan.device, plan.qemu_version, seq,
                    tuple(op for _, op in items))
                seq += 1
                result = shard.session.submit(batch)
                dispatches += 1
                dispatch_ctr.inc()
                dispatched_ops += take
                cost = config.dispatch_overhead_cycles
                if result is not None:
                    cost += result.cycles
                    request_cycles.extend(result.op_cycles)
                done_at = cycle + cost
                lane.free_at = done_at
                busy.add(tenant)
                for arrived_at, _ in items:
                    latency = done_at - arrived_at
                    latencies.append(latency)
                    latency_hist.observe(latency)
                    if latency > slo_cycles:
                        slo_violations += 1
                        slo_ctr.inc()
                push(done_at, _EV_LANE,
                     ("lane", shard.shard_id, lane_idx, tenant))
                return
        # All shards ever created, including retired ones whose
        # completion events may still be in flight.
        all_shards: Dict[int, _Shard] = dict(shards)

        while heap:
            cycle, _, _, event = heapq.heappop(heap)
            kind = event[0]
            if kind == "arrival":
                _, tenant, op = event
                depth = len(pending.get(tenant, ()))
                verdict = admission.try_admit(tenant, cycle, depth)
                if verdict != ADMIT_OK:
                    (quota_ctr if verdict == ADMIT_QUOTA
                     else shed_ctr).inc()
                    continue
                admitted_ctr.inc()
                pending.setdefault(tenant, deque()).append((cycle, op))
                if tenant not in busy and tenant not in queued:
                    enqueue(tenant, cycle)
            elif kind == "lane":
                _, shard_id, lane_idx, served = event
                shard = all_shards[shard_id]
                if served is not None:
                    busy.discard(served)
                    if pending.get(served):
                        # Route by the *current* ring: a tenant moved
                        # mid-flight continues on its new shard.
                        enqueue(served, cycle)
                dispatch(shard, lane_idx, cycle)
            elif kind == "rebalance":
                _, action = event
                old_ring = ring
                ring = ring.with_shards(action.add, action.remove)
                rebalance_count += 1
                for shard_id in ring.shards:
                    if shard_id not in all_shards:
                        shard = self._new_shard(shard_id)
                        all_shards[shard_id] = shard
                        shards[shard_id] = shard
                for shard_id in action.remove:
                    removed = shards.pop(shard_id, None)
                    if removed is not None:
                        removed.routable = False
                moved = moved_tenants(old_ring, ring, plan_by_tenant)
                for tenant, (src, dst) in moved.items():
                    moves[tenant] = (moves.get(tenant, (src,))[0], dst)
                    moves_ctr.inc()
                    # Live migration: the tenant's guarded-instance
                    # state (device, shadow checker, quarantine,
                    # circuit-breaker strikes, policy generation)
                    # travels to the new owner as a sealed checkpoint
                    # instead of being rebuilt from scratch.  Sessions
                    # are synchronous, so the source lane is drained at
                    # this instant; a tenant never served yet simply
                    # has no envelope to move.  The source lane lets go
                    # of the tenant only once the destination holds it.
                    src_session = all_shards[src].session
                    envelope = src_session.checkpoint_tenant(tenant)
                    if envelope is not None:
                        dst_shard = all_shards[dst]
                        dst_shard.session.install_checkpoint(envelope)
                        src_session.release_tenant(tenant)
                        migration_count += 1
                        migrations_ctr.inc()
                    if tenant in queued:
                        # Eager re-route of queued (not in-flight) work:
                        # drop the stale ready entry, queue on the new
                        # owner.  Pending ops travel untouched.
                        src_shard = all_shards[src]
                        lane = src_shard.lanes[
                            src_shard.session.worker_for(tenant)]
                        try:
                            lane.ready.remove(tenant)
                        except ValueError:
                            pass
                        queued.discard(tenant)
                        enqueue(tenant, cycle)
            elif kind == "policy":
                _, policies = event
                policy_reload_count += 1
                policy_reload_ctr.inc()
                self._policy_reloads.append(policies)
                for shard in shards.values():
                    # at_seq=0: batches are stamped at submit time, so
                    # only dispatches after this instant pick up the
                    # new generation — in-flight work is untouched.
                    shard.supervisor.reload_policy(policies, at_seq=0)
            else:
                raise GatewayError(f"unknown event kind {kind!r}")

        leftover = sum(len(q) for q in pending.values())
        if leftover:
            raise GatewayError(
                f"event loop drained with {leftover} admitted op(s) "
                f"still queued — lane wake-up logic lost a tenant")

        shard_results = {
            shard_id: shard.session.close(plans)
            for shard_id, shard in sorted(all_shards.items())}
        queue_waits: List[float] = []
        for shard in all_shards.values():
            queue_waits.extend(shard.supervisor._queue_waits)

        makespan = max((lane.free_at for shard in all_shards.values()
                        for lane in shard.lanes), default=0)
        stats = GatewayStats(
            pattern=pattern, tenants=len(plans),
            shards=config.shards, workers_per_shard=config.workers_per_shard,
            offered=admission.offered, admitted=admission.admitted,
            quota_rejected=admission.quota_rejected,
            queue_shed=admission.queue_shed,
            dispatches=dispatches, dispatched_ops=dispatched_ops,
            makespan_cycles=makespan,
            latency_samples=len(latencies),
            p50_latency_cycles=percentile(latencies, 0.50),
            p95_latency_cycles=percentile(latencies, 0.95),
            p99_latency_cycles=percentile(latencies, 0.99),
            slo_cycles=slo_cycles, slo_violations=slo_violations,
            rebalances=rebalance_count, moved_tenants=len(moves),
            migrations=migration_count,
            policy_reload_events=policy_reload_count,
            warmup_seconds=warmup,
            wall_seconds=time.perf_counter() - wall_start)
        merged_fleet = merge_fleet_stats(
            [r.stats for r in shard_results.values()],
            request_cycles, queue_waits)
        merged_telemetry = merge_snapshots(
            [self.telemetry.snapshot()]
            + [shard.telemetry.snapshot()
               for _, shard in sorted(all_shards.items())])
        return GatewayResult(
            stats=stats, fleet=merged_fleet,
            tenants=merge_tenant_summaries(list(shard_results.values())),
            shard_results=shard_results, telemetry=merged_telemetry,
            moves=moves)
