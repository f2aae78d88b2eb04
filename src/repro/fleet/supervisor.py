"""Fleet supervisor: worker pool, backpressure, fault tolerance, stats.

The supervisor owns the enforcement service's control plane:

* **placement** — tenants are pinned to workers (instances are stateful),
  assigned round-robin in order of first appearance;
* **backpressure** — at most ``queue_depth`` batches are outstanding per
  worker; dispatch is credit-based, so a slow worker never accumulates an
  unbounded queue;
* **fault tolerance** — a dead worker process is respawned (bounded by
  ``max_worker_respawns``) with a *fresh* inbox and result channel, and
  every batch it had not acknowledged is requeued (crash ops
  tombstoned), so nothing is silently dropped; once the respawn budget
  is spent the worker's remaining requests are counted ``lost`` rather
  than hidden;
* **quarantine bookkeeping** — SEDSpec detections recorded per tenant
  with their :class:`CheckReport`s while other tenants keep being served.

There is one execution path.  A run's lanes (in-process workers or
worker processes) live on the supervisor; ``run()`` serves a whole
schedule on them, and a :class:`FleetSession` is a run held open that
serves one submitted batch at a time through the same two drivers,
``_run_inline`` and ``_run_pool``.

Throughput and latency are reported on the substrate's **simulated
clock**: every request accrues deterministic cycles (vmexit + device +
checker), workers are parallel lanes, and the fleet makespan is the
busiest worker's cycle count — so scaling numbers are exact and
machine-independent, while wall-clock time is recorded alongside.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.checker import CheckReport, DEFAULT_BACKEND, Mode
from repro.errors import FleetError
from repro.policy.model import PolicySet
from repro.fleet.loadgen import FAULT_OP_KINDS, RequestBatch, TenantPlan
from repro.spec.lifecycle import RetrainQueue, RetrainRecord
from repro.fleet.registry import SpecRegistry
from repro.fleet.worker import (
    BatchResult, FleetWorker, batch_wants_crash, batch_wants_hang,
    instance_injector, requeue_batch, worker_main,
)
from repro.workloads.benchtools import CYCLES_PER_SECOND


@dataclass
class FleetConfig:
    workers: int = 2
    inline: bool = False            # in-process fallback (tests, 1-cpu)
    queue_depth: int = 4            # outstanding batches per worker
    mode: Mode = Mode.PROTECTION
    backend: str = DEFAULT_BACKEND
    #: credit-batch size per instance: strict-key rounds execute on
    #: credit and are vetted in one batched checker invocation per
    #: flush (0 preserves the per-round discipline bit-for-bit)
    batch_rounds: int = 0
    cache_dir: Optional[str] = None
    max_worker_respawns: int = 2
    train_seed: int = 7
    train_repeats: int = 2
    #: no result and no worker death for this long -> supervisor error
    stall_timeout: float = 120.0
    #: a dispatched batch outstanding longer than this gets its worker
    #: killed (hung process); 0 disables the watchdog
    watchdog_timeout: float = 30.0
    #: deterministic (jitter-free) exponential backoff on worker respawn:
    #: the n-th respawn of a worker waits min(cap, base * 2**(n-1))
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    #: armed fault plan shipped to every worker (chaos campaigns)
    fault_plan: Optional[object] = None
    #: declarative per-tenant resilience policies: degradation mode,
    #: retries, instance-respawn budget, circuit breaker and ladder
    policies: PolicySet = field(default_factory=PolicySet)


@dataclass(frozen=True)
class ScheduledReload:
    """One hot spec reload: from batch ``at_seq`` on, every batch of
    *device* (optionally narrowed to one qemu_version) runs under the
    generation named by *digest*."""

    device: str
    digest: str
    at_seq: int = 0
    qemu_version: Optional[str] = None


@dataclass(frozen=True)
class ScheduledPolicyReload:
    """One fleet-wide tenant-policy hot reload: from batch ``at_seq``
    on, every batch is stamped with the policy set named by *digest*."""

    digest: str
    at_seq: int = 0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class FleetStats:
    workers: int = 0
    requests: int = 0
    completed: int = 0
    rejected: int = 0
    faults: int = 0
    lost: int = 0
    detections: int = 0
    quarantined_instances: int = 0
    worker_respawns: int = 0
    instance_respawns: int = 0
    #: late results for a seq already counted (requeue race), dropped
    duplicate_results: int = 0
    #: ops refused fail-closed because the machinery lost their trace
    trace_gaps: int = 0
    #: ops whose round hit an infrastructure failure (includes fail-open
    #: degraded allows, so may exceed ``trace_gaps``)
    infra_failures: int = 0
    #: ops shed by an open per-tenant circuit breaker
    shed: int = 0
    #: circuit-breaker open transitions across the fleet
    circuit_opens: int = 0
    #: hung worker processes killed by the supervisor watchdog
    watchdog_kills: int = 0
    #: per-instance hot spec swaps performed (epoch-based reloads)
    spec_reloads: int = 0
    #: per-tenant policy hot swaps performed (epoch-based, like specs)
    policy_reloads: int = 0
    #: graduated-ladder responses fired across the fleet
    policy_throttles: int = 0
    policy_restores: int = 0
    policy_fences: int = 0
    #: tenants infrastructure-fenced by ladder rung 3 (never security)
    fenced_tenants: int = 0
    #: live tenant migrations (checkpoint/transfer/restore) completed
    migrations: int = 0
    #: rounds enqueued as candidate training traces (trace gaps,
    #: incomplete walks, near-miss control-flow anomalies)
    retrain_candidates: int = 0
    #: op_cycles samples feeding the latency percentiles; invariant:
    #: equals ``completed`` (each completed request is timed exactly once)
    latency_samples: int = 0
    io_rounds: int = 0
    total_cycles: int = 0
    makespan_cycles: int = 0
    p50_request_cycles: float = 0.0
    p95_request_cycles: float = 0.0
    p99_request_cycles: float = 0.0
    #: wall-clock queue wait (enqueue -> result) percentiles; requeued
    #: batches keep their original enqueue timestamp, so a respawn shows
    #: up as latency instead of silently resetting the clock
    queue_wait_samples: int = 0
    p50_queue_wait_s: float = 0.0
    p95_queue_wait_s: float = 0.0
    p99_queue_wait_s: float = 0.0
    wall_seconds: float = 0.0

    @property
    def makespan_seconds(self) -> float:
        """Simulated service time: the busiest worker lane's cycles."""
        return self.makespan_cycles / CYCLES_PER_SECOND

    @property
    def rounds_per_sec(self) -> float:
        """Aggregate I/O rounds per simulated second across the fleet."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.io_rounds / self.makespan_seconds

    @property
    def p50_request_ms(self) -> float:
        return 1e3 * self.p50_request_cycles / CYCLES_PER_SECOND

    @property
    def p95_request_ms(self) -> float:
        return 1e3 * self.p95_request_cycles / CYCLES_PER_SECOND

    @property
    def p99_request_ms(self) -> float:
        return 1e3 * self.p99_request_cycles / CYCLES_PER_SECOND

    def describe(self) -> str:
        return (f"fleet: {self.workers} workers, {self.requests} requests "
                f"({self.completed} completed, {self.rejected} rejected, "
                f"{self.faults} faults, {self.lost} lost)\n"
                f"  detections={self.detections} "
                f"quarantined={self.quarantined_instances} "
                f"respawns={self.worker_respawns}w/"
                f"{self.instance_respawns}i\n"
                f"  degradation: trace_gaps={self.trace_gaps} "
                f"infra_failures={self.infra_failures} shed={self.shed} "
                f"circuit_opens={self.circuit_opens} "
                f"watchdog_kills={self.watchdog_kills}\n"
                f"  lifecycle: spec_reloads={self.spec_reloads} "
                f"retrain_candidates={self.retrain_candidates}\n"
                f"  policy: reloads={self.policy_reloads} "
                f"throttles={self.policy_throttles} "
                f"restores={self.policy_restores} "
                f"fences={self.policy_fences} "
                f"migrations={self.migrations}\n"
                f"  throughput={self.rounds_per_sec:,.0f} rounds/s "
                f"(simulated) latency p50={self.p50_request_ms:.3f}ms "
                f"p95={self.p95_request_ms:.3f}ms "
                f"p99={self.p99_request_ms:.3f}ms "
                f"queue_wait p95={self.p95_queue_wait_s * 1e3:.1f}ms "
                f"wall={self.wall_seconds:.2f}s")


@dataclass
class TenantSummary:
    tenant: str
    device: str
    attacked: bool = False
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    faults: int = 0
    detections: int = 0
    trace_gaps: int = 0
    infra_failures: int = 0
    shed: int = 0
    #: exploit ops that ran to completion undetected (chaos invariant I1)
    exploit_escapes: int = 0
    #: exploit ops refused by degradation or load shedding
    exploit_refusals: int = 0
    quarantined: bool = False
    quarantine_reason: str = ""
    #: resolved tenant-policy id this tenant last ran under
    policy_id: str = ""
    #: infrastructure-fenced by ladder rung 3 (distinct from quarantine)
    fenced: bool = False


@dataclass
class FleetResult:
    stats: FleetStats
    tenants: Dict[str, TenantSummary]
    #: every recorded CheckReport, tagged with its tenant
    reports: List[Tuple[str, CheckReport]] = field(default_factory=list)
    worker_busy_cycles: Dict[int, int] = field(default_factory=dict)
    #: candidate training traces the run produced (also enqueued on the
    #: supervisor's persistent retrain queue)
    retrain: List[RetrainRecord] = field(default_factory=list)

    def quarantined_tenants(self) -> List[str]:
        return sorted(t for t, s in self.tenants.items() if s.quarantined)

    def attacked_tenants(self) -> List[str]:
        return sorted(t for t, s in self.tenants.items() if s.attacked)


class _WorkerHandle:
    """Supervisor-side view of one worker lane: an in-process
    :class:`FleetWorker` (inline) or a worker process (pool)."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        #: the in-process worker of an inline lane
        self.worker: Optional[FleetWorker] = None
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.inbox = None
        #: receiving end of this worker's own result pipe; ``None`` once
        #: end-of-file shows everything the process sent has been read
        self.outbox = None
        self.outstanding: Dict[int, RequestBatch] = {}
        self.dispatched_at: Dict[int, float] = {}   # seq -> monotonic ts
        self.respawns = 0
        self.dead = False           # respawn budget exhausted
        #: backoff deadline: respawn is due but not started (jitter-free
        #: exponential delay); no dispatch happens while this is set
        self.respawn_at: Optional[float] = None


def _receive(handle: _WorkerHandle):
    """The next message on *handle*'s ready result channel, or ``None``
    at end-of-file: the worker exited and everything it sent has been
    read (a message cut short by its death is dropped; its batch is
    still outstanding and gets requeued), so the channel is closed."""
    try:
        return handle.outbox.recv()
    except (EOFError, OSError):
        handle.outbox.close()
        handle.outbox = None
        return None


def _poll(handle: _WorkerHandle, timeout: float):
    """The next message on *handle*'s result channel within *timeout*
    seconds, or ``None``."""
    if handle.outbox is None:
        time.sleep(timeout)
        return None
    if not handle.outbox.poll(timeout):
        return None
    return _receive(handle)


class FleetSupervisor:
    def __init__(self, config: Optional[FleetConfig] = None,
                 registry: Optional[SpecRegistry] = None,
                 recorder=None):
        self.config = config or FleetConfig()
        if self.config.workers < 1:
            raise FleetError("a fleet needs at least one worker")
        self.registry = registry or SpecRegistry(
            cache_dir=self.config.cache_dir,
            seed=self.config.train_seed,
            repeats=self.config.train_repeats)
        # The drivers' counters; ``_begin`` resets them, with the rest
        # of the per-run state, at the start of every run.
        self._duplicates = 0
        self._watchdog_kills = 0
        #: seq -> monotonic ts of *first* dispatch; a requeued batch keeps
        #: its original entry, so respawn delay shows up as queue latency
        self._enqueue_ts: Dict[int, float] = {}
        self._queue_waits: List[float] = []
        #: swappable monotonic clock (tests substitute a fake)
        self._clock = time.monotonic
        self._recorder = recorder
        self._telemetry = None
        if recorder is not None:
            from repro.telemetry.instruments import FleetTelemetry
            self._telemetry = FleetTelemetry(recorder)
        self._reloads: List[ScheduledReload] = []
        self._policy_reloads: List[ScheduledPolicyReload] = []
        queue_path = None
        if self.config.cache_dir is not None:
            os.makedirs(self.config.cache_dir, exist_ok=True)
            queue_path = os.path.join(self.config.cache_dir,
                                      "retrain-queue.jsonl")
        #: anomaly-driven retraining queue; persistent when the fleet
        #: has a cache_dir, so the loop survives supervisor restarts
        self.retrain_queue = RetrainQueue(path=queue_path)

    # -- public entry -------------------------------------------------------

    def reload_spec(self, device: str, digest: str, at_seq: int = 0,
                    qemu_version: Optional[str] = None) -> None:
        """Schedule a fleet-wide hot reload for the next ``run``.

        From batch ``at_seq`` on, every batch of *device* is stamped
        with the generation named by *digest* (which must already be
        published in the registry — validated here, eagerly).  The swap
        itself happens worker-side, per instance, between batches:
        in-flight rounds always finish under the spec they started
        under.  Stamping the schedule up front — rather than racing a
        control message against dispatch — is what keeps the inline and
        pool paths byte-identical under a shared fault plan.
        """
        self.registry.spec_by_digest(digest)    # unknown digest: raise
        self._reloads.append(ScheduledReload(device, digest, at_seq,
                                             qemu_version))

    def reload_policy(self, policies, at_seq: int = 0) -> str:
        """Schedule a fleet-wide tenant-policy hot reload.

        *policies* is a :class:`PolicySet` or a raw policy-set document
        (dict), which is validated **here, eagerly** — a malformed
        document raises :class:`~repro.errors.PolicyError` before
        anything is scheduled, so it never disturbs the running fleet.
        From batch ``at_seq`` on, every batch is stamped with the new
        generation; the swap happens worker-side per tenant, between
        batches, exactly like spec reloads — in-flight batches finish
        under the old policy and the inline/pool paths stay
        byte-identical.  Returns the content digest of the document.
        """
        if not isinstance(policies, PolicySet):
            policies = PolicySet.from_obj(policies)
        digest = self.registry.policies.put(policies)
        self._policy_reloads.append(ScheduledPolicyReload(digest, at_seq))
        return digest

    def _stamp_one(self, batch: RequestBatch) -> RequestBatch:
        """Stamp one batch with the spec and policy epochs it runs
        under."""
        epoch, digest = 0, ""
        for reload_ in self._reloads:
            if (batch.device == reload_.device
                    and (reload_.qemu_version is None
                         or reload_.qemu_version == batch.qemu_version)
                    and batch.seq >= reload_.at_seq):
                epoch += 1
                digest = reload_.digest
        if epoch:
            batch = replace(batch, spec_epoch=epoch, spec_digest=digest)
        pepoch, pdigest = 0, ""
        for preload in self._policy_reloads:
            if batch.seq >= preload.at_seq:
                pepoch += 1
                pdigest = preload.digest
        if pepoch:
            batch = replace(batch, policy_epoch=pepoch,
                            policy_digest=pdigest)
        return batch

    def session(self) -> "FleetSession":
        """Open a streaming session: a ``run()`` held open, fed one
        batch at a time (the gateway's dispatch loop) instead of a
        prebuilt schedule, and served by the same lanes and drivers.  A
        supervisor serves one run at a time: opening a session, like
        calling ``run()``, starts a new one."""
        return FleetSession(self)

    def run(self, schedule: Sequence[RequestBatch],
            plans: Sequence[TenantPlan] = ()) -> FleetResult:
        """Serve the whole schedule; returns aggregated fleet results.
        Every worker starts up front and all lanes are in flight at
        once, ``queue_depth`` batches each."""
        self._begin()
        self._prime(sorted({(b.device, b.qemu_version) for b in schedule}))
        pending: Dict[int, Deque[RequestBatch]] = {
            w: deque() for w in range(self.config.workers)}
        try:
            for worker_id in pending:
                self._lane(worker_id)
            for batch in schedule:
                worker_id, batch = self._admit(batch)
                pending[worker_id].append(batch)
            self._serve(pending)
        except BaseException:
            self._shutdown()
            raise
        return self._close(plans)

    # -- per-run state --------------------------------------------------------

    def _begin(self) -> None:
        """Start a run: reset the per-run state — lanes, tenant pins,
        submitted batches, results, counted seqs and counters."""
        if not self.config.inline and self.registry.cache_dir is None:
            raise FleetError(
                "worker processes share specs via the disk cache; "
                "set FleetConfig.cache_dir (or use inline=True)")
        self._start = time.perf_counter()
        self._ctx = None if self.config.inline else self._context()
        self._lanes: Dict[int, _WorkerHandle] = {}
        self._tenant_worker: Dict[str, int] = {}
        self._submitted: List[RequestBatch] = []
        self._results: List[BatchResult] = []
        #: every batch seq already counted (first result wins)
        self._done: set = set()
        self._lost = 0
        self._duplicates = 0
        self._watchdog_kills = 0
        self._migrations = 0
        self._enqueue_ts = {}
        self._queue_waits = []

    def _prime(self, pairs: Sequence[Tuple[str, str]]) -> None:
        """Train or load the specs of *pairs* and, on the bytecode
        backend, lower them here, before the workers that serve them
        start: every lane is handed this registry, so a forked worker
        inherits the lowered frames, and a worker started any other way
        unpickles the specs without them and lowers on first use."""
        specs = self.registry.prime(pairs)
        if self.config.backend == "bytecode":
            from repro.checker.bytecode import bytecode_spec_for
            for spec in specs:
                bytecode_spec_for(spec)

    def _pin(self, tenant: str) -> int:
        """The lane *tenant* is pinned to: round-robin in order of first
        appearance (instances are stateful)."""
        return self._tenant_worker.setdefault(
            tenant, len(self._tenant_worker) % self.config.workers)

    def _admit(self, batch: RequestBatch) -> Tuple[int, RequestBatch]:
        """Stamp *batch* with the spec and policy epochs it runs under
        and record it as submitted; returns (its lane, the stamped
        batch)."""
        batch = self._stamp_one(batch)
        self._submitted.append(batch)
        return self._pin(batch.tenant), batch

    def _lane(self, worker_id: int) -> _WorkerHandle:
        """The lane *worker_id*, its worker started on first use."""
        handle = self._lanes.get(worker_id)
        if handle is None:
            handle = self._lanes[worker_id] = _WorkerHandle(worker_id)
            self._spawn(self._ctx, handle)
        return handle

    def _serve(self, pending: Dict[int, Deque[RequestBatch]]) -> None:
        """Drain *pending* (lane -> batches in submission order) on the
        run's lanes.  Batches left on a lane whose respawn budget is
        spent are counted lost."""
        if self.config.inline:
            self._run_inline(pending)
        else:
            self._run_pool(pending)
        for batches in pending.values():
            self._lost += sum(len(b.ops) for b in batches)
            batches.clear()

    def _close(self, plans: Sequence[TenantPlan]) -> FleetResult:
        """End the run: stop the workers and aggregate."""
        self._shutdown()
        return self._aggregate(plans, time.perf_counter() - self._start)

    # -- workers ---------------------------------------------------------------

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])

    def _slow_start(self, handle: _WorkerHandle) -> float:
        """The ``worker.slow_start`` arm: seconds the spawned process
        dawdles before serving (keyed on worker id + respawn count)."""
        plan = self.config.fault_plan
        if plan is None or not plan.has_site("worker.slow_start"):
            return 0.0
        from repro.faults.plan import FaultInjector
        injector = FaultInjector(plan.for_sites("worker.slow_start"))
        spec = injector.decide("worker.slow_start", handle.respawns,
                               str(handle.worker_id))
        return 0.05 * spec.arg if spec is not None else 0.0

    def _spawn(self, ctx, handle: _WorkerHandle) -> None:
        """Start (or restart) *handle*'s worker: a fresh in-process
        :class:`FleetWorker` for an inline lane, else a process with a
        fresh inbox and a fresh result pipe of its own.  A worker that
        dies mid-send can only ever damage its own channel, never its
        peers'."""
        config = self.config
        settings = dict(mode=config.mode, backend=config.backend,
                        batch_rounds=config.batch_rounds,
                        policies=config.policies)
        if config.inline:
            handle.worker = FleetWorker(
                handle.worker_id, self.registry,
                injector=instance_injector(config.fault_plan,
                                           recorder=self._recorder),
                **settings)
            return
        handle.inbox = ctx.Queue()
        handle.outbox, results = ctx.Pipe(duplex=False)
        handle.process = ctx.Process(
            target=worker_main,
            args=(handle.worker_id, self.registry, handle.inbox, results,
                  config.fault_plan, self._slow_start(handle)),
            kwargs=settings, daemon=True)
        handle.process.start()
        # Only the worker keeps the sending end, so its exit reads as
        # end-of-file once everything it sent has been received.
        results.close()

    def _shutdown(self) -> None:
        """Stop every lane's worker."""
        for handle in self._lanes.values():
            handle.worker = None
            if handle.process is None:
                continue
            if handle.process.is_alive():
                try:
                    handle.inbox.put(("stop",))
                except (OSError, ValueError):
                    pass
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
            if handle.outbox is not None:
                handle.outbox.close()
                handle.outbox = None

    # -- in-process driver ----------------------------------------------------

    def _run_inline(self, pending: Dict[int, Deque[RequestBatch]]
                    ) -> None:
        """Serve *pending* in process with the pool's semantics: a crash
        op costs the lane its worker (and so its instances) and a
        respawn, a hang op also counts a watchdog kill, and a lane whose
        respawn budget is spent stops serving."""
        for worker_id, batches in pending.items():
            handle = self._lanes[worker_id]
            while batches and not handle.dead:
                batch = batches[0]
                self._enqueue_ts.setdefault(batch.seq, self._clock())
                hang = batch_wants_hang(batch)
                if hang or batch_wants_crash(batch):
                    if handle.respawns >= self.config.max_worker_respawns:
                        handle.dead = True
                        handle.worker = None
                        break
                    handle.respawns += 1
                    if hang:
                        self._watchdog_kills += 1
                    self._spawn(None, handle)
                    batches[0] = requeue_batch(batch)
                    continue
                batches.popleft()
                self._results.append(handle.worker.run_batch(batch))
                start = self._enqueue_ts.pop(batch.seq, None)
                if start is not None:
                    self._queue_waits.append(self._clock() - start)

    # -- multiprocessing driver -----------------------------------------------

    def _run_pool(self, pending: Dict[int, Deque[RequestBatch]]) -> None:
        """Serve *pending* on the pool lanes until it is drained:
        credit-based dispatch, result collection, the hang watchdog,
        backoff revival, and reaping of dead workers."""
        handles = {w: self._lanes[w] for w in pending}
        last_progress = time.monotonic()
        while any(not h.dead and (pending[w] or h.outstanding)
                  for w, h in handles.items()):
            self._dispatch(handles, pending)
            if self._collect(handles, self._results, self._done,
                             timeout=0.05):
                last_progress = time.monotonic()
            self._watchdog(handles)
            if self._revive(self._ctx, handles):
                last_progress = time.monotonic()
            respawned, lost = self._reap(handles, pending, self._results,
                                         self._done)
            if respawned or lost:
                self._lost += lost
                last_progress = time.monotonic()
            if (time.monotonic() - last_progress
                    > self.config.stall_timeout):
                raise FleetError("fleet stalled: no results and no "
                                 "worker exits within stall_timeout")

    def _dispatch(self, handles: Dict[int, _WorkerHandle],
                  pending: Dict[int, Deque[RequestBatch]]) -> None:
        for worker_id, handle in handles.items():
            if handle.dead or handle.respawn_at is not None:
                continue
            while (pending[worker_id] and
                   len(handle.outstanding) < self.config.queue_depth):
                batch = pending[worker_id].popleft()
                handle.outstanding[batch.seq] = batch
                now = self._clock()
                handle.dispatched_at[batch.seq] = now
                self._enqueue_ts.setdefault(batch.seq, now)
                handle.inbox.put(("batch", batch))
                if self._telemetry is not None:
                    self._telemetry.record_dispatch(
                        worker_id, len(handle.outstanding))

    def _watchdog(self, handles: Dict[int, _WorkerHandle]) -> None:
        """Kill a live worker whose oldest dispatched batch has been
        outstanding past ``watchdog_timeout`` (hung, not dead — only a
        kill gets its lane moving again).  The next ``_reap`` pass then
        requeues and respawns as for any other death."""
        timeout = self.config.watchdog_timeout
        if not timeout:
            return
        now = self._clock()
        for handle in handles.values():
            if (handle.dead or handle.respawn_at is not None
                    or handle.process is None
                    or not handle.process.is_alive()):
                continue
            if any(now - t > timeout
                   for t in handle.dispatched_at.values()):
                handle.process.terminate()
                self._watchdog_kills += 1

    def _revive(self, ctx, handles: Dict[int, _WorkerHandle]) -> int:
        """Start respawns whose backoff deadline has passed."""
        revived = 0
        now = self._clock()
        for handle in handles.values():
            if handle.respawn_at is None or now < handle.respawn_at:
                continue
            handle.respawn_at = None
            self._spawn(ctx, handle)
            revived += 1
        return revived

    def _collect(self, handles: Dict[int, _WorkerHandle],
                 results: List[BatchResult], done: set,
                 timeout: float) -> bool:
        """Drain every worker's result channel, waiting up to *timeout*
        for the first message; returns True if anything arrived.

        *done* holds every batch seq already counted.  First result
        wins: a second result for a counted seq is dropped (and
        counted) so latency stats and completion counts see each
        request exactly once."""
        got = False
        while True:
            channels = {h.outbox: h for h in handles.values()
                        if h.outbox is not None}
            ready = wait(list(channels), 0 if got else timeout)
            if not ready:
                return got
            for channel in ready:
                handle = channels[channel]
                message = _receive(handle)
                if message is None:
                    continue
                got = True
                if message[0] != "result":
                    continue
                result = message[2]
                handle.outstanding.pop(result.seq, None)
                handle.dispatched_at.pop(result.seq, None)
                if result.seq in done:
                    self._duplicates += 1
                    continue
                done.add(result.seq)
                results.append(result)
                start = self._enqueue_ts.pop(result.seq, None)
                if start is not None:
                    self._queue_waits.append(self._clock() - start)

    def _reap(self, handles: Dict[int, _WorkerHandle],
              pending: Dict[int, Deque[RequestBatch]],
              results: List[BatchResult], done: set) -> Tuple[int, int]:
        """Respawn dead workers, requeue their unacknowledged batches.

        Only the batch the worker actually died on — the lowest-seq
        outstanding batch carrying a live crash/hang op — is tombstoned
        (and given an infra strike); later outstanding batches were never
        executed, so their own fault ops must stay live or the inline and
        pool paths would see different fault sequences.  Requeued batches
        keep their original ``_enqueue_ts`` entry: the respawn shows up
        in queue-wait latency instead of resetting it.
        """
        respawned = 0
        lost = 0
        for worker_id, handle in handles.items():
            if handle.dead or handle.respawn_at is not None \
                    or handle.process is None \
                    or handle.process.is_alive():
                continue
            if not handle.outstanding and not pending[worker_id]:
                continue
            # Results sent before death: the dead worker's channel
            # reads to its end-of-file without waiting.
            self._collect({worker_id: handle}, results, done,
                          timeout=0.05)
            requeue = [b for _, b in sorted(handle.outstanding.items())]
            for i, b in enumerate(requeue):
                if any(op.kind in FAULT_OP_KINDS and op.seed >= 0
                       for op in b.ops):
                    requeue[i] = requeue_batch(b)
                    break
            handle.outstanding.clear()
            handle.dispatched_at.clear()
            if handle.respawns >= self.config.max_worker_respawns:
                handle.dead = True
                lost += sum(len(b.ops) for b in requeue)
                lost += sum(len(b.ops) for b in pending[worker_id])
                pending[worker_id].clear()
                continue
            handle.respawns += 1
            respawned += 1
            pending[worker_id].extendleft(reversed(requeue))
            # A fresh inbox and result channel (anything buffered for
            # the dead process is covered by the requeue and must not
            # double-deliver) after a deterministic, jitter-free
            # exponential backoff.
            delay = min(self.config.backoff_cap,
                        self.config.backoff_base
                        * (2 ** (handle.respawns - 1)))
            handle.respawn_at = self._clock() + delay
        return respawned, lost

    # -- aggregation ---------------------------------------------------------

    def _aggregate(self, plans: Sequence[TenantPlan],
                   wall: float) -> FleetResult:
        schedule, results = self._submitted, self._results
        worker_respawns = sum(h.respawns for h in self._lanes.values())
        attacked = {p.tenant for p in plans if p.attacked}
        if not plans:
            attacked = {b.tenant for b in schedule
                        if any(op.kind == "exploit" for op in b.ops)}
        tenants: Dict[str, TenantSummary] = {}
        for batch in schedule:
            summary = tenants.setdefault(
                batch.tenant, TenantSummary(batch.tenant, batch.device,
                                            batch.tenant in attacked))
            summary.submitted += len(batch.ops)
        busy: Dict[int, int] = {}
        request_cycles: List[float] = []
        reports: List[Tuple[str, CheckReport]] = []
        retrain: List[RetrainRecord] = []
        stats = FleetStats(workers=self.config.workers,
                           requests=sum(len(b.ops) for b in schedule),
                           lost=self._lost,
                           worker_respawns=worker_respawns,
                           duplicate_results=self._duplicates,
                           watchdog_kills=self._watchdog_kills,
                           wall_seconds=wall)
        for result in results:
            summary = tenants[result.tenant]
            summary.completed += result.completed
            summary.rejected += result.rejected
            summary.faults += result.faults
            summary.detections += result.detections
            summary.trace_gaps += result.trace_gaps
            summary.infra_failures += result.infra_failures
            summary.shed += result.shed
            summary.exploit_escapes += result.exploit_escapes
            summary.exploit_refusals += result.exploit_refusals
            if result.quarantined:
                summary.quarantined = True
                summary.quarantine_reason = result.quarantine_reason
            if result.policy_id:
                summary.policy_id = result.policy_id
            if result.fenced:
                summary.fenced = True
            stats.completed += result.completed
            stats.rejected += result.rejected
            stats.faults += result.faults
            stats.detections += result.detections
            stats.instance_respawns += result.instance_respawns
            stats.trace_gaps += result.trace_gaps
            stats.infra_failures += result.infra_failures
            stats.shed += result.shed
            stats.circuit_opens += result.circuit_opens
            stats.spec_reloads += result.spec_reloads
            stats.policy_reloads += result.policy_reloads
            stats.policy_throttles += result.policy_throttles
            stats.policy_restores += result.policy_restores
            stats.policy_fences += result.policy_fences
            stats.io_rounds += result.io_rounds
            stats.total_cycles += result.cycles
            busy[result.worker_id] = (busy.get(result.worker_id, 0)
                                      + result.cycles)
            request_cycles.extend(result.op_cycles)
            reports.extend((result.tenant, r) for r in result.reports)
            retrain.extend(result.retrain)
        unaccounted = (stats.requests - stats.completed - stats.rejected
                       - stats.faults - stats.trace_gaps - stats.shed
                       - stats.lost)
        if unaccounted > 0:       # batches that never produced a result
            stats.lost += unaccounted
        stats.quarantined_instances = sum(
            1 for s in tenants.values() if s.quarantined)
        stats.fenced_tenants = sum(
            1 for s in tenants.values() if s.fenced)
        stats.migrations = self._migrations
        # Deterministic order regardless of result arrival (pool results
        # interleave); the count is *produced* records, not queue
        # admissions — the persistent queue dedups against its backlog,
        # which differs between otherwise-identical runs.
        retrain.sort(key=lambda r: (r.seq, r.tenant, r.io_key))
        stats.retrain_candidates = len(retrain)
        self.retrain_queue.extend(retrain)
        stats.makespan_cycles = max(busy.values(), default=0)
        stats.latency_samples = len(request_cycles)
        stats.p50_request_cycles = percentile(request_cycles, 0.50)
        stats.p95_request_cycles = percentile(request_cycles, 0.95)
        stats.p99_request_cycles = percentile(request_cycles, 0.99)
        stats.queue_wait_samples = len(self._queue_waits)
        stats.p50_queue_wait_s = percentile(self._queue_waits, 0.50)
        stats.p95_queue_wait_s = percentile(self._queue_waits, 0.95)
        stats.p99_queue_wait_s = percentile(self._queue_waits, 0.99)
        telemetry = self._telemetry
        if telemetry is not None:
            # Result-level recording happens here, once per counted
            # result, so the dedup in _collect also protects telemetry.
            for result in results:
                telemetry.record_result(result)
            for tenant, report in reports:
                telemetry.record_report(tenant, report)
            for summary in tenants.values():
                if summary.quarantined:
                    telemetry.record_quarantine(summary.tenant)
            if worker_respawns:
                telemetry.worker_respawns.inc(worker_respawns)
            if stats.watchdog_kills:
                telemetry.watchdog_kills.inc(stats.watchdog_kills)
            if stats.lost:
                telemetry.lost.inc(stats.lost)
            if stats.duplicate_results:
                telemetry.duplicates.inc(stats.duplicate_results)
            if stats.spec_reloads:
                telemetry.spec_reloads.inc(stats.spec_reloads)
            if stats.policy_reloads:
                telemetry.policy_reloads.inc(stats.policy_reloads)
            if stats.migrations:
                telemetry.migrations.inc(stats.migrations)
            for result in results:
                telemetry.record_policy(result)
            if stats.retrain_candidates:
                telemetry.retrain_enqueued.inc(stats.retrain_candidates)
        return FleetResult(stats=stats, tenants=tenants, reports=reports,
                           worker_busy_cycles=busy, retrain=retrain)


class FleetSession:
    """A :meth:`FleetSupervisor.run` held open.

    ``run()`` takes the whole schedule up front; a session accepts one
    batch at a time — the shape the admission gateway needs, where the
    next dispatch depends on simulated arrivals and coalescing decisions
    made *after* earlier results come back.  Each ``submit`` puts its
    batch on the tenant's pinned lane and serves it through ``run()``'s
    lanes and drivers, so placement (``worker_for`` exposes the pin so
    the gateway's lane model matches), reload stamping, crash/hang
    respawn with tombstoned requeue, backoff, watchdog, lost accounting
    and aggregation are ``run()``'s own.  Lanes start on first use.

    Submission is synchronous: ``submit`` returns the batch's
    :class:`BatchResult`, or ``None`` when the ops were lost to an
    exhausted respawn budget.
    """

    def __init__(self, supervisor: FleetSupervisor):
        self.supervisor = supervisor
        self.config = supervisor.config
        supervisor._begin()
        self._primed: set = set()
        self._closed = False

    def worker_for(self, tenant: str) -> int:
        """The worker lane *tenant* is pinned to (first-appearance
        round-robin, as in ``run()``); registers the pin."""
        return self.supervisor._pin(tenant)

    def submit(self, batch: RequestBatch) -> Optional[BatchResult]:
        if self._closed:
            raise FleetError("session is closed")
        supervisor = self.supervisor
        key = (batch.device, batch.qemu_version)
        if key not in self._primed:
            supervisor._prime([key])
            self._primed.add(key)
        worker_id, batch = supervisor._admit(batch)
        supervisor._lane(worker_id)
        results = supervisor._results
        served = len(results)
        supervisor._serve({worker_id: deque([batch])})
        return results[-1] if len(results) > served else None

    # -- live migration ------------------------------------------------------

    def checkpoint_tenant(self, tenant: str) -> Optional[dict]:
        """Capture *tenant*'s sealed checkpoint from its pinned worker.

        Submission is synchronous, so the tenant's lane is drained by
        construction — there is never an in-flight batch at the capture
        instant (the migration protocol's drain step).  Returns ``None``
        when the tenant has no live instance to capture (never served,
        or its worker's respawn budget is spent).
        """
        if self._closed:
            raise FleetError("session is closed")
        supervisor = self.supervisor
        handle = supervisor._lanes.get(
            supervisor._tenant_worker.get(tenant))
        if handle is None or handle.dead:
            return None
        if self.config.inline:
            return handle.worker.checkpoint_tenant(tenant)
        handle.inbox.put(("checkpoint", tenant))
        return self._await_reply("checkpoint", handle)

    def install_checkpoint(self, envelope: dict,
                           worker_id: Optional[int] = None) -> str:
        """Restore a checkpoint envelope onto a worker lane and pin the
        tenant there; counts one completed migration.  With no explicit
        *worker_id* the tenant keeps (or round-robin acquires) its pin —
        the cross-shard path, where the receiving session has never seen
        the tenant."""
        if self._closed:
            raise FleetError("session is closed")
        supervisor = self.supervisor
        tenant = envelope["tenant"]
        if worker_id is None:
            worker_id = supervisor._pin(tenant)
        else:
            if not 0 <= worker_id < self.config.workers:
                raise FleetError(
                    f"no such worker lane: {worker_id}")
            supervisor._tenant_worker[tenant] = worker_id
        handle = supervisor._lane(worker_id)
        if handle.dead:
            raise FleetError(
                f"cannot restore {tenant!r}: worker {worker_id} "
                f"has spent its respawn budget")
        if self.config.inline:
            handle.worker.restore_tenant(envelope)
        else:
            handle.inbox.put(("restore", envelope))
            self._await_reply("restored", handle)
        supervisor._migrations += 1
        return tenant

    def migrate_tenant(self, tenant: str,
                       target_worker: int) -> Optional[dict]:
        """Live-migrate *tenant* to *target_worker*: drain (implicit —
        submission is synchronous), checkpoint on the source lane,
        re-pin, restore on the target.  Returns the transferred sealed
        envelope, or ``None`` when the tenant had no live instance to
        move (in which case the pin is left untouched)."""
        envelope = self.checkpoint_tenant(tenant)
        if envelope is None:
            return None
        self.install_checkpoint(envelope, worker_id=target_worker)
        return envelope

    def _await_reply(self, kind: str, handle: _WorkerHandle):
        """Wait for a control-RPC reply on *handle*'s result channel.
        Stray ``result`` messages are dropped and counted as
        duplicates."""
        deadline = time.monotonic() + self.config.stall_timeout
        while True:
            message = _poll(handle, 0.05)
            if message is not None:
                if message[0] == kind:
                    return message[2]
                if message[0] == "result":
                    self.supervisor._duplicates += 1
                    continue
            if time.monotonic() > deadline:
                raise FleetError(
                    f"no {kind} reply from worker {handle.worker_id} "
                    f"within stall_timeout")

    # -- teardown -----------------------------------------------------------

    def close(self, plans: Sequence[TenantPlan] = ()) -> FleetResult:
        """Stop workers and aggregate, exactly as ``run()`` does."""
        if self._closed:
            raise FleetError("session already closed")
        self._closed = True
        return self.supervisor._close(plans)
