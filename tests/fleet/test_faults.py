"""Fleet robustness under injected faults: watchdog, deterministic
backoff, enqueue-timestamp preservation, the per-tenant circuit breaker,
and inline-vs-pool determinism under a shared FaultPlan."""

from collections import deque

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.fleet import (
    FleetConfig, FleetSupervisor, FleetWorker, OpRequest, RequestBatch,
    SpecRegistry, batch_wants_crash, batch_wants_hang, build_load,
    inject_schedule_faults, requeue_batch,
)
from repro.fleet.supervisor import _WorkerHandle


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    cache = tmp_path_factory.mktemp("spec-cache")
    return SpecRegistry(cache_dir=str(cache))


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class DeadProcess:
    def is_alive(self):
        return False


class HungProcess:
    def __init__(self):
        self.terminated = False

    def is_alive(self):
        return not self.terminated

    def terminate(self):
        self.terminated = True


def crash_batch(seq, tenant="t0"):
    return RequestBatch(tenant, "fdc", "99.0.0", seq,
                        (OpRequest("crash"), OpRequest("common", 1, 1)))


def benign_batch(seq, tenant="t0"):
    return RequestBatch(tenant, "fdc", "99.0.0", seq,
                        (OpRequest("common", 0, 0),))


class TestRequeue:
    def test_requeue_tombstones_and_records_the_strike(self):
        batch = crash_batch(3)
        requeued = requeue_batch(batch)
        assert not batch_wants_crash(requeued)
        assert requeued.infra_strikes == 1
        assert requeue_batch(requeued).infra_strikes == 2
        # The benign op rides along untouched.
        assert requeued.ops[1] == batch.ops[1]

    def test_hang_ops_are_tombstoned_too(self):
        batch = RequestBatch("t0", "fdc", "99.0.0", 0,
                             (OpRequest("hang"),))
        assert batch_wants_hang(batch)
        assert not batch_wants_hang(requeue_batch(batch))


class TestReapBackoff:
    """Regression for the dead-worker path: deterministic exponential
    backoff, original enqueue timestamps kept, and only the batch the
    worker died on tombstoned."""

    def make(self, registry, **kwargs):
        sup = FleetSupervisor(
            FleetConfig(workers=1, cache_dir=registry.cache_dir,
                        backoff_base=0.05, backoff_cap=1.0,
                        max_worker_respawns=2, **kwargs),
            registry)
        sup._clock = FakeClock()
        return sup

    def reap(self, sup, handle, pending):
        return sup._reap({0: handle}, pending, [], set())

    def test_death_schedules_a_backoff_not_an_instant_spawn(
            self, registry):
        sup = self.make(registry)
        handle = _WorkerHandle(0)
        handle.process = DeadProcess()
        first = crash_batch(3)
        later = crash_batch(5, tenant="t1")
        handle.outstanding = {3: first, 5: later}
        handle.dispatched_at = {3: 90.0, 5: 91.0}
        sup._enqueue_ts = {3: 90.0, 5: 91.0}
        pending = {0: deque([benign_batch(7)])}

        respawned, lost = self.reap(sup, handle, pending)

        assert (respawned, lost) == (1, 0)
        assert handle.respawns == 1
        # Jitter-free exponential backoff: base * 2**(respawns-1).
        assert handle.respawn_at == sup._clock.now + 0.05
        assert not handle.outstanding and not handle.dispatched_at
        # Requeued in seq order, ahead of the untouched pending batch.
        queued = list(pending[0])
        assert [b.seq for b in queued] == [3, 5, 7]
        # Only the batch the worker died on (lowest live-fault seq) is
        # tombstoned; the later one must keep its fault op live so the
        # inline path sees the identical fault sequence.
        assert not batch_wants_crash(queued[0])
        assert queued[0].infra_strikes == 1
        assert batch_wants_crash(queued[1])
        assert queued[1].infra_strikes == 0
        # Original enqueue timestamps survive the requeue: the respawn
        # delay shows up as queue latency instead of resetting it.
        assert sup._enqueue_ts == {3: 90.0, 5: 91.0}

    def test_backoff_doubles_and_dispatch_waits_for_revival(
            self, registry):
        sup = self.make(registry)
        handle = _WorkerHandle(0)
        handle.process = DeadProcess()
        handle.respawns = 1
        handle.outstanding = {1: benign_batch(1)}
        pending = {0: deque()}
        self.reap(sup, handle, pending)
        assert handle.respawn_at == sup._clock.now + 0.10

        # While the backoff is pending no batch may be dispatched into
        # the dead process's stale inbox.
        sup._dispatch({0: handle}, pending)
        assert not handle.outstanding

        # _revive starts the spawn exactly when the deadline passes.
        spawned = []
        sup._spawn = lambda ctx, h: spawned.append(h.worker_id)
        assert sup._revive(None, {0: handle}) == 0
        sup._clock.now += 0.10
        assert sup._revive(None, {0: handle}) == 1
        assert spawned == [0] and handle.respawn_at is None

    def test_budget_exhaustion_counts_everything_lost(self, registry):
        sup = self.make(registry)
        handle = _WorkerHandle(0)
        handle.process = DeadProcess()
        handle.respawns = 2            # budget (2) already spent
        handle.outstanding = {1: benign_batch(1)}
        pending = {0: deque([crash_batch(2)])}
        respawned, lost = self.reap(sup, handle, pending)
        assert (respawned, lost) == (0, 3)
        assert handle.dead and not pending[0]


class TestWatchdog:
    def test_watchdog_kills_a_worker_past_the_deadline(self, registry):
        sup = FleetSupervisor(
            FleetConfig(workers=1, cache_dir=registry.cache_dir,
                        watchdog_timeout=30.0), registry)
        sup._clock = FakeClock()
        handle = _WorkerHandle(0)
        handle.process = HungProcess()
        handle.dispatched_at = {1: sup._clock.now - 31.0}
        sup._watchdog({0: handle})
        assert handle.process.terminated
        assert sup._watchdog_kills == 1

    def test_watchdog_spares_fresh_work_and_respects_disable(
            self, registry):
        sup = FleetSupervisor(
            FleetConfig(workers=1, cache_dir=registry.cache_dir,
                        watchdog_timeout=30.0), registry)
        sup._clock = FakeClock()
        handle = _WorkerHandle(0)
        handle.process = HungProcess()
        handle.dispatched_at = {1: sup._clock.now - 5.0}
        sup._watchdog({0: handle})
        assert not handle.process.terminated
        sup.config = FleetConfig(workers=1, watchdog_timeout=0.0)
        handle.dispatched_at = {1: sup._clock.now - 9999.0}
        sup._watchdog({0: handle})
        assert not handle.process.terminated

    def test_pool_hang_is_killed_requeued_and_drained(self, registry):
        plan = FaultPlan(13, (
            FaultSpec("worker.hang", probability=1.0, max_fires=1),))
        plans, schedule = build_load(["fdc"], 2, 2, 2, seed=5)
        schedule = inject_schedule_faults(schedule, plan)
        assert sum(batch_wants_hang(b) for b in schedule) == 1
        sup = FleetSupervisor(
            FleetConfig(workers=2, inline=False,
                        cache_dir=registry.cache_dir,
                        watchdog_timeout=1.0, backoff_base=0.01,
                        fault_plan=plan), registry)
        result = sup.run(schedule, plans)
        assert result.stats.watchdog_kills >= 1
        assert result.stats.worker_respawns >= 1
        assert result.stats.lost == 0
        assert result.stats.completed == result.stats.requests


def always_step_injector(max_fires=None):
    return FaultInjector(FaultPlan(1, (
        FaultSpec("interp.step", probability=1.0, max_fires=max_fires),)))


class TestCircuitBreaker:
    def batch(self, ops=8):
        return RequestBatch("t0", "fdc", "99.0.0", 0,
                            tuple(OpRequest("common", i, i)
                                  for i in range(ops)))

    def test_consecutive_gaps_open_the_circuit_and_shed(self, registry):
        worker = FleetWorker(0, registry,
                             injector=always_step_injector(),
                             circuit_threshold=2, circuit_cooldown=2)
        result = worker.run_batch(self.batch())
        # ops 0,1 gap -> open; 2,3 shed; 4 probe gaps; 5,6 shed; 7 probe.
        assert result.circuit_opens == 1
        assert result.trace_gaps == 4
        assert result.shed == 4
        assert result.completed == 0
        assert not result.quarantined      # infra, never security

    def test_successful_probe_closes_the_circuit(self, registry):
        worker = FleetWorker(0, registry,
                             injector=always_step_injector(max_fires=2),
                             circuit_threshold=2, circuit_cooldown=2)
        result = worker.run_batch(self.batch())
        # ops 0,1 gap -> open; 2,3 shed; probe at 4 succeeds (fault
        # budget spent) -> circuit closes and the rest is served.
        assert result.trace_gaps == 2
        assert result.shed == 2
        assert result.completed == 4
        assert result.circuit_opens == 1

    def test_strikes_survive_a_worker_respawn_via_the_batch(
            self, registry):
        import dataclasses
        worker = FleetWorker(0, registry,
                             injector=always_step_injector(max_fires=0),
                             circuit_threshold=2, circuit_cooldown=1)
        carried = dataclasses.replace(self.batch(ops=3), infra_strikes=2)
        result = worker.run_batch(carried)
        # The fresh worker opens the circuit from the carried strikes
        # before running a single op.
        assert result.circuit_opens == 1
        assert result.shed == 1            # op 0 shed, op 1 is the probe
        assert result.completed == 2

    def test_zero_threshold_disables_the_breaker(self, registry):
        worker = FleetWorker(0, registry,
                             injector=always_step_injector(),
                             circuit_threshold=0)
        result = worker.run_batch(self.batch(ops=4))
        assert result.circuit_opens == 0
        assert result.shed == 0
        assert result.trace_gaps == 4


#: FleetStats fields that must be identical across execution modes
#: (wall-clock and queue-wait fields excluded by design).
DETERMINISTIC_STATS = (
    "requests", "completed", "rejected", "faults", "lost", "detections",
    "quarantined_instances", "worker_respawns", "instance_respawns",
    "trace_gaps", "infra_failures", "shed", "circuit_opens",
    "watchdog_kills", "latency_samples", "io_rounds", "total_cycles",
    "makespan_cycles",
)


class TestInlinePoolDifferential:
    def test_same_fault_plan_same_stats_in_both_modes(self, registry):
        plan = FaultPlan(23, (
            FaultSpec("ipt.corrupt", probability=0.02),
            FaultSpec("ipt.drop", probability=0.0005),
            FaultSpec("interp.step", probability=0.05),
            FaultSpec("worker.crash", probability=1.0, max_fires=1),
        ))
        plans, schedule = build_load(
            ["fdc", "pcnet"], 4, 3, 2,
            inject_cves=["CVE-2015-3456"], seed=17)
        schedule = inject_schedule_faults(schedule, plan)
        assert sum(batch_wants_crash(b) for b in schedule) == 1

        def run(inline):
            sup = FleetSupervisor(
                FleetConfig(workers=2, inline=inline,
                            cache_dir=registry.cache_dir,
                            backoff_base=0.01, fault_plan=plan),
                registry)
            return sup.run(schedule, plans)

        inline, pool = run(True), run(False)
        for name in DETERMINISTIC_STATS:
            assert getattr(inline.stats, name) == \
                getattr(pool.stats, name), name
        assert inline.stats.detections >= 1
        assert inline.stats.worker_respawns == 1
        assert inline.stats.trace_gaps > 0
        # Per-tenant accounting agrees field by field as well.
        assert set(inline.tenants) == set(pool.tenants)
        for tenant, summary in inline.tenants.items():
            assert summary == pool.tenants[tenant], tenant
