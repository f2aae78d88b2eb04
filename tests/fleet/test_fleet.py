"""Fleet service: load generation, supervisor semantics, fault
tolerance, quarantine isolation, and throughput scaling."""

import multiprocessing

import pytest

from repro.checker import Action
from repro.errors import WorkloadError
from repro.fleet import (
    BatchResult, FleetConfig, FleetSupervisor, OpRequest, RequestBatch,
    SpecRegistry, batch_wants_crash, build_load, make_schedule,
    percentile, plan_tenants, tombstone_crashes,
)
from repro.fleet.supervisor import _WorkerHandle


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    """One disk-backed registry for the whole module: fdc specs train
    once and every supervisor (and worker process) shares them."""
    cache = tmp_path_factory.mktemp("spec-cache")
    return SpecRegistry(cache_dir=str(cache))


def fdc_supervisor(registry, workers=2, inline=True, **kwargs):
    config = FleetConfig(workers=workers, inline=inline,
                         cache_dir=registry.cache_dir, **kwargs)
    return FleetSupervisor(config, registry)


class TestLoadGen:
    def test_plan_round_robins_devices(self):
        plans = plan_tenants(["fdc", "sdhci"], 4)
        assert [p.device for p in plans] == ["fdc", "sdhci",
                                             "fdc", "sdhci"]
        assert not any(p.attacked for p in plans)

    def test_injected_cve_sets_vulnerable_version(self):
        plans = plan_tenants(["fdc", "sdhci"], 4,
                             inject_cves=["CVE-2015-3456"])
        attacked = [p for p in plans if p.attacked]
        assert len(attacked) == 1
        assert attacked[0].device == "fdc"
        assert attacked[0].qemu_version == "2.3.0"

    def test_inject_fraction_attacks_that_many_tenants(self):
        plans = plan_tenants(["fdc", "sdhci", "scsi"], 6,
                             inject_fraction=0.5, seed=3)
        assert sum(p.attacked for p in plans) == 3

    def test_injection_needs_a_matching_device(self):
        with pytest.raises(WorkloadError):
            plan_tenants(["fdc"], 2, inject_cves=["CVE-2021-3409"])

    def test_schedule_interleaves_and_splices_exploit(self):
        plans = plan_tenants(["fdc"], 2, inject_cves=["CVE-2015-3456"])
        schedule = make_schedule(plans, batches_per_tenant=4,
                                 ops_per_batch=3)
        assert len(schedule) == 8
        assert [b.seq for b in schedule] == list(range(8))
        exploit_ops = [op for b in schedule for op in b.ops
                       if op.kind == "exploit"]
        assert len(exploit_ops) == 1
        assert exploit_ops[0].cve == "CVE-2015-3456"

    def test_tombstoning_neutralizes_crash_ops(self):
        batch = RequestBatch("t", "fdc", "99.0.0", 0,
                             (OpRequest("crash"), OpRequest("common")))
        assert batch_wants_crash(batch)
        dead = tombstone_crashes(batch)
        assert not batch_wants_crash(dead)
        assert dead.ops[1].kind == "common"

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile([], 0.95) == 0.0


class TestSupervisorInline:
    def test_benign_fleet_serves_everything(self, registry):
        plans, schedule = build_load(["fdc"], 2, 3, 3, seed=11)
        result = fdc_supervisor(registry).run(schedule, plans)
        stats = result.stats
        assert stats.requests == 18
        assert stats.completed == 18
        assert stats.rejected == stats.lost == stats.faults == 0
        assert stats.detections == stats.quarantined_instances == 0
        assert stats.io_rounds > 0
        assert stats.makespan_cycles > 0
        assert stats.p95_request_cycles >= stats.p50_request_cycles > 0

    def test_detection_quarantines_only_the_attacked_tenant(
            self, registry):
        plans, schedule = build_load(
            ["fdc"], 3, 4, 3, inject_cves=["CVE-2015-3456"], seed=11)
        result = fdc_supervisor(registry).run(schedule, plans)
        attacked = result.attacked_tenants()
        assert result.quarantined_tenants() == attacked
        assert result.stats.detections >= 1
        assert result.stats.lost == 0
        # The CheckReport of the halt is on record, tagged by tenant.
        tenants = {t for t, _ in result.reports}
        assert tenants == set(attacked)
        assert any(r.action is Action.HALT and r.anomalies
                   for _, r in result.reports)
        # Benign tenants were fully served despite the quarantine.
        for summary in result.tenants.values():
            if not summary.attacked:
                assert summary.completed == summary.submitted
                assert summary.rejected == 0
        # The attacked tenant's post-attack requests were rejected, not
        # lost.
        victim = result.tenants[attacked[0]]
        assert victim.rejected > 0
        assert (victim.completed + victim.rejected == victim.submitted)

    def test_worker_crash_respawns_and_loses_nothing(self, registry):
        plans, schedule = build_load(["fdc"], 2, 3, 2, seed=4)
        crash_at = next(i for i, b in enumerate(schedule) if b.seq == 2)
        batch = schedule[crash_at]
        schedule[crash_at] = RequestBatch(
            batch.tenant, batch.device, batch.qemu_version, batch.seq,
            (OpRequest("crash"),) + batch.ops[1:])
        result = fdc_supervisor(registry).run(schedule, plans)
        assert result.stats.worker_respawns == 1
        assert result.stats.lost == 0
        assert result.stats.completed == result.stats.requests
        assert result.quarantined_tenants() == []

    def test_respawn_budget_bounds_crash_retries(self, registry):
        plans, schedule = build_load(["fdc"], 1, 2, 2, seed=4)
        batch = schedule[0]
        schedule[0] = RequestBatch(
            batch.tenant, batch.device, batch.qemu_version, batch.seq,
            (OpRequest("crash"),) + batch.ops[1:])
        supervisor = fdc_supervisor(registry, max_worker_respawns=0)
        result = supervisor.run(schedule, plans)
        assert result.stats.worker_respawns == 0
        assert result.stats.lost == result.stats.requests
        assert result.stats.completed == 0

    def test_more_workers_shrink_the_simulated_makespan(self, registry):
        plans, schedule = build_load(["fdc"], 4, 2, 3, seed=9)
        one = fdc_supervisor(registry, workers=1).run(list(schedule),
                                                      plans)
        four = fdc_supervisor(registry, workers=4).run(list(schedule),
                                                       plans)
        assert one.stats.io_rounds == four.stats.io_rounds
        assert four.stats.makespan_cycles < one.stats.makespan_cycles
        assert four.stats.rounds_per_sec > one.stats.rounds_per_sec
        assert len(four.worker_busy_cycles) == 4


class TestResultDedup:
    """First result wins: once a batch seq is counted, a second result
    for it is dropped (and counted as a duplicate), so latency stats
    and completion counts see each request exactly once."""

    def _result(self, seq, worker_id, cycles=100):
        return BatchResult("t0", "fdc", seq, worker_id, submitted=3,
                           completed=3, cycles=cycles, io_rounds=9,
                           op_cycles=(cycles, cycles, cycles))

    def _channel(self, handle, *messages):
        """Give *handle* a result channel holding *messages*, then
        close the sending end the way a worker's exit does."""
        handle.outbox, sender = multiprocessing.Pipe(duplex=False)
        for message in messages:
            sender.send(message)
        sender.close()

    def test_late_duplicate_result_is_dropped_first_wins(self, registry):
        supervisor = fdc_supervisor(registry, inline=False)
        handle = _WorkerHandle(0)
        results, done = [], set()
        # The worker served seq 5 and died; its channel is read to
        # end-of-file before anything is requeued...
        self._channel(handle, ("result", 0, self._result(5, 0, 100)))
        supervisor._collect({0: handle}, results, done, timeout=0.01)
        assert handle.outbox is None
        # ...so a second result for seq 5 from the respawned process
        # is a duplicate.
        self._channel(handle, ("result", 0, self._result(5, 0, 999)))
        supervisor._collect({0: handle}, results, done, timeout=0.01)
        assert [r.cycles for r in results] == [100]  # first result wins
        assert done == {5}
        assert supervisor._duplicates == 1

    def test_duplicate_drop_still_clears_outstanding(self, registry):
        supervisor = fdc_supervisor(registry, inline=False)
        handle = _WorkerHandle(1)
        batch = RequestBatch("t0", "fdc", "99.0.0", 5,
                             (OpRequest("common"),))
        handle.outstanding[5] = batch
        self._channel(handle, ("result", 1, self._result(5, 1)))
        results, done = [], {5}   # seq already counted earlier
        supervisor._collect({1: handle}, results, done, timeout=0.01)
        # The duplicate is dropped from the stats but still acknowledges
        # the outstanding batch, or _reap would requeue it a third time.
        assert results == []
        assert handle.outstanding == {}
        assert supervisor._duplicates == 1

    def test_benign_run_counts_each_latency_sample_once(self, registry):
        plans, schedule = build_load(["fdc"], 2, 3, 3, seed=11)
        result = fdc_supervisor(registry).run(schedule, plans)
        stats = result.stats
        assert stats.duplicate_results == 0
        assert stats.latency_samples == stats.completed == 18

    def test_crash_requeue_latency_counted_once(self, registry):
        """After a worker crash and requeue, every completed request must
        feed the latency percentiles exactly once — not dropped with the
        dead worker, not double-counted by the respawn."""
        plans, schedule = build_load(["fdc"], 2, 3, 2, seed=4)
        crash_at = next(i for i, b in enumerate(schedule) if b.seq == 2)
        batch = schedule[crash_at]
        schedule[crash_at] = RequestBatch(
            batch.tenant, batch.device, batch.qemu_version, batch.seq,
            (OpRequest("crash"),) + batch.ops[1:])
        result = fdc_supervisor(registry).run(schedule, plans)
        stats = result.stats
        assert stats.worker_respawns == 1
        assert stats.latency_samples == stats.completed == stats.requests
        assert stats.duplicate_results == 0

    def test_dedup_also_protects_telemetry(self, registry):
        """Telemetry records results post-dedup in _aggregate, so the
        recorder's per-tenant counters and latency histograms must agree
        with the deduplicated FleetStats."""
        from repro.telemetry import Recorder

        recorder = Recorder("fleet")
        plans, schedule = build_load(["fdc"], 2, 3, 2, seed=4)
        config = FleetConfig(workers=2, inline=True,
                             cache_dir=registry.cache_dir)
        supervisor = FleetSupervisor(config, registry, recorder=recorder)
        result = supervisor.run(schedule, plans)
        snap = recorder.snapshot()
        by_outcome = snap.label_values("fleet.requests", "outcome")
        assert by_outcome.get("completed", 0) == result.stats.completed
        sampled = sum(h.count for (name, _), h in snap.histograms.items()
                      if name == "fleet.request_cycles")
        assert sampled == result.stats.latency_samples
        assert snap.counter("fleet.duplicate_results") == \
            result.stats.duplicate_results == 0


class TestSupervisorPool:
    """The real multiprocessing pool, kept small: spec loads come from
    the module registry's disk cache, so workers never retrain."""

    def _crash_last_batch(self):
        plans, schedule = build_load(["fdc"], 2, 2, 2, seed=4)
        batch = schedule[-1]
        schedule[-1] = RequestBatch(
            batch.tenant, batch.device, batch.qemu_version, batch.seq,
            (OpRequest("crash"),) + batch.ops[1:])
        return plans, schedule

    def test_pool_drains_and_respawns_after_crash(self, registry):
        plans, schedule = self._crash_last_batch()
        supervisor = fdc_supervisor(registry, inline=False)
        result = supervisor.run(schedule, plans)
        assert result.stats.lost == 0
        assert result.stats.completed == result.stats.requests
        assert result.stats.worker_respawns == 1

    def test_crash_never_blocks_a_peer_lane(self, registry):
        """A worker that dies mid-send must not stall its peers: each
        worker answers on its own result channel, so a crash can never
        leave a write lock held or a torn message in a channel another
        worker needs.  Repeated because an unlucky crash lands in
        roughly one run in ten; a stalled peer shows as lost ops once
        the short watchdog has spent the respawn budget."""
        plans, schedule = self._crash_last_batch()
        for attempt in range(40):
            supervisor = fdc_supervisor(registry, inline=False,
                                        watchdog_timeout=3.0)
            stats = supervisor.run(list(schedule), plans).stats
            assert (stats.lost, stats.worker_respawns) == (0, 1), attempt
            assert stats.completed == stats.requests, attempt

    def test_pool_detects_and_quarantines(self, registry):
        plans, schedule = build_load(
            ["fdc"], 2, 2, 2, inject_cves=["CVE-2015-3456"], seed=6)
        supervisor = fdc_supervisor(registry, inline=False)
        result = supervisor.run(schedule, plans)
        assert result.stats.lost == 0
        assert result.stats.detections >= 1
        assert result.quarantined_tenants() == result.attacked_tenants()
        assert any(r.anomalies for _, r in result.reports)
