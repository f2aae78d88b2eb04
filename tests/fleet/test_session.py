"""FleetSession: the streaming facade must be result-identical to
``run()`` over the same executed batches, inline and pooled."""

import time
from dataclasses import replace

import pytest

from repro.errors import FleetError
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import (
    FleetConfig, FleetSupervisor, OpRequest, SpecRegistry, build_load,
)
from repro.fleet.checkpoint import seal

STAT_FIELDS = (
    "workers", "requests", "completed", "rejected", "faults", "lost",
    "detections", "quarantined_instances", "duplicate_results",
    "trace_gaps", "infra_failures", "shed", "circuit_opens",
    "watchdog_kills", "spec_reloads", "io_rounds", "total_cycles",
    "makespan_cycles", "latency_samples", "p50_request_cycles",
    "p95_request_cycles", "p99_request_cycles",
)


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    cache = tmp_path_factory.mktemp("session-spec-cache")
    return SpecRegistry(cache_dir=str(cache))


def supervisor(registry, inline=True, workers=2):
    return FleetSupervisor(
        FleetConfig(workers=workers, inline=inline,
                    cache_dir=registry.cache_dir), registry)


def small_load(**kwargs):
    return build_load(["fdc"], 4, 3, 3,
                      inject_cves=["CVE-2015-3456"], **kwargs)


def run_via_session(sup, schedule, plans):
    session = sup.session()
    for batch in schedule:
        session.submit(batch)
    return session.close(plans)


class TestRunParity:
    @pytest.mark.parametrize("inline", [True, False],
                             ids=["inline", "pool"])
    def test_session_equals_run(self, registry, inline):
        plans, schedule = small_load()
        batch_result = supervisor(registry, inline).run(schedule, plans)
        streamed = run_via_session(supervisor(registry, inline),
                                   schedule, plans)
        for f in STAT_FIELDS:
            assert getattr(streamed.stats, f) \
                == getattr(batch_result.stats, f), f
        assert streamed.tenants == batch_result.tenants
        assert streamed.retrain == batch_result.retrain

    def test_session_honors_scheduled_reload_stamps(self, registry):
        plans, schedule = build_load(["fdc"], 2, 4, 2)
        baseline = supervisor(registry).run(schedule, plans)
        assert baseline.stats.spec_reloads == 0
        # A reload scheduled mid-stream stamps exactly the tail batches.
        sup = supervisor(registry)
        spec = registry.get("fdc", "99.0.0")
        digest = registry.publish("fdc", "99.0.0", spec,
                                  provenance="test").digest
        sup.reload_spec("fdc", digest, at_seq=4)
        result = run_via_session(sup, schedule, plans)
        assert result.stats.spec_reloads == len(plans)
        assert result.stats.lost == 0


class TestSessionContract:
    def test_worker_pinning_is_first_appearance_round_robin(self,
                                                            registry):
        session = supervisor(registry, workers=3).session()
        assert [session.worker_for(t)
                for t in ("a", "b", "c", "d", "a")] == [0, 1, 2, 0, 0]

    def test_submit_after_close_rejected(self, registry):
        plans, schedule = build_load(["fdc"], 2, 1, 2)
        session = supervisor(registry).session()
        session.submit(schedule[0])
        session.close(plans)
        with pytest.raises(FleetError, match="closed"):
            session.submit(schedule[1])

    def test_pool_session_requires_a_cache_dir(self):
        sup = FleetSupervisor(FleetConfig(workers=1, inline=False,
                                          cache_dir=None))
        with pytest.raises(FleetError, match="cache"):
            sup.session()


def crash_first(batch):
    """*batch* with its first op replaced by a live crash op."""
    return replace(batch, ops=(OpRequest("crash"),) + batch.ops[1:])


DETERMINISTIC_STATS = STAT_FIELDS + (
    "worker_respawns", "instance_respawns", "policy_reloads",
    "fenced_tenants", "migrations", "retrain_candidates")


class TestDeadLane:
    @pytest.mark.parametrize("inline", [True, False],
                             ids=["inline", "pool"])
    def test_spent_lane_yields_no_checkpoint(self, registry, inline):
        """Once a lane's respawn budget is spent its worker is gone, so
        a tenant pinned there has nothing left to checkpoint, in either
        mode."""
        sup = FleetSupervisor(
            FleetConfig(workers=1, inline=inline, max_worker_respawns=0,
                        cache_dir=registry.cache_dir), registry)
        _, schedule = build_load(["fdc"], 1, 2, 2, seed=3)
        session = sup.session()
        try:
            assert session.submit(schedule[0]) is not None
            assert session.submit(crash_first(schedule[1])) is None
            assert session.checkpoint_tenant(schedule[0].tenant) is None
        finally:
            result = session.close()
        assert result.stats.lost == len(schedule[1].ops)
        assert result.stats.worker_respawns == 0


def lane_checkpoint(session, worker_id, tenant):
    """*tenant*'s checkpoint as lane *worker_id* answers it, wherever
    the tenant is pinned."""
    handle = session.supervisor._lanes[worker_id]
    if session.config.inline:
        return handle.worker.checkpoint_tenant(tenant)
    handle.inbox.put(("checkpoint", tenant))
    return session._await_reply("checkpoint", handle)


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "pool"])
class TestMigrationResidency:
    """A migration is checkpoint, restore, release: the tenant ends
    resident on exactly one lane, and a refused restore moves
    nothing."""

    def test_migrated_tenant_leaves_its_source_lane(self, registry,
                                                    inline):
        _, schedule = build_load(["fdc"], 2, 1, 2, seed=5)
        session = supervisor(registry, inline).session()
        try:
            for batch in schedule:
                session.submit(batch)
            tenant = schedule[0].tenant
            assert session.worker_for(tenant) == 0
            session.migrate_tenant(tenant, 1)
            assert session.worker_for(tenant) == 1
            assert lane_checkpoint(session, 0, tenant) is None
            assert lane_checkpoint(session, 1, tenant) is not None
        finally:
            session.close()

    def test_migrating_to_its_own_lane_keeps_the_tenant(self, registry,
                                                        inline):
        _, schedule = build_load(["fdc"], 1, 2, 2, seed=5)
        session = supervisor(registry, inline).session()
        try:
            session.submit(schedule[0])
            tenant = schedule[0].tenant
            session.migrate_tenant(tenant, session.worker_for(tenant))
            assert session.checkpoint_tenant(tenant) is not None
            assert session.submit(schedule[1]).completed == 2
        finally:
            result = session.close()
        assert result.stats.migrations == 1

    def test_refused_restore_fails_fast_and_changes_nothing(self, registry,
                                                            inline):
        # A re-sealed envelope naming an unknown part is refused by the
        # target lane: the refusal comes back as a FleetError at once,
        # the worker and its other tenant live on, and the pin stays.
        config = FleetConfig(workers=2, inline=inline, stall_timeout=10,
                             cache_dir=registry.cache_dir)
        _, schedule = build_load(["fdc"], 2, 2, 2, seed=7)
        session = FleetSupervisor(config, registry).session()
        try:
            session.submit(schedule[0])
            session.submit(schedule[1])
            mover, neighbour = schedule[0].tenant, schedule[1].tenant
            assert session.worker_for(neighbour) == 1
            envelope = session.checkpoint_tenant(mover)
            envelope["devices"]["ghost"] = envelope["devices"]["fdc"]
            seal(envelope)
            start = time.monotonic()
            with pytest.raises(FleetError, match="devices"):
                session.install_checkpoint(envelope, worker_id=1)
            assert time.monotonic() - start < config.stall_timeout / 4
            assert session.worker_for(mover) == 0
            assert lane_checkpoint(session, 1, mover) is None
            for batch in schedule[2:]:
                session.submit(batch)
            # The neighbour's instance was kept, not rebuilt: its op
            # serial counts both of its batches.
            assert session.checkpoint_tenant(neighbour)["op_serial"] == 4
        finally:
            result = session.close()
        assert result.stats.worker_respawns == 0
        assert result.stats.migrations == 0


class TestSessionDifferential:
    def test_inline_and_pool_sessions_agree(self, registry):
        """A crash that spends lane 0's budget, instance-level faults
        and mid-stream migrations off lane 0: the inline and pool
        sessions must account every op and every migration alike."""
        plan = FaultPlan(23, (
            FaultSpec("interp.step", probability=0.05),))
        plans, schedule = build_load(
            ["fdc"], 4, 4, 2, inject_cves=["CVE-2015-3456"], seed=17)
        second = [i for i, b in enumerate(schedule)
                  if b.tenant == "t00-fdc"][1]
        schedule[second] = crash_first(schedule[second])

        def serve(inline):
            sup = FleetSupervisor(
                FleetConfig(workers=2, inline=inline,
                            max_worker_respawns=0, backoff_base=0.01,
                            cache_dir=registry.cache_dir,
                            fault_plan=plan), registry)
            session = sup.session()
            seen = {}
            for batch in schedule:
                session.submit(batch)
                seen[batch.tenant] = seen.get(batch.tenant, 0) + 1
                if (seen[batch.tenant] == 3
                        and session.worker_for(batch.tenant) == 0):
                    session.migrate_tenant(batch.tenant, 1)
            return session.close(plans)

        inline, pool = serve(True), serve(False)
        for name in DETERMINISTIC_STATS:
            assert getattr(inline.stats, name) == \
                getattr(pool.stats, name), name
        assert inline.stats.lost > 0
        assert inline.tenants == pool.tenants


class TestQuarantineSurvivesRespawn:
    @pytest.mark.parametrize("inline", [True, False],
                             ids=["inline", "pool"])
    def test_respawned_lane_keeps_a_security_quarantine(self, registry,
                                                        inline):
        """A tenant quarantined for a detected exploit stays quarantined
        after another tenant's crash op respawns their shared lane:
        its next batch is rejected whole, so the exploit never reaches
        the checker again."""
        plans, schedule = build_load(["fdc"], 2, 3, 2,
                                     inject_cves=("CVE-2015-3456",),
                                     seed=11)
        attacked = next(p.tenant for p in plans if p.attacked)
        sup = FleetSupervisor(
            FleetConfig(workers=1, inline=inline,
                        cache_dir=registry.cache_dir), registry)
        session = sup.session()
        try:
            pending = list(schedule)
            while pending:
                batch = pending.pop(0)
                result = session.submit(batch)
                if batch.tenant == attacked and result.quarantined:
                    break
            else:
                pytest.fail("the exploit was never detected")
            crash = next(b for b in pending if b.tenant != attacked)
            assert session.submit(crash_first(crash)) is not None
            replay = next(b for b in pending if b.tenant == attacked)
            result = session.submit(replay)
        finally:
            closed = session.close(plans)
        assert closed.stats.worker_respawns == 1
        assert result.quarantined
        assert (result.rejected, result.completed, result.detections) \
            == (len(replay.ops), 0, 0)
