"""Live tenant migration: session-level moves, certification, and
breaker-state carry.

A migration is only correct if it is invisible to the verdict stream:
the certification harness serves the same stamped schedule twice —
never-migrated vs migrate-every-tenant-mid-stream — and requires
byte-identical per-tenant verdict signatures plus op conservation in
both runs.  The breaker tests pin the satellite fix: circuit-breaker
strikes, the graduated-ladder rung, and the respawn budget ride the
envelope, so a tenant cannot launder its strike history by moving.
"""

import random
from dataclasses import replace

import pytest

from repro.checker import Mode
from repro.errors import FleetError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.fleet import (
    FleetConfig, FleetSupervisor, FleetWorker, SpecRegistry,
    certify, checkpoint_instance, run_migration_certification,
)
from repro.fleet.checkpoint import seal
from repro.fleet.instance import GuardedInstance
from repro.fleet.loadgen import RequestBatch, sample_benign_op
from repro.policy.model import PolicySet, TenantPolicy


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    # Pool lanes load their specs from the registry's disk cache.
    return SpecRegistry(cache_dir=str(tmp_path_factory.mktemp("specs")))


def _batch(tenant, device, seq, rng, ops=3):
    return RequestBatch(tenant, device, "99.0.0", seq,
                        tuple(sample_benign_op(device, rng)
                              for _ in range(ops)))


class TestSessionMigration:
    def test_inline_certification(self):
        cert = run_migration_certification(
            devices=("fdc",), tenants=3, batches_per_tenant=3,
            ops_per_batch=4, inject_fraction=0.5,
            seed=11)
        assert cert.ok, cert.describe()
        assert cert.migrations == 3
        assert cert.tenants == 3

    def test_migrating_twice_still_certifies(self):
        # Move after batch 0 *and* the certification default after
        # batch 1 — a tenant that bounces between lanes must still be
        # indistinguishable from one that never moved.
        cert = run_migration_certification(
            devices=("fdc",), tenants=2, batches_per_tenant=4,
            ops_per_batch=3, inject_fraction=0.5,
            migrate_after_batch=0, seed=13)
        assert cert.ok, cert.describe()

    def test_single_lane_migration_certifies(self, capsys):
        # With one lane every move lands on the tenant's own lane, which
        # keeps the tenant rather than releasing it.
        from repro.cli import main

        assert main(["migrate", "--workers", "1", "--backends",
                     "bytecode", "--tenants", "2", "--batches", "3",
                     "--ops", "3"]) == 0
        assert "all_certified=True" in capsys.readouterr().out

    def test_certify_flags_verdict_divergence(self):
        # Same load, different inject schedule: signatures diverge and
        # the certificate must FAIL loudly, not average it away.
        from repro.fleet.loadgen import build_load

        def serve(inject):
            plans, schedule = build_load(
                ["fdc"], 2, 2, 3, inject_fraction=inject, seed=11)
            supervisor = FleetSupervisor(
                FleetConfig(workers=1, inline=True))
            return supervisor.run(schedule, plans)

        cert = certify(serve(0.5), serve(0.0), backend="bytecode")
        assert not cert.ok
        assert cert.mismatched or cert.missing

    def test_checkpoint_unknown_tenant_is_none(self):
        supervisor = FleetSupervisor(FleetConfig(workers=2, inline=True))
        session = supervisor.session()
        try:
            assert session.checkpoint_tenant("never-seen") is None
        finally:
            session.close()


class TestReturningTenant:
    @pytest.mark.parametrize("inline", [True, False],
                             ids=["inline", "pool"])
    def test_returning_tenant_skips_stale_snapshot(self, registry, inline):
        # The restore rung rolls a tenant back to the last healthy
        # snapshot its lane took.  A tenant that leaves lane 0 after one
        # batch and comes back five batches later must not be rolled
        # back to the snapshot lane 0 took before it left.
        policy = PolicySet(default=TenantPolicy(
            policy_id="rollback", throttle_after=0, restore_after=1,
            quarantine_after=0))
        # A certain-fire interp fault on op 19 alone: the first op
        # served after the tenant returns.
        plan = FaultPlan(3, (FaultSpec("interp.step", probability=1.0,
                                       trigger_round=19),))
        supervisor = FleetSupervisor(
            FleetConfig(workers=2, inline=inline, policies=policy,
                        fault_plan=plan, cache_dir=registry.cache_dir),
            registry=registry)
        session = supervisor.session()
        tenant, device = "t0-fdc", "fdc"
        rng = random.Random(53)
        try:
            session.submit(_batch(tenant, device, 0, rng))
            assert session.worker_for(tenant) == 0
            session.migrate_tenant(tenant, 1)
            for seq in range(1, 6):
                session.submit(_batch(tenant, device, seq, rng))
            session.migrate_tenant(tenant, 0)
            assert session.checkpoint_tenant(tenant)["op_serial"] == 18
            result = session.submit(_batch(tenant, device, 6, rng))
            assert session.checkpoint_tenant(tenant)["op_serial"] == 21
            assert (result.trace_gaps, result.policy_restores) == (1, 0)
        finally:
            session.close()


class TestCreditedMigration:
    """An instance that runs strict rounds on credit (``batch_rounds``)
    vets its prepare step when it is built, so no checkpoint carries
    credited rounds and no restored skeleton vets stale ones against
    the overlaid state."""

    @pytest.mark.parametrize("inline", [True, False],
                             ids=["inline", "pool"])
    @pytest.mark.parametrize("ops", [0, 1, 3])
    def test_restored_tenant_serves_benign_ops(self, registry, ops,
                                               inline):
        source = GuardedInstance("t0", "fdc", "99.0.0",
                                 registry.get("fdc", "99.0.0"),
                                 mode=Mode.PROTECTION, batch_rounds=8)
        assert not source.attachment.pending
        rng = random.Random(5)
        for _ in range(ops):
            assert source.apply(sample_benign_op("fdc", rng)).status \
                == "ok"
        envelope = checkpoint_instance(source)
        supervisor = FleetSupervisor(
            FleetConfig(workers=2, inline=inline, batch_rounds=8),
            registry=registry)
        session = supervisor.session()
        try:
            session.install_checkpoint(envelope, worker_id=1)
            result = session.submit(_batch("t0", "fdc", 1, rng, ops=4))
        finally:
            session.close()
        assert (result.completed, result.detections) == (4, 0)
        assert not result.quarantined, result.quarantine_reason


class TestBreakerCarry:
    def _strike(self, worker, tenant, device, rng, seq):
        """One batch under a certain-fire interp fault: every op
        degrades, strikes accrue."""
        plan = FaultPlan(3, (FaultSpec("interp.step", probability=1.0),))
        injector = FaultInjector(plan.for_sites("interp."))
        worker.injector = injector
        worker.tenants[tenant].instance.injector = injector
        result = worker.run_batch(_batch(tenant, device, seq, rng))
        worker.injector = None
        worker.tenants[tenant].instance.injector = None
        return result

    def test_strikes_and_rung_survive_migration(self):
        policy = PolicySet(default=TenantPolicy(
            policy_id="carry", throttle_after=2, circuit_cooldown=9,
            restore_after=0, quarantine_after=0))
        registry = SpecRegistry()
        registry.policies.put(policy)
        source = FleetWorker(0, registry, policies=policy)
        tenant, device = "t0-fdc", "fdc"
        rng = random.Random(41)
        source.run_batch(_batch(tenant, device, 0, rng))
        self._strike(source, tenant, device, rng, 1)
        left = source.tenants[tenant]
        assert left.strikes >= 2
        assert left.circuit_open

        envelope = source.checkpoint_tenant(tenant)
        assert envelope["breaker"]["strikes"] == left.strikes
        assert envelope["breaker"]["circuit_open"] is True
        assert envelope["policy"] == {"epoch": 0, "digest": ""}

        target = FleetWorker(1, registry, policies=policy)
        target.restore_tenant(envelope)
        arrived = target.tenants[tenant]
        assert arrived.strikes == left.strikes
        assert arrived.circuit_open is True
        assert arrived.shed_since_probe == left.shed_since_probe
        # The open circuit keeps shedding on the target lane: the move
        # did not hand the tenant a fresh breaker.
        result = target.run_batch(_batch(tenant, device, 2, rng))
        assert result.shed > 0

    def test_reloaded_policy_generation_survives_migration(self):
        boot = PolicySet(default=TenantPolicy(policy_id="gold"))
        silver = PolicySet(default=TenantPolicy(policy_id="silver"))
        registry = SpecRegistry()
        digest = registry.policies.put(silver)
        source = FleetWorker(0, registry, policies=boot)
        tenant, device = "t0-fdc", "fdc"
        rng = random.Random(43)
        batch = replace(_batch(tenant, device, 0, rng),
                        policy_epoch=1, policy_digest=digest)
        assert source.run_batch(batch).policy_id == "silver"

        target = FleetWorker(1, registry, policies=boot)
        target.restore_tenant(source.checkpoint_tenant(tenant))
        assert target.policy_for(tenant).policy_id == "silver"
        assert target.tenants[tenant].policy_epoch == 1

    def test_returning_tenant_replaces_stale_breaker(self):
        self._return_to_lane_a(sections=True)

    def test_bare_instance_envelope_installs_a_fresh_tenant(self):
        # A bare instance checkpoint carries no breaker or policy
        # section: lane A installs a fresh tenant's values instead.
        self._return_to_lane_a(sections=False)

    def _return_to_lane_a(self, sections):
        """The tenant leaves lane A with its circuit open, a reloaded
        policy and a snapshot; its probe on lane B closes the circuit,
        and it moves back: the record lane A installs is the
        envelope's, whole."""
        policy = PolicySet(default=TenantPolicy(
            policy_id="carry", throttle_after=2, circuit_cooldown=1,
            restore_after=2, quarantine_after=0))
        registry = SpecRegistry()
        digest = registry.policies.put(policy)
        lane_a = FleetWorker(0, registry)
        lane_b = FleetWorker(1, registry)
        tenant, device = "t0-fdc", "fdc"
        rng = random.Random(47)
        lane_a.run_batch(replace(_batch(tenant, device, 0, rng),
                                 policy_epoch=1, policy_digest=digest))
        self._strike(lane_a, tenant, device, rng, 1)
        stale = lane_a.tenants[tenant]
        assert stale.circuit_open and stale.rung == 2
        assert stale.policy_epoch == 1 and stale.snapshot is not None
        lane_b.restore_tenant(lane_a.checkpoint_tenant(tenant))
        lane_b.run_batch(_batch(tenant, device, 2, rng))
        assert not lane_b.tenants[tenant].circuit_open
        envelope = (lane_b.checkpoint_tenant(tenant) if sections
                    else checkpoint_instance(lane_b.tenants[tenant].instance))
        lane_a.restore_tenant(envelope)
        installed = lane_a.tenants[tenant]
        assert installed is not stale
        fresh = {"strikes": 0, "circuit_open": False,
                 "shed_since_probe": 0, "rung": 0, "fenced": False,
                 "respawns": 0}
        assert {key: getattr(installed, key) for key in fresh} \
            == envelope.get("breaker", fresh)
        policy_section = envelope.get("policy", {"epoch": 0, "digest": ""})
        assert installed.policy_epoch == policy_section["epoch"]
        assert (installed.policy_set.digest if installed.policy_set
                else "") == policy_section["digest"]
        assert installed.snapshot is None
        assert lane_a.policy_for(tenant).policy_id \
            == ("carry" if sections else "default")
        assert lane_a.run_batch(_batch(tenant, device, 3, rng)).shed == 0

    def test_tampered_breaker_rejected(self):
        registry = SpecRegistry()
        worker = FleetWorker(0, registry)
        tenant, device = "t0-fdc", "fdc"
        worker.run_batch(_batch(tenant, device, 0, random.Random(7)))
        envelope = worker.checkpoint_tenant(tenant)
        envelope["breaker"]["strikes"] = 7    # forge a strike history
        with pytest.raises(FleetError):
            FleetWorker(1, registry).restore_tenant(envelope)
        # Re-sealing makes it verify again — the digest covers the
        # breaker precisely so only a whole, honest envelope restores.
        seal(envelope)
        FleetWorker(1, registry).restore_tenant(envelope)
