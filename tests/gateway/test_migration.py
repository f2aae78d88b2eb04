"""Gateway-level migration and policy hot reload.

A rebalance now *migrates* moved tenants — sealed checkpoint from the
source shard, restore on the destination — instead of dropping their
instance state, so a mid-run shard add must be invisible to the verdict
stream.  Policy reloads are gateway events: validated eagerly (malformed
documents never reach a shard), applied to every live shard at one
simulated instant, and inherited by shards added later.
"""

import pytest

from repro.errors import PolicyError
from repro.fleet import SpecRegistry
from repro.fleet.loadgen import plan_tenants
from repro.fleet.migration import tenant_signatures
from repro.gateway import (
    ArrivalSpec, Gateway, GatewayConfig, PolicyReloadAction,
    RebalanceAction,
)
from repro.policy.model import PolicySet, TenantPolicy

ARRIVAL = ArrivalSpec(pattern="poisson", rate_per_sec=400.0,
                      horizon_s=0.01)


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    cache = tmp_path_factory.mktemp("gw-mig-cache")
    return SpecRegistry(cache_dir=str(cache))


def _config(registry, **overrides):
    base = dict(shards=2, workers_per_shard=2, seed=3, inline=True,
                cache_dir=registry.cache_dir, arrival=ARRIVAL)
    base.update(overrides)
    return GatewayConfig(**base)


def _run(registry, rebalances=(), policy_reloads=(), tenants=12,
         inject_fraction=0.25, **overrides):
    plans = plan_tenants(["fdc"], tenants,
                         inject_fraction=inject_fraction, seed=3)
    return Gateway(_config(registry, **overrides),
                   registry=registry).run(
        plans, rebalances=rebalances, policy_reloads=policy_reloads)


def _signatures(result):
    """Per-tenant verdict signatures over all shards' report streams."""
    class _Merged:
        reports = [(tenant, report)
                   for fleet_result in result.shard_results.values()
                   for tenant, report in fleet_result.reports]
    return tenant_signatures(_Merged)


MID_REBALANCE = RebalanceAction(
    at_cycle=ARRIVAL.horizon_cycles // 2, add=(2,))


class TestRebalanceMigration:
    def test_shard_add_migrates_state_byte_identically(self, registry):
        baseline = _run(registry)
        moved = _run(registry, rebalances=[MID_REBALANCE])
        assert baseline.safety_failures() == []
        assert moved.safety_failures() == []
        assert moved.moves, "rebalance moved nobody"
        assert moved.stats.migrations > 0
        assert moved.fleet.migrations == moved.stats.migrations
        # The moved run's verdict streams are indistinguishable from
        # the never-rebalanced baseline: nothing lost, nothing rerun,
        # no verdict changed by the move.
        assert _signatures(moved) == _signatures(baseline)
        assert moved.fleet.detections == baseline.fleet.detections
        assert moved.quarantined_tenants() \
            == baseline.quarantined_tenants()

    def test_every_tenant_resident_on_one_lane(self, registry,
                                               monkeypatch):
        # A move releases the source lane once the destination holds
        # the tenant, so when the shards close every served tenant has
        # exactly one record across all their lanes.
        from repro.fleet.supervisor import FleetSession

        lanes = []
        close = FleetSession.close

        def keeping_close(session, *args, **kwargs):
            lanes.extend(handle.worker
                         for handle in session.supervisor._lanes.values())
            return close(session, *args, **kwargs)

        monkeypatch.setattr(FleetSession, "close", keeping_close)
        result = _run(registry, rebalances=[MID_REBALANCE])
        assert result.stats.migrations > 0
        for tenant, summary in result.tenants.items():
            holders = [lane for lane in lanes
                       if lane.checkpoint_tenant(tenant) is not None]
            assert len(holders) == (1 if summary.submitted else 0), tenant

    def test_strikeless_tenants_still_move_safely(self, registry):
        # Tenants the source shard never built an instance for yield no
        # envelope (checkpoint is None); the move must still be clean.
        result = _run(registry, rebalances=[MID_REBALANCE],
                      inject_fraction=0.0)
        assert result.safety_failures() == []
        assert result.stats.migrations <= len(result.moves)


class TestPolicyReload:
    SILVER = PolicySet(default=TenantPolicy(policy_id="silver"))

    def test_mid_run_reload_fires_on_every_shard(self, registry):
        action = PolicyReloadAction(
            at_cycle=ARRIVAL.horizon_cycles // 3,
            policies=self.SILVER)
        result = _run(registry, policy_reloads=[action],
                      policies=PolicySet(
                          default=TenantPolicy(policy_id="gold")))
        assert result.safety_failures() == []
        assert result.stats.policy_reload_events == 1
        assert result.fleet.policy_reloads > 0
        ids = {s.policy_id for s in result.tenants.values()
               if s.policy_id}
        assert "silver" in ids

    def test_added_shard_inherits_fired_reload(self, registry):
        reload_at = ARRIVAL.horizon_cycles // 4
        action = PolicyReloadAction(at_cycle=reload_at,
                                    policies=self.SILVER)
        result = _run(registry, policy_reloads=[action],
                      rebalances=[MID_REBALANCE])
        assert result.safety_failures() == []
        # Shard 2 only exists after the reload fired, so every batch it
        # served — stamped tenants included — ran on the reloaded
        # generation, never the boot default.
        added = result.shard_results[2]
        stamped = {s.policy_id for s in added.tenants.values()
                   if s.policy_id}
        assert stamped <= {"silver"}
        assert "silver" in {s.policy_id for s in result.tenants.values()
                            if s.policy_id}

    def test_malformed_reload_rejected_before_any_shard(self, registry):
        action = PolicyReloadAction(
            at_cycle=1, policies={"default": {"circuit_cooldown": 0}})
        gateway = Gateway(_config(registry), registry=registry)
        with pytest.raises(PolicyError):
            gateway.run(plan_tenants(["fdc"], 4, seed=3),
                        policy_reloads=[action])
        # The gateway object is still usable: nothing was scheduled.
        result = gateway.run(plan_tenants(["fdc"], 4, seed=3))
        assert result.safety_failures() == []
        assert result.stats.policy_reload_events == 0
