"""Fleet-wide tenant-policy hot reload: epoch-consistent, eager
validation, inline/pool parity.

Policy reloads ride the same stamping mechanism as spec reloads: the
supervisor stamps every batch with the policy generation it must run
under, the worker swaps per tenant before the batch's first op, and
in-flight batches finish wholly under the old policy.  A malformed
document must fail at ``reload_policy`` time — before anything is
scheduled — leaving the running fleet untouched.
"""

import pytest

from repro.checker import Action
from repro.errors import PolicyError
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import (
    FleetConfig, FleetSupervisor, FleetWorker, ScheduledPolicyReload,
    SpecRegistry, build_load,
)
from repro.fleet.loadgen import make_schedule, plan_tenants
from repro.gateway import GatewayConfig
from repro.policy.model import DEFAULT_POLICY, PolicySet, TenantPolicy

GOLD = PolicySet(default=TenantPolicy(policy_id="gold"))
SILVER = PolicySet(default=TenantPolicy(policy_id="silver",
                                        degradation="retry",
                                        max_retries=1))

PARITY_FIELDS = ("requests", "completed", "rejected", "lost",
                 "detections", "shed", "policy_reloads",
                 "policy_throttles", "policy_restores", "policy_fences",
                 "fenced_tenants", "io_rounds", "total_cycles")


#: both fleet lanes: in-process workers and a worker-process pool
LANES = pytest.mark.parametrize("inline", [True, False],
                                ids=["inline", "pool"])


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    cache = tmp_path_factory.mktemp("spec-cache")
    return SpecRegistry(cache_dir=str(cache))


def _run(inline, cache_dir, at_seq, tenants=3, batches=4, ops=3):
    plans, schedule = build_load(["fdc"], tenants, batches, ops, seed=9)
    supervisor = FleetSupervisor(FleetConfig(
        workers=2, inline=inline, cache_dir=cache_dir, policies=GOLD))
    supervisor.reload_policy(SILVER, at_seq=at_seq)
    return supervisor.run(schedule, plans), plans


class TestDefaultPolicy:
    """A fleet, a gateway or a worker given no policy set runs every
    tenant under DEFAULT_POLICY: fail-closed, two retries, one respawn,
    a breaker that opens after 3 strikes and probes after 4 sheds."""

    TENANTS = ("t0", "tenant-17", "gold")

    def test_fleet_and_gateway_configs(self):
        for config in (FleetConfig(), GatewayConfig()):
            assert config.policies == PolicySet()
            for tenant in self.TENANTS:
                assert config.policies.resolve(tenant) == DEFAULT_POLICY

    def test_bare_worker(self):
        worker = FleetWorker(0, SpecRegistry())
        for tenant in self.TENANTS:
            policy = worker.policy_for(tenant)
            assert policy == DEFAULT_POLICY
            assert policy.attempts == 1
        assert DEFAULT_POLICY == TenantPolicy(
            degradation="fail-closed", max_retries=2, respawn_budget=1,
            throttle_after=3, circuit_cooldown=4)

    def test_inline_and_pool_lanes_get_the_same_settings(
            self, monkeypatch):
        # A pool worker is handed the configured set itself, through
        # the worker_main the supervisor module names at spawn time.
        from dataclasses import replace
        from types import SimpleNamespace

        import repro.fleet.supervisor as supervisor_mod
        from repro.fleet.supervisor import _WorkerHandle

        spawned = []

        class Context:
            def Queue(self):
                return None

            def Pipe(self, duplex):
                return None, SimpleNamespace(close=lambda: None)

            def Process(self, target, args, kwargs, daemon):
                spawned.append((target, kwargs))
                return SimpleNamespace(start=lambda: None)

        def entry(*args, **kwargs):
            pass

        monkeypatch.setattr(supervisor_mod, "worker_main", entry)
        config = FleetConfig(batch_rounds=2, policies=GOLD)
        FleetSupervisor(config, registry=SpecRegistry())._spawn(
            Context(), _WorkerHandle(0))
        [(target, settings)] = spawned
        assert target is entry
        assert settings["policies"] is GOLD
        inline = _WorkerHandle(0)
        FleetSupervisor(replace(config, inline=True),
                        registry=SpecRegistry())._spawn(None, inline)
        for name, value in settings.items():
            assert getattr(inline.worker, name) == value


class TestHotReload:
    def test_swaps_every_tenant_exactly_once(self):
        result, plans = _run(inline=True, cache_dir=None, at_seq=6)
        assert result.stats.policy_reloads == len(plans)
        assert result.stats.lost == 0
        assert result.stats.duplicate_results == 0
        for summary in result.tenants.values():
            assert summary.policy_id == "silver"

    def test_batches_flip_generation_at_the_boundary(self):
        # The supervisor stamps batches; the worker swaps per tenant
        # before the stamped batch's first op — earlier batches run
        # wholly under the old generation, later ones under the new.
        from dataclasses import replace

        from repro.fleet import FleetWorker, SpecRegistry
        from repro.fleet.loadgen import make_schedule, plan_tenants

        registry = SpecRegistry()
        digest = registry.policies.put(SILVER)
        worker = FleetWorker(0, registry, policies=GOLD)
        plans = plan_tenants(["fdc"], 1, seed=9)
        schedule = make_schedule(plans, 4, 3, seed=9)
        results = []
        for i, batch in enumerate(schedule):
            if i >= 2:
                batch = replace(batch, policy_epoch=1,
                                policy_digest=digest)
            results.append(worker.run_batch(batch))
        assert [r.policy_id for r in results] \
            == ["gold", "gold", "silver", "silver"]
        assert [r.policy_generation for r in results] == [0, 0, 1, 1]
        assert sum(r.policy_reloads for r in results) == 1

    def test_at_seq_zero_applies_before_first_batch(self):
        result, plans = _run(inline=True, cache_dir=None, at_seq=0)
        assert result.stats.policy_reloads == len(plans)
        assert all(summary.policy_id == "silver"
                   for summary in result.tenants.values())

    def test_inline_pool_parity(self, tmp_path):
        inline_result, _ = _run(inline=True, cache_dir=str(tmp_path),
                                at_seq=6)
        pool_result, _ = _run(inline=False, cache_dir=str(tmp_path),
                              at_seq=6)
        for name in PARITY_FIELDS:
            assert getattr(inline_result.stats, name) \
                == getattr(pool_result.stats, name), name
        inline_stamps = sorted(
            (t, r.policy_id, r.policy_generation)
            for t, r in inline_result.reports)
        pool_stamps = sorted(
            (t, r.policy_id, r.policy_generation)
            for t, r in pool_result.reports)
        assert inline_stamps == pool_stamps


def _serve(registry, inline, boot, schedule, plans, fault_plan,
           reload=None, at_seq=0):
    """Serve *schedule* on one worker booted under *boot*, optionally
    reloading to *reload* from batch *at_seq*; returns the fleet result
    and the per-batch results in seq order."""
    supervisor = FleetSupervisor(
        FleetConfig(workers=1, inline=inline, fault_plan=fault_plan,
                    policies=boot), registry=registry)
    if reload is not None:
        supervisor.reload_policy(reload, at_seq=at_seq)
    result = supervisor.run(schedule, plans)
    return result, sorted(supervisor._results, key=lambda r: r.seq)


#: what a batch did with its ops, apart from the policy that ran them
OUTCOME_FIELDS = ("completed", "rejected", "faults", "detections",
                  "instance_respawns", "quarantined", "trace_gaps",
                  "infra_failures", "shed", "circuit_opens",
                  "exploit_escapes", "exploit_refusals", "fenced",
                  "cycles", "io_rounds")


def _outcome(batch):
    return (tuple(getattr(batch, name) for name in OUTCOME_FIELDS),
            [(r.io_key, r.action, r.policy, r.gap_reason)
             for r in batch.reports])


def _policy(policy_id, degradation="fail-closed"):
    # The breaker stays shut so every op reaches its instance.
    return TenantPolicy(policy_id=policy_id, degradation=degradation,
                        max_retries=1, throttle_after=0)


#: every op's checker engine fails before the round runs
ENGINE_DOWN = FaultPlan(5, (FaultSpec("interp.step", probability=1.0),))
OPEN = PolicySet(default=_policy("open", "fail-open"))
CLOSED = PolicySet(default=_policy("closed"))


class TestSingleDegradationPath:
    """Each op runs under the degradation mode and retry budget of the
    policy its tenant resolves for the batch, and every report the
    fleet files is stamped with that policy: a hot reload reaches both
    at the next batch boundary."""

    BOOT = PolicySet(default=_policy("closed"), tenants={
        "t01-pcnet": _policy("open", "fail-open"),
        "t02-pcnet": _policy("retry", "retry")})
    RELOADED = PolicySet(default=_policy("open-2", "fail-open"), tenants={
        "t01-pcnet": _policy("retry-2", "retry"),
        "t02-pcnet": _policy("closed-2")})

    @LANES
    def test_every_report_carries_its_resolved_policy(self, registry,
                                                      inline):
        # One attacked tenant per boot mode, the attack in the last
        # batch; lost packets give gap reports under every mode.
        plans = plan_tenants(["fdc", "pcnet", "pcnet"], 3, inject_cves=[
            "CVE-2015-3456", "CVE-2015-7504", "CVE-2016-7909"], seed=3)
        schedule = make_schedule(plans, 4, 3, seed=3, attack_batch=3)
        drops = FaultPlan(3, (FaultSpec("ipt.drop", probability=0.01),))
        result, _ = _serve(registry, inline, self.BOOT, schedule, plans,
                           drops, reload=self.RELOADED, at_seq=3)
        generations = {0: self.BOOT, 1: self.RELOADED}
        seen = set()
        for tenant, report in result.reports:
            policy = generations[report.policy_generation].resolve(tenant)
            assert (report.policy, report.policy_id) \
                == (policy.degradation, policy.policy_id), report.io_key
            seen.add((report.policy_generation, report.policy,
                      report.action))
        # Not vacuous: a detection under every mode, and gap reports
        # under every mode in both generations.
        assert {(1, mode, Action.HALT) for mode in
                ("fail-closed", "fail-open", "retry")} <= seen
        assert {(g, mode) for g, mode, action in seen
                if action is not Action.HALT} == {
            (g, mode) for g in (0, 1)
            for mode in ("fail-closed", "fail-open", "retry")}

    @LANES
    def test_tightening_reload_refuses_the_exploit(self, registry,
                                                   inline):
        # The exploit is op 0 of seq 2; the reload lands at seq 1.
        plans, schedule = build_load(["fdc"], 1, 4, 3,
                                     inject_cves=["CVE-2015-3456"], seed=3)
        assert schedule[2].ops[0].kind == "exploit"
        result, batches = _serve(registry, inline, OPEN, schedule, plans,
                                 ENGINE_DOWN, reload=CLOSED, at_seq=1)
        stats = result.stats
        assert stats.policy_reloads == 1
        assert (stats.faults, stats.instance_respawns) == (0, 0)
        (summary,) = result.tenants.values()
        assert (summary.exploit_refusals, summary.exploit_escapes) \
            == (1, 0)
        # From the reload on, the tenant runs exactly like one booted
        # under the new policy.
        _, booted = _serve(registry, inline, CLOSED, schedule, plans,
                           ENGINE_DOWN)
        assert [_outcome(b) for b in batches[1:]] \
            == [_outcome(b) for b in booted[1:]]

    @LANES
    def test_loosening_reload_serves_with_allow_gaps(self, registry,
                                                     inline):
        plans, schedule = build_load(["fdc"], 1, 4, 3, seed=3)
        result, batches = _serve(registry, inline, CLOSED, schedule,
                                 plans, ENGINE_DOWN, reload=OPEN,
                                 at_seq=1)
        assert batches[0].trace_gaps == 3
        for batch in batches[1:]:
            assert (batch.completed, batch.trace_gaps) == (3, 0)
        after = [r for _, r in result.reports if r.policy_generation]
        assert len(after) == 9
        for report in after:
            assert report.trace_gap and report.action is Action.ALLOW
            assert (report.policy, report.policy_id) \
                == ("fail-open", "open")


class TestEagerValidation:
    @pytest.mark.parametrize("document", [
        {"default": {"circuit_cooldown": 0}},
        {"default": {"nonsense_knob": 3}},
        {"extra_section": {}},
        "not an object",
    ])
    def test_malformed_document_rejected_eagerly(self, document):
        supervisor = FleetSupervisor(FleetConfig(workers=2, inline=True))
        with pytest.raises(PolicyError):
            supervisor.reload_policy(document)
        # Nothing was scheduled: the fleet runs exactly as unconfigured.
        assert supervisor._policy_reloads == []
        plans, schedule = build_load(["fdc"], 2, 2, 2, seed=9)
        result = supervisor.run(schedule, plans)
        assert result.stats.policy_reloads == 0
        assert result.stats.lost == 0

    def test_raw_dict_document_accepted(self):
        supervisor = FleetSupervisor(FleetConfig(workers=2, inline=True))
        digest = supervisor.reload_policy(SILVER.to_obj())
        assert digest == SILVER.digest
        assert supervisor._policy_reloads == [
            ScheduledPolicyReload(SILVER.digest, 0)]

    def test_malformed_boot_policy_rejected(self):
        with pytest.raises(PolicyError):
            PolicySet.from_obj({"default": {"max_retries": -1}})
