"""Spec lifecycle: generation chains, retrain queue, gated promotion,
and the fleet-wide epoch-based hot reload."""

import json
import os
import shutil

import pytest

from repro.checker import Action, Strategy, retrain_reason
from repro.checker.anomalies import Anomaly, CheckReport
from repro.errors import SpecError
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import (
    FleetConfig, FleetSupervisor, ScheduledReload, SpecRegistry,
    build_load, inject_schedule_faults, make_schedule, plan_tenants,
    spec_digest,
)
from repro.fleet.loadgen import OpRequest, RequestBatch
from repro.spec import (
    PromotionConfig, RetrainRecord, candidate_from_records,
    promote, spec_from_json, spec_to_json,
)
from repro.spec import lifecycle as lifecycle_mod

FDC_QV = "2.3.0"     # the fdc seeded CVE's vulnerable build


@pytest.fixture(scope="module")
def seed_cache(tmp_path_factory):
    """Train the specs the module needs exactly once; tests copy the
    cache files into private dirs so chain state never leaks between
    tests (and nothing retrains)."""
    path = str(tmp_path_factory.mktemp("lifecycle-seed"))
    registry = SpecRegistry(cache_dir=path)
    registry.get("fdc", "99.0.0")
    registry.get("fdc", FDC_QV)
    return path


@pytest.fixture
def cache_dir(seed_cache, tmp_path):
    for name in os.listdir(seed_cache):
        shutil.copy(os.path.join(seed_cache, name), str(tmp_path))
    return str(tmp_path)


@pytest.fixture
def registry(cache_dir):
    return SpecRegistry(cache_dir=cache_dir)


def distinct_candidate(spec, sentinel=0x9999):
    """A content-distinct spec: same training, one extra visited block."""
    candidate = spec_from_json(spec_to_json(spec))
    candidate.visited_blocks.add(sentinel)
    assert spec_digest(candidate) != spec_digest(spec)
    return candidate


def rare_records(device, qemu_version, count=3, base_seed=5000):
    return [RetrainRecord(tenant="t", device=device,
                          qemu_version=qemu_version, reason="near-miss",
                          io_key=f"io-{i}", seq=i, kind="rare", index=i,
                          seed=base_seed + i) for i in range(count)]


class TestGenerationChain:
    def test_bootstrap_is_idempotent_and_active(self, registry):
        first = registry.ensure_base_generation("fdc", "99.0.0")
        again = registry.ensure_base_generation("fdc", "99.0.0")
        assert first == again
        assert first.generation == 1
        assert first.provenance.startswith("train:")
        active = registry.active_generation("fdc", "99.0.0")
        assert active is not None and active.digest == first.digest

    def test_publish_appends_and_is_idempotent_on_digest(self, registry):
        base = registry.ensure_base_generation("fdc", "99.0.0")
        candidate = distinct_candidate(registry.get("fdc", "99.0.0"))
        gen = registry.publish("fdc", "99.0.0", candidate,
                               provenance="test", parents=(base.digest,),
                               coverage_gain=0.25, edge_gain=3)
        assert gen.generation == 2
        assert gen.parents == (base.digest,)
        assert gen.coverage_gain == 0.25 and gen.edge_gain == 3
        again = registry.publish("fdc", "99.0.0", candidate)
        assert again == gen
        assert len(registry.generations("fdc", "99.0.0")) == 2

    def test_publish_does_not_switch_get_traffic(self, registry):
        registry.ensure_base_generation("fdc", "99.0.0")
        base_digest = spec_digest(registry.get("fdc", "99.0.0"))
        candidate = distinct_candidate(registry.get("fdc", "99.0.0"))
        registry.publish("fdc", "99.0.0", candidate)
        assert spec_digest(registry.get("fdc", "99.0.0")) == base_digest

    def test_activate_switches_get_and_round_trips(self, cache_dir):
        registry = SpecRegistry(cache_dir=cache_dir)
        registry.ensure_base_generation("fdc", "99.0.0")
        candidate = distinct_candidate(registry.get("fdc", "99.0.0"))
        gen = registry.publish("fdc", "99.0.0", candidate,
                               provenance="test")
        registry.activate("fdc", "99.0.0", gen.digest)
        assert spec_digest(registry.get("fdc", "99.0.0")) == gen.digest

        # A fresh registry over the same cache sees the same chain, the
        # same active generation, and byte-identical spec artifacts.
        fresh = SpecRegistry(cache_dir=cache_dir)
        assert (fresh.generations("fdc", "99.0.0")
                == registry.generations("fdc", "99.0.0"))
        active = fresh.active_generation("fdc", "99.0.0")
        assert active is not None and active.digest == gen.digest
        assert (spec_to_json(fresh.spec_by_digest(gen.digest))
                == spec_to_json(candidate))
        assert spec_digest(fresh.get("fdc", "99.0.0")) == gen.digest

    def test_activate_unknown_digest_raises(self, registry):
        registry.ensure_base_generation("fdc", "99.0.0")
        with pytest.raises(SpecError, match="publish it first"):
            registry.activate("fdc", "99.0.0", "f" * 64)

    def test_tampered_generation_artifact_rejected(self, cache_dir):
        registry = SpecRegistry(cache_dir=cache_dir)
        registry.ensure_base_generation("fdc", "99.0.0")
        candidate = distinct_candidate(registry.get("fdc", "99.0.0"))
        gen = registry.publish("fdc", "99.0.0", candidate)
        path = registry.generation_spec_path(gen.digest)
        with open(path) as handle:
            envelope = json.load(handle)
        # Flip the sentinel block (0x9999 = 39321) to another address:
        # still valid JSON, but no longer the content the digest names.
        assert "39321" in envelope["spec"]
        envelope["spec"] = envelope["spec"].replace("39321", "17185", 1)
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        fresh = SpecRegistry(cache_dir=cache_dir)
        with pytest.raises(SpecError, match="content-digest"):
            fresh.spec_by_digest(gen.digest)
        assert fresh.stats.corrupt_rejected == 1


class TestRetrainReason:
    def report(self, **kwargs):
        return CheckReport(io_key="pmio:write:1", **kwargs)

    def test_trace_gap_flag_and_action(self):
        assert retrain_reason(self.report(trace_gap=True)) == "trace-gap"
        assert (retrain_reason(self.report(action=Action.TRACE_GAP))
                == "trace-gap")

    def test_incomplete_walk(self):
        assert (retrain_reason(self.report(incomplete=True))
                == "incomplete-walk")

    def test_near_miss_is_control_flow_only(self):
        near = self.report(anomalies=[
            Anomaly(Strategy.CONDITIONAL_JUMP, "unobserved-branch", "")])
        assert retrain_reason(near) == "near-miss"

    def test_parameter_violations_never_retrain(self):
        mixed = self.report(anomalies=[
            Anomaly(Strategy.CONDITIONAL_JUMP, "unobserved-branch", ""),
            Anomaly(Strategy.PARAMETER, "integer-overflow", "")])
        assert retrain_reason(mixed) is None

    def test_clean_round_is_not_a_candidate(self):
        assert retrain_reason(self.report()) is None


class TestCandidateFromRecords:
    def test_candidate_refuses_exploit_records(self):
        poisoned = [RetrainRecord(tenant="t", device="fdc",
                                  qemu_version=FDC_QV, reason="near-miss",
                                  io_key="io", seq=0, kind="exploit")]
        with pytest.raises(SpecError, match="no replayable"):
            candidate_from_records("fdc", FDC_QV, poisoned)


class TestPromotionGates:
    def config(self, **kwargs):
        kwargs.setdefault("benign_rounds", 8)
        return PromotionConfig(**kwargs)

    def test_no_candidates_is_a_refusal(self, registry):
        report = promote(registry, "fdc", "99.0.0", [], self.config())
        assert not report.promoted
        assert report.reason == "no candidate specs"

    def test_coverage_threshold_refuses_and_publishes_nothing(
            self, registry):
        base = registry.get("fdc", "99.0.0")
        clone = spec_from_json(spec_to_json(base))
        report = promote(registry, "fdc", "99.0.0", [clone],
                         self.config(min_coverage_gain=0.5))
        assert not report.promoted
        assert "coverage gain" in report.reason
        assert len(registry.generations("fdc", "99.0.0")) == 1

    def test_edge_threshold_refuses(self, registry):
        base = registry.get("fdc", "99.0.0")
        clone = spec_from_json(spec_to_json(base))
        report = promote(registry, "fdc", "99.0.0", [clone],
                         self.config(min_edge_gain=10_000))
        assert not report.promoted
        assert "edge gain" in report.reason

    def test_new_false_positive_refuses(self, registry, monkeypatch):
        calls = []

        def fake_replay(spec, device, qemu_version, ops, backend):
            calls.append(spec)
            # First replay = base: all clean.  Second = merged: one
            # round the base allowed now halts.
            if len(calls) == 1:
                return ["ok"] * len(ops)
            return ["halt"] + ["ok"] * (len(ops) - 1)

        monkeypatch.setattr(lifecycle_mod, "_replay_outcomes",
                            fake_replay)
        candidate = distinct_candidate(registry.get("fdc", "99.0.0"))
        report = promote(registry, "fdc", "99.0.0", [candidate],
                         self.config())
        assert not report.promoted
        assert report.new_false_positives == 1
        assert "false positive" in report.reason
        assert len(registry.generations("fdc", "99.0.0")) == 1

    def test_cve_escape_refuses(self, registry, monkeypatch):
        monkeypatch.setattr(lifecycle_mod, "_replay_outcomes",
                            lambda *a, **k: ["ok"] * 8)
        seen = []

        def fake_detected(spec, cve, backend):
            seen.append(cve)
            return len(seen) == 1      # base detects, merged does not

        monkeypatch.setattr(lifecycle_mod, "_cve_detected",
                            fake_detected)
        candidate = distinct_candidate(registry.get("fdc", "99.0.0"))
        report = promote(registry, "fdc", "99.0.0", [candidate],
                         self.config())
        assert not report.promoted
        assert report.escapes == ["CVE-2015-3456"]
        assert "launders" in report.reason
        assert report.cve_results["CVE-2015-3456"] == (True, False)
        assert len(registry.generations("fdc", "99.0.0")) == 1

    def test_retrained_candidate_promotes_and_activates(self, registry):
        base = registry.ensure_base_generation("fdc", FDC_QV)
        candidate = candidate_from_records(
            "fdc", FDC_QV, rare_records("fdc", FDC_QV))
        report = promote(registry, "fdc", FDC_QV, [candidate],
                         self.config(), provenance="test:retrain")
        assert report.promoted, report.reason
        assert report.generation == 2
        assert report.coverage_gain > 0
        assert report.cve_results["CVE-2015-3456"] == (True, True)
        gen = registry.active_generation("fdc", FDC_QV)
        assert gen is not None and gen.digest == report.digest
        assert gen.parents[0] == base.digest
        assert spec_digest(registry.get("fdc", FDC_QV)) == report.digest

    def test_staged_rollout_publishes_without_activating(self, registry):
        base = registry.ensure_base_generation("fdc", FDC_QV)
        candidate = candidate_from_records(
            "fdc", FDC_QV, rare_records("fdc", FDC_QV))
        report = promote(registry, "fdc", FDC_QV, [candidate],
                         self.config(activate=False))
        assert report.promoted, report.reason
        active = registry.active_generation("fdc", FDC_QV)
        assert active is not None and active.digest == base.digest
        # ... but the artifact is fetchable for a hot reload by digest.
        assert registry.spec_by_digest(report.digest) is not None

    def test_exploit_trained_candidate_is_refused_as_escape(
            self, cache_dir):
        """A candidate whose training corpus contained the PoC traffic
        legitimizes the vulnerable branch; promotion must catch the
        laundering in the CVE differential and refuse."""
        from repro.core import build_execution_spec
        from repro.errors import DeviceFault
        from repro.exploits import exploit_by_cve
        from repro.workloads.profiles import PROFILES

        exploit = exploit_by_cve("CVE-2015-5158")   # cond-jump only
        prof = PROFILES[exploit.device]
        registry = SpecRegistry(cache_dir=cache_dir)
        registry.ensure_base_generation(exploit.device,
                                        exploit.qemu_version)

        def workload(vm, device):
            driver = prof.make_driver(vm)
            prof.prepare(vm, driver)
            import random
            rng = random.Random(3)
            for _ in range(6):
                rng.choice(prof.common_ops)(vm, driver, rng)
            try:
                exploit.run(vm, device)
            except DeviceFault:
                pass

        laundering = build_execution_spec(
            lambda: prof.make_vm(exploit.qemu_version), workload).spec
        report = promote(registry, exploit.device, exploit.qemu_version,
                         [laundering], self.config())
        assert not report.promoted
        assert report.escapes == [exploit.cve]
        assert report.cve_results[exploit.cve] == (True, False)
        assert len(registry.generations(
            exploit.device, exploit.qemu_version)) == 1


class TestHotReload:
    def promoted_digest(self, registry):
        registry.ensure_base_generation("fdc", FDC_QV)
        candidate = candidate_from_records(
            "fdc", FDC_QV, rare_records("fdc", FDC_QV))
        report = promote(registry, "fdc", FDC_QV, [candidate],
                         PromotionConfig(benign_rounds=6,
                                         activate=False))
        assert report.promoted, report.reason
        return report.digest

    def test_reload_spec_validates_the_digest_eagerly(self, registry):
        with pytest.raises(SpecError):
            registry_sup = FleetSupervisor(
                FleetConfig(workers=1, inline=True,
                            cache_dir=registry.cache_dir), registry)
            registry_sup.reload_spec("fdc", "e" * 64)

    def test_stamping_is_pure_schedule_arithmetic(self, registry):
        supervisor = FleetSupervisor(
            FleetConfig(workers=1, inline=True,
                        cache_dir=registry.cache_dir), registry)
        supervisor._reloads = [
            ScheduledReload("fdc", "d1", at_seq=2),
            ScheduledReload("fdc", "d2", at_seq=4),
            ScheduledReload("scsi", "d3", at_seq=0,
                            qemu_version="archaic"),
        ]
        batches = [RequestBatch("t0", "fdc", FDC_QV, seq,
                                (OpRequest("common"),))
                   for seq in range(6)]
        batches.append(RequestBatch("t1", "scsi", "2.4.0", 6,
                                    (OpRequest("common"),)))
        stamped = [supervisor._stamp_one(b) for b in batches]
        assert [(b.spec_epoch, b.spec_digest) for b in stamped] == [
            (0, ""), (0, ""),                 # before any reload
            (1, "d1"), (1, "d1"),             # first reload applies
            (2, "d2"), (2, "d2"),             # second stacks on top
            (0, ""),                          # wrong qemu_version
        ]

    def test_mid_run_reload_keeps_detection_and_loses_nothing(
            self, registry):
        digest = self.promoted_digest(registry)
        plans = plan_tenants(["fdc"], 3, inject_cves=["CVE-2015-3456"],
                             qemu_version=FDC_QV, seed=3)
        schedule = make_schedule(plans, 4, 3, seed=3, attack_batch=3)
        reload_at = 2 * len(plans)          # batch-boundary midpoint
        supervisor = FleetSupervisor(
            FleetConfig(workers=2, inline=True,
                        cache_dir=registry.cache_dir), registry)
        supervisor.reload_spec("fdc", digest, at_seq=reload_at)
        result = supervisor.run(schedule, plans)

        stats = result.stats
        assert stats.spec_reloads == len(plans)
        assert stats.lost == 0 and stats.duplicate_results == 0
        # The PoC lands *after* the swap and is still caught.
        assert stats.detections == 1
        assert (result.quarantined_tenants()
                == result.attacked_tenants())
        benign = [s for s in result.tenants.values() if not s.attacked]
        assert all(s.completed == s.submitted and not s.quarantined
                   for s in benign)

    def test_in_flight_batches_finish_under_the_old_spec(self, registry):
        """A reload scheduled mid-batch-row only applies to batches at
        or after its seq: earlier seqs keep epoch 0 even in the same
        round-robin row."""
        digest = self.promoted_digest(registry)
        plans = plan_tenants(["fdc"], 2, qemu_version=FDC_QV)
        schedule = make_schedule(plans, 2, 2, seed=1)
        supervisor = FleetSupervisor(
            FleetConfig(workers=1, inline=True,
                        cache_dir=registry.cache_dir), registry)
        supervisor.reload_spec("fdc", digest, at_seq=1)
        stamped = [supervisor._stamp_one(b) for b in schedule]
        assert stamped[0].spec_epoch == 0
        assert all(b.spec_epoch == 1 for b in stamped[1:])

    def test_instance_stamps_reports_with_spec_epoch(self):
        """The guarded instance stamps each recorded report with the
        spec generation it ran under, across a hot reload."""
        from repro.checker import Mode
        from repro.exploits.corpus import trained_spec
        from repro.exploits.pocs import EXPLOITS
        from repro.fleet.instance import GuardedInstance

        venom = next(e for e in EXPLOITS if e.cve == "CVE-2015-3456")
        spec = trained_spec("fdc", venom.qemu_version)
        instance = GuardedInstance("t0", "fdc", venom.qemu_version,
                                   spec, mode=Mode.PROTECTION)
        instance.reload_spec(spec, epoch=3, digest="d3")
        outcome = instance.apply(
            OpRequest(kind="exploit", cve=venom.cve))
        assert outcome.status == "detected"
        assert instance.reports[-1].spec_epoch == 3

    def test_inline_and_pool_agree_under_reload_and_faults(
            self, registry):
        """The acceptance differential: a shared fault plan (including a
        worker crash that forces a post-reload instance rebuild) plus a
        mid-run hot reload must leave the inline and multiprocessing
        paths byte-identical."""
        digest = self.promoted_digest(registry)
        plan = FaultPlan(29, (
            FaultSpec("ipt.corrupt", probability=0.02),
            FaultSpec("worker.crash", probability=1.0, max_fires=1),
        ))
        plans, schedule = build_load(
            ["fdc"], 3, 4, 2, inject_cves=["CVE-2015-3456"],
            qemu_version=FDC_QV, seed=19)
        schedule = inject_schedule_faults(schedule, plan)
        reload_at = 2 * len(plans)

        def run(inline):
            supervisor = FleetSupervisor(
                FleetConfig(workers=2, inline=inline,
                            cache_dir=registry.cache_dir,
                            backoff_base=0.01, fault_plan=plan),
                registry)
            supervisor.reload_spec("fdc", digest, at_seq=reload_at)
            return supervisor.run(schedule, plans)

        inline, pool = run(True), run(False)
        deterministic = (
            "requests", "completed", "rejected", "faults", "lost",
            "detections", "quarantined_instances", "worker_respawns",
            "instance_respawns", "trace_gaps", "infra_failures", "shed",
            "circuit_opens", "watchdog_kills", "spec_reloads",
            "retrain_candidates", "latency_samples", "io_rounds",
            "total_cycles", "makespan_cycles",
        )
        for name in deterministic:
            assert getattr(inline.stats, name) == \
                getattr(pool.stats, name), name
        assert inline.retrain == pool.retrain
        assert inline.stats.spec_reloads >= len(plans)
        assert inline.stats.worker_respawns == 1
        assert set(inline.tenants) == set(pool.tenants)
        for tenant, summary in inline.tenants.items():
            assert summary == pool.tenants[tenant], tenant

    def test_trace_gaps_feed_the_retrain_queue(self, registry):
        plan = FaultPlan(31, (
            FaultSpec("ipt.corrupt", probability=0.2),))
        plans, schedule = build_load(["fdc"], 2, 3, 3,
                                     qemu_version=FDC_QV, seed=11)
        supervisor = FleetSupervisor(
            FleetConfig(workers=1, inline=True,
                        cache_dir=registry.cache_dir, fault_plan=plan),
            registry)
        result = supervisor.run(schedule, plans)
        assert result.stats.trace_gaps > 0
        assert result.stats.retrain_candidates == len(result.retrain)
        assert result.retrain, "trace gaps should enqueue retrain work"
        for record in result.retrain:
            assert record.reason == "trace-gap"
            assert record.kind == "common"
            assert record.device == "fdc"
        # The records mint the next candidate.
        candidate = candidate_from_records("fdc", FDC_QV, result.retrain)
        assert candidate.device == registry.get("fdc", FDC_QV).device
