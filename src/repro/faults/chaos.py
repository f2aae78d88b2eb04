"""Chaos campaigns: seeded fault injection with safety invariants.

A campaign runs the fleet loadgen under an armed :class:`FaultPlan` —
same seed, same faults, byte-for-byte identical report — and checks the
two invariants that make degradation *safe* rather than merely graceful:

* **I1 — no escape (fail-closed):** every tenant carrying a seeded CVE
  is detected and quarantined; an injected infrastructure fault may
  *refuse* the exploit round (that is fail-closed working as designed)
  but must never let it run unvetted.
* **I2 — no collateral:** no benign tenant is security-quarantined.
  Injected infra faults degrade to ``TRACE_GAP``/shed outcomes, which by
  construction never feed quarantine; if one does, the infra/security
  boundary has a hole.

Campaign reports carry no wall-clock fields and serialize with sorted
keys, so the same seed reproduces the same bytes — replayability is the
debugging story: a failing campaign IS its own reproducer.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import (
    FaultInjector, FaultPlan, FaultSpec, corrupt_cache_dir, plan_to_json,
)
from repro.interp.machine import DEFAULT_BACKEND

#: Devices hosting the five seeded CVEs (one detectable CVE per device).
DEFAULT_DEVICES = ("fdc", "sdhci", "scsi", "ehci", "pcnet")

#: The default armed faults: every site, at probabilities low enough
#: that benign service continues (and the seeded exploit ops still get
#: served and detected) but high enough that every arm fires across a
#: default campaign.
DEFAULT_FAULT_SPECS = (
    # ipt.drop / ipt.overflow are *per-packet* draws, and a busy op pushes
    # thousands of packets, so their probabilities sit orders of magnitude
    # below the per-event arms or every busy op would lose its trace.
    FaultSpec("ipt.corrupt", probability=0.02),
    FaultSpec("ipt.drop", probability=5e-05),
    FaultSpec("ipt.overflow", probability=2e-05),
    FaultSpec("interp.step", probability=0.01),
    FaultSpec("interp.stall", probability=0.005, arg=250),
    FaultSpec("registry.truncate", probability=0.25),
    FaultSpec("registry.bitflip", probability=0.25),
    FaultSpec("worker.crash", probability=0.04, max_fires=2),
    FaultSpec("worker.hang", probability=0.0),   # needs a pool watchdog
    FaultSpec("worker.slow_start", probability=0.5, arg=2),
)


@dataclass(frozen=True)
class CampaignConfig:
    seeds: Tuple[int, ...] = (101, 102, 103, 104, 105)
    #: the campaign's TenantPolicy degradation mode and retry budget
    policy: str = "fail-closed"
    max_retries: int = 2
    devices: Tuple[str, ...] = DEFAULT_DEVICES
    tenants: int = 10
    batches_per_tenant: int = 4
    ops_per_batch: int = 3
    #: one CVE per device is seeded explicitly; this adds fraction-drawn
    #: extras on top (kept 0 by default: 5 CVEs, 5 benign tenants)
    inject_fraction: float = 0.0
    workers: int = 2
    inline: bool = True             # reproducible by construction
    specs: Tuple[FaultSpec, ...] = DEFAULT_FAULT_SPECS
    cache_dir: Optional[str] = None  # None: throwaway tempdir per seed


@dataclass
class SeedOutcome:
    """One seed's run: fault materialization, fleet stats, invariants."""

    seed: int
    fault_batches: Dict[str, int] = field(default_factory=dict)
    registry_corruptions: int = 0
    corrupt_rejected: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    attacked: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    cves_detected: int = 0
    cves_total: int = 0
    escapes: List[str] = field(default_factory=list)
    false_quarantines: List[str] = field(default_factory=list)

    @property
    def i1_ok(self) -> bool:
        return not self.escapes

    @property
    def i2_ok(self) -> bool:
        return not self.false_quarantines


@dataclass
class CampaignReport:
    policy: str
    seeds: Tuple[int, ...]
    plan_json: str
    outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(o.i1_ok and o.i2_ok for o in self.outcomes)

    @property
    def total_detected(self) -> int:
        return sum(o.cves_detected for o in self.outcomes)

    @property
    def total_cves(self) -> int:
        return sum(o.cves_total for o in self.outcomes)

    def to_obj(self) -> Dict:
        return {
            "policy": self.policy,
            "seeds": list(self.seeds),
            "plan": json.loads(self.plan_json),
            "passed": self.passed,
            "cves": {"detected": self.total_detected,
                     "total": self.total_cves},
            "outcomes": [{
                "seed": o.seed,
                "fault_batches": dict(sorted(o.fault_batches.items())),
                "registry_corruptions": o.registry_corruptions,
                "corrupt_rejected": o.corrupt_rejected,
                "stats": dict(sorted(o.stats.items())),
                "attacked": sorted(o.attacked),
                "quarantined": sorted(o.quarantined),
                "cves_detected": o.cves_detected,
                "cves_total": o.cves_total,
                "escapes": sorted(o.escapes),
                "false_quarantines": sorted(o.false_quarantines),
                "i1_no_escape": o.i1_ok,
                "i2_no_collateral": o.i2_ok,
            } for o in self.outcomes],
        }

    def to_json(self) -> str:
        """Byte-for-byte reproducible: sorted keys, no wall-clock."""
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"

    def describe(self) -> str:
        lines = [f"chaos campaign: policy={self.policy} "
                 f"seeds={list(self.seeds)} "
                 f"{'PASS' if self.passed else 'FAIL'}",
                 f"  CVEs detected: {self.total_detected}"
                 f"/{self.total_cves}"]
        for o in self.outcomes:
            stats = o.stats
            lines.append(
                f"  seed {o.seed}: "
                f"completed={stats.get('completed', 0)} "
                f"trace_gaps={stats.get('trace_gaps', 0)} "
                f"infra={stats.get('infra_failures', 0)} "
                f"shed={stats.get('shed', 0)} "
                f"respawns={stats.get('worker_respawns', 0)} "
                f"quarantined={len(o.quarantined)}/{len(o.attacked)} "
                f"I1={'ok' if o.i1_ok else 'ESCAPE:' + str(o.escapes)} "
                f"I2={'ok' if o.i2_ok else 'FALSE-Q:' + str(o.false_quarantines)}")
        return "\n".join(lines)


#: FleetStats fields echoed into the report — every one deterministic
#: under a seeded inline run (no wall-clock, no queue races).
_STAT_FIELDS = (
    "requests", "completed", "rejected", "faults", "lost", "detections",
    "quarantined_instances", "worker_respawns", "instance_respawns",
    "trace_gaps", "infra_failures", "shed", "circuit_opens",
    "watchdog_kills", "io_rounds",
)


def seeded_cves(devices) -> List[str]:
    """One detectable CVE per device, in device order."""
    from repro.fleet.loadgen import detectable_cves

    picks: List[str] = []
    for device in devices:
        pool = detectable_cves([device])
        if pool:
            picks.append(sorted(pool)[0])
    return picks


def run_seed(config: CampaignConfig, seed: int,
             recorder=None) -> SeedOutcome:
    """One campaign trial: build load, arm faults, run the fleet, judge
    the invariants."""
    from repro.fleet.loadgen import build_load, inject_schedule_faults
    from repro.fleet.registry import SpecRegistry
    from repro.fleet.supervisor import FleetConfig, FleetSupervisor
    from repro.policy.model import PolicySet, TenantPolicy

    # Validated before anything trains: a bad --policy/--max-retries
    # raises PolicyError here.
    policies = PolicySet(default=TenantPolicy(
        degradation=config.policy, max_retries=config.max_retries))
    plan = FaultPlan(seed, config.specs)
    cves = seeded_cves(config.devices)
    plans, schedule = build_load(
        list(config.devices), config.tenants,
        config.batches_per_tenant, config.ops_per_batch,
        inject_cves=cves, inject_fraction=config.inject_fraction,
        seed=seed)
    schedule = inject_schedule_faults(schedule, plan)
    outcome = SeedOutcome(seed=seed)
    for batch in schedule:
        for op in batch.ops:
            if op.kind in ("crash", "hang") and op.seed >= 0:
                outcome.fault_batches[op.kind] = \
                    outcome.fault_batches.get(op.kind, 0) + 1
    cleanup = None
    cache_dir = config.cache_dir
    if cache_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="chaos-registry-")
        cache_dir = cleanup.name
    try:
        # Train (prime) with one registry, corrupt the persisted
        # envelopes, then serve with a *fresh* registry so the loader's
        # recovery path (reject + retrain) is what the fleet exercises.
        trainer = SpecRegistry(cache_dir=cache_dir)
        trainer.prime(sorted({(b.device, b.qemu_version)
                              for b in schedule}))
        if plan.has_site("registry."):
            injector = FaultInjector(plan.for_sites("registry."))
            applied = corrupt_cache_dir(cache_dir, injector)
            outcome.registry_corruptions = len(applied)
        registry = SpecRegistry(cache_dir=cache_dir)
        supervisor = FleetSupervisor(
            FleetConfig(workers=config.workers, inline=config.inline,
                        cache_dir=cache_dir,
                        policies=policies, fault_plan=plan),
            registry=registry, recorder=recorder)
        result = supervisor.run(schedule, plans)
        outcome.corrupt_rejected = registry.stats.corrupt_rejected
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    stats = result.stats
    outcome.stats = {name: getattr(stats, name)
                     for name in _STAT_FIELDS}
    outcome.attacked = result.attacked_tenants()
    outcome.quarantined = result.quarantined_tenants()
    attacked = set(outcome.attacked)
    outcome.cves_total = len(attacked)
    for tenant in sorted(attacked):
        summary = result.tenants[tenant]
        if summary.detections > 0 or summary.quarantined:
            outcome.cves_detected += 1
        if summary.exploit_escapes > 0:
            # An exploit round ran to completion with no detection.
            # (A *refused* exploit round — trace gap, shed, rejected —
            # is fail-closed working as designed, not an escape.)
            outcome.escapes.append(tenant)
    outcome.false_quarantines = sorted(
        t for t in outcome.quarantined if t not in attacked)
    return outcome


def run_campaign(config: Optional[CampaignConfig] = None,
                 recorder=None) -> CampaignReport:
    """The full seeded campaign: one fleet run per seed."""
    config = config or CampaignConfig()
    plan_json = plan_to_json(FaultPlan(0, config.specs))
    report = CampaignReport(policy=config.policy,
                            seeds=tuple(config.seeds),
                            plan_json=plan_json)
    for seed in config.seeds:
        report.outcomes.append(run_seed(config, seed,
                                        recorder=recorder))
    return report


@dataclass
class LadderOutcome:
    """One graduated-ladder scenario run (see
    :func:`run_ladder_scenario`).  Batch indices are the first batch in
    which each rung fired (-1: never)."""

    tenant: str = ""
    device: str = ""
    snapshot_taken: bool = False
    throttle_batch: int = -1
    restore_batch: int = -1
    fence_batch: int = -1
    throttles: int = 0
    restores: int = 0
    fences: int = 0
    quarantined: bool = False
    fenced: bool = False
    #: ops served after the fence rung fired (must be 0: fence sheds all)
    served_after_fence: int = 0

    @property
    def ladder_in_order(self) -> bool:
        """Rung 1 fired no later than rung 2, rung 2 no later than
        rung 3, and every rung actually fired."""
        return (0 <= self.throttle_batch <= self.restore_batch
                <= self.fence_batch)

    @property
    def i2_ok(self) -> bool:
        """Extended no-collateral invariant: a benign tenant driven
        through the whole ladder — including a snapshot restore — ends
        infrastructure-fenced, never security-quarantined."""
        return not self.quarantined


def run_ladder_scenario(device: str = "fdc", backend: str = DEFAULT_BACKEND,
                        healthy_batches: int = 2,
                        faulty_batches: int = 3,
                        ops_per_batch: int = 4,
                        seed: int = 207) -> LadderOutcome:
    """Drive one benign tenant through the graduated response ladder.

    Phase 1 serves *healthy_batches* of benign traffic (the policy arms
    the restore rung, so a healthy snapshot is captured).  Phase 2 arms
    a certain-fire ``interp.step`` infrastructure fault: every vetted
    round degrades to a trace gap, consecutive strikes accrue, and the
    ladder must fire **in order** — throttle (circuit opens), then
    snapshot restore, then the infrastructure fence — while the tenant,
    being benign and only infra-unlucky, is never security-quarantined
    (the I2 extension the policy layer adds).
    """
    import random

    from repro.fleet.loadgen import RequestBatch, sample_benign_op
    from repro.fleet.registry import SpecRegistry
    from repro.fleet.worker import FleetWorker
    from repro.policy.model import PolicySet, TenantPolicy

    policy = TenantPolicy(policy_id="ladder-test", throttle_after=2,
                          circuit_cooldown=1, restore_after=3,
                          quarantine_after=5)
    worker = FleetWorker(0, SpecRegistry(), backend=backend,
                         policies=PolicySet(default=policy))
    tenant = f"ladder-{device}"
    outcome = LadderOutcome(tenant=tenant, device=device)
    rng = random.Random(seed)
    seq = 0

    def next_batch() -> RequestBatch:
        nonlocal seq
        batch = RequestBatch(
            tenant, device, "99.0.0", seq,
            tuple(sample_benign_op(device, rng)
                  for _ in range(ops_per_batch)))
        seq += 1
        return batch

    results = []
    for _ in range(healthy_batches):
        results.append(worker.run_batch(next_batch()))
    record = worker.tenants[tenant]
    outcome.snapshot_taken = record.snapshot is not None

    plan = FaultPlan(seed, (FaultSpec("interp.step", probability=1.0),))
    injector = FaultInjector(plan.for_sites("interp."))
    worker.injector = injector
    record.instance.injector = injector
    for _ in range(faulty_batches):
        results.append(worker.run_batch(next_batch()))

    # The fence is permanent: follow-up traffic (even with the fault
    # disarmed) must be shed, not served — and still not quarantined.
    worker.injector = None
    record.instance.injector = None
    post_fence = worker.run_batch(next_batch())
    outcome.served_after_fence = (post_fence.completed
                                  + post_fence.rejected)
    results.append(post_fence)

    for index, result in enumerate(results):
        if result.policy_throttles and outcome.throttle_batch < 0:
            outcome.throttle_batch = index
        if result.policy_restores and outcome.restore_batch < 0:
            outcome.restore_batch = index
        if result.policy_fences and outcome.fence_batch < 0:
            outcome.fence_batch = index
        outcome.throttles += result.policy_throttles
        outcome.restores += result.policy_restores
        outcome.fences += result.policy_fences
        outcome.quarantined = outcome.quarantined or result.quarantined
        outcome.fenced = outcome.fenced or result.fenced
    return outcome


def decoder_recovery_experiment(seed: int = 7, runs: int = 200,
                                rounds: int = 40) -> Dict[str, float]:
    """Measure PSB resynchronization under injected stream loss.

    Each trial encodes a *rounds*-round packet stream, flips one keyed
    byte, and decodes resiliently.  ``recovered`` means the decoder
    either shrugged the flip off or resumed at a later sync point;
    ``tail_loss`` means the flip hit the final segment so there was no
    sync point left to find (the remainder surfaces as a trace gap —
    never an exception)."""
    from repro.faults.plan import keyed_rng
    from repro.ipt.packets import (
        PSB, Tip, TipPgd, TipPge, Tnt, decode_resilient, encode,
    )

    recovered = 0
    tail_loss = 0
    for trial in range(runs):
        rng = keyed_rng(seed, "decoder.recovery", str(trial))
        packets = []
        for r in range(rounds):
            packets.append(PSB())
            packets.append(TipPge(0x1000 + 16 * r))
            packets.append(Tnt(tuple(rng.random() < 0.5
                                     for _ in range(rng.randrange(1, 7)))))
            packets.append(Tip(0x2000 + 16 * r))
            packets.append(TipPgd(0))
        data = bytearray(encode(packets))
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        parsed = decode_resilient(bytes(data))
        if not parsed.gaps:
            recovered += 1
        elif all(g.end < len(data) for g in parsed.gaps):
            recovered += 1      # resynced at a later PSB
        else:
            tail_loss += 1
    return {
        "runs": float(runs),
        "recovered": float(recovered),
        "tail_loss": float(tail_loss),
        "recovery_rate": recovered / runs,
    }


def write_report(report: CampaignReport, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        handle.write(report.to_json())
