"""Fleet benchmark: rounds/sec vs worker count + a security run.

Two parts, both written into ``BENCH_fleet.json``:

* **scaling** — the *same* benign workload served with 1/2/4/8 workers.
  Throughput and latency come from the substrate's deterministic cycle
  model (workers are parallel lanes; makespan = busiest lane), so the
  scaling curve is exact and machine-independent; host wall time is
  recorded alongside for transparency.
* **security** — a mixed run with an injected fraction of CVE PoCs; the
  payload records that exactly the attacked instances were quarantined,
  every benign tenant completed every request, and nothing was lost.
"""

from __future__ import annotations

import datetime
import platform
import tempfile
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.fleet.loadgen import (
    OpRequest, build_load, make_schedule, plan_tenants,
)
from repro.fleet.registry import SpecRegistry
from repro.fleet.supervisor import FleetConfig, FleetResult, FleetSupervisor
from repro.interp.machine import DEFAULT_BACKEND

DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)
DEFAULT_DEVICES = ("fdc", "sdhci", "scsi", "ehci")
DEFAULT_INJECT = ("CVE-2015-3456", "CVE-2021-3409")
#: the five-device seeded-CVE matrix the lifecycle smoke replays
LIFECYCLE_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi")


def _config(workers: int, inline: bool, backend: str,
            cache_dir: Optional[str]) -> FleetConfig:
    return FleetConfig(workers=workers, inline=inline, backend=backend,
                       cache_dir=cache_dir)


def _scaling_point(result: FleetResult) -> Dict[str, object]:
    stats = result.stats
    return {
        "workers": stats.workers,
        "requests": stats.requests,
        "io_rounds": stats.io_rounds,
        "rounds_per_sec": round(stats.rounds_per_sec, 1),
        "makespan_s": stats.makespan_seconds,
        "p50_request_ms": round(stats.p50_request_ms, 4),
        "p95_request_ms": round(stats.p95_request_ms, 4),
        "p99_request_ms": round(stats.p99_request_ms, 4),
        "lost": stats.lost,
        "wall_s": round(stats.wall_seconds, 3),
    }


def run_fleet_bench(worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
                    devices: Sequence[str] = DEFAULT_DEVICES,
                    tenants: int = 8, batches: int = 4, ops: int = 4,
                    inject_cves: Sequence[str] = DEFAULT_INJECT,
                    backend: str = DEFAULT_BACKEND, inline: bool = False,
                    cache_dir: Optional[str] = None,
                    seed: int = 7,
                    migration: Optional[Dict[str, object]] = None,
                    ) -> Dict[str, object]:
    """Run both parts; returns the ``BENCH_fleet.json`` payload.

    *migration*, when given, is a live-migration certification summary
    (see :func:`migration_provenance`) merged into the payload so a
    benchmark artifact records whether the numbers were produced by a
    build whose checkpoint/restore path certifies."""
    owned_tmp = None
    if cache_dir is None and not inline:
        owned_tmp = tempfile.TemporaryDirectory(prefix="sedspec-fleet-")
        cache_dir = owned_tmp.name
    registry = SpecRegistry(cache_dir=cache_dir)
    try:
        # -- scaling: identical benign schedule per worker count ----------
        plans = plan_tenants(devices, tenants, seed=seed)
        # One-time spec training/loading happens *before* the loop and is
        # reported as warmup: folding it into the first configuration's
        # wall_s made the 1-worker row look ~10s slow against like-for-
        # like 2-8 worker rows served from the primed registry.
        warm_start = time.perf_counter()
        registry.prime(sorted({(p.device, p.qemu_version)
                               for p in plans}))
        warmup_s = time.perf_counter() - warm_start
        scaling: Dict[str, object] = {}
        for workers in worker_counts:
            schedule = make_schedule(plans, batches, ops, seed=seed)
            supervisor = FleetSupervisor(
                _config(workers, inline, backend, cache_dir), registry)
            scaling[str(workers)] = _scaling_point(
                supervisor.run(schedule, plans))
        base = scaling.get(str(min(worker_counts)), {})
        base_rps = base.get("rounds_per_sec", 0) or 1
        speedups = {w: round(point["rounds_per_sec"] / base_rps, 2)
                    for w, point in scaling.items()}

        # -- security: mixed traffic with injected CVE PoCs ----------------
        sec_plans, sec_schedule = build_load(
            devices, tenants, batches, ops, inject_cves=inject_cves,
            seed=seed + 1)
        supervisor = FleetSupervisor(
            _config(min(2, max(worker_counts)), inline, backend,
                    cache_dir), registry)
        sec = supervisor.run(sec_schedule, sec_plans)
        benign = [s for s in sec.tenants.values() if not s.attacked]
        benign_ok = all(s.completed == s.submitted and s.rejected == 0
                        and not s.quarantined for s in benign)
        security = {
            "tenants": len(sec.tenants),
            "injected_cves": list(inject_cves),
            "attacked": sec.attacked_tenants(),
            "quarantined": sec.quarantined_tenants(),
            "detections": sec.stats.detections,
            "lost": sec.stats.lost,
            "benign_all_completed": benign_ok,
            "exact_quarantine": (sec.quarantined_tenants()
                                 == sec.attacked_tenants()),
            "ok": (benign_ok and sec.stats.lost == 0
                   and sec.stats.detections >= len(inject_cves)
                   and sec.quarantined_tenants()
                   == sec.attacked_tenants()),
        }
        return {
            "generated": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "clock": ("simulated: cycle model over "
                      "workloads.benchtools.CYCLES_PER_SECOND; workers "
                      "are parallel lanes, makespan = busiest lane"),
            "config": {
                "devices": list(devices), "tenants": tenants,
                "batches_per_tenant": batches, "ops_per_batch": ops,
                "backend": backend,
                "pool": "inline" if inline else "multiprocessing",
            },
            "warmup_s": round(warmup_s, 3),
            "scaling": scaling,
            "speedup_over_min_workers": speedups,
            "security": security,
            "corpus": _corpus_provenance(),
            **({"migration": migration} if migration else {}),
        }
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()


def migration_provenance(certificates) -> Dict[str, object]:
    """Fold per-backend :class:`MigrationCertificate` results into the
    provenance block ``run_fleet_bench`` embeds: migration counts, the
    certified/failed verdict per backend, and any violations — so
    BENCH_fleet.json names the exact migration surface it was produced
    under."""
    backends: Dict[str, object] = {}
    for cert in certificates:
        backends[cert.backend] = {
            "certified": cert.ok,
            "tenants": cert.tenants,
            "migrations": cert.migrations,
            "mismatched": list(cert.mismatched),
            "violations": list(cert.violations),
            "missing": list(cert.missing),
        }
    return {
        "backends": backends,
        "total_migrations": sum(b["migrations"]
                                for b in backends.values()),
        "all_certified": all(b["certified"] for b in backends.values()),
    }


def _corpus_provenance() -> Dict[str, object]:
    """Counts of the synthetic vulnerability corpus at its pinned seed —
    recorded alongside the fleet numbers so a benchmark payload names
    the exact attack surface (devices x families x variants) the
    security section's injectable ids were drawn from."""
    from repro.exploits.corpus import (
        DEFAULT_SEED, corpus_summary, generate_corpus,
    )

    summary = corpus_summary(generate_corpus())
    return {
        "seed": DEFAULT_SEED,
        "total_pocs": summary["total"],
        "by_device": summary["by_device"],
        "by_family": summary["by_family"],
    }


def _seeded_exploit(device: str):
    """The device's seeded CVE: its first detectable PoC."""
    from repro.exploits import EXPLOITS
    for exploit in EXPLOITS:
        if exploit.device == device and not exploit.expected_miss:
            return exploit
    raise ValueError(f"no detectable exploit seeded for {device!r}")


def _rare_splice(device: str, batch_index: int, seed: int) -> OpRequest:
    """The rare op spliced into *device*'s post-reload batches.

    One deterministic (index, seed) per (device, batch) — the same
    triples the rare candidate was trained on, so the promoted spec
    provably covers the spliced traffic while the base spec does not.
    """
    from repro.workloads.profiles import PROFILES
    rare = PROFILES[device].rare_ops
    return OpRequest("rare", batch_index % len(rare),
                     seed * 1000 + batch_index)


def _stats_parity(inline_stats, pool_stats) -> Dict[str, object]:
    """Compare every schedule-determined stat between the two paths."""
    fields = ("requests", "completed", "rejected", "faults", "lost",
              "detections", "quarantined_instances", "worker_respawns",
              "instance_respawns", "trace_gaps", "infra_failures",
              "shed", "circuit_opens", "watchdog_kills", "spec_reloads",
              "retrain_candidates", "latency_samples", "io_rounds",
              "total_cycles", "makespan_cycles", "p50_request_cycles",
              "p95_request_cycles", "p99_request_cycles")
    mismatched = [name for name in fields
                  if getattr(inline_stats, name)
                  != getattr(pool_stats, name)]
    return {"fields": list(fields), "mismatched": mismatched,
            "ok": not mismatched}


def run_lifecycle_smoke(devices: Sequence[str] = LIFECYCLE_DEVICES,
                        tenants: int = 6, attacked: int = 5,
                        batches: int = 4, ops: int = 4, workers: int = 2,
                        backend: str = DEFAULT_BACKEND,
                        cache_dir: Optional[str] = None,
                        seed: int = 23) -> Dict[str, object]:
    """End-to-end spec lifecycle: train → promote → hot-reload → attack.

    Per device: the base generation is bootstrapped, two partial
    candidates are trained on *disjoint* workload slices (one replays
    rare-op retrain records — the traces the enforcement fleet would
    have queued — and one trains on common ops only), and
    :func:`~repro.spec.lifecycle.promote` merges them through the
    coverage and differential-replay gates with ``activate=False``: the
    generation is published but the fleet still boots on base.

    Then a mixed fleet (``attacked`` seeded-CVE tenants plus benign
    tenants per device) runs the same schedule twice — in-process and
    multiprocessing — with a mid-run :meth:`FleetSupervisor.reload_spec`
    swapping every instance to the promoted generation at the halfway
    batch boundary.  Post-reload batches carry rare ops the base spec
    would have flagged and the PoCs land in the *last* batch, so the
    run demonstrates all three lifecycle claims at once: the reload
    loses nothing, legitimizes the rare traffic, and every seeded CVE
    is still detected post-reload.  On success the promoted generations
    are activated (the staged rollout completes).
    """
    from repro.core import build_execution_spec
    from repro.spec.lifecycle import (
        PromotionConfig, RetrainRecord, candidate_from_records, promote,
    )
    from repro.workloads.profiles import PROFILES

    if batches < 2 or ops < 2:
        raise ValueError("lifecycle smoke needs >= 2 batches and ops")
    owned_tmp = None
    if cache_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="sedspec-life-")
        cache_dir = owned_tmp.name
    registry = SpecRegistry(cache_dir=cache_dir)
    reload_batch = batches // 2
    try:
        # -- promotion: two disjoint partial candidates per device ------
        promotions: Dict[str, object] = {}
        promoted_digests: Dict[str, str] = {}
        versions: Dict[str, str] = {}
        all_plans: List[object] = []
        for i, device in enumerate(devices):
            exploit = _seeded_exploit(device)
            versions[device] = exploit.qemu_version
            registry.ensure_base_generation(device, exploit.qemu_version)
            # Candidate A: replay the rare rounds the fleet will see
            # post-reload, shaped as queued retrain records.
            records = []
            for b in range(reload_batch, batches):
                op = _rare_splice(device, b, seed)
                records.append(RetrainRecord(
                    tenant="smoke", device=device,
                    qemu_version=exploit.qemu_version,
                    reason="near-miss", io_key=f"smoke-{b}", seq=b,
                    kind="rare", index=op.index, seed=op.seed))
            cand_rare = candidate_from_records(
                device, exploit.qemu_version, records, backend=backend)

            # Candidate B: common ops only, disjoint from the rare slice.
            prof = PROFILES[device]

            def workload(vm, _device, prof=prof, salt=i):
                import random as random_mod
                rng = random_mod.Random(seed * 7 + salt)
                driver = prof.make_driver(vm)
                prof.prepare(vm, driver)
                for _ in range(12):
                    rng.choice(prof.common_ops)(vm, driver, rng)

            cand_common = build_execution_spec(
                lambda prof=prof, qv=exploit.qemu_version:
                prof.make_vm(qv, backend=backend), workload).spec

            report = promote(
                registry, device, exploit.qemu_version,
                [cand_rare, cand_common],
                PromotionConfig(benign_rounds=20, backend=backend,
                                activate=False),
                provenance="lifecycle-smoke")
            promotions[device] = {
                "promoted": report.promoted, "reason": report.reason,
                "generation": report.generation,
                "digest": report.digest,
                "coverage_gain": round(report.coverage_gain, 4),
                "edge_gain": report.edge_gain,
                "new_false_positives": report.new_false_positives,
                "removed_false_positives":
                    report.removed_false_positives,
                "cve_results": {c: list(pair) for c, pair
                                in report.cve_results.items()},
            }
            if not report.promoted:
                continue
            promoted_digests[device] = report.digest
            all_plans.extend(plan_tenants(
                [device], tenants,
                inject_cves=[exploit.cve] * attacked,
                qemu_version=exploit.qemu_version, seed=seed + i))
        all_promoted = len(promoted_digests) == len(devices)

        # -- one schedule: PoCs in the last batch, rare ops post-reload -
        schedule = make_schedule(all_plans, batches, ops, seed=seed,
                                 attack_batch=batches - 1)
        n_tenants = len(all_plans)
        spliced = []
        for batch in schedule:
            b = batch.seq // n_tenants
            if b < reload_batch:
                spliced.append(batch)
                continue
            batch_ops = list(batch.ops)
            # Slot 1: slot 0 may carry the exploit op, which must stay.
            batch_ops[1] = _rare_splice(batch.device, b, seed)
            spliced.append(replace(batch, ops=tuple(batch_ops)))
        schedule = spliced
        reload_at = reload_batch * n_tenants

        def run_fleet(inline: bool) -> FleetResult:
            supervisor = FleetSupervisor(
                _config(workers, inline, backend, cache_dir), registry)
            for device, digest in sorted(promoted_digests.items()):
                supervisor.reload_spec(device, digest, at_seq=reload_at)
            return supervisor.run(schedule, all_plans)

        inline_result = run_fleet(inline=True)
        pool_result = run_fleet(inline=False)
        parity = _stats_parity(inline_result.stats, pool_result.stats)
        parity["retrain_equal"] = (inline_result.retrain
                                   == pool_result.retrain)

        stats = inline_result.stats
        benign = [s for s in inline_result.tenants.values()
                  if not s.attacked]
        benign_ok = all(s.completed == s.submitted and s.rejected == 0
                        and not s.quarantined for s in benign)
        expected_detections = sum(
            1 for p in all_plans if p.attacked)
        fleet = {
            "tenants": n_tenants,
            "reload_at_seq": reload_at,
            "spec_reloads": stats.spec_reloads,
            "detections": stats.detections,
            "expected_detections": expected_detections,
            "lost": stats.lost,
            "duplicate_results": stats.duplicate_results,
            "retrain_candidates": stats.retrain_candidates,
            "benign_all_completed": benign_ok,
            "exact_quarantine": (inline_result.quarantined_tenants()
                                 == inline_result.attacked_tenants()),
            "parity": parity,
        }
        ok = (all_promoted and benign_ok
              and parity["ok"] and parity["retrain_equal"]
              and stats.detections == expected_detections
              and stats.lost == 0 and stats.duplicate_results == 0
              and stats.spec_reloads == n_tenants
              and fleet["exact_quarantine"])
        if ok:
            # The staged rollout completes: the generation the fleet
            # verified under live traffic becomes the default.
            for device, digest in promoted_digests.items():
                registry.activate(device, versions[device], digest)
        return {
            "generated": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "config": {
                "devices": list(devices), "tenants_per_device": tenants,
                "attacked_per_device": attacked,
                "batches_per_tenant": batches, "ops_per_batch": ops,
                "workers": workers, "backend": backend,
            },
            "promotions": promotions,
            "all_promoted": all_promoted,
            "fleet": fleet,
            "ok": ok,
        }
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()
