"""Gateway benchmark: four-digit simulated-tenant scaling + invariants.

Produces the ``gateway`` section of ``BENCH_fleet.json``:

* **scaling** — for each arrival pattern (Poisson / bursty / diurnal),
  the same seeded tenant population served at increasing tenant counts
  across multiple supervisor shards, reporting p50/p95/p99
  arrival→completion latency and SLO-violation counts.  Latency and
  makespan come from the deterministic cycle model, so the curves are
  exact; wall time and one-time spec warmup are recorded separately.
* **admission** — a bursty run under deliberately tight quotas, showing
  the two admission gates (token bucket, queue bound) actually firing.
* **rebalance** — a mid-run shard add: tenants move between shards with
  zero lost/duplicated requests and every seeded CVE still detected.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.fleet.loadgen import plan_tenants
from repro.fleet.registry import SpecRegistry
from repro.gateway.admission import AdmissionConfig
from repro.gateway.arrivals import ArrivalSpec
from repro.gateway.engine import (
    Gateway, GatewayConfig, GatewayResult, RebalanceAction,
)
from repro.interp.machine import DEFAULT_BACKEND
from repro.workloads.benchtools import ARRIVAL_PATTERNS

#: Light two-device mix for the scaling sweep: keeps a 4k-tenant,
#: three-pattern matrix inside a couple of minutes of host wall time
#: while still crossing device families (block + net).
DEFAULT_GATEWAY_DEVICES = ("fdc", "pcnet")
DEFAULT_TENANT_COUNTS = (1_000, 2_000, 4_000)


def gateway_point(result: GatewayResult) -> Dict[str, object]:
    """One benchmark row from a finished gateway run."""
    s = result.stats
    failures = result.safety_failures()
    return {
        "tenants": s.tenants,
        "shards": s.shards,
        "workers_per_shard": s.workers_per_shard,
        "offered": s.offered,
        "admitted": s.admitted,
        "quota_rejected": s.quota_rejected,
        "queue_shed": s.queue_shed,
        "dispatches": s.dispatches,
        "coalesce_mean": round(s.coalesce_mean, 3),
        "makespan_ms": round(1e3 * s.makespan_seconds, 3),
        "rounds_per_sec": round(result.fleet.rounds_per_sec, 1),
        "p50_latency_ms": round(s.p50_latency_ms, 4),
        "p95_latency_ms": round(s.p95_latency_ms, 4),
        "p99_latency_ms": round(s.p99_latency_ms, 4),
        "slo_ms": round(1e3 * s.slo_cycles / 1e9, 3),
        "slo_violations": s.slo_violations,
        "slo_violation_rate": round(s.slo_violation_rate, 4),
        "detections": result.fleet.detections,
        "attacked": len(result.attacked_tenants()),
        "quarantined": len(result.quarantined_tenants()),
        "lost": result.fleet.lost,
        "duplicates": result.fleet.duplicate_results,
        "safety_failures": failures,
        "warmup_s": round(s.warmup_seconds, 3),
        "wall_s": round(s.wall_seconds, 3),
        "ok": not failures,
    }


def _spec(pattern: str, rate: float, horizon_s: float) -> ArrivalSpec:
    return ArrivalSpec(pattern=pattern, rate_per_sec=rate,
                       horizon_s=horizon_s)


def run_gateway_bench(
        tenant_counts: Sequence[int] = DEFAULT_TENANT_COUNTS,
        patterns: Sequence[str] = ARRIVAL_PATTERNS,
        shards: int = 2, workers_per_shard: int = 6,
        devices: Sequence[str] = DEFAULT_GATEWAY_DEVICES,
        inject_fraction: float = 0.008,
        rate_per_sec: float = 150.0, horizon_s: float = 0.02,
        slo_ms: float = 2.0, coalesce_max: int = 8,
        backend: str = DEFAULT_BACKEND,
        cache_dir: Optional[str] = None,
        seed: int = 7, quick: bool = False) -> Dict[str, object]:
    """The whole gateway section; see the module docstring."""
    if quick:
        tenant_counts = (256,)
        workers_per_shard = min(workers_per_shard, 2)
    registry = SpecRegistry(cache_dir=cache_dir)
    warm_start = time.perf_counter()
    probe = plan_tenants(devices, max(tenant_counts),
                         inject_fraction=inject_fraction, seed=seed)
    registry.prime(sorted({(p.device, p.qemu_version) for p in probe}))
    warmup_s = time.perf_counter() - warm_start

    def config(pattern: str, **overrides) -> GatewayConfig:
        base = dict(
            shards=shards, workers_per_shard=workers_per_shard,
            coalesce_max=coalesce_max, slo_ms=slo_ms, seed=seed,
            inline=True, backend=backend, cache_dir=cache_dir,
            arrival=_spec(pattern, rate_per_sec, horizon_s))
        base.update(overrides)
        return GatewayConfig(**base)

    # -- scaling: pattern x tenant-count matrix ---------------------------
    scaling: Dict[str, Dict[str, object]] = {}
    all_ok = True
    for pattern in patterns:
        scaling[pattern] = {}
        for tenants in tenant_counts:
            plans = plan_tenants(devices, tenants,
                                 inject_fraction=inject_fraction,
                                 seed=seed)
            gateway = Gateway(config(pattern), registry=registry)
            point = gateway_point(gateway.run(plans))
            scaling[pattern][str(tenants)] = point
            all_ok = all_ok and point["ok"]

    # -- admission: tight quotas under bursty load ------------------------
    adm_plans = plan_tenants(devices, tenant_counts[0],
                             inject_fraction=inject_fraction, seed=seed)
    adm_gateway = Gateway(
        config("bursty",
               admission=AdmissionConfig(quota_rate_per_sec=200.0,
                                         quota_burst=2, queue_cap=4)),
        registry=registry)
    adm_point = gateway_point(adm_gateway.run(adm_plans))
    admission = dict(adm_point)
    admission["gates_fired"] = (adm_point["quota_rejected"] > 0
                                or adm_point["queue_shed"] > 0)
    all_ok = all_ok and admission["ok"]

    # -- rebalance: shard add mid-horizon, nothing lost -------------------
    reb_plans = plan_tenants(devices, tenant_counts[0],
                             inject_fraction=inject_fraction, seed=seed)
    reb_gateway = Gateway(config(patterns[0]), registry=registry)
    reb_result = reb_gateway.run(
        reb_plans,
        rebalances=[RebalanceAction(
            at_cycle=int(horizon_s * 1e9) // 2, add=(shards,))])
    reb_point = gateway_point(reb_result)
    rebalance = dict(reb_point)
    rebalance["moved_tenants"] = reb_result.stats.moved_tenants
    rebalance["ok"] = (reb_point["ok"]
                       and reb_result.stats.moved_tenants > 0
                       and reb_point["lost"] == 0
                       and reb_point["duplicates"] == 0
                       and reb_point["detections"]
                       >= reb_point["attacked"])
    all_ok = all_ok and rebalance["ok"]

    return {
        "config": {
            "devices": list(devices),
            "tenant_counts": list(tenant_counts),
            "patterns": list(patterns),
            "shards": shards, "workers_per_shard": workers_per_shard,
            "rate_per_sec": rate_per_sec, "horizon_s": horizon_s,
            "slo_ms": slo_ms, "coalesce_max": coalesce_max,
            "inject_fraction": inject_fraction, "backend": backend,
            "seed": seed,
        },
        "warmup_s": round(warmup_s, 3),
        "scaling": scaling,
        "admission": admission,
        "rebalance": rebalance,
        "ok": all_ok,
    }
