"""The four service workloads of the end-to-end benchmark.

A workload is a fixed-size *episode*: one ``Gateway.run`` over pre-built
``build_streams`` input, or one ``FleetSupervisor.run`` over a pre-built
schedule.  Everything the program receives — tenant plans, arrival
streams, batch schedules — is generated here from ``seed``; workloads set
only deployment settings (shards, lanes, coalescing, ``batch_rounds``,
admission, pool size).  Every workload pins ``backend="bytecode"``: all
open performance work targets it, it is the only backend with a batched
checker frame, and pinning keeps the baseline valid when the other
backends go away.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.fleet.loadgen import RequestBatch, TenantPlan, build_load, \
    plan_tenants
from repro.fleet.supervisor import FleetConfig
from repro.gateway import AdmissionConfig, ArrivalSpec, GatewayConfig, \
    RebalanceAction, TenantStream, build_streams

BACKEND = "bytecode"

#: Admission sized so that no workload ever rejects or sheds an op: the
#: benchmark certifies ``error_rate == 0``, and the gates still run (and
#: are timed) on every arrival.
OPEN_ADMISSION = AdmissionConfig(quota_rate_per_sec=1e6, quota_burst=4096,
                                 queue_cap=4096)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its devices and attacks, the size of one episode,
    and the deployment settings it runs under."""

    name: str
    why: str
    devices: Tuple[str, ...]
    attacks: Tuple[str, ...]
    tenants: int
    # -- gateway workloads: open loop on the simulated clock --------------
    pattern: str = "poisson"
    rate_per_s: float = 0.0
    horizon_s: float = 0.0
    shards: int = 0
    lanes: int = 0
    coalesce_max: int = 8
    batch_rounds: int = 0
    #: add one shard at mid-horizon (live-migrates the moved tenants)
    rebalance: bool = False
    # -- pool workload: closed loop, worker processes x credits ----------
    workers: int = 0
    queue_depth: int = 4
    batches: int = 0
    ops_per_batch: int = 0

    @property
    def kind(self) -> str:
        return "pool" if self.workers else "gateway"

    @property
    def clock(self) -> str:
        if self.kind == "pool":
            return (f"closed loop: {self.workers} worker processes x "
                    f"queue_depth {self.queue_depth} credits")
        return (f"open loop on the simulated clock: {self.pattern} "
                f"arrivals, {self.rate_per_s:g} ops/s per tenant over "
                f"{self.horizon_s:g} s")


STEADY = Workload(
    name="steady",
    why="long-lived tenants, coalescing ~1: per-round device interpreter "
        "+ check_io dominate; bypasses check_batch, migration and IPC",
    devices=("fdc", "pcnet"),
    attacks=("CVE-2015-3456", "CVE-2015-7504"),
    tenants=48, pattern="poisson", rate_per_s=150.0, horizon_s=0.3,
    shards=2, lanes=6, batch_rounds=0)

BURST = Workload(
    name="burst",
    why="bursty MMPP overload on 1 shard x 2 lanes: the only workload "
        "where the gateway queues and coalesces and check_batch runs",
    devices=("fdc", "pcnet"),
    attacks=("CVE-2015-3456", "CVE-2015-7512"),
    tenants=64, pattern="bursty", rate_per_s=1200.0, horizon_s=0.02,
    # coalescing capped at 4 ops (mean ~3.6) rather than the default 8:
    # twice the batches fit in a run, so ~1,500 measured batches put
    # ~15 samples beyond the wall p99 instead of ~8
    shards=1, lanes=2, coalesce_max=4, batch_rounds=8)

CHURN = Workload(
    name="churn",
    why="short-lived tenants on all 7 device models + a composite guest, "
        "shard add mid-run: instance builds, checkpoint/restore, quarantine",
    devices=("fdc", "pcnet", "ehci", "sdhci", "scsi", "virtio-net",
             "virtio-blk", "virtio-net+virtio-blk"),
    # an explicit list, so the trained spec set is the same 16 (device,
    # QEMU version) pairs for every seed
    attacks=("CVE-2015-3456", "CVE-2020-14364", "CVE-2015-7504",
             "CVE-2016-7909", "CVE-2021-3409", "CVE-2016-4439",
             "SYN:virtio-net:descriptor-loop:s11:v0",
             "SYN:virtio-blk:oob-write:s11:v0"),
    # ~3 ops per tenant: a third of all batches build an instance.  At
    # ~2 ops, half of them would, and the median batch time would sit on
    # the edge between the build and no-build modes.
    tenants=200, pattern="poisson", rate_per_s=150.0, horizon_s=0.02,
    shards=2, lanes=6, batch_rounds=0, rebalance=True)

FLEET_POOL = Workload(
    name="fleet-pool",
    why="FleetSupervisor.run on a 2-process pool: the only workload with "
        "real parallelism, IPC and RequestBatch/BatchResult pickling",
    # An odd device count: tenants take devices and pool workers round-
    # robin, so with an even count each worker would serve only some of
    # the device models, and the one with the lighter models would idle.
    devices=("fdc", "sdhci", "scsi"),
    attacks=("CVE-2015-3456", "CVE-2021-3409"),
    tenants=48, workers=2, queue_depth=4, batches=12, ops_per_batch=2)

WORKLOADS = {w.name: w for w in (STEADY, BURST, CHURN, FLEET_POOL)}


def episode_seed(seed: int, episode: int) -> int:
    """Traffic seed of a run's *episode*-th episode.  The warm-up
    (episode 0) and the first measured episode serve the run seed's own
    traffic; later episodes serve fresh traffic, so a run averages over
    more distinct ops (the op mix, and with it the work per op, varies by
    ~10 % between single episodes)."""
    if episode <= 1:
        return seed
    digest = hashlib.sha256(f"{seed}:{episode}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def scaled_tenants(workload: Workload, scale: float) -> int:
    """Tenant count at *scale*; never fewer than one tenant per device
    plus the attacked ones, so every device and attack stays present."""
    floor = len(workload.devices) + len(workload.attacks)
    return max(floor, round(workload.tenants * scale))


def plans_for(workload: Workload, seed: int,
              scale: float = 1.0) -> List[TenantPlan]:
    return plan_tenants(list(workload.devices),
                        scaled_tenants(workload, scale),
                        inject_cves=list(workload.attacks), seed=seed)


def spec_pairs(plans: Sequence[TenantPlan]) -> List[Tuple[str, str]]:
    """The (device, qemu_version) pairs a cold start must train."""
    return sorted({(p.device, p.qemu_version) for p in plans})


def arrival_spec(workload: Workload) -> ArrivalSpec:
    return ArrivalSpec(pattern=workload.pattern,
                       rate_per_sec=workload.rate_per_s,
                       horizon_s=workload.horizon_s)


def gateway_config(workload: Workload, seed: int) -> GatewayConfig:
    return GatewayConfig(shards=workload.shards,
                         workers_per_shard=workload.lanes, seed=seed,
                         coalesce_max=workload.coalesce_max,
                         admission=OPEN_ADMISSION,
                         arrival=arrival_spec(workload), inline=True,
                         backend=BACKEND,
                         batch_rounds=workload.batch_rounds)


def gateway_inputs(workload: Workload, plans: Sequence[TenantPlan],
                   seed: int
                   ) -> Tuple[List[TenantStream], List[RebalanceAction]]:
    arrival = arrival_spec(workload)
    streams = build_streams(plans, arrival, seed)
    rebalances = []
    if workload.rebalance:
        rebalances.append(RebalanceAction(
            at_cycle=arrival.horizon_cycles // 2, add=(workload.shards,)))
    return streams, rebalances


def pool_config(workload: Workload, cache_dir: str) -> FleetConfig:
    return FleetConfig(workers=workload.workers, inline=False,
                       queue_depth=workload.queue_depth, backend=BACKEND,
                       cache_dir=cache_dir)


def pool_inputs(workload: Workload, seed: int, scale: float = 1.0
                ) -> Tuple[List[TenantPlan], List[RequestBatch]]:
    return build_load(list(workload.devices),
                      scaled_tenants(workload, scale), workload.batches,
                      workload.ops_per_batch,
                      inject_cves=list(workload.attacks), seed=seed)
