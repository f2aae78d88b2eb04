"""What the benchmark reports: metric names, units and clocks, the
per-layer reduction of a traced run, and the verdict certificate.

End-to-end metrics are measured with tracing off.  Per-layer metrics come
from a separate traced run (``--trace 1``).  Layers that run in only some
workloads (the gateway, the pool, migration, the individual device
models) are reported as self-time *shares* of the traced serving time, so
each is 0 where its layer does not run; their per-op and per-batch costs
are printed in the layer table and kept in the ``--out`` record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

#: (name, unit, clock) of every end-to-end metric with a regression bound.
E2E: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "ops/s", "wall"),
    ("batch_p50_ms", "ms", "wall"),
    ("batch_p99_ms", "ms", "wall"),
    ("setup_s", "s", "wall"),
    ("peak_rss_mb", "MB", "wall"),
)
#: Printed and recorded but held exactly rather than within a bound: the
#: simulated p99 is a pure function of the seed, so the verdict digest
#: (which covers every simulated statistic) pins it, and ``error_rate``
#: must be 0 for the run to certify at all.
EXACT: Tuple[Tuple[str, str, str], ...] = (
    ("sim_p99_ms", "ms", "sim"),
    ("error_rate", "ratio", "-"),
)

DEVICE_MODELS = ("fdc", "pcnet", "ehci", "sdhci", "scsi", "virtio-net",
                 "virtio-blk")

#: (name, unit) of every per-layer metric in the final line of a traced
#: run.  Counts are per measured episode.
LAYER: Tuple[Tuple[str, str], ...] = (
    ("gateway.engine.self_share", "share"),
    ("gateway.admission.share", "share"),
    ("gateway.coalesce_mean", "ops/batch"),
    ("fleet.session.self_share", "share"),
    ("fleet.session.close_share", "share"),
    ("fleet.pool.ipc_share", "share"),
    ("fleet.pool.worker_busy_share", "share"),
    ("fleet.worker.self_us_per_op", "us"),
    ("fleet.instance.builds", "count"),
    ("fleet.instance.build_ms", "ms"),
    ("fleet.instance.self_us_per_op", "us"),
    ("fleet.migration.count", "count"),
    ("fleet.migration.share", "share"),
    ("vm.rounds", "count"),
    ("vm.self_us_per_round", "us"),
    ("vm.coexec_share", "share"),
    ("device.us_per_round", "us"),
) + tuple((f"device.{name}.share", "share") for name in DEVICE_MODELS) + (
    ("checker.us_per_round", "us"),
    ("checker.rounds_per_call", "rounds/call"),
    ("checker.resyncs", "count"),
    ("setup.specs_trained", "count"),
    ("setup.train_ms_per_spec", "ms"),
    ("ipt.decode_ms_per_spec", "ms"),
    ("cfg.build_ms_per_spec", "ms"),
    ("analysis.ms_per_spec", "ms"),
    ("spec.build_ms_per_spec", "ms"),
    ("checker.lower_ms_per_spec", "ms"),
    ("runtime.gc_pause_share", "share"),
    ("runtime.gc_gen2_collections", "count"),
    ("mem.rss_after_setup_mb", "MB"),
    ("mem.growth_kb_per_op", "KB"),
)

#: Per-op / per-batch costs of the workload-specific layers: printed and
#: recorded, 0 where the layer does not run.
LAYER_DETAIL: Tuple[Tuple[str, str], ...] = (
    ("gateway.engine.self_us_per_op", "us"),
    ("gateway.admission.us_per_op", "us"),
    ("fleet.session.self_us_per_batch", "us"),
    ("fleet.session.close_ms", "ms"),
    ("fleet.pool.ipc_us_per_batch", "us"),
    ("fleet.migration.ms", "ms"),
) + tuple((f"device.{name}.us_per_round", "us") for name in DEVICE_MODELS)

#: Stats fields read off the wall clock; everything else in GatewayStats
#: and FleetStats comes from the deterministic cycle model.
WALL_FIELDS = frozenset({"wall_seconds", "warmup_seconds",
                         "queue_wait_samples", "p50_queue_wait_s",
                         "p95_queue_wait_s", "p99_queue_wait_s"})


@dataclass
class Episode:
    """One served episode, reduced to what the benchmark reports."""

    wall_s: float
    offered: int
    ops: int
    batches: int
    errors: int
    digest: str
    sim_p99_ms: float
    rounds: int = 0
    migrations: int = 0
    failures: List[str] = field(default_factory=list)
    #: wall time without probes, rescaled to the reference host speed
    scaled_s: float = 0.0
    #: host slowdown against the reference during the episode
    host_factor: float = 1.0


def verdict_digest(tenants, *stats) -> str:
    """sha256 over per-tenant (completed, detections, quarantined,
    rejected) and every simulated statistic: equal digests mean the
    modelled system made the same decisions."""
    rows = [[name, t.completed, t.detections, t.quarantined, t.rejected]
            for name, t in sorted(tenants.items())]
    sim = [{k: v for k, v in asdict(s).items() if k not in WALL_FIELDS}
           for s in stats]
    blob = json.dumps({"tenants": rows, "sim": sim}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _tenant_failures(tenants) -> Tuple[List[str], int]:
    """Certificate checks shared by both front ends, plus the count of
    ops that escaped detection or that a benign tenant did not complete."""
    failures = []
    for name, t in sorted(tenants.items()):
        if t.attacked and not (t.detections and t.quarantined):
            failures.append(f"attacked tenant {name} not detected and "
                            f"quarantined")
        if t.quarantined and not t.attacked:
            failures.append(f"benign tenant {name} quarantined")
    bad = sum(t.exploit_escapes for t in tenants.values())
    bad += sum(t.submitted - t.completed for t in tenants.values()
               if not t.attacked)
    return failures, bad


def gateway_episode(result, wall_s: float) -> Episode:
    s, fleet = result.stats, result.fleet
    failures, bad = _tenant_failures(result.tenants)
    failures = list(result.safety_failures()) + failures
    errors = (s.quota_rejected + s.queue_shed + fleet.lost
              + fleet.duplicate_results + bad)
    return Episode(wall_s=wall_s, offered=s.offered, ops=s.admitted,
                   batches=s.dispatches, errors=errors,
                   digest=verdict_digest(result.tenants, s, fleet),
                   sim_p99_ms=s.p99_latency_ms, rounds=fleet.io_rounds,
                   migrations=s.migrations, failures=failures)


def pool_episode(result, wall_s: float, batches: int = 0) -> Episode:
    """*batches*: the schedule's length, the base of the coalescing mean
    (not needed for the warm-up)."""
    from repro.fleet.migration import conservation_violations

    s = result.stats
    failures, bad = _tenant_failures(result.tenants)
    failures = conservation_violations(result) + failures
    if s.lost or s.duplicate_results:
        failures.append(f"{s.lost} lost, {s.duplicate_results} "
                        f"duplicated op(s)")
    return Episode(wall_s=wall_s, offered=s.requests, ops=s.requests,
                   batches=batches,
                   errors=s.lost + s.duplicate_results + bad,
                   digest=verdict_digest(result.tenants, s),
                   sim_p99_ms=s.p99_request_ms, rounds=s.io_rounds,
                   failures=failures)


# -- per-layer reduction -------------------------------------------------------

def per_layer(serve, setup, counts: Dict[str, int],
              info: Dict[str, float]) -> Dict[str, float]:
    """Every ``LAYER`` and ``LAYER_DETAIL`` metric of a traced run.

    *serve* and *setup* are :class:`tracing.LayerTable` s over the
    measured episodes and the in-process cold start, warm-up included
    (every process); *counts* holds the measured episodes' call
    counters; *info* their totals and the pool, GC and memory readings.
    """
    episodes = info["episodes"]
    ops = info["ops"] or 1
    root = serve.root_ns or 1

    def share(*layers: str) -> float:
        return sum(serve.own(n) for n in layers) / root

    def per(total_ns: float, n: float, unit_ns: float) -> float:
        return total_ns / n / unit_ns if n else 0.0

    rounds = serve.n("vm")
    batched = counts.get("checker.batched_rounds", 0)
    checker_calls = serve.n("checker")
    checked = checker_calls - counts.get("checker.batch_calls", 0) + batched
    device_layers = serve.prefixed("device.")
    device_calls = sum(serve.n(n) for n in device_layers)
    specs = setup.n("setup.train")
    builds = serve.n("fleet.instance.build")
    out = {
        "gateway.engine.self_share": share("gateway.engine"),
        "gateway.admission.share": share("gateway.admission"),
        "gateway.coalesce_mean": info["ops"] / (info["batches"] or 1),
        "fleet.session.self_share": share("fleet.session"),
        "fleet.session.close_share": share("fleet.session.close"),
        "fleet.pool.ipc_share": (info["ipc_ns"] / info["latency_ns"]
                                 if info["latency_ns"] else 0.0),
        "fleet.pool.worker_busy_share": info["worker_busy_share"],
        "fleet.worker.self_us_per_op": per(serve.own("fleet.worker"),
                                           ops, 1e3),
        "fleet.instance.builds": builds / episodes,
        "fleet.instance.build_ms": per(serve.total("fleet.instance.build"),
                                       builds, 1e6),
        "fleet.instance.self_us_per_op": per(
            serve.own("fleet.instance"), serve.n("fleet.instance"), 1e3),
        "fleet.migration.count": info["migrations"] / episodes,
        "fleet.migration.share": share("fleet.migration"),
        "vm.rounds": rounds / episodes,
        "vm.self_us_per_round": per(serve.own("vm") + serve.own("vm.flush"),
                                    rounds, 1e3),
        "vm.coexec_share": ((counts.get("vm.coexec_rounds", 0)
                             + counts.get("vm.credit_rounds", 0)) / rounds
                            if rounds else 0.0),
        "device.us_per_round": per(sum(serve.total(n)
                                       for n in device_layers),
                                   device_calls, 1e3),
    }
    for name in DEVICE_MODELS:
        out[f"device.{name}.share"] = share(f"device.{name}")
    out.update({
        "checker.us_per_round": per(serve.total("checker"), checked, 1e3),
        "checker.rounds_per_call": (checked / checker_calls
                                    if checker_calls else 0.0),
        "checker.resyncs": counts.get("checker.resyncs", 0) / episodes,
        "setup.specs_trained": specs,
        "setup.train_ms_per_spec": per(setup.total("setup.train"),
                                       specs, 1e6),
        "ipt.decode_ms_per_spec": per(setup.total("ipt.decode"), specs, 1e6),
        "cfg.build_ms_per_spec": per(setup.total("cfg.build"), specs, 1e6),
        "analysis.ms_per_spec": per(setup.total("analysis"), specs, 1e6),
        "spec.build_ms_per_spec": per(setup.total("spec.build"), specs, 1e6),
        # gateway workloads lower every spec in the warm-up; pool workers
        # lower afresh in every episode
        "checker.lower_ms_per_spec": per(
            serve.total("checker.lower") + setup.total("checker.lower"),
            serve.n("checker.lower") + setup.n("checker.lower"), 1e6),
        "runtime.gc_pause_share": info["gc_pause_ns"] / root,
        "runtime.gc_gen2_collections": info["gc_gen2"] / episodes,
        "mem.rss_after_setup_mb": info["rss_after_setup_mb"],
        "mem.growth_kb_per_op": info["growth_kb_per_op"],
        # detail: per-op / per-batch costs of workload-specific layers
        "gateway.engine.self_us_per_op": per(serve.own("gateway.engine"),
                                             ops, 1e3),
        "gateway.admission.us_per_op": per(
            serve.total("gateway.admission"), info["offered"], 1e3),
        "fleet.session.self_us_per_batch": per(
            serve.own("fleet.session"), serve.n("fleet.session"), 1e3),
        "fleet.session.close_ms": per(serve.total("fleet.session.close"),
                                      episodes, 1e6),
        "fleet.pool.ipc_us_per_batch": per(info["ipc_ns"],
                                           info["ipc_batches"], 1e3),
        "fleet.migration.ms": per(serve.total("fleet.migration"),
                                  episodes, 1e6),
    })
    for name in DEVICE_MODELS:
        layer = f"device.{name}"
        out[f"{layer}.us_per_round"] = per(serve.total(layer),
                                           serve.n(layer), 1e3)
    return out
