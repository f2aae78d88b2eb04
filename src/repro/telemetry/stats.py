"""The workload driver behind ``repro stats``.

Trains a spec, deploys it on a fresh VM with telemetry recorders
threaded into the checker and the device machine, drives benign traffic
until the requested number of checked I/O rounds, and returns the
merged snapshot plus rendering helpers for the CLI's breakdown tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.checker import DEFAULT_BACKEND, Mode
from repro.telemetry.metrics import TelemetrySnapshot
from repro.telemetry.registry import TelemetryRegistry

#: Display order of the three check strategies.
STRATEGY_ORDER = ("parameter", "indirect_jump", "conditional_jump")


@dataclass
class StatsRun:
    """One instrumented benign session's results."""

    device: str
    backend: str
    rounds: int
    snapshot: TelemetrySnapshot
    per_recorder: Dict[str, TelemetrySnapshot]


def run_stats(device: str = "fdc", rounds: int = 200,
              backend: str = DEFAULT_BACKEND, qemu_version: str = "99.0.0",
              mode: Mode = Mode.ENHANCEMENT, seed: int = 7,
              chaos_seed: int = None) -> StatsRun:
    """Run an instrumented benign workload of ~*rounds* checked rounds.

    With *chaos_seed* set, a small single-seed chaos trial (see
    :mod:`repro.faults`) runs afterwards against the same telemetry
    registry, so the fault-injection and degradation counters come out
    populated instead of all-zero.
    """
    from repro.core import deploy
    from repro.workloads.profiles import PROFILES, train_device_spec

    registry = TelemetryRegistry()
    spec = train_device_spec(device, qemu_version=qemu_version,
                             backend=backend).spec
    prof = PROFILES[device]
    vm, dev = prof.make_vm(qemu_version, backend=backend)
    deploy(vm, dev, spec, mode=mode, backend=backend,
           recorder=registry.recorder("checker"))
    dev.machine.set_recorder(registry.recorder("interp"))
    attachment = vm.attachments[dev.NAME]
    driver = prof.make_driver(vm)
    rng = random.Random(seed)
    prof.prepare(vm, driver)
    ops = prof.common_ops
    weights = prof.op_weights
    while attachment.checked_rounds < rounds:
        if weights:
            op = rng.choices(ops, weights=weights, k=1)[0]
        else:
            op = rng.choice(ops)
        op(vm, driver, rng)
    if chaos_seed is not None:
        from repro.faults import CampaignConfig, run_seed
        run_seed(CampaignConfig(seeds=(chaos_seed,), devices=(device,),
                                tenants=2, batches_per_tenant=2,
                                ops_per_batch=3),
                 chaos_seed, recorder=registry.recorder("fleet"))
    return StatsRun(device=device, backend=backend,
                    rounds=attachment.checked_rounds,
                    snapshot=registry.snapshot(),
                    per_recorder=registry.snapshots())


# -- table helpers (shared by the CLI and the tests) -------------------------

def strategy_rows(snapshot: TelemetrySnapshot) -> List[Tuple]:
    """Per-strategy (checks performed, violations flagged) rows."""
    checks = snapshot.label_values("checker.checks", "strategy")
    violations = snapshot.label_values("checker.anomalies", "strategy")
    return [(strategy, checks.get(strategy, 0),
             violations.get(strategy, 0))
            for strategy in STRATEGY_ORDER]


def latency_rows(snapshot: TelemetrySnapshot) -> List[Tuple]:
    """Latency percentile rows for every recorded histogram."""
    rows = []
    for (name, labels), hist in sorted(snapshot.histograms.items()):
        if hist.count == 0:
            continue
        rows.append((name, hist.count, int(hist.mean),
                     int(hist.percentile(0.50)),
                     int(hist.percentile(0.95)),
                     int(hist.percentile(0.99)),
                     hist.max if hist.max is not None else 0))
    return rows


#: Fleet-level degradation counters surfaced by ``repro stats``.
DEGRADATION_COUNTERS = (
    "fleet.trace_gaps", "fleet.infra_failures", "fleet.shed_requests",
    "fleet.circuit_opens", "fleet.watchdog_kills",
)


def degradation_rows(snapshot: TelemetrySnapshot) -> List[Tuple]:
    """(counter, total) rows for the degradation pipeline, followed by
    per-site ``faults.injected`` rows.  All-zero in a benign run; the
    chaos arms (``repro stats --chaos-seed`` / ``repro chaos``) fill
    them in."""
    rows = [(name, sum(snapshot.counters_named(name).values()))
            for name in DEGRADATION_COUNTERS]
    injected = snapshot.label_values("faults.injected", "site")
    for site in sorted(injected):
        rows.append((f"faults.injected[{site}]", injected[site]))
    return rows


#: Tenant-policy lifecycle counters surfaced by ``repro stats``.
POLICY_COUNTERS = (
    "fleet.policy_reloads", "fleet.migrations", "fleet.quarantines",
)

#: Graduated-ladder responses, in firing order.
POLICY_RESPONSE_ORDER = ("throttle", "restore", "fence")


def policy_rows(snapshot: TelemetrySnapshot) -> List[Tuple]:
    """(counter, total) rows for the tenant-policy lifecycle, followed
    by a per-policy breakdown of graduated-ladder responses
    (``fleet.policy_responses[<policy>.<response>]``), mirroring how the
    degradation table appends per-site fault rows."""
    rows = [(name, sum(snapshot.counters_named(name).values()))
            for name in POLICY_COUNTERS]
    by_labels: Dict[Tuple[str, str], int] = {}
    for (_, labels), value in snapshot.counters_named(
            "fleet.policy_responses").items():
        pairs = dict(labels)
        key = (pairs.get("policy", ""), pairs.get("response", ""))
        by_labels[key] = by_labels.get(key, 0) + value
    for policy in sorted({policy for policy, _ in by_labels}):
        for response in POLICY_RESPONSE_ORDER:
            value = by_labels.get((policy, response))
            if value:
                rows.append(
                    (f"fleet.policy_responses[{policy}.{response}]",
                     value))
    return rows


#: Admission / SLO counters recorded by the gateway's stats plane.
GATEWAY_COUNTERS = (
    "gateway.admitted", "gateway.quota_rejected", "gateway.queue_shed",
    "gateway.dispatches", "gateway.slo_violations",
    "gateway.tenant_moves",
)


def gateway_rows(snapshot: TelemetrySnapshot) -> List[Tuple]:
    """(counter, total) rows for the admission gateway, summed across
    arrival-pattern labels.  Empty histogram-only snapshots still get
    the zero rows, so the table shape is stable."""
    return [(name, sum(snapshot.counters_named(name).values()))
            for name in GATEWAY_COUNTERS]


def interp_summary(snapshot: TelemetrySnapshot) -> Dict[str, int]:
    """Interpreter-side totals (across label variants)."""
    return {
        "io_rounds": sum(
            snapshot.counters_named("interp.io_rounds").values()),
        "blocks": sum(snapshot.counters_named("interp.blocks").values()),
        "faults": sum(snapshot.counters_named("interp.faults").values()),
    }
