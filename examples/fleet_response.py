#!/usr/bin/env python3
"""Scenario: fleet operations — distributed spec training and automated
anomaly response (the paper's Section VIII future work, implemented).

Two "sites" train execution specifications on different workload slices;
the merged specification covers the union (the paper's remedy for false
positives).  The merged spec is published and activated in a fleet
registry, and a live exploit against one tenant is answered the way the
fleet answers every detection: only the attacked tenant is quarantined
while its neighbour on the same worker keeps being served, and
installing a sealed pre-attack checkpoint rolls the tenant back into
service — instead of killing the VM.
"""

import itertools
import random

from repro.core import build_execution_spec
from repro.fleet import (
    FleetConfig, FleetSupervisor, OpRequest, RequestBatch, SpecRegistry,
)
from repro.fleet.loadgen import sample_benign_op
from repro.spec import coverage_gain, merge_specs
from repro.workloads.profiles import PROFILES

DEVICE, VERSION = "sdhci", "5.2.0"      # CVE-2021-3409 vulnerable


def train_site(profile, ops_subset):
    """One site trains on its own traffic mix."""
    def workload(vm, device):
        rng = random.Random(11)
        driver = profile.make_driver(vm)
        profile.prepare(vm, driver)
        for _ in range(25):
            rng.choice(ops_subset)(vm, driver, rng)

    return build_execution_spec(
        lambda: profile.make_vm(VERSION), workload).spec


def main() -> None:
    prof = PROFILES[DEVICE]

    # -- distributed training --------------------------------------------------
    site_a = train_site(prof, prof.common_ops[:2])    # block I/O heavy
    site_b = train_site(prof, prof.common_ops[1:])    # status heavy
    merged = merge_specs(site_a, site_b)
    print(f"site A spec: {site_a.block_count()} blocks; "
          f"site B: {site_b.block_count()}; merged: "
          f"{merged.block_count()}")
    print(f"site A was missing {coverage_gain(site_a, merged):.0%} of the "
          f"merged behaviour\n")

    # -- deployment: the merged spec serves every sdhci tenant ------------------
    registry = SpecRegistry()
    generation = registry.publish(DEVICE, VERSION, merged,
                                  provenance="merged sites A+B")
    registry.activate(DEVICE, VERSION, generation.digest)
    session = FleetSupervisor(FleetConfig(workers=1, inline=True),
                              registry=registry).session()
    rng = random.Random(2)
    seqs = itertools.count()

    def submit(tenant, *ops):
        ops = ops or tuple(sample_benign_op(DEVICE, rng) for _ in range(4))
        return session.submit(
            RequestBatch(tenant, DEVICE, VERSION, next(seqs), ops))

    # Healthy traffic from two tenants sharing the worker.
    for _ in range(3):
        submit("victim")
        submit("neighbour")
    pre_attack = session.checkpoint_tenant("victim")

    # The blksize-underflow exploit arrives.
    hit = submit("victim", OpRequest("exploit", cve="CVE-2021-3409"))
    assert hit.detections and hit.quarantined
    print(f"exploit flagged, tenant quarantined: {hit.quarantine_reason}")
    refused = submit("victim")
    print(f"victim: {refused.rejected} of {refused.submitted} ops refused "
          f"while quarantined")
    neighbour = submit("neighbour")
    assert neighbour.completed == neighbour.submitted
    print(f"neighbour: {neighbour.completed} of {neighbour.submitted} ops "
          f"served on the same worker")

    # The operator inspects, then rolls the tenant back to its sealed
    # pre-attack checkpoint.
    session.install_checkpoint(pre_attack)
    back = submit("victim")
    assert back.completed == back.submitted and not back.quarantined
    print(f"victim restored from its pre-attack checkpoint: "
          f"{back.completed} of {back.submitted} ops served again\n")
    print(session.close().stats.describe())


if __name__ == "__main__":
    main()
