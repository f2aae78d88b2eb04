"""Differential telemetry: the bytecode and reference backends must
produce byte-identical *semantic* counters for the same workload.

Timing histograms may of course differ between backends; everything a
CheckReport feeds (rounds, per-strategy check counts, actions, anomaly
causes) and everything the interpreter counts (I/O rounds, blocks,
faults) must not.  This pins the invariant the overhead benchmark and
the fleet's mixed-backend deployments rely on: switching backend changes
speed, never what the telemetry says happened.
"""

import random

import pytest

from repro.checker import Mode
from repro.core import deploy
from repro.exploits import exploit_by_cve, run_exploit
from repro.telemetry import TelemetryRegistry
from repro.workloads.profiles import PROFILES, train_device_spec

DEVICE = "fdc"
ROUNDS = 120


@pytest.fixture(scope="module")
def benign_spec():
    return train_device_spec(DEVICE, qemu_version="99.0.0", seed=7,
                             repeats=2).spec


@pytest.fixture(scope="module")
def vulnerable_spec():
    exploit = exploit_by_cve("CVE-2015-3456")
    return train_device_spec(DEVICE, qemu_version=exploit.qemu_version,
                             seed=7, repeats=2).spec


def semantic_counters(snap):
    """Everything that must be backend-invariant, with the
    backend-distinguishing labels summed away."""
    return {
        "rounds": sum(snap.counters_named("checker.rounds").values()),
        "checks": snap.label_values("checker.checks", "strategy"),
        "actions": snap.label_values("checker.actions", "action"),
        "anomaly_strategies": snap.label_values("checker.anomalies",
                                                "strategy"),
        "anomaly_kinds": snap.label_values("checker.anomalies", "kind"),
        "incomplete": sum(
            snap.counters_named("checker.incomplete_walks").values()),
        "io_rounds": sum(
            snap.counters_named("interp.io_rounds").values()),
        "blocks": sum(snap.counters_named("interp.blocks").values()),
        "faults": snap.label_values("interp.faults", "kind"),
    }


def run_benign(spec, backend):
    registry = TelemetryRegistry()
    prof = PROFILES[DEVICE]
    vm, dev = prof.make_vm("99.0.0", backend=backend)
    deploy(vm, dev, spec, mode=Mode.ENHANCEMENT, backend=backend,
           recorder=registry.recorder("checker"))
    dev.machine.set_recorder(registry.recorder("interp"))
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    rng = random.Random(13)
    ops = prof.common_ops
    weights = prof.op_weights
    attachment = vm.attachments[dev.NAME]
    while attachment.checked_rounds < ROUNDS:
        if weights:
            op = rng.choices(ops, weights=weights, k=1)[0]
        else:
            op = rng.choice(ops)
        op(vm, driver, rng)
    return registry.snapshot()


def run_attacked(spec, backend):
    """CVE-2015-3456 at the vulnerable build, ENHANCEMENT mode: the
    checker warns and keeps serving, so the anomaly counters fill in."""
    exploit = exploit_by_cve("CVE-2015-3456")
    registry = TelemetryRegistry()
    prof = PROFILES[DEVICE]
    vm, dev = prof.make_vm(exploit.qemu_version, backend=backend)
    deploy(vm, dev, spec, mode=Mode.ENHANCEMENT, backend=backend,
           recorder=registry.recorder("checker"))
    dev.machine.set_recorder(registry.recorder("interp"))
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    run_exploit(vm, dev, exploit)
    return registry.snapshot()


class TestBackendCounterParity:
    def test_benign_workload_counters_identical(self, benign_spec):
        bytecode = semantic_counters(run_benign(benign_spec, "bytecode"))
        reference = semantic_counters(run_benign(benign_spec,
                                                 "reference"))
        assert bytecode == reference
        # And the workload actually exercised the pipeline.
        assert bytecode["rounds"] >= ROUNDS
        assert sum(bytecode["checks"].values()) > 0
        assert bytecode["io_rounds"] > 0
        assert bytecode["blocks"] > 0

    def test_violation_counters_identical_under_attack(self,
                                                       vulnerable_spec):
        bytecode = semantic_counters(
            run_attacked(vulnerable_spec, "bytecode"))
        reference = semantic_counters(
            run_attacked(vulnerable_spec, "reference"))
        assert bytecode == reference
        # The attack must be visible — otherwise parity is vacuous.
        assert sum(bytecode["anomaly_strategies"].values()) > 0
        assert bytecode["actions"].get("warn", 0) > 0
