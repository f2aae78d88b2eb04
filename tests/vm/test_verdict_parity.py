"""Verdict-only checking is semantics-free.

``GuestVM`` asks ``check_io(..., report_clean=False)``: a clean round
(verdict ALLOW, walk complete) comes back as ``None`` instead of a
report, and on the bytecode backend builds no report, takes no commit
snapshot and binds no final state.  The VM acts only on warnings, halts
and incomplete walks, so leaving the clean reports out must change
nothing it does.

The certificate drives every device profile (composites included), the
nine seeded CVE PoCs and the generated corpus PoCs twice: once as the VM
runs, and once with every checker forced to return full reports.  Both
runs must keep identical warnings and halts (dataclass equality plus
``final_state``), checked-round counts, checker cycles, shadow and
device state bytes, attack outcomes and ``IOStats``.  Each sweep runs
with every strategy on and again with the conditional-jump strategy
off, which turns the rare commands' and many attacks' anomalies into
incomplete walks (the rounds the VM must resync after).
"""

import random

import pytest

from repro.checker import ALL_STRATEGIES, Mode, Strategy
from repro.core import deploy
from repro.exploits.corpus import generate_corpus, trained_spec
from repro.exploits.pocs import EXPLOITS, run_exploit
from repro.workloads.profiles import profile

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi",
               "virtio-net", "virtio-blk")
COMPOSITES = ("virtio-net+virtio-blk", "fdc+sdhci")
CORPUS = generate_corpus()
STRATEGY_SETS = {
    "all": ALL_STRATEGIES,
    "no-conditional": ALL_STRATEGIES - {Strategy.CONDITIONAL_JUMP},
}


def _full_reports(checker):
    """Make *checker* return every round's full report, whatever the
    caller asked for."""
    check_io = checker.check_io

    def full(key, args=(), oracle=None, report_clean=True):
        return check_io(key, args, oracle=oracle)

    checker.check_io = full


def _counting_clean(checker, clean):
    """Pass the caller's request through; count the rounds that came
    back as ``None`` (so the lean run cannot pass vacuously)."""
    check_io = checker.check_io

    def counted(key, args=(), oracle=None, report_clean=True):
        report = check_io(key, args, oracle=oracle,
                          report_clean=report_clean)
        if report is None:
            clean.append(key)
        return report

    checker.check_io = counted


def _guarded_vm(name, qemu_version, mode, strategies, full, clean):
    vm, primary = profile(name).make_vm(qemu_version)
    for part, device in vm.devices.items():
        checker = deploy(vm, device, trained_spec(part, qemu_version),
                         mode=mode, strategies=strategies).checker
        if full:
            _full_reports(checker)
        else:
            _counting_clean(checker, clean)
    return vm, primary


def _reports(reports):
    return [(report, report.final_state) for report in reports]


def _observables(vm):
    parts = {
        name: (att.checked_rounds, _reports(att.warnings),
               _reports(att.halts), att.checker.cycles,
               bytes(att.checker.device_state.memory.data),
               bytes(vm.devices[name].state.data))
        for name, att in vm.attachments.items()}
    return parts, vm.stats


def _benign(name, strategies, full, clean):
    vm, _ = _guarded_vm(name, "99.0.0", Mode.ENHANCEMENT, strategies,
                        full, clean)
    prof = profile(name)
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    rng = random.Random(2024)
    for op in prof.common_ops + prof.rare_ops:
        op(vm, driver, rng)
    return _observables(vm)


def _attack(attack, strategies, full, clean):
    vm, device = _guarded_vm(attack.device, attack.qemu_version,
                             Mode.PROTECTION, strategies, full, clean)
    outcome = run_exploit(vm, device, attack)
    return (outcome, device.halted) + _observables(vm)


@pytest.mark.parametrize("strategies", STRATEGY_SETS)
@pytest.mark.parametrize("name", ALL_DEVICES + COMPOSITES)
def test_benign_verdicts_identical(name, strategies):
    strategies = STRATEGY_SETS[strategies]
    clean = []
    lean = _benign(name, strategies, full=False, clean=clean)
    assert lean == _benign(name, strategies, full=True, clean=None)
    assert clean, f"{name}: no round came back clean"


@pytest.mark.parametrize("strategies", STRATEGY_SETS)
@pytest.mark.parametrize("attack", EXPLOITS + tuple(CORPUS),
                         ids=lambda a: a.cve)
def test_attack_verdicts_identical(attack, strategies):
    strategies = STRATEGY_SETS[strategies]
    clean = []
    lean = _attack(attack, strategies, full=False, clean=clean)
    assert lean == _attack(attack, strategies, full=True, clean=None)
    assert clean, f"{attack.cve}: no round came back clean"
