"""Differential tests: the bytecode ES-Checker backend vs the
reference spec walker.

The bytecode checker's contract mirrors the bytecode Machine's:
bit-exact observables.  Every ``CheckReport`` (action, anomaly list,
walk counters, incompleteness, final shadow state), the checker's cycle
accounting, and the shadow device state must be identical whichever
backend walked the spec — across all seven device profiles under benign
workloads, and across every seeded CVE PoC.  In particular, every
detection the reference walker fires must still fire on the bytecode
backend.  The reference walker remains the semantic oracle.
"""

import random

import pytest

from repro.checker import BACKENDS, Mode
from repro.core import deploy
from repro.exploits.pocs import EXPLOITS, run_exploit
from repro.vm.machine import SEDSpecHalt
from repro.workloads.profiles import PROFILES, train_device_spec

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi",
               "virtio-net", "virtio-blk")
# BACKENDS lists the reference oracle first.


@pytest.fixture(scope="module")
def spec_cache():
    """Specs are expensive to train; share them across every test in the
    module, keyed exactly like eval.security's cache."""
    return {}


def _spec(cache, device, qemu_version="99.0.0"):
    key = (device, qemu_version)
    if key not in cache:
        cache[key] = train_device_spec(
            device, qemu_version=qemu_version).spec
    return cache[key]


def _recorded(attachment):
    """Record every report the deployed checker returns, with its final
    state read at return time (the checker itself keeps none)."""
    checker = attachment.checker
    check_io, check_batch = checker.check_io, checker.check_batch
    log = []

    def recording_check_io(key, args=(), oracle=None):
        report = check_io(key, args, oracle=oracle)
        log.append((report, report.final_state))
        return report

    def recording_check_batch(rounds, oracle=None):
        reports = check_batch(rounds, oracle=oracle)
        log.extend((report, report.final_state) for report in reports)
        return reports

    checker.check_io = recording_check_io
    checker.check_batch = recording_check_batch
    attachment.reports = log
    return attachment


def _assert_checkers_identical(ref_att, bc_att):
    """Full observable equality between two checker deployments."""
    # dataclass equality covers io_key, action, anomalies,
    # blocks_walked, dsod_stmts_executed and incomplete
    assert ref_att.reports == bc_att.reports
    ref, bc = ref_att.checker, bc_att.checker
    assert ref.cycles == bc.cycles
    assert ref.device_state.dump() == bc.device_state.dump()


@pytest.mark.parametrize("name", ALL_DEVICES)
class TestProfileDifferential:
    """Benign traffic through a deployed checker, one run per backend."""

    def test_workload_reports_identical(self, name, spec_cache):
        spec = _spec(spec_cache, name)
        prof = PROFILES[name]
        attachments = []
        for backend in BACKENDS:
            vm, device = prof.make_vm()
            attachment = _recorded(deploy(vm, device, spec,
                                          mode=Mode.ENHANCEMENT,
                                          backend=backend))
            driver = prof.make_driver(vm)
            prof.prepare(vm, driver)
            rng = random.Random(2024)
            for op in prof.common_ops + prof.rare_ops:
                op(vm, driver, rng)
            attachments.append((attachment, device))
        ref_att, ref_dev = attachments[0]
        for bc_att, bc_dev in attachments[1:]:
            _assert_checkers_identical(ref_att, bc_att)
            assert ref_att.checked_rounds == bc_att.checked_rounds
            assert ref_att.warnings == bc_att.warnings
            assert ref_att.halts == bc_att.halts
            assert bytes(ref_dev.state.data) == bytes(bc_dev.state.data)

    def test_rounds_were_actually_checked(self, name, spec_cache):
        """Guard against the differential passing vacuously."""
        spec = _spec(spec_cache, name)
        prof = PROFILES[name]
        vm, device = prof.make_vm()
        attachment = deploy(vm, device, spec, mode=Mode.ENHANCEMENT)
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        assert attachment.checked_rounds > 0
        assert attachment.checker.cycles > 0


@pytest.mark.parametrize("exploit", EXPLOITS, ids=lambda e: e.cve)
class TestExploitDifferential:
    """Every seeded CVE PoC, protection mode, all strategies."""

    def _run(self, exploit, spec, backend):
        prof = PROFILES[exploit.device]
        vm, device = prof.make_vm(exploit.qemu_version)
        attachment = _recorded(deploy(vm, device, spec,
                                      mode=Mode.PROTECTION,
                                      backend=backend))
        outcome = run_exploit(vm, device, exploit)
        return outcome, attachment, device

    def test_outcome_and_reports_identical(self, exploit, spec_cache):
        spec = _spec(spec_cache, exploit.device, exploit.qemu_version)
        ref_out, ref_att, ref_dev = self._run(exploit, spec, "reference")
        bc_out, bc_att, bc_dev = self._run(exploit, spec, "bytecode")
        assert ref_out == bc_out
        _assert_checkers_identical(ref_att, bc_att)
        assert ref_att.halts == bc_att.halts
        assert ref_dev.halted == bc_dev.halted

    @pytest.mark.parametrize("backend", ["bytecode"])
    def test_detection_still_fires_fast(self, exploit, backend,
                                        spec_cache):
        """The point of the whole exercise: no CVE goes undetected just
        because the fast backend walked the spec."""
        spec = _spec(spec_cache, exploit.device, exploit.qemu_version)
        outcome, attachment, _ = self._run(exploit, spec, backend)
        if exploit.expected_miss:
            assert not outcome.detected
        else:
            assert outcome.detected
            assert attachment.halts


class TestHaltParity:
    """A protection-mode halt raises through vm._io identically."""

    def test_halt_raised_on_both_backends(self, spec_cache):
        from repro.exploits import exploit_by_cve

        exploit = exploit_by_cve("CVE-2015-3456")
        spec = _spec(spec_cache, exploit.device, exploit.qemu_version)
        messages = []
        for backend in BACKENDS:
            prof = PROFILES[exploit.device]
            vm, device = prof.make_vm(exploit.qemu_version)
            deploy(vm, device, spec, mode=Mode.PROTECTION,
                   backend=backend)
            with pytest.raises(SEDSpecHalt) as exc:
                exploit.run(vm, device)
            report = exc.value.report
            messages.append((report.io_key, report.action,
                             tuple(report.anomalies)))
        assert all(m == messages[0] for m in messages[1:])
