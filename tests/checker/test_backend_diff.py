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

from repro.checker import (
    ALL_STRATEGIES, BACKENDS, Action, DegradationConfig, DegradationPolicy,
    ESChecker, Mode, Strategy,
)
from repro.core import deploy
from repro.devices.fdc import FDC
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
    state read at return time (the checker itself keeps none).  The VM
    asks ``check_io`` to leave out clean rounds' reports; the spy asks
    for every round's full report instead, so the two backends are
    compared on all of them."""
    checker = attachment.checker
    check_io, check_batch = checker.check_io, checker.check_batch
    log = []

    def recording_check_io(key, args=(), oracle=None, report_clean=True):
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


class TestRoundEnd:
    """What a round leaves behind, read after the round: identical on
    both backends."""

    def test_final_state_frozen_before_resync(self, spec_cache):
        """``final_state`` is the shadow state at the round's end: a
        resync before the (lazy) read does not show through."""
        spec = _spec(spec_cache, "fdc")
        finals = {}
        for backend in BACKENDS:
            checker = ESChecker(spec, backend=backend)
            checker.boot_sync(FDC().state)
            report = checker.check_io("pmio:write:2", (0x0C,))
            assert report.action is Action.ALLOW and not report.incomplete
            other = FDC()
            other.state.write_field("dor", 0)
            other.state.write_field("msr", 0x11)
            checker.resync(other.state)
            assert checker.device_state.dump()["msr"] == 0x11
            finals[backend] = report.final_state
        assert finals["reference"]["dor"] == 0x0C
        assert finals["reference"]["msr"] == 0x80
        assert finals["bytecode"] == finals["reference"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unrecorded_sync_failure_is_incomplete(self, backend,
                                                   spec_cache):
        """With the conditional-jump strategy off, a sync failure goes
        unflagged; the round must then read as unresolved (incomplete,
        rolled back), like every other site whose anomaly is not
        recorded — never as vetted."""
        spec = _spec(spec_cache, "pcnet")
        prof = PROFILES["pcnet"]
        vm, device = prof.make_vm()
        prof.prepare(vm, prof.make_driver(vm))
        reports = {}
        for strategies in (ALL_STRATEGIES,
                           ALL_STRATEGIES - {Strategy.CONDITIONAL_JUMP}):
            checker = ESChecker(spec, strategies=strategies,
                                backend=backend)
            checker.boot_sync(device.state)
            before = bytes(checker.device_state.memory.data)
            # No oracle: the handler's sync points cannot resolve.
            reports[strategies] = checker.check_io("pmio:write:4", (1,))
            assert bytes(checker.device_state.memory.data) == before
        flagged = reports[ALL_STRATEGIES]
        assert [a.kind for a in flagged.anomalies] == ["sync-failure"]
        assert flagged.action is Action.WARN and not flagged.incomplete
        (unflagged,) = (r for k, r in reports.items()
                        if k != ALL_STRATEGIES)
        assert unflagged.anomalies == []
        assert unflagged.incomplete

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unrecorded_walk_watchdog_is_incomplete(self, backend,
                                                    spec_cache):
        """With the conditional-jump strategy off, a walk that runs out
        of its block budget goes unflagged; the round must then read as
        unresolved and roll back, never as vetted with the half-walked
        shadow state committed."""
        spec = _spec(spec_cache, "fdc")
        prof = PROFILES["fdc"]
        vm, device = prof.make_vm()
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        boot = FDC().state
        boot.data[:] = device.state.data
        rounds = []
        handle_io = device.handle_io
        device.handle_io = lambda key, args=(): (
            rounds.append((key, tuple(args))) or handle_io(key, args))
        driver.read_lba(3)
        full = ESChecker(spec, backend=backend)
        full.boot_sync(boot)
        walks = [full.check_io(key, args).blocks_walked
                 for key, args in rounds]
        last = max(range(len(rounds)), key=walks.__getitem__)
        assert rounds[last][0] == "pmio:write:5" and walks[last] >= 2
        reports = {}
        for strategies in (ALL_STRATEGIES,
                           ALL_STRATEGIES - {Strategy.CONDITIONAL_JUMP}):
            checker = ESChecker(spec, strategies=strategies,
                                backend=backend)
            checker.boot_sync(boot)
            for key, args in rounds[:last]:
                report = checker.check_io(key, args)
                assert report.action is Action.ALLOW
                assert not report.incomplete
            before = bytes(checker.device_state.memory.data)
            checker.max_walk_blocks = walks[last] // 2
            reports[strategies] = checker.check_io(*rounds[last])
            assert bytes(checker.device_state.memory.data) == before
        flagged = reports[ALL_STRATEGIES]
        assert [a.kind for a in flagged.anomalies] == ["walk-watchdog"]
        assert flagged.action is Action.WARN and not flagged.incomplete
        (unflagged,) = (r for k, r in reports.items()
                        if k != ALL_STRATEGIES)
        assert unflagged.anomalies == []
        assert unflagged.action is Action.ALLOW and unflagged.incomplete

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_policy_change_shows_in_the_next_report(self, backend,
                                                    spec_cache):
        """A degradation policy set between two ``check_io`` calls is
        the one the second call's reports carry: clean, unknown-key and
        incomplete alike."""
        checker = ESChecker(_spec(spec_cache, "fdc"), backend=backend)
        checker.boot_sync(FDC().state)
        assert checker.check_io("pmio:write:2", (0x0C,)).policy \
            == "fail-closed"
        checker.degradation = DegradationConfig(
            policy=DegradationPolicy.FAIL_OPEN)
        assert checker.check_io("pmio:write:2", (0x0C,)).policy \
            == "fail-open"
        unknown = checker.check_io("pmio:write:15", (1,))
        assert [a.kind for a in unknown.anomalies] == ["unknown-io-key"]
        assert unknown.policy == "fail-open"
        checker.max_walk_blocks = 0
        checker.degradation = DegradationConfig(
            policy=DegradationPolicy.RETRY)
        report = checker.check_io("pmio:write:2", (0x0C,))
        assert report.anomalies and report.policy == "retry"
