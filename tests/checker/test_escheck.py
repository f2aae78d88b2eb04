"""End-to-end tests for the ES-Checker on the toy device.

Each check strategy is exercised both ways: benign traffic passes, the
matching attack trips it.
"""

import gc
import weakref

import pytest

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import (
    BACKENDS, Action, ESChecker, Mode, Strategy,
)
from repro.compiler import compile_device
from repro.errors import CheckerError, DeviceFault
from repro.interp import Machine
from repro.spec import build_spec

from tests.toydev import ToyLogic, make_toy_machine

CMD = ToyLogic.CONSTS


def make_machine(vuln=False):
    return make_toy_machine(vuln=vuln)


BENIGN = (
    [("pmio:write:1", (i,)) for i in range(4)]
    + [("pmio:write:0", (CMD["CMD_SUM"],))]
    + [("pmio:read:1", ())] * 2
    + [("pmio:write:0", (CMD["CMD_RESET"],))]
    + [("pmio:write:1", (5,)), ("pmio:read:1", ())]
)


def build_toy_spec(vuln=False, workload=None):
    machine = make_machine(vuln)
    program = machine.program
    selection = select_parameters(program)
    logger = machine.add_sink(ObservationLogger(
        "toy", selection.scalar_params | selection.funcptrs,
        selection.buffers))
    for key, args in (workload or BENIGN):
        machine.run_entry(key, args)
    return build_spec(program, logger.log, selection)


def checked_machine(spec, vuln=False, **kwargs):
    """Fresh device + booted checker, like deployment."""
    machine = make_machine(vuln)
    checker = ESChecker(spec, **kwargs)
    checker.boot_sync(machine.state)
    return machine, checker


class TestBenignTraffic:
    def test_benign_replay_all_allowed(self):
        spec = build_toy_spec()
        machine, checker = checked_machine(spec)
        for key, args in BENIGN:
            report = checker.check_io(key, args)
            assert report.action is Action.ALLOW, report.anomalies
            machine.run_entry(key, args)

    def test_shadow_state_tracks_device(self):
        spec = build_toy_spec()
        machine, checker = checked_machine(spec)
        for key, args in BENIGN:
            checker.check_io(key, args)
            machine.run_entry(key, args)
        shadow = checker.device_state.dump()
        for name, value in shadow.items():
            assert value == machine.state.read_field(name), name

    def test_checker_cost_accrues(self):
        spec = build_toy_spec()
        _, checker = checked_machine(spec)
        checker.check_io("pmio:write:1", (1,))
        assert checker.cycles > 0

    def test_unknown_io_key_flagged(self):
        spec = build_toy_spec(workload=[("pmio:write:1", (1,))])
        _, checker = checked_machine(spec)
        report = checker.check_io("pmio:read:1", ())
        assert not report.ok
        assert report.anomalies[0].kind == "unknown-io-key"


class TestParameterCheck:
    def test_buffer_overflow_detected_on_vulnerable_build(self):
        """Venom-style: unchecked push past the FIFO -> parameter check."""
        spec = build_toy_spec(vuln=True)
        machine, checker = checked_machine(spec, vuln=True)
        # Fill to capacity (benign in-training behaviour reached pos=4;
        # the spec allows any in-bounds push).
        for i in range(8):
            report = checker.check_io("pmio:write:1", (i,))
            if report.action is Action.ALLOW:
                machine.run_entry("pmio:write:1", (i,))
        # The 9th push writes fifo[8]: out of bounds.
        report = checker.check_io("pmio:write:1", (0x41,))
        assert report.action is Action.HALT
        anomaly = report.first_anomaly()
        assert anomaly.strategy is Strategy.PARAMETER
        assert anomaly.kind == "buffer-overflow"

    def test_halt_prevents_real_corruption(self):
        spec = build_toy_spec(vuln=True)
        machine, checker = checked_machine(spec, vuln=True)
        for i in range(20):
            report = checker.check_io("pmio:write:1", (i,))
            if report.action is Action.ALLOW:
                machine.run_entry("pmio:write:1", (i,))
        # Device never executed the overflowing writes: pos intact.
        assert machine.state.read_field("pos") == 8

    def test_without_checker_device_is_corrupted(self):
        machine = make_machine(vuln=True)
        for i in range(9):
            machine.run_entry("pmio:write:1", (0x60 + i,))
        # The 9th byte (0x68) landed on pos itself, then pos += 1.
        assert machine.state.read_field("pos") == 0x69

    def test_parameter_anomalies_halt_even_in_enhancement_mode(self):
        spec = build_toy_spec(vuln=True)
        _, checker = checked_machine(spec, vuln=True,
                                     mode=Mode.ENHANCEMENT)
        for i in range(8):
            checker.check_io("pmio:write:1", (i,))
        report = checker.check_io("pmio:write:1", (0xFF,))
        assert report.action is Action.HALT


class TestConditionalJumpCheck:
    def test_unobserved_branch_side_flagged(self):
        """Patched build: training never overfilled, so the bounds-check
        branch is one-sided; an overfill takes the unobserved side."""
        spec = build_toy_spec(vuln=False)
        machine, checker = checked_machine(spec)
        for i in range(8):
            report = checker.check_io("pmio:write:1", (i,))
            if report.action is Action.ALLOW:
                machine.run_entry("pmio:write:1", (i,))
        report = checker.check_io("pmio:write:1", (9,))
        assert not report.ok
        assert report.first_anomaly().strategy is Strategy.CONDITIONAL_JUMP

    def test_enhancement_mode_warns_only(self):
        spec = build_toy_spec(vuln=False)
        machine, checker = checked_machine(spec, mode=Mode.ENHANCEMENT)
        for i in range(8):
            if checker.check_io("pmio:write:1", (i,)).action is Action.ALLOW:
                machine.run_entry("pmio:write:1", (i,))
        report = checker.check_io("pmio:write:1", (9,))
        assert report.action is Action.WARN

    def test_protection_mode_halts(self):
        spec = build_toy_spec(vuln=False)
        machine, checker = checked_machine(spec, mode=Mode.PROTECTION)
        for i in range(8):
            if checker.check_io("pmio:write:1", (i,)).action is Action.ALLOW:
                machine.run_entry("pmio:write:1", (i,))
        report = checker.check_io("pmio:write:1", (9,))
        assert report.action is Action.HALT

    def test_unknown_command_flagged(self):
        spec = build_toy_spec()   # BENIGN never issues CMD_POP via port 0
        _, checker = checked_machine(spec)
        report = checker.check_io("pmio:write:0", (CMD["CMD_POP"],))
        assert not report.ok
        assert report.first_anomaly().kind == "unknown-command"

    def test_known_command_allowed(self):
        spec = build_toy_spec()
        _, checker = checked_machine(spec)
        report = checker.check_io("pmio:write:0", (CMD["CMD_RESET"],))
        assert report.action is Action.ALLOW


class TestIndirectJumpCheck:
    def exploit_corrupt_irq(self, checker, machine=None):
        """Vulnerable-build attack: overflow pos, then aim a push at the
        irq pointer's first byte, then trigger the icall via CMD_SUM."""
        # 8 legitimate pushes fill the FIFO (pos = 8).
        for i in range(8):
            checker.check_io("pmio:write:1", (i,))
            if machine:
                machine.run_entry("pmio:write:1", (i,))
        # 9th push lands on pos's low byte: set pos = 12 (then +1 = 13).
        checker.check_io("pmio:write:1", (12,))
        if machine:
            machine.run_entry("pmio:write:1", (12,))
        # 10th push writes fifo[13] = irq byte 0: pointer corrupted.
        checker.check_io("pmio:write:1", (0xAA,))
        if machine:
            machine.run_entry("pmio:write:1", (0xAA,))
        # Trigger the indirect call.
        return checker.check_io("pmio:write:0", (CMD["CMD_SUM"],))

    def test_hijack_detected_by_indirect_check_alone(self):
        spec = build_toy_spec(vuln=True)
        machine, checker = checked_machine(
            spec, vuln=True,
            strategies=frozenset({Strategy.INDIRECT_JUMP}))
        report = self.exploit_corrupt_irq(checker)
        assert not report.ok
        anomaly = report.first_anomaly()
        assert anomaly.strategy is Strategy.INDIRECT_JUMP
        assert anomaly.kind == "illegal-target"

    def test_parameter_check_fires_first_when_enabled(self):
        spec = build_toy_spec(vuln=True)
        machine, checker = checked_machine(spec, vuln=True)
        # With all strategies on, the OOB push is caught before the
        # pointer is ever corrupted.
        for i in range(8):
            checker.check_io("pmio:write:1", (i,))
        report = checker.check_io("pmio:write:1", (12,))
        assert report.first_anomaly().strategy is Strategy.PARAMETER

    def test_legitimate_icall_passes_indirect_check(self):
        spec = build_toy_spec(vuln=True)
        _, checker = checked_machine(
            spec, vuln=True,
            strategies=frozenset({Strategy.INDIRECT_JUMP}))
        for i in range(3):
            checker.check_io("pmio:write:1", (i,))
        report = checker.check_io("pmio:write:0", (CMD["CMD_SUM"],))
        assert report.ok, report.anomalies


class TestStrategyToggles:
    def test_disabled_parameter_check_is_silent(self):
        spec = build_toy_spec(vuln=True)
        _, checker = checked_machine(
            spec, vuln=True, strategies=frozenset({Strategy.CONDITIONAL_JUMP}))
        reports = [checker.check_io("pmio:write:1", (i,)) for i in range(9)]
        assert all(a.strategy is not Strategy.PARAMETER
                   for r in reports for a in r.anomalies)


class TestReportRetention:
    """The checker keeps no report: however many rounds it checks, only
    the reports its caller keeps stay alive."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dropped_reports_are_collected(self, backend):
        spec = build_toy_spec()
        _, checker = checked_machine(spec, backend=backend)
        rounds = BENIGN + [("pmio:write:7", (1,))]    # + an unknown key
        refs = [weakref.ref(checker.check_io(key, args))
                for key, args in rounds]
        refs += [weakref.ref(r) for r in checker.check_batch(rounds)]
        assert len(refs) == 2 * len(rounds)
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


class TestBackendSelection:
    def test_bytecode_is_the_default(self):
        assert ESChecker(build_toy_spec()).backend == "bytecode"

    def test_unknown_backend_rejected(self):
        spec = build_toy_spec()
        for name in ("jit", "compiled"):
            with pytest.raises(CheckerError, match="unknown backend"):
                ESChecker(spec, backend=name)
