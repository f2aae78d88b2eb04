"""The checker entry points on a live checker: what a round may leave
behind when it fails, and which configuration it runs under.

The bytecode backend walks the committed shadow state in place, so an
exception escaping a walk must leave that state byte-identical to what
it was before the call.  And mode and strategies are plain attributes
an operator may change between rounds: the next round must follow the
new values exactly as the reference walker does.
"""

import pytest

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import (
    ALL_STRATEGIES, BACKENDS, Action, ESChecker, Mode, Strategy,
    SyncOracle,
)
from repro.compiler import DeviceLogic, compile_device, fld
from repro.interp import Machine
from repro.spec import build_spec

from tests.checker.test_escheck import CMD, build_toy_spec, checked_machine


class SyncLogic(DeviceLogic):
    """One handler that stores device state between two sync points."""

    STRUCT = "SyncCtrl"
    FIELDS = (fld("acc", "u32"), fld("rounds", "u8"))
    CONSTS = {}
    EXTERNS = ("peek",)
    ENTRIES = {"pmio:write:0": "fill"}

    def fill(self, value):
        self.rounds = self.rounds + 1
        byte = peek(value)  # noqa: F821  (extern)
        self.acc = byte
        byte = peek(value + 1)  # noqa: F821
        self.acc = self.acc + byte
        if self.acc > 300:
            self.rounds = 0
        return 0


def _peek(m, v):
    return (v * 37 + 11) & 0xFF


def _sync_spec():
    machine = Machine(compile_device(SyncLogic))
    machine.bind_extern("peek", _peek)
    selection = select_parameters(machine.program)
    logger = machine.add_sink(ObservationLogger(
        "sync", selection.scalar_params | selection.funcptrs,
        selection.buffers))
    for value in range(6):
        machine.run_entry("pmio:write:0", (value,))
    return build_spec(machine.program, logger.log, selection), machine


class CrashingOracle(SyncOracle):
    """Resolves the *n*-th sync point to ``10 * n`` until its
    *fail_at*-th call, which raises an exception that is not a
    ``CheckerError``."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def resolve(self, name):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("oracle crashed")
        return 10 * self.calls


def _sync_checker(backend):
    spec, machine = _sync_spec()
    checker = ESChecker(spec, backend=backend)
    checker.boot_sync(machine.state)
    return checker


def _shadow(checker):
    return bytes(checker.device_state.memory.data)


@pytest.mark.parametrize("backend", BACKENDS)
class TestExceptionSafety:
    """An exception escaping a walk propagates, and leaves the shadow
    state byte-identical to its value before the call."""

    def test_clean_round_moves_the_shadow_state(self, backend):
        """What the other tests rely on to not pass vacuously."""
        checker = _sync_checker(backend)
        before = _shadow(checker)
        report = checker.check_io("pmio:write:0", (3,),
                                  oracle=CrashingOracle(fail_at=0))
        assert report.action is Action.ALLOW, report.anomalies
        assert _shadow(checker) != before

    def test_check_io(self, backend):
        checker = _sync_checker(backend)
        before, cycles = _shadow(checker), checker.cycles
        oracle = CrashingOracle(fail_at=2)
        with pytest.raises(RuntimeError, match="oracle crashed"):
            checker.check_io("pmio:write:0", (3,), oracle=oracle)
        assert oracle.calls == 2      # the walk stored state, then died
        assert _shadow(checker) == before
        assert checker.cycles == cycles

    def test_check_batch(self, backend):
        checker = _sync_checker(backend)
        before, cycles = _shadow(checker), checker.cycles
        oracle = CrashingOracle(fail_at=2)
        with pytest.raises(RuntimeError, match="oracle crashed"):
            checker.check_batch([("pmio:write:0", (3,)),
                                 ("pmio:write:0", (4,))], oracle=oracle)
        assert oracle.calls == 2
        assert _shadow(checker) == before
        assert checker.cycles == cycles


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_keeps_the_rounds_before_a_raise(backend):
    """``check_batch`` is a loop of ``check_io`` calls on both backends:
    when a later round dies, the rounds before it stay committed and
    charged, exactly as if they had been checked alone, and only the
    dying round is rolled back."""
    alone = _sync_checker(backend)
    alone.check_io("pmio:write:0", (3,), oracle=CrashingOracle(fail_at=0))
    checker = _sync_checker(backend)
    before = _shadow(checker)
    oracle = CrashingOracle(fail_at=4)
    with pytest.raises(RuntimeError, match="oracle crashed"):
        checker.check_batch([("pmio:write:0", (3,)),
                             ("pmio:write:0", (4,))], oracle=oracle)
    assert oracle.calls == 4
    assert _shadow(checker) == _shadow(alone) != before
    assert checker.cycles == alone.cycles > 0


class TestLiveReconfiguration:
    """Mode and strategies changed between rounds on live checkers:
    every report equals the reference walker's and follows the
    configuration in force when it ran."""

    STEPS = (
        # (mode, strategies, round, expected action)
        (Mode.ENHANCEMENT, ALL_STRATEGIES,
         ("pmio:write:1", (1,)), Action.ALLOW),
        # the unknown command goes unflagged with its strategy off: the
        # walk stops unresolved instead
        (Mode.PROTECTION, frozenset({Strategy.PARAMETER}),
         ("pmio:write:0", (CMD["CMD_POP"],)), Action.ALLOW),
        (Mode.PROTECTION, ALL_STRATEGIES,
         ("pmio:write:0", (CMD["CMD_POP"],)), Action.HALT),
        (Mode.ENHANCEMENT, ALL_STRATEGIES,
         ("pmio:write:0", (CMD["CMD_POP"],)), Action.WARN),
        (Mode.ENHANCEMENT, frozenset({Strategy.PARAMETER,
                                      Strategy.INDIRECT_JUMP}),
         ("pmio:write:1", (2,)), Action.ALLOW),
    )

    def test_next_round_follows_new_configuration(self):
        spec = build_toy_spec()
        checkers = {backend: checked_machine(spec, backend=backend)[1]
                    for backend in BACKENDS}
        for mode, strategies, (key, args), action in self.STEPS:
            reports = {}
            for backend, checker in checkers.items():
                checker.mode = mode
                checker.strategies = strategies
                reports[backend] = checker.check_io(key, args)
            reference = reports.pop("reference")
            assert reference.action is action
            for report in reports.values():
                assert report == reference
                assert report.final_state == reference.final_state
        assert len({c.cycles for c in checkers.values()}) == 1
