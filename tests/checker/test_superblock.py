"""Fixed tests of per-key superblocks (see ``repro.interp.bytecode``,
"Chains and superblocks").

Each I/O key's walk starts at a guarded superblock: its chain decoded
once into a value table, with one guard in front for the watchdog
budget and, in the checker, a row test for a command decided on the
path.  These tests pin what the random-program property suite
(``test_bytecode_property.py``) reaches only by chance:

* the guard edges — a watchdog budget one block short of a key's walk,
  in both frames, and a command whose row excludes one block of a
  chain — walk the per-block path, with the reference walker's
  reports, faults and counters;
* each invalidation rule of the value table — a dynamic-index buffer
  store that runs past its buffer into the next field, an extern and a
  nested call that write a field between two loads — and store
  forwarding of out-of-range values into signed and unsigned fields,
  with the parameter strategy on and off;
* a two-sided branch whose arms end the round runs inside the
  superblock, on both arms.

Each case also says which path ran, by line-tracing the generated
frame: the superblock's guard and its fallback to the per-block path.
"""

import re
import sys
from contextlib import contextmanager
from typing import Dict, List, Tuple

import pytest

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import ALL_STRATEGIES, ESChecker, Strategy
from repro.compiler import DeviceLogic, arr, compile_device, reg
from repro.errors import DeviceFault
from repro.interp import Machine
from repro.spec import build_spec


class SuperLogic(DeviceLogic):
    """One handler per superblock rule; every scalar is a register, so
    each load and store is in the spec's DSOD."""

    STRUCT = "SuperCtrl"
    FIELDS = (
        reg("cmd", "u8"),
        reg("a", "i32"),
        reg("b", "u8"),
        reg("ready", "u8"),
        reg("s", "i8"),
        reg("u", "u16"),
        arr("buf", "u8", 4),
        reg("tail", "i16", doc="the field after buf"),
    )
    EXTERNS = ("bump",)
    ENTRIES = {
        "pmio:write:0": "chain",
        "pmio:write:1": "poke",
        "pmio:write:2": "extern_between",
        "pmio:write:3": "call_between",
        "pmio:write:4": "command",
        "pmio:read:0": "arms",
    }

    def chain(self, value):
        self.a = self.a + value
        if self.ready == 0:
            self.b = self.a & 0xFF
        self.s = value
        self.u = value * 300
        return self.a + self.s + self.u + self.s

    def poke(self, idx, value):
        self.b = self.tail & 0xFF
        self.buf[idx] = value
        self.a = self.tail
        return self.a + self.tail

    def extern_between(self, value):
        self.b = self.a & 0xFF
        bump(value)  # noqa: F821
        self.u = self.a & 0xFFFF
        return self.a

    def call_between(self, value):
        self.b = self.a & 0xFF
        self.helper(value)
        self.u = self.a & 0xFFFF
        return self.a

    def helper(self, value):
        self.a = self.a + value
        return 0

    def command(self, value, go):
        sed_command_decision(value)  # noqa: F821
        self.cmd = value
        if go == 0:
            return 0
        self.b = value
        if self.ready == 0:
            self.u = value
        sed_command_end()  # noqa: F821
        return 0

    def arms(self):
        if self.ready == 0:
            return self.b
        self.ready = 0
        return self.a & 0xFF


def _bump(m, value):
    """The extern writes a field the handler loads before and after."""
    m.state.write_field("a", m.state.read_field("a") + value)
    return 0


#: training: every handler (with ready 0, so `chain` and `command` train
#: one side of their ready test); under command 3 the walk leaves
#: before the gated blocks
TRAINING = (
    ("pmio:write:0", (5,)), ("pmio:write:0", (7,)),
    ("pmio:write:1", (0, 9)), ("pmio:write:1", (3, 4)),
    ("pmio:write:2", (2,)), ("pmio:write:3", (3,)),
    ("pmio:write:4", (1, 1)), ("pmio:write:4", (2, 1)),
    ("pmio:write:4", (3, 0)), ("pmio:read:0", ()),
)


@pytest.fixture(scope="module")
def program():
    return compile_device(SuperLogic)


def machine(program, backend="bytecode", **kwargs) -> Machine:
    m = Machine(program, backend=backend, **kwargs)
    m.bind_extern("bump", _bump)
    return m


@pytest.fixture(scope="module")
def spec(program):
    m = machine(program)
    selection = select_parameters(program)
    logger = m.add_sink(ObservationLogger(
        "super", selection.scalar_params | selection.funcptrs,
        selection.buffers))
    for key, args in TRAINING:
        m.run_entry(key, args)
    m.state.write_field("ready", 1)    # `arms` trains its other side
    m.run_entry("pmio:read:0", ())
    return build_spec(program, logger.log, selection)


# ---------------------------------------------------------------------------
# Which path ran
# ---------------------------------------------------------------------------

def superblock_lines(frame, guard: str, fallback: str) -> Tuple[int, int]:
    """Line numbers of the first superblock guard of *frame* matching
    *guard* whose fallback (the next line at the guard's indentation)
    is *fallback*."""
    lines = frame._bytecode_source.splitlines()
    for no, line in enumerate(lines):
        if not re.fullmatch(r"\s*" + guard, line):
            continue
        indent = len(line) - len(line.lstrip())
        for after in range(no + 1, len(lines)):
            text = lines[after]
            if len(text) - len(text.lstrip()) == indent:
                if text.strip() == fallback:
                    return no + 1, after + 1
                break
    raise AssertionError(f"no superblock guard {guard!r} -> {fallback!r}")


@contextmanager
def counting(frame, *line_numbers):
    """Count how often each of *line_numbers* of *frame*'s source runs,
    in any function the source defines (a checker's per-key entries and
    its per-block path share one source)."""
    filename = frame.__code__.co_filename
    counts: Dict[int, int] = {no: 0 for no in line_numbers}

    def local(f, event, arg):
        if event == "line" and f.f_lineno in counts:
            counts[f.f_lineno] += 1
        return local

    def start(f, event, arg):
        return local if f.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def checker_pair(program, spec, **kwargs) -> Dict[str, ESChecker]:
    checkers = {}
    for backend in ("reference", "bytecode"):
        checker = ESChecker(spec, backend=backend, **kwargs)
        checker.boot_sync(machine(program).state)
        checkers[backend] = checker
    return checkers


def check_both(checkers, rounds: List[Tuple[str, tuple]], fields=None):
    """Run *rounds* on both checkers (after poking *fields* into both
    shadow states) and require identical reports, final states, cycles
    and shadow states; returns the bytecode reports."""
    for checker in checkers.values():
        for name, value in (fields or {}).items():
            checker.device_state.memory.write_field(name, value)
    reports = {name: [checker.check_io(key, args)
                      for key, args in rounds]
               for name, checker in checkers.items()}
    assert reports["bytecode"] == reports["reference"]
    assert ([r.final_state for r in reports["bytecode"]]
            == [r.final_state for r in reports["reference"]])
    ref, fast = checkers["reference"], checkers["bytecode"]
    assert fast.cycles == ref.cycles
    assert fast.device_state.dump() == ref.device_state.dump()
    return reports["bytecode"]


def run_both(program, rounds, fields=None, **kwargs):
    """Run *rounds* on a reference and a bytecode machine; require the
    same results or faults, state, counters and flag register."""
    machines = {backend: machine(program, backend, **kwargs)
                for backend in ("reference", "bytecode")}
    outcomes = {}
    for backend, m in machines.items():
        for name, value in (fields or {}).items():
            m.state.write_field(name, value)
        log = []
        for key, args in rounds:
            try:
                log.append(m.run_entry(key, args))
            except DeviceFault as fault:
                log.append((fault.kind, str(fault)))
        outcomes[backend] = (log, bytes(m.state.data), m.cycles, m.steps,
                             m.flags)
    assert outcomes["bytecode"] == outcomes["reference"]
    return outcomes["bytecode"][0]


# ---------------------------------------------------------------------------
# Guard edges
# ---------------------------------------------------------------------------

class TestWatchdogEdge:
    def test_checker_budget_one_block_short_walks_per_block(self, program,
                                                            spec):
        blocks = ESChecker(spec, backend="reference").check_io(
            "pmio:write:0", (5,)).blocks_walked
        entry = ESChecker(spec)._bytecode.plans["pmio:write:0"][0]
        for budget, fallback in ((blocks - 1, 1), (blocks, 0)):
            checkers = checker_pair(program, spec,
                                    max_walk_blocks=budget)
            walk = checkers["bytecode"]._bytecode.walk
            guard, back = superblock_lines(walk, r"if \d+ <= _maxb:",
                                           f"_pc = {entry}")
            with counting(walk, guard, back) as runs:
                (report,) = check_both(checkers, [("pmio:write:0", (5,))])
            assert runs == {guard: 1, back: fallback}
            flagged = [a.kind for a in report.anomalies]
            assert flagged == (["walk-watchdog"] if fallback else [])

    def test_runner_budget_one_block_short_walks_per_block(self, program):
        probe = machine(program, "reference")
        probe.run_entry("pmio:write:0", (5,))
        steps = probe.steps
        runner = machine(program)._bytecode.runners["chain"]
        guard, back = superblock_lines(runner, r"if \d+ <= _lim:",
                                       "_pc = 0")
        for budget, fallback in ((steps - 1, 1), (steps, 0)):
            with counting(runner, guard, back) as runs:
                log = run_both(program, [("pmio:write:0", (5,))],
                               max_steps=budget)
            assert runs[guard] == 1
            # A guard covers the longest path through the inlined arms,
            # so one exactly as long as this round falls back too.
            assert runs[back] == 1 if fallback else runs[back] in (0, 1)
            faulted = isinstance(log[0], tuple)
            assert faulted == bool(fallback)
            if faulted:
                assert log[0][0] == "watchdog"


class TestCommandRowEdge:
    def test_command_excluded_by_one_block_walks_per_block(self, program,
                                                           spec):
        checkers = checker_pair(program, spec)
        walk = checkers["bytecode"]._bytecode.walk
        entry = checkers["bytecode"]._bytecode.plans["pmio:write:4"][0]
        gate = re.compile(r"if _cmd not in _G\d+:")
        source = walk._bytecode_source.splitlines()
        guard, _ = superblock_lines(walk, r"if \d+ <= _maxb:",
                                    f"_pc = {entry}")
        # The inline row tests of this key's superblock, and their jumps
        # to the per-block path.
        end = next(no for no in range(guard, len(source))
                   if source[no].strip() == f"_pc = {entry}")
        gates = [no + 1 for no in range(guard, end)
                 if gate.fullmatch(source[no].strip())]
        # The per-block path's gates test for a command in force first.
        per_block = [no for no, line in enumerate(source, 1)
                     if line.strip() == "if _cmd is not None:"]
        assert gates and per_block
        with counting(walk, *gates, *per_block) as runs:
            (allowed,) = check_both(checkers, [("pmio:write:4", (1, 1))])
        assert not allowed.anomalies and allowed.conditional_checks > 0
        assert sum(runs[no] for no in gates) == 2
        assert sum(runs[no] for no in per_block) == 0
        # Command 3 was decided in training but never reached the gated
        # blocks: its round leaves the superblock at the first of them
        # and the per-block path flags it.
        with counting(walk, *gates, *per_block) as runs:
            (flagged,) = check_both(checkers, [("pmio:write:4", (3, 1))])
        assert [a.kind for a in flagged.anomalies] == ["command-access"]
        assert sum(runs[no] for no in gates) == 1
        assert sum(runs[no] for no in per_block) == 1

    def test_excluded_command_without_the_strategy_is_incomplete(
            self, program, spec):
        checkers = checker_pair(
            program, spec,
            strategies=ALL_STRATEGIES - {Strategy.CONDITIONAL_JUMP})
        (report,) = check_both(checkers, [("pmio:write:4", (3, 1))])
        assert report.incomplete and not report.anomalies


# ---------------------------------------------------------------------------
# The value table's invalidation and forwarding rules
# ---------------------------------------------------------------------------

PARAM_OFF = ALL_STRATEGIES - {Strategy.PARAMETER}


class TestInvalidation:
    @pytest.mark.parametrize("strategies", [ALL_STRATEGIES, PARAM_OFF],
                             ids=["param-on", "param-off"])
    @pytest.mark.parametrize("idx", [0, 3, 4, 5, 6])
    def test_buffer_store_past_the_buffer_reaches_the_next_field(
            self, program, spec, idx, strategies):
        # idx 4 and 5 store into tail's two bytes, 6 into the struct's
        # end; the load after the store must see the stored byte.
        checkers = checker_pair(program, spec, strategies=strategies)
        reports = check_both(checkers, [("pmio:write:1", (idx, 0xA5))],
                             fields={"tail": 0x1234})
        if idx in (4, 5):
            assert reports[0].final_state["a"] != 0x1234
        log = run_both(program, [("pmio:write:1", (idx, 0xA5))],
                       fields={"tail": 0x1234})
        if idx in (4, 5):
            assert log[0] != 2 * 0x1234

    def test_extern_that_writes_a_field_between_two_loads(self, program):
        log = run_both(program, [("pmio:write:2", (9,))] * 3,
                       fields={"a": 40})
        assert log == [49, 58, 67]

    def test_call_that_writes_a_field_between_two_loads(self, program,
                                                        spec):
        log = run_both(program, [("pmio:write:3", (9,))] * 3,
                       fields={"a": 40})
        assert log == [49, 58, 67]
        reports = check_both(checker_pair(program, spec),
                             [("pmio:write:3", (9,))] * 2,
                             fields={"a": 40})
        assert [r.final_state["u"] for r in reports] == [49, 58]


class TestStoreForwarding:
    @pytest.mark.parametrize("strategies", [ALL_STRATEGIES, PARAM_OFF],
                             ids=["param-on", "param-off"])
    @pytest.mark.parametrize("value", [5, 127, 128, 200, 255, 300, -1,
                                       -129, 1 << 31, -(1 << 40)])
    def test_out_of_range_stores_reload_wrapped(self, program, spec,
                                                value, strategies):
        # s is i8, u is u16 (value * 300), a is i32: the loads after
        # each store must see the stored, wrapped value.
        checkers = checker_pair(program, spec, strategies=strategies)
        check_both(checkers, [("pmio:write:0", (value,))] * 2,
                   fields={"a": (1 << 31) - 3})
        run_both(program, [("pmio:write:0", (value,))] * 2,
                 fields={"a": (1 << 31) - 3})


class TestArms:
    @pytest.mark.parametrize("ready", [0, 1])
    def test_both_arms_end_the_round_inside_the_superblock(
            self, program, spec, ready):
        checkers = checker_pair(program, spec)
        walk = checkers["bytecode"]._bytecode.walk
        entry = checkers["bytecode"]._bytecode.plans["pmio:read:0"][0]
        guard, back = superblock_lines(walk, r"if \d+ <= _maxb:",
                                       f"_pc = {entry}")
        with counting(walk, guard, back) as runs:
            (report,) = check_both(checkers, [("pmio:read:0", ())],
                                   fields={"ready": ready, "a": 300,
                                           "b": 7})
        assert runs == {guard: 1, back: 0}
        assert not report.anomalies
        assert run_both(program, [("pmio:read:0", ())],
                        fields={"ready": ready, "a": 300, "b": 7}) == \
            [7 if ready == 0 else 300 & 0xFF]
