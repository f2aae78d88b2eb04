"""Per-key checker entries and their hand-off to the per-block path.

``ESChecker.check_io`` runs an I/O key's generated entry, which holds
the key's superblock and returns a clean exit's cycles as a literal;
wherever the key's guard fails or a path leaves the superblock, the
entry hands the walk's state to the spec's per-block path ``_walk``
(see ``repro.checker.bytecode``).

The differential sweep runs every round of every profile (composites
included), the nine seeded CVE PoCs and the generated corpus PoCs on
three more checkers in lockstep with the deployed one: the entries with
full reports, ``_walk`` entered at the key's first block, and the
reference walker.  The deployed checker answers the VM as the VM asks
(lean for clean strict rounds); every report with its final state, the
shadow bytes and the cycles must agree after every round, in protection
and enhancement mode, with the conditional-jump strategy on and off.

The seam tests line-trace a synthetic device's generated source, so
each one proves which path ran: a watchdog budget one block short,
hand-offs at a call, a switch and a visited block (and the state they
carry), a flag after a store in the entry and a per-block flag after a
hand-off (both restore the entry bytes), an oracle raising mid-
superblock, an arity mismatch, an unknown key, and telemetry on against
off.
"""

import random
import re
import sys
from collections import deque
from contextlib import contextmanager
from typing import Dict, List

import pytest

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import (
    ALL_STRATEGIES, Action, ESChecker, MappingSyncOracle, Mode,
    NullSyncOracle, QueueSyncOracle, Strategy, SyncOracle,
)
from repro.checker.bytecode import _MISS, _UNDEF
from repro.compiler import DeviceLogic, compile_device, reg
from repro.core import deploy
from repro.errors import DeviceFault
from repro.exploits.corpus import generate_corpus, trained_spec
from repro.exploits.pocs import EXPLOITS, run_exploit
from repro.interp import Machine
from repro.spec import build_spec
from repro.telemetry import TelemetryRegistry
from repro.vm.machine import SEDSpecHalt
from repro.workloads.profiles import profile

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi",
               "virtio-net", "virtio-blk")
COMPOSITES = ("virtio-net+virtio-blk", "fdc+sdhci")
CORPUS = generate_corpus()
MODES = {"protection": Mode.PROTECTION, "enhancement": Mode.ENHANCEMENT}
STRATEGY_SETS = {
    "all": ALL_STRATEGIES,
    "no-conditional": ALL_STRATEGIES - {Strategy.CONDITIONAL_JUMP},
}


# ---------------------------------------------------------------------------
# The three ways
# ---------------------------------------------------------------------------

def walk_round(checker: ESChecker, key: str, args, oracle):
    """``check_io`` with full reports, entered at the key's first block
    of the per-block path instead of at the key's entry (what an entry
    whose guard fails hands over)."""
    bspec = checker._bytecode
    plan = bspec.plans.get(key)
    if plan is None:
        return checker.check_io(key, args, oracle=oracle)
    pc, nparams, nlocals = plan
    w = checker._walk_ctx
    w.set_strategies(checker.strategies)
    w.state = checker.device_state
    report, cycles = bspec.walk(
        w, key, oracle or NullSyncOracle(), checker.mode,
        checker.max_walk_blocks, None, None, True, None, None,
        pc, (tuple(args) + (_MISS,) * nparams)[:nparams],
        [_UNDEF] * nlocals, [], 0, 0, 0, 0, 0, None, 0, None)
    checker.cycles += cycles
    return report


def fork(oracle):
    """An independent copy of a round's oracle: a co-executed round's
    harvest queues are consumed by each checker that walks it."""
    if isinstance(oracle, QueueSyncOracle):
        return QueueSyncOracle({name: deque(queue) for name, queue
                                in oracle._queues.items()},
                               fallback=oracle._fallback)
    return oracle


def shadow(checker: ESChecker) -> bytes:
    return bytes(checker.device_state.memory.data)


class Lockstep:
    """Runs every round the VM asks of its deployed checker on three
    twins as well, and holds all four to each other after each round."""

    def __init__(self, attachment, strategies):
        primary = attachment.checker
        primary.strategies = frozenset(strategies)
        self.attachment = attachment
        self.primary = primary
        self.twins = {}
        for way, backend in (("full", "bytecode"), ("walk", "bytecode"),
                             ("reference", "reference")):
            twin = ESChecker(primary.spec, mode=primary.mode,
                             strategies=strategies, backend=backend)
            twin.device_state.memory.data[:] = shadow(primary)
            self.twins[way] = twin
        self.rounds = 0
        self.keys = set()
        check_io, resync = primary.check_io, primary.resync

        def lockstep_check_io(key, args=(), oracle=None,
                              report_clean=True):
            twins = self.twins
            lean = check_io(key, args, oracle=fork(oracle),
                            report_clean=report_clean)
            full = twins["full"].check_io(key, args, oracle=fork(oracle))
            walked = walk_round(twins["walk"], key, args, fork(oracle))
            ref = twins["reference"].check_io(key, args,
                                              oracle=fork(oracle))
            assert full == walked == ref, key
            assert (full.final_state == walked.final_state
                    == ref.final_state), key
            if lean is None:
                assert not report_clean
                assert full.action is Action.ALLOW and not full.incomplete
            else:
                assert lean == full and lean.final_state == full.final_state
            for way, twin in twins.items():
                assert twin.cycles == primary.cycles, (key, way)
                assert shadow(twin) == shadow(primary), (key, way)
            self.rounds += 1
            self.keys.add(key)
            return lean

        def lockstep_resync(memory):
            resync(memory)
            for twin in self.twins.values():
                twin.resync(memory)

        primary.check_io = lockstep_check_io
        primary.resync = lockstep_resync


def _guarded_vm(name, qemu_version, mode, strategies):
    vm, primary = profile(name).make_vm(qemu_version)
    steps = [Lockstep(deploy(vm, device, trained_spec(part, qemu_version),
                             mode=mode), strategies)
             for part, device in vm.devices.items()]
    return vm, primary, steps


def _benign(name, mode, strategies):
    vm, _, steps = _guarded_vm(name, "99.0.0", mode, strategies)
    prof = profile(name)
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    rng = random.Random(2024)
    for op in prof.common_ops + prof.rare_ops:
        try:
            op(vm, driver, rng)
        except (SEDSpecHalt, DeviceFault):
            pass        # the rare ops halt in protection mode
    for step in steps:
        # Keys training used that the traffic does not reach: one round
        # each, on the checkers alone.
        for key, (_, nparams, _) in sorted(
                step.primary._bytecode.plans.items()):
            if key not in step.keys:
                step.primary.check_io(key, (0,) * nparams,
                                      oracle=step.attachment.oracle,
                                      report_clean=False)
    return steps


def _attack(attack, mode, strategies):
    vm, device, steps = _guarded_vm(attack.device, attack.qemu_version,
                                    mode, strategies)
    run_exploit(vm, device, attack)
    return steps


@pytest.mark.parametrize("strategies", STRATEGY_SETS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ALL_DEVICES + COMPOSITES)
def test_benign_rounds_agree_three_ways(name, mode, strategies):
    steps = _benign(name, MODES[mode], STRATEGY_SETS[strategies])
    for step in steps:
        assert step.keys >= set(step.primary._bytecode.plans)
        assert step.rounds > len(step.keys)


@pytest.mark.parametrize("strategies", STRATEGY_SETS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("attack", EXPLOITS + tuple(CORPUS),
                         ids=lambda a: a.cve)
def test_attack_rounds_agree_three_ways(attack, mode, strategies):
    steps = _attack(attack, MODES[mode], STRATEGY_SETS[strategies])
    assert sum(step.rounds for step in steps) > 0


# ---------------------------------------------------------------------------
# A synthetic device: one handler per seam
# ---------------------------------------------------------------------------

class KeyLogic(DeviceLogic):
    """Every scalar is a register, so each load and store is in the
    spec's DSOD."""

    STRUCT = "KeyCtrl"
    FIELDS = (
        reg("cmd", "u8"),
        reg("a", "i32"),
        reg("b", "u8"),
        reg("ready", "u8"),
    )
    EXTERNS = ("fetch",)
    ENTRIES = {
        "pmio:write:0": "call_site",
        "pmio:write:1": "switch_site",
        "pmio:write:2": "loop_site",
        "pmio:write:3": "flag_site",
        "pmio:write:4": "sync_site",
        "pmio:read:0": "pair",
    }

    def call_site(self, value):
        sed_command_decision(value)  # noqa: F821
        self.cmd = value
        t = self.a + value
        self.helper(value)
        self.a = t + self.b
        sed_command_end()  # noqa: F821
        return 0

    def helper(self, value):
        self.b = self.b + 1
        return 0

    def switch_site(self, value):
        self.a = value
        if value == 1:
            self.b = 1
        elif value == 2:
            self.b = 2
        elif value == 3:
            if self.ready == 0:
                self.b = 3
        return 0

    def loop_site(self, count):
        self.a = count
        for i in range(count):
            self.b = self.b + i
        return 0

    def flag_site(self, value):
        self.a = value
        if self.ready == 0:
            self.b = 1
        return 0

    def sync_site(self, value):
        self.a = value
        x = fetch(value)  # noqa: F821
        self.b = x
        return 0

    def pair(self):
        return self.a + self.b


def _fetch(m, value):
    return value & 0x7F


#: training, with ready 0: `flag_site` and arm 3 of `switch_site` train
#: one side of their ready test (the switch decides a command, so
#: `call_site` trains all three)
TRAINING = (
    ("pmio:write:0", (1,)), ("pmio:write:0", (2,)), ("pmio:write:0", (3,)),
    ("pmio:write:1", (1,)), ("pmio:write:1", (2,)), ("pmio:write:1", (3,)),
    ("pmio:write:2", (0,)), ("pmio:write:2", (3,)),
    ("pmio:write:3", (5,)), ("pmio:write:4", (9,)), ("pmio:read:0", ()),
)


@pytest.fixture(scope="module")
def program():
    return compile_device(KeyLogic)


@pytest.fixture(scope="module")
def spec(program):
    m = Machine(program)
    m.bind_extern("fetch", _fetch)
    selection = select_parameters(program)
    logger = m.add_sink(ObservationLogger(
        "keys", selection.scalar_params | selection.funcptrs,
        selection.buffers))
    for key, args in TRAINING:
        m.run_entry(key, args)
    return build_spec(program, logger.log, selection)


def pair(spec, fields=None, **kwargs) -> Dict[str, ESChecker]:
    """A reference and a bytecode checker with the same shadow state."""
    checkers = {}
    for backend in ("reference", "bytecode"):
        checker = ESChecker(spec, backend=backend, **kwargs)
        for name, value in (fields or {}).items():
            checker.device_state.memory.write_field(name, value)
        checkers[backend] = checker
    return checkers


def check_both(checkers, rounds, oracle=None) -> list:
    """Run *rounds* on both checkers; reports, final states, cycles and
    shadow bytes must agree.  Returns the bytecode reports."""
    reports = {}
    for name, checker in checkers.items():
        reports[name] = [checker.check_io(key, args, oracle=oracle)
                         for key, args in rounds]
    assert reports["bytecode"] == reports["reference"]
    assert ([r.final_state for r in reports["bytecode"]]
            == [r.final_state for r in reports["reference"]])
    ref, fast = checkers["reference"], checkers["bytecode"]
    assert fast.cycles == ref.cycles
    assert shadow(fast) == shadow(ref)
    return reports["bytecode"]


# ---------------------------------------------------------------------------
# Which path ran
# ---------------------------------------------------------------------------

class Source:
    """The generated source of a spec's checker, by function."""

    def __init__(self, checker: ESChecker, key: str):
        bspec = checker._bytecode
        self.walk, self.entry = bspec.walk, bspec.entries.get(key)
        self.unknown = bspec.unknown
        self.lines = self.walk._bytecode_source.splitlines()

    def span(self, fn) -> range:
        """The line numbers of *fn*'s body."""
        first = fn.__code__.co_firstlineno
        last = next((no for no in range(first + 1, len(self.lines) + 1)
                     if self.lines[no - 1].startswith("def ")),
                    len(self.lines) + 1)
        return range(first + 1, last)

    def find(self, fn, pattern: str) -> List[int]:
        """Line numbers of *fn* whose stripped text matches *pattern*."""
        return [no for no in self.span(fn)
                if re.fullmatch(pattern, self.lines[no - 1].strip())]

    def guard(self) -> int:
        (no,) = self.find(self.entry, r"if \d+ <= _maxb:")
        return no

    def handoffs(self) -> Dict[int, str]:
        """Each hand-off line of the entry -> the pc it hands over at."""
        lines = {}
        for no in self.find(self.entry, r"return _walk\(.*"):
            args = self.lines[no - 1].split("(", 1)[1].split(", ")
            lines[no] = args[10]
        return lines


@contextmanager
def counting(fn):
    """Count the lines run in every function of *fn*'s generated
    source: ``counts[(function name, line)]``."""
    filename = fn.__code__.co_filename
    counts: Dict[tuple, int] = {}

    def local(f, event, arg):
        if event == "line":
            at = (f.f_code.co_name, f.f_lineno)
            counts[at] = counts.get(at, 0) + 1
        return local

    def start(f, event, arg):
        return local if f.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def ran(counts, fn, lines) -> int:
    """How often *lines* of *fn* ran."""
    name = fn.__code__.co_name
    return sum(counts.get((name, no), 0) for no in lines)


def walked(counts) -> int:
    """Lines the per-block path ran."""
    return sum(n for (name, _), n in counts.items() if name == "_walk")


def _copied(value):
    """*value* with its lists and tuples copied (the per-block path
    pops the call stack it is handed)."""
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(item) for item in value)
    return value


@contextmanager
def spying(checker: ESChecker, name: str):
    """Wrap the generated namespace's *name* (shared by every function
    of the spec's source) with a recorder of the arguments of its
    calls."""
    namespace = checker._bytecode.walk.__globals__
    original = namespace[name]
    calls = []

    def spy(*args):
        calls.append(_copied(args))
        return original(*args)

    namespace[name] = spy
    try:
        yield calls
    finally:
        namespace[name] = original


# ---------------------------------------------------------------------------
# Seams
# ---------------------------------------------------------------------------

class TestCleanExit:
    def test_clean_round_stays_in_its_entry(self, spec):
        checkers = pair(spec)
        src = Source(checkers["bytecode"], "pmio:write:3")
        with counting(src.entry) as counts:
            check_both(checkers, [("pmio:write:3", (7,))])
        assert ran(counts, src.entry, [src.guard()]) == 1
        assert ran(counts, src.entry, src.handoffs()) == 0
        assert walked(counts) == 0

    def test_lean_clean_round_copies_no_shadow_buffer(self):
        """A warm pcnet receive round ends clean inside its entry and
        takes no entry snapshot."""
        spec = trained_spec("pcnet")
        checker = ESChecker(spec)
        checker.device_state.memory.write_field("rx_ready", 1)
        checker.device_state.memory.write_field("rx_len", 200)
        with spying(checker, "_bytes") as copies:
            reports = [checker.check_io("pmio:read:6", (),
                                        report_clean=False)
                       for _ in range(3)]
        assert reports == [None] * 3
        assert checker.device_state.memory.read_field("recv_pos") == 3
        assert copies == []


class TestWatchdog:
    def test_budget_one_block_short_hands_over_at_entry(self, spec):
        blocks = ESChecker(spec, backend="reference").check_io(
            "pmio:write:3", (7,)).blocks_walked
        for budget, over in ((blocks - 1, True), (blocks, False)):
            checkers = pair(spec, max_walk_blocks=budget)
            src = Source(checkers["bytecode"], "pmio:write:3")
            fallback = max(src.handoffs())
            with counting(src.entry) as counts:
                (report,) = check_both(checkers, [("pmio:write:3", (7,))])
            assert ran(counts, src.entry, [src.guard()]) == 1
            assert ran(counts, src.entry, [fallback]) == int(over)
            assert bool(walked(counts)) == over
            assert [a.kind for a in report.anomalies] == (
                ["walk-watchdog"] if over else [])


class TestHandoffs:
    def test_call_carries_the_walk_state(self, spec):
        checkers = pair(spec, fields={"a": 40, "b": 2})
        fast = checkers["bytecode"]
        src = Source(fast, "pmio:write:0")
        before = shadow(fast)
        with spying(fast, "_walk") as calls:
            with counting(src.entry) as counts:
                (report,) = check_both(checkers, [("pmio:write:0", (1,))])
        assert not report.anomalies and report.final_state["a"] == 44
        assert report.conditional_checks > 0
        ((w, key, orc, mode, maxb, tel, clk, full, t0, tst, pc, par, env,
          stack, blk, dsd, pch, ich, cch, cmd, addr, entry),) = calls
        (call,) = [no for no, at in src.handoffs().items()
                   if at != "_pc"]
        assert ran(counts, src.entry, [call]) == 1
        bspec = fast._bytecode
        assert pc == bspec.entry_pc[list(spec.functions).index("helper")]
        assert par == (1,) and env == [] and len(stack) == 1
        caller_env, caller_par, _, dest = stack[0]
        assert caller_env == [41] and caller_par == (1,) and dest == -1
        assert (blk, dsd, cmd) == (1, 3, 1)
        assert addr == spec.functions["call_site"].blocks[
            spec.functions["call_site"].entry].address
        # The entry stored `cmd` before the call: the snapshot it hands
        # over holds the entry bytes.
        assert entry == before

    def test_switch_then_per_block_flag_restores_the_entry_bytes(
            self, spec):
        checkers = pair(spec, fields={"a": 9, "b": 4})
        fast = checkers["bytecode"]
        src = Source(fast, "pmio:write:1")
        before = shadow(fast)
        with counting(src.entry) as counts:
            (report,) = check_both(checkers, [("pmio:write:1", (3,))])
        (switch,) = [no for no, at in src.handoffs().items()
                     if at == "_pc" and no != max(src.handoffs())]
        assert ran(counts, src.entry, [switch]) == 1
        assert walked(counts) > 0
        # The switch decides command 3, whose row lacks the arm's
        # block: the per-block path flags it there.
        assert [a.kind for a in report.anomalies] == ["command-access"]
        assert shadow(fast) == before
        assert report.final_state["a"] == 9

    def test_visited_block_hands_over_at_the_loop_head(self, spec):
        checkers = pair(spec, fields={"b": 1})
        src = Source(checkers["bytecode"], "pmio:write:2")
        with counting(src.entry) as counts:
            reports = check_both(checkers, [("pmio:write:2", (3,)),
                                            ("pmio:write:2", (0,))])
        assert [r.anomalies for r in reports] == [[], []]
        assert reports[0].final_state["b"] == 1 + 0 + 1 + 2
        (head,) = [no for no, at in src.handoffs().items()
                   if at.isdigit()]
        assert ran(counts, src.entry, [head]) == 1
        assert walked(counts) > 0

    def test_flag_after_a_store_restores_the_entry_bytes(self, spec):
        checkers = pair(spec, fields={"ready": 1, "a": 9})
        fast = checkers["bytecode"]
        src = Source(fast, "pmio:write:3")
        snapshot = src.find(src.entry, r"_entry = _bytes\(_sdata\)")
        flag = src.find(src.entry, r"_r = _flag\(w, _SC, "
                                   r"'unobserved-branch'.*")
        before = shadow(fast)
        with counting(src.entry) as counts:
            (report,) = check_both(checkers, [("pmio:write:3", (7,))])
        assert ran(counts, src.entry, snapshot) == 1
        assert ran(counts, src.entry, flag) == 1
        assert walked(counts) == 0
        assert [a.kind for a in report.anomalies] == ["unobserved-branch"]
        assert shadow(fast) == before
        assert report.final_state["a"] == 9


class Exploding(SyncOracle):
    def resolve(self, name: str) -> int:
        raise RuntimeError(f"oracle failed on {name}")


class TestRaises:
    def test_oracle_raising_mid_superblock_leaves_state_untouched(
            self, spec):
        checkers = pair(spec, fields={"a": 9, "b": 4})
        for checker in checkers.values():
            before, cycles = shadow(checker), checker.cycles
            with pytest.raises(RuntimeError, match="oracle failed"):
                checker.check_io("pmio:write:4", (5,), oracle=Exploding())
            assert shadow(checker) == before
            assert checker.cycles == cycles
        assert checkers["bytecode"]._walk_ctx.flagged == []
        # And the next round walks from the untouched state.
        harvest = MappingSyncOracle({"extern:sync_site:x": 5})
        (report,) = check_both(checkers, [("pmio:write:4", (5,))],
                               oracle=harvest)
        assert report.final_state["b"] == 5

    @pytest.mark.parametrize("args", [(), (5, 6), [5]],
                             ids=["short", "long", "list"])
    def test_arity_mismatch(self, spec, args):
        checkers = pair(spec)
        with spying(checkers["bytecode"], "_pad") as padded:
            (report,) = check_both(checkers, [("pmio:write:3", args)])
        assert len(padded) == (0 if len(args) == 1 and type(args) is tuple
                               else 1)
        if not args:
            assert [a.kind for a in report.anomalies] == ["sync-failure"]

    def test_unknown_key(self, spec):
        checkers = pair(spec)
        src = Source(checkers["bytecode"], "pmio:write:9")
        assert src.entry is None
        with counting(src.unknown) as counts:
            (report,) = check_both(checkers, [("pmio:write:9", (1,))])
        assert ran(counts, src.unknown, src.span(src.unknown)) > 0
        assert walked(counts) == 0
        assert [a.kind for a in report.anomalies] == ["unknown-io-key"]


def semantic_counters(snap):
    return {
        "rounds": sum(snap.counters_named("checker.rounds").values()),
        "checks": snap.label_values("checker.checks", "strategy"),
        "actions": snap.label_values("checker.actions", "action"),
        "anomalies": snap.label_values("checker.anomalies", "kind"),
        "incomplete": sum(
            snap.counters_named("checker.incomplete_walks").values()),
    }


class TestTelemetry:
    ROUNDS = (
        ("pmio:write:3", (7,)),             # clean, in the entry
        ("pmio:write:2", (3,)),             # hand-off, clean in _walk
        ("pmio:write:0", (1,)),             # call hand-off
        ("pmio:write:1", (3,)),             # clean switch arm
        ("pmio:write:0", (9,)),             # unknown command: flagged
        ("pmio:write:9", ()),               # unknown key
        ("pmio:read:0", ()),
    ) * 20

    def test_telemetry_on_and_off_agree(self, spec):
        runs = {}
        for name, backend, telemetry in (
                ("off", "bytecode", False), ("on", "bytecode", True),
                ("reference", "reference", True)):
            registry = TelemetryRegistry()
            checker = ESChecker(
                spec, backend=backend,
                recorder=registry.recorder("checker") if telemetry
                else None)
            reports = [(r, r.final_state) for r in
                       (checker.check_io(key, args)
                        for key, args in self.ROUNDS)]
            runs[name] = (reports, checker.cycles, shadow(checker),
                          semantic_counters(registry.snapshot()))
        off, on, ref = runs["off"], runs["on"], runs["reference"]
        assert on[:3] == off[:3] == ref[:3]
        assert on[3] == ref[3]
        assert on[3]["rounds"] == len(self.ROUNDS)
        reports = [r for r, _ in on[0]]
        by_strategy = {
            Strategy.PARAMETER.value: sum(r.param_checks for r in reports),
            Strategy.CONDITIONAL_JUMP.value: sum(
                r.conditional_checks for r in reports),
        }
        for strategy, total in by_strategy.items():
            assert on[3]["checks"].get(strategy, 0) == total
