"""Differential tests of the checker frame's closed-form loop walk.

The bytecode checker frame walks a counted ``for`` loop whose body, per
iteration, is empty after slicing or copies one harvested value into a
u8 buffer (at a cursor field, or at ``i + c``) in closed form: one
guarded range check, one ``SyncOracle.take`` and one slice store for
all its iterations.  Any loop entry the guard cannot prove clean falls
through to the per-iteration walk.  Every case here runs four ways —
the frame with its closed forms, the same frame with an oracle whose
``take`` refuses, the frame reassembled with its loop table emptied,
and the reference walker — and demands identical observables: every
report (anomalies, messages, addresses, counters, ``incomplete``) with
its final state, the shadow state, checker cycles and the harvest
values left in the queues.  Each case also says whether a closed form
must run, so a guard that lets an overflow through, or a matcher that
silently falls back, fails here.
"""

import random
import re
import sys
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

import pytest

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import (
    ALL_STRATEGIES, ESChecker, Mode, QueueSyncOracle, Strategy, SyncOracle,
)
from repro.checker.bytecode import _SpecLowerer, bytecode_spec_for
from repro.compiler import DeviceLogic, arr, compile_device, fld, reg
from repro.core import deploy
from repro.exploits.corpus import (
    corpus_cve_ids, poc_detected, resolve_attack, trained_spec,
)
from repro.exploits.pocs import run_exploit
from repro.interp import Machine
from repro.spec import build_spec
from repro.workloads.profiles import PROFILES

WAYS = ("closed", "refused", "no-loops", "reference")

#: the frame source's lines where a loop walk starts (the closed form's
#: first line) and where a closed form commits
_ENTRY = re.compile(r"_li = _env\[\d+\]; _ls = _env\[\d+\]$")
_COMMIT = re.compile(r"_addr = (\d+); _pc = \d+$")


class Refusing(SyncOracle):
    """Resolves through *inner*, value by value; ``take`` is the base
    class's, which refuses."""

    def __init__(self, inner: SyncOracle):
        self.inner = inner

    def resolve(self, name: str) -> int:
        return self.inner.resolve(name)


def no_loop_frame(spec):
    """The spec's frame reassembled with the loop table emptied: every
    loop is walked one iteration at a time."""
    lowerer = _SpecLowerer(spec)
    lowerer.match_loop = lambda func, label: None
    return lowerer.lower()


def checker_for(spec, way: str, **kwargs) -> ESChecker:
    checker = ESChecker(spec, backend=("reference" if way == "reference"
                                       else "bytecode"), **kwargs)
    if way == "no-loops":
        checker._bytecode = no_loop_frame(spec)
    return checker


def oracle_for(way: str, oracle):
    return Refusing(oracle) if way == "refused" and oracle else oracle


class LoopEvents:
    """The loop entries and closed-form commits of generated frames,
    by loop head address, recorded by line tracing."""

    def __init__(self, *walks):
        self.lines: Dict[object, Dict[int, Tuple[str, int]]] = {}
        for walk in walks:
            marks, entries = {}, []
            for no, line in enumerate(walk._bytecode_source.splitlines(),
                                      1):
                if _ENTRY.search(line):
                    entries.append(no)
                match = _COMMIT.search(line)
                if match:
                    head = int(match.group(1))
                    marks[no] = ("commit", head)
                    marks.update((entry, ("entry", head))
                                 for entry in entries)
                    entries = []
            self.lines[walk.__code__] = marks
        self.events = []

    def commits(self, events=None) -> Counter:
        return Counter(head for kind, head in
                       (self.events if events is None else events)
                       if kind == "commit")

    def entries(self, events) -> Counter:
        return Counter(head for kind, head in events if kind == "entry")

    @contextmanager
    def tracing(self):
        lines, events = self.lines, self.events

        def local(frame, event, arg):
            if event == "line":
                mark = lines[frame.f_code].get(frame.f_lineno)
                if mark is not None:
                    events.append(mark)
            return local

        def start(frame, event, arg):
            return local if frame.f_code in lines else None

        previous = sys.gettrace()
        sys.settrace(start)
        try:
            yield self
        finally:
            sys.settrace(previous)


def matched_loops(spec) -> Dict[int, str]:
    """Head address -> function of every loop the lowering matches."""
    lowerer = _SpecLowerer(spec)
    return {spec.functions[name].blocks[label].address: name
            for name, label, stub in lowerer.order
            if not stub and lowerer.match_loop(spec.functions[name],
                                               label) is not None}


# ---------------------------------------------------------------------------
# A synthetic device: every loop shape, under full control
# ---------------------------------------------------------------------------

class LoopLogic(DeviceLogic):
    """Three copy loops (cursor, indexed, u8 cursor into a longer
    buffer), one loop whose body slicing empties, and a cursor copy
    behind a command decision."""

    STRUCT = "LoopCtrl"
    FIELDS = (
        reg("cmd", "u8"),
        arr("buf", "u8", 32),
        fld("mark", "u8", doc="the field after buf"),
        fld("pos", "i32"),
        arr("wide", "u8", 300),
        fld("small", "u8", doc="a cursor whose type ends before wide"),
        reg("last", "i32"),
    )
    EXTERNS = ("fetch", "emit")
    ENTRIES = {
        "pmio:write:0": "cursor_copy",
        "pmio:write:1": "indexed_copy",
        "pmio:write:2": "drain",
        "pmio:write:3": "small_copy",
        "pmio:write:4": "command",
    }

    def cursor_copy(self, src, n):
        for i in range(n):
            byte = fetch(src + i)  # noqa: F821
            self.buf[self.pos] = byte
            self.pos += 1
        self.last = byte
        return 0

    def indexed_copy(self, lo, hi):
        for i in range(lo, hi):
            byte = fetch(i)  # noqa: F821
            self.buf[i + 2] = byte
        return 0

    def drain(self, n):
        for i in range(n):
            emit(self.buf[i])  # noqa: F821
        return 0

    def small_copy(self, n):
        for i in range(n):
            byte = fetch(i)  # noqa: F821
            self.wide[self.small] = byte
            self.small += 1
        return 0

    def command(self, value, n):
        self.cmd = value
        sed_command_decision(value)  # noqa: F821
        if value == 1:
            self.gated(n)
        elif value == 2:
            self.gated(n)
        sed_command_end()  # noqa: F821
        return 0

    def gated(self, n):
        for i in range(n):
            byte = fetch(i)  # noqa: F821
            self.buf[self.pos] = byte
            self.pos += 1
        return 0


#: training: every loop runs; under command 2 the gated loop's head is
#: walked but never its body
TRAINING = (
    ("pmio:write:0", (0x100, 4)), ("pmio:write:0", (0x200, 3)),
    ("pmio:write:1", (0, 8)), ("pmio:write:2", (6,)),
    ("pmio:write:3", (5,)), ("pmio:write:4", (1, 3)),
    ("pmio:write:4", (2, 0)),
)


@pytest.fixture(scope="module")
def loop_spec():
    program = compile_device(LoopLogic)
    machine = Machine(program)
    machine.bind_extern("fetch", lambda m, addr: (addr * 7 + 3) & 0xFF)
    machine.bind_extern("emit", lambda m, value: None)
    selection = select_parameters(program)
    logger = machine.add_sink(ObservationLogger(
        "loop", selection.scalar_params | selection.funcptrs,
        selection.buffers))
    for key, args in TRAINING:
        machine.run_entry(key, args)
    return build_spec(program, logger.log, selection)


def _values(n: int, start: int = 1):
    return tuple((start + 37 * k) & 0xFF for k in range(n))


@dataclass(frozen=True)
class Case:
    id: str
    rounds: Tuple[Tuple[str, Tuple[int, ...]], ...]
    #: harvest queues: sync name -> values
    values: Dict[str, Tuple[int, ...]]
    #: whether a closed form must commit
    closed: bool
    fields: Dict[str, int] = field(default_factory=dict)
    strategies: FrozenSet[Strategy] = ALL_STRATEGIES
    max_walk_blocks: Optional[int] = None
    batch: bool = False


CURSOR, INDEXED, SMALL, GATED = (f"extern:{f}:byte" for f in (
    "cursor_copy", "indexed_copy", "small_copy", "gated"))
WITHOUT = {s: ALL_STRATEGIES - {s} for s in Strategy}


def _cursor(id, n, pos, values=None, **kwargs):
    return Case(id, (("pmio:write:0", (0x40, n)),),
                {CURSOR: _values(n) if values is None else values},
                fields={"pos": pos}, **kwargs)


def _indexed(id, lo, hi, **kwargs):
    return Case(id, (("pmio:write:1", (lo, hi)),),
                {INDEXED: _values(max(0, hi - lo))}, **kwargs)


def _small(id, n, small, **kwargs):
    return Case(id, (("pmio:write:3", (n,)),), {SMALL: _values(n)},
                fields={"small": small}, **kwargs)


def _drain(id, n, **kwargs):
    return Case(id, (("pmio:write:2", (n,)),), {}, **kwargs)


def _gated(id, command, n, pos=0, **kwargs):
    return Case(id, (("pmio:write:4", (command, n)),),
                {GATED: _values(n)}, fields={"pos": pos}, **kwargs)


CASES = [
    # the cursor shape: dev.buf[dev.pos] = v; dev.pos += 1
    _cursor("cursor-in-range", 10, 3, closed=True),
    _cursor("cursor-n1", 1, 0, closed=True),
    _cursor("cursor-ends-on-last-element", 4, 28, closed=True),
    _cursor("cursor-one-past-the-end", 4, 29, closed=False),
    _cursor("cursor-at-the-end", 1, 32, closed=False),
    _cursor("cursor-negative", 4, -3, closed=False),
    _cursor("cursor-harvest-one-short", 5, 0, values=_values(4),
            closed=False),
    _cursor("cursor-harvest-one-long", 5, 0, values=_values(6),
            closed=True),
    _cursor("cursor-values-above-255", 5, 2,
            values=(300, 511, 0x1FF, -1, 4096 + 7), closed=True),
    _cursor("cursor-watchdog-mid-loop", 10, 0, closed=False,
            max_walk_blocks=15),
    _cursor("cursor-watchdog-exactly-covers", 10, 0, closed=True,
            max_walk_blocks=33),
    _cursor("cursor-param-off-near-oob-writes-mark", 3, 30,
            closed=False, strategies=WITHOUT[Strategy.PARAMETER]),
    _cursor("cursor-param-off-in-range", 6, 3, closed=True,
            strategies=WITHOUT[Strategy.PARAMETER]),
    _cursor("cursor-cond-off-in-range", 6, 3, closed=True,
            strategies=WITHOUT[Strategy.CONDITIONAL_JUMP]),
    _cursor("cursor-cond-off-harvest-short", 6, 3, values=_values(5),
            closed=False, strategies=WITHOUT[Strategy.CONDITIONAL_JUMP]),
    _cursor("cursor-ijump-off-in-range", 6, 3, closed=True,
            strategies=WITHOUT[Strategy.INDIRECT_JUMP]),
    Case("cursor-not-entered", (("pmio:write:0", (0x40, 0)),),
         {CURSOR: ()}, closed=False),
    Case("cursor-rounds-in-one-batch",
         tuple(("pmio:write:0", (0x40, n)) for n in (5, 1, 9)),
         {CURSOR: _values(15)}, fields={"pos": 2}, closed=True,
         batch=True),
    Case("cursor-batch-overflows-in-its-last-round",
         tuple(("pmio:write:0", (0x40, n)) for n in (10, 10, 10)),
         {CURSOR: _values(30)}, fields={"pos": 4}, closed=True,
         batch=True),
    # the indexed shape: dev.buf[i + 2] = v
    _indexed("indexed-in-range", 0, 20, closed=True),
    _indexed("indexed-n1", 7, 8, closed=True),
    _indexed("indexed-ends-on-last-element", 0, 30, closed=True),
    _indexed("indexed-one-past-writes-mark", 0, 31, closed=False),
    _indexed("indexed-negative-start", -5, 4, closed=False),
    _indexed("indexed-starts-on-first-element", -2, 3, closed=True),
    _indexed("indexed-param-off", 0, 20, closed=True,
             strategies=WITHOUT[Strategy.PARAMETER]),
    # a u8 cursor into a 300-element buffer: its type ends first
    _small("small-in-range", 40, 100, closed=True),
    _small("small-ends-at-type-max", 5, 250, closed=True),
    _small("small-overflows-its-type", 10, 250, closed=False),
    _small("small-at-type-max", 1, 255, closed=False),
    _small("small-param-off-overflows", 10, 250, closed=False,
           strategies=WITHOUT[Strategy.PARAMETER]),
    # the empty shape: the body's extern was sliced away
    _drain("empty-in-range", 50, closed=True),
    _drain("empty-n1", 1, closed=True),
    _drain("empty-not-entered", 0, closed=False),
    _drain("empty-watchdog-mid-loop", 50, closed=False,
           max_walk_blocks=40),
    _drain("empty-cond-off-watchdog", 50, closed=False,
           max_walk_blocks=40, strategies=WITHOUT[
               Strategy.CONDITIONAL_JUMP]),
    _drain("empty-param-off", 50, closed=True,
           strategies=WITHOUT[Strategy.PARAMETER]),
    # under a command: accessible everywhere, or not in the loop body
    _gated("command-accessible", 1, 6, closed=True),
    _gated("command-body-not-accessible", 2, 3, closed=False),
    _gated("command-body-not-accessible-cond-off", 2, 3, closed=False,
           strategies=WITHOUT[Strategy.CONDITIONAL_JUMP]),
    _gated("command-cond-off", 1, 6, closed=True,
           strategies=WITHOUT[Strategy.CONDITIONAL_JUMP]),
    _gated("command-overflow", 1, 6, pos=30, closed=False),
]


def _check(spec, case: Case, way: str):
    checker = checker_for(spec, way, strategies=case.strategies,
                          mode=Mode.PROTECTION)
    if case.max_walk_blocks is not None:
        checker.max_walk_blocks = case.max_walk_blocks
    for name, value in case.fields.items():
        checker.device_state.write_field(name, value)
    queues = {name: deque(values) for name, values in case.values.items()}
    oracle = oracle_for(way, QueueSyncOracle(queues))
    if case.batch:
        reports = checker.check_batch(case.rounds, oracle)
    else:
        reports = [checker.check_io(key, args, oracle)
                   for key, args in case.rounds]
    return ([(report, report.final_state) for report in reports],
            checker.cycles, bytes(checker.device_state.memory.data),
            {name: list(queue) for name, queue in queues.items()})


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_closed_form_is_the_scalar_walk(case, loop_spec):
    """All four ways leave every observable identical, and the closed
    form commits exactly when the case says the guard holds."""
    events = LoopEvents(bytecode_spec_for(loop_spec).walk)
    results = {}
    for way in WAYS:
        if way == "closed":
            with events.tracing():
                results[way] = _check(loop_spec, case, way)
        else:
            results[way] = _check(loop_spec, case, way)
    for way in WAYS[:-1]:
        assert results[way] == results["reference"], way
    assert bool(events.commits()) == case.closed, events.events


def test_every_shape_and_outcome_is_covered(loop_spec):
    """The cases above reach each synthetic loop's closed form, and
    their scalar walks flag every anomaly a copy loop can raise."""
    kinds, commits = set(), Counter()
    for case in CASES:
        events = LoopEvents(bytecode_spec_for(loop_spec).walk)
        with events.tracing():
            reports = _check(loop_spec, case, "closed")[0]
        commits.update(events.commits())
        kinds |= {a.kind for report, _ in reports
                  for a in report.anomalies}
    assert set(commits) == set(matched_loops(loop_spec))
    assert {"buffer-overflow", "integer-overflow", "sync-failure",
            "walk-watchdog", "command-access"} <= kinds


def test_closed_form_effects(loop_spec):
    """The counters a closed form adds are the scalar loop's: 3 blocks
    and 4 DSOD statements per cursor iteration, 2 parameter checks, and
    3 conditional checks under a command."""
    one, many = (_check(loop_spec, _gated("g", 1, n, closed=True),
                        "closed")[0][0][0] for n in (1, 9))
    assert many.blocks_walked - one.blocks_walked == 3 * 8
    assert many.dsod_stmts_executed - one.dsod_stmts_executed == 4 * 8
    assert many.param_checks - one.param_checks == 2 * 8
    assert many.conditional_checks - one.conditional_checks == 3 * 8
    (report, final), = _check(loop_spec, _cursor(
        "c", 5, 2, values=(7, 511, 0x1FF, -1, 300), closed=True),
        "closed")[0]
    assert final["pos"] == 7 and final["last"] == 300


# ---------------------------------------------------------------------------
# The seven device models
# ---------------------------------------------------------------------------

#: every loop the lowering matches, by model: function -> loops
MATCHED = {
    "fdc": {"do_transfer": 2, "do_format_track": 1},
    "pcnet": {"copy_tx_payload": 1, "finish_transmit": 1, "rx_notify": 1},
    "sdhci": {"fill_fifo": 1, "flush_block": 1},
    "scsi": {"stage_block": 1, "flush_data_block": 1},
    "ehci": {"block_read": 1, "block_write": 1},
    "virtio-net": {"gather_bytes": 1, "seal_and_send": 1,
                   "rx_notify": 1},
    "virtio-blk": {"gather_bytes": 1, "fill_from_disk": 1,
                   "flush_to_disk": 1},
}

#: matched loops benign traffic does not have to reach: fdc's format
#: filler (the device side moves it per byte)
NOT_DEVICE_SIDE = {("fdc", "do_format_track")}


@pytest.mark.parametrize("name", sorted(MATCHED))
def test_matched_loops(name):
    """Exactly the listed loops match: scsi's CDB copies (a local
    cursor) and sdhci's register-image fills stay scalar."""
    assert Counter(matched_loops(trained_spec(name)).values()) \
        == Counter(MATCHED[name])


def _spy(checker, way: str, events: Optional[LoopEvents]):
    """Record every round the deployed checker vets — its full report
    (the VM asks to leave out clean ones) with the final state and the
    harvest left unconsumed — and, traced, its loop events."""
    check_io, check_batch = checker.check_io, checker.check_batch
    log, per_round = [], []

    def leftover(oracle):
        queues = getattr(oracle, "_queues", None)
        return None if queues is None else {
            key: list(queue) for key, queue in queues.items() if queue}

    def spied_check_io(key, args=(), oracle=None, report_clean=True):
        start = len(events.events) if events else 0
        report = check_io(key, args, oracle=oracle_for(way, oracle))
        log.append((report, report.final_state, leftover(oracle)))
        if events:
            per_round.append((report, events.events[start:]))
        return report

    def spied_check_batch(rounds, oracle=None):
        reports = check_batch(rounds, oracle=oracle_for(way, oracle))
        log.extend((report, report.final_state, None)
                   for report in reports)
        return reports

    checker.check_io = spied_check_io
    checker.check_batch = spied_check_batch
    return log, per_round


def _deployed_run(device_name, qemu_version, spec, way, drive,
                  mode=Mode.ENHANCEMENT):
    """Build, deploy and drive one VM; returns (outcome, observables,
    per-round loop events of a closed run)."""
    vm, device = PROFILES[device_name].make_vm(qemu_version)
    attachment = deploy(vm, device, spec, mode=mode,
                        backend=("reference" if way == "reference"
                                 else "bytecode"))
    checker = attachment.checker
    if way == "no-loops":
        checker._bytecode = no_loop_frame(spec)
    events = (LoopEvents(bytecode_spec_for(spec).walk)
              if way == "closed" else None)
    log, per_round = _spy(checker, way, events)
    if events is None:
        outcome = drive(vm, device)
    else:
        with events.tracing():
            outcome = drive(vm, device)
    observed = (outcome, log, checker.cycles,
                bytes(checker.device_state.memory.data),
                bytes(device.state.data))
    return observed, per_round, events


@pytest.mark.parametrize("name", sorted(MATCHED))
def test_benign_traffic_walks_every_loop_in_closed_form(name):
    """prepare + the common and rare ops walk each device-side loop in
    closed form at least once, and all four ways agree on every
    round."""
    spec = trained_spec(name)
    prof = PROFILES[name]

    def drive(vm, device):
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        rng = random.Random(2024)
        for op in prof.common_ops + prof.rare_ops:
            op(vm, driver, rng)

    runs = {way: _deployed_run(name, "99.0.0", spec, way, drive)
            for way in WAYS}
    reference = runs["reference"][0]
    assert reference[1], "no round was vetted"
    for way in WAYS[:-1]:
        assert runs[way][0] == reference, way
    loops = matched_loops(spec)
    device_side = {head for head, func in loops.items()
                   if (name, func) not in NOT_DEVICE_SIDE}
    assert device_side <= set(runs["closed"][2].commits())


def test_format_filler_walks_in_closed_form():
    """fdc's format filler, which benign traffic does not reach, walks
    in closed form under the FORMAT TRACK command, and all four ways
    agree on every round."""
    spec = trained_spec("fdc")
    prof = PROFILES["fdc"]

    def drive(vm, device):
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        driver.format_track(1, sectors=2, filler=0xF6)

    runs = {way: _deployed_run("fdc", "99.0.0", spec, way, drive)
            for way in WAYS}
    for way in WAYS[:-1]:
        assert runs[way][0] == runs["reference"][0], way
    filler = {head for head, func in matched_loops(spec).items()
              if func == "do_format_track"}
    assert filler and filler <= set(runs["closed"][2].commits())


#: copies that overflow their buffer: the loop entry that overflows must
#: walk per iteration
OVERFLOW_POCS = ("CVE-2015-7512",) + tuple(
    ident for device in ("pcnet", "virtio-net", "virtio-blk")
    for ident in corpus_cve_ids(device)
    if ident.split(":")[2] == "oob-write")
#: virtio's trailer family fills the gather buffer to or near its end
TRAILER_POCS = tuple(
    ident for device in ("virtio-net", "virtio-blk")
    for ident in corpus_cve_ids(device)
    if ident.split(":")[2] == "reentrancy")


def _poc_runs(ident):
    exploit = resolve_attack(ident)
    spec = trained_spec(exploit.device, exploit.qemu_version)
    return exploit, {way: _deployed_run(
        exploit.device, exploit.qemu_version, spec, way,
        lambda vm, device: run_exploit(vm, device, exploit),
        mode=Mode.PROTECTION) for way in WAYS}


def _detected(exploit, outcome) -> bool:
    if hasattr(exploit, "expected_kinds"):
        return poc_detected(exploit, outcome)
    return outcome.detected


@pytest.mark.parametrize("ident", OVERFLOW_POCS)
def test_overflow_pocs_walk_the_overflowing_entry_per_iteration(ident):
    """Round by round, the four ways agree; the round that flags the
    overflow entered a matched loop whose closed form did not commit."""
    exploit, runs = _poc_runs(ident)
    reference = runs["reference"][0]
    for way in WAYS[:-1]:
        assert runs[way][0] == reference, way
    assert _detected(exploit, reference[0])
    per_round, events = runs["closed"][1], runs["closed"][2]
    flagged = [round_events for report, round_events in per_round
               if any(a.kind == "buffer-overflow"
                      for a in report.anomalies)]
    assert flagged, "no round flagged the overflow"
    entries, commits = (events.entries(flagged[0]),
                        events.commits(flagged[0]))
    assert any(entries[head] > commits[head] for head in entries)


@pytest.mark.parametrize("ident", TRAILER_POCS)
def test_trailer_pocs_fill_through_the_closed_form(ident):
    """The trailer PoCs copy their payload through the closed form, and
    are still flagged as their labels say."""
    exploit, runs = _poc_runs(ident)
    reference = runs["reference"][0]
    for way in WAYS[:-1]:
        assert runs[way][0] == reference, way
    assert runs["closed"][2].commits()
    assert _detected(exploit, reference[0])
