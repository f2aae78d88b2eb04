"""Differential tests: the bytecode Machine backend vs the reference
tree-walker.

The bytecode backend's contract is bit-exactness — same final state
bytes, same cycle/step accounting, same sink event stream (order
included), same faults with the same kinds and messages.  Every test
here runs the identical workload on one machine per backend and demands
identical observables, on the toy device and on the real device
models.  The reference walker is the oracle.
"""

import random
import re
import sys
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.compiler import compile_device
from repro.devices.base import create_device
from repro.errors import DeviceFault, InterpError, IRError
from repro.interp import BACKENDS, Machine, TraceSink
from repro.interp.bytecode import _match_transfers
from repro.ir import (
    BasicBlock, BinOp, BufLoad, BufStore, BufType, Const, Function,
    Param, Program, StateLayout, StateMemory, StateStore, U8,
)
from repro.vm.machine import GuestVM
from repro.workloads.profiles import PROFILES

from tests.devices.fixtures import backend_snapshot
from tests.toydev import ToyLogic

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi")
ALL_MODELS = ALL_DEVICES + ("virtio-net", "virtio-blk")
# BACKENDS lists the reference oracle first: index 0 is what every
# other machine is compared against.


class EventRecorder(TraceSink):
    """Records every sink event, normalized to comparable tuples."""

    def __init__(self):
        self.events = []

    def on_io_enter(self, key, args):
        self.events.append(("io_enter", key, tuple(args)))

    def on_io_exit(self, key, result):
        self.events.append(("io_exit", key, result))

    def on_block(self, func, block):
        self.events.append(("block", func.name, block.label,
                            block.address))

    def on_branch(self, block, taken):
        self.events.append(("branch", block.address, taken))

    def on_tip(self, block, target_addr, kind):
        self.events.append(("tip", block.address, target_addr, kind))

    def on_switch(self, block, value, target_addr):
        self.events.append(("switch", block.address, value, target_addr))

    def on_call(self, caller, callee):
        self.events.append(("call", caller.name, callee.name))

    def on_return(self, func):
        self.events.append(("return", func.name))

    def on_intrinsic(self, kind, values):
        self.events.append(("intrinsic", kind, tuple(values)))

    def on_extern(self, caller, func, dest, args, result):
        self.events.append(("extern", caller, func, dest, tuple(args),
                            result))

    def on_state_store(self, field, value, overflowed):
        self.events.append(("state_store", field, value, overflowed))

    def on_buf_store(self, buf, index, value):
        self.events.append(("buf_store", buf, index, value))


def _toy_machines(vuln=False, traced=False):
    overrides = {"VULN_UNCHECKED_PUSH": 1} if vuln else None
    pair = []
    for backend in BACKENDS:
        program = compile_device(ToyLogic, const_overrides=overrides)
        machine = Machine(program, backend=backend)
        machine.bind_extern("host_log", lambda m, level: None, cost=2)
        machine.set_funcptr("irq", "on_irq")
        recorder = machine.add_sink(EventRecorder()) if traced else None
        pair.append((machine, recorder))
    return pair


TOY_SCRIPT = (
    [("pmio:write:1", (b,)) for b in (10, 20, 30, 255, 0)]
    + [("pmio:write:0", (ToyLogic.CONSTS["CMD_SUM"],)),
       ("pmio:read:1", ()),
       ("pmio:read:1", ()),
       ("pmio:write:0", (ToyLogic.CONSTS["CMD_RESET"],)),
       ("pmio:read:1", ())]
)


class TestToyDifferential:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["fast", "traced"])
    def test_state_cycles_and_results_identical(self, traced):
        machines = _toy_machines(traced=traced)
        ref, ref_rec = machines[0]
        for key, args in TOY_SCRIPT:
            results = [m.run_entry(key, args) for m, _ in machines]
            assert all(r == results[0] for r in results[1:])
        for bc, bc_rec in machines[1:]:
            assert bytes(ref.state.data) == bytes(bc.state.data)
            assert ref.cycles == bc.cycles
            assert ref.steps == bc.steps
            if traced:
                assert ref_rec.events == bc_rec.events

    def test_vulnerable_build_corruption_identical(self):
        """Near-OOB writes corrupt the same neighbour on both backends,
        and the eventual far-OOB segfault matches kind and message."""
        machines = [m for m, _ in _toy_machines(vuln=True)]
        ref = machines[0]
        for i in range(12):
            outcomes = []
            for machine in machines:
                try:
                    machine.run_entry("pmio:write:1", (0x60 + i,))
                    outcomes.append(None)
                except DeviceFault as fault:
                    outcomes.append((fault.kind, str(fault)))
            assert all(o == outcomes[0] for o in outcomes[1:])
            for bc in machines[1:]:
                assert bytes(ref.state.data) == bytes(bc.state.data)
                assert ref.cycles == bc.cycles
            if outcomes[0] is not None:
                break
        else:
            pytest.fail("vulnerable build never segfaulted")

    def test_wild_jump_fault_identical(self):
        faults = []
        for machine in (m for m, _ in _toy_machines()):
            machine.state.write_field("irq", 0xDEAD)
            machine.run_entry("pmio:write:1", (5,))
            with pytest.raises(DeviceFault) as exc:
                machine.run_entry("pmio:write:0",
                                  (ToyLogic.CONSTS["CMD_SUM"],))
            faults.append((exc.value.kind, str(exc.value)))
        assert all(f == faults[0] for f in faults[1:])

    def test_watchdog_fault_identical(self):
        faults = []
        for machine in (m for m, _ in _toy_machines()):
            machine.max_steps = 10
            with pytest.raises(DeviceFault) as exc:
                machine.run_entry("pmio:write:0",
                                  (ToyLogic.CONSTS["CMD_SUM"],))
            faults.append((exc.value.kind, str(exc.value),
                           machine.steps, machine.cycles))
        assert all(f == faults[0] for f in faults[1:])


def _vm_pair(name, traced=True):
    """One (vm, device, recorder) per backend, identically wired; with
    ``traced=False`` no sink is attached, so bytecode runs the fast
    runner."""
    prof = PROFILES[name]
    out = []
    for backend in BACKENDS:
        vm = GuestVM()
        device = create_device(name, backend=backend)
        if prof.bus == "mmio":
            vm.attach_mmio_device(device, prof.base_port)
        else:
            vm.attach_device(device, prof.base_port)
        recorder = (device.machine.add_sink(EventRecorder()) if traced
                    else None)
        out.append((vm, device, recorder))
    return prof, out


def _round_log(device, recorder=None, budget=None):
    """Record every observable of *device* after each I/O round: the
    return value (or fault), state bytes, cycles, steps, the flag
    register, and its backends (disk and guest-memory bytes with their
    counters, the net staging buffer and transmitted frames).  With a
    *recorder*, also the round's sink events; with *budget*, each round
    runs with ``max_steps = budget(key)``."""
    log = []
    handle_io = device.handle_io
    machine = device.machine

    def record(key, args, outcome):
        events = ()
        if recorder is not None:
            events = tuple(recorder.events)
            recorder.events.clear()
        log.append((key, tuple(args), outcome, bytes(machine.state.data),
                    machine.cycles, machine.steps, machine.flags.overflow,
                    machine.flags.last_store_field,
                    backend_snapshot(device), events))

    def logged(key, args=()):
        if budget is not None:
            machine.max_steps = budget(key)
        try:
            result = handle_io(key, args)
        except DeviceFault as fault:
            record(key, args, (fault.kind, str(fault)))
            raise
        record(key, args, result)
        return result

    device.handle_io = logged
    return log


@pytest.mark.parametrize("name", ALL_DEVICES)
class TestRealDeviceDifferential:
    def test_workload_identical(self, name):
        """prepare + a sample of each common op, event-for-event."""
        prof, pair = _vm_pair(name)
        for vm, device, _ in pair:
            driver = prof.make_driver(vm)
            prof.prepare(vm, driver)
            rng = random.Random(1234)
            for op in prof.common_ops:
                op(vm, driver, rng)
        _, ref_dev, ref_rec = pair[0]
        for _, bc_dev, bc_rec in pair[1:]:
            assert bytes(ref_dev.state.data) == bytes(bc_dev.state.data)
            assert ref_dev.machine.cycles == bc_dev.machine.cycles
            assert ref_dev.machine.steps == bc_dev.machine.steps
            assert ref_rec.events == bc_rec.events

    def test_rare_ops_identical(self, name):
        prof, pair = _vm_pair(name)
        for vm, device, _ in pair:
            driver = prof.make_driver(vm)
            prof.prepare(vm, driver)
            rng = random.Random(99)
            for op in prof.rare_ops:
                op(vm, driver, rng)
        _, ref_dev, _ = pair[0]
        for _, bc_dev, _ in pair[1:]:
            assert bytes(ref_dev.state.data) == bytes(bc_dev.state.data)
            assert ref_dev.machine.cycles == bc_dev.machine.cycles


class _LineCounter:
    """Counts the lines the generated device frames execute, keyed by
    ``(frame filename, line number)``."""

    def __init__(self):
        self.counts = Counter()

    def _trace(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith("<bytecode:"):
            return None
        self.counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return self._line

    def __enter__(self):
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _sweep(name, traced, budget=None, lines=None):
    """Run prepare + every common and rare op of profile *name* on one
    machine per backend and log every round (:func:`_round_log`), with
    sink events when *traced*.  Under a *budget*, an op that a device
    fault ends is abandoned on every backend alike; without one, a
    fault fails the test.  With *lines* (a :class:`_LineCounter`), the
    bytecode machine runs under it.  Returns the logs and the
    block-twin calls the bytecode machine made."""
    prof, pair = _vm_pair(name, traced=traced)
    logs, twin_calls = [], []
    for vm, device, recorder in pair:
        machine = device.machine
        for extern, twin in list(machine._extern_block.items()):
            def counted(*args, _twin=twin, _extern=extern):
                twin_calls.append(_extern)
                return _twin(*args)
            machine._extern_block[extern] = counted
        log = _round_log(device, recorder, budget)
        driver = prof.make_driver(vm)
        counting = lines is not None and machine.backend == "bytecode"
        abandon = (DeviceFault,) if budget is not None else ()
        with lines if counting else nullcontext():
            try:
                prof.prepare(vm, driver)
            except abandon:
                pass
            rng = random.Random(4321)
            for op in prof.common_ops + prof.rare_ops:
                try:
                    op(vm, driver, rng)
                except abandon:
                    pass
        assert bool(machine._sinks) == traced
        logs.append(log)
    assert logs[0], "no I/O round ran"
    for log in logs[1:]:
        assert len(log) == len(logs[0])
        for ours, reference in zip(log, logs[0]):
            assert ours == reference, reference[:2]
    return logs, twin_calls


@pytest.mark.parametrize("name", ALL_MODELS)
def test_fast_runner_round_by_round(name):
    """No sink attached: the bytecode fast runner against the reference
    walker after every I/O round of prepare + every common and rare
    op."""
    _sweep(name, traced=False)


class _Seams:
    """Where the generated frames of one device model hold the seams
    the traced runner shares with the fast one, as ``(frame filename,
    line number)`` keys of a :class:`_LineCounter`."""

    def __init__(self, machine, traced):
        program = machine.program
        handlers = set(program.entry_handlers.values())
        runners = (machine._bytecode.traced_runners if traced
                   else machine._bytecode.runners)
        copy_loops = {func.name for func in program.functions.values()
                      if _match_transfers(func)}
        #: the superblock guard of each entry handler
        self.guards = {}
        #: the line the frame falls back to the per-block path from
        self.fallbacks = []
        #: the first line of each continuation segment after a call
        self.segments = []
        #: native self-loop back-edges, all and in copy loop functions
        self.back_edges = []
        self.copy_back_edges = []
        for fname, runner in runners.items():
            key = runner.__code__.co_filename
            lines = runner._bytecode_source.splitlines()
            loops = [i for i, line in enumerate(lines)
                     if line.strip() == "while True:"][1:]
            for i in loops:
                depth = _depth(lines[i])
                for j in range(i + 1, len(lines)):
                    if _depth(lines[j]) <= depth:
                        break
                    if lines[j].strip() == "continue":
                        self.back_edges.append((key, j + 1))
                        if fname in copy_loops:
                            self.copy_back_edges.append((key, j + 1))
            if fname not in handlers:
                continue
            i = next(n for n, line in enumerate(lines)
                     if line.strip() == "if _pc < 0:")
            guard = re.fullmatch(r"\s*if (\d+) <= _lim:", lines[i + 1])
            self.guards[fname] = int(guard.group(1))
            depth = _depth(lines[i + 1])
            end = next(j for j in range(i + 2, len(lines))
                       if _depth(lines[j]) <= depth)
            self.fallbacks.append((key, end + 1))
            self.segments += [(key, j + 2) for j in range(i + 2, end)
                              if re.fullmatch(r"\s*if \d+ <= _lim:",
                                              lines[j])]


def _depth(line):
    return len(line) - len(line.lstrip())


@pytest.mark.parametrize("name", ALL_MODELS)
def test_traced_runner_round_by_round(name):
    """Sinks attached: the traced runner against the reference walker
    after every round of prepare + every common and rare op, event for
    event.  The sweep enters continuation segments of entry-handler
    superblocks and native self-loops, and a counted copy loop runs per
    byte, looping natively, with no block twin called."""
    lines = _LineCounter()
    _, twin_calls = _sweep(name, traced=True, lines=lines)
    seams = _Seams(create_device(name).machine, traced=True)
    assert twin_calls == []
    assert any(lines.counts[at] for at in seams.segments)
    assert any(lines.counts[at] for at in seams.back_edges)
    assert any(lines.counts[at] for at in seams.copy_back_edges)


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_superblock_fallback_round_by_round(name, traced):
    """Every round runs with a watchdog budget one block short of its
    handler's superblock guard, so the frame falls back to the
    per-block path at the entry (where the round then completes or
    faults on the watchdog) — against the reference walker after every
    round, with sink events when traced."""
    machine = create_device(name).machine
    seams = _Seams(machine, traced)
    handlers = machine.program.entry_handlers

    def budget(key):
        return seams.guards[handlers[key]] - 1

    lines = _LineCounter()
    logs, _ = _sweep(name, traced, budget=budget, lines=lines)
    assert any(entry[2][0] == "watchdog" for entry in logs[0]
               if isinstance(entry[2], tuple))
    assert any(lines.counts[at] for at in seams.fallbacks)


class TestTracedRunnerShape:
    def test_no_accessor_stores_or_per_block_counters(self):
        """No traced frame of the 7 models stores a well-formed field
        through ``_state.write_field`` or updates ``m.cycles`` /
        ``m.steps`` per block: its block prologue is the fast runner's
        ``_st += 1`` against the frame-local budget."""
        for name in ALL_MODELS:
            bytecode = create_device(name).machine._bytecode
            for fname, runner in bytecode.traced_runners.items():
                source = runner._bytecode_source
                lines = {line.strip() for line in source.splitlines()}
                assert "_state.write_field(" not in source, fname
                assert "m.steps += 1" not in lines, fname
                assert "_maxs" not in source, fname
                assert "if _st > _lim: _wd(m)" in lines, fname

    def test_event_operands_are_the_ones_the_effect_used(self):
        """A buffer store whose value reads the element it overwrites:
        the ``on_buf_store`` event carries the value stored, not one
        re-evaluated after the store."""
        layout = StateLayout("Acc")
        layout.add("buf", BufType(U8, 4))
        func = Function("h", ("x",))
        bump = BinOp("+", BufLoad("buf", Const(1)), Param("x"))
        func.add_block(BasicBlock("entry", [BufStore("buf", Const(1), bump),
                                            BufStore("buf", Const(1), bump)]))
        program = Program("acc", layout)
        program.add_function(func)
        program.register_entry("pmio:write:0", "h")
        program.freeze()
        runs = []
        for backend in BACKENDS:
            machine = Machine(program, backend=backend)
            recorder = machine.add_sink(EventRecorder())
            machine.run_entry("pmio:write:0", (5,))
            runs.append((recorder.events, bytes(machine.state.data),
                         machine.cycles, machine.steps))
        assert all(run == runs[0] for run in runs[1:])
        assert [e[3] for e in runs[0][0] if e[0] == "buf_store"] == [5, 10]

    def test_malformed_store_goes_through_the_accessor(self):
        """A store to a buffer declaration still goes through
        ``StateMemory.write_field`` on the traced runner, which refuses
        it with the reference walker's error after the same events,
        cycles and steps."""
        layout = StateLayout("Bad")
        layout.add("n", U8)
        layout.add("buf", BufType(U8, 4))
        func = Function("h", ("x",))
        func.add_block(BasicBlock("entry", [
            StateStore("n", BinOp("+", Param("x"), Const(250))),
            StateStore("buf", Param("x"))]))
        program = Program("bad", layout)
        program.add_function(func)
        program.register_entry("pmio:write:0", "h")
        program.freeze()
        runs = []
        for backend in BACKENDS:
            machine = Machine(program, backend=backend)
            recorder = machine.add_sink(EventRecorder())
            with pytest.raises(IRError) as exc:
                machine.run_entry("pmio:write:0", (9,))
            runs.append((str(exc.value), recorder.events,
                         bytes(machine.state.data), machine.cycles,
                         machine.steps, machine.flags.overflow))
        assert all(run == runs[0] for run in runs[1:])
        assert ("state_store", "n", 3, True) in runs[0][1]
        source = program._bytecode_backend.traced_runners["h"]
        assert "_state.write_field('buf'" in source._bytecode_source


class TestBackendSelection:
    def test_bytecode_is_the_default(self):
        assert Machine(compile_device(ToyLogic)).backend == "bytecode"

    def test_unknown_backend_rejected(self):
        program = compile_device(ToyLogic)
        for name in ("jit", "compiled"):
            with pytest.raises(InterpError, match="unknown backend"):
                Machine(program, backend=name)


class TestBytecodeArtifactSharing:
    def test_bytecode_program_cached_per_program(self):
        from repro.interp import BytecodeProgram, bytecode_program_for

        program = compile_device(ToyLogic)
        first = bytecode_program_for(program)
        assert bytecode_program_for(program) is first
        assert isinstance(first, BytecodeProgram)

    def test_machines_share_the_artifact(self):
        program = compile_device(ToyLogic)
        a = Machine(program, backend="bytecode")
        b = Machine(program, backend="bytecode",
                    state=StateMemory(program.layout))
        assert a._bytecode is b._bytecode
