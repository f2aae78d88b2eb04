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

import pytest

from repro.compiler import compile_device
from repro.devices.base import create_device
from repro.errors import DeviceFault, InterpError
from repro.interp import BACKENDS, Machine, TraceSink
from repro.ir import StateMemory
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


def _round_log(device):
    """Record every observable of *device* after each I/O round: the
    return value (or fault), state bytes, cycles, steps, the flag
    register, and its backends (disk and guest-memory bytes with their
    counters, the net staging buffer and transmitted frames)."""
    log = []
    handle_io = device.handle_io
    machine = device.machine

    def record(key, args, outcome):
        log.append((key, tuple(args), outcome, bytes(machine.state.data),
                    machine.cycles, machine.steps, machine.flags.overflow,
                    machine.flags.last_store_field,
                    backend_snapshot(device)))

    def logged(key, args=()):
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


@pytest.mark.parametrize("name", ALL_MODELS)
def test_fast_runner_round_by_round(name):
    """No sink attached: the bytecode fast runner against the reference
    walker after every I/O round of prepare + every common and rare
    op."""
    prof, pair = _vm_pair(name, traced=False)
    logs = []
    for vm, device, _ in pair:
        log = _round_log(device)
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        rng = random.Random(4321)
        for op in prof.common_ops + prof.rare_ops:
            op(vm, driver, rng)
        assert device.machine._sinks == []
        logs.append(log)
    assert logs[0], "no I/O round ran"
    for log in logs[1:]:
        assert len(log) == len(logs[0])
        for ours, reference in zip(log, logs[0]):
            assert ours == reference, reference[:2]


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
