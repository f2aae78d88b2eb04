"""Co-execution harvests extern results without a trace sink.

A co-executed round (an I/O key whose spec walk needs host-helper
results: DMA payloads, ring descriptors, media bytes) runs the device
first with ``Machine.harvest`` set, then checks the round on the
harvested values.  The harvest is not a trace sink, so with no real sink
attached the round takes the fast bytecode runner.

The parity sweep runs every device profile (composites included), the
nine seeded CVE PoCs and the generated corpus PoCs on three device
execution paths — the fast runner, the traced runner (a no-op sink
attached) and the reference walker — and requires identical harvests,
``CheckReport`` streams, device state, cycle and step accounting and
the flag register.
"""

import random
from types import SimpleNamespace

import pytest

from repro.checker import Mode
from repro.core import deploy
from repro.errors import DeviceFault, InfraError
from repro.exploits.corpus import generate_corpus, trained_spec
from repro.exploits.pocs import EXPLOITS, run_exploit
from repro.interp import TraceSink
from repro.vm.machine import SEDSpecHalt
from repro.workloads.profiles import profile

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi",
               "virtio-net", "virtio-blk")
COMPOSITES = ("virtio-net+virtio-blk", "fdc+sdhci")
#: models whose benign workload co-executes at least one round
COEXEC_DEVICES = ("ehci", "pcnet", "sdhci", "scsi", "virtio-net",
                  "virtio-blk")
PATHS = ("fast", "traced", "reference")
CORPUS = generate_corpus()


def _guarded_vm(name, qemu_version, path, mode):
    """A VM for profile *name* with every part guarded by its trained
    spec; the device machines run on *path*.  Returns the VM, the
    primary device and the event log the spies fill: per part, the
    harvest of every co-executed round and every CheckReport."""
    backend = "reference" if path == "reference" else "bytecode"
    vm, primary = profile(name).make_vm(qemu_version, backend=backend)
    log = []
    for part, device in vm.devices.items():
        if path == "traced":
            device.machine.add_sink(TraceSink())
        attachment = deploy(vm, device,
                            trained_spec(part, qemu_version), mode=mode)
        _spy(device, attachment.checker, log)
    return vm, primary, log


def _spy(device, checker, log):
    """Instance-level wrappers recording each co-executed round's
    harvest (copied before the checker pops it) and each report."""
    machine = device.machine
    handle_io = device.handle_io
    check_io = checker.check_io
    check_batch = checker.check_batch

    def spy_handle_io(key, args=()):
        try:
            return handle_io(key, args)
        finally:
            if machine.harvest is not None:
                log.append(("harvest", device.NAME, key,
                            {k: list(q) for k, q in
                             machine.harvest.items()}))

    def spy_check_io(key, args=(), oracle=None):
        report = check_io(key, args, oracle=oracle)
        log.append(("report", device.NAME, report, report.final_state))
        return report

    def spy_check_batch(rounds, oracle=None):
        reports = check_batch(rounds, oracle=oracle)
        log.extend(("report", device.NAME, r, r.final_state)
                   for r in reports)
        return reports

    device.handle_io = spy_handle_io
    checker.check_io = spy_check_io
    checker.check_batch = spy_check_batch


def _observables(vm, log):
    devices = {name: bytes(dev.state.data)
               for name, dev in vm.devices.items()}
    cycles = {name: dev.machine.cycles for name, dev in vm.devices.items()}
    steps = {name: dev.machine.steps for name, dev in vm.devices.items()}
    flags = {name: (dev.machine.flags.overflow,
                    dev.machine.flags.last_store_field)
             for name, dev in vm.devices.items()}
    verdicts = {name: (att.checked_rounds, att.warnings, att.halts)
                for name, att in vm.attachments.items()}
    return log, devices, cycles, steps, flags, verdicts, vm.stats


def _assert_paths_agree(runs):
    reference = runs["reference"]
    for path in ("fast", "traced"):
        assert runs[path] == reference, path


def _benign(name, path):
    vm, _, log = _guarded_vm(name, "99.0.0", path, Mode.ENHANCEMENT)
    prof = profile(name)
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    rng = random.Random(2024)
    for op in prof.common_ops + prof.rare_ops:
        op(vm, driver, rng)
    return _observables(vm, log)


def _attack(attack, path):
    vm, device, log = _guarded_vm(attack.device, attack.qemu_version,
                                  path, Mode.PROTECTION)
    outcome = run_exploit(vm, device, attack)
    return (outcome, device.halted) + _observables(vm, log)


@pytest.mark.parametrize("name", ALL_DEVICES + COMPOSITES)
def test_benign_harvest_parity(name):
    runs = {path: _benign(name, path) for path in PATHS}
    _assert_paths_agree(runs)
    # Not vacuous: every co-executing model queued extern results.
    harvested = {e[1] for e in runs["fast"][0]
                 if e[0] == "harvest" and any(e[3].values())}
    assert harvested == set(COEXEC_DEVICES) & set(name.split("+"))


@pytest.mark.parametrize("attack", EXPLOITS + tuple(CORPUS),
                         ids=lambda a: a.cve)
def test_attack_harvest_parity(attack):
    runs = {path: _attack(attack, path) for path in PATHS}
    _assert_paths_agree(runs)


# -- the fast runner takes co-executed rounds --------------------------------

def _spy_runners(device):
    """Replace the machine's bytecode handle with one whose traced
    runners count their calls (the program-level artifact is shared,
    so the spy stays local to this machine)."""
    calls = []
    shared = device.machine._bytecode

    def counting(name):
        runner = shared.traced_runners[name]

        def run(m, args):
            calls.append(name)
            return runner(m, args)
        return run

    device.machine._bytecode = SimpleNamespace(
        runners=shared.runners,
        traced_runners={name: counting(name)
                        for name in shared.traced_runners})
    return calls


@pytest.mark.parametrize("name,op", [
    ("pcnet", lambda driver, rng: driver.send_frame(bytes(range(120)))),
    ("virtio-blk", lambda driver, rng: driver.write_blocks(
        3, bytes([0x5A]) * 512)),
    ("sdhci", lambda driver, rng: driver.write_blocks(2, bytes(512))),
])
def test_coexec_round_runs_without_sink_on_fast_runner(name, op):
    prof = profile(name)
    vm, device = prof.make_vm()
    deploy(vm, device, trained_spec(name))
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    traced_calls = _spy_runners(device)
    coexec = []
    seen = []
    co_execute, run_device = vm._co_execute, vm._run_device

    def spy_co_execute(attachment, dev, key, args):
        coexec.append(key)
        try:
            return co_execute(attachment, dev, key, args)
        finally:
            coexec.pop()

    def spy_run_device(dev, key, args):
        if coexec:
            seen.append((key, list(dev.machine._sinks)))
        return run_device(dev, key, args)

    vm._co_execute, vm._run_device = spy_co_execute, spy_run_device
    op(driver, random.Random(1))
    assert seen, f"{name}: no co-executed round"
    assert all(sinks == [] for _, sinks in seen)
    assert traced_calls == []
    assert device.machine.harvest is None


# -- the harvest is cleared on every exit path --------------------------------

def _pcnet_guarded():
    prof = profile("pcnet")
    vm, device = prof.make_vm()
    attachment = deploy(vm, device, trained_spec("pcnet"))
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    return vm, device, attachment, driver


def test_fault_hook_infra_error_clears_harvest():
    vm, device, attachment, driver = _pcnet_guarded()
    seen = []

    def hook(key):
        if attachment.sync_keys.get(key):
            seen.append(device.machine.harvest)
            raise InfraError("injected step fault", kind="interp-step")

    device.machine.set_fault_hook(hook)
    with pytest.raises(InfraError):
        driver.send_frame(bytes(60))
    assert seen == [{}]
    assert device.machine.harvest is None


@pytest.mark.parametrize("mode", [Mode.ENHANCEMENT, Mode.PROTECTION])
def test_device_fault_mid_round_clears_harvest(mode):
    vm, device, attachment, driver = _pcnet_guarded()
    attachment.checker.mode = mode
    reads = []
    dma_read = device.machine._externs["dma_read"]

    def failing_read(m, addr):
        if m.harvest is not None:       # only inside co-executed rounds
            reads.append(addr)
            if len(reads) > 8:
                raise DeviceFault("injected DMA fault", device="pcnet",
                                  kind="dma")
        return dma_read(m, addr)

    device.machine.bind_extern("dma_read", failing_read, cost=40)
    with pytest.raises((DeviceFault, SEDSpecHalt)):
        driver.send_frame(bytes(range(60)))
    assert len(reads) > 8
    assert device.machine.harvest is None
