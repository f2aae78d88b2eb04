"""Micro-benchmarks of the pipeline's core components: compilation,
tracing+decoding, training, spec construction, and per-round checking
cost.

These quantify where the offline and online time goes — useful context
for every macro number in the table/figure benches.
"""

from conftest import spec_for

import random

import pytest

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import ESChecker
from repro.checker.sync import FieldSyncOracle
from repro.compiler import compile_device
from repro.core import deploy
from repro.devices.fdc import FDC, FDCLogic
from repro.interp import BACKENDS, Machine
from repro.ipt import Decoder, IPTTracer
from repro.spec import build_spec, spec_from_json, spec_to_json
from repro.workloads.profiles import PROFILES, train_device_spec


def bench_compile_fdc(benchmark):
    program = benchmark(compile_device, FDCLogic)
    assert program.frozen
    assert program.block_count() > 40


@pytest.mark.parametrize("backend", BACKENDS)
def bench_trace_and_decode(benchmark, backend):
    prof = PROFILES["fdc"]

    def traced_session():
        vm, device = prof.make_vm(backend=backend)
        tracer = device.machine.add_sink(IPTTracer())
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        driver.write_lba(3, bytes(512))
        driver.read_lba(3)
        # Training's decode: the tracer's wire bytes, in one pass.
        rounds, result = Decoder(device.program).decode_bytes(tracer.raw())
        assert result.ok
        return rounds

    rounds = benchmark(traced_session)
    assert len(rounds) > 20


def bench_train_spec(benchmark):
    """The spec registry's training of one device: boot, the traced
    training run, decode, ITC-CFG, selection and spec construction."""
    artifacts = benchmark(train_device_spec, "fdc")
    assert artifacts.training_rounds > 0


def bench_spec_construction(benchmark):
    prof = PROFILES["fdc"]
    vm, device = prof.make_vm()
    selection = select_parameters(device.program)
    logger = device.machine.add_sink(ObservationLogger(
        "fdc", selection.scalar_params | selection.funcptrs,
        selection.buffers))
    prof.training(vm, device, random.Random(7))
    spec = benchmark(build_spec, device.program, logger.log, selection)
    assert spec.block_count() > 0


def bench_spec_serialization_roundtrip(benchmark):
    spec = spec_for("fdc")
    restored = benchmark(lambda: spec_from_json(spec_to_json(spec)))
    assert restored.block_count() == spec.block_count()


_FDC_SEQUENCES = None


def _fdc_sequences():
    """The I/O rounds of FDC bring-up plus one full read_lba command —
    the representative workload both hot benches replay.  A command
    cycle ends back in the idle state, so replaying it is repeatable."""
    global _FDC_SEQUENCES
    if _FDC_SEQUENCES is None:
        prof = PROFILES["fdc"]
        vm, device = prof.make_vm()
        driver = prof.make_driver(vm)
        seq = []
        orig = vm._io

        def spy(dev, key, args, *route):
            seq.append((key, args))
            return orig(dev, key, args, *route)

        vm._io = spy
        prof.prepare(vm, driver)
        prepare_seq = tuple(seq)
        seq.clear()
        driver.read_lba(3)
        vm._io = orig
        _FDC_SEQUENCES = (prepare_seq, tuple(seq), device.snapshot())
    return _FDC_SEQUENCES


@pytest.mark.parametrize("backend", BACKENDS)
def bench_checker_per_round(benchmark, backend):
    """The online cost guest I/O pays: the check_io rounds of one full
    read_lba command (22 rounds, ~1100 ES blocks walked)."""
    spec = spec_for("fdc")
    _, command_seq, prepared_state = _fdc_sequences()
    checker = ESChecker(spec, backend=backend)
    checker.boot_sync(prepared_state)
    oracle = FieldSyncOracle(prepared_state)

    def one_command():
        ok = True
        for key, args in command_seq:
            ok &= checker.check_io(key, args, oracle=oracle).ok
        return ok

    assert benchmark(one_command)


def bench_guarded_round(benchmark):
    """What a guest I/O round pays end to end on the VM: port lookup,
    the checker's strict vet, the device round and the VM's accounting,
    through ``vm.inb``/``vm.outl`` with a deployed bytecode checker.
    One pcnet receive — a 256-byte frame delivered (one co-executed
    round) and drained a byte at a time (256 trivial strict
    ``pmio:read:6`` rounds) — so the per-round toll outside the two
    generated frames dominates."""
    prof = PROFILES["pcnet"]
    vm, device = prof.make_vm()
    deploy(vm, device, spec_for("pcnet"))
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    frame = bytes(range(256))

    def receive():
        driver.deliver_frame(frame)
        return driver.read_frame(len(frame))

    assert benchmark(receive) == frame
    assert vm.warning_count("pcnet") == 0


@pytest.mark.parametrize("backend", BACKENDS)
def bench_device_round_uncached(benchmark, backend):
    """Raw device-side cost of the same command, for comparison."""
    prepare_seq, command_seq, _ = _fdc_sequences()
    device = FDC(backend=backend)
    for key, args in prepare_seq:
        device.handle_io(key, args)

    def one_command():
        for key, args in command_seq:
            device.handle_io(key, args)

    benchmark(one_command)
