"""Batched-vs-per-round parity: ``check_batch`` is semantics-free.

The batched entry exists purely for throughput — one checker invocation
amortizes frame setup, dispatch-table binding and bound-constant loads
over a queue of I/O rounds.  Its contract is byte-identical observables:
running ``check_batch`` over N captured rounds must yield exactly the
``CheckReport`` sequence of N ``check_io`` calls in the same order —
same anomalies, actions, walk counters, per-round final states, cycle
accounting, and committed shadow device state.

The suite certifies that contract over every device profile (composite
multi-device guests included), every seeded CVE PoC, and the generated
synthetic vulnerability corpus, on both backends: no detection may be
lost and no new false positive introduced by batching.
"""

import random

import pytest

from repro.checker import BACKENDS, ESChecker, Mode
from repro.errors import DeviceFault
from repro.exploits.corpus import generate_corpus, trained_spec
from repro.exploits.pocs import EXPLOITS
from repro.workloads.profiles import profile, split_device

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi",
               "virtio-net", "virtio-blk")
COMPOSITES = ("virtio-net+virtio-blk", "fdc+sdhci")
BATCH_SIZES = (1, 3, 8)
CORPUS = generate_corpus()


def _capture(device_name, qemu_version="99.0.0", drive=None):
    """Run a workload with *no* checker attached, spying on the VM's
    I/O demux; returns per-part (boot state, captured rounds)."""
    prof = profile(device_name)
    vm, device = prof.make_vm(qemu_version)
    boot = {name: dev.snapshot() for name, dev in vm.devices.items()}
    rounds = {name: [] for name in vm.devices}
    orig = vm._io

    def spy(dev, key, args, *route):
        rounds[dev.NAME].append((key, tuple(args)))
        return orig(dev, key, args, *route)

    vm._io = spy
    if drive is None:
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        rng = random.Random(2024)
        for op in prof.common_ops + prof.rare_ops:
            op(vm, driver, rng)
    else:
        try:
            drive(vm, device)
        except DeviceFault:
            pass    # the captured prefix is the interesting part
    return boot, rounds


def _replay(spec, boot_state, rounds, backend, mode, batch=0):
    """Feed captured rounds to a fresh checker; ``batch == 0`` checks
    per round, otherwise in chunks of *batch* through check_batch."""
    checker = ESChecker(spec, mode=mode, backend=backend)
    checker.boot_sync(boot_state)
    reports = []
    if batch == 0:
        for key, args in rounds:
            reports.append(checker.check_io(key, args))
    else:
        for i in range(0, len(rounds), batch):
            reports.extend(checker.check_batch(rounds[i:i + batch]))
    return checker, reports


def _assert_parity(ref, ref_reports, bat, bat_reports):
    assert len(bat_reports) == len(ref_reports)
    for ref_report, bat_report in zip(ref_reports, bat_reports):
        # dataclass equality covers io_key, action, anomalies, policy,
        # walk counters and incompleteness
        assert bat_report == ref_report
        assert bat_report.final_state == ref_report.final_state
    assert bat.cycles == ref.cycles
    assert bat.device_state.dump() == ref.device_state.dump()


@pytest.fixture(scope="module")
def benign_captures():
    """One benign capture per (possibly composite) profile, shared —
    replays are cheap, captures drive a whole VM workload."""
    captures = {}
    for name in ALL_DEVICES + COMPOSITES:
        captures[name] = _capture(name)
    return captures


@pytest.mark.parametrize("name", ALL_DEVICES + COMPOSITES)
@pytest.mark.parametrize("backend", BACKENDS)
class TestBenignParity:
    """Benign profile traffic, every backend, every batch size."""

    def test_batched_equals_per_round(self, name, backend,
                                      benign_captures):
        boot, rounds = benign_captures[name]
        for part in split_device(name):
            spec = trained_spec(part)
            part_rounds = rounds[part]
            assert part_rounds, f"capture for {part} is empty"
            ref, ref_reports = _replay(spec, boot[part], part_rounds,
                                       backend, Mode.ENHANCEMENT)
            for size in BATCH_SIZES:
                bat, bat_reports = _replay(spec, boot[part], part_rounds,
                                           backend, Mode.ENHANCEMENT,
                                           batch=size)
                _assert_parity(ref, ref_reports, bat, bat_reports)


@pytest.mark.parametrize("attack", EXPLOITS + tuple(CORPUS),
                         ids=lambda a: a.cve)
@pytest.mark.parametrize("backend", BACKENDS)
class TestExploitParity:
    """Every seeded CVE PoC and every synthetic corpus PoC: batching
    loses no detection and invents none."""

    def test_reports_identical_and_detections_kept(self, attack,
                                                   backend):
        boot, rounds = _capture(attack.device, attack.qemu_version,
                                drive=attack.run)
        spec = trained_spec(attack.device, attack.qemu_version)
        attack_rounds = rounds[attack.device]
        assert attack_rounds, f"capture for {attack.cve} is empty"
        ref, ref_reports = _replay(spec, boot[attack.device],
                                   attack_rounds, backend,
                                   Mode.PROTECTION)
        bat, bat_reports = _replay(spec, boot[attack.device],
                                   attack_rounds, backend,
                                   Mode.PROTECTION, batch=8)
        _assert_parity(ref, ref_reports, bat, bat_reports)
        flagged_ref = [i for i, r in enumerate(ref_reports)
                       if r.anomalies]
        flagged_bat = [i for i, r in enumerate(bat_reports)
                       if r.anomalies]
        assert flagged_bat == flagged_ref
        if not getattr(attack, "expected_miss", False):
            assert flagged_bat, f"{attack.cve} detection lost"


class TestEdgeParity:
    """Batch-boundary edges the benign sweep cannot hit."""

    def test_unknown_keys_interleaved(self, benign_captures):
        """Unknown io keys flag-and-skip without binding a final state;
        interleaving them mid-batch must not desync the committed
        shadow snapshot the neighbouring rounds see."""
        boot, rounds = benign_captures["fdc"]
        seq = list(rounds["fdc"])
        for pos in (0, len(seq) // 2, len(seq)):
            seq.insert(pos, ("pmio:write:15", (0x55,)))
        spec = trained_spec("fdc")
        ref, ref_reports = _replay(spec, boot["fdc"], seq,
                                   "bytecode", Mode.ENHANCEMENT)
        for size in BATCH_SIZES:
            bat, bat_reports = _replay(spec, boot["fdc"], seq,
                                       "bytecode", Mode.ENHANCEMENT,
                                       batch=size)
            _assert_parity(ref, ref_reports, bat, bat_reports)
        assert any(r.anomalies and r.anomalies[0].kind == "unknown-io-key"
                   for r in ref_reports)

    def test_empty_batch_is_a_noop(self):
        spec = trained_spec("fdc")
        checker = ESChecker(spec, backend="bytecode")
        assert checker.check_batch([]) == []
        assert checker.cycles == 0
        assert checker.device_state.dump() \
            == ESChecker(spec).device_state.dump()

    def test_generator_input_streams(self, benign_captures):
        """check_batch accepts a generator — the streaming-decode
        consumer shape — without materializing the round list."""
        boot, rounds = benign_captures["fdc"]
        seq = list(rounds["fdc"])
        spec = trained_spec("fdc")
        ref, ref_reports = _replay(spec, boot["fdc"], seq,
                                   "bytecode", Mode.ENHANCEMENT)
        bat = ESChecker(spec, backend="bytecode")
        bat.boot_sync(boot["fdc"])
        bat_reports = bat.check_batch(pair for pair in seq)
        _assert_parity(ref, ref_reports, bat, bat_reports)
