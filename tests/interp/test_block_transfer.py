"""Differential tests of the fast runner's block transfers.

The bytecode fast runner moves a device model's counted byte-copy loop
(``for i in range(n)`` whose one body block reads, stores or writes one
byte through an extern) with one call of each extern's block twin,
behind a guard that sends every other entry to the unchanged scalar
loop.  Every case here runs one matched loop three ways — the fast
runner with its twins, the same runner with the twins unbound (the
scalar loop) and the reference walker — and demands identical
observables: the outcome (result or fault), state bytes, cycles,
steps, the flag register, the extern harvest and the backends (store
contents and counters, net staging and frames).  Each case also says
whether the block path must run, so a guard that lets an overflow
through, or a matcher that silently falls back, fails here.
"""

import random
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import pytest

from repro.devices.base import create_device
from repro.errors import DeviceFault, InterpError
from repro.exploits.corpus import corpus_cve_ids, resolve_attack
from repro.exploits.pocs import run_exploit
from repro.interp import BACKENDS
from repro.workloads.profiles import PROFILES

from tests.devices.fixtures import backend_snapshot
from tests.interp.test_compile import _round_log

MEM = 1 << 20           # GuestMemory's default size
CHUNK = 1 << 16         # the sparse stores' allocation granule


@dataclass(frozen=True)
class Case:
    id: str
    device: str
    func: str
    args: Tuple[int, ...] = ()
    #: whether the loop must take the block path
    block: bool = True
    #: state fields; ``"buf[k]"`` names one buffer element
    fields: Dict[str, int] = field(default_factory=dict)
    version: str = "99.0.0"
    max_steps: Optional[int] = None
    unbind: Tuple[str, ...] = ()
    #: guest-memory bytes to plant (e.g. an owned rx descriptor)
    poke: Dict[int, int] = field(default_factory=dict)


def _chs(lba):
    """fdc do_transfer's FIFO parameters for a linear sector."""
    track, rest = divmod(lba, 36)
    head, sector = divmod(rest, 18)
    return {"fifo[1]": track, "fifo[2]": head, "fifo[3]": sector + 1}


FDC_END = 2880          # sectors on the 1.44 MB image
CASES = [
    # fdc do_transfer: disk -> guest memory (0) and back (1)
    Case("fdc-read-in-range", "fdc", "do_transfer", (0,),
         fields={**_chs(36), "dma_addr": 0x2000}),
    Case("fdc-write-in-range", "fdc", "do_transfer", (1,),
         fields={**_chs(36), "dma_addr": 0x2000}),
    Case("fdc-read-mem-chunk-straddle", "fdc", "do_transfer", (0,),
         fields={**_chs(5), "dma_addr": CHUNK - 100}),
    Case("fdc-write-mem-chunk-straddle", "fdc", "do_transfer", (1,),
         fields={**_chs(5), "dma_addr": CHUNK - 100}),
    Case("fdc-read-mem-end", "fdc", "do_transfer", (0,),
         fields={**_chs(5), "dma_addr": MEM - 100}),
    Case("fdc-write-mem-past-end", "fdc", "do_transfer", (1,),
         fields={**_chs(5), "dma_addr": MEM + 7}),
    Case("fdc-read-disk-negative", "fdc", "do_transfer", (0,),
         fields={"fifo[1]": 0, "fifo[2]": 0, "fifo[3]": 0,
                 "dma_addr": 0x2000}),
    Case("fdc-write-disk-negative", "fdc", "do_transfer", (1,),
         fields={"fifo[1]": 0, "fifo[2]": 0, "fifo[3]": 0,
                 "dma_addr": 0x2000}),
    Case("fdc-read-disk-end", "fdc", "do_transfer", (0,),
         fields={**_chs(FDC_END - 1), "dma_addr": 0x2000}),
    Case("fdc-write-disk-past-end", "fdc", "do_transfer", (1,),
         fields={**_chs(FDC_END), "dma_addr": 0x2000}),
    # the write range starts inside the read range: per-byte order kept
    Case("fdc-read-overlapping-ranges", "fdc", "do_transfer", (0,),
         block=False, fields={**_chs(2), "dma_addr": 2 * 512 + 100}),
    Case("fdc-watchdog-mid-loop", "fdc", "do_transfer", (0,),
         block=False, fields={**_chs(36), "dma_addr": 0x2000},
         max_steps=300),
    Case("fdc-unbound-extern", "fdc", "do_transfer", (0,),
         block=False, fields={**_chs(36), "dma_addr": 0x2000},
         unbind=("dma_write",)),
    # pcnet copy_tx_payload: guest memory -> buffer[xmit_pos++]
    Case("pcnet-tx-in-range", "pcnet", "copy_tx_payload", (1, 600),
         fields={"tdra": 0x3000, "xmit_pos": 0}),
    Case("pcnet-tx-cursor-fills-buffer", "pcnet", "copy_tx_payload",
         (0, 600), fields={"tdra": 0x3000, "xmit_pos": 4096 - 600}),
    Case("pcnet-tx-cursor-at-end", "pcnet", "copy_tx_payload", (0, 1),
         block=False, fields={"tdra": 0x3000, "xmit_pos": 4096}),
    Case("pcnet-tx-cursor-past-end", "pcnet", "copy_tx_payload", (0, 200),
         block=False, fields={"tdra": 0x3000, "xmit_pos": 4000}),
    Case("pcnet-tx-cursor-negative", "pcnet", "copy_tx_payload", (0, 10),
         block=False, fields={"tdra": 0x3000, "xmit_pos": -5}),
    Case("pcnet-tx-mem-chunk-straddle", "pcnet", "copy_tx_payload",
         (0, 100), fields={"tdra": CHUNK - 16 - 40, "xmit_pos": 0}),
    Case("pcnet-tx-mem-past-end", "pcnet", "copy_tx_payload", (0, 100),
         fields={"tdra": MEM - 16 - 50, "xmit_pos": 7}),
    Case("pcnet-tx-watchdog-mid-loop", "pcnet", "copy_tx_payload",
         (1, 600), block=False, fields={"tdra": 0x3000}, max_steps=300),
    Case("pcnet-tx-unbound-extern", "pcnet", "copy_tx_payload", (1, 60),
         block=False, fields={"tdra": 0x3000}, unbind=("dma_read",)),
    # pcnet rx_notify: the staged frame -> buffer[recv_pos++]
    Case("pcnet-rx-in-range", "pcnet", "rx_notify", (300,),
         fields={"rdra": 0x4000}, poke={0x4000: 1}),
    Case("pcnet-rx-past-frame", "pcnet", "rx_notify", (1000,),
         fields={"rdra": 0x4000}, poke={0x4000: 1}),
    Case("pcnet-rx-full-buffer", "pcnet", "rx_notify", (4096,),
         fields={"rdra": 0x4000}, poke={0x4000: 1}),
    # pcnet finish_transmit: buffer[i] -> the net staging stream
    Case("pcnet-finish-in-range", "pcnet", "finish_transmit",
         fields={"xmit_pos": 700}),
    Case("pcnet-finish-full-buffer", "pcnet", "finish_transmit",
         fields={"xmit_pos": 4096}),
    Case("pcnet-finish-past-buffer", "pcnet", "finish_transmit",
         block=False, fields={"xmit_pos": 4100}),
    Case("pcnet-finish-past-struct", "pcnet", "finish_transmit",
         block=False, fields={"xmit_pos": 4200}),
    # sdhci fill_fifo / flush_block: disk <-> fifo_buffer[i]
    Case("sdhci-fill-in-range", "sdhci", "fill_fifo",
         fields={"cur_lba": 10, "blksize": 512}),
    Case("sdhci-fill-disk-chunk-straddle", "sdhci", "fill_fifo",
         fields={"cur_lba": 127, "blksize": 1024}),
    Case("sdhci-fill-disk-end", "sdhci", "fill_fifo",
         fields={"cur_lba": (16 << 20) // 512 - 1, "blksize": 1024}),
    Case("sdhci-fill-past-buffer", "sdhci", "fill_fifo", block=False,
         fields={"cur_lba": 10, "blksize": 4200}),
    Case("sdhci-flush-in-range", "sdhci", "flush_block",
         fields={"cur_lba": 10, "blksize": 512, "blkcnt": 4}),
    Case("sdhci-flush-disk-chunk-straddle", "sdhci", "flush_block",
         fields={"cur_lba": 127, "blksize": 1024, "blkcnt": 1}),
    Case("sdhci-flush-disk-past-end", "sdhci", "flush_block",
         fields={"cur_lba": 40000, "blksize": 512, "blkcnt": 1}),
    Case("sdhci-flush-past-buffer", "sdhci", "flush_block", block=False,
         fields={"cur_lba": 10, "blksize": 4097, "blkcnt": 4}),
    # ESP stage_block / flush_data_block: disk <-> databuf[i]
    Case("scsi-stage-in-range", "scsi", "stage_block",
         fields={"cur_lba": 5}),
    Case("scsi-stage-disk-end", "scsi", "stage_block",
         fields={"cur_lba": (32 << 20) // 512 - 1}),
    Case("scsi-stage-disk-past-end", "scsi", "stage_block",
         fields={"cur_lba": 70000}),
    Case("scsi-flush-in-range", "scsi", "flush_data_block",
         fields={"cur_lba": 5, "xfer_len": 1024}),
    Case("scsi-flush-disk-past-end", "scsi", "flush_data_block",
         fields={"cur_lba": 70000, "xfer_len": 512}),
    # ehci block_read / block_write: disk <-> data_buf[i]
    Case("ehci-read-in-range", "ehci", "block_read", fields={"lba": 3}),
    Case("ehci-read-disk-past-end", "ehci", "block_read",
         fields={"lba": 20000}),
    Case("ehci-write-in-range", "ehci", "block_write",
         fields={"lba": 3, "setup_len": 512}),
    Case("ehci-write-disk-chunk-straddle", "ehci", "block_write",
         fields={"lba": 127, "setup_len": 1024}),
    Case("ehci-write-past-buffer", "ehci", "block_write", block=False,
         fields={"lba": 3, "setup_len": 4100}),
    Case("ehci-write-negative-count", "ehci", "block_write", block=False,
         fields={"lba": 3, "setup_len": -5}),
    # virtio gather_bytes: guest memory -> buffer[gather_pos++]
    Case("vnet-gather-in-range", "virtio-net", "gather_bytes",
         (0x3000, 500)),
    Case("vnet-gather-negative-addr", "virtio-net", "gather_bytes",
         (-100, 300)),
    Case("vnet-gather-mem-chunk-straddle", "virtio-net", "gather_bytes",
         (CHUNK - 50, 100)),
    Case("vnet-gather-mem-end", "virtio-net", "gather_bytes",
         (MEM - 30, 100)),
    Case("vnet-gather-cursor-fills-buffer", "virtio-net", "gather_bytes",
         (0x3000, 500), fields={"gather_pos": 4096 - 500}),
    Case("vnet-gather-cursor-at-end", "virtio-net", "gather_bytes",
         (0x3000, 1), block=False, fields={"gather_pos": 4096},
         version="7.0.0"),
    Case("vnet-gather-cursor-past-end", "virtio-net", "gather_bytes",
         (0x3000, 200), block=False, fields={"gather_pos": 4000},
         version="7.0.0"),
    Case("vblk-gather-in-range", "virtio-blk", "gather_bytes",
         (0x3000, 700), fields={"gather_pos": 100}),
    Case("vblk-gather-cursor-past-end", "virtio-blk", "gather_bytes",
         (0x3000, 200), block=False, fields={"gather_pos": 4000},
         version="7.0.0"),
    # virtio-net rx_notify / seal_and_send
    Case("vnet-rx-in-range", "virtio-net", "rx_notify", (300,),
         fields={"q0_avail": 1}),
    Case("vnet-rx-past-frame", "virtio-net", "rx_notify", (1000,),
         fields={"q0_avail": 1}),
    Case("vnet-seal-in-range", "virtio-net", "seal_and_send",
         fields={"gather_pos": 300}),
    Case("vnet-seal-past-buffer", "virtio-net", "seal_and_send",
         block=False, fields={"gather_pos": 4100}),
    # virtio-blk fill_from_disk / flush_to_disk
    Case("vblk-fill-in-range", "virtio-blk", "fill_from_disk",
         (0x3000, 512), fields={"req_sector": 2}),
    Case("vblk-fill-disk-negative", "virtio-blk", "fill_from_disk",
         (0x3000, 300), fields={"req_sector": 0, "read_off": -100}),
    Case("vblk-fill-disk-chunk-straddle", "virtio-blk", "fill_from_disk",
         (0x3000, 512), fields={"req_sector": 127, "read_off": 300}),
    Case("vblk-fill-disk-end", "virtio-blk", "fill_from_disk",
         (0x3000, 512), fields={"req_sector": 2047, "read_off": 300}),
    Case("vblk-fill-mem-past-end", "virtio-blk", "fill_from_disk",
         (MEM + 10, 100), fields={"req_sector": 2}),
    Case("vblk-fill-overlapping-ranges", "virtio-blk", "fill_from_disk",
         (0x3000, 100), block=False,
         fields={"req_sector": 0, "read_off": 0x3000 - 10}),
    Case("vblk-fill-watchdog-mid-loop", "virtio-blk", "fill_from_disk",
         (0x3000, 512), block=False, fields={"req_sector": 2},
         max_steps=300),
    Case("vblk-flush-in-range", "virtio-blk", "flush_to_disk",
         fields={"gather_pos": 600, "req_sector": 3}),
    Case("vblk-flush-disk-end", "virtio-blk", "flush_to_disk",
         fields={"gather_pos": 600, "req_sector": 2047}),
    Case("vblk-flush-past-buffer", "virtio-blk", "flush_to_disk",
         block=False, fields={"gather_pos": 4100, "req_sector": 3}),
]


def _pattern(lo: int, hi: int) -> bytes:
    return bytes((a * 37 + 11) & 0xFF for a in range(lo, hi))


def _seed_backends(device) -> None:
    """Non-zero bytes at the start, around the first chunk boundary and
    at the end of every store, in every state buffer, and a staged rx
    frame."""
    for store in (getattr(device, "disk", None),
                  getattr(device, "memory", None)):
        if store is not None:
            for lo, hi in ((0, 0x8000), (CHUNK - 4096, CHUNK + 4096),
                           (store.size - 8192, store.size)):
                store.write_block(lo, _pattern(lo, hi))
    state = device.state
    for decl in state.layout.fields:
        if decl.is_buffer:
            state.data[decl.offset:decl.end] = _pattern(decl.offset,
                                                        decl.end)
    if hasattr(device, "stage_rx_frame"):
        device.stage_rx_frame(_pattern(5, 305))


def _drop_twins(machine) -> None:
    """Rebind every extern without its twin: the scalar loops run."""
    for name in list(machine._extern_block):
        machine.bind_extern(name, machine._externs[name],
                            machine._extern_cost[name])
    assert not machine._extern_block


def _count_twins(machine):
    """Wrap every twin; returns the ``(extern, calling frame)`` log."""
    calls = []
    for name, twin in list(machine._extern_block.items()):
        def counted(*args, _twin=twin, _name=name):
            calls.append((_name, sys._getframe(1).f_code.co_filename))
            return _twin(*args)
        machine._extern_block[name] = counted
    return calls


def _run(case: Case, backend: str, twins: bool, harvest: bool):
    device = create_device(case.device, qemu_version=case.version,
                           backend=backend)
    machine = device.machine
    _seed_backends(device)
    for addr, value in case.poke.items():
        device.memory.write_block(addr, bytes([value]))
    if not twins:
        _drop_twins(machine)
    calls = _count_twins(machine)
    for name in case.unbind:
        del machine._externs[name]
    for name, value in case.fields.items():
        if "[" in name:
            buf, index = name[:-1].split("[")
            device.state.write_buf(buf, int(index), value)
        else:
            device.state.write_field(name, value)
    if case.max_steps is not None:
        machine.max_steps = case.max_steps
    machine.harvest = {} if harvest else None
    try:
        outcome = ("ok", machine.run_function(case.func, case.args))
    except (DeviceFault, InterpError) as exc:
        outcome = (type(exc).__name__, getattr(exc, "kind", None), str(exc))
    observed = (outcome, bytes(machine.state.data), machine.cycles,
                machine.steps, machine.flags.overflow,
                machine.flags.last_store_field,
                {key: list(values)
                 for key, values in (machine.harvest or {}).items()},
                backend_snapshot(device))
    return observed, calls


@pytest.mark.parametrize("harvest", [False, True],
                         ids=["harvest-off", "harvest-on"])
@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_block_path_is_the_scalar_loop(case, harvest):
    """Twins on, twins off and the reference walker leave every
    observable identical, and the block path runs exactly when the
    case says the guard holds."""
    with_twins, calls = _run(case, "bytecode", True, harvest)
    scalar, scalar_calls = _run(case, "bytecode", False, harvest)
    reference, _ = _run(case, "reference", False, harvest)
    assert scalar_calls == []
    assert scalar == reference
    assert with_twins == reference
    assert bool(calls) == case.block, calls


def test_every_matched_loop_has_a_case():
    """Each loop the fast runner moves as a block is covered above."""
    from repro.interp.bytecode import _match_transfers

    matched = set()
    for name in sorted(PROFILES):
        program = create_device(name).machine.program
        matched |= {(name, func.name) for func in
                    program.functions.values() if _match_transfers(func)}
    covered = {(c.device, c.func) for c in CASES if c.block}
    assert matched == covered


#: (function, extern) pairs of the loops benign traffic must move as
#: blocks, per model
LISTED = {
    "fdc": {("do_transfer", "disk_read"), ("do_transfer", "dma_write"),
            ("do_transfer", "dma_read"), ("do_transfer", "disk_write")},
    "pcnet": {("copy_tx_payload", "dma_read"),
              ("rx_notify", "net_rx_byte"),
              ("finish_transmit", "net_tx_byte")},
    "sdhci": {("fill_fifo", "disk_read"), ("flush_block", "disk_write")},
    "scsi": {("stage_block", "disk_read"),
             ("flush_data_block", "disk_write")},
    "ehci": {("block_read", "disk_read"), ("block_write", "disk_write")},
    "virtio-net": {("gather_bytes", "dma_read"),
                   ("rx_notify", "net_rx_byte"),
                   ("seal_and_send", "net_tx_byte")},
    "virtio-blk": {("gather_bytes", "dma_read"),
                   ("fill_from_disk", "disk_read"),
                   ("fill_from_disk", "dma_write"),
                   ("flush_to_disk", "disk_write")},
}


@pytest.mark.parametrize("name", sorted(LISTED))
def test_benign_traffic_reaches_every_listed_twin(name):
    """prepare + the common ops move each listed loop as a block at
    least once: a matcher or guard that silently falls back to the
    scalar loop fails here."""
    prof = PROFILES[name]
    vm, device = prof.make_vm()
    calls = _count_twins(device.machine)
    driver = prof.make_driver(vm)
    prof.prepare(vm, driver)
    rng = random.Random(4321)
    for op in prof.common_ops:
        op(vm, driver, rng)
    # the generated frames are named <bytecode:Struct.function>
    reached = {(frame.rsplit(".", 1)[1].rstrip(">"), extern)
               for extern, frame in calls}
    assert LISTED[name] <= reached


#: the copy-loop overflows: pcnet's xmit_pos, ehci's setup_len, sdhci's
#: blksize, and virtio's scatter-gather (oob-write) and trailer
#: (reentrancy) families
OVERFLOW_POCS = ("CVE-2015-7512", "CVE-2020-14364", "CVE-2021-3409") + tuple(
    ident for device in ("virtio-net", "virtio-blk")
    for ident in corpus_cve_ids(device)
    if ident.split(":")[2] in ("oob-write", "reentrancy"))


@pytest.mark.parametrize("ident", OVERFLOW_POCS)
def test_overflow_pocs_run_as_on_the_reference(ident):
    """Every overflowing copy of these PoCs must take the scalar loop:
    after each round the fast runner's device (state, counters, flags,
    backends, fault) equals the reference walker's, which a block
    transfer — it never writes outside its buffer — could not give."""
    exploit = resolve_attack(ident)
    runs = []
    for backend in BACKENDS:
        vm, device = PROFILES[exploit.device].make_vm(exploit.qemu_version,
                                                       backend)
        log = _round_log(device)
        outcome = run_exploit(vm, device, exploit)
        runs.append((outcome.device_faulted, outcome.fault_kind, log))
    assert runs[0][2], "the PoC ran no I/O round"
    assert runs[1] == runs[0]
