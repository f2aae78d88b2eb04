"""Per-device workload profiles.

A :class:`DeviceProfile` bundles everything the experiments need to know
about one device: how to build and attach it, how to drive *training*
traffic (Section IV-C: varied configurations and parameters), which guest
operations are *common* (exercised in training), and which are *rare* —
legitimate commands that training never saw, the paper's stated source of
false positives.

Scaling note: the paper trains with web/QTest-derived corpora and runs
30-hour workloads; our interpreted substrate runs the same protocol
traffic at reduced volume (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.devices.base import Device, create_device
from repro.interp.machine import DEFAULT_BACKEND
from repro.vm.machine import GuestVM
from repro.vm.drivers.ehci import EHCIDriver
from repro.vm.drivers.fdc import FDCDriver
from repro.vm.drivers.pcnet import PCNetDriver
from repro.vm.drivers.scsi import SCSIDriver
from repro.vm.drivers.sdhci import SDHCIDriver
from repro.vm.drivers.virtio import VirtioBlkDriver, VirtioNetDriver

BASE_PORTS = {"fdc": 0x3F0, "pcnet": 0x300, "ehci": 0x400,
              "sdhci": 0x500, "scsi": 0x600,
              "virtio-net": 0x700, "virtio-blk": 0x800}

#: Synthetic stand-ins for the paper's storage configurations: each
#: "filesystem" writes its metadata at characteristic offsets/patterns.
FILESYSTEM_LAYOUTS = {
    "FAT32": {"superblock_lba": 0, "meta_stride": 2, "fill": 0xF6},
    "NTFS": {"superblock_lba": 0, "meta_stride": 4, "fill": 0x00},
    "EXT4": {"superblock_lba": 2, "meta_stride": 8, "fill": 0xEF},
}

Op = Callable[[GuestVM, object, random.Random], None]


@dataclass
class DeviceProfile:
    name: str
    base_port: int
    kind: str                      # "storage" | "network"
    make_driver: Callable[[GuestVM], object]
    training: Callable[[GuestVM, Device, random.Random], None]
    prepare: Callable[[GuestVM, object], None]
    common_ops: List[Op]
    rare_ops: List[Op]
    #: sampling weights aligned with common_ops (block I/O is weighted
    #: down so interaction cases mix light register traffic with data
    #: transfers the way real guests do)
    op_weights: Optional[List[float]] = None
    #: register bus: "pmio" (port I/O) or "mmio" (memory-mapped)
    bus: str = "pmio"

    def make_vm(self, qemu_version: str = "99.0.0",
                backend: str = DEFAULT_BACKEND) -> Tuple[GuestVM, Device]:
        vm = GuestVM()
        device = create_device(self.name, qemu_version=qemu_version,
                               backend=backend)
        if self.bus == "mmio":
            vm.attach_mmio_device(device, self.base_port)
        else:
            vm.attach_device(device, self.base_port)
        return vm, device

    def poke(self, vm: GuestVM, offset: int, value: int) -> None:
        """Raw register write on whichever bus the device uses."""
        if self.bus == "mmio":
            vm.mmio_write(self.base_port + offset, value)
        else:
            vm.outb(self.base_port + offset, value)

    def peek(self, vm: GuestVM, offset: int) -> int:
        if self.bus == "mmio":
            return vm.mmio_read(self.base_port + offset)
        return vm.inb(self.base_port + offset)


# ---------------------------------------------------------------------------
# FDC
# ---------------------------------------------------------------------------

def _fdc_prepare(vm: GuestVM, driver: FDCDriver) -> None:
    driver.controller_reset()
    driver.specify()

def _fdc_training(vm: GuestVM, device: Device, rng: random.Random) -> None:
    driver = FDCDriver(vm, BASE_PORTS["fdc"])
    for layout in FILESYSTEM_LAYOUTS.values():
        driver.controller_reset()
        driver.specify()
        driver.version()
        driver.recalibrate()
        # "Format" the filesystem area, then metadata and file I/O.
        driver.format_track(1, sectors=2, filler=layout["fill"])
        for k in range(3):
            lba = layout["superblock_lba"] + k * layout["meta_stride"]
            driver.write_lba(lba, bytes([layout["fill"]]) * 512)
        for _ in range(6):
            lba = rng.randrange(0, 60)
            payload = bytes(rng.randrange(256) for _ in range(8)) * 64
            driver.write_lba(lba, payload)
            assert driver.read_lba(lba) == payload
        driver.seek(rng.randrange(0, 40))
        driver.read_id(0)
        driver.read_id(1)
        driver.msr()
        # Benign corner interactions real guests produce: polling the
        # DOR, probing the data port outside a command cycle (the
        # controller answers with an error status), sensing the drive.
        driver._in(2)
        driver._in(5)
        driver._command(0x04, [0])
        driver._results(1)
        driver._command(0x08, [])
        driver._out(5, 0x00)          # write during result phase
        driver._results(2)
        driver._out(4, 0x80)          # DSR software reset
        driver.sense_interrupt()
        driver._command(0x1F, [])     # unknown opcode: error result
        driver._results(1)
        driver.dumpreg()

def _fdc_write(vm, driver, rng):
    driver.write_lba(rng.randrange(0, 60),
                     bytes([rng.randrange(256)]) * 512)

def _fdc_read(vm, driver, rng):
    driver.read_lba(rng.randrange(0, 60))

def _fdc_seek(vm, driver, rng):
    driver.seek(rng.randrange(0, 79))

def _fdc_status(vm, driver, rng):
    driver.msr()

def _fdc_readid(vm, driver, rng):
    driver.read_id(rng.randrange(0, 2))

def _fdc_rare_configure(vm, driver, rng):
    driver.configure()


# ---------------------------------------------------------------------------
# PCNet
# ---------------------------------------------------------------------------

def _pcnet_prepare(vm: GuestVM, driver: PCNetDriver) -> None:
    driver.init_rings()

def _pcnet_training(vm: GuestVM, device: Device,
                    rng: random.Random) -> None:
    driver = PCNetDriver(vm, BASE_PORTS["pcnet"])
    # Vary "IP/MAC/gateway" payload headers, frame sizes incl. jumbo-ish,
    # and loopback mode — the paper's network training dimensions.
    for i, loopback in enumerate((False, True, False)):
        if i == 0:
            driver.init_via_block(loopback=loopback)
        else:
            driver.init_rings(loopback=loopback)
        for size in (60, 128, 256, 200, 64, 250):
            header = bytes(rng.randrange(256) for _ in range(14))
            frame = header + bytes(size - 14)
            driver.send_frame(frame)
            if loopback:
                driver.read_frame(size + 4)
        if not loopback:
            for size in (40, 120, 250):
                driver.deliver_frame(bytes(rng.randrange(256)
                                           for _ in range(size)))
                driver.read_frame(size)
        driver.read_csr(0)
        driver.read_csr(76)
        driver.read_csr(15)
        # Doorbell with nothing queued: the no-work transmit path.
        driver.write_csr(0, 0x0008)

def _pcnet_tx(vm, driver, rng):
    size = rng.choice((60, 120, 200, 250))
    driver.send_frame(bytes(rng.randrange(256) for _ in range(size)))

def _pcnet_rx(vm, driver, rng):
    size = rng.choice((60, 120, 200))
    driver.deliver_frame(bytes(size))
    driver.read_frame(size)

def _pcnet_csr_status(vm, driver, rng):
    driver.read_csr(0)

def _pcnet_rare_read_xmtrl(vm, driver, rng):
    driver.read_csr(78)


# ---------------------------------------------------------------------------
# EHCI
# ---------------------------------------------------------------------------

def _ehci_prepare(vm: GuestVM, driver: EHCIDriver) -> None:
    driver.start_controller()
    driver.set_address(1)
    driver.set_configuration(1)

def _ehci_training(vm: GuestVM, device: Device,
                   rng: random.Random) -> None:
    driver = EHCIDriver(vm, BASE_PORTS["ehci"])
    driver.start_controller()
    driver.get_descriptor()
    driver.set_address(rng.randrange(1, 10))
    driver.set_configuration(1)
    for layout in FILESYSTEM_LAYOUTS.values():
        lba = layout["superblock_lba"]
        driver.write_block(lba, bytes([layout["fill"]]) * 512)
    for _ in range(6):
        lba = rng.randrange(0, 50)
        payload = bytes(rng.randrange(256) for _ in range(16)) * 32
        driver.write_block(lba, payload)
        assert driver.read_block(lba) == payload
    driver.status()

def _ehci_write(vm, driver, rng):
    driver.write_block(rng.randrange(0, 50),
                       bytes([rng.randrange(256)]) * 512)

def _ehci_read(vm, driver, rng):
    driver.read_block(rng.randrange(0, 50))

def _ehci_descriptor(vm, driver, rng):
    driver.get_descriptor()

def _ehci_hc_status(vm, driver, rng):
    driver.status()

def _ehci_rare_get_status(vm, driver, rng):
    driver.get_status()


# ---------------------------------------------------------------------------
# SDHCI
# ---------------------------------------------------------------------------

def _sdhci_prepare(vm: GuestVM, driver: SDHCIDriver) -> None:
    driver.reset_card()

def _sdhci_training(vm: GuestVM, device: Device,
                    rng: random.Random) -> None:
    driver = SDHCIDriver(vm, BASE_PORTS["sdhci"])
    driver.reset_card()
    for layout in FILESYSTEM_LAYOUTS.values():
        driver.write_blocks(layout["superblock_lba"],
                            bytes([layout["fill"]]) * 512)
    for count in (1, 2, 4, 1, 2):
        lba = rng.randrange(0, 40)
        payload = bytes(rng.randrange(256) for _ in range(32)) \
            * (16 * count)
        driver.write_blocks(lba, payload)
        assert driver.read_blocks(lba, count) == payload
    driver.card_status()
    driver.read_cid()
    driver.read_csd()
    # An aborted multi-block read (STOP_TRANSMISSION mid-transfer).
    vm.outl(BASE_PORTS["sdhci"] + 1, 2)
    vm.outl(BASE_PORTS["sdhci"] + 2, 5)
    vm.outb(BASE_PORTS["sdhci"] + 3, 18)
    for _ in range(40):
        vm.inb(BASE_PORTS["sdhci"] + 4)
    driver.stop_transmission()
    # Benign corner interactions: data-port probes without an active
    # transfer (the controller reports an error status and carries on).
    vm.outb(BASE_PORTS["sdhci"] + 4, 0x00)
    vm.inb(BASE_PORTS["sdhci"] + 4)
    vm.inb(BASE_PORTS["sdhci"] + 5)

def _sdhci_write(vm, driver, rng):
    count = rng.choice((1, 2))
    driver.write_blocks(rng.randrange(0, 40), bytes(512 * count))

def _sdhci_read(vm, driver, rng):
    driver.read_blocks(rng.randrange(0, 40), rng.choice((1, 2)))

def _sdhci_status(vm, driver, rng):
    driver.card_status()

def _sdhci_rare_app(vm, driver, rng):
    vm.outb(BASE_PORTS["sdhci"] + 3, 55)       # CMD_APP

def _sdhci_rare_switch(vm, driver, rng):
    vm.outb(BASE_PORTS["sdhci"] + 3, 6)        # CMD_SWITCH


# ---------------------------------------------------------------------------
# SCSI
# ---------------------------------------------------------------------------

def _scsi_prepare(vm: GuestVM, driver: SCSIDriver) -> None:
    driver.reset()
    driver.test_unit_ready()

def _scsi_training(vm: GuestVM, device: Device,
                   rng: random.Random) -> None:
    driver = SCSIDriver(vm, BASE_PORTS["scsi"])
    driver.reset()
    driver.test_unit_ready()
    driver.inquiry()
    driver.read_capacity()
    for layout in FILESYSTEM_LAYOUTS.values():
        driver.write10(layout["superblock_lba"],
                       bytes([layout["fill"]]) * 512)
    for blocks in (1, 2, 4, 1):
        lba = rng.randrange(0, 40)
        payload = bytes(rng.randrange(256) for _ in range(64)) \
            * (8 * blocks)
        driver.write10(lba, payload)
        assert driver.read10(lba, blocks) == payload
    # Benign corner interactions: FIFO overrun handling (gross error
    # status), data-port probes outside a data phase, ESP maintenance
    # commands, and an unknown ESP opcode (error-status path).
    for _ in range(17):
        vm.outb(BASE_PORTS["scsi"] + 0, 0x00)
    driver.reset()
    vm.inb(BASE_PORTS["scsi"] + 0)
    vm.outb(BASE_PORTS["scsi"] + 1, 0x00)
    vm.outb(BASE_PORTS["scsi"] + 3, 0x44)   # ENSEL
    vm.outb(BASE_PORTS["scsi"] + 3, 0x45)   # DISSEL
    vm.outb(BASE_PORTS["scsi"] + 3, 0x7F)   # unknown -> gross error
    vm.outb(BASE_PORTS["scsi"] + 3, 0x10)   # TI outside data phase
    vm.inb(BASE_PORTS["scsi"] + 3)
    driver.reset()
    # READ(6)/WRITE(6), the short-CDB forms.
    blk6 = bytes(rng.randrange(256) for _ in range(64)) * 8
    driver.write6(12, blk6)
    assert driver.read6(12) == blk6
    # An unsupported (but well-formed) opcode, then REQUEST SENSE to
    # fetch and clear the resulting CHECK CONDITION.
    driver._select([0x2F, 0, 0, 0, 1, 0])
    driver.request_sense()
    driver.reset()

def _scsi_write(vm, driver, rng):
    driver.write10(rng.randrange(0, 40), bytes(512))

def _scsi_read(vm, driver, rng):
    driver.read10(rng.randrange(0, 40))

def _scsi_tur(vm, driver, rng):
    driver.test_unit_ready()

def _scsi_inquiry(vm, driver, rng):
    driver.inquiry()

def _scsi_rare_mode_sense(vm, driver, rng):
    driver.mode_sense()


# ---------------------------------------------------------------------------
# virtio-net
# ---------------------------------------------------------------------------

def _vnet_prepare(vm: GuestVM, driver: VirtioNetDriver) -> None:
    driver.bring_up()

def _vnet_training(vm: GuestVM, device: Device,
                   rng: random.Random) -> None:
    driver = VirtioNetDriver(vm, BASE_PORTS["virtio-net"])
    driver.negotiate()
    driver.setup_queues()
    # Queue-select probing, including the unbacked control queue slot.
    driver._reg_read(1)
    driver.select_queue(2, 0x5C00, 0)
    driver.setup_queues()
    # Premature delivery (no rx credit yet): guests race this across
    # resets, so the error path must be in the spec.
    driver.deliver_frame(bytes(40))
    driver.read_isr()
    driver.post_rx_buffers(2)
    # Single-descriptor frames across the size range.
    for size in (60, 128, 256, 512, 750, 1024):
        header = bytes(rng.randrange(256) for _ in range(14))
        driver.send_frame(header + bytes(size - 14))
        driver.read_isr()
    # Chained descriptors with varied splits.
    for total in (120, 300, 600, 900):
        payload = bytes(rng.randrange(256) for _ in range(total))
        cut = rng.randrange(30, total - 30)
        driver.send_frame(payload, chunks=[payload[:cut], payload[cut:]])
    three = bytes(rng.randrange(256) for _ in range(720))
    driver.send_frame(three, chunks=[three[:240], three[240:480],
                                     three[480:]])
    # Indirect sub-tables of 2..4 entries.
    for nchunks in (2, 3, 4):
        total = 180 * nchunks
        payload = bytes(rng.randrange(256) for _ in range(total))
        chunks = [payload[i * 180:(i + 1) * 180] for i in range(nchunks)]
        driver.send_frame(payload, chunks=chunks, indirect=True)
    # Receive path: deliver, drain, and over-drain (the drained branch).
    for size in (40, 120, 256):
        driver.post_rx_buffers()
        driver.deliver_frame(bytes(rng.randrange(256) for _ in range(size)))
        assert len(driver.read_frame(size)) == size
    driver.read_frame(2)            # drained: reads return zero
    driver.ctrl_ack()
    driver.read_isr()

def _vnet_tx(vm, driver, rng):
    size = rng.choice((60, 120, 200, 250, 512))
    driver.send_frame(bytes(rng.randrange(256) for _ in range(size)))

def _vnet_tx_chained(vm, driver, rng):
    size = rng.choice((200, 400, 600))
    payload = bytes(rng.randrange(256) for _ in range(size))
    half = size // 2
    driver.send_frame(payload, chunks=[payload[:half], payload[half:]])

def _vnet_tx_indirect(vm, driver, rng):
    size = rng.choice((360, 540))
    payload = bytes(size)
    third = size // 3
    driver.send_frame(payload, chunks=[payload[:third],
                                       payload[third:2 * third],
                                       payload[2 * third:]], indirect=True)

def _vnet_rx(vm, driver, rng):
    size = rng.choice((40, 120, 256))
    driver.post_rx_buffers()
    driver.deliver_frame(bytes(size))
    driver.read_frame(size)

def _vnet_status(vm, driver, rng):
    driver.read_isr()

def _vnet_rare_reset(vm, driver, rng):
    driver._reg_write(0, 0)            # device reset: status back to 0


# ---------------------------------------------------------------------------
# virtio-blk
# ---------------------------------------------------------------------------

def _vblk_prepare(vm: GuestVM, driver: VirtioBlkDriver) -> None:
    driver.bring_up()

def _vblk_training(vm: GuestVM, device: Device,
                   rng: random.Random) -> None:
    driver = VirtioBlkDriver(vm, BASE_PORTS["virtio-blk"])
    driver.negotiate()
    driver.setup_queues()
    driver._reg_read(1)
    driver.select_queue(2, 0x7C00, 0)
    driver.setup_queues()
    driver.post_event_credit()
    driver.read_capacity()
    for layout in FILESYSTEM_LAYOUTS.values():
        driver.write_blocks(layout["superblock_lba"],
                            bytes([layout["fill"]]) * 512)
    for count, chunked in ((1, False), (2, True), (1, True), (2, False)):
        lba = rng.randrange(0, 40)
        payload = bytes(rng.randrange(256) for _ in range(32)) \
            * (16 * count)
        if chunked:
            half = len(payload) // 2
            driver.write_blocks(lba, payload,
                                chunks=[payload[:half], payload[half:]])
        else:
            driver.write_blocks(lba, payload)
        assert driver.read_blocks(lba, min(len(payload), 1024)) \
            == payload[:1024]
        driver.read_isr()
    # Indirect data sub-tables of 2..3 entries.
    for nchunks in (2, 3):
        lba = rng.randrange(0, 40)
        total = 200 * nchunks
        payload = bytes(rng.randrange(256) for _ in range(total))
        chunks = [payload[i * 200:(i + 1) * 200] for i in range(nchunks)]
        driver.write_blocks(lba, payload, chunks=chunks, indirect=True)
    # Sub-sector read (metadata probe) and the ctrl register round trip.
    driver.read_blocks(2, 96)
    driver.ctrl_ack()
    driver.read_isr()

def _vblk_write(vm, driver, rng):
    driver.write_blocks(rng.randrange(0, 40),
                        bytes([rng.randrange(256)]) * 512)

def _vblk_write_chained(vm, driver, rng):
    payload = bytes([rng.randrange(256)]) * 1024
    driver.write_blocks(rng.randrange(0, 40), payload,
                        chunks=[payload[:512], payload[512:]])

def _vblk_read(vm, driver, rng):
    driver.read_blocks(rng.randrange(0, 40), rng.choice((96, 512, 1024)))

def _vblk_status(vm, driver, rng):
    driver.read_isr()

def _vblk_capacity(vm, driver, rng):
    driver.read_capacity()

def _vblk_rare_reset(vm, driver, rng):
    driver._reg_write(0, 0)


# ---------------------------------------------------------------------------

PROFILES: Dict[str, DeviceProfile] = {
    "fdc": DeviceProfile(
        name="fdc", base_port=BASE_PORTS["fdc"], kind="storage",
        make_driver=lambda vm: FDCDriver(vm, BASE_PORTS["fdc"]),
        training=_fdc_training, prepare=_fdc_prepare,
        common_ops=[_fdc_write, _fdc_read, _fdc_seek, _fdc_status,
                    _fdc_readid],
        op_weights=[0.15, 0.15, 0.2, 0.35, 0.15],
        rare_ops=[_fdc_rare_configure]),
    "pcnet": DeviceProfile(
        name="pcnet", base_port=BASE_PORTS["pcnet"], kind="network",
        make_driver=lambda vm: PCNetDriver(vm, BASE_PORTS["pcnet"]),
        training=_pcnet_training, prepare=_pcnet_prepare,
        common_ops=[_pcnet_tx, _pcnet_rx, _pcnet_csr_status],
        op_weights=[0.3, 0.3, 0.4],
        rare_ops=[_pcnet_rare_read_xmtrl]),
    "ehci": DeviceProfile(
        name="ehci", base_port=BASE_PORTS["ehci"], kind="storage",
        make_driver=lambda vm: EHCIDriver(vm, BASE_PORTS["ehci"]),
        training=_ehci_training, prepare=_ehci_prepare,
        common_ops=[_ehci_write, _ehci_read, _ehci_descriptor,
                    _ehci_hc_status],
        op_weights=[0.15, 0.15, 0.2, 0.5],
        rare_ops=[_ehci_rare_get_status], bus="mmio"),
    "sdhci": DeviceProfile(
        name="sdhci", base_port=BASE_PORTS["sdhci"], kind="storage",
        make_driver=lambda vm: SDHCIDriver(vm, BASE_PORTS["sdhci"]),
        training=_sdhci_training, prepare=_sdhci_prepare,
        common_ops=[_sdhci_write, _sdhci_read, _sdhci_status],
        op_weights=[0.15, 0.15, 0.7],
        rare_ops=[_sdhci_rare_app, _sdhci_rare_switch]),
    "scsi": DeviceProfile(
        name="scsi", base_port=BASE_PORTS["scsi"], kind="storage",
        make_driver=lambda vm: SCSIDriver(vm, BASE_PORTS["scsi"]),
        training=_scsi_training, prepare=_scsi_prepare,
        common_ops=[_scsi_write, _scsi_read, _scsi_tur, _scsi_inquiry],
        op_weights=[0.15, 0.15, 0.4, 0.3],
        rare_ops=[_scsi_rare_mode_sense]),
    "virtio-net": DeviceProfile(
        name="virtio-net", base_port=BASE_PORTS["virtio-net"],
        kind="network",
        make_driver=lambda vm: VirtioNetDriver(vm,
                                               BASE_PORTS["virtio-net"]),
        training=_vnet_training, prepare=_vnet_prepare,
        common_ops=[_vnet_tx, _vnet_tx_chained, _vnet_tx_indirect,
                    _vnet_rx, _vnet_status],
        op_weights=[0.25, 0.15, 0.15, 0.2, 0.25],
        rare_ops=[_vnet_rare_reset]),
    "virtio-blk": DeviceProfile(
        name="virtio-blk", base_port=BASE_PORTS["virtio-blk"],
        kind="storage",
        make_driver=lambda vm: VirtioBlkDriver(vm,
                                               BASE_PORTS["virtio-blk"]),
        training=_vblk_training, prepare=_vblk_prepare,
        common_ops=[_vblk_write, _vblk_write_chained, _vblk_read,
                    _vblk_status, _vblk_capacity],
        op_weights=[0.2, 0.15, 0.2, 0.25, 0.2],
        rare_ops=[_vblk_rare_reset]),
}


def split_device(name: str) -> Tuple[str, ...]:
    """``"fdc+virtio-net"`` → ``("fdc", "virtio-net")``.

    Composite names describe one *guest* driving several guarded devices;
    they never reach the device registry or the spec store, which remain
    strictly per-device."""
    return tuple(part for part in name.split("+") if part)


def is_composite(name: str) -> bool:
    return "+" in name


def profile(name: str) -> DeviceProfile:
    """Resolve a profile; composite ``a+b`` names synthesize (and cache)
    a multi-device profile that interleaves the parts' workloads."""
    if is_composite(name):
        from repro.workloads.multidevice import composite_profile
        return composite_profile(name)
    return PROFILES[name]


def train_device_spec(name: str, qemu_version: str = "99.0.0",
                      seed: int = 7, repeats: int = 2,
                      backend: str = DEFAULT_BACKEND):
    """Convenience: run the full pipeline for one device profile."""
    from repro.core import build_execution_spec

    prof = PROFILES[name]

    def workload(vm, device):
        rng = random.Random(seed)
        for _ in range(repeats):
            prof.training(vm, device, rng)

    return build_execution_spec(
        lambda: prof.make_vm(qemu_version, backend=backend), workload)
