"""Shared device-fixture helpers for the test suite.

Every device test module used to grow its own ``make_<device>()`` helper
(GuestVM + attach + driver + bring-up), so adding a device class meant
touching half a dozen files.  New device models register here once; test
modules call :func:`make_device` (or keep a thin local alias for
readability) and stay oblivious to bus type, base address, and bring-up
protocol.
"""

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.devices.ehci import EHCI
from repro.devices.fdc import FDC
from repro.devices.pcnet import PCNet
from repro.devices.scsi import SCSI
from repro.devices.sdhci import SDHCI
from repro.devices.virtio import VirtioBlk, VirtioNet
from repro.vm import GuestVM
from repro.vm.drivers.ehci import EHCIDriver
from repro.vm.drivers.fdc import FDCDriver
from repro.vm.drivers.pcnet import PCNetDriver
from repro.vm.drivers.scsi import SCSIDriver
from repro.vm.drivers.sdhci import SDHCIDriver
from repro.vm.drivers.virtio import VirtioBlkDriver, VirtioNetDriver


@dataclass(frozen=True)
class DeviceFixture:
    """One registered device model: how to build and bring it up."""

    device_cls: type
    base: int
    bus: str                                # "pmio" | "mmio"
    make_driver: Callable[[GuestVM], object]
    bring_up: Callable[[object], None]


DEVICE_FIXTURES: Dict[str, DeviceFixture] = {
    "fdc": DeviceFixture(
        FDC, 0x3F0, "pmio", lambda vm: FDCDriver(vm),
        lambda drv: drv.controller_reset()),
    "pcnet": DeviceFixture(
        PCNet, 0x300, "pmio", lambda vm: PCNetDriver(vm),
        lambda drv: drv.init_rings()),
    "ehci": DeviceFixture(
        EHCI, 0x400, "mmio", lambda vm: EHCIDriver(vm),
        lambda drv: drv.start_controller()),
    "sdhci": DeviceFixture(
        SDHCI, 0x500, "pmio", lambda vm: SDHCIDriver(vm),
        lambda drv: drv.reset_card()),
    "scsi": DeviceFixture(
        SCSI, 0x600, "pmio", lambda vm: SCSIDriver(vm),
        lambda drv: drv.reset()),
    "virtio-net": DeviceFixture(
        VirtioNet, 0x700, "pmio", lambda vm: VirtioNetDriver(vm, 0x700),
        lambda drv: drv.bring_up()),
    "virtio-blk": DeviceFixture(
        VirtioBlk, 0x800, "pmio", lambda vm: VirtioBlkDriver(vm, 0x800),
        lambda drv: drv.bring_up()),
}


def make_device(name: str, version: str = "99.0.0",
                bring_up: bool = True) -> Tuple[GuestVM, object, object]:
    """Build ``(vm, device, driver)`` for a registered device model."""
    fixture = DEVICE_FIXTURES[name]
    vm = GuestVM()
    device = fixture.device_cls(qemu_version=version)
    if fixture.bus == "mmio":
        vm.attach_mmio_device(device, fixture.base)
    else:
        vm.attach_device(device, fixture.base)
    driver = fixture.make_driver(vm)
    if bring_up:
        fixture.bring_up(driver)
    return vm, device, driver


def _store_digest(backing) -> str:
    """Digest of a sparse store's allocated chunks, indices included
    (so where chunks were allocated is compared too)."""
    digest = hashlib.sha256()
    chunks = backing._store._chunks
    for index in sorted(chunks):
        digest.update(index.to_bytes(8, "little"))
        digest.update(chunks[index])
    return digest.hexdigest()


def backend_snapshot(device) -> Tuple:
    """Everything a device's host backends hold, as a comparable value:
    disk and guest-memory contents with their ``reads``/``writes`` and
    ``dma_reads``/``dma_writes`` counters, and the net staging buffer
    with the transmitted frames."""
    out = []
    disk = getattr(device, "disk", None)
    if disk is not None:
        out.append(("disk", _store_digest(disk), disk.reads, disk.writes))
    memory = getattr(device, "memory", None)
    if memory is not None:
        out.append(("memory", _store_digest(memory), memory.dma_reads,
                    memory.dma_writes))
    net = getattr(device, "net", None)
    if net is not None:
        out.append(("net", bytes(device.staging.tx), net.tx_bytes,
                    tuple(frame.payload for frame in net.tx_frames)))
    return tuple(out)
