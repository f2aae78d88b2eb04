"""Multi-device guest workloads: one tenant, several guarded devices.

A composite device name (``"virtio-net+virtio-blk"``) describes a guest
that drives every named part on one shared :class:`GuestVM` — shared
physical memory, per-part register windows, per-part specs.  This module
synthesizes the :class:`~repro.workloads.profiles.DeviceProfile` for such
a guest: the parts' own op lists wrapped to route through a
:class:`MultiDriver`, plus genuinely cross-device interaction patterns —
DMA scatter-gather chains whose descriptors point into another device's
DMA landing zone, and IRQ-driven ping-pong where one device's completion
interrupt triggers guest I/O against the other.

It also provides the interleaved-PT-stream model: per-device packet
streams are address-slid into disjoint windows, merged the way a single
hardware trace buffer would see concurrent devices, and demultiplexed
back by address-range filtering (the per-device ``ADDR_FILTER`` ranges
real PT offers).  The round-trip is exact and tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.devices.base import create_device
from repro.errors import WorkloadError
from repro.interp.machine import DEFAULT_BACKEND
from repro.ipt.packets import Fup, Packet, Tip, TipPgd, TipPge, iter_rounds
from repro.vm.machine import GuestVM
from repro.workloads.profiles import (
    BASE_PORTS, DeviceProfile, PROFILES, split_device,
)

# ---------------------------------------------------------------------------
# Interleaved PT streams with per-device address windows
# ---------------------------------------------------------------------------

#: Each device's trace window spans a full 32-bit code space; slides are
#: window-index multiples, so raw program addresses (well below 2^32)
#: never straddle a boundary.
WINDOW_SPAN = 1 << 32


@dataclass(frozen=True)
class DeviceWindow:
    """The address-range filter assigned to one device's trace stream."""

    name: str
    slide: int

    def contains(self, ip: int) -> bool:
        return self.slide <= ip < self.slide + WINDOW_SPAN


def device_windows(parts: Sequence[str]) -> Tuple[DeviceWindow, ...]:
    """Assign each part a disjoint window, in part order."""
    return tuple(DeviceWindow(part, i * WINDOW_SPAN)
                 for i, part in enumerate(parts))


def _slide_packet(packet: Packet, slide: int) -> Packet:
    if isinstance(packet, (TipPge, TipPgd, Tip, Fup)):
        return replace(packet, ip=packet.ip + slide)
    return packet


def interleave_streams(streams: Dict[str, Sequence[Packet]],
                       windows: Sequence[DeviceWindow],
                       seed: int = 0) -> List[Packet]:
    """Merge per-device packet streams into one trace-buffer stream.

    Interleaving happens at I/O-round granularity — rounds are atomic in
    the trace because the interpreter runs them to completion — in a
    seeded shuffle of the round arrival order, with every address slid
    into its device's window.
    """
    by_name = {w.name: w for w in windows}
    tagged: List[Tuple[int, int, List[Packet]]] = []
    for name, packets in streams.items():
        window = by_name[name]
        for i, round_packets in enumerate(iter_rounds(packets)):
            tagged.append((i, window.slide,
                           [_slide_packet(p, window.slide)
                            for p in round_packets]))
    # Stable seeded shuffle of arrival order, then restore each device's
    # own round ordering (a device's rounds cannot overtake one another).
    rng = random.Random(seed)
    order = list(range(len(tagged)))
    rng.shuffle(order)
    order.sort(key=lambda k: (tagged[k][0],))
    merged: List[Packet] = []
    for k in order:
        merged.extend(tagged[k][2])
    return merged


def demux_stream(packets: Sequence[Packet],
                 windows: Sequence[DeviceWindow]
                 ) -> Dict[str, List[Packet]]:
    """Split a merged stream back into per-device streams by address
    range — the filtering a per-device ``ADDR_FILTER`` would do in
    hardware.  Address-less packets (TNT, PSB) belong to the round opened
    by the last in-window TIP.PGE."""
    out: Dict[str, List[Packet]] = {w.name: [] for w in windows}
    current: Optional[DeviceWindow] = None
    for packet in packets:
        if isinstance(packet, TipPge):
            current = next((w for w in windows if w.contains(packet.ip)),
                           None)
        if current is None:
            continue
        out[current.name].append(_slide_packet(packet, -current.slide))
        if isinstance(packet, TipPgd):
            current = None
    return out


# ---------------------------------------------------------------------------
# The composite driver and profile
# ---------------------------------------------------------------------------

class MultiDriver:
    """Holds one driver per part; ops address parts by device name."""

    def __init__(self, parts: Dict[str, object]):
        self.parts = parts

    def __getitem__(self, name: str):
        return self.parts[name]

    def __iter__(self):
        return iter(self.parts)


class CompositeProfile(DeviceProfile):
    """A DeviceProfile whose VM hosts every part on one guest."""

    def __init__(self, name: str, parts: Tuple[str, ...], **kwargs):
        super().__init__(name=name, **kwargs)
        self.parts = parts

    def make_vm(self, qemu_version: str = "99.0.0",
                backend: str = DEFAULT_BACKEND):
        vm = GuestVM()
        primary = None
        for part in self.parts:
            prof = PROFILES[part]
            device = create_device(part, qemu_version=qemu_version,
                                   backend=backend)
            if prof.bus == "mmio":
                vm.attach_mmio_device(device, prof.base_port)
            else:
                vm.attach_device(device, prof.base_port)
            if primary is None:
                primary = device
        return vm, primary


def _wrap_part_op(part: str, fn):
    def op(vm, driver: MultiDriver, rng):
        fn(vm, driver.parts[part], rng)
    return op


# -- cross-device interaction ops -------------------------------------------

def _x_dma_scatter_gather(vm, driver: MultiDriver, rng) -> None:
    """DMA scatter-gather crossing devices: blk reads disk sectors into
    its READBACK landing zone, then net transmits a chain whose first
    descriptor points *directly at blk's readback buffer* — two devices
    walking one guest-physical region."""
    blk = driver.parts["virtio-blk"]
    net = driver.parts["virtio-net"]
    sector = rng.randrange(8, 64)
    payload = bytes((rng.randrange(256),)) * 512
    blk.write_blocks(sector, payload)
    fetched = blk.read_blocks(sector, 256)
    assert fetched == payload[:256]
    # The read landed at blk.READBACK; chain it into a net frame with a
    # second chunk from net's own staging area.
    tail = bytes((rng.randrange(256),)) * rng.choice((32, 64))
    vm.memory.write_block(net.DATA, tail)
    head = net.build_chain(net.TX_QUEUE, [
        (blk.READBACK, 256, False),
        (net.DATA, len(tail), False),
    ])
    net.post_head(net.TX_QUEUE, head)
    net.notify(1)


def _x_irq_pingpong(vm, driver: MultiDriver, rng) -> None:
    """IRQ-driven ping-pong: a received net frame's interrupt prompts the
    guest to journal the frame to blk; blk's completion interrupt prompts
    the guest to re-arm net rx credit."""
    net = driver.parts["virtio-net"]
    blk = driver.parts["virtio-blk"]
    net_dev = vm.devices["virtio-net"]
    blk_dev = vm.devices["virtio-blk"]
    for _ in range(rng.choice((1, 2))):
        frame = bytes((rng.randrange(256),)) * rng.choice((40, 96))
        raised = net_dev.irq_line.raise_count
        net.deliver_frame(frame)
        assert net_dev.irq_line.raise_count > raised
        net.read_isr()                      # guest answers the interrupt
        echoed = net.read_frame(len(frame))
        raised = blk_dev.irq_line.raise_count
        blk.write_blocks(rng.randrange(64, 128), echoed)
        assert blk_dev.irq_line.raise_count > raised
        blk.read_isr()
        net.post_rx_buffers()               # re-arm credit: ping again


def _x_interleaved(parts: Tuple[str, ...]):
    """An op that interleaves one weighted common op from each of two
    seeded-chosen parts — concurrent guests as one tenant produces them."""
    def op(vm, driver: MultiDriver, rng):
        chosen = [rng.choice(parts) for _ in range(2)]
        for part in chosen:
            prof = PROFILES[part]
            indices = range(len(prof.common_ops))
            index = rng.choices(indices, weights=prof.op_weights)[0]
            prof.common_ops[index](vm, driver.parts[part], rng)
    return op


def _composite_prepare(parts: Tuple[str, ...]):
    def prepare(vm, driver: MultiDriver):
        for part in parts:
            PROFILES[part].prepare(vm, driver.parts[part])
    return prepare


def _composite_training(parts: Tuple[str, ...]):
    def training(vm, device, rng):
        for part in parts:
            PROFILES[part].training(vm, vm.devices[part], rng)
    return training


def _composite_make_driver(parts: Tuple[str, ...]):
    def make_driver(vm):
        return MultiDriver({part: PROFILES[part].make_driver(vm)
                            for part in parts})
    return make_driver


_VIRTIO_PAIR = ("virtio-net", "virtio-blk")

_CACHE: Dict[str, CompositeProfile] = {}


def composite_profile(name: str) -> CompositeProfile:
    """Synthesize (and cache) the profile for a composite device name."""
    if name in _CACHE:
        return _CACHE[name]
    parts = split_device(name)
    if len(parts) < 2:
        raise WorkloadError(f"composite name needs 2+ parts: {name!r}")
    unknown = [p for p in parts if p not in PROFILES]
    if unknown:
        raise WorkloadError(f"unknown composite parts: {unknown}")
    common: List = []
    weights: List[float] = []
    for part in parts:
        prof = PROFILES[part]
        for fn, weight in zip(prof.common_ops,
                              prof.op_weights
                              or [1.0] * len(prof.common_ops)):
            common.append(_wrap_part_op(part, fn))
            weights.append(weight / len(parts))
    common.append(_x_interleaved(parts))
    weights.append(0.5)
    if set(_VIRTIO_PAIR) <= set(parts):
        common.append(_x_dma_scatter_gather)
        common.append(_x_irq_pingpong)
        weights.extend((0.25, 0.25))
    rare = [_wrap_part_op(part, fn)
            for part in parts for fn in PROFILES[part].rare_ops]
    profile = CompositeProfile(
        name=name, parts=parts,
        base_port=PROFILES[parts[0]].base_port,
        kind="multi",
        make_driver=_composite_make_driver(parts),
        training=_composite_training(parts),
        prepare=_composite_prepare(parts),
        common_ops=common, rare_ops=rare, op_weights=weights,
        bus=PROFILES[parts[0]].bus)
    _CACHE[name] = profile
    return profile
