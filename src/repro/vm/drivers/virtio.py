"""Guest-side virtio drivers: queue setup, descriptor chains, requests.

Shared queue protocol (see :mod:`repro.devices.virtio`): descriptors are 6
bytes ``[addr_lo, addr_mid, len_lo, len_hi, flags, next]``; the avail ring
sits behind the table (2-byte idx + 1-byte heads), the used ring behind
that (1-byte idx + 2-byte entries).  Drain queues (net tx, blk requests)
treat the avail idx as a *wrapped slot cursor* the device chases; credit
queues (net rx, blk events) treat it as a free-running counter.  The
cursor lives in guest memory, so any number of driver instances over one
VM stay in sync.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.devices.virtio import (
    BLK_T_IN, BLK_T_OUT, DESC_SIZE, F_INDIRECT, F_NEXT, F_WRITE, QUEUE_SIZE,
    STATUS_ACK, STATUS_DRIVER, STATUS_DRIVER_OK, queue_avail,
)
from repro.errors import GuestError
from repro.vm.machine import GuestVM

REG_STATUS = 0
REG_QSEL = 1
REG_QBASE = 2
REG_QSIZE = 3
REG_NOTIFY = 4
REG_ISR = 5
REG_RXNOTIFY = 6     # net only
REG_RXDATA = 7       # net only
REG_CAPACITY = 6     # blk only (read)

#: A chain element: (guest address, length, device-writes?).
Chunk = Tuple[int, int, bool]


class VirtioQueueDriver:
    """Transport plumbing shared by the NIC and block drivers."""

    def __init__(self, vm: GuestVM, base_port: int):
        self.vm = vm
        self.base = base_port

    # -- registers -----------------------------------------------------------

    def _reg_write(self, reg: int, value: int) -> None:
        self.vm.outl(self.base + reg, value)

    def _reg_read(self, reg: int) -> int:
        return self.vm.inl(self.base + reg)

    def negotiate(self) -> None:
        """The feature handshake a real guest performs at probe time."""
        self._reg_write(REG_STATUS, STATUS_ACK)
        self._reg_write(REG_STATUS, STATUS_ACK | STATUS_DRIVER)
        self._reg_write(REG_STATUS,
                        STATUS_ACK | STATUS_DRIVER | STATUS_DRIVER_OK)
        self._reg_read(REG_STATUS)

    def select_queue(self, q: int, base: int, size: int = QUEUE_SIZE) -> None:
        self._reg_write(REG_QSEL, q)
        self._reg_write(REG_QBASE, base)
        self._reg_write(REG_QSIZE, size)

    def notify(self, q: int) -> None:
        self._reg_write(REG_NOTIFY, q)

    def read_isr(self) -> int:
        return self._reg_read(REG_ISR)

    def ctrl_ack(self) -> None:
        """Kick the control queue (a pure register-path round trip)."""
        self.notify(2)
        self.read_isr()

    # -- descriptor plumbing -------------------------------------------------

    def write_desc(self, table: int, index: int, addr: int, length: int,
                   flags: int = 0, nxt: int = 0) -> None:
        base = table + DESC_SIZE * index
        self.vm.memory.write_block(base, bytes([
            addr & 0xFF, (addr >> 8) & 0xFF,
            length & 0xFF, (length >> 8) & 0xFF,
            flags & 0xFF, nxt & 0xFF,
        ]))

    def build_chain(self, table: int, chunks: Sequence[Chunk],
                    start: int = 0) -> int:
        """Lay *chunks* out as a NEXT-linked chain from *start*; returns
        the head index."""
        if not chunks:
            raise GuestError("empty descriptor chain")
        for i, (addr, length, device_writes) in enumerate(chunks):
            flags = F_WRITE if device_writes else 0
            nxt = 0
            if i + 1 < len(chunks):
                flags |= F_NEXT
                nxt = start + i + 1
            self.write_desc(table, start + i, addr, length, flags, nxt)
        return start

    def build_indirect(self, table: int, head: int, sub_table: int,
                       chunks: Sequence[Chunk]) -> int:
        """Pack *chunks* into a sub-table and point one INDIRECT
        descriptor at it; returns the head index."""
        for i, (addr, length, device_writes) in enumerate(chunks):
            base = sub_table + DESC_SIZE * i
            flags = F_WRITE if device_writes else 0
            self.vm.memory.write_block(base, bytes([
                addr & 0xFF, (addr >> 8) & 0xFF,
                length & 0xFF, (length >> 8) & 0xFF,
                flags, 0,
            ]))
        self.write_desc(table, head, sub_table,
                        DESC_SIZE * len(chunks), F_INDIRECT)
        return head

    def post_head(self, queue_base: int, head: int,
                  size: int = QUEUE_SIZE) -> None:
        """Append *head* to a drain queue's avail ring (wrapped cursor)."""
        avail = queue_avail(queue_base, size)
        aidx = self.vm.memory.read_byte(avail)
        self.vm.memory.write_byte(avail + 2 + aidx, head)
        self.vm.memory.write_byte(avail, (aidx + 1) % size)

    def bump_credit(self, queue_base: int, size: int = QUEUE_SIZE) -> None:
        """Bump a credit queue's avail idx (free-running 16-bit)."""
        avail = queue_avail(queue_base, size)
        lo = self.vm.memory.read_byte(avail)
        hi = self.vm.memory.read_byte(avail + 1)
        idx = ((lo | (hi << 8)) + 1) & 0xFFFF
        self.vm.memory.write_byte(avail, idx & 0xFF)
        self.vm.memory.write_byte(avail + 1, idx >> 8)


class VirtioNetDriver(VirtioQueueDriver):
    """Speaks the rx/tx/ctrl queue protocol of :class:`VirtioNet`."""

    RX_QUEUE = 0x5000
    TX_QUEUE = 0x5400
    INDIRECT_TABLE = 0x5800
    DATA = 0x6000
    DATA_STRIDE = 0x400

    def __init__(self, vm: GuestVM, base_port: int = 0x700):
        super().__init__(vm, base_port)

    def setup_queues(self) -> None:
        self.select_queue(0, self.RX_QUEUE)
        self.select_queue(1, self.TX_QUEUE)

    def bring_up(self) -> None:
        self.negotiate()
        self.setup_queues()
        self.post_rx_buffers()

    # -- transmit ------------------------------------------------------------

    def _stage_payload(self, payload: bytes,
                       chunks: Optional[List[bytes]]) -> List[Chunk]:
        parts = chunks if chunks is not None else [payload]
        staged: List[Chunk] = []
        for i, part in enumerate(parts):
            if len(part) > self.DATA_STRIDE:
                raise GuestError("descriptor payload too large")
            addr = self.DATA + self.DATA_STRIDE * i
            self.vm.memory.write_block(addr, part)
            staged.append((addr, len(part), False))
        return staged

    def send_frame(self, payload: bytes,
                   chunks: Optional[List[bytes]] = None,
                   indirect: bool = False) -> None:
        """Queue *payload* (optionally pre-split into chained descriptor
        chunks, optionally through an indirect sub-table) and kick tx."""
        staged = self._stage_payload(payload, chunks)
        if len(staged) > QUEUE_SIZE:
            raise GuestError("too many chained descriptors")
        if indirect:
            head = self.build_indirect(self.TX_QUEUE, 0,
                                       self.INDIRECT_TABLE, staged)
        else:
            head = self.build_chain(self.TX_QUEUE, staged)
        self.post_head(self.TX_QUEUE, head)
        self.notify(1)

    # -- receive -------------------------------------------------------------

    def post_rx_buffers(self, count: int = 1) -> None:
        """Grant the device rx credit and sync it (queue-notify 0)."""
        for _ in range(count):
            self.bump_credit(self.RX_QUEUE)
        self.notify(0)

    def deliver_frame(self, payload: bytes) -> None:
        """Host-side: stage a frame and notify the device (what the net
        backend does when a packet arrives for the guest)."""
        device = self.vm.devices["virtio-net"]
        device.stage_rx_frame(payload)
        self.vm.outl(self.base + REG_RXNOTIFY, len(payload))

    def read_frame(self, length: int) -> bytes:
        return bytes(self.vm.inb(self.base + REG_RXDATA)
                     for _ in range(length))


class VirtioBlkDriver(VirtioQueueDriver):
    """Speaks the request-chain protocol of :class:`VirtioBlk`."""

    REQ_QUEUE = 0x7000
    EVENT_QUEUE = 0x7400
    HEADER = 0x7800
    STATUS_BYTE = 0x78F0
    DATA = 0x7900
    READBACK = 0x7A00
    INDIRECT_TABLE = 0x7C00
    DATA_STRIDE = 0x400

    def __init__(self, vm: GuestVM, base_port: int = 0x800):
        super().__init__(vm, base_port)

    def setup_queues(self) -> None:
        self.select_queue(0, self.REQ_QUEUE)
        self.select_queue(1, self.EVENT_QUEUE)

    def bring_up(self) -> None:
        self.negotiate()
        self.setup_queues()
        self.post_event_credit()

    def post_event_credit(self, count: int = 1) -> None:
        for _ in range(count):
            self.bump_credit(self.EVENT_QUEUE)
        self.notify(1)

    def read_capacity(self) -> int:
        """Config space: capacity in sectors (low 16 bits)."""
        self._reg_write(REG_QSEL, 0)
        lo = self._reg_read(REG_CAPACITY)
        self._reg_write(REG_QSEL, 1)
        hi = self._reg_read(REG_CAPACITY)
        self._reg_write(REG_QSEL, 0)
        return lo | (hi << 8)

    # -- requests ------------------------------------------------------------

    def _write_header(self, req_type: int, sector: int) -> None:
        self.vm.memory.write_block(self.HEADER, bytes([
            req_type, 0, sector & 0xFF, (sector >> 8) & 0xFF,
            0, 0, 0, 0,
        ]))

    def _submit(self, data_chunks: Sequence[Chunk],
                indirect: bool = False) -> int:
        """Build header → data → status and kick the request queue."""
        chain: List[Chunk] = [(self.HEADER, 8, False)]
        if indirect:
            # Header stays direct; the data chunks travel via a sub-table,
            # and the indirect descriptor chains on to the status desc.
            self.build_indirect(self.REQ_QUEUE, 1, self.INDIRECT_TABLE,
                                data_chunks)
            self.write_desc(self.REQ_QUEUE, 0, self.HEADER, 8, F_NEXT, 1)
            self.write_desc(
                self.REQ_QUEUE, 1, self.INDIRECT_TABLE,
                DESC_SIZE * len(data_chunks), F_INDIRECT | F_NEXT, 2)
            self.write_desc(self.REQ_QUEUE, 2, self.STATUS_BYTE, 1, F_WRITE)
            head = 0
        else:
            chain.extend(data_chunks)
            chain.append((self.STATUS_BYTE, 1, True))
            head = self.build_chain(self.REQ_QUEUE, chain)
        self.post_head(self.REQ_QUEUE, head)
        self.notify(0)
        return self.vm.memory.read_byte(self.STATUS_BYTE)

    def write_blocks(self, sector: int, payload: bytes,
                     chunks: Optional[List[bytes]] = None,
                     indirect: bool = False) -> int:
        """WRITE request: gather *payload* to disk at *sector*."""
        self._write_header(BLK_T_OUT, sector)
        parts = chunks if chunks is not None else [payload]
        staged: List[Chunk] = []
        for i, part in enumerate(parts):
            if len(part) > self.DATA_STRIDE:
                raise GuestError("descriptor payload too large")
            addr = self.DATA + self.DATA_STRIDE * i
            self.vm.memory.write_block(addr, part)
            staged.append((addr, len(part), False))
        if len(staged) + 2 > QUEUE_SIZE and not indirect:
            raise GuestError("too many chained descriptors")
        return self._submit(staged, indirect=indirect)

    def read_blocks(self, sector: int, length: int) -> bytes:
        """READ request: stream *length* bytes from *sector* into guest
        memory and return them."""
        if length > self.DATA_STRIDE:
            raise GuestError("read larger than the readback window")
        self._write_header(BLK_T_IN, sector)
        self._submit([(self.READBACK, length, True)])
        return self.vm.memory.read_block(self.READBACK, length)
