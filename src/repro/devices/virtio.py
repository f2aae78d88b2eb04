"""Virtio — ring-descriptor NIC/blk pair (QEMU ``hw/virtio/*`` shape).

Programming model kept from the real transport: a status register for the
feature handshake, a queue-select register, per-queue base/size registers,
a queue-notify doorbell, and an interrupt-status register that clears on
read.  Queues live in guest memory as *descriptor tables* — each
descriptor ``[addr_lo, addr_mid, len_lo, len_hi, flags, next]`` — with an
avail ring (guest → device) and a used ring (device → guest) behind the
table.  ``NEXT``-flagged descriptors chain through their ``next`` index;
``INDIRECT``-flagged descriptors point at a *sub-table* of descriptors,
the virtio feature that stresses the indirect-jump and watchdog checks
differently than the five linear-ring models: control flow follows a
guest-controlled graph, not a bounded array scan.

Seeded synthetic vulnerability families (the grown corpus beyond the
paper's nine hand-picked CVEs; one family per const, versions chosen so
each family can be exercised in isolation):

* **SGLEN** (oob-write, fixed 7.1.0) — scatter-gather accumulates chain
  payloads into ``buffer`` at ``gather_pos`` with no total-length check;
  ``gather_pos`` is device state, so the parameter check fires
  (CVE-2015-7512 mechanics).
* **TRAILER** (reentrancy/pointer-hijack, fixed 7.2.0) — the device
  appends a 4-byte trailer after the gathered frame using a *temporary*
  cursor local; a 4093..4096-byte gather writes past ``buffer`` into the
  adjacent ``complete`` function pointer.  The parameter check is blind;
  the indirect-jump check catches the corrupted pointer at the completion
  callback (CVE-2015-7504 mechanics).
* **QLOOP** (descriptor-loop, fixed 7.3.0) — the chain walk trusts the
  guest's ``next`` links unconditionally; a cycle in the chain spins until
  the watchdog fires (CVE-2016-7909 mechanics).
* **BADQ** (state-confusion, fixed 7.4.0) — the notify doorbell does not
  validate the queue index; an out-of-range index dispatches the transmit
  path against ghost queue state at base 0, driven by whatever the guest
  staged there.  The patched build reports a config error instead.
"""

from __future__ import annotations

from repro.compiler import DeviceLogic, arr, fld, ptr, reg
from repro.devices.backends import (
    DiskImage, GuestMemory, IRQLine, NetBackend, NetStaging,
)
from repro.devices.base import CveGate, Device, register_device

BUFFER_SIZE = 4096
DESC_SIZE = 6
QUEUE_SIZE = 4          # reset-time queue depth both models program

# Descriptor flag bits.
F_NEXT = 1
F_WRITE = 2
F_INDIRECT = 4

# ISR bits.
ISR_QUEUE = 1
ISR_CONFIG = 2
ISR_ERROR = 0x80

# Status handshake bits (subset of the real transport's).
STATUS_ACK = 1
STATUS_DRIVER = 2
STATUS_DRIVER_OK = 4

BLK_CAPACITY = 2048     # sectors exposed through the config space

# virtio-blk request types.
BLK_T_IN = 0            # device → guest (read)
BLK_T_OUT = 1           # guest → device (write)


def queue_avail(base: int, size: int) -> int:
    """Guest address of a queue's avail ring (2-byte idx + 1-byte heads)."""
    return base + DESC_SIZE * size


def queue_used(base: int, size: int) -> int:
    """Guest address of a queue's used ring (1-byte idx + 2-byte entries)."""
    return base + DESC_SIZE * size + 2 + size


class VirtioNetLogic(DeviceLogic):
    """Compilable virtio-net logic: rx/tx/ctrl queues over one ring engine."""

    STRUCT = "VirtioNetState"
    FIELDS = (
        reg("status", "u8", doc="device status (feature handshake)"),
        reg("qsel", "u8", doc="queue select"),
        reg("isr", "u8", doc="interrupt status, clears on read"),
        fld("q0_base", "u32", doc="rx queue: descriptor table base"),
        fld("q0_size", "u16", doc="rx queue depth"),
        fld("q0_avail", "u16", doc="rx avail-ring cursor"),
        fld("q1_base", "u32", doc="tx queue: descriptor table base"),
        fld("q1_size", "u16", doc="tx queue depth"),
        fld("q1_avail", "u16", doc="tx avail-ring cursor"),
        fld("gather_pos", "i32", doc="frame assembly cursor (SGLEN)"),
        fld("recv_pos", "i32", doc="receive drain cursor"),
        fld("rx_len", "i32", doc="length of the frame in buffer"),
        fld("rx_ready", "u8", doc="a received frame awaits the guest"),
        arr("buffer", "u8", BUFFER_SIZE, doc="frame assembly buffer"),
        ptr("complete", doc="completion callback — sits right after buffer"),
        fld("irq_level", "u8"),
    )
    CONSTS = {
        "VULN_SGLEN": 0, "VULN_TRAILER": 0, "VULN_QLOOP": 0, "VULN_BADQ": 0,
        "BUFFER_SIZE": BUFFER_SIZE,
        "F_NEXT": F_NEXT, "F_WRITE": F_WRITE, "F_INDIRECT": F_INDIRECT,
        "ISR_QUEUE": ISR_QUEUE, "ISR_CONFIG": ISR_CONFIG,
        "ISR_ERROR": ISR_ERROR,
    }
    EXTERNS = ("dma_read", "dma_write", "net_tx_byte", "net_tx_done",
               "net_rx_byte", "set_irq")
    ENTRIES = {
        "pmio:write:0": "write_status",
        "pmio:read:0": "read_status",
        "pmio:write:1": "write_qsel",
        "pmio:read:1": "read_qsel",
        "pmio:write:2": "write_qbase",
        "pmio:write:3": "write_qsize",
        "pmio:write:4": "queue_notify",
        "pmio:read:5": "read_isr",
        "pmio:write:6": "rx_notify",
        "pmio:read:7": "read_rx_byte",
    }

    # -- transport registers ---------------------------------------------------

    def write_status(self, value):
        self.status = value
        return 0

    def read_status(self):
        return self.status

    def write_qsel(self, value):
        self.qsel = value
        return 0

    def read_qsel(self):
        return self.qsel

    def write_qbase(self, value):
        # Programming a queue's base resets its ring state (virtio
        # transport semantics: queue setup discards prior progress), so
        # a replayed driver bring-up re-arms the cursor the same way a
        # fresh guest would.
        if self.qsel == 0:
            self.q0_base = value
            self.q0_avail = 0
        elif self.qsel == 1:
            self.q1_base = value
            self.q1_avail = 0
        return 0

    def write_qsize(self, value):
        if self.qsel == 0:
            self.q0_size = value
        elif self.qsel == 1:
            self.q1_size = value
        return 0

    def read_isr(self):
        value = self.isr
        self.isr = 0
        if self.irq_level == 1:
            self.complete(0)
        return value

    # -- notify dispatch -------------------------------------------------------

    def queue_notify(self, q):
        sed_command_decision(q)  # noqa: F821
        if q == 0:
            self.sync_rx_avail()
        elif q == 1:
            base = self.q1_base
            size = self.q1_size
            self.process_tx(base, size)
        elif q == 2:
            self.ack_ctrl()
        else:
            if self.VULN_BADQ:
                # Vulnerable build: an unvalidated queue index falls
                # through to the transmit path against the ghost queue at
                # base 0, with whatever the guest staged there.
                self.process_tx(0, 4)
            else:
                self.isr = self.isr | self.ISR_ERROR
        sed_command_end()  # noqa: F821
        return 0

    def sync_rx_avail(self):
        avail = self.q0_base + 6 * self.q0_size
        lo = dma_read(avail)  # noqa: F821
        hi = dma_read(avail + 1)  # noqa: F821
        self.q0_avail = lo | (hi << 8)
        return 0

    def ack_ctrl(self):
        self.isr = self.isr | self.ISR_CONFIG
        self.notify_complete()
        return 0

    # -- transmit path ---------------------------------------------------------

    def process_tx(self, base, size):
        """Drain the avail ring: one descriptor chain per posted head."""
        avail = base + 6 * size
        lo = dma_read(avail)  # noqa: F821
        hi = dma_read(avail + 1)  # noqa: F821
        aidx = lo | (hi << 8)
        cursor = self.q1_avail
        while cursor != aidx:
            head = dma_read(avail + 2 + cursor)  # noqa: F821
            self.handle_tx_chain(base, size, head)
            cursor += 1
            if cursor >= size:
                cursor = 0
        self.q1_avail = cursor
        return 0

    def handle_tx_chain(self, base, size, head):
        """Gather one descriptor chain into the frame buffer and send it.

        The vulnerable build (QLOOP) trusts the guest's next links
        unconditionally; the patched build bounds the walk by the queue
        depth and drops over-long (cyclic) chains.
        """
        self.gather_pos = 0
        desc = head
        more = 1
        hops = 0
        while more == 1:
            d = base + 6 * desc
            a_lo = dma_read(d)  # noqa: F821
            a_mid = dma_read(d + 1)  # noqa: F821
            l_lo = dma_read(d + 2)  # noqa: F821
            l_hi = dma_read(d + 3)  # noqa: F821
            flags = dma_read(d + 4)  # noqa: F821
            nxt = dma_read(d + 5)  # noqa: F821
            addr = a_lo | (a_mid << 8)
            dlen = l_lo | (l_hi << 8)
            if flags & self.F_INDIRECT:
                self.gather_indirect(addr, dlen)
            else:
                self.gather_bytes(addr, dlen)
            if flags & self.F_NEXT:
                desc = nxt
                if self.VULN_QLOOP:
                    more = 1
                else:
                    hops += 1
                    if hops > size:
                        self.isr = self.isr | self.ISR_ERROR
                        more = 0
            else:
                more = 0
        self.seal_and_send()
        used = base + 6 * size + 2 + size
        uidx = dma_read(used)  # noqa: F821
        slot = uidx % size
        dma_write(used + 1 + 2 * slot, head)  # noqa: F821
        dma_write(used + 2 + 2 * slot, self.gather_pos & 0xFF)  # noqa: F821
        dma_write(used, (uidx + 1) & 0xFF)  # noqa: F821
        self.notify_complete()
        return 0

    def gather_indirect(self, table, tbytes):
        """INDIRECT descriptor: *table* holds tbytes/6 packed descriptors.
        One level only, like the real transport — sub-descriptors gather,
        they never chain further."""
        off = 0
        while off + 6 <= tbytes:
            a_lo = dma_read(table + off)  # noqa: F821
            a_mid = dma_read(table + off + 1)  # noqa: F821
            l_lo = dma_read(table + off + 2)  # noqa: F821
            l_hi = dma_read(table + off + 3)  # noqa: F821
            addr = a_lo | (a_mid << 8)
            dlen = l_lo | (l_hi << 8)
            self.gather_bytes(addr, dlen)
            off += 6
        return 0

    def gather_bytes(self, addr, dlen):
        if self.VULN_SGLEN:
            for i in range(dlen):
                byte = dma_read(addr + i)  # noqa: F821
                self.buffer[self.gather_pos] = byte
                self.gather_pos += 1
        else:
            # The fix: bound the accumulated frame length.
            if self.gather_pos + dlen <= self.BUFFER_SIZE:
                for i in range(dlen):
                    byte = dma_read(addr + i)  # noqa: F821
                    self.buffer[self.gather_pos] = byte
                    self.gather_pos += 1
            else:
                self.isr = self.isr | self.ISR_ERROR
        return 0

    def seal_and_send(self):
        """Append the 4-byte trailer ("VIO\\n") and hand the frame to the
        net backend.  The vulnerable build writes the trailer through a
        temporary cursor with no bound check — past the buffer it lands in
        the ``complete`` pointer."""
        size = self.gather_pos
        if self.VULN_TRAILER:
            pos = size
            self.buffer[pos] = 0x56
            self.buffer[pos + 1] = 0x49
            self.buffer[pos + 2] = 0x4F
            self.buffer[pos + 3] = 0x0A
            size = size + 4
        else:
            if size + 4 <= self.BUFFER_SIZE:
                pos = size
                self.buffer[pos] = 0x56
                self.buffer[pos + 1] = 0x49
                self.buffer[pos + 2] = 0x4F
                self.buffer[pos + 3] = 0x0A
                size = size + 4
            else:
                self.isr = self.isr | self.ISR_ERROR
        for i in range(size):
            net_tx_byte(self.buffer[i])  # noqa: F821
        net_tx_done(size)  # noqa: F821
        return 0

    # -- receive path ----------------------------------------------------------

    def rx_notify(self, length):
        """Host injected a frame of *length* bytes; pull it in.  Requires
        the guest to have posted rx buffers (avail cursor synced)."""
        if length > self.BUFFER_SIZE:
            self.isr = self.isr | self.ISR_ERROR
            return 0
        if self.q0_avail == 0:
            self.isr = self.isr | self.ISR_ERROR
            return 0
        self.recv_pos = 0
        for i in range(length):
            byte = net_rx_byte(i)  # noqa: F821
            self.buffer[self.recv_pos] = byte
            self.recv_pos += 1
        self.rx_len = length
        self.rx_ready = 1
        self.recv_pos = 0
        used = self.q0_base + 6 * self.q0_size + 2 + self.q0_size
        uidx = dma_read(used)  # noqa: F821
        dma_write(used, (uidx + 1) & 0xFF)  # noqa: F821
        self.notify_complete()
        return 0

    def read_rx_byte(self):
        """Guest drains the received frame one byte at a time."""
        if self.rx_ready == 0:
            return 0
        if self.recv_pos >= self.rx_len:
            self.rx_ready = 0
            return 0
        value = self.buffer[self.recv_pos]
        self.recv_pos += 1
        if self.recv_pos >= self.rx_len:
            self.rx_ready = 0
        return value

    # -- interrupts ------------------------------------------------------------

    def notify_complete(self):
        self.isr = self.isr | self.ISR_QUEUE
        self.complete(1)
        return 0

    def on_complete(self, level):
        self.irq_level = level
        set_irq(level)  # noqa: F821
        return 0


class VirtioBlkLogic(DeviceLogic):
    """Compilable virtio-blk logic: request queue over the same ring engine.

    A request chain is ``header desc → data descs → status desc``: the
    8-byte header carries ``[type, pad, sector_lo, sector_mid, ...]``;
    ``WRITE``-flagged descriptors are device-written (read payloads and the
    1-byte status), unflagged descriptors carry write payloads gathered
    into ``buffer`` and flushed to disk with a 4-byte journal footer.
    """

    STRUCT = "VirtioBlkState"
    FIELDS = (
        reg("status", "u8", doc="device status (feature handshake)"),
        reg("qsel", "u8", doc="queue select"),
        reg("isr", "u8", doc="interrupt status, clears on read"),
        fld("q0_base", "u32", doc="request queue: descriptor table base"),
        fld("q0_size", "u16", doc="request queue depth"),
        fld("q0_avail", "u16", doc="request avail-ring cursor"),
        fld("q1_base", "u32", doc="event queue: descriptor table base"),
        fld("q1_size", "u16", doc="event queue depth"),
        fld("q1_avail", "u16", doc="event avail-ring cursor"),
        fld("gather_pos", "i32", doc="write assembly cursor (SGLEN)"),
        fld("read_off", "i32", doc="read-transfer cursor across data descs"),
        fld("req_type", "u8", doc="current request type (0=read 1=write)"),
        fld("req_sector", "u32", doc="current request start sector"),
        arr("buffer", "u8", BUFFER_SIZE, doc="write assembly buffer"),
        ptr("complete", doc="completion callback — sits right after buffer"),
        fld("irq_level", "u8"),
    )
    CONSTS = {
        "VULN_SGLEN": 0, "VULN_TRAILER": 0, "VULN_QLOOP": 0, "VULN_BADQ": 0,
        "BUFFER_SIZE": BUFFER_SIZE,
        "F_NEXT": F_NEXT, "F_WRITE": F_WRITE, "F_INDIRECT": F_INDIRECT,
        "ISR_QUEUE": ISR_QUEUE, "ISR_CONFIG": ISR_CONFIG,
        "ISR_ERROR": ISR_ERROR,
        "CAPACITY": BLK_CAPACITY,
    }
    EXTERNS = ("dma_read", "dma_write", "disk_read", "disk_write", "set_irq")
    ENTRIES = {
        "pmio:write:0": "write_status",
        "pmio:read:0": "read_status",
        "pmio:write:1": "write_qsel",
        "pmio:read:1": "read_qsel",
        "pmio:write:2": "write_qbase",
        "pmio:write:3": "write_qsize",
        "pmio:write:4": "queue_notify",
        "pmio:read:5": "read_isr",
        "pmio:read:6": "read_capacity",
    }

    # -- transport registers ---------------------------------------------------

    def write_status(self, value):
        self.status = value
        return 0

    def read_status(self):
        return self.status

    def write_qsel(self, value):
        self.qsel = value
        return 0

    def read_qsel(self):
        return self.qsel

    def write_qbase(self, value):
        # Programming a queue's base resets its ring state (virtio
        # transport semantics: queue setup discards prior progress), so
        # a replayed driver bring-up re-arms the cursor the same way a
        # fresh guest would.
        if self.qsel == 0:
            self.q0_base = value
            self.q0_avail = 0
        elif self.qsel == 1:
            self.q1_base = value
            self.q1_avail = 0
        return 0

    def write_qsize(self, value):
        if self.qsel == 0:
            self.q0_size = value
        elif self.qsel == 1:
            self.q1_size = value
        return 0

    def read_isr(self):
        value = self.isr
        self.isr = 0
        if self.irq_level == 1:
            self.complete(0)
        return value

    def read_capacity(self):
        """Config space: capacity in sectors, byte-selected by qsel."""
        return (self.CAPACITY >> (8 * self.qsel)) & 0xFF

    # -- notify dispatch -------------------------------------------------------

    def queue_notify(self, q):
        sed_command_decision(q)  # noqa: F821
        if q == 0:
            base = self.q0_base
            size = self.q0_size
            self.process_requests(base, size)
        elif q == 1:
            self.sync_event_avail()
        elif q == 2:
            self.ack_ctrl()
        else:
            if self.VULN_BADQ:
                # Vulnerable build: an unvalidated queue index falls
                # through to the request path against the ghost queue at
                # base 0, with whatever the guest staged there.
                self.process_requests(0, 4)
            else:
                self.isr = self.isr | self.ISR_ERROR
        sed_command_end()  # noqa: F821
        return 0

    def sync_event_avail(self):
        avail = self.q1_base + 6 * self.q1_size
        lo = dma_read(avail)  # noqa: F821
        hi = dma_read(avail + 1)  # noqa: F821
        self.q1_avail = lo | (hi << 8)
        return 0

    def ack_ctrl(self):
        self.isr = self.isr | self.ISR_CONFIG
        self.notify_complete()
        return 0

    # -- request path ----------------------------------------------------------

    def process_requests(self, base, size):
        """Drain the avail ring: one request chain per posted head."""
        avail = base + 6 * size
        lo = dma_read(avail)  # noqa: F821
        hi = dma_read(avail + 1)  # noqa: F821
        aidx = lo | (hi << 8)
        cursor = self.q0_avail
        while cursor != aidx:
            head = dma_read(avail + 2 + cursor)  # noqa: F821
            self.handle_req_chain(base, size, head)
            cursor += 1
            if cursor >= size:
                cursor = 0
        self.q0_avail = cursor
        return 0

    def handle_req_chain(self, base, size, head):
        """Walk one request chain: header, data descriptors, status byte.

        The vulnerable build (QLOOP) trusts the guest's next links
        unconditionally; the patched build bounds the walk by the queue
        depth and drops over-long (cyclic) chains.
        """
        self.gather_pos = 0
        self.read_off = 0
        desc = head
        more = 1
        hops = 0
        seen = 0
        while more == 1:
            d = base + 6 * desc
            a_lo = dma_read(d)  # noqa: F821
            a_mid = dma_read(d + 1)  # noqa: F821
            l_lo = dma_read(d + 2)  # noqa: F821
            l_hi = dma_read(d + 3)  # noqa: F821
            flags = dma_read(d + 4)  # noqa: F821
            nxt = dma_read(d + 5)  # noqa: F821
            addr = a_lo | (a_mid << 8)
            dlen = l_lo | (l_hi << 8)
            if seen == 0:
                self.parse_header(addr)
            elif flags & self.F_WRITE:
                if dlen == 1:
                    dma_write(addr, 0)  # noqa: F821  (status: OK)
                else:
                    self.fill_from_disk(addr, dlen)
            elif flags & self.F_INDIRECT:
                self.gather_indirect(addr, dlen)
            else:
                self.gather_bytes(addr, dlen)
            seen += 1
            if flags & self.F_NEXT:
                desc = nxt
                if self.VULN_QLOOP:
                    more = 1
                else:
                    hops += 1
                    if hops > size:
                        self.isr = self.isr | self.ISR_ERROR
                        more = 0
            else:
                more = 0
        if self.req_type == 1:
            self.flush_to_disk()
        used = base + 6 * size + 2 + size
        uidx = dma_read(used)  # noqa: F821
        slot = uidx % size
        dma_write(used + 1 + 2 * slot, head)  # noqa: F821
        dma_write(used + 2 + 2 * slot, self.gather_pos & 0xFF)  # noqa: F821
        dma_write(used, (uidx + 1) & 0xFF)  # noqa: F821
        self.notify_complete()
        return 0

    def parse_header(self, addr):
        kind = dma_read(addr)  # noqa: F821
        s_lo = dma_read(addr + 2)  # noqa: F821
        s_mid = dma_read(addr + 3)  # noqa: F821
        self.req_type = kind
        self.req_sector = s_lo | (s_mid << 8)
        return 0

    def gather_indirect(self, table, tbytes):
        """INDIRECT descriptor: *table* holds tbytes/6 packed descriptors.
        One level only — sub-descriptors gather, they never chain."""
        off = 0
        while off + 6 <= tbytes:
            a_lo = dma_read(table + off)  # noqa: F821
            a_mid = dma_read(table + off + 1)  # noqa: F821
            l_lo = dma_read(table + off + 2)  # noqa: F821
            l_hi = dma_read(table + off + 3)  # noqa: F821
            addr = a_lo | (a_mid << 8)
            dlen = l_lo | (l_hi << 8)
            self.gather_bytes(addr, dlen)
            off += 6
        return 0

    def gather_bytes(self, addr, dlen):
        if self.VULN_SGLEN:
            for i in range(dlen):
                byte = dma_read(addr + i)  # noqa: F821
                self.buffer[self.gather_pos] = byte
                self.gather_pos += 1
        else:
            # The fix: bound the accumulated request length.
            if self.gather_pos + dlen <= self.BUFFER_SIZE:
                for i in range(dlen):
                    byte = dma_read(addr + i)  # noqa: F821
                    self.buffer[self.gather_pos] = byte
                    self.gather_pos += 1
            else:
                self.isr = self.isr | self.ISR_ERROR
        return 0

    def fill_from_disk(self, addr, dlen):
        """Read request: stream sectors from the disk into guest memory."""
        base = self.req_sector * 512 + self.read_off
        for i in range(dlen):
            byte = disk_read(base + i)  # noqa: F821
            dma_write(addr + i, byte)  # noqa: F821
        self.read_off += dlen
        return 0

    def flush_to_disk(self):
        """Write request: append the 4-byte journal footer ("J!.\\n") and
        flush the assembled payload.  The vulnerable build writes the
        footer through a temporary cursor with no bound check — past the
        buffer it lands in the ``complete`` pointer."""
        n = self.gather_pos
        if self.VULN_TRAILER:
            pos = n
            self.buffer[pos] = 0x4A
            self.buffer[pos + 1] = 0x21
            self.buffer[pos + 2] = 0x00
            self.buffer[pos + 3] = 0x0A
            n = n + 4
        else:
            if n + 4 <= self.BUFFER_SIZE:
                pos = n
                self.buffer[pos] = 0x4A
                self.buffer[pos + 1] = 0x21
                self.buffer[pos + 2] = 0x00
                self.buffer[pos + 3] = 0x0A
                n = n + 4
            else:
                self.isr = self.isr | self.ISR_ERROR
        base = self.req_sector * 512
        for i in range(n):
            disk_write(base + i, self.buffer[i])  # noqa: F821
        return 0

    # -- interrupts ------------------------------------------------------------

    def notify_complete(self):
        self.isr = self.isr | self.ISR_QUEUE
        self.complete(1)
        return 0

    def on_complete(self, level):
        self.irq_level = level
        set_irq(level)  # noqa: F821
        return 0


#: The four synthetic families, shared by both models (distinct CVE-style
#: ids per device so corpus labels and registry specs stay per-device).
def _virtio_gates(prefix: str):
    return (
        CveGate(f"{prefix}-SGLEN", "VULN_SGLEN", "7.1.0",
                "scatter-gather accumulates chain payloads past buffer "
                "at gather_pos (oob-write family)"),
        CveGate(f"{prefix}-TRAILER", "VULN_TRAILER", "7.2.0",
                "trailer append via a temp cursor corrupts the adjacent "
                "completion pointer (reentrancy/pointer-hijack family)"),
        CveGate(f"{prefix}-QLOOP", "VULN_QLOOP", "7.3.0",
                "descriptor chain walk never terminates on a next-link "
                "cycle (descriptor-loop family)"),
        CveGate(f"{prefix}-BADQ", "VULN_BADQ", "7.4.0",
                "unvalidated notify queue index dispatches against ghost "
                "queue state at base 0 (state-confusion family)"),
    )


@register_device
class VirtioNet(Device):
    """The wrapped virtio NIC with its backends."""

    LOGIC = VirtioNetLogic
    NAME = "virtio-net"
    CVES = _virtio_gates("VIRTIO-NET")

    def __init__(self, qemu_version: str = "99.0.0",
                 memory: GuestMemory = None, net: NetBackend = None,
                 irq_line: IRQLine = None, **kwargs):
        self.memory = memory if memory is not None else GuestMemory()
        self.net = net if net is not None else NetBackend()
        self.irq_line = (irq_line if irq_line is not None
                         else IRQLine("virtio-net"))
        self.staging = NetStaging(self.net)
        kwargs.setdefault("max_steps", 60_000)
        super().__init__(qemu_version=qemu_version, **kwargs)

    def bind_externs(self) -> None:
        self.machine.bind_extern(
            "dma_read", lambda m, addr: self.memory.read_byte(addr), cost=40,
            block=lambda m, addr, n: self.memory.dma_read_bytes(addr, n))
        self.machine.bind_extern(
            "dma_write", lambda m, addr, v: self.memory.write_byte(addr, v),
            cost=40,
            block=lambda m, addr, data: self.memory.dma_write_bytes(addr,
                                                                   data))
        self.staging.bind(self.machine)
        self.machine.bind_extern(
            "set_irq", lambda m, level: self.irq_line.set_level(level),
            cost=50)

    def reset(self) -> None:
        self.machine.set_funcptr("complete", "on_complete")
        self.state.write_field("q0_size", QUEUE_SIZE)
        self.state.write_field("q1_size", QUEUE_SIZE)

    # -- host-side helpers -----------------------------------------------------

    def stage_rx_frame(self, payload: bytes) -> None:
        """Make *payload* available to the next rx_notify round."""
        self.staging.rx_frame = bytes(payload)


@register_device
class VirtioBlk(Device):
    """The wrapped virtio block device with its backing disk."""

    LOGIC = VirtioBlkLogic
    NAME = "virtio-blk"
    CVES = _virtio_gates("VIRTIO-BLK")

    def __init__(self, qemu_version: str = "99.0.0",
                 memory: GuestMemory = None, disk: DiskImage = None,
                 irq_line: IRQLine = None, **kwargs):
        self.memory = memory if memory is not None else GuestMemory()
        self.disk = (disk if disk is not None
                     else DiskImage(BLK_CAPACITY * 512))
        self.irq_line = (irq_line if irq_line is not None
                         else IRQLine("virtio-blk"))
        kwargs.setdefault("max_steps", 60_000)
        super().__init__(qemu_version=qemu_version, **kwargs)

    def bind_externs(self) -> None:
        self.machine.bind_extern(
            "dma_read", lambda m, addr: self.memory.read_byte(addr), cost=40,
            block=lambda m, addr, n: self.memory.dma_read_bytes(addr, n))
        self.machine.bind_extern(
            "dma_write", lambda m, addr, v: self.memory.write_byte(addr, v),
            cost=40,
            block=lambda m, addr, data: self.memory.dma_write_bytes(addr,
                                                                   data))
        self.machine.bind_extern(
            "disk_read", lambda m, off: self.disk.read_byte(off), cost=30,
            block=lambda m, off, n: self.disk.read_bytes(off, n))
        self.machine.bind_extern(
            "disk_write", lambda m, off, v: self.disk.write_byte(off, v),
            cost=30,
            block=lambda m, off, data: self.disk.write_bytes(off, data))
        self.machine.bind_extern(
            "set_irq", lambda m, level: self.irq_line.set_level(level),
            cost=50)

    def reset(self) -> None:
        self.machine.set_funcptr("complete", "on_complete")
        self.state.write_field("q0_size", QUEUE_SIZE)
        self.state.write_field("q1_size", QUEUE_SIZE)
