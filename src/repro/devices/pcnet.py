"""PCNet — AMD PCnet-PCI II network adapter (QEMU ``hw/net/pcnet.c``).

Programming model kept from the real part: a register address port (RAP)
selecting a CSR, a data port (RDP) reading/writing the selected CSR,
descriptor rings in guest memory (simplified to 4-byte descriptors:
own/flags/len-lo/len-hi + a separate address table via CSRs), and a
transmit-demand bit in CSR0.  Loopback mode (CSR15.LOOP) feeds transmitted
frames back into the receive path, which is where two of the CVEs live.

Seeded vulnerabilities (versions per the paper's Table III):

* **CVE-2015-7504** (fixed 2.5.0) — loopback receive appends the 4-byte
  FCS/CRC at the end of the frame using a *temporary* cursor local with no
  bound check; a 4093..4096-byte frame writes past ``buffer`` into the
  adjacent ``irq`` function pointer.  The parameter check is blind (the
  index never touches device state); the indirect-jump check catches the
  corrupted pointer at the completion interrupt.
* **CVE-2015-7512** (fixed 2.5.0) — chained transmit descriptors
  accumulate into ``buffer`` at ``xmit_pos`` without a total-length check;
  ``xmit_pos`` is device state, so the parameter check fires (and the
  corruption would also trip the indirect-jump check).
* **CVE-2016-7909** (fixed 2.7.0) — the receive-descriptor ring scan
  never terminates when the guest programs a ring length of zero: the
  wrap check resets the cursor before the completed-scan check can fire.
"""

from __future__ import annotations

from repro.compiler import DeviceLogic, arr, fld, ptr, reg
from repro.devices.backends import (
    GuestMemory, IRQLine, NetBackend, NetStaging,
)
from repro.devices.base import CveGate, Device, register_device

BUFFER_SIZE = 4096
MAX_FRAME = 4096

# CSR numbers (subset of the real part's map).
CSR_STATUS = 0        # CSR0: status/control (bit 0x0008 = TDMD)
CSR_IADR_LO = 1       # init block address
CSR_IADR_HI = 2
CSR_RDRA = 24         # receive ring base (lo)
CSR_TDRA = 30         # transmit ring base (lo)
CSR_RCVRL = 76        # receive ring length
CSR_XMTRL = 78        # transmit ring length
CSR_MODE = 15         # mode register (bit 0x0004 = LOOP)

TDMD = 0x0008
LOOP = 0x0004
RXON = 0x0020
TXON = 0x0010
INTR = 0x0080


class PCNetLogic(DeviceLogic):
    """Compilable PCnet logic."""

    STRUCT = "PCNetState"
    FIELDS = (
        reg("rap", "u8", doc="register address port"),
        reg("csr0", "u16", doc="status/control"),
        reg("csr1", "u16", doc="init block address low"),
        reg("csr2", "u16", doc="init block address high"),
        reg("csr15", "u16", doc="mode (loopback bit)"),
        fld("rdra", "u32", doc="rx descriptor ring base"),
        fld("tdra", "u32", doc="tx descriptor ring base"),
        fld("rcvrl", "u16", doc="rx ring length"),
        fld("xmtrl", "u16", doc="tx ring length"),
        fld("rx_idx", "u16", doc="rx ring cursor"),
        fld("tx_idx", "u16", doc="tx ring cursor"),
        fld("xmit_pos", "i32", doc="assembly cursor (CVE-2015-7512)"),
        fld("recv_pos", "i32", doc="receive cursor"),
        arr("buffer", "u8", BUFFER_SIZE, doc="frame assembly buffer"),
        ptr("irq", doc="interrupt callback — sits right after buffer"),
        fld("irq_level", "u8"),
        fld("rx_ready", "u8", doc="a received frame awaits the guest"),
        fld("rx_len", "i32", doc="length of the frame in buffer"),
    )
    CONSTS = {
        "VULN_7504": 0, "VULN_7512": 0, "VULN_RINGLOOP": 0,
        "CSR_STATUS": CSR_STATUS, "CSR_RDRA": CSR_RDRA,
        "CSR_IADR_LO": CSR_IADR_LO, "CSR_IADR_HI": CSR_IADR_HI,
        "CSR_TDRA": CSR_TDRA, "CSR_RCVRL": CSR_RCVRL,
        "CSR_XMTRL": CSR_XMTRL, "CSR_MODE": CSR_MODE,
        "TDMD": TDMD, "LOOP": LOOP,
        "BUFFER_SIZE": BUFFER_SIZE,
    }
    EXTERNS = ("dma_read", "dma_write", "net_tx_byte", "net_tx_done",
               "net_rx_byte", "set_irq")
    ENTRIES = {
        "pmio:write:2": "write_rap",
        "pmio:read:2": "read_rap",
        "pmio:write:0": "write_rdp",
        "pmio:read:0": "read_rdp",
        "pmio:write:4": "rx_notify",
        "pmio:read:6": "read_rx_byte",
    }

    # -- CSR access -------------------------------------------------------------

    def write_rap(self, value):
        self.rap = value
        return 0

    def read_rap(self):
        return self.rap

    def write_rdp(self, value):
        csr = self.rap
        sed_command_decision(csr)  # noqa: F821
        if csr == self.CSR_STATUS:
            self.csr0 = value
            if value & 1:
                self.do_init()
            if value & self.TDMD:
                self.do_transmit()
        elif csr == self.CSR_IADR_LO:
            self.csr1 = value
        elif csr == self.CSR_IADR_HI:
            self.csr2 = value
        elif csr == self.CSR_MODE:
            self.csr15 = value
        elif csr == self.CSR_RDRA:
            self.rdra = value
        elif csr == self.CSR_TDRA:
            self.tdra = value
        elif csr == self.CSR_RCVRL:
            self.rcvrl = value
        elif csr == self.CSR_XMTRL:
            self.xmtrl = value
        sed_command_end()  # noqa: F821
        return 0

    def read_rdp(self):
        csr = self.rap
        value = 0
        if csr == self.CSR_STATUS:
            value = self.csr0
        elif csr == self.CSR_MODE:
            value = self.csr15
        elif csr == self.CSR_RCVRL:
            value = self.rcvrl
        elif csr == self.CSR_XMTRL:
            value = self.xmtrl
        return value

    def do_init(self):
        """CSR0.INIT: read the init block from guest memory — mode word,
        ring bases, ring lengths — like the real part's initialization."""
        base = self.csr1 | (self.csr2 << 16)
        mode_lo = dma_read(base)  # noqa: F821
        mode_hi = dma_read(base + 1)  # noqa: F821
        self.csr15 = mode_lo | (mode_hi << 8)
        b0 = dma_read(base + 2)  # noqa: F821
        b1 = dma_read(base + 3)  # noqa: F821
        b2 = dma_read(base + 4)  # noqa: F821
        b3 = dma_read(base + 5)  # noqa: F821
        self.rdra = b0 | (b1 << 8) | (b2 << 16) | (b3 << 24)
        b0 = dma_read(base + 6)  # noqa: F821
        b1 = dma_read(base + 7)  # noqa: F821
        b2 = dma_read(base + 8)  # noqa: F821
        b3 = dma_read(base + 9)  # noqa: F821
        self.tdra = b0 | (b1 << 8) | (b2 << 16) | (b3 << 24)
        b0 = dma_read(base + 10)  # noqa: F821
        b1 = dma_read(base + 11)  # noqa: F821
        self.rcvrl = b0 | (b1 << 8)
        b0 = dma_read(base + 12)  # noqa: F821
        b1 = dma_read(base + 13)  # noqa: F821
        self.xmtrl = b0 | (b1 << 8)
        self.csr0 = self.csr0 | 0x0100        # IDON
        return 0

    # -- transmit path ----------------------------------------------------------------

    def do_transmit(self):
        """Walk chained tx descriptors, assemble the frame, send it.

        Descriptor i (4 bytes at tdra + 4*i): [own, flags, len_lo, len_hi];
        flags bit 1 = last-in-chain; payload follows at
        tdra + 4*xmtrl + 256*i (a fixed per-descriptor payload window).
        """
        self.xmit_pos = 0
        idx = self.tx_idx
        more = 1
        while more == 1:
            base = self.tdra + idx * 4
            own = dma_read(base)  # noqa: F821
            if own != 1:
                more = 0
            else:
                flags = dma_read(base + 1)  # noqa: F821
                lo = dma_read(base + 2)  # noqa: F821
                hi = dma_read(base + 3)  # noqa: F821
                count = lo | (hi << 8)
                if self.VULN_7512:
                    self.copy_tx_payload(idx, count)
                else:
                    # The fix: bound the accumulated frame length.
                    if self.xmit_pos + count <= self.BUFFER_SIZE:
                        self.copy_tx_payload(idx, count)
                    else:
                        self.csr0 = self.csr0 | 0x8000   # BABL error
                        more = 0
                dma_write(base, 0)  # noqa: F821  (give descriptor back)
                if flags & 2:
                    more = 0
                    self.finish_transmit()
                else:
                    idx += 1
                    if idx >= self.xmtrl:
                        idx = 0
        self.tx_idx = idx
        return 0

    def copy_tx_payload(self, idx, count):
        src = self.tdra + 4 * self.xmtrl + 256 * idx
        for i in range(count):
            byte = dma_read(src + i)  # noqa: F821
            self.buffer[self.xmit_pos] = byte
            self.xmit_pos += 1
        return 0

    def finish_transmit(self):
        if self.csr15 & self.LOOP:
            self.do_loopback_rx()
        else:
            for i in range(self.xmit_pos):
                net_tx_byte(self.buffer[i])  # noqa: F821
            net_tx_done(self.xmit_pos)  # noqa: F821
        self.csr0 = self.csr0 | 0x0200    # TINT
        self.raise_irq()
        return 0

    def do_loopback_rx(self):
        """Transmit looped back into receive: append FCS then deliver."""
        size = self.xmit_pos
        if self.VULN_7504:
            # CVE-2015-7504: the FCS lands at buffer[size..size+3] via a
            # temporary cursor — no bound check, no device-state index.
            pos = size
            self.buffer[pos] = 0x1D
            self.buffer[pos + 1] = 0x0F
            self.buffer[pos + 2] = 0xCD
            self.buffer[pos + 3] = 0x65
            self.rx_len = size + 4
        else:
            if size + 4 <= self.BUFFER_SIZE:
                pos = size
                self.buffer[pos] = 0x1D
                self.buffer[pos + 1] = 0x0F
                self.buffer[pos + 2] = 0xCD
                self.buffer[pos + 3] = 0x65
                self.rx_len = size + 4
            else:
                self.csr0 = self.csr0 | 0x1000    # MISS
                self.rx_len = 0
        self.rx_ready = 1
        self.recv_pos = 0
        return 0

    # -- receive path -------------------------------------------------------------------

    def rx_notify(self, length):
        """Host injected a frame of *length* bytes; pull it in."""
        slot = self.find_rx_desc()
        if slot < 0:
            self.csr0 = self.csr0 | 0x1000        # MISS
            return 0
        if length > self.BUFFER_SIZE:
            self.csr0 = self.csr0 | 0x1000
            return 0
        self.recv_pos = 0
        for i in range(length):
            byte = net_rx_byte(i)  # noqa: F821
            self.buffer[self.recv_pos] = byte
            self.recv_pos += 1
        self.rx_len = length
        self.rx_ready = 1
        self.recv_pos = 0
        self.rx_idx = slot
        dma_write(self.rdra + slot * 4, 0)  # noqa: F821
        self.csr0 = self.csr0 | 0x0400        # RINT
        self.raise_irq()
        return 0

    def find_rx_desc(self):
        """Scan the rx ring for a descriptor the device owns.

        The vulnerable build (CVE-2016-7909) wraps the cursor *before*
        testing scan completion, so a zero-length ring spins forever.
        """
        if self.VULN_RINGLOOP:
            idx = self.rx_idx
            while 1:
                own = dma_read(self.rdra + idx * 4)  # noqa: F821
                if own == 1:
                    return idx
                idx += 1
                if idx >= self.rcvrl:
                    idx = 0
                if idx == self.rx_idx:
                    return -1
        else:
            if self.rcvrl == 0:
                return -1                          # the upstream fix
            idx = self.rx_idx
            scanned = 0
            while scanned < self.rcvrl:
                own = dma_read(self.rdra + idx * 4)  # noqa: F821
                if own == 1:
                    return idx
                idx += 1
                if idx >= self.rcvrl:
                    idx = 0
                scanned += 1
            return -1
        return -1

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

    # -- interrupts ------------------------------------------------------------------------

    def raise_irq(self):
        self.csr0 = self.csr0 | 0x0080     # INTR
        self.irq(1)

    def on_irq(self, level):
        self.irq_level = level
        set_irq(level)  # noqa: F821
        return 0


@register_device
class PCNet(Device):
    """The wrapped network adapter with its backends."""

    LOGIC = PCNetLogic
    NAME = "pcnet"
    CVES = (
        CveGate("CVE-2015-7504", "VULN_7504", "2.5.0",
                "loopback FCS append overruns buffer via a temp cursor"),
        CveGate("CVE-2015-7512", "VULN_7512", "2.5.0",
                "chained tx descriptors overrun buffer at xmit_pos"),
        CveGate("CVE-2016-7909", "VULN_RINGLOOP", "2.7.0",
                "rx ring scan never terminates on zero-length ring"),
    )

    def __init__(self, qemu_version: str = "99.0.0",
                 memory: GuestMemory = None, net: NetBackend = None,
                 irq_line: IRQLine = None, **kwargs):
        self.memory = memory if memory is not None else GuestMemory()
        self.net = net if net is not None else NetBackend()
        self.irq_line = (irq_line if irq_line is not None
                         else IRQLine("pcnet"))
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
        self.machine.set_funcptr("irq", "on_irq")
        self.state.write_field("rcvrl", 4)
        self.state.write_field("xmtrl", 4)

    # -- host-side helpers -------------------------------------------------------

    def stage_rx_frame(self, payload: bytes) -> None:
        """Make *payload* available to the next rx_notify round."""
        self.staging.rx_frame = bytes(payload)
