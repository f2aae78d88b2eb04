"""USB EHCI — enhanced host controller with an attached USB mass-storage
device (QEMU ``hw/usb/hcd-ehci.c`` + ``hw/usb/core.c`` analogue).

The guest drives USB transactions token-by-token, as the EHCI schedule
walker would: a SETUP token followed by 8 setup bytes, then IN/OUT data
stages against ``data_buf``, then completion.  The attached device model
is a mass-storage-style function: control requests implement the standard
chapter-9 requests plus two vendor block-I/O requests the storage driver
uses (the paper benchmarks EHCI as the USB-storage interface).

Seeded vulnerability:

* **CVE-2020-14364** (fixed 5.1.1; the paper tests v5.1.0) — in
  ``do_token_setup`` the wLength from the setup packet is stored into
  ``setup_len`` *before* it is validated against ``data_buf``'s size; the
  later data stage indexes ``data_buf[setup_index]`` out of bounds.  The
  first out-of-bounds instance overruns past ``data_buf`` and rewrites
  ``setup_len``/``setup_index`` themselves (so the attacker steers the
  cursor — including to negative values); continuing writes reach the
  ``irq`` pointer.  Parameter check and indirect-jump check both fire,
  exactly as the paper reports.
"""

from __future__ import annotations

from repro.compiler import DeviceLogic, arr, fld, ptr, reg
from repro.devices.backends import DiskImage, GuestMemory, IRQLine
from repro.devices.base import CveGate, Device, register_device

DATA_BUF_SIZE = 4096
SECTOR = 512

# Token PIDs.
TOKEN_SETUP = 0x2D
TOKEN_IN = 0x69
TOKEN_OUT = 0xE1

# Setup-state machine (as in QEMU usb core).
SETUP_STATE_IDLE = 0
SETUP_STATE_SETUP = 1
SETUP_STATE_DATA = 2
SETUP_STATE_ACK = 3

# Standard requests + the storage function's vendor requests.
REQ_GET_STATUS = 0
REQ_SET_ADDRESS = 5
REQ_GET_DESCRIPTOR = 6
REQ_SET_CONFIGURATION = 9
REQ_BLOCK_WRITE = 0xF0      # vendor: wValue = LBA, data stage = payload
REQ_BLOCK_READ = 0xF1       # vendor: wValue = LBA, data stage = readback


class EHCILogic(DeviceLogic):
    """Compilable EHCI + USB-device logic."""

    STRUCT = "USBDevice"
    FIELDS = (
        reg("usbcmd", "u32", doc="EHCI command register"),
        reg("usbsts", "u32", doc="EHCI status register"),
        reg("portsc", "u32", doc="port status/control"),
        arr("setup_buf", "u8", 8, doc="8-byte SETUP packet"),
        arr("data_buf", "u8", DATA_BUF_SIZE, doc="control data stage"),
        fld("setup_len", "i32", doc="wLength (CVE-2020-14364)"),
        fld("setup_index", "i32", doc="data-stage cursor"),
        fld("setup_state", "u8"),
        fld("pkt_pos", "u8", doc="bytes of SETUP received"),
        fld("devaddr", "u8"), fld("config", "u8"),
        fld("cur_req", "u8", doc="bRequest being served"),
        fld("lba", "u32", doc="block address of the vendor request"),
        ptr("irq", doc="completion interrupt callback"),
        fld("irq_level", "u8"),
    )
    CONSTS = {
        "VULN_SETUPLEN": 0,
        "TOKEN_SETUP": TOKEN_SETUP, "TOKEN_IN": TOKEN_IN,
        "TOKEN_OUT": TOKEN_OUT,
        "ST_IDLE": SETUP_STATE_IDLE, "ST_SETUP": SETUP_STATE_SETUP,
        "ST_DATA": SETUP_STATE_DATA, "ST_ACK": SETUP_STATE_ACK,
        "REQ_GET_STATUS": REQ_GET_STATUS,
        "REQ_SET_ADDRESS": REQ_SET_ADDRESS,
        "REQ_GET_DESCRIPTOR": REQ_GET_DESCRIPTOR,
        "REQ_SET_CONFIGURATION": REQ_SET_CONFIGURATION,
        "REQ_BLOCK_WRITE": REQ_BLOCK_WRITE,
        "REQ_BLOCK_READ": REQ_BLOCK_READ,
        "DATA_BUF_SIZE": DATA_BUF_SIZE, "SECTOR": SECTOR,
    }
    EXTERNS = ("disk_read", "disk_write", "set_irq")
    #: EHCI is a memory-mapped controller: its operational registers
    #: live in an MMIO window, not in port space.
    ENTRIES = {
        "mmio:write:0": "write_usbcmd",
        "mmio:read:1": "read_usbsts",
        "mmio:write:2": "write_token",
        "mmio:write:3": "write_data",
        "mmio:read:3": "read_data",
    }

    # -- EHCI operational registers ---------------------------------------------

    def write_usbcmd(self, value):
        self.usbcmd = value
        if value & 1:
            self.usbsts = self.usbsts & 0xFFFFFFFE   # clear HCHalted
        else:
            self.usbsts = self.usbsts | 1
        return 0

    def read_usbsts(self):
        return self.usbsts

    # -- token layer ----------------------------------------------------------------

    def write_token(self, pid):
        if pid == self.TOKEN_SETUP:
            self.pkt_pos = 0
            self.setup_state = self.ST_SETUP
        elif pid == self.TOKEN_IN:
            if self.setup_state == self.ST_ACK:
                self.complete_control()
        elif pid == self.TOKEN_OUT:
            if self.setup_state == self.ST_ACK:
                self.complete_control()
        return 0

    def write_data(self, value):
        """One payload byte: SETUP stage fills setup_buf, DATA-out stage
        fills data_buf at setup_index (the CVE's write primitive)."""
        if self.setup_state == self.ST_SETUP:
            if self.pkt_pos < 8:
                self.setup_buf[self.pkt_pos] = value
                self.pkt_pos += 1
                if self.pkt_pos == 8:
                    self.do_token_setup()
        elif self.setup_state == self.ST_DATA:
            self.data_buf[self.setup_index] = value
            self.setup_index += 1
            if self.setup_index >= self.setup_len:
                self.handle_control_out()
        return 0

    def read_data(self):
        """DATA-in stage: the guest drains data_buf at setup_index."""
        if self.setup_state == self.ST_DATA:
            value = self.data_buf[self.setup_index]
            self.setup_index += 1
            if self.setup_index >= self.setup_len:
                self.setup_state = self.ST_ACK
            return value
        return 0

    # -- usb core: setup handling (the CVE lives here) ----------------------------------

    def do_token_setup(self):
        request_type = self.setup_buf[0]
        self.cur_req = self.setup_buf[1]
        wlen = self.setup_buf[6] | (self.setup_buf[7] << 8)
        if self.VULN_SETUPLEN:
            # CVE-2020-14364: stored before validation.
            self.setup_len = wlen
        else:
            if wlen > self.DATA_BUF_SIZE:
                self.setup_state = self.ST_IDLE    # STALL
                return 0
            self.setup_len = wlen
        self.setup_index = 0
        self.lba = self.setup_buf[2] | (self.setup_buf[3] << 8)
        if request_type & 0x80:
            # Device-to-host: stage the response now, guest reads it.
            self.handle_control_in()
            if self.setup_len > 0:
                self.setup_state = self.ST_DATA
            else:
                self.setup_state = self.ST_ACK
        else:
            if self.setup_len > 0:
                self.setup_state = self.ST_DATA
            else:
                self.handle_control_out()
        return 0

    # -- the attached storage function -----------------------------------------------------

    def handle_control_in(self):
        req = self.cur_req
        if req == self.REQ_GET_STATUS:
            self.data_buf[0] = 1
            self.data_buf[1] = 0
        elif req == self.REQ_GET_DESCRIPTOR:
            self.fill_descriptor()
        elif req == self.REQ_BLOCK_READ:
            self.block_read()
        else:
            self.data_buf[0] = 0
        return 0

    def handle_control_out(self):
        req = self.cur_req
        if req == self.REQ_SET_ADDRESS:
            self.devaddr = self.lba & 0x7F
        elif req == self.REQ_SET_CONFIGURATION:
            self.config = self.lba & 0xFF
        elif req == self.REQ_BLOCK_WRITE:
            self.block_write()
        self.setup_state = self.ST_ACK
        return 0

    def fill_descriptor(self):
        self.data_buf[0] = 18       # bLength
        self.data_buf[1] = 1        # DEVICE
        self.data_buf[2] = 0
        self.data_buf[3] = 2        # USB 2.0
        self.data_buf[4] = 8        # mass storage-ish
        self.data_buf[5] = 6
        self.data_buf[6] = 0x50
        self.data_buf[7] = 64
        return 0

    def block_read(self):
        base = self.lba * self.SECTOR
        for i in range(self.SECTOR):
            byte = disk_read(base + i)  # noqa: F821
            self.data_buf[i] = byte
        return 0

    def block_write(self):
        base = self.lba * self.SECTOR
        count = self.setup_len
        for i in range(count):
            disk_write(base + i, self.data_buf[i])  # noqa: F821
        return 0

    def complete_control(self):
        """Status stage: transaction done, raise the completion IRQ."""
        self.setup_state = self.ST_IDLE
        self.usbsts = self.usbsts | 0x01
        self.irq(1)
        return 0

    def on_irq(self, level):
        self.irq_level = level
        set_irq(level)  # noqa: F821
        return 0


@register_device
class EHCI(Device):
    """The wrapped EHCI controller + USB storage function."""

    LOGIC = EHCILogic
    NAME = "ehci"
    CVES = (
        CveGate("CVE-2020-14364", "VULN_SETUPLEN", "5.1.1",
                "setup_len stored before validation; data stage runs "
                "data_buf out of bounds"),
    )

    def __init__(self, qemu_version: str = "99.0.0",
                 disk: DiskImage = None, memory: GuestMemory = None,
                 irq_line: IRQLine = None, **kwargs):
        self.disk = disk if disk is not None else DiskImage(8 << 20)
        self.memory = memory if memory is not None else GuestMemory()
        self.irq_line = (irq_line if irq_line is not None
                         else IRQLine("ehci"))
        super().__init__(qemu_version=qemu_version, **kwargs)

    def bind_externs(self) -> None:
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
        self.machine.set_funcptr("irq", "on_irq")
        self.state.write_field("usbsts", 0x1000)   # HCHalted at boot
        self.state.write_field("portsc", 0x1005)   # connected, enabled
