"""SDHCI — SD host controller interface (QEMU ``hw/sd/sdhci.c`` analogue).

Programming model: block-size/block-count registers, a command register
issuing SD commands (single/multi block read/write), and a 32-bit-ish data
port streaming the block payload through ``fifo_buffer``.

Seeded vulnerability:

* **CVE-2021-3409** (fixed 6.0; the paper tests v5.2.0) — the guest may
  rewrite ``blksize`` *while a transfer is in flight*.  The data-port path
  computes ``blksize - data_count`` in a 16-bit quantity; with
  ``data_count`` already beyond the shrunken ``blksize`` the subtraction
  underflows (caught by the parameter check's integer-overflow arm, as in
  the paper), and the flush path indexes ``fifo_buffer`` with the stale
  cursor.
"""

from __future__ import annotations

from repro.compiler import DeviceLogic, arr, fld, ptr, reg
from repro.devices.backends import DiskImage, IRQLine
from repro.devices.base import CveGate, Device, register_device

FIFO_SIZE = 4096

# SD commands (subset).
CMD_GO_IDLE = 0
CMD_SEND_STATUS = 13
CMD_READ_SINGLE = 17
CMD_READ_MULTI = 18
CMD_WRITE_SINGLE = 24
CMD_WRITE_MULTI = 25
CMD_APP = 55          # rare in our workloads
CMD_SWITCH = 6        # rare
CMD_SEND_CID = 2
CMD_SEND_CSD = 9
CMD_STOP = 12

TRANSFER_NONE = 0
TRANSFER_READ = 1
TRANSFER_WRITE = 2


class SDHCILogic(DeviceLogic):
    """Compilable SDHCI logic."""

    STRUCT = "SDHCIState"
    FIELDS = (
        reg("blksize", "u16", doc="block size register (the CVE's knob)"),
        reg("blkcnt", "u16", doc="block count register"),
        reg("cmdreg", "u8", doc="command register"),
        reg("argreg", "u32", doc="command argument (LBA)"),
        reg("prnsts", "u32", doc="present state"),
        fld("data_count", "u16", doc="bytes moved in the current block"),
        fld("trans_remain", "u16", doc="bytes left (underflow victim)"),
        fld("transfer_mode", "u8", doc="0 none / 1 read / 2 write"),
        fld("cur_lba", "u32"),
        fld("blocks_done", "u16"),
        arr("fifo_buffer", "u8", FIFO_SIZE, doc="block staging buffer"),
        ptr("irq", doc="transfer-complete interrupt"),
        fld("irq_level", "u8"),
        fld("status", "u8"),
    )
    CONSTS = {
        "VULN_BLKSIZE": 0,
        "CMD_GO_IDLE": CMD_GO_IDLE, "CMD_SEND_STATUS": CMD_SEND_STATUS,
        "CMD_READ_SINGLE": CMD_READ_SINGLE,
        "CMD_READ_MULTI": CMD_READ_MULTI,
        "CMD_WRITE_SINGLE": CMD_WRITE_SINGLE,
        "CMD_WRITE_MULTI": CMD_WRITE_MULTI,
        "CMD_APP": CMD_APP, "CMD_SWITCH": CMD_SWITCH,
        "CMD_CID": CMD_SEND_CID, "CMD_CSD": CMD_SEND_CSD,
        "CMD_STOP": CMD_STOP,
        "T_NONE": TRANSFER_NONE, "T_READ": TRANSFER_READ,
        "T_WRITE": TRANSFER_WRITE,
        "FIFO_SIZE": FIFO_SIZE,
    }
    EXTERNS = ("disk_read", "disk_write", "set_irq")
    ENTRIES = {
        "pmio:write:0": "write_blksize",
        "pmio:write:1": "write_blkcnt",
        "pmio:write:2": "write_arg",
        "pmio:write:3": "write_cmd",
        "pmio:write:4": "write_dataport",
        "pmio:read:4": "read_dataport",
        "pmio:read:5": "read_status",
    }

    # -- register writes ----------------------------------------------------------

    def write_blksize(self, value):
        size = value & 0xFFF              # 12-bit field, as in real SDHCI
        if self.VULN_BLKSIZE:
            # CVE-2021-3409: accepted even mid-transfer.
            self.blksize = size
        else:
            if self.transfer_mode == self.T_NONE:
                self.blksize = size
            else:
                self.status = 0x40        # rejected: transfer active
        return 0

    def write_blkcnt(self, value):
        self.blkcnt = value
        return 0

    def write_arg(self, value):
        self.argreg = value
        return 0

    def read_status(self):
        return self.status

    # -- command engine -----------------------------------------------------------------

    def write_cmd(self, value):
        self.cmdreg = value
        cmd = value & 0x3F
        sed_command_decision(cmd)  # noqa: F821
        if cmd == self.CMD_GO_IDLE:
            self.soft_reset()
        elif cmd == self.CMD_SEND_STATUS:
            self.status = self.transfer_mode
        elif cmd == self.CMD_READ_SINGLE:
            self.start_read(1)
        elif cmd == self.CMD_READ_MULTI:
            self.start_read(self.blkcnt)
        elif cmd == self.CMD_WRITE_SINGLE:
            self.start_write(1)
        elif cmd == self.CMD_WRITE_MULTI:
            self.start_write(self.blkcnt)
        elif cmd == self.CMD_CID:
            self.stage_register_read(0xCD)
        elif cmd == self.CMD_CSD:
            self.stage_register_read(0xC5)
        elif cmd == self.CMD_STOP:
            self.finish_transfer()
        elif cmd == self.CMD_APP:
            self.status = 0x20
        elif cmd == self.CMD_SWITCH:
            self.status = 0x21
        else:
            self.status = 0xFF
        sed_command_end()  # noqa: F821
        return 0

    def soft_reset(self):
        self.transfer_mode = self.T_NONE
        self.data_count = 0
        self.trans_remain = 0
        self.blocks_done = 0
        self.status = 0
        self.prnsts = 0

    def start_read(self, count):
        self.cur_lba = self.argreg
        self.blkcnt = count
        self.blocks_done = 0
        self.transfer_mode = self.T_READ
        self.data_count = 0
        self.prnsts = self.prnsts | 0x0800     # buffer read enable
        self.fill_fifo()
        return 0

    def start_write(self, count):
        self.cur_lba = self.argreg
        self.blkcnt = count
        self.blocks_done = 0
        self.transfer_mode = self.T_WRITE
        self.data_count = 0
        self.prnsts = self.prnsts | 0x0400     # buffer write enable
        return 0

    def stage_register_read(self, tag):
        """CID/CSD register read: one block whose first bytes carry the
        16-byte register image (tagged so tests can tell them apart)."""
        self.transfer_mode = self.T_READ
        self.blkcnt = 1
        self.blocks_done = 0
        self.data_count = 0
        self.fifo_buffer[0] = tag
        for i in range(1, 16):
            self.fifo_buffer[i] = tag ^ i
        for i in range(16, 512):
            self.fifo_buffer[i] = 0
        self.prnsts = self.prnsts | 0x0800
        return 0

    def fill_fifo(self):
        """Stage one block from media into fifo_buffer."""
        base = self.cur_lba * 512
        count = self.blksize
        for i in range(count):
            byte = disk_read(base + i)  # noqa: F821
            self.fifo_buffer[i] = byte
        return 0

    # -- data port ----------------------------------------------------------------------

    def write_dataport(self, value):
        if self.transfer_mode != self.T_WRITE:
            self.status = 0x41
            return 0
        self.fifo_buffer[self.data_count] = value
        self.data_count += 1
        # Bytes remaining in this block: underflows when blksize shrank
        # under an in-flight transfer (the CVE's detonation point).
        self.trans_remain = self.blksize - self.data_count
        if self.trans_remain == 0:
            self.flush_block()
        return 0

    def read_dataport(self):
        if self.transfer_mode != self.T_READ:
            self.status = 0x42
            return 0
        value = self.fifo_buffer[self.data_count]
        self.data_count += 1
        self.trans_remain = self.blksize - self.data_count
        if self.trans_remain == 0:
            self.next_read_block()
        return value

    def flush_block(self):
        base = self.cur_lba * 512
        count = self.blksize
        for i in range(count):
            disk_write(base + i, self.fifo_buffer[i])  # noqa: F821
        self.blocks_done += 1
        self.cur_lba += 1
        self.data_count = 0
        if self.blocks_done >= self.blkcnt:
            self.finish_transfer()
        return 0

    def next_read_block(self):
        self.blocks_done += 1
        self.cur_lba += 1
        self.data_count = 0
        if self.blocks_done >= self.blkcnt:
            self.finish_transfer()
        else:
            self.fill_fifo()
        return 0

    def finish_transfer(self):
        self.transfer_mode = self.T_NONE
        self.prnsts = self.prnsts & 0xFFFFF3FF
        self.status = 0
        self.irq(1)
        return 0

    def on_irq(self, level):
        self.irq_level = level
        set_irq(level)  # noqa: F821
        return 0


@register_device
class SDHCI(Device):
    """The wrapped SD host controller."""

    LOGIC = SDHCILogic
    NAME = "sdhci"
    CVES = (
        CveGate("CVE-2021-3409", "VULN_BLKSIZE", "6.0.0",
                "blksize mutable mid-transfer; blksize - data_count "
                "underflows"),
    )

    def __init__(self, qemu_version: str = "99.0.0",
                 disk: DiskImage = None, irq_line: IRQLine = None,
                 **kwargs):
        self.disk = disk if disk is not None else DiskImage(16 << 20)
        self.irq_line = (irq_line if irq_line is not None
                         else IRQLine("sdhci"))
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
        self.state.write_field("blksize", 512)
        self.state.write_field("blkcnt", 1)
