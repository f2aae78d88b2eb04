"""SCSI — NCR53C9x-family (ESP) controller with an attached SCSI disk
(QEMU ``hw/scsi/esp.c`` + ``hw/scsi/scsi-bus.c`` analogue).

Programming model: a 16-byte command FIFO, an ESP command register
(SELECT / TRANSFER INFO / message-accepted / reset), transfer-count
registers for DMA selects, SCSI phases, and a CDB parser whose length
table is exactly where CVE-2015-5158 lived.

Seeded vulnerabilities (both detected by the conditional-jump check in
the paper — the overflow cursors are *temporaries*, outside the parameter
check's device-state scope):

* **CVE-2015-5158** (fixed 2.4.1; tested v2.4.0) — the CDB length for a
  vendor-group opcode comes back as a bogus huge value; the CDB copy loop
  (local cursor) overruns ``cdb``.
* **CVE-2016-4439** (fixed 2.6.1; tested v2.6.0) — a DMA SELECT copies
  ``ti_size`` bytes into the 16-byte ``cmdbuf`` without clamping; the
  copy cursor is a local.
"""

from __future__ import annotations

from repro.compiler import DeviceLogic, arr, fld, ptr, reg
from repro.devices.backends import DiskImage, GuestMemory, IRQLine
from repro.devices.base import CveGate, Device, register_device

CMDBUF_SIZE = 16
CDB_SIZE = 16
DATABUF_SIZE = 4096
BLOCK = 512

# ESP commands.
ESP_RESET = 0x02
ESP_TI = 0x10             # transfer info (move a data block)
ESP_ICCS = 0x11           # initiator command complete sequence
ESP_MSGACC = 0x12
ESP_SEL = 0x42            # select with ATN (FIFO command)
ESP_SELDMA = 0x43         # select with DMA command buffer
ESP_ENSEL = 0x44          # rare
ESP_DISSEL = 0x45         # rare

# SCSI phases.
PHASE_IDLE = 0
PHASE_DATAIN = 1
PHASE_DATAOUT = 2
PHASE_STATUS = 3

# SCSI opcodes.
OP_TEST_UNIT_READY = 0x00
OP_REQUEST_SENSE = 0x03
OP_READ_6 = 0x08
OP_WRITE_6 = 0x0A
OP_INQUIRY = 0x12
OP_MODE_SENSE = 0x1A
OP_READ_CAPACITY = 0x25
OP_READ_10 = 0x28
OP_WRITE_10 = 0x2A


class ESPLogic(DeviceLogic):
    """Compilable ESP + SCSI-disk logic."""

    STRUCT = "ESPState"
    FIELDS = (
        reg("status", "u8", doc="ESP status register"),
        reg("seqstep", "u8", doc="sequence step"),
        reg("tclo", "u8", doc="transfer count low"),
        reg("tcmid", "u8", doc="transfer count mid"),
        fld("ti_size", "i32", doc="DMA transfer count"),
        fld("fifo_pos", "u8", doc="FIFO fill level"),
        arr("fifo", "u8", CMDBUF_SIZE, doc="byte FIFO"),
        fld("cmdlen", "u32", doc="bytes in cmdbuf"),
        arr("cmdbuf", "u8", CMDBUF_SIZE, doc="CDB staging (CVE-2016-4439)"),
        arr("cdb", "u8", CDB_SIZE, doc="parsed CDB (CVE-2015-5158)"),
        fld("phase", "u8"),
        fld("cur_lba", "u32"),
        fld("xfer_len", "i32", doc="bytes left in the data phase"),
        fld("data_pos", "i32"),
        arr("databuf", "u8", DATABUF_SIZE, doc="data-phase staging"),
        ptr("irq", doc="interrupt callback"),
        fld("irq_level", "u8"),
        fld("scsi_status", "u8"),
        fld("dma_addr", "u32"),
    )
    CONSTS = {
        "VULN_5158": 0, "VULN_4439": 0,
        "ESP_RESET": ESP_RESET, "ESP_TI": ESP_TI, "ESP_ICCS": ESP_ICCS,
        "ESP_MSGACC": ESP_MSGACC, "ESP_SEL": ESP_SEL,
        "ESP_SELDMA": ESP_SELDMA, "ESP_ENSEL": ESP_ENSEL,
        "ESP_DISSEL": ESP_DISSEL,
        "P_IDLE": PHASE_IDLE, "P_DATAIN": PHASE_DATAIN,
        "P_DATAOUT": PHASE_DATAOUT, "P_STATUS": PHASE_STATUS,
        "OP_TUR": OP_TEST_UNIT_READY, "OP_INQUIRY": OP_INQUIRY,
        "OP_REQ_SENSE": OP_REQUEST_SENSE, "OP_READ_6": OP_READ_6,
        "OP_WRITE_6": OP_WRITE_6,
        "OP_MODE_SENSE": OP_MODE_SENSE, "OP_READ_CAP": OP_READ_CAPACITY,
        "OP_READ_10": OP_READ_10, "OP_WRITE_10": OP_WRITE_10,
        "CMDBUF_SIZE": CMDBUF_SIZE, "BLOCK": BLOCK,
        "DATABUF_SIZE": DATABUF_SIZE,
    }
    EXTERNS = ("disk_read", "disk_write", "dma_read", "set_irq")
    ENTRIES = {
        "pmio:write:0": "write_fifo_port",
        "pmio:read:0": "read_data_port",
        "pmio:write:1": "write_data_port",
        "pmio:write:3": "write_cmd",
        "pmio:read:3": "read_status",
        "pmio:write:5": "write_tclo",
        "pmio:write:6": "write_tcmid",
        "pmio:write:7": "write_dma_addr",
    }

    # -- registers ---------------------------------------------------------------

    def write_tclo(self, value):
        self.tclo = value
        self.ti_size = (self.ti_size & 0xFF00) | value
        return 0

    def write_tcmid(self, value):
        self.tcmid = value
        self.ti_size = (self.ti_size & 0x00FF) | (value << 8)
        return 0

    def write_dma_addr(self, value):
        self.dma_addr = value
        return 0

    def read_status(self):
        return self.status

    # -- FIFO & data ports ------------------------------------------------------------

    def write_fifo_port(self, value):
        if self.fifo_pos < self.CMDBUF_SIZE:
            self.fifo[self.fifo_pos] = value
            self.fifo_pos += 1
        else:
            self.status = self.status | 0x40   # gross error
        return 0

    def write_data_port(self, value):
        """Data-out phase: payload byte toward the disk."""
        if self.phase == self.P_DATAOUT:
            self.databuf[self.data_pos] = value
            self.data_pos += 1
            if self.data_pos >= self.BLOCK:
                self.flush_data_block()
        return 0

    def read_data_port(self):
        """Data-in phase: the guest drains staged disk data."""
        if self.phase != self.P_DATAIN:
            return 0
        value = self.databuf[self.data_pos]
        self.data_pos += 1
        if self.data_pos >= self.BLOCK:
            self.next_data_block()
        return value

    # -- ESP command register -----------------------------------------------------------

    def write_cmd(self, value):
        cmd = value & 0x7F
        if cmd == self.ESP_RESET:
            self.do_reset()
        elif cmd == self.ESP_SEL:
            self.do_select_fifo()
        elif cmd == self.ESP_SELDMA:
            self.do_select_dma()
        elif cmd == self.ESP_TI:
            self.do_transfer_info()
        elif cmd == self.ESP_ICCS:
            self.phase = self.P_STATUS
            self.raise_irq()
        elif cmd == self.ESP_MSGACC:
            self.phase = self.P_IDLE
            self.status = 0
        elif cmd == self.ESP_ENSEL:
            self.seqstep = 0
        elif cmd == self.ESP_DISSEL:
            self.seqstep = 0
            self.raise_irq()
        else:
            self.status = self.status | 0x40
        return 0

    def do_reset(self):
        self.fifo_pos = 0
        self.cmdlen = 0
        self.phase = self.P_IDLE
        self.data_pos = 0
        self.xfer_len = 0
        self.status = 0
        self.scsi_status = 0
        return 0

    # -- selection: command buffer assembly ------------------------------------------------

    def do_select_fifo(self):
        """SELECT with the CDB already in the FIFO (the benign path)."""
        count = self.fifo_pos
        pos = 0
        for i in range(count):
            self.cmdbuf[pos] = self.fifo[i]
            pos += 1
        self.cmdlen = count
        self.fifo_pos = 0
        self.execute_scsi()
        return 0

    def do_select_dma(self):
        """SELECT with the CDB DMAed from guest memory.

        CVE-2016-4439: ``ti_size`` is not clamped to the 16-byte cmdbuf;
        the copy cursor is a local, so the overflow is invisible to the
        parameter check — the conditional-jump check flags the untrained
        path instead.
        """
        count = self.ti_size
        if self.VULN_4439:
            pos = 0
            for i in range(count):
                byte = dma_read(self.dma_addr + i)  # noqa: F821
                self.cmdbuf[pos] = byte
                pos += 1
            self.cmdlen = count
        else:
            if count > self.CMDBUF_SIZE:
                count = self.CMDBUF_SIZE          # the upstream clamp
            pos = 0
            for i in range(count):
                byte = dma_read(self.dma_addr + i)  # noqa: F821
                self.cmdbuf[pos] = byte
                pos += 1
            self.cmdlen = count
        self.execute_scsi()
        return 0

    # -- SCSI layer ------------------------------------------------------------------------

    def execute_scsi(self):
        """Parse the CDB (CVE-2015-5158 lives in the length table) and
        dispatch the SCSI opcode."""
        first = self.cmdbuf[0]
        group = first >> 5
        if group == 0:
            clen = 6
        elif group == 1:
            clen = 10
        elif group == 2:
            clen = 10
        elif group == 5:
            clen = 12
        else:
            if self.VULN_5158:
                # scsi_cdb_length() returned -1; the caller used it as a
                # size_t — model the effect with a huge copy length.
                clen = 255
            else:
                self.scsi_status = 2              # CHECK CONDITION
                self.phase = self.P_STATUS
                self.raise_irq()
                return 0
        pos = 0
        for i in range(clen):
            self.cdb[pos] = self.cmdbuf[i]
            pos += 1
        self.dispatch_opcode()
        return 0

    def dispatch_opcode(self):
        op = self.cdb[0]
        sed_command_decision(op)  # noqa: F821
        if op == self.OP_TUR:
            self.scsi_status = 0
            self.phase = self.P_STATUS
        elif op == self.OP_REQ_SENSE:
            self.stage_sense()
        elif op == self.OP_READ_6:
            self.begin_rw6(0)
        elif op == self.OP_WRITE_6:
            self.begin_rw6(1)
        elif op == self.OP_INQUIRY:
            self.stage_inquiry()
        elif op == self.OP_READ_CAP:
            self.stage_capacity()
        elif op == self.OP_READ_10:
            self.begin_read10()
        elif op == self.OP_WRITE_10:
            self.begin_write10()
        elif op == self.OP_MODE_SENSE:
            self.stage_mode_sense()
        else:
            self.scsi_status = 2
            self.phase = self.P_STATUS
        sed_command_end()  # noqa: F821
        self.raise_irq()
        return 0

    def stage_inquiry(self):
        self.databuf[0] = 0          # direct-access device
        self.databuf[1] = 0
        self.databuf[2] = 5          # SPC-3
        self.databuf[3] = 2
        self.databuf[4] = 31
        self.xfer_len = 36
        self.data_pos = 0
        self.phase = self.P_DATAIN

    def stage_capacity(self):
        self.databuf[0] = 0
        self.databuf[1] = 0
        self.databuf[2] = 0x7F
        self.databuf[3] = 0xFF
        self.databuf[4] = 0
        self.databuf[5] = 0
        self.databuf[6] = 2
        self.databuf[7] = 0
        self.xfer_len = 8
        self.data_pos = 0
        self.phase = self.P_DATAIN

    def stage_mode_sense(self):
        self.databuf[0] = 3
        self.databuf[1] = 0
        self.databuf[2] = 0
        self.databuf[3] = 0
        self.xfer_len = 4
        self.data_pos = 0
        self.phase = self.P_DATAIN

    def stage_sense(self):
        """REQUEST SENSE: report and clear the last check condition."""
        self.databuf[0] = 0x70                 # fixed format
        self.databuf[1] = 0
        self.databuf[2] = self.scsi_status     # sense key analogue
        self.databuf[3] = 0
        self.xfer_len = 8
        self.data_pos = 0
        self.scsi_status = 0
        self.phase = self.P_DATAIN

    def begin_rw6(self, direction):
        """READ(6)/WRITE(6): 21-bit LBA + 8-bit block count."""
        self.cur_lba = ((self.cdb[1] & 0x1F) << 16) \
            | (self.cdb[2] << 8) | self.cdb[3]
        blocks = self.cdb[4]
        if blocks == 0:
            blocks = 256
        self.xfer_len = blocks * self.BLOCK
        self.data_pos = 0
        if direction == 0:
            self.phase = self.P_DATAIN
            self.stage_block()
        else:
            self.phase = self.P_DATAOUT
        return 0

    def cdb_lba(self):
        return ((self.cdb[2] << 24) | (self.cdb[3] << 16)
                | (self.cdb[4] << 8) | self.cdb[5])

    def cdb_blocks(self):
        return (self.cdb[7] << 8) | self.cdb[8]

    def begin_read10(self):
        self.cur_lba = self.cdb_lba()
        blocks = self.cdb_blocks()
        self.xfer_len = blocks * self.BLOCK
        self.data_pos = 0
        self.phase = self.P_DATAIN
        self.stage_block()
        return 0

    def begin_write10(self):
        self.cur_lba = self.cdb_lba()
        blocks = self.cdb_blocks()
        self.xfer_len = blocks * self.BLOCK
        self.data_pos = 0
        self.phase = self.P_DATAOUT
        return 0

    def stage_block(self):
        base = self.cur_lba * self.BLOCK
        for i in range(self.BLOCK):
            byte = disk_read(base + i)  # noqa: F821
            self.databuf[i] = byte
        return 0

    def flush_data_block(self):
        base = self.cur_lba * self.BLOCK
        for i in range(self.BLOCK):
            disk_write(base + i, self.databuf[i])  # noqa: F821
        self.cur_lba += 1
        self.data_pos = 0
        self.xfer_len -= self.BLOCK
        if self.xfer_len <= 0:
            self.phase = self.P_STATUS
            self.raise_irq()
        return 0

    def next_data_block(self):
        self.cur_lba += 1
        self.data_pos = 0
        self.xfer_len -= self.BLOCK
        if self.xfer_len <= 0:
            self.phase = self.P_STATUS
            self.raise_irq()
        else:
            self.stage_block()
        return 0

    def do_transfer_info(self):
        """TI: acknowledge the current phase (data already streamed via
        the data ports in this model)."""
        if self.phase == self.P_STATUS:
            self.raise_irq()
        return 0

    def raise_irq(self):
        self.status = self.status | 0x80
        self.irq(1)

    def on_irq(self, level):
        self.irq_level = level
        set_irq(level)  # noqa: F821
        return 0


@register_device
class SCSI(Device):
    """The wrapped ESP controller + SCSI disk."""

    LOGIC = ESPLogic
    NAME = "scsi"
    CVES = (
        CveGate("CVE-2015-5158", "VULN_5158", "2.4.1",
                "vendor-group CDB length parsed as huge; copy overruns "
                "cdb"),
        CveGate("CVE-2016-4439", "VULN_4439", "2.6.1",
                "DMA SELECT copies ti_size bytes into 16-byte cmdbuf"),
    )

    def __init__(self, qemu_version: str = "99.0.0",
                 disk: DiskImage = None, memory: GuestMemory = None,
                 irq_line: IRQLine = None, **kwargs):
        self.disk = disk if disk is not None else DiskImage(32 << 20)
        self.memory = memory if memory is not None else GuestMemory()
        self.irq_line = (irq_line if irq_line is not None
                         else IRQLine("scsi"))
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
            "dma_read", lambda m, addr: self.memory.read_byte(addr), cost=40,
            block=lambda m, addr, n: self.memory.dma_read_bytes(addr, n))
        self.machine.bind_extern(
            "set_irq", lambda m, level: self.irq_line.set_level(level),
            cost=50)

    def reset(self) -> None:
        self.machine.set_funcptr("irq", "on_irq")
