"""FDC — floppy disk controller (QEMU ``hw/block/fdc.c`` analogue).

Implements the 82078-style programming model QEMU emulates: a command
FIFO driven through the data port, MSR/DOR/DSR registers, a three-phase
command cycle (command → parameter → execution/result), DMA sector
transfers, and SENSE INTERRUPT semantics.

Seeded vulnerabilities:

* **CVE-2015-3456 (Venom, fixed 2.3.1 — we gate at 2.4.0 like the paper's
  v2.3.0 test build)** — in the parameter phase the FIFO index
  ``data_pos`` is incremented without bound, and the DRIVE SPECIFICATION /
  READ ID handlers can return early (invalid head bit) *without resetting
  the FIFO state*, so subsequent data-port writes run ``fifo[data_pos++]``
  off the end of the 512-byte FIFO into ``data_pos``/``data_len``/…
* **CVE-2016-1568-analogue (UAF, fixed 2.6.0)** — the DMA completion
  callback is not re-initialized when a transfer is aborted by a DOR
  reset; a crafted restart invokes the *stale* callback.  The pointer
  still targets a block the specification saw in training, which is why
  SEDSpec (by design) misses this one while Nioh's manual state machine
  catches it — the paper's documented miss.
"""

from __future__ import annotations

from repro.compiler import DeviceLogic, arr, fld, ptr, reg
from repro.devices.backends import DiskImage, GuestMemory, IRQLine
from repro.devices.base import CveGate, Device, register_device

SECTOR_LEN = 512
FDC_CAPACITY = 2_880 * 1024 // 2   # 1.44MB media by default (2.88MB max)

# Command bytes (low 5 bits select; high bits are MT/MFM/SK flags).
CMD_SPECIFY = 0x03
CMD_SENSE_DRIVE = 0x04
CMD_WRITE = 0x05            # issued as 0x45 (MFM)
CMD_READ = 0x06             # issued as 0x46
CMD_RECALIBRATE = 0x07
CMD_SENSE_INT = 0x08
CMD_READ_ID = 0x0A          # issued as 0x4A
CMD_SEEK = 0x0F
CMD_FORMAT = 0x0D           # format track (issued as 0x4D)
CMD_DUMPREG = 0x0E          # rare
CMD_VERSION = 0x10          # rare
CMD_CONFIGURE = 0x13        # rare
CMD_DRV_SPEC = 0x0E + 0x80  # 0x8E drive specification (rare, Venom path)

PHASE_CMD = 0
PHASE_PARAM = 1
PHASE_RESULT = 2

MSR_RQM = 0x80
MSR_DIO = 0x40
MSR_BUSY = 0x10


class FDCLogic(DeviceLogic):
    """Compilable device logic for the floppy controller."""

    STRUCT = "FDCtrl"
    FIELDS = (
        reg("sra", "u8", doc="status register A"),
        reg("srb", "u8", doc="status register B"),
        reg("dor", "u8", doc="digital output register"),
        reg("tdr", "u8", doc="tape drive register"),
        reg("msr", "u8", doc="main status register"),
        reg("dsr", "u8", doc="data rate select register"),
        fld("phase", "u8", doc="command cycle phase"),
        arr("fifo", "u8", SECTOR_LEN, doc="command/data FIFO"),
        fld("data_pos", "i32", doc="FIFO cursor (the Venom variable)"),
        fld("data_len", "i32", doc="bytes expected/available in FIFO"),
        fld("cur_cmd", "u8", doc="command being processed"),
        fld("st0", "u8"), fld("st1", "u8"), fld("st2", "u8"),
        fld("track", "u8"), fld("head", "u8"), fld("sector", "u8"),
        fld("dma_addr", "u32", doc="guest DMA buffer address"),
        ptr("irq", doc="interrupt callback"),
        ptr("dma_cb", doc="DMA completion callback (UAF target)"),
        fld("int_pending", "u8"),
        fld("dma_active", "u8", doc="transfer in flight"),
    )
    CONSTS = {
        "VULN_VENOM": 0, "VULN_UAF": 0,
        "PHASE_CMD": PHASE_CMD, "PHASE_PARAM": PHASE_PARAM,
        "PHASE_RESULT": PHASE_RESULT,
        "CMD_SPECIFY": CMD_SPECIFY, "CMD_SENSE_DRIVE": CMD_SENSE_DRIVE,
        "CMD_WRITE": CMD_WRITE, "CMD_READ": CMD_READ,
        "CMD_RECALIBRATE": CMD_RECALIBRATE, "CMD_SENSE_INT": CMD_SENSE_INT,
        "CMD_READ_ID": CMD_READ_ID, "CMD_SEEK": CMD_SEEK,
        "CMD_DUMPREG": CMD_DUMPREG, "CMD_VERSION": CMD_VERSION,
        "CMD_CONFIGURE": CMD_CONFIGURE, "CMD_FORMAT": CMD_FORMAT,
        "SECTOR_LEN": SECTOR_LEN,
    }
    EXTERNS = ("disk_read", "disk_write", "dma_read", "dma_write",
               "set_irq")
    ENTRIES = {
        "pmio:write:2": "write_dor",
        "pmio:read:2": "read_dor",
        "pmio:read:4": "read_msr",
        "pmio:write:4": "write_dsr",
        "pmio:write:5": "write_fifo",
        "pmio:read:5": "read_fifo",
        "pmio:write:8": "write_dma_page",
    }

    # -- register access ------------------------------------------------------

    def read_msr(self):
        return self.msr

    def read_dor(self):
        return self.dor

    def write_dsr(self, value):
        self.dsr = value
        if value & 0x80:
            self.soft_reset()
        return 0

    def write_dor(self, value):
        old = self.dor
        self.dor = value
        if (value & 0x04) == 0:
            # Controller held in reset.
            self.msr = 0
            if self.VULN_UAF:
                # CVE-2016-1568 analogue: the cancel/initialization code
                # for the in-flight transfer is MISSING — dma_active stays
                # set and the host block layer will still fire the stale
                # completion callback.  No extra branch exists here, so
                # the execution specification contains no transition to
                # violate (the paper's documented miss).
                pass
            else:
                self.dma_active = 0
        if ((value & 0x04) != 0) and ((old & 0x04) == 0):
            # Coming out of reset: interrupt + clean command state.
            self.soft_reset()
        return 0

    def write_dma_page(self, value):
        self.dma_addr = value
        return 0

    def soft_reset(self):
        self.phase = self.PHASE_CMD
        self.data_pos = 0
        self.data_len = 0
        self.msr = 0x80
        self.st0 = 0xC0
        self.int_pending = 1
        self.raise_irq()

    # -- FIFO: the three-phase command cycle ------------------------------------

    def write_fifo(self, value):
        if self.phase == self.PHASE_CMD:
            self.start_command(value)
        elif self.phase == self.PHASE_PARAM:
            if self.VULN_VENOM:
                # CVE-2015-3456: unbounded FIFO cursor.
                self.fifo[self.data_pos] = value
                self.data_pos += 1
            else:
                pos = self.data_pos & 511       # the upstream fix: masking
                self.fifo[pos] = value
                self.data_pos = pos + 1
            if self.data_pos == self.data_len:
                self.execute_command()
        else:
            # Data-port write in the result phase: protocol violation.
            self.st0 = 0x80
        return 0

    def read_fifo(self):
        if self.phase == self.PHASE_RESULT:
            if self.data_pos < self.data_len:
                value = self.fifo[self.data_pos]
                self.data_pos += 1
                if self.data_pos == self.data_len:
                    self.reset_fifo()
                return value
            self.reset_fifo()
            return 0
        self.st0 = 0x80
        return 0

    def reset_fifo(self):
        self.phase = self.PHASE_CMD
        self.data_pos = 0
        self.data_len = 0
        self.msr = 0x80

    def start_command(self, value):
        cmd = value & 0x1F
        self.cur_cmd = cmd
        self.msr = 0x90                       # RQM | BUSY
        sed_command_decision(cmd)  # noqa: F821
        if cmd == self.CMD_SPECIFY:
            self.begin_params(2)
        elif cmd == self.CMD_SENSE_DRIVE:
            self.begin_params(1)
        elif cmd == self.CMD_RECALIBRATE:
            self.begin_params(1)
        elif cmd == self.CMD_SENSE_INT:
            self.handle_sense_int()
        elif cmd == self.CMD_SEEK:
            self.begin_params(2)
        elif cmd == self.CMD_READ:
            self.begin_params(8)
            self.dma_active = 1
        elif cmd == self.CMD_WRITE:
            self.begin_params(8)
            self.dma_active = 1
        elif cmd == self.CMD_READ_ID:
            self.begin_params(1)
        elif cmd == self.CMD_FORMAT:
            self.begin_params(6)
        elif cmd == self.CMD_DUMPREG:
            self.handle_dumpreg()
        elif cmd == self.CMD_VERSION:
            self.begin_results(1)
            self.fifo[0] = 0x90
        elif cmd == self.CMD_CONFIGURE:
            self.begin_params(3)
        else:
            # Unknown command: single 0x80 result, like QEMU.
            self.begin_results(1)
            self.fifo[0] = 0x80
        sed_command_end()  # noqa: F821
        return 0

    def begin_params(self, count):
        self.phase = self.PHASE_PARAM
        self.data_pos = 0
        self.data_len = count

    def begin_results(self, count):
        self.phase = self.PHASE_RESULT
        self.data_pos = 0
        self.data_len = count
        self.msr = 0xD0                       # RQM | DIO | BUSY

    # -- command execution --------------------------------------------------------

    def execute_command(self):
        cmd = self.cur_cmd
        if cmd == self.CMD_SPECIFY:
            self.reset_fifo()
        elif cmd == self.CMD_SENSE_DRIVE:
            self.begin_results(1)
            self.fifo[0] = 0x28 | (self.track == 0)
        elif cmd == self.CMD_RECALIBRATE:
            self.track = 0
            self.st0 = 0x20
            self.int_pending = 1
            self.reset_fifo()
            self.raise_irq()
        elif cmd == self.CMD_SEEK:
            self.track = self.fifo[1]
            self.st0 = 0x20
            self.int_pending = 1
            self.reset_fifo()
            self.raise_irq()
        elif cmd == self.CMD_READ:
            self.do_transfer(0)
        elif cmd == self.CMD_WRITE:
            self.do_transfer(1)
        elif cmd == self.CMD_READ_ID:
            self.handle_read_id()
        elif cmd == self.CMD_FORMAT:
            self.do_format_track()
        elif cmd == self.CMD_CONFIGURE:
            self.reset_fifo()
        else:
            self.reset_fifo()
        return 0

    def handle_sense_int(self):
        self.begin_results(2)
        self.fifo[0] = self.st0
        self.fifo[1] = self.track
        self.int_pending = 0
        self.irq(0)

    def handle_dumpreg(self):
        self.begin_results(10)
        self.fifo[0] = self.track
        self.fifo[1] = 0
        self.fifo[2] = 0
        self.fifo[3] = 0
        self.fifo[4] = self.head
        self.fifo[5] = self.sector
        self.fifo[6] = 0
        self.fifo[7] = self.dsr
        self.fifo[8] = self.st0
        self.fifo[9] = self.st1

    def handle_read_id(self):
        head = self.fifo[0]
        if self.VULN_VENOM:
            if head & 0x80:
                # BUG: early return without resetting the FIFO state —
                # phase stays PARAM, data_pos keeps marching (Venom).
                self.st1 = 0x01
                return 0
        self.head = head & 0x04
        self.st0 = 0x20
        self.result7()
        self.raise_irq()
        return 0

    def do_transfer(self, direction):
        """READ/WRITE: move one sector between media and guest memory."""
        self.track = self.fifo[1]
        self.head = self.fifo[2]
        self.sector = self.fifo[3]
        offset = self.chs_offset()
        self.dma_active = 1
        if direction == 0:
            for i in range(self.SECTOR_LEN):
                byte = disk_read(offset + i)  # noqa: F821
                dma_write(self.dma_addr + i, byte)  # noqa: F821
        else:
            for i in range(self.SECTOR_LEN):
                byte = dma_read(self.dma_addr + i)  # noqa: F821
                disk_write(offset + i, byte)  # noqa: F821
        self.dma_active = 0
        self.st0 = 0x20
        self.st1 = 0
        self.result7()
        self.dma_cb(1)
        return 0

    def do_format_track(self):
        """FORMAT TRACK: fill every sector of the current track with the
        filler byte (params: drive, N, sectors/track, gap, filler, 0)."""
        self.head = self.fifo[1] & 1
        sectors = self.fifo[2]
        filler = self.fifo[4]
        if sectors > 18:
            sectors = 18
        track_base = (self.track * 2 + self.head) * 18 * self.SECTOR_LEN
        for s in range(sectors):
            base = track_base + s * self.SECTOR_LEN
            for i in range(self.SECTOR_LEN):
                disk_write(base + i, filler)  # noqa: F821
        self.st0 = 0x20
        self.result7()
        self.raise_irq()
        return 0

    def chs_offset(self):
        """CHS -> byte offset: 80 tracks x 2 heads x 18 sectors x 512."""
        lba = ((self.track * 2 + (self.head & 1)) * 18
               + (self.sector - 1))
        return lba * self.SECTOR_LEN

    def result7(self):
        """Standard 7-byte result block of read/write/read-id."""
        self.begin_results(7)
        self.fifo[0] = self.st0
        self.fifo[1] = self.st1
        self.fifo[2] = self.st2
        self.fifo[3] = self.track
        self.fifo[4] = self.head
        self.fifo[5] = self.sector
        self.fifo[6] = 2
        self.int_pending = 1

    # -- interrupts -----------------------------------------------------------------

    def raise_irq(self):
        self.irq(1)

    def on_irq(self, level):
        set_irq(level)  # noqa: F821
        return 0

    def on_dma_done(self, status):
        """DMA completion callback (the funcptr the UAF reuses)."""
        self.int_pending = 1
        self.irq(1)
        return 0


@register_device
class FDC(Device):
    """The wrapped floppy controller with its backends."""

    LOGIC = FDCLogic
    NAME = "fdc"
    CVES = (
        CveGate("CVE-2015-3456", "VULN_VENOM", "2.4.0",
                "Venom: FIFO cursor runs off the 512-byte FIFO"),
        CveGate("CVE-2016-1568", "VULN_UAF", "2.6.0",
                "stale DMA completion callback fires after abort "
                "(the paper's documented SEDSpec miss)"),
    )

    def __init__(self, qemu_version: str = "99.0.0",
                 disk: DiskImage = None, memory: GuestMemory = None,
                 irq_line: IRQLine = None, **kwargs):
        self.disk = disk if disk is not None else DiskImage(FDC_CAPACITY)
        self.memory = memory if memory is not None else GuestMemory()
        self.irq_line = irq_line if irq_line is not None else IRQLine("fdc")
        super().__init__(qemu_version=qemu_version, **kwargs)
        layout = self.program.layout
        # Both u8: read after every round by their fixed offsets.
        self._dma_active_at = layout.field("dma_active").offset
        self._dor_at = layout.field("dor").offset

    def handle_io(self, key, args=()):
        result = super().handle_io(key, args)
        data = self.state.data
        if data[self._dma_active_at] and not data[self._dor_at] & 0x04:
            # The controller was reset while a transfer was in flight but
            # the transfer was never cancelled (the vulnerable build's
            # missing code): the host block layer fires the stale
            # completion callback asynchronously — outside any guest I/O
            # round, therefore outside SEDSpec's checking window (the
            # paper's documented miss case).
            self.state.write_field("dma_active", 0)
            self.machine.run_function("on_dma_done", (0,))
        return result

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
            "dma_write", lambda m, addr, v: self.memory.write_byte(addr, v),
            cost=40,
            block=lambda m, addr, data: self.memory.dma_write_bytes(addr,
                                                                   data))
        self.machine.bind_extern(
            "set_irq", lambda m, level: self.irq_line.set_level(level),
            cost=50)

    def reset(self) -> None:
        self.machine.set_funcptr("irq", "on_irq")
        self.machine.set_funcptr("dma_cb", "on_dma_done")
        self.state.write_field("msr", MSR_RQM)
        self.state.write_field("dor", 0x0C)
        self.state.write_field("phase", PHASE_CMD)
