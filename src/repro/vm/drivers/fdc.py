"""Guest-side floppy driver: speaks the FDC port protocol over the VM."""

from __future__ import annotations

from typing import List, Tuple

from repro.devices.fdc import SECTOR_LEN
from repro.errors import GuestError
from repro.vm.machine import GuestVM

PORT_DOR = 2
PORT_MSR = 4
PORT_FIFO = 5
PORT_DMA = 8

#: Guest-physical address of the driver's DMA bounce buffer.
DMA_BUFFER = 0x10000


class FDCDriver:
    """Minimal but protocol-faithful guest floppy driver."""

    def __init__(self, vm: GuestVM, base_port: int = 0x3F0):
        self.vm = vm
        self.base = base_port

    # -- low level -----------------------------------------------------------

    def _out(self, offset: int, value: int) -> None:
        self.vm.outb(self.base + offset, value)

    def _in(self, offset: int) -> int:
        return self.vm.inb(self.base + offset)

    def msr(self) -> int:
        return self._in(PORT_MSR)

    def controller_reset(self) -> None:
        self._out(PORT_DOR, 0x00)
        self._out(PORT_DOR, 0x0C)
        self.sense_interrupt()

    def _command(self, cmd: int, params: List[int]) -> None:
        if not self.msr() & 0x80:
            raise GuestError("FDC not ready for a command")
        self._out(PORT_FIFO, cmd)
        for param in params:
            self._out(PORT_FIFO, param)

    def _results(self, count: int) -> List[int]:
        return [self._in(PORT_FIFO) for _ in range(count)]

    # -- commands ------------------------------------------------------------------

    def sense_interrupt(self) -> Tuple[int, int]:
        self._command(0x08, [])
        st0, track = self._results(2)
        return st0, track

    def recalibrate(self, drive: int = 0) -> None:
        self._command(0x07, [drive])
        self.sense_interrupt()

    def seek(self, track: int, drive: int = 0) -> None:
        self._command(0x0F, [drive, track])
        self.sense_interrupt()

    def specify(self, srt_hut: int = 0xAF, hlt_nd: int = 0x02) -> None:
        self._command(0x03, [srt_hut, hlt_nd])

    def version(self) -> int:
        self._command(0x10, [])
        return self._results(1)[0]

    def dumpreg(self) -> List[int]:
        self._command(0x0E, [])
        return self._results(10)

    def configure(self, a: int = 0, b: int = 0x57, c: int = 0) -> None:
        self._command(0x13, [a, b, c])

    def read_id(self, head: int = 0) -> List[int]:
        self._command(0x4A, [head])
        return self._results(7)

    def format_track(self, track: int, head: int = 0,
                     sectors: int = 18, filler: int = 0xF6) -> List[int]:
        """FORMAT TRACK: lay down *sectors* filled with *filler*."""
        self.seek(track)
        self._command(0x4D, [head, 2, sectors, 0x1B, filler, 0])
        results = self._results(7)
        self.sense_interrupt()
        return results

    # -- sector I/O --------------------------------------------------------------------

    def _chs_params(self, track: int, head: int, sector: int) -> List[int]:
        return [0, track, head, sector, 2, sector, 0x1B, 0xFF]

    def read_sector(self, track: int, head: int, sector: int) -> bytes:
        self.vm.outl(self.base + PORT_DMA, DMA_BUFFER)
        self._command(0x46, self._chs_params(track, head, sector))
        results = self._results(7)
        if results[0] & 0xC0:
            raise GuestError(f"read failed: st0={results[0]:#x}")
        self.sense_interrupt()
        return self.vm.memory.read_block(DMA_BUFFER, SECTOR_LEN)

    def write_sector(self, track: int, head: int, sector: int,
                     data: bytes) -> None:
        if len(data) != SECTOR_LEN:
            raise GuestError(f"sector payload must be {SECTOR_LEN} bytes")
        self.vm.memory.write_block(DMA_BUFFER, data)
        self.vm.outl(self.base + PORT_DMA, DMA_BUFFER)
        self._command(0x45, self._chs_params(track, head, sector))
        results = self._results(7)
        if results[0] & 0xC0:
            raise GuestError(f"write failed: st0={results[0]:#x}")
        self.sense_interrupt()

    # -- convenience for workloads ----------------------------------------------------------

    def write_lba(self, lba: int, data: bytes) -> None:
        track, head, sector = _lba_to_chs(lba)
        self.write_sector(track, head, sector, data)

    def read_lba(self, lba: int) -> bytes:
        track, head, sector = _lba_to_chs(lba)
        return self.read_sector(track, head, sector)


def _lba_to_chs(lba: int) -> Tuple[int, int, int]:
    """1.44MB geometry: 80 tracks, 2 heads, 18 sectors (1-based)."""
    sector = lba % 18 + 1
    head = (lba // 18) % 2
    track = lba // 36
    return track, head, sector
