"""Host-side backends devices talk to through externs.

These play the role of QEMU's block layer, net layer, and IRQ
infrastructure: guest-visible behaviour flows through the device models;
the backends just store bytes and count events.

Backing stores are **sparse**: a :class:`DiskImage` or
:class:`GuestMemory` allocates fixed-size chunks on first write and
answers zeros everywhere else — exactly the observable behaviour the old
dense ``bytearray`` gave (zero-filled at construction), at a fraction of
the footprint.  That is what makes four-digit tenant fleets feasible: a
guarded instance that touches a few sectors of a 32 MB SCSI disk costs
kilobytes, not megabytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import WorkloadError

SECTOR_SIZE = 512

_CHUNK_BITS = 16
_CHUNK_SIZE = 1 << _CHUNK_BITS          # 64 KiB allocation granule
_CHUNK_MASK = _CHUNK_SIZE - 1


class _SparseBytes:
    """Chunked, zero-default byte store shared by the two backends."""

    __slots__ = ("size", "_chunks")

    def __init__(self, size: int):
        self.size = size
        self._chunks: Dict[int, bytearray] = {}

    def get(self, offset: int) -> int:
        chunk = self._chunks.get(offset >> _CHUNK_BITS)
        if chunk is None:
            return 0
        return chunk[offset & _CHUNK_MASK]

    def set(self, offset: int, value: int) -> None:
        index = offset >> _CHUNK_BITS
        chunk = self._chunks.get(index)
        if chunk is None:
            chunk = self._chunks[index] = bytearray(_CHUNK_SIZE)
        chunk[offset & _CHUNK_MASK] = value

    def write_range(self, offset: int, payload: bytes) -> None:
        """Chunk-spanning write, clamped to ``[0, size)``."""
        if offset < 0:
            payload = payload[-offset:]
            offset = 0
        end = min(offset + len(payload), self.size)
        pos = offset
        while pos < end:
            index = pos >> _CHUNK_BITS
            start = pos & _CHUNK_MASK
            take = min(_CHUNK_SIZE - start, end - pos)
            chunk = self._chunks.get(index)
            if chunk is None:
                chunk = self._chunks[index] = bytearray(_CHUNK_SIZE)
            chunk[start:start + take] = payload[pos - offset:
                                                pos - offset + take]
            pos += take

    def window(self, offset: int, length: int) -> bytes:
        """Exactly *length* bytes from *offset*: what *length* per-byte
        reads give, zeros wherever the window leaves ``[0, size)`` or
        the allocated chunks."""
        lo, hi = max(offset, 0), min(offset + length, self.size)
        if lo >= hi:
            return bytes(max(0, length))
        parts: List[bytes] = [bytes(lo - offset)]
        pos = lo
        while pos < hi:
            start = pos & _CHUNK_MASK
            take = min(_CHUNK_SIZE - start, hi - pos)
            chunk = self._chunks.get(pos >> _CHUNK_BITS)
            parts.append(bytes(take) if chunk is None
                         else bytes(chunk[start:start + take]))
            pos += take
        parts.append(bytes(offset + length - hi))
        return b"".join(parts)

    @property
    def allocated_bytes(self) -> int:
        return len(self._chunks) * _CHUNK_SIZE


class DiskImage:
    """Byte-addressable backing store (the block layer), sparse."""

    def __init__(self, size: int):
        if size <= 0:
            raise WorkloadError("disk size must be positive")
        self.size = size
        self._store = _SparseBytes(size)
        self.reads = 0
        self.writes = 0

    @property
    def allocated_bytes(self) -> int:
        """Host memory actually committed to this image."""
        return self._store.allocated_bytes

    def read_byte(self, offset: int) -> int:
        self.reads += 1
        if 0 <= offset < self.size:
            return self._store.get(offset)
        return 0    # reads off the end return zeros, like a sparse image

    def write_byte(self, offset: int, value: int) -> None:
        self.writes += 1
        if 0 <= offset < self.size:
            self._store.set(offset, value & 0xFF)

    def read_bytes(self, offset: int, n: int) -> bytes:
        """Block twin of *n* :meth:`read_byte` calls from *offset*."""
        self.reads += n
        return self._store.window(offset, n)

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Block twin of :meth:`write_byte` over consecutive offsets
        (*data* holds byte values)."""
        self.writes += len(data)
        self._store.write_range(offset, data)

    #: whole-block access for tools and tests: the twins, which count
    #: like the per-byte calls
    read_block = read_bytes
    write_block = write_bytes


class GuestMemory:
    """Guest physical memory, accessed by devices via DMA externs."""

    def __init__(self, size: int = 1 << 20):
        self.size = size
        self._store = _SparseBytes(size)
        self.dma_reads = 0
        self.dma_writes = 0

    @property
    def allocated_bytes(self) -> int:
        """Host memory actually committed for this guest."""
        return self._store.allocated_bytes

    def read_byte(self, addr: int) -> int:
        self.dma_reads += 1
        if 0 <= addr < self.size:
            return self._store.get(addr)
        return 0

    def write_byte(self, addr: int, value: int) -> None:
        self.dma_writes += 1
        if 0 <= addr < self.size:
            self._store.set(addr, value & 0xFF)

    def dma_read_bytes(self, addr: int, n: int) -> bytes:
        """Block twin of *n* :meth:`read_byte` calls from *addr*."""
        self.dma_reads += n
        return self._store.window(addr, n)

    def dma_write_bytes(self, addr: int, data: bytes) -> None:
        """Block twin of :meth:`write_byte` over consecutive addresses
        (*data* holds byte values)."""
        self.dma_writes += len(data)
        self._store.write_range(addr, data)

    def write_block(self, addr: int, payload: bytes) -> None:
        self._store.write_range(addr, bytes(payload))

    def read_block(self, addr: int, length: int) -> bytes:
        """*length* bytes from *addr*, as per-byte reads give them, but
        uncounted: a tool and driver accessor, not device DMA."""
        return self._store.window(addr, length)


class IRQLine:
    """One interrupt line with edge counting (guest-visible via the VM)."""

    def __init__(self, name: str = "irq"):
        self.name = name
        self.level = 0
        self.raise_count = 0

    def set_level(self, level: int) -> None:
        if level:
            self.raise_count += 1
        self.level = 1 if level else 0


@dataclass
class NetFrame:
    payload: bytes
    timestamp: int = 0


class NetBackend:
    """User-mode-networking stand-in: queues in both directions."""

    def __init__(self) -> None:
        self.rx_queue: Deque[NetFrame] = deque()   # host -> guest
        self.tx_frames: List[NetFrame] = []        # guest -> host
        self.tx_bytes = 0
        self.rx_bytes = 0

    def inject(self, payload: bytes) -> None:
        """Host side delivers a frame toward the guest."""
        self.rx_queue.append(NetFrame(bytes(payload)))

    def pop_rx(self) -> Optional[NetFrame]:
        if self.rx_queue:
            frame = self.rx_queue.popleft()
            self.rx_bytes += len(frame.payload)
            return frame
        return None

    def transmit(self, payload: bytes) -> None:
        self.tx_frames.append(NetFrame(bytes(payload)))
        self.tx_bytes += len(payload)


class NetStaging:
    """A NIC model's side of the net layer: the three net externs and
    their block twins, shared by the pcnet and virtio-net models.  A
    transmitted frame is staged byte by byte until ``net_tx_done``
    hands its first *length* bytes to the backend; a received frame,
    staged by the host, is read by index (zeros past its end)."""

    __slots__ = ("net", "tx", "rx_frame")

    def __init__(self, net: NetBackend):
        self.net = net
        self.tx: List[int] = []
        self.rx_frame = b""

    def bind(self, machine) -> None:
        machine.bind_extern("net_tx_byte", self.tx_byte, cost=20,
                            block=self.tx_bytes)
        machine.bind_extern("net_tx_done", self.tx_done, cost=60)
        machine.bind_extern("net_rx_byte", self.rx_byte, cost=20,
                            block=self.rx_bytes)

    def tx_byte(self, machine, byte: int) -> None:
        self.tx.append(byte & 0xFF)

    def tx_bytes(self, machine, data: bytes) -> None:
        """Block twin of :meth:`tx_byte` (*data* holds byte values)."""
        self.tx.extend(data)

    def tx_done(self, machine, length: int) -> None:
        self.net.transmit(bytes(self.tx[:length]))
        self.tx.clear()

    def rx_byte(self, machine, index: int) -> int:
        if 0 <= index < len(self.rx_frame):
            return self.rx_frame[index]
        return 0

    def rx_bytes(self, machine, start: int, n: int) -> bytes:
        """Block twin of *n* :meth:`rx_byte` calls from *start*."""
        frame = self.rx_frame
        lo, hi = max(start, 0), min(start + n, len(frame))
        if lo >= hi:
            return bytes(max(0, n))
        return bytes(lo - start) + frame[lo:hi] + bytes(start + n - hi)
