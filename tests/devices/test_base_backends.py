"""Unit tests for the device framework and host backends."""

import pytest
from hypothesis import given, strategies as st

from repro.devices import (
    DiskImage, GuestMemory, IRQLine, NetBackend, create_device,
    device_names, version_lt,
)
from repro.devices.base import CveGate
from repro.devices.fdc import FDC
from repro.devices.pcnet import PCNet
from repro.devices.virtio import VirtioNet
from repro.errors import DeviceFault, WorkloadError


class TestVersions:
    def test_version_lt(self):
        assert version_lt("2.3.0", "2.4.0")
        assert version_lt("2.4.0", "2.4.1")
        assert not version_lt("2.4.0", "2.4.0")
        assert version_lt("2.9.0", "2.10.0")   # numeric, not lexical

    def test_bad_version_rejected(self):
        with pytest.raises(WorkloadError):
            version_lt("2.x", "2.4.0")

    def test_cve_gate(self):
        gate = CveGate("CVE-X", "VULN_X", "2.5.0")
        assert gate.active_in("2.4.0")
        assert not gate.active_in("2.5.0")
        assert not gate.active_in("3.0.0")


class TestDeviceLifecycle:
    def test_registry_lists_devices(self):
        assert "fdc" in device_names()

    def test_unknown_device_rejected(self):
        with pytest.raises(WorkloadError, match="unknown device"):
            create_device("gpu")

    def test_fault_latches_device(self):
        fdc = FDC(qemu_version="2.3.0")
        fdc.handle_io("pmio:write:5", (0x4A,))      # READ_ID
        fdc.handle_io("pmio:write:5", (0x80,))      # invalid head
        with pytest.raises(DeviceFault):
            for i in range(4000):
                fdc.handle_io("pmio:write:5", (0x41,))
        assert fdc.halted
        with pytest.raises(DeviceFault, match="halted"):
            fdc.handle_io("pmio:read:4", ())

    def test_io_keys(self):
        assert "pmio:write:5" in FDC().io_keys()


class TestDiskImage:
    def test_roundtrip(self):
        disk = DiskImage(4096)
        disk.write_block(100, b"hello")
        assert disk.read_block(100, 5) == b"hello"

    def test_out_of_range_reads_zero(self):
        disk = DiskImage(64)
        assert disk.read_byte(1000) == 0

    def test_out_of_range_write_ignored(self):
        disk = DiskImage(64)
        disk.write_byte(1000, 7)    # like writing past a sparse image
        assert disk.read_byte(1000) == 0

    def test_counters(self):
        disk = DiskImage(64)
        disk.write_byte(0, 1)
        disk.read_byte(0)
        assert disk.writes == 1 and disk.reads == 1

    def test_zero_size_rejected(self):
        with pytest.raises(WorkloadError):
            DiskImage(0)

    @given(st.integers(0, 63), st.integers(0, 255))
    def test_byte_roundtrip(self, offset, value):
        disk = DiskImage(64)
        disk.write_byte(offset, value)
        assert disk.read_byte(offset) == value


class TestGuestMemory:
    def test_block_roundtrip(self):
        memory = GuestMemory(1024)
        memory.write_block(10, b"abc")
        assert memory.read_block(10, 3) == b"abc"

    def test_dma_counters(self):
        memory = GuestMemory(64)
        memory.write_byte(0, 1)
        memory.read_byte(0)
        assert memory.dma_writes == 1 and memory.dma_reads == 1

    def test_out_of_range_safe(self):
        memory = GuestMemory(64)
        memory.write_byte(9999, 1)
        assert memory.read_byte(9999) == 0

    @pytest.mark.parametrize("addr, n", [(-2, 5), (-10, 3), (60, 8),
                                         (70, 3), (0, 64)])
    def test_read_block_equals_per_byte_reads(self, addr, n):
        """read_block gives exactly *n* bytes, zeros off the store,
        and counts no DMA read."""
        memory = GuestMemory(64)
        memory.write_block(0, bytes(range(1, 9)))
        memory.write_block(56, bytes(range(9, 17)))
        got = memory.read_block(addr, n)
        assert memory.dma_reads == 0
        assert got == bytes(memory.read_byte(addr + k) for k in range(n))
        if addr == -2:
            assert got == b"\x00\x00\x01\x02\x03"


class TestSparseBacking:
    """Backing stores allocate 64 KiB chunks on first write, so a fleet
    of thousands of idle instances stays small."""

    def test_fresh_stores_allocate_nothing(self):
        assert DiskImage(1 << 30).allocated_bytes == 0
        assert GuestMemory(1 << 30).allocated_bytes == 0

    def test_one_write_allocates_one_chunk(self):
        disk = DiskImage(1 << 30)
        disk.write_byte((1 << 30) - 1, 0xAB)
        assert disk.allocated_bytes == 1 << 16
        assert disk.read_byte((1 << 30) - 1) == 0xAB

    def test_unallocated_regions_read_zero(self):
        memory = GuestMemory(1 << 24)
        memory.write_byte(0, 1)
        assert memory.read_block(1 << 20, 8) == b"\x00" * 8
        assert memory.allocated_bytes == 1 << 16

    def test_chunk_spanning_block_roundtrip(self):
        memory = GuestMemory(1 << 20)
        payload = bytes(range(256)) * 8
        offset = (1 << 16) - 1024          # straddles chunks 0 and 1
        memory.write_block(offset, payload)
        assert memory.read_block(offset, len(payload)) == payload
        assert memory.allocated_bytes == 2 << 16

    def test_write_block_clamps_at_the_boundary(self):
        disk = DiskImage(64)
        disk.write_block(60, b"abcdefgh")   # only 4 bytes fit
        assert disk.read_block(60, 4) == b"abcd"
        assert disk.read_block(64, 4) == b"\x00" * 4

    @given(st.lists(st.tuples(st.integers(0, 300_000),
                              st.binary(min_size=1, max_size=64)),
                    max_size=20))
    def test_sparse_matches_a_dense_reference(self, writes):
        size = 200_000                      # spans several chunks
        memory = GuestMemory(size)
        dense = bytearray(size)
        for offset, payload in writes:
            memory.write_block(offset, payload)
            fit = payload[:max(0, size - offset)]
            dense[offset:offset + len(fit)] = fit
        for offset, payload in writes:
            # read_block reads zeros past size, like per-byte reads
            n = len(payload) + 8
            assert memory.read_block(offset, n) \
                == bytes(dense[offset:offset + n]).ljust(n, b"\x00")


class TestIRQAndNet:
    def test_irq_counts_raises(self):
        line = IRQLine()
        line.set_level(1)
        line.set_level(1)
        line.set_level(0)
        assert line.raise_count == 2
        assert line.level == 0

    def test_net_backend_queues(self):
        net = NetBackend()
        net.inject(b"abc")
        frame = net.pop_rx()
        assert frame.payload == b"abc"
        assert net.pop_rx() is None
        assert net.rx_bytes == 3

    def test_net_transmit(self):
        net = NetBackend()
        net.transmit(b"xyzw")
        assert net.tx_bytes == 4
        assert net.tx_frames[0].payload == b"xyzw"


class TestBlockTwins:
    """Each block twin equals *n* per-byte calls: the values returned,
    the store contents (allocated chunks included) and the counters."""

    SIZE = 3 * (1 << 16) + 100          # three chunks and a tail

    STARTS = {
        "empty-at-zero": (0, 0),
        "empty-past-end": (SIZE + 5, 0),
        "in-range": (100, 512),
        "chunk-boundary": ((1 << 16) - 200, 512),
        "store-end": (SIZE - 300, 512),
        "ends-at-end": (SIZE - 512, 512),
        "negative": (-200, 512),
        "all-negative": (-1000, 300),
        "past-end": (SIZE + 10, 300),
        "spans-everything": (-5, SIZE + 10),
    }

    @staticmethod
    def _seeded(cls):
        store = cls(TestBlockTwins.SIZE)
        for lo in (0, (1 << 16) - 300, TestBlockTwins.SIZE - 700):
            store.write_block(lo, bytes((lo + k) * 7 & 0xFF
                                        for k in range(600)))
        return store

    @staticmethod
    def _state(store, reads, writes):
        chunks = store._store._chunks
        return ({i: bytes(chunks[i]) for i in chunks},
                getattr(store, reads), getattr(store, writes))

    @pytest.mark.parametrize("start, n", STARTS.values(), ids=STARTS)
    @pytest.mark.parametrize("cls, read, write, counters", [
        (DiskImage, "read_bytes", "write_bytes", ("reads", "writes")),
        (GuestMemory, "dma_read_bytes", "dma_write_bytes",
         ("dma_reads", "dma_writes")),
    ], ids=["disk", "memory"])
    def test_twin_equals_per_byte_calls(self, cls, read, write, counters,
                                        start, n):
        block, scalar = self._seeded(cls), self._seeded(cls)
        got = getattr(block, read)(start, n)
        assert isinstance(got, bytes)
        assert got == bytes(scalar.read_byte(start + k) for k in range(n))
        assert self._state(block, *counters) \
            == self._state(scalar, *counters)
        payload = bytes((k * 13 + 1) & 0xFF for k in range(n))
        getattr(block, write)(start, payload)
        for k, value in enumerate(payload):
            scalar.write_byte(start + k, value)
        assert self._state(block, *counters) \
            == self._state(scalar, *counters)

    @pytest.mark.parametrize("cls", [PCNet, VirtioNet],
                             ids=["pcnet", "virtio-net"])
    def test_net_twins_equal_per_byte_calls(self, cls):
        block, scalar = cls(), cls()
        frame = bytes(range(200))
        for device in (block, scalar):
            device.stage_rx_frame(frame)
        block, scalar = block.staging, scalar.staging
        for start, n in ((0, 0), (0, 200), (150, 100), (-20, 50),
                         (500, 10)):
            assert block.rx_bytes(None, start, n) == bytes(
                scalar.rx_byte(None, start + k) for k in range(n))
        data = bytes(range(40, 140))
        block.tx_bytes(None, data)
        for value in data:
            scalar.tx_byte(None, value)
        block.tx_bytes(None, b"")
        assert block.tx == scalar.tx
        block.tx_done(None, 60)
        scalar.tx_done(None, 60)
        assert [f.payload for f in block.net.tx_frames] \
            == [f.payload for f in scalar.net.tx_frames]
