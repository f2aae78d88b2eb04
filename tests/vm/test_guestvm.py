"""Unit tests for the guest VM substrate and the SEDSpec attachment."""

import random

import pytest

from repro.checker import FieldSyncOracle, Mode, Strategy
from repro.core import deploy
from repro.devices.fdc import FDC
from repro.devices.sdhci import SDHCI
from repro.errors import WorkloadError
from repro.exploits.corpus import trained_spec
from repro.fleet import checkpoint_instance, restore_instance
from repro.fleet.instance import GuardedInstance
from repro.vm import GuestVM, SEDSpecHalt, VMEXIT_COST
from repro.vm.drivers.fdc import FDCDriver
from repro.vm.drivers.sdhci import SDHCIDriver
from repro.workloads import train_device_spec
from repro.workloads.profiles import PROFILES


class TestTopology:
    def test_port_ranges_route_to_devices(self):
        vm = GuestVM()
        fdc = vm.attach_device(FDC(), 0x3F0)
        sd = vm.attach_device(SDHCI(), 0x500)
        assert vm.device_at(0x3F5)[0] is fdc
        assert vm.device_at(0x504)[0] is sd

    def test_port_clash_rejected(self):
        vm = GuestVM()
        vm.attach_device(FDC(), 0x3F0)
        with pytest.raises(WorkloadError, match="clash"):
            vm.attach_device(SDHCI(), 0x3F8)

    def test_unmapped_port_rejected(self):
        vm = GuestVM()
        with pytest.raises(WorkloadError, match="no device"):
            vm.inb(0x999)

    def test_shared_guest_memory(self):
        vm = GuestVM()
        fdc = vm.attach_device(FDC(), 0x3F0)
        assert fdc.memory is vm.memory


def _routed(vm):
    """Replace the VM's I/O demux with a recorder of where each access
    went; no device runs."""
    seen = []

    def spy(device, key, args, attachment, coexec):
        seen.append((device, key, args))
        return 0

    vm._io = spy
    return seen


class TestPortTable:
    """Ports and MMIO addresses resolve once, into a per-VM table of
    (device, attachment, read key, co-executes, write key,
    co-executes) that every topology or attachment change clears."""

    @pytest.mark.parametrize("access", [
        lambda vm: vm.inb(0x999), lambda vm: vm.outb(0x999, 1),
        lambda vm: vm.inl(0x999), lambda vm: vm.outl(0x999, 1),
        lambda vm: vm.mmio_read(0x9000), lambda vm: vm.mmio_write(0x9000, 1),
    ], ids=["inb", "outb", "inl", "outl", "mmio_read", "mmio_write"])
    def test_unmapped_access_raises_every_time(self, access):
        vm = GuestVM()
        vm.attach_device(FDC(), 0x3F0)
        vm.attach_mmio_device(SDHCI(), 0x1000)
        for _ in range(3):
            with pytest.raises(WorkloadError, match="no device"):
                access(vm)

    def test_keys_per_direction_and_width(self):
        vm = GuestVM()
        fdc = vm.attach_device(FDC(), 0x3F0)
        sd = vm.attach_mmio_device(SDHCI(), 0x1000)
        seen = _routed(vm)
        vm.outb(0x3F5, 0x1AB)
        vm.inb(0x3F4)
        vm.outl(0x3F5, 0x1_2345_6789)
        vm.inl(0x3F4)
        vm.mmio_write(0x1008, 0x1_0000_0007)
        vm.mmio_read(0x1008)
        assert seen == [
            (fdc, "pmio:write:5", (0xAB,)), (fdc, "pmio:read:4", ()),
            (fdc, "pmio:write:5", (0x2345_6789,)), (fdc, "pmio:read:4", ()),
            (sd, "mmio:write:8", (7,)), (sd, "mmio:read:8", ())]

    def test_attach_after_traffic_reroutes(self):
        vm = GuestVM()
        old = vm.attach_device(FDC(), 0x3F0)
        seen = _routed(vm)
        vm.inb(0x3F4)
        with pytest.raises(WorkloadError):
            vm.inb(0x504)
        sd = vm.attach_device(SDHCI(), 0x500)
        vm.inb(0x504)
        # A device attached under a name already in use takes over that
        # name's ports, exactly as the range list routes them.
        new = vm.attach_device(FDC(), 0x100)
        vm.inb(0x3F4)
        vm.inb(0x104)
        assert [(d, k) for d, k, _ in seen] == [
            (old, "pmio:read:4"), (sd, "pmio:read:4"),
            (new, "pmio:read:4"), (new, "pmio:read:4")]

    def test_mmio_attach_after_traffic_reroutes(self):
        vm = GuestVM()
        sd = vm.attach_mmio_device(SDHCI(), 0x1000)
        seen = _routed(vm)
        vm.mmio_read(0x1004)
        with pytest.raises(WorkloadError):
            vm.mmio_read(0x2004)
        fdc = vm.attach_mmio_device(FDC(), 0x2000)
        vm.mmio_read(0x2004)
        vm.mmio_read(0x1004)
        assert [(d, k) for d, k, _ in seen] == [
            (sd, "mmio:read:4"), (fdc, "mmio:read:4"),
            (sd, "mmio:read:4")]

    def test_entry_carries_the_attachment_and_disciplines(self,
                                                         sdhci_spec):
        vm = GuestVM()
        device = vm.attach_device(SDHCI(), 0x500)
        vm.inb(0x504)
        assert vm._pmio[0x504] == (device, None, "pmio:read:4", False,
                                   "pmio:write:4", False)
        attachment = deploy(vm, device, sdhci_spec)
        vm.inb(0x504)
        assert vm._pmio[0x504] == (device, attachment, "pmio:read:4", True,
                                   "pmio:write:4", False)

    def test_attach_after_traffic_takes_the_next_round(self, sdhci_spec):
        vm = GuestVM()
        device = vm.attach_device(SDHCI(), 0x500)
        driver = SDHCIDriver(vm)
        driver.reset_card()
        assert vm.stats.checker_cycles == 0
        first = deploy(vm, device, sdhci_spec)
        driver.reset_card()
        checked = first.checked_rounds
        assert checked > 0
        # A redeploy (GuardedInstance.reload_spec) replaces the
        # attachment: the next rounds are vetted by the new checker.
        second = deploy(vm, device, sdhci_spec)
        driver.reset_card()
        assert first.checked_rounds == checked
        assert second.checked_rounds == checked

    def test_detach_takes_the_next_round(self, sdhci_spec):
        vm = GuestVM()
        device = vm.attach_device(SDHCI(), 0x500)
        attachment = deploy(vm, device, sdhci_spec)
        driver = SDHCIDriver(vm)
        driver.reset_card()
        checked, cycles = attachment.checked_rounds, vm.stats.checker_cycles
        assert vm.detach_sedspec("sdhci") is attachment
        driver.reset_card()
        assert attachment.checked_rounds == checked
        assert vm.stats.checker_cycles == cycles
        vm.reattach_sedspec(attachment)
        driver.reset_card()
        assert attachment.checked_rounds == 2 * checked
        assert vm.detach_sedspec("sdhci") is attachment
        assert vm.detach_sedspec("sdhci") is None


class TestCoexecSyncFields:
    """A co-executed round reads the spec's ``field:`` sync names
    before the device runs, and copies nothing else of the device."""

    def test_pcnet_round_takes_no_device_snapshot(self):
        prof = PROFILES["pcnet"]
        vm, device = prof.make_vm()
        attachment = deploy(vm, device, trained_spec("pcnet"))
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        assert attachment.sync_fields == ()

        def refuse():
            raise AssertionError("a co-executed round copied the device")

        device.snapshot = refuse
        coexec = []
        co_execute = vm._co_execute

        def counted(attachment, dev, key, args):
            coexec.append(key)
            return co_execute(attachment, dev, key, args)

        vm._co_execute = counted
        driver.send_frame(bytes(range(120)))
        assert coexec
        assert not attachment.warnings and not attachment.halts

    def test_field_changed_mid_round_reads_its_pre_round_value(self):
        prof = PROFILES["virtio-net"]
        vm, device = prof.make_vm()
        attachment = deploy(vm, device, trained_spec("virtio-net"),
                            mode=Mode.PROTECTION)
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        assert attachment.sync_fields == ("field:q1_base", "field:q1_size")
        state = device.state
        handle_io, check_io = device.handle_io, attachment.checker.check_io
        pre_round, resolved = [], []

        def changing(key, args=()):
            before = state.read_field("q1_size")
            try:
                return handle_io(key, args)
            finally:
                if device.machine.harvest is not None:
                    # The device changes the sync field mid-round.
                    pre_round.append(before)
                    state.write_field("q1_size", before + 7)

        def checked(key, args=(), oracle=None, report_clean=True):
            if attachment.sync_keys.get(key):
                resolved.append(oracle.resolve("field:q1_size"))
            try:
                return check_io(key, args, oracle=oracle,
                                report_clean=report_clean)
            finally:
                if attachment.sync_keys.get(key):
                    state.write_field("q1_size", pre_round[-1])

        device.handle_io = changing
        attachment.checker.check_io = checked
        rng = random.Random(3)
        for op in prof.common_ops:
            op(vm, driver, rng)
        assert resolved and resolved == pre_round
        assert not attachment.warnings and not attachment.halts


class TestAccounting:
    def test_every_io_pays_vmexit(self):
        vm = GuestVM()
        vm.attach_device(FDC(), 0x3F0)
        driver = FDCDriver(vm)
        driver.msr()
        driver.msr()
        assert vm.stats.io_rounds == 2
        assert vm.stats.vmexit_cycles == 2 * VMEXIT_COST

    def test_device_cycles_accrue(self):
        vm = GuestVM()
        vm.attach_device(FDC(), 0x3F0)
        FDCDriver(vm).controller_reset()
        assert vm.stats.device_cycles > 0
        assert vm.stats.checker_cycles == 0     # nothing attached

    def test_stats_delta(self):
        vm = GuestVM()
        vm.attach_device(FDC(), 0x3F0)
        driver = FDCDriver(vm)
        driver.msr()
        snap = vm.stats.snapshot()
        driver.msr()
        delta = vm.stats.delta(snap)
        assert delta.io_rounds == 1
        assert delta.vmexit_cycles == VMEXIT_COST


@pytest.fixture(scope="module")
def sdhci_spec():
    return train_device_spec("sdhci").spec


class TestAttachment:
    def test_checker_cycles_accrue_when_attached(self, sdhci_spec):
        vm = GuestVM()
        vm.attach_device(SDHCI(), 0x500)
        deploy(vm, vm.devices["sdhci"], sdhci_spec)
        driver = SDHCIDriver(vm)
        driver.reset_card()
        driver.write_blocks(1, bytes(512))
        assert vm.stats.checker_cycles > 0

    def test_checker_cheaper_than_device(self, sdhci_spec):
        vm = GuestVM()
        vm.attach_device(SDHCI(), 0x500)
        deploy(vm, vm.devices["sdhci"], sdhci_spec)
        driver = SDHCIDriver(vm)
        driver.reset_card()
        driver.write_blocks(1, bytes(1024))
        assert vm.stats.checker_cycles < vm.stats.device_cycles

    def test_detach_stops_checking(self, sdhci_spec):
        vm = GuestVM()
        vm.attach_device(SDHCI(), 0x500)
        deploy(vm, vm.devices["sdhci"], sdhci_spec)
        vm.detach_sedspec("sdhci")
        before = vm.stats.checker_cycles
        SDHCIDriver(vm).reset_card()
        assert vm.stats.checker_cycles == before

    def test_sync_keys_computed(self, sdhci_spec):
        vm = GuestVM()
        vm.attach_device(SDHCI(), 0x500)
        attachment = deploy(vm, vm.devices["sdhci"], sdhci_spec)
        # The read path stages media bytes into the control structure:
        # it must be a co-execution key; plain register writes must not.
        assert attachment.sync_keys["pmio:read:4"] is True
        assert attachment.sync_keys["pmio:write:0"] is False

    def test_protection_halt_raises(self, sdhci_spec):
        vm = GuestVM()
        vm.attach_device(SDHCI(), 0x500)
        deploy(vm, vm.devices["sdhci"], sdhci_spec,
               mode=Mode.PROTECTION)
        with pytest.raises(SEDSpecHalt):
            # CMD_APP was never trained: unknown command.
            vm.outb(0x503, 55)
        assert vm.halt_count("sdhci") == 1

    def test_enhancement_warns_and_continues(self, sdhci_spec):
        vm = GuestVM()
        vm.attach_device(SDHCI(), 0x500)
        deploy(vm, vm.devices["sdhci"], sdhci_spec,
               mode=Mode.ENHANCEMENT)
        vm.outb(0x503, 55)          # rare command: warn, not halt
        assert vm.warning_count("sdhci") == 1
        assert vm.halt_count("sdhci") == 0

    def test_benign_traffic_unflagged(self, sdhci_spec):
        vm = GuestVM()
        vm.attach_device(SDHCI(), 0x500)
        deploy(vm, vm.devices["sdhci"], sdhci_spec,
               mode=Mode.PROTECTION)
        driver = SDHCIDriver(vm)
        driver.reset_card()
        data = bytes(range(256)) * 4
        driver.write_blocks(3, data)
        assert driver.read_blocks(3, 2) == data
        assert vm.warning_count("sdhci") == 0


class TestAttachmentOracle:
    """One field oracle per attachment, over the live device state."""

    def test_strict_rounds_share_the_attachment_oracle(self, sdhci_spec):
        vm = GuestVM()
        device = vm.attach_device(SDHCI(), 0x500)
        attachment = deploy(vm, device, sdhci_spec)
        check_io = attachment.checker.check_io
        oracles = []

        def spy(key, args=(), oracle=None, report_clean=True):
            oracles.append(oracle)
            return check_io(key, args, oracle=oracle,
                            report_clean=report_clean)

        attachment.checker.check_io = spy
        driver = SDHCIDriver(vm)
        driver.reset_card()
        driver.write_blocks(1, bytes(512))
        strict = [o for o in oracles if isinstance(o, FieldSyncOracle)]
        assert strict
        assert all(o is attachment.oracle for o in strict)

    def test_reads_live_state_after_checkpoint_restore(self):
        spec = trained_spec("fdc")
        instance = GuardedInstance("t0", "fdc", "99.0.0", spec,
                                   mode=Mode.PROTECTION)
        state = instance.device.state
        oracle = instance.attachment.oracle
        fields = list(state.dump_fields())

        def resolved(oracle):
            return {name: oracle.resolve(f"field:{name}")
                    for name in fields}

        prepared = state.dump_fields()
        assert resolved(oracle) == prepared     # warms the cache
        powered_on = FDC().state                # before bring-up
        assert powered_on.dump_fields() != prepared
        # Restored in place: the warm oracle reads the new bytes.
        state.restore(powered_on)
        assert resolved(oracle) == powered_on.dump_fields()
        # Restored into a fresh instance: its oracle, built when the
        # checker was deployed, reads the state overlaid after that.
        twin = restore_instance(checkpoint_instance(instance), spec)
        assert twin.device.state is not state
        assert resolved(twin.attachment.oracle) == powered_on.dump_fields()
