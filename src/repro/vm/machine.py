"""Guest VM substrate: the KVM/QEMU dispatch loop analogue.

A :class:`GuestVM` owns guest memory, an IRQ controller, the attached
devices (each at a PMIO base port), and — when SEDSpec is deployed — the
per-device ES-Checker proxies that vet every I/O round *before* the device
executes it.

The cycle accounting implements the performance model: every guest I/O
pays a fixed exit/dispatch cost (the KVM exit, QEMU's I/O demux), then the
device's interpreted work, then SEDSpec's checking work if attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.checker import (
    ALL_STRATEGIES, DEFAULT_BACKEND, Action, CheckReport, ESChecker,
    FieldSyncOracle, Mode, QueueSyncOracle, Strategy,
)
from repro.devices.backends import GuestMemory, IRQLine
from repro.devices.base import Device
from repro.errors import DeviceFault, ReproError, WorkloadError
from repro.spec import ExecutionSpec
from repro.spec.builder import handler_needs_sync

#: Fixed cost of one guest I/O exit (KVM vmexit + QEMU dispatch + re-entry).
VMEXIT_COST = 300


class SEDSpecHalt(ReproError):
    """SEDSpec halted the device/VM (protection semantics)."""

    def __init__(self, report: CheckReport):
        self.report = report
        anomaly = report.first_anomaly()
        super().__init__(f"SEDSpec halted execution: {anomaly}")


@dataclass
class Attachment:
    """One deployed ES-Checker guarding one device.

    Two checking disciplines per I/O key (paper §V-D):

    * *strict* — no sync points reachable: the checker fully simulates the
      round before the device touches the request;
    * *co-execution* — the walk needs extern-call results (DMA payloads,
      media bytes): the device executes first, harvesting them, and the
      checker validates immediately after, halting the VM post-hoc if
      violated.  This is the paper's interleaved sync-point scheme.
    """

    checker: ESChecker
    device: Device
    #: io_key -> True when co-execution is required
    sync_keys: Dict[str, bool] = field(default_factory=dict)
    warnings: List[CheckReport] = field(default_factory=list)
    halts: List[CheckReport] = field(default_factory=list)
    checked_rounds: int = 0
    #: credit-batch discipline: defer strict-key rounds and vet up to
    #: this many in one batched checker invocation (0 = per-round)
    batch_rounds: int = 0
    #: credited rounds awaiting the next flush
    pending: List[Tuple[str, Tuple[int, ...]]] = field(default_factory=list)
    #: batched checker invocations performed
    batch_flushes: int = 0
    #: resolves ``field:NAME`` sync points from the live device state;
    #: one per attachment, so its resolution cache outlives the round
    oracle: FieldSyncOracle = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.oracle = FieldSyncOracle(self.device.state)


@dataclass
class IOStats:
    """VM-level accounting for the performance benchmarks."""

    io_rounds: int = 0
    vmexit_cycles: int = 0
    device_cycles: int = 0
    checker_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.vmexit_cycles + self.device_cycles + self.checker_cycles

    def snapshot(self) -> "IOStats":
        return IOStats(self.io_rounds, self.vmexit_cycles,
                       self.device_cycles, self.checker_cycles)

    def delta(self, earlier: "IOStats") -> "IOStats":
        return IOStats(self.io_rounds - earlier.io_rounds,
                       self.vmexit_cycles - earlier.vmexit_cycles,
                       self.device_cycles - earlier.device_cycles,
                       self.checker_cycles - earlier.checker_cycles)


class GuestVM:
    """A guest machine with PMIO-attached emulated devices."""

    def __init__(self, memory: Optional[GuestMemory] = None):
        self.memory = memory if memory is not None else GuestMemory()
        self.devices: Dict[str, Device] = {}
        self._port_ranges: List[Tuple[int, int, str]] = []
        self._mmio_ranges: List[Tuple[int, int, str]] = []
        # port / MMIO address -> (device, read key, write key), filled
        # on first use and cleared whenever the topology changes
        self._pmio: Dict[int, Tuple[Device, str, str]] = {}
        self._mmio: Dict[int, Tuple[Device, str, str]] = {}
        self.attachments: Dict[str, Attachment] = {}
        self.stats = IOStats()

    # -- topology ------------------------------------------------------------

    def attach_device(self, device: Device, base_port: int,
                      span: int = 16) -> Device:
        """Attach a PMIO device at *base_port*."""
        for lo, hi, name in self._port_ranges:
            if base_port < hi and base_port + span > lo:
                raise WorkloadError(
                    f"port range clash with {name} at {lo:#x}")
        self.devices[device.NAME] = device
        self._port_ranges.append((base_port, base_port + span,
                                  device.NAME))
        self._pmio.clear()
        self._mmio.clear()
        if hasattr(device, "memory"):
            # DMA-capable devices address *this* guest's physical memory.
            device.memory = self.memory
        return device

    def attach_mmio_device(self, device: Device, base_addr: int,
                           span: int = 0x100) -> Device:
        """Attach a device through a memory-mapped register window."""
        for lo, hi, name in self._mmio_ranges:
            if base_addr < hi and base_addr + span > lo:
                raise WorkloadError(
                    f"MMIO range clash with {name} at {lo:#x}")
        self.devices[device.NAME] = device
        self._mmio_ranges.append((base_addr, base_addr + span,
                                  device.NAME))
        self._pmio.clear()
        self._mmio.clear()
        if hasattr(device, "memory"):
            device.memory = self.memory
        return device

    def mmio_device_at(self, addr: int) -> Tuple[Device, int]:
        for lo, hi, name in self._mmio_ranges:
            if lo <= addr < hi:
                return self.devices[name], addr - lo
        raise WorkloadError(f"no device mapped at {addr:#x}")

    def device_at(self, port: int) -> Tuple[Device, int]:
        for lo, hi, name in self._port_ranges:
            if lo <= port < hi:
                return self.devices[name], port - lo
        raise WorkloadError(f"no device at port {port:#x}")

    def _map_port(self, port: int) -> Tuple[Device, str, str]:
        """Resolve *port* once into the port table (an unmapped port
        raises every time: nothing is cached for it)."""
        device, offset = self.device_at(port)
        entry = self._pmio[port] = (device, f"pmio:read:{offset}",
                                    f"pmio:write:{offset}")
        return entry

    def _map_mmio(self, addr: int) -> Tuple[Device, str, str]:
        """:meth:`_map_port` for a memory-mapped register address."""
        device, offset = self.mmio_device_at(addr)
        entry = self._mmio[addr] = (device, f"mmio:read:{offset}",
                                    f"mmio:write:{offset}")
        return entry

    def attach_sedspec(self, device_name: str, spec: ExecutionSpec,
                       mode: Mode = Mode.ENHANCEMENT,
                       strategies=ALL_STRATEGIES,
                       backend: str = DEFAULT_BACKEND,
                       recorder=None,
                       batch_rounds: int = 0) -> Attachment:
        """Deploy an execution specification in front of a device.

        *recorder* (a :class:`repro.telemetry.Recorder`) opts the
        checker into telemetry; the default ``None`` keeps the hot path
        observation-free.  ``batch_rounds > 0`` opts the attachment into
        the credit-batch discipline: strict-key rounds execute on credit
        and are vetted in batches of up to *batch_rounds* through
        :meth:`ESChecker.check_batch` (flushed before any sync-key
        round, on a device fault, and at every op boundary)."""
        device = self.devices[device_name]
        checker = ESChecker(spec, mode=mode, strategies=strategies,
                            backend=backend, recorder=recorder)
        checker.boot_sync(device.state)
        sync_keys = {key: handler_needs_sync(spec, key)
                     for key in spec.entry_handlers}
        attachment = Attachment(checker=checker, device=device,
                                sync_keys=sync_keys,
                                batch_rounds=batch_rounds)
        self.attachments[device_name] = attachment
        return attachment

    def detach_sedspec(self, device_name: str) -> None:
        self.attachments.pop(device_name, None)

    # -- the I/O path --------------------------------------------------------------

    def outb(self, port: int, value: int) -> None:
        device, _, key = self._pmio.get(port) or self._map_port(port)
        self._io(device, key, (value & 0xFF,))

    def inb(self, port: int) -> int:
        device, key, _ = self._pmio.get(port) or self._map_port(port)
        result = self._io(device, key, ())
        return (result or 0) & 0xFF

    def outl(self, port: int, value: int) -> None:
        """32-bit port write (DMA address setup and the like)."""
        device, _, key = self._pmio.get(port) or self._map_port(port)
        self._io(device, key, (value & 0xFFFFFFFF,))

    def inl(self, port: int) -> int:
        """32-bit port read (wide status/CSR values)."""
        device, key, _ = self._pmio.get(port) or self._map_port(port)
        result = self._io(device, key, ())
        return (result or 0) & 0xFFFFFFFF

    def mmio_write(self, addr: int, value: int) -> None:
        """Write to a memory-mapped device register."""
        device, _, key = self._mmio.get(addr) or self._map_mmio(addr)
        self._io(device, key, (value & 0xFFFFFFFF,))

    def mmio_read(self, addr: int) -> int:
        """Read a memory-mapped device register."""
        device, key, _ = self._mmio.get(addr) or self._map_mmio(addr)
        result = self._io(device, key, ())
        return (result or 0) & 0xFFFFFFFF

    def _io(self, device: Device, key: str,
            args: Tuple[int, ...]) -> Optional[int]:
        stats = self.stats
        stats.io_rounds += 1
        stats.vmexit_cycles += VMEXIT_COST
        attachment = self.attachments.get(device.NAME)
        if attachment is None:
            return self._run_device(device, key, args)
        if attachment.sync_keys.get(key, False):
            # Co-execution validates against the state the round starts
            # from, so any credited rounds must land first.
            self._flush_batch(attachment, device)
            return self._co_execute(attachment, device, key, args)
        if attachment.batch_rounds > 0:
            return self._credit_io(attachment, device, key, args)
        # Strict discipline: simulate and vet before the device runs.
        # _vet, _run_device and _maybe_resync inlined: most rounds come
        # this way, and a clean one brings no report back.
        checker = attachment.checker
        before = checker.cycles
        report = checker.check_io(key, args, oracle=attachment.oracle,
                                  report_clean=False)
        stats.checker_cycles += checker.cycles - before
        attachment.checked_rounds += 1
        if report is not None:
            self._verdict(attachment, report)
        machine = device.machine
        before = machine.cycles
        try:
            result = device.handle_io(key, args)
        finally:
            stats.device_cycles += machine.cycles - before
        if report is not None:
            self._maybe_resync(attachment, device, report)
        return result

    def _credit_io(self, attachment: Attachment, device: Device,
                   key: str, args: Tuple[int, ...]) -> Optional[int]:
        """Credit-batch discipline: the strict-key round executes on
        credit and joins the pending batch; the batched checker vets the
        whole batch at the next flush point.  Detection moves from
        before-execution to the flush — the fleet's post-hoc quarantine
        semantics, traded for one checker invocation per batch."""
        attachment.pending.append((key, args))
        try:
            result = self._run_device(device, key, args)
        except DeviceFault:
            # Detection takes precedence over the fault outcome: vet
            # the credited rounds (the faulting one included) before
            # the fault propagates; a HALT verdict raises SEDSpecHalt
            # from the flush instead.
            self._flush_batch(attachment, device)
            raise
        if len(attachment.pending) >= attachment.batch_rounds:
            self._flush_batch(attachment, device)
        return result

    def _flush_batch(self, attachment: Attachment,
                     device: Device) -> None:
        pending = attachment.pending
        if not pending:
            return
        rounds = list(pending)
        pending.clear()
        checker = attachment.checker
        before = checker.cycles
        reports = checker.check_batch(rounds, oracle=attachment.oracle)
        self.stats.checker_cycles += checker.cycles - before
        attachment.batch_flushes += 1
        resync = False
        halt: Optional[CheckReport] = None
        checked = 0
        for report in reports:
            checked += 1
            if report.action is Action.HALT:
                halt = report
                attachment.halts.append(report)
                break
            if report.action is Action.WARN:
                attachment.warnings.append(report)
                resync = True
            if report.incomplete:
                resync = True
        attachment.checked_rounds += checked
        if resync:
            checker.resync(device.state)
        if halt is not None:
            raise SEDSpecHalt(halt)

    def flush_batches(self) -> None:
        """Flush every attachment's credited rounds (op boundary).  A
        HALT verdict raises :class:`SEDSpecHalt` exactly as a per-round
        vet would — just later, at the flush."""
        for name, attachment in self.attachments.items():
            self._flush_batch(attachment, self.devices[name])

    def _co_execute(self, attachment: Attachment, device: Device,
                    key: str, args: Tuple[int, ...]) -> Optional[int]:
        """Sync-point discipline: the device executes with its machine's
        harvest set (not a sink, so the fast runner keeps the round); the
        checker validates immediately after on the harvested values
        (Section V-D's interleaving).  A device fault mid-round is fed to
        the checker, which classifies it on the harvested prefix — this is
        how the CVE-2016-7909 infinite loop is flagged."""
        harvest: Dict[str, Deque[int]] = {}
        # Field sync values must reflect the state *the round started
        # from*, exactly as the strict discipline sees them.
        pre_state = device.snapshot()
        fault: Optional[DeviceFault] = None
        result: Optional[int] = None
        device.machine.harvest = harvest
        try:
            result = self._run_device(device, key, args)
        except DeviceFault as exc:
            fault = exc
        finally:
            device.machine.harvest = None
        oracle = QueueSyncOracle(
            harvest, fallback=FieldSyncOracle(pre_state))
        report = self._vet(attachment, key, args, oracle)
        if report is not None:
            self._maybe_resync(attachment, device, report)
        if fault is not None:
            raise fault
        return result

    def _run_device(self, device: Device, key: str,
                    args: Tuple[int, ...]) -> Optional[int]:
        before = device.machine.cycles
        try:
            return device.handle_io(key, args)
        finally:
            self.stats.device_cycles += device.machine.cycles - before

    def _vet(self, attachment: Attachment, key: str,
             args: Tuple[int, ...], oracle) -> Optional[CheckReport]:
        """Check one round; ``None`` means clean (ALLOW, complete)."""
        checker = attachment.checker
        before = checker.cycles
        report = checker.check_io(key, args, oracle=oracle,
                                  report_clean=False)
        self.stats.checker_cycles += checker.cycles - before
        attachment.checked_rounds += 1
        if report is not None:
            self._verdict(attachment, report)
        return report

    @staticmethod
    def _verdict(attachment: Attachment, report: CheckReport) -> None:
        """Act on a round that did not check clean: a HALT raises, a
        WARN is kept."""
        if report.action is Action.HALT:
            attachment.halts.append(report)
            raise SEDSpecHalt(report)
        if report.action is Action.WARN:
            attachment.warnings.append(report)

    @staticmethod
    def _maybe_resync(attachment: Attachment, device: Device,
                      report: CheckReport) -> None:
        """When the checker lost track of a round it could not veto (an
        incomplete walk, or a warn-and-continue in enhancement mode), the
        device executed anyway; re-align the shadow device state from the
        live control structure so one blind spot does not cascade."""
        if report.incomplete or report.action is Action.WARN:
            attachment.checker.resync(device.state)

    # -- reporting --------------------------------------------------------------

    def warning_count(self, device_name: str) -> int:
        attachment = self.attachments.get(device_name)
        return len(attachment.warnings) if attachment else 0

    def halt_count(self, device_name: str) -> int:
        attachment = self.attachments.get(device_name)
        return len(attachment.halts) if attachment else 0
