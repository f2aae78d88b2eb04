"""The IPT module: configures filtering and records the packet stream.

Mirrors Section IV-A of the paper: tracing starts when the I/O data stream
enters the emulated device and stops when it exits; an address filter keeps
only the device's own code range (dropping shared-library and, by
construction, kernel control flow); the output is the raw packet buffer the
ITC-CFG builder consumes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.interp.sinks import TraceSink
from repro.ipt.packets import (
    _MAGIC, PSB_PATTERN, TNT_CAPACITY, Packet, decode,
)

#: Emit a PSB sync packet after this many packets, like periodic PSB+ in PT.
PSB_PERIOD = 256

_PGE, _PGD, _TIP, _FUP = (_MAGIC[k] for k in ("PGE", "PGD", "TIP", "FUP"))
_TNT, _OVF = _MAGIC["TNT"], _MAGIC["OVF"]
#: an address packet's wire bytes: magic byte, 8-byte little-endian ip
_ADDRESS_PACKET = struct.Struct("<BQ").pack


@dataclass
class FilterConfig:
    """What the IPT module is configured to record.

    *code_ranges* is the list of [lo, hi) address windows that may appear in
    the trace (the paper computes the emulated device's code range from the
    process memory layout).  *trace_kernel* is off by default, matching the
    paper's "tracing of kernel space control flow is disabled".
    """

    code_ranges: List[Tuple[int, int]] = field(default_factory=list)
    trace_kernel: bool = False

    def allows(self, address: int) -> bool:
        if not self.code_ranges:
            return True
        return any(lo <= address < hi for lo, hi in self.code_ranges)


class IPTTracer(TraceSink):
    """Trace sink producing an IPT-style packet stream.

    Attach to a :class:`~repro.interp.Machine`; after running training
    samples, read ``raw()`` for the wire bytes (or ``packets`` for them
    parsed back into packet objects).  The tracer appends each packet's
    :func:`~repro.ipt.packets.encode` bytes straight into one
    ``bytearray``: TNT bits are packed into an int as they arrive, and
    the address filter is resolved once per block address.
    """

    def __init__(self, config: Optional[FilterConfig] = None,
                 recorder=None, injector=None,
                 buffer_limit: Optional[int] = None):
        self.config = config or FilterConfig()
        #: fault-injection hook (see :mod:`repro.faults`) arming the
        #: ``ipt.drop`` / ``ipt.overflow`` sites in this tracer
        self.injector = injector
        #: packets the (simulated) trace buffer holds between sync points;
        #: exceeding it loses the incoming packet and emits OVF + PSB,
        #: like a ToPA buffer wrapping under load
        self.buffer_limit = buffer_limit
        self.overflows = 0
        self.dropped = 0
        self._buf = bytearray()
        self._count = 0        # packets in _buf
        self._tnt_n = 0        # pending TNT bits ...
        self._tnt_bits = 0     # ... packed oldest-first from bit 0
        #: block address -> does the filter let it through
        self._allowed: Dict[int, bool] = {}
        self._enabled = False
        self._need_pge = False
        self._since_psb = 0
        self._round = 0
        self._pushed = 0
        self._telemetry = None
        if recorder is not None:
            from repro.telemetry.instruments import PacketTelemetry
            self._telemetry = PacketTelemetry(recorder, "emitted")

    # -- sink events --------------------------------------------------------

    def attach(self, machine) -> None:
        if not self.config.code_ranges:
            self.config.code_ranges = [machine.program.code_range()]
        self._allowed.clear()

    def on_io_enter(self, key, args) -> None:
        self._enabled = True
        self._need_pge = True
        self._round += 1
        if self._telemetry is not None:
            self._telemetry.rounds.inc()
        self._push("PSB", PSB_PATTERN)

    def on_block(self, func, block) -> None:
        if not self._enabled or not self._need_pge:
            return
        # First block of the round: the PGE carries the entry address.
        address = block.address
        if self._allows(address):
            self._push("TipPge", _ADDRESS_PACKET(_PGE, address))
            self._need_pge = False

    def on_branch(self, block, taken) -> None:
        if not self._enabled or not self._allows(block.address):
            return
        n = self._tnt_n
        if taken:
            self._tnt_bits |= 1 << n
        self._tnt_n = n = n + 1
        if n >= TNT_CAPACITY:
            self._flush_tnt()

    def on_tip(self, block, target_addr, kind) -> None:
        if not self._enabled or not self._allows(block.address):
            return
        self._flush_tnt()
        self._push("Tip", _ADDRESS_PACKET(_TIP, target_addr))

    def on_io_exit(self, key, result) -> None:
        self._flush_tnt()
        self._push("TipPgd", _ADDRESS_PACKET(_PGD, 0))
        self._enabled = False

    def fault(self, address: int) -> None:
        """Record an async fault location (FUP), then stop the round."""
        if self._telemetry is not None:
            self._telemetry.faulted.inc()
        self._flush_tnt()
        self._push("Fup", _ADDRESS_PACKET(_FUP, address))
        self._push("TipPgd", _ADDRESS_PACKET(_PGD, address))
        self._enabled = False

    # -- output ------------------------------------------------------------

    def raw(self) -> bytes:
        return bytes(self._buf)

    @property
    def packets(self) -> List[Packet]:
        """The recorded stream parsed back into packet objects."""
        return decode(bytes(self._buf))

    def clear(self) -> None:
        self._buf.clear()
        self._count = 0
        self._tnt_n = self._tnt_bits = 0
        self._since_psb = 0
        self.overflows = 0
        self.dropped = 0

    def packet_count(self) -> int:
        return self._count

    # -- internals -----------------------------------------------------------

    def _allows(self, address: int) -> bool:
        allowed = self._allowed.get(address)
        if allowed is None:
            allowed = self._allowed[address] = self.config.allows(address)
        return allowed

    def _flush_tnt(self) -> None:
        if self._tnt_n:
            packet = bytes((_TNT, self._tnt_n, self._tnt_bits))
            self._tnt_n = self._tnt_bits = 0
            self._push("Tnt", packet)

    def _push(self, kind: str, packet: bytes) -> None:
        """Append one packet's wire bytes; *kind* is its class name."""
        self._pushed += 1
        # Sync packets are exempt from loss: real PT keeps emitting PSB+
        # through an overflow precisely so decoders can resynchronize.
        if kind != "PSB":
            if (self.buffer_limit is not None
                    and self._since_psb >= self.buffer_limit):
                self._overflow()
                return
            injector = self.injector
            if injector is not None:
                key = str(self._pushed)
                if injector.decide("ipt.drop", self._round, key) is not None:
                    self.dropped += 1
                    return
                if injector.decide("ipt.overflow", self._round,
                                   key) is not None:
                    self._overflow()
                    return
        self._buf += packet
        self._count += 1
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.count_kind(kind)
        self._since_psb += 1
        if self._since_psb >= PSB_PERIOD and kind != "TipPgd":
            self._buf += PSB_PATTERN
            self._count += 1
            if telemetry is not None:
                telemetry.count_kind("PSB")
            self._since_psb = 0

    def _overflow(self) -> None:
        """The trace buffer wrapped: the incoming packet is lost.  Emit
        OVF so the decoder knows a gap starts here, then PSB so it can
        pick the stream back up at a sync boundary."""
        self.overflows += 1
        self.dropped += 1
        self._buf.append(_OVF)
        self._buf += PSB_PATTERN
        self._count += 2
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.count_kind("Ovf")
            telemetry.count_kind("PSB")
        self._since_psb = 0
