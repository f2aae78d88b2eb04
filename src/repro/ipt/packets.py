"""Intel-PT-style packet model.

Real IPT emits a compressed packet stream; the packets that matter for
control-flow reconstruction (and the only ones FlowGuard-style ITC-CFG
construction consumes) are:

* ``PSB``      — synchronization boundary,
* ``TIP.PGE``  — tracing enabled at an address (our: I/O entered device),
* ``TIP.PGD``  — tracing disabled (our: I/O round left the device),
* ``TNT``      — a run of taken/not-taken bits for conditional branches,
* ``TIP``      — target address of an indirect transfer,
* ``FUP``      — flow-update (async event address; we emit it on faults),
* ``OVF``      — the trace buffer overflowed and packets were lost; the
  decoder must resynchronize at the next PSB (real PT emits exactly this
  under load).

We model packets as small dataclasses plus a compact byte encoding, so the
decoder genuinely works from bytes the way a PT decoder does (and so tests
can assert round-trips).  PSB encodes as an 8-byte sync *pattern* (real PT
uses a 16-byte one) rather than a single magic byte: a desynchronized
decoder scans for the pattern to find the next trustworthy parse point,
and a single corrupted byte cannot plausibly forge one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple, Union

from repro.errors import DecodeError, TraceError

_MAGIC = {
    "PSB": 0x01, "PGE": 0x02, "PGD": 0x03, "TNT": 0x04, "TIP": 0x05,
    "FUP": 0x06, "OVF": 0x07,
}
_REV_MAGIC = {v: k for k, v in _MAGIC.items()}

#: TNT packets carry at most this many branch bits (real short-TNT holds 6).
TNT_CAPACITY = 6

#: The on-the-wire PSB synchronization pattern (analogue of PT's 16-byte
#: ``02 82`` repetition).  Resynchronization scans for this sequence.
PSB_PATTERN = bytes((_MAGIC["PSB"], 0x82, 0x02, 0x82, 0x02, 0x82, 0x02,
                     0x82))


@dataclass(frozen=True)
class PSB:
    """Stream synchronization point."""


@dataclass(frozen=True)
class TipPge:
    """Tracing began at *ip* (filter matched: I/O request entered device)."""

    ip: int


@dataclass(frozen=True)
class TipPgd:
    """Tracing ended (I/O round completed or filter exited)."""

    ip: int


@dataclass(frozen=True)
class Tnt:
    """Up to :data:`TNT_CAPACITY` conditional-branch outcomes, oldest first."""

    bits: Tuple[bool, ...]

    def __post_init__(self) -> None:
        if not 0 < len(self.bits) <= TNT_CAPACITY:
            raise TraceError(
                f"TNT packet must carry 1..{TNT_CAPACITY} bits")


@dataclass(frozen=True)
class Tip:
    """Indirect transfer to *ip* (switch table jump or funcptr call)."""

    ip: int


@dataclass(frozen=True)
class Fup:
    """Asynchronous flow update at *ip* (we emit on device faults)."""

    ip: int


@dataclass(frozen=True)
class Ovf:
    """Trace buffer overflow: an unknown number of packets was dropped.

    Everything between this packet and the next PSB is untrustworthy;
    decoders must treat the region as a trace gap, not as a clean path.
    """


Packet = Union[PSB, TipPge, TipPgd, Tnt, Tip, Fup, Ovf]


@dataclass(frozen=True)
class TraceGap:
    """A byte region of the stream that could not be decoded.

    ``start`` is the offset where parsing failed; ``end`` is the offset
    of the PSB pattern where parsing resumed (``len(data)`` if no sync
    point was found).  An OVF packet the tracer wrote parses cleanly and
    records no gap: it shows up as an :class:`Ovf` in
    :attr:`DecodeResult.packets` only.
    """

    start: int
    end: int
    reason: str          # "corruption" | "truncated"


@dataclass
class DecodeResult:
    """Outcome of a resilient decode: packets plus the regions lost."""

    packets: List[Packet] = field(default_factory=list)
    gaps: List[TraceGap] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True only for a lossless trace: no region failed to parse
        and no packet was lost, on the wire or at a gap."""
        return not self.gaps and not self.overflows()

    def overflows(self) -> int:
        """:class:`Ovf` markers in the report: one per loss point,
        whether the tracer wrote it or the decoder synthesized it where
        the bytes did not parse."""
        return sum(1 for packet in self.packets if isinstance(packet, Ovf))

    def lost_bytes(self) -> int:
        return sum(g.end - g.start for g in self.gaps)


def encode(packets: Iterable[Packet]) -> bytes:
    """Serialize packets into the byte stream format.

    Layout: PSB is the 8-byte sync pattern; OVF a bare magic byte; address
    packets a magic byte plus an 8-byte LE ip; TNT a magic byte, a count
    byte, and a bit-packed byte.
    """
    out = bytearray()
    for pkt in packets:
        if isinstance(pkt, PSB):
            out += PSB_PATTERN
        elif isinstance(pkt, Ovf):
            out.append(_MAGIC["OVF"])
        elif isinstance(pkt, TipPge):
            out.append(_MAGIC["PGE"])
            out += struct.pack("<Q", pkt.ip)
        elif isinstance(pkt, TipPgd):
            out.append(_MAGIC["PGD"])
            out += struct.pack("<Q", pkt.ip)
        elif isinstance(pkt, Tip):
            out.append(_MAGIC["TIP"])
            out += struct.pack("<Q", pkt.ip)
        elif isinstance(pkt, Fup):
            out.append(_MAGIC["FUP"])
            out += struct.pack("<Q", pkt.ip)
        elif isinstance(pkt, Tnt):
            out.append(_MAGIC["TNT"])
            out.append(len(pkt.bits))
            packed = 0
            for i, bit in enumerate(pkt.bits):
                if bit:
                    packed |= 1 << i
            out.append(packed)
        else:
            raise TraceError(f"cannot encode {type(pkt).__name__}")
    return bytes(out)


def _decode_from(data: bytes, pos: int,
                 packets: List[Packet]) -> None:
    """Parse from *pos* to the end, appending to *packets*; raises
    :class:`DecodeError` (offset + partial list) on the first bad byte."""
    size = len(data)
    while pos < size:
        start = pos
        magic = data[pos]
        pos += 1
        kind = _REV_MAGIC.get(magic)
        if kind is None:
            raise DecodeError(f"bad magic byte {magic:#x}", offset=start,
                              packets=packets)
        if kind == "PSB":
            end = start + len(PSB_PATTERN)
            if data[start:end] != PSB_PATTERN:
                if end > size:
                    raise DecodeError("truncated PSB pattern",
                                      offset=start, packets=packets)
                raise DecodeError("bad PSB sync pattern", offset=start,
                                  packets=packets)
            pos = end
            packets.append(PSB())
        elif kind == "OVF":
            packets.append(Ovf())
        elif kind == "TNT":
            if pos + 2 > size:
                raise DecodeError("truncated TNT packet", offset=start,
                                  packets=packets)
            count = data[pos]
            packed = data[pos + 1]
            pos += 2
            if not 0 < count <= TNT_CAPACITY:
                raise DecodeError(f"TNT count {count} out of range",
                                  offset=start, packets=packets)
            bits = tuple(bool(packed >> i & 1) for i in range(count))
            packets.append(Tnt(bits))
        else:
            if pos + 8 > size:
                raise DecodeError(f"truncated {kind} packet",
                                  offset=start, packets=packets)
            (ip,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            if kind == "PGE":
                packets.append(TipPge(ip))
            elif kind == "PGD":
                packets.append(TipPgd(ip))
            elif kind == "TIP":
                packets.append(Tip(ip))
            else:
                packets.append(Fup(ip))


def decode(data: bytes) -> List[Packet]:
    """Parse a byte stream back into packets (inverse of :func:`encode`).

    Strict: the first malformed byte raises :class:`DecodeError` carrying
    the offset and every packet decoded before it.
    """
    packets: List[Packet] = []
    _decode_from(data, 0, packets)
    return packets


def resync_offset(data: bytes, pos: int) -> int:
    """Offset of the next PSB sync pattern at or after *pos* (-1: none)."""
    return data.find(PSB_PATTERN, pos)


def decode_resilient(data: bytes) -> DecodeResult:
    """Decode with PSB-based resynchronization instead of raising.

    Every parse failure is converted into a :class:`TraceGap` spanning
    from the failure offset to the next PSB pattern (or end of stream),
    an :class:`Ovf` packet is inserted at the loss point so downstream
    round reconstruction knows the path has a hole, and parsing resumes
    at the sync boundary.  Never raises on any input.
    """
    result = DecodeResult()
    pos = 0
    size = len(data)
    while pos < size:
        try:
            _decode_from(data, pos, result.packets)
            break
        except DecodeError as exc:
            reason = ("truncated" if "truncated" in str(exc)
                      else "corruption")
            # Skip at least one byte: the failing offset itself may hold
            # a (corrupted) PSB magic.
            sync = resync_offset(data, exc.offset + 1)
            end = sync if sync >= 0 else size
            result.gaps.append(TraceGap(exc.offset, end, reason))
            result.packets.append(Ovf())
            if sync < 0:
                break
            pos = sync
    return result


def iter_rounds(packets: Iterable[Packet]) -> Iterator[List[Packet]]:
    """Split a packet stream into per-I/O-round segments (PGE..PGD)."""
    current: List[Packet] = []
    inside = False
    for pkt in packets:
        if isinstance(pkt, TipPge):
            current = [pkt]
            inside = True
        elif isinstance(pkt, TipPgd):
            if inside:
                current.append(pkt)
                yield current
                current = []
                inside = False
        elif inside:
            current.append(pkt)
    if inside and current:
        # Trailing partial round (device faulted mid-I/O): still useful.
        yield current
