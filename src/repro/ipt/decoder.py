"""Packet decoder: replays a PT packet stream against the static program.

A PT decoder reconstructs the exact path by walking the binary from the PGE
address and consuming TNT bits at conditional branches / TIP addresses at
indirect transfers; direct jumps, calls, and returns are followed
statically.  This module does the same over the IR program and yields, per
I/O round, the ordered list of executed block addresses plus the resolved
indirect targets — the inputs to ITC-CFG construction.

Two entry points share the walk:

* :meth:`Decoder.decode_stream` consumes already-parsed packet objects
  (a loaded :class:`~repro.ipt.storage.TraceFile`, or a tracer's
  ``packets``);
* :meth:`Decoder.decode_bytes` consumes the raw wire bytes in a single
  pass — one index cursor over a ``memoryview``, TNT bits unpacked and
  TIP addresses read in place, rounds segmented inline.  No intermediate
  packet list is built; packet *objects* are constructed only for
  anomalies (FUP/OVF and synthesized loss markers) so the
  :class:`DecodeResult` report stays inspectable.  Training decodes the
  tracer's ``raw()`` bytes this way.

The walk itself reads :func:`walk_table`, one tuple per block address
built once per program, instead of resolving every block through the
program's function and label maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.ir import (
    Branch, Call, Goto, ICall, Program, Return, Switch,
)
from repro.ipt.packets import (
    _MAGIC, PSB_PATTERN, TNT_CAPACITY, DecodeResult, Fup, Ovf, Packet,
    Tip, TipPgd, TipPge, Tnt, TraceGap, decode_resilient, iter_rounds,
)


@dataclass
class DecodedRound:
    """Reconstruction of one I/O round."""

    entry_address: int
    block_addresses: List[int] = field(default_factory=list)
    #: (source block address, target address, kind) for each indirect hop.
    indirect_edges: List[Tuple[int, int, str]] = field(default_factory=list)
    #: True if the round ended with a FUP (device fault mid-round).
    faulted: bool = False
    #: True if an OVF fell inside the round: packets were lost (buffer
    #: overflow or corruption resync) and the reconstructed path is only
    #: the trustworthy prefix, not the whole round.
    trace_gap: bool = False

    def edges(self) -> List[Tuple[int, int]]:
        """Consecutive-block edge list of the reconstructed path."""
        return list(zip(self.block_addresses, self.block_addresses[1:]))


#: walk-table kinds, one per terminator class (see :func:`walk_table`)
GOTO, BRANCH, SWITCH, CALL, ICALL, RETURN, UNKNOWN = range(7)


def walk_table(program: Program) -> Dict[int, tuple]:
    """Block address -> ``(kind, a, b, func, label)``, built once per
    program and shared by every decoder and ITC-CFG over it.

    *a*/*b* are the successor addresses the terminator fixes: a Goto's
    target; a Branch's taken/not-taken arms; a Call's callee entry and
    continuation; an ICall's continuation (in *b*).
    """
    table = getattr(program, "_walk_table", None)
    if table is not None:
        return table
    table = {}
    for func in program.functions.values():
        address = {label: block.address
                   for label, block in func.blocks.items()}
        for block in func.iter_blocks():
            term = block.terminator
            a = b = None
            if isinstance(term, Goto):
                kind, a = GOTO, address[term.target]
            elif isinstance(term, Branch):
                kind = BRANCH
                a, b = address[term.taken], address[term.not_taken]
            elif isinstance(term, Switch):
                kind = SWITCH
            elif isinstance(term, Call):
                callee = program.function(term.func)
                kind = CALL
                a = callee.block(callee.entry).address
                b = address[term.cont]
            elif isinstance(term, ICall):
                kind, b = ICALL, address[term.cont]
            elif isinstance(term, Return):
                kind = RETURN
            else:
                kind = UNKNOWN
            table[block.address] = (kind, a, b, func.name, block.label)
    program._walk_table = table
    return table


def _callee_entries(program: Program) -> Dict[int, int]:
    """Function address (what an icall's TIP carries) -> entry block."""
    return {func.address: func.block(func.entry).address
            for func in program.functions.values()}


#: TNT payload -> its bits, oldest first: ``_TNT_BITS[count][packed]``
_TNT_BITS = [[tuple(bool(packed >> i & 1) for i in range(count))
              for packed in range(256)]
             for count in range(TNT_CAPACITY + 1)]


def _round_feed(packets: List[Packet]
                ) -> Tuple[List[bool], List[int], bool, bool]:
    """One round's TNT bits, TIP addresses, fault and gap flags."""
    tnt: List[bool] = []
    tips: List[int] = []
    faulted = False
    gapped = False
    for pkt in packets:
        if gapped:
            # Nothing after an OVF is trustworthy within this round:
            # the lost packets make later TNT/TIP alignment unknown.
            break
        if isinstance(pkt, Tnt):
            tnt.extend(pkt.bits)
        elif isinstance(pkt, Tip):
            tips.append(pkt.ip)
        elif isinstance(pkt, Fup):
            faulted = True
        elif isinstance(pkt, Ovf):
            gapped = True
    return tnt, tips, faulted, gapped


class Decoder:
    """Replays packet rounds against a frozen :class:`Program`."""

    def __init__(self, program: Program, max_blocks: int = 1_000_000,
                 recorder=None):
        self.program = program
        self.max_blocks = max_blocks
        self._table = walk_table(program)
        self._callee_entry = _callee_entries(program)
        self._telemetry = None
        if recorder is not None:
            from repro.telemetry.instruments import PacketTelemetry
            self._telemetry = PacketTelemetry(recorder, "decoded")

    def decode_stream(self, packets: Iterable[Packet]) -> List[DecodedRound]:
        return [self.decode_round(chunk) for chunk in iter_rounds(packets)]

    def decode_bytes(self, data: bytes
                     ) -> Tuple[List[DecodedRound], DecodeResult]:
        """Resilient bytes-level entry: one pass over the raw stream.

        Materializing wrapper over :meth:`iter_decode_bytes` — see there
        for the decode semantics.  Returns the full round list plus the
        :class:`DecodeResult` report.
        """
        result = DecodeResult()
        rounds = list(self.iter_decode_bytes(data, result))
        return rounds, result

    def iter_decode_bytes(self, data: bytes,
                          result: Optional[DecodeResult] = None
                          ) -> "Iterator[DecodedRound]":
        """Streaming resilient bytes-level entry: one pass, one round at
        a time.

        A single index cursor moves over a ``memoryview`` of *data*;
        TNT bits are unpacked and TIP/PGE/PGD addresses read in place,
        and each round is **yielded as soon as the cursor passes its
        closing boundary packet** — no intermediate list of
        :class:`DecodedRound` objects is held, so a consumer such as the
        batched checker can stream round boundaries straight into its
        walk.  Every parse failure resynchronizes at the next PSB
        pattern exactly like :func:`decode_resilient` (same
        :class:`TraceGap` spans and reasons).  Rounds overlapping a loss
        region carry ``trace_gap=True``; nothing raises on corrupt
        input.

        Pass a :class:`DecodeResult` as *result* to collect the gaps
        plus only the *anomaly* packets (FUP, on-the-wire OVF, and the
        OVF markers synthesized at loss points) — the common-path
        packets are consumed in place and never materialized.  The
        report is filled incrementally as the generator advances and is
        complete once it is exhausted.
        """
        mv = memoryview(data)
        if result is None:
            result = DecodeResult()
        telemetry = self._telemetry

        # Current-round accumulators (None entry_address = not inside).
        cur: Optional[DecodedRound] = None
        tnt: List[bool] = []
        tips: List[int] = []
        faulted = False
        gapped = False

        def finish() -> DecodedRound:
            nonlocal cur
            round_ = cur
            cur = None
            round_.faulted = faulted
            round_.trace_gap = gapped
            self._walk(round_, tnt, tips)
            if telemetry is not None:
                telemetry.rounds.inc()
                if round_.faulted:
                    telemetry.faulted.inc()
            return round_

        pos = 0
        size = len(data)
        magic_psb = _MAGIC["PSB"]
        magic_pge = _MAGIC["PGE"]
        magic_pgd = _MAGIC["PGD"]
        magic_tnt = _MAGIC["TNT"]
        magic_tip = _MAGIC["TIP"]
        magic_fup = _MAGIC["FUP"]
        magic_ovf = _MAGIC["OVF"]
        psb_len = len(PSB_PATTERN)
        ifb = int.from_bytes
        tnt_bits = _TNT_BITS
        while pos < size:
            start = pos
            magic = data[pos]
            pos += 1
            fail_reason = None
            if magic == magic_tnt:
                if pos + 2 > size:
                    fail_reason = "truncated"
                else:
                    count = data[pos]
                    packed = data[pos + 1]
                    pos += 2
                    if not 0 < count <= TNT_CAPACITY:
                        fail_reason = "corruption"
                    else:
                        if telemetry is not None and cur is not None:
                            telemetry.count_kind("Tnt")
                        if cur is not None and not gapped:
                            tnt += tnt_bits[count][packed]
            elif magic == magic_psb:
                end = start + psb_len
                if data[start:end] != PSB_PATTERN:
                    fail_reason = ("truncated" if end > size
                                   else "corruption")
                else:
                    pos = end
                    if telemetry is not None and cur is not None:
                        telemetry.count_kind("PSB")
            elif magic == magic_ovf:
                # On-the-wire overflow: the tracer itself lost packets.
                result.packets.append(Ovf())
                if telemetry is not None and cur is not None:
                    telemetry.count_kind("Ovf")
                if cur is not None:
                    gapped = True
            elif magic in (magic_pge, magic_pgd, magic_tip, magic_fup):
                if pos + 8 > size:
                    fail_reason = "truncated"
                else:
                    ip = ifb(mv[pos:pos + 8], "little")
                    pos += 8
                    if magic == magic_pge:
                        # A PGE inside a round abandons the partial
                        # round, exactly like iter_rounds restarting
                        # its current chunk.
                        cur = DecodedRound(entry_address=ip)
                        tnt = []
                        tips = []
                        faulted = False
                        gapped = False
                        if telemetry is not None:
                            telemetry.count_kind("TipPge")
                    elif magic == magic_pgd:
                        if cur is not None:
                            if telemetry is not None:
                                telemetry.count_kind("TipPgd")
                            yield finish()
                    elif magic == magic_tip:
                        if telemetry is not None and cur is not None:
                            telemetry.count_kind("Tip")
                        if cur is not None and not gapped:
                            tips.append(ip)
                    else:
                        result.packets.append(Fup(ip))
                        if telemetry is not None and cur is not None:
                            telemetry.count_kind("Fup")
                        if cur is not None and not gapped:
                            faulted = True
            else:
                fail_reason = "corruption"
            if fail_reason is not None:
                # Same resynchronization decode_resilient performs: skip
                # at least one byte (the failing offset may hold a
                # corrupted PSB magic), scan for the next sync pattern.
                sync = data.find(PSB_PATTERN, start + 1)
                end = sync if sync >= 0 else size
                result.gaps.append(TraceGap(start, end, fail_reason))
                result.packets.append(Ovf())
                if telemetry is not None and cur is not None:
                    telemetry.count_kind("Ovf")
                if cur is not None:
                    gapped = True
                if sync < 0:
                    break
                pos = sync
        if cur is not None:
            # Trailing partial round (device faulted mid-I/O).
            yield finish()

    def decode_round(self, packets: List[Packet]) -> DecodedRound:
        pge = next((p for p in packets if isinstance(p, TipPge)), None)
        if pge is None:
            raise TraceError("round has no TIP.PGE packet")
        tnt, tips, faulted, gapped = _round_feed(packets)
        round_ = DecodedRound(entry_address=pge.ip, faulted=faulted,
                              trace_gap=gapped)
        self._walk(round_, tnt, tips)
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.rounds.inc()
            if round_.faulted:
                telemetry.faulted.inc()
            for pkt in packets:
                telemetry.count(pkt)
        return round_

    # -- path reconstruction ------------------------------------------------

    def _walk(self, round_: DecodedRound, tnt: List[bool],
              tips: List[int]) -> None:
        """Follow the program from the round's entry block, taking TNT
        bits at conditional branches and TIP addresses at indirect
        transfers; appends the path to *round_*."""
        table = self._table
        address = round_.entry_address
        if address not in table:
            raise TraceError(f"PGE address {address:#x} is not a block")
        blocks = round_.block_addresses
        indirect = round_.indirect_edges
        max_blocks = self.max_blocks
        n_tnt, n_tips = len(tnt), len(tips)
        next_bit = next_tip = 0
        #: continuation addresses of the calls in progress
        stack: List[int] = []
        steps = 0
        while True:
            steps += 1
            if steps > max_blocks:
                raise TraceError("decoder runaway (packet/program mismatch)")
            blocks.append(address)
            kind, a, b, func, label = table[address]
            if kind == BRANCH:
                if next_bit >= n_tnt:
                    if (round_.faulted or round_.trace_gap
                            or next_tip >= n_tips):
                        return   # trace ended mid-path (fault/gap/trunc)
                    raise TraceError(f"TNT underflow at {func}:{label}")
                address = a if tnt[next_bit] else b
                next_bit += 1
            elif kind == GOTO:
                address = a
            elif kind == CALL:
                stack.append(b)
                address = a
            elif kind == RETURN:
                if not stack:
                    return   # top-level handler returned: round complete
                address = stack.pop()
            elif kind == SWITCH:
                if next_tip >= n_tips:
                    return
                target = tips[next_tip]
                next_tip += 1
                indirect.append((address, target, "switch"))
                arm = table.get(target)
                if arm is None or arm[3] != func:
                    raise TraceError(
                        f"switch TIP {target:#x} leaves {func}")
                address = target
            elif kind == ICALL:
                if next_tip >= n_tips:
                    return
                target = tips[next_tip]
                next_tip += 1
                indirect.append((address, target, "icall"))
                entry = self._callee_entry.get(target)
                if entry is None:
                    # Hijack to a wild address: the trace ends in a fault.
                    return
                stack.append(b)
                address = entry
            else:
                raise TraceError(f"unknown terminator in {func}:{label}")
