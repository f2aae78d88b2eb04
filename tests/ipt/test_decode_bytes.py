"""Differential tests for the single-pass byte-level decoder.

``Decoder.decode_bytes`` walks the raw wire bytes with one index cursor
instead of parsing a packet list first.  Its contract is equivalence
with the two-phase reference (``decode_resilient`` + ``decode_stream``)
on every observable: the reconstructed rounds (addresses, indirect
edges, fault/gap flags) and the trace gaps — on clean streams, under
byte corruption at every offset, and under truncation at every length.
"""

import pytest

from repro.compiler import compile_device
from repro.ipt import Decoder, IPTTracer
from repro.ipt.packets import DecodeResult, Fup, Ovf, decode_resilient

from tests.toydev import ToyLogic


def _traced_session(ops=8):
    """A real multi-round trace from the toy device, as raw bytes."""
    program = compile_device(ToyLogic)
    from repro.interp import Machine

    machine = Machine(program)
    machine.bind_extern("host_log", lambda m, level: None)
    machine.set_funcptr("irq", "on_irq")
    tracer = machine.add_sink(IPTTracer())
    for byte in range(ops):
        machine.run_entry("pmio:write:1", (byte,))
    machine.run_entry("pmio:write:0", (ToyLogic.CONSTS["CMD_SUM"],))
    machine.run_entry("pmio:read:1")
    return program, tracer.raw()


def _reference(program, data):
    """The two-phase pipeline the byte-level path must match."""
    parsed = decode_resilient(data)
    return Decoder(program).decode_stream(parsed.packets), parsed


def _assert_equivalent(program, data):
    """Rounds and gaps match; a raise (corrupt ip that still parses,
    e.g. a flipped PGE address) must match message-for-message."""
    from repro.errors import TraceError

    try:
        ref_rounds, ref_parsed = _reference(program, data)
        ref_err = None
    except TraceError as exc:
        ref_err = str(exc)
    try:
        raw_rounds, raw_result = Decoder(program).decode_bytes(data)
        raw_err = None
    except TraceError as exc:
        raw_err = str(exc)
    assert raw_err == ref_err
    if ref_err is None:
        assert raw_rounds == ref_rounds
        assert raw_result.gaps == ref_parsed.gaps


class TestCleanStream:
    def test_rounds_identical_to_reference(self):
        program, data = _traced_session()
        _assert_equivalent(program, data)

    def test_no_anomaly_packets_on_clean_stream(self):
        program, data = _traced_session()
        _, result = Decoder(program).decode_bytes(data)
        assert result.ok
        assert result.packets == []

    def test_memoryview_input_accepted(self):
        program, data = _traced_session()
        rounds, _ = Decoder(program).decode_bytes(data)
        assert len(rounds) == 10


class TestCorruption:
    def test_single_byte_flip_at_every_offset(self):
        """Exhaustive: whatever one flipped byte does to the reference
        path (shrugged off, gap, resync), the raw path does too."""
        program, data = _traced_session(ops=3)
        for pos in range(len(data)):
            dirty = bytearray(data)
            dirty[pos] ^= 0xFF
            _assert_equivalent(program, bytes(dirty))

    def test_truncation_at_every_length(self):
        program, data = _traced_session(ops=3)
        for cut in range(len(data)):
            _assert_equivalent(program, data[:cut])

    def test_garbage_prefix_resyncs(self):
        program, data = _traced_session(ops=2)
        _assert_equivalent(program, b"\xff\xfe\xfd" + data)

    def test_gap_round_flagged(self):
        program, data = _traced_session(ops=4)
        # Corrupt a byte in the middle; at least the struck round must
        # carry trace_gap (unless the flip landed between rounds).
        dirty = bytearray(data)
        dirty[len(data) // 2] = 0xEE
        rounds, result = Decoder(program).decode_bytes(bytes(dirty))
        assert result.gaps
        assert any(isinstance(p, Ovf) for p in result.packets)


class TestFaultAnomalies:
    def test_fup_reported_and_round_faulted(self):
        program, data = _traced_session(ops=2)
        from repro.ipt.packets import TipPge, TipPgd, encode

        # Entry address of the first real block, then a synthetic fault.
        entry = next(iter(program.addr_to_block))
        tail = encode([TipPge(entry), Fup(entry), TipPgd(entry)])
        blob = data + tail
        _assert_equivalent(program, blob)
        rounds, result = Decoder(program).decode_bytes(blob)
        assert rounds[-1].faulted
        assert any(isinstance(p, Fup) for p in result.packets)


class TestTelemetry:
    def test_round_counters_match_stream_path(self):
        from repro.telemetry import Recorder

        program, data = _traced_session(ops=3)
        rec_raw, rec_ref = Recorder(), Recorder()
        Decoder(program, recorder=rec_raw).decode_bytes(data)
        parsed = decode_resilient(data)
        Decoder(program, recorder=rec_ref).decode_stream(parsed.packets)
        assert (rec_raw.snapshot().counters
                == rec_ref.snapshot().counters)


class TestLostPackets:
    def test_ovf_alone_makes_a_result_lossy(self):
        assert DecodeResult().ok
        assert not DecodeResult(packets=[Ovf()]).ok

    def test_overflowed_training_session_is_not_ok(self):
        """An fdc training session under a 64-packet trace buffer: the
        tracer writes 150 OVF packets and every byte parses.  Neither
        decoder may call that trace lossless."""
        import random

        from repro.workloads.profiles import PROFILES

        prof = PROFILES["fdc"]
        vm, device = prof.make_vm()
        tracer = device.machine.add_sink(IPTTracer(buffer_limit=64))
        prof.training(vm, device, random.Random(7))
        data = tracer.raw()
        assert tracer.overflows == 150
        _, raw_result = Decoder(device.program).decode_bytes(data)
        for result in (raw_result, decode_resilient(data)):
            assert result.gaps == []
            assert not result.ok
            assert result.overflows() == 150
