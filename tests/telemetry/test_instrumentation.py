"""Instrumentation wiring: staging/flush contracts, recorder caching on
toggle, IPT packet accounting, and the `repro stats` workload runner."""

from types import SimpleNamespace

import pytest

from repro.checker import Action, Mode, Strategy
from repro.compiler import compile_device
from repro.core import deploy
from repro.interp import Machine
from repro.ipt import Decoder, IPTTracer
from repro.telemetry import Recorder
from repro.telemetry.instruments import (
    _DRAIN_EVERY, CheckerTelemetry, MachineTelemetry,
)
from repro.telemetry.stats import (
    interp_summary, latency_rows, run_stats, strategy_rows,
)
from repro.workloads.profiles import PROFILES, train_device_spec

from tests.toydev import ToyLogic

LABELS = {"device": "FDCtrl", "backend": "bytecode"}


def fake_report(action=Action.ALLOW, p=2, i=1, c=0, anomalies=(),
                incomplete=False):
    """Only the attributes CheckerTelemetry.record_round reads."""
    return SimpleNamespace(param_checks=p, indirect_checks=i,
                           conditional_checks=c, action=action,
                           anomalies=anomalies, incomplete=incomplete)


@pytest.fixture(scope="module")
def fdc_spec():
    return train_device_spec("fdc", qemu_version="99.0.0", seed=7,
                             repeats=2).spec


class TestCheckerStaging:
    def test_rounds_stage_until_snapshot_flushes(self):
        rec = Recorder("r")
        bundle = CheckerTelemetry(rec, "FDCtrl", "bytecode")
        for _ in range(3):
            bundle.record_round(fake_report(), 500)
        # Nothing folded yet: the hot path only touches staged slots.
        assert rec.counter("checker.rounds", **LABELS).value == 0
        snap = rec.snapshot()     # snapshot() flushes first
        assert snap.counter("checker.rounds", **LABELS) == 3
        checks = snap.label_values("checker.checks", "strategy")
        assert checks == {"parameter": 6, "indirect_jump": 3,
                          "conditional_jump": 0}
        assert snap.label_values("checker.actions", "action") == \
            {"allow": 3, "warn": 0, "halt": 0, "trace_gap": 0}
        assert snap.histogram("checker.round_ns", **LABELS).count == 3
        # Staged state was consumed: a second snapshot adds nothing.
        again = rec.snapshot()
        assert again.counter("checker.rounds", **LABELS) == 3

    def test_non_allow_rounds_split_the_action_counters(self):
        rec = Recorder("r")
        bundle = CheckerTelemetry(rec, "FDCtrl", "bytecode")
        anomaly = SimpleNamespace(strategy=Strategy.PARAMETER,
                                  kind="out-of-range")
        bundle.record_round(fake_report(), 500)
        bundle.record_round(
            fake_report(action=Action.WARN, anomalies=(anomaly,)), 700)
        bundle.record_round(
            fake_report(action=Action.HALT, anomalies=(anomaly,),
                        incomplete=True), 900)
        snap = rec.snapshot()
        assert snap.label_values("checker.actions", "action") == \
            {"allow": 1, "warn": 1, "halt": 1, "trace_gap": 0}
        assert snap.counter("checker.anomalies", strategy="parameter",
                            kind="out-of-range", **LABELS) == 2
        assert snap.counter("checker.incomplete_walks", **LABELS) == 1

    def test_sample_buffers_drain_without_a_snapshot(self):
        rec = Recorder("r")
        bundle = CheckerTelemetry(rec, "FDCtrl", "bytecode")
        for _ in range(_DRAIN_EVERY):
            bundle.record_round(fake_report(), 500)
        # The histogram was drained to keep the buffer bounded...
        assert bundle._elapsed == []
        assert rec.histogram("checker.round_ns",
                             **LABELS).count == _DRAIN_EVERY
        # ...while the cheap integer counters stay staged until flush.
        assert rec.counter("checker.rounds", **LABELS).value == 0


class TestRecorderToggleCaching:
    def test_checker_reuses_bundle_and_registers_one_flush(self,
                                                           fdc_spec):
        prof = PROFILES["fdc"]
        vm, dev = prof.make_vm("99.0.0")
        deploy(vm, dev, fdc_spec, mode=Mode.ENHANCEMENT)
        checker = vm.attachments[dev.NAME].checker
        rec = Recorder("r")
        checker.set_recorder(rec)
        bundle = checker._telemetry
        assert bundle is not None
        checker.set_recorder(None)
        assert checker._telemetry is None
        checker.set_recorder(rec)
        assert checker._telemetry is bundle   # cached, not rebuilt
        assert len(rec._flushes) == 1         # no duplicate flush hooks

    def test_machine_reuses_bundle_and_registers_one_flush(self,
                                                           fdc_spec):
        prof = PROFILES["fdc"]
        vm, dev = prof.make_vm("99.0.0")
        rec = Recorder("r")
        dev.machine.set_recorder(rec)
        bundle = dev.machine._telemetry
        dev.machine.set_recorder(None)
        dev.machine.set_recorder(rec)
        assert dev.machine._telemetry is bundle
        assert len(rec._flushes) == 1


class TestMachineTelemetry:
    def test_rounds_and_blocks_stage_until_flush(self):
        rec = Recorder("r")
        bundle = MachineTelemetry(rec, "FDCtrl")
        bundle.record_round(10)
        bundle.record_round(15)
        assert rec.counter("interp.io_rounds", device="FDCtrl").value == 0
        snap = rec.snapshot()
        assert snap.counter("interp.io_rounds", device="FDCtrl") == 2
        assert snap.counter("interp.blocks", device="FDCtrl") == 25

    def test_faults_are_counted_immediately_by_kind(self):
        rec = Recorder("r")
        bundle = MachineTelemetry(rec, "FDCtrl")
        bundle.record_fault("oob-segfault", 7)
        assert rec.counter("interp.faults", kind="oob-segfault",
                           device="FDCtrl").value == 1
        snap = rec.snapshot()
        assert snap.counter("interp.io_rounds", device="FDCtrl") == 1
        assert snap.counter("interp.blocks", device="FDCtrl") == 7


class TestIPTAccounting:
    def test_every_emitted_packet_is_decoded(self):
        program = compile_device(ToyLogic)
        machine = Machine(program)
        machine.bind_extern("host_log", lambda m, level: None)
        machine.set_funcptr("irq", "on_irq")
        emit_rec = Recorder("emit")
        dec_rec = Recorder("dec")
        tracer = machine.add_sink(IPTTracer(recorder=emit_rec))
        for byte in (1, 2, 3):
            machine.run_entry("pmio:write:1", (byte,))
        Decoder(program, recorder=dec_rec).decode_stream(tracer.packets)
        emitted = emit_rec.snapshot().label_values("ipt.packets", "kind")
        decoded = dec_rec.snapshot().label_values("ipt.packets", "kind")
        # PSB is a stream-sync packet emitted *between* rounds; the
        # decoder consumes rounds (PGE..PGD), so every in-round packet
        # kind must balance exactly.
        assert emitted.pop("PSB") == 3
        assert emitted and emitted == decoded
        assert emit_rec.snapshot().counter("ipt.rounds",
                                           dir="emitted") == 3
        assert dec_rec.snapshot().counter("ipt.rounds",
                                          dir="decoded") == 3


class TestSpanClock:
    def test_span_times_with_the_recorder_clock(self):
        ticks = iter([100, 350])
        rec = Recorder("sim", clock=lambda: next(ticks))
        with rec.span("lat", bounds=(200, 400)):
            pass
        hist = rec.snapshot().histogram("lat")
        assert hist.count == 1
        assert hist.total == 250   # deterministic under the sim clock


class TestRunStats:
    def test_run_stats_fills_every_breakdown(self):
        run = run_stats(device="fdc", rounds=60, seed=7)
        assert run.rounds >= 60
        rows = {name: (checks, violations)
                for name, checks, violations in strategy_rows(
                    run.snapshot)}
        assert set(rows) == {"parameter", "indirect_jump",
                             "conditional_jump"}
        assert rows["parameter"][0] > 0
        assert rows["parameter"][1] == 0    # benign workload
        assert any(name == "checker.round_ns" and count >= 60
                   for name, count, *_ in latency_rows(run.snapshot))
        summary = interp_summary(run.snapshot)
        assert summary["io_rounds"] >= 60
        assert summary["blocks"] > 0
        assert summary["faults"] == 0
