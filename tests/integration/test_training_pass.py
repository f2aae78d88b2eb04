"""Training runs its workload once, and that one run equals two.

``build_execution_spec`` runs the training workload a single time under
both the IPT tracer and an observation logger given every field and
buffer, then projects the log onto the parameters the trace selected.
The oracle here is the paper's two-run pipeline built from public
pieces: a traced run to select the parameters, then a second run under
a logger constructed with that selection.  Both runs use the very
``make_vm`` and workload ``train_device_spec`` hands the pipeline.
"""

import json

import pytest

import repro.core
import repro.core.pipeline as pipeline
from repro.analysis import (
    DeviceStateChangeLog, LogEvent, ObservationLogger, analyze_taint,
    select_parameters,
)
from repro.cfg import build_itc_cfg
from repro.errors import TraceError
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec
from repro.fleet.registry import spec_digest
from repro.ipt import PSB_PATTERN, Decoder, IPTTracer
from repro.spec import build_spec
from repro.workloads.profiles import PROFILES, train_device_spec

DEVICES = sorted(PROFILES)


class _Captured(Exception):
    pass


def training_inputs(name):
    """The ``(make_vm, workload)`` pair ``train_device_spec`` trains on."""
    seen = {}

    def capture(make_vm, workload, reduce_cfg=True):
        seen.update(make_vm=make_vm, workload=workload)
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core, "build_execution_spec", capture)
        with pytest.raises(_Captured):
            train_device_spec(name)
    return seen["make_vm"], seen["workload"]


def one_run(make_vm, workload):
    """The pipeline's training, keeping its logger and projected log."""
    seen = {}
    make_logger = pipeline.ObservationLogger
    construct = pipeline.build_spec

    def logger(*args, **kwargs):
        seen["logger"] = make_logger(*args, **kwargs)
        return seen["logger"]

    def build(program, log, selection, taint, reduce_cfg=True):
        seen["log"] = log
        return construct(program, log, selection, taint,
                         reduce_cfg=reduce_cfg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "ObservationLogger", logger)
        patch.setattr(pipeline, "build_spec", build)
        artifacts = pipeline.build_execution_spec(make_vm, workload)
    return artifacts, seen["logger"], seen["log"]


def two_runs(make_vm, workload):
    """The oracle: trace, select, then log the selection in a rerun."""
    vm, device = make_vm()
    tracer = device.machine.add_sink(IPTTracer())
    workload(vm, device)
    rounds, result = Decoder(device.program).decode_bytes(tracer.raw())
    assert result.ok and not any(r.trace_gap for r in rounds)
    selection = select_parameters(
        device.program, build_itc_cfg(device.program, rounds))

    vm, device = make_vm()
    taint = analyze_taint(device.program)
    logger = device.machine.add_sink(ObservationLogger(
        device.NAME, selection.scalar_params | selection.funcptrs,
        selection.buffers,
        decision_blocks=taint.command_decision_blocks,
        end_blocks=taint.command_end_blocks))
    workload(vm, device)
    spec = build_spec(device.program, logger.log, selection, taint)
    return selection, logger.log, spec


class Trained:
    """One profile trained both ways, with both logs serialized once."""

    def __init__(self, name):
        self.name = name
        self.make_vm, self.workload = training_inputs(name)
        self.artifacts, self.logger, self.log = one_run(self.make_vm,
                                                        self.workload)
        self.selection, self.oracle, self.oracle_spec = two_runs(
            self.make_vm, self.workload)
        self.text = self.log.to_json()
        self.oracle_text = self.oracle.to_json()


@pytest.fixture(scope="module", params=DEVICES)
def trained(request):
    return Trained(request.param)


def test_one_run_log_equals_two_run_log(trained):
    assert trained.artifacts.selection == trained.selection
    assert trained.log.param_fields == trained.oracle.param_fields
    assert trained.log.param_buffers == trained.oracle.param_buffers
    assert len(trained.log.rounds) == len(trained.oracle.rounds) > 0
    if trained.text != trained.oracle_text:
        # Same content in another key order still passes; a real
        # difference fails on the first round that shows it.
        ours = json.loads(trained.text)
        theirs = json.loads(trained.oracle_text)
        for mine, expected in zip(ours["rounds"], theirs["rounds"]):
            assert mine["events"] == expected["events"]
            assert mine["initial_state"] == expected["initial_state"]
            assert mine["final_state"] == expected["final_state"]
        assert ours == theirs
    assert (spec_digest(trained.artifacts.spec)
            == spec_digest(trained.oracle_spec))


def test_projected_log_round_trips(trained):
    restored = DeviceStateChangeLog.from_json(trained.text)
    assert restored.to_json() == trained.text


def test_log_stays_compact(trained):
    """Memory is a gate: scalar snapshots shared while unchanged, and
    one tuple per event, never a dict or a materialized LogEvent."""
    layout = trained.make_vm()[1].program.layout
    scalars = sum(1 for decl in layout.fields if not decl.is_buffer)
    rounds = trained.logger.log.rounds
    snapshots = [snap for round_ in rounds
                 for snap in (round_.initial, round_.final)]
    assert snapshots
    for snap in snapshots:
        assert type(snap) is tuple and len(snap) == scalars
        assert all(type(value) is int for value in snap)
    for before, after in zip(snapshots, snapshots[1:]):
        if before == after:
            assert before is after
    for round_ in rounds:
        for event in round_.trace:
            assert type(event) is tuple
            assert not isinstance(event, (dict, LogEvent))


def _fails_closed(make_vm, workload, tracer):
    built = []
    construct = pipeline.build_spec

    def build(*args, **kwargs):
        built.append(args)
        return construct(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "IPTTracer", tracer)
        patch.setattr(pipeline, "build_spec", build)
        with pytest.raises(TraceError):
            pipeline.build_execution_spec(make_vm, workload)
    assert built == []


def test_training_fails_closed_on_an_overflowed_trace(trained):
    """A bounded trace buffer overflows: OVF + PSB on the wire."""
    _fails_closed(trained.make_vm, trained.workload,
                  lambda: IPTTracer(buffer_limit=64))


class _CorruptingTracer(IPTTracer):
    """Hands out its stream with one mid-stream sync pattern broken, so
    the bytes decode with a gap the tracer itself never counted."""

    def raw(self):
        data = bytearray(super().raw())
        data[data.find(PSB_PATTERN, len(data) // 2)] = 0xEE
        return bytes(data)


def test_training_fails_closed_on_a_trace_that_decodes_with_a_gap():
    make_vm, workload = training_inputs("fdc")
    _fails_closed(make_vm, workload, _CorruptingTracer)


def test_training_fails_closed_on_dropped_packets():
    """A dropped packet leaves no mark in the stream; the tracer's
    count still refuses the trace."""
    plan = FaultPlan(5, (FaultSpec("ipt.drop", probability=0.01),))
    make_vm, workload = training_inputs("fdc")
    _fails_closed(make_vm, workload,
                  lambda: IPTTracer(injector=FaultInjector(plan)))
