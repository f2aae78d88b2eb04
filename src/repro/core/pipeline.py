"""The SEDSpec pipeline facade: Figure 1's three phases, end to end.

Phase ① data collection: run the benign training samples once, on one
VM, under two sinks at the same time — the IPT tracer, whose decoded
trace becomes the ITC-CFG from which the device-state parameters are
selected, and the observation-point logger, which records every field
and buffer so that its device state change log can be projected onto
that selection afterwards.  Phase ② construction: Algorithm 1 +
reduction + dependency recovery.  Phase ③ runtime protection: deploy
the spec via :meth:`GuestVM.attach_sedspec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.analysis import ObservationLogger, analyze_taint, select_parameters
from repro.analysis.params import ParamSelection
from repro.cfg import ITCCFG, build_itc_cfg
from repro.checker import ALL_STRATEGIES, DEFAULT_BACKEND, Mode
from repro.devices.base import Device
from repro.errors import TraceError
from repro.ipt import Decoder, IPTTracer
from repro.spec import ExecutionSpec, build_spec
from repro.vm.machine import Attachment, GuestVM

#: Builds a fresh (vm, device) pair — training needs a clean boot.
MakeVM = Callable[[], Tuple[GuestVM, Device]]
#: Drives benign training traffic through the vm/device.
Workload = Callable[[GuestVM, Device], None]


@dataclass
class TrainingArtifacts:
    """Everything phase ① and ② produced (useful for inspection/tests)."""

    spec: ExecutionSpec
    selection: ParamSelection
    itc: ITCCFG
    training_rounds: int


def build_execution_spec(make_vm: MakeVM, workload: Workload,
                         reduce_cfg: bool = True) -> TrainingArtifacts:
    """Run the full offline pipeline for one device.

    The workload runs once.  The trace decodes to the ITC-CFG and the
    parameter selection exactly as a trace-only run would, and the log,
    recorded for every field and buffer, is projected onto the
    selection: the same log a second run under a logger built with the
    selection would record.  A trace with any gap fails training with
    :class:`TraceError`: a path with a hole in it is not a benign
    execution to learn from.
    """
    vm, device = make_vm()
    program = device.program
    # Block-type auxiliary info (command decision/end) comes from the
    # static taint analysis and is recorded by the instrumented points.
    taint = analyze_taint(program)
    layout = program.layout
    tracer = device.machine.add_sink(IPTTracer())
    logger = device.machine.add_sink(ObservationLogger(
        device.NAME,
        {decl.name for decl in layout.fields if not decl.is_buffer},
        {decl.name for decl in layout.fields if decl.is_buffer},
        decision_blocks=taint.command_decision_blocks,
        end_blocks=taint.command_end_blocks))
    workload(vm, device)
    # The training VM is cyclic garbage once this returns; detached, the
    # trace and the log are freed as soon as the spec is built instead of
    # at the collector's next full pass.
    device.machine.remove_sink(tracer)
    device.machine.remove_sink(logger)

    # -- IPT trace -> ITC-CFG -> parameter selection --------------------------
    if tracer.dropped:
        raise TraceError(f"training trace of {device.NAME} lost "
                         f"{tracer.dropped} packet(s) in capture")
    rounds, result = Decoder(program).decode_bytes(tracer.raw())
    if not result.ok:
        raise TraceError(f"training trace of {device.NAME} has "
                         f"{result.overflows()} gap(s)")
    itc = build_itc_cfg(program, rounds)
    selection = select_parameters(program, itc)

    # -- phase 2: construction over the projected log -------------------------
    log = logger.log.project(selection.scalar_params | selection.funcptrs,
                             selection.buffers)
    spec = build_spec(program, log, selection, taint,
                      reduce_cfg=reduce_cfg)
    return TrainingArtifacts(spec=spec, selection=selection, itc=itc,
                             training_rounds=len(log.rounds))


def deploy(vm: GuestVM, device: Device, spec: ExecutionSpec,
           mode: Mode = Mode.ENHANCEMENT,
           strategies=ALL_STRATEGIES,
           backend: str = DEFAULT_BACKEND,
           recorder=None,
           batch_rounds: int = 0) -> Attachment:
    """Phase ③: put the ES-Checker in front of the device.

    Pass a :class:`repro.telemetry.Recorder` to observe the deployed
    checker (per-strategy check counts, round latency); telemetry stays
    off otherwise.  ``batch_rounds > 0`` opts into the credit-batch
    discipline: strict-key rounds run on the device first and are vetted
    at the next flush, one ``check_io`` per round (see
    :meth:`GuestVM.attach_sedspec`)."""
    return vm.attach_sedspec(device.NAME, spec, mode=mode,
                             strategies=strategies, backend=backend,
                             recorder=recorder,
                             batch_rounds=batch_rounds)
