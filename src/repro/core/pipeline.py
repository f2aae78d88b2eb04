"""The SEDSpec pipeline facade: Figure 1's three phases, end to end.

Phase ① data collection: run benign training samples twice — once under
the IPT tracer to build the ITC-CFG and select device-state parameters,
once under the observation-point logger to produce the device state
change log.  Phase ② construction: Algorithm 1 + reduction + dependency
recovery.  Phase ③ runtime protection: deploy the spec via
:meth:`GuestVM.attach_sedspec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.analysis import ObservationLogger, analyze_taint, select_parameters
from repro.analysis.params import ParamSelection
from repro.cfg import ITCCFG, build_itc_cfg
from repro.checker import ALL_STRATEGIES, DEFAULT_BACKEND, Mode
from repro.devices.base import Device
from repro.ipt import Decoder, IPTTracer
from repro.spec import ExecutionSpec, build_spec
from repro.vm.machine import Attachment, GuestVM

#: Builds a fresh (vm, device) pair — training needs clean boots.
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
    """Run the full offline pipeline for one device."""
    # -- pass 1: IPT trace -> ITC-CFG -> parameter selection ---------------
    vm, device = make_vm()
    tracer = device.machine.add_sink(IPTTracer())
    workload(vm, device)
    rounds = Decoder(device.program).decode_stream(tracer.packets)
    itc = build_itc_cfg(device.program, rounds)
    selection = select_parameters(device.program, itc)

    # -- pass 2: observation points -> device state change log --------------
    # Block-type auxiliary info (command decision/end) comes from the
    # taint analysis and is recorded by the instrumented points.
    vm, device = make_vm()
    taint = analyze_taint(device.program)
    logger = device.machine.add_sink(ObservationLogger(
        device.NAME, selection.scalar_params | selection.funcptrs,
        selection.buffers,
        decision_blocks=taint.command_decision_blocks,
        end_blocks=taint.command_end_blocks))
    workload(vm, device)

    # -- phase 2: construction ------------------------------------------------
    spec = build_spec(device.program, logger.log, selection, taint,
                      reduce_cfg=reduce_cfg)
    return TrainingArtifacts(spec=spec, selection=selection, itc=itc,
                             training_rounds=len(logger.log.rounds))


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
    discipline (see :meth:`GuestVM.attach_sedspec`)."""
    return vm.attach_sedspec(device.NAME, spec, mode=mode,
                             strategies=strategies, backend=backend,
                             recorder=recorder,
                             batch_rounds=batch_rounds)
