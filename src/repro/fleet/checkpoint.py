"""Checkpoint/restore for a :class:`GuardedInstance`.

A checkpoint is a JSON-serializable, content-digest-stamped envelope
holding everything a tenant's verdicts depend on:

* per-part emulated device state (the control-structure bytes the
  restricted-Python device logic runs over, including the funcptr
  fields), interpreter cycles/steps/flags, and halt/fault latches;
* sparse backing stores — disk-image chunks, guest-memory chunks and
  their DMA counters, NIC rx/tx queues, IRQ line state;
* per-part **shadow checker** state (the ES-Checker's private copy of
  the device control structure) and checker cycle counts;
* instance bookkeeping: op serial, spec epoch/digest, quarantine state.

``restore_instance(checkpoint_instance(x))`` yields an instance whose
subsequent verdicts are byte-identical to ``x``'s on the same op
stream — the property live migration is certified against.  Envelopes
are sealed with a sha256 over their canonical JSON; a tampered or
truncated envelope is rejected before any state is touched.
"""

from __future__ import annotations

from typing import Dict

from repro.checker import Mode
from repro.errors import FleetError
from repro.policy.model import canonical_json, policy_digest

#: Envelope format version; bumped on any layout change.
CHECKPOINT_FORMAT = 1


def seal(envelope: Dict[str, object]) -> Dict[str, object]:
    """(Re)stamp the envelope's content digest over every other key."""
    body = {k: v for k, v in envelope.items() if k != "digest"}
    envelope["digest"] = policy_digest(body)
    return envelope


def verify(envelope) -> None:
    """Reject a tampered, truncated, or wrong-format envelope."""
    if not isinstance(envelope, dict):
        raise FleetError("checkpoint envelope must be an object")
    if envelope.get("format") != CHECKPOINT_FORMAT:
        raise FleetError(
            f"unsupported checkpoint format {envelope.get('format')!r}")
    body = {k: v for k, v in envelope.items() if k != "digest"}
    if envelope.get("digest") != policy_digest(body):
        raise FleetError("checkpoint envelope fails its content-digest "
                         "check (tampered or truncated)")


def envelope_bytes(envelope: Dict[str, object]) -> int:
    """Transfer size of the sealed envelope (canonical encoding)."""
    return len(canonical_json(envelope).encode())


def _sparse_obj(store) -> Dict[str, object]:
    return {"size": store.size,
            "chunks": {str(index): bytes(chunk).hex()
                       for index, chunk in sorted(store._chunks.items())}}


def _sparse_restore(store, obj) -> None:
    store.size = int(obj["size"])
    store._chunks = {int(index): bytearray(bytes.fromhex(data))
                     for index, data in obj["chunks"].items()}


def _device_obj(device, vm) -> Dict[str, object]:
    machine = device.machine
    out: Dict[str, object] = {
        "state": bytes(machine.state.data).hex(),
        "cycles": machine.cycles,
        "steps": machine.steps,
        "flags": {"overflow": machine.flags.overflow,
                  "last_store_field": machine.flags.last_store_field},
        "halted": device.halted,
        "fault": str(device.fault) if device.fault is not None else None,
    }
    disk = getattr(device, "disk", None)
    if disk is not None:
        out["disk"] = {"store": _sparse_obj(disk._store),
                       "size": disk.size,
                       "reads": disk.reads, "writes": disk.writes}
    net = getattr(device, "net", None)
    if net is not None:
        out["net"] = {
            "rx": [[frame.payload.hex(), frame.timestamp]
                   for frame in net.rx_queue],
            "tx": [[frame.payload.hex(), frame.timestamp]
                   for frame in net.tx_frames],
            "tx_bytes": net.tx_bytes, "rx_bytes": net.rx_bytes}
    irq = getattr(device, "irq_line", None)
    if irq is not None:
        out["irq"] = {"level": irq.level, "raise_count": irq.raise_count}
    memory = getattr(device, "memory", None)
    if memory is not None and memory is not vm.memory:
        # Non-DMA device with a private guest-memory object (DMA devices
        # share vm.memory, captured once at the VM level).
        out["memory"] = {"store": _sparse_obj(memory._store),
                         "size": memory.size,
                         "dma_reads": memory.dma_reads,
                         "dma_writes": memory.dma_writes}
    return out


def _device_restore(device, vm, obj) -> None:
    machine = device.machine
    machine.state.data[:] = bytes.fromhex(obj["state"])
    machine.cycles = obj["cycles"]
    machine.steps = obj["steps"]
    machine.flags.overflow = obj["flags"]["overflow"]
    machine.flags.last_store_field = obj["flags"]["last_store_field"]
    device.halted = obj["halted"]
    device.fault = obj["fault"]
    if "disk" in obj:
        disk = device.disk
        _sparse_restore(disk._store, obj["disk"]["store"])
        disk.size = obj["disk"]["size"]
        disk.reads = obj["disk"]["reads"]
        disk.writes = obj["disk"]["writes"]
    if "net" in obj:
        from collections import deque
        from repro.devices.backends import NetFrame
        net = device.net
        net.rx_queue = deque(
            NetFrame(bytes.fromhex(payload), ts)
            for payload, ts in obj["net"]["rx"])
        net.tx_frames = [NetFrame(bytes.fromhex(payload), ts)
                         for payload, ts in obj["net"]["tx"]]
        net.tx_bytes = obj["net"]["tx_bytes"]
        net.rx_bytes = obj["net"]["rx_bytes"]
    if "irq" in obj:
        device.irq_line.level = obj["irq"]["level"]
        device.irq_line.raise_count = obj["irq"]["raise_count"]
    if "memory" in obj:
        memory = device.memory
        _sparse_restore(memory._store, obj["memory"]["store"])
        memory.size = obj["memory"]["size"]
        memory.dma_reads = obj["memory"]["dma_reads"]
        memory.dma_writes = obj["memory"]["dma_writes"]


def checkpoint_instance(instance) -> Dict[str, object]:
    """Capture a sealed, JSON-serializable checkpoint of *instance*."""
    vm = instance.vm
    envelope: Dict[str, object] = {
        "format": CHECKPOINT_FORMAT,
        "tenant": instance.tenant,
        "device": instance.device_name,
        "qemu_version": instance.qemu_version,
        "mode": instance.mode.value,
        "backend": instance.backend,
        "batch_rounds": instance.batch_rounds,
        "spec_epoch": instance.spec_epoch,
        "spec_digest": instance.spec_digest,
        "op_serial": instance._op_serial,
        "quarantined": instance.quarantined,
        "quarantine_reason": instance.quarantine_reason,
        "vm": {
            "memory": {"store": _sparse_obj(vm.memory._store),
                       "size": vm.memory.size,
                       "dma_reads": vm.memory.dma_reads,
                       "dma_writes": vm.memory.dma_writes},
            "stats": {"io_rounds": vm.stats.io_rounds,
                      "vmexit_cycles": vm.stats.vmexit_cycles,
                      "device_cycles": vm.stats.device_cycles,
                      "checker_cycles": vm.stats.checker_cycles},
        },
        "devices": {part: _device_obj(device, vm)
                    for part, device in sorted(vm.devices.items())},
        "checkers": {
            part: {
                "state": bytes(att.checker.device_state.memory.data).hex(),
                "cycles": att.checker.cycles,
                "checked_rounds": att.checked_rounds,
            }
            for part, att in sorted(instance.attachments.items())},
    }
    return seal(envelope)


def restore_instance(envelope, spec, *, injector=None):
    """Rebuild a :class:`GuardedInstance` from a sealed checkpoint.

    The instance skeleton (VM, device, driver, deployed checkers) is
    rebuilt from the profile — drivers are stateless, so bring-up needs
    no replay — and the serialized state is overlaid on top: device
    control-structure bytes (funcptr wiring included, since ``bind_externs``
    stores function addresses as field values), backing stores, and the
    checkers' shadow state.  *spec* must be the same spec (or per-part
    spec dict) the checkpointed instance ran under — the worker resolves
    it from the envelope's ``spec_digest`` via the shared registry.
    """
    from repro.fleet.instance import GuardedInstance

    verify(envelope)
    instance = GuardedInstance(
        envelope["tenant"], envelope["device"],
        envelope["qemu_version"], spec,
        mode=Mode(envelope["mode"]), backend=envelope["backend"],
        injector=injector,
        batch_rounds=envelope.get("batch_rounds", 0))
    vm = instance.vm
    mem = envelope["vm"]["memory"]
    _sparse_restore(vm.memory._store, mem["store"])
    vm.memory.size = mem["size"]
    vm.memory.dma_reads = mem["dma_reads"]
    vm.memory.dma_writes = mem["dma_writes"]
    stats = envelope["vm"]["stats"]
    vm.stats.io_rounds = stats["io_rounds"]
    vm.stats.vmexit_cycles = stats["vmexit_cycles"]
    vm.stats.device_cycles = stats["device_cycles"]
    vm.stats.checker_cycles = stats["checker_cycles"]
    for part, obj in envelope["devices"].items():
        device = vm.devices.get(part)
        if device is None:
            raise FleetError(f"checkpoint names unknown device part "
                             f"{part!r}")
        _device_restore(device, vm, obj)
    for part, obj in envelope["checkers"].items():
        attachment = instance.attachments.get(part)
        if attachment is None:
            raise FleetError(f"checkpoint names unknown checker part "
                             f"{part!r}")
        attachment.checker.device_state.memory.data[:] = \
            bytes.fromhex(obj["state"])
        attachment.checker.cycles = obj["cycles"]
        attachment.checked_rounds = obj["checked_rounds"]
    instance.spec_epoch = envelope["spec_epoch"]
    instance.spec_digest = envelope["spec_digest"]
    instance._op_serial = envelope["op_serial"]
    instance.quarantined = envelope["quarantined"]
    instance.quarantine_reason = envelope["quarantine_reason"]
    return instance
