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

Every byte blob — each allocated guest-memory or disk chunk and both
control structures — travels as a *page map*: the hex of its non-zero
512-byte pages, keyed by page index (format 2).  A zero page is the
absence of its key, so a 64 KiB chunk a guest touched once costs one
page, and an allocated all-zero chunk is an empty map.  The receiver
decodes each map into a zero-filled buffer of its own size, so an
omitted page reads as zero and no structure changes size.

``restore_instance(checkpoint_instance(x))`` yields an instance whose
subsequent verdicts are byte-identical to ``x``'s on the same op
stream — the property live migration is certified against.  Envelopes
are sealed with a sha256 over their canonical JSON; a tampered or
truncated envelope is rejected before any state is touched.  The
digest is a content address, not a MAC, so the restore also validates
every value it reads — presence, type, range, page geometry — and
refuses a re-sealed malformed envelope with a :class:`FleetError`
naming the bad path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

from repro.checker import BACKENDS, Mode
from repro.devices.backends import _CHUNK_SIZE, NetFrame
from repro.devices.base import parse_version
from repro.errors import FleetError, WorkloadError
from repro.policy.model import canonical_json, policy_digest
from repro.workloads.profiles import PROFILES, split_device

#: Envelope format version; bumped on any layout change.
CHECKPOINT_FORMAT = 2

#: Page granule of the envelope's byte blobs.
PAGE_SIZE = 512
_ZERO_PAGE = bytes(PAGE_SIZE)

_MODES = frozenset(mode.value for mode in Mode)

_OPTIONAL_STR = (str, type(None))
_KIND_NAMES = {int: "a non-negative int", bool: "a bool", str: "a string",
               dict: "an object", list: "a list",
               _OPTIONAL_STR: "a string or null"}


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


# -- validated reads ---------------------------------------------------------

def need(obj, key: str, path: str, kind=int):
    """``obj[key]``, refused with a :class:`FleetError` naming
    ``path + key`` unless it is present and a *kind* (see
    :func:`_check`)."""
    if not isinstance(obj, dict) or key not in obj:
        raise FleetError(f"checkpoint lacks {path}{key}")
    return _check(obj[key], path + key, kind)


def _check(value, where: str, kind=int):
    """*value*, which must be a non-negative int (never a bool) when
    *kind* is ``int``, else an instance of *kind*."""
    if kind is int:
        ok = type(value) is int and value >= 0
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise FleetError(f"checkpoint {where} is not "
                         f"{_KIND_NAMES[kind]}: {value!r:.60}")
    return value


def _index(key, limit: int, path: str) -> int:
    """A map key that must be the canonical decimal of an index in
    ``[0, limit)``."""
    try:
        index = int(key)
    except (TypeError, ValueError):
        index = -1
    if str(index) != key or not 0 <= index < limit:
        raise FleetError(f"checkpoint {path} has bad index {key!r:.60} "
                         f"(limit {limit})")
    return index


def _hex(text, where: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except (TypeError, ValueError):
        raise FleetError(f"checkpoint {where} is not hex") from None


# -- the page codec ----------------------------------------------------------

def _pages(blob) -> Dict[str, str]:
    """*blob*'s non-zero pages as hex, keyed by page index."""
    size = len(blob)
    return {str(offset // PAGE_SIZE): blob[offset:offset + PAGE_SIZE].hex()
            for offset in range(0, size, PAGE_SIZE)
            if not blob.startswith(_ZERO_PAGE[:size - offset], offset)}


def _unpage(pages, size: int, path: str) -> bytearray:
    """A zero-filled *size*-byte buffer with the page map *pages*
    decoded over it; every page must lie inside the buffer and be
    exactly as long as the buffer leaves room for."""
    if not isinstance(pages, dict):
        raise FleetError(f"checkpoint {path} is not a page map")
    buf = bytearray(size)
    limit = -(-size // PAGE_SIZE)
    for key, text in pages.items():
        offset = _index(key, limit, path) * PAGE_SIZE
        length = min(PAGE_SIZE, size - offset)
        page = _hex(text, f"{path}.{key}")
        if len(page) != length:
            raise FleetError(f"checkpoint {path}.{key} holds {len(page)} "
                             f"bytes, not {length}")
        buf[offset:offset + length] = page
    return buf


def _store_obj(backend, counters) -> Dict[str, object]:
    """A sparse backend: page maps of its allocated chunks plus its
    access counters."""
    out: Dict[str, object] = {
        "chunks": {str(index): _pages(chunk)
                   for index, chunk in sorted(backend._store._chunks.items())}}
    for name in counters:
        out[name] = getattr(backend, name)
    return out


def _store_restore(backend, obj, counters, path: str) -> None:
    store = backend._store
    limit = -(-store.size // _CHUNK_SIZE)
    store._chunks = {
        _index(key, limit, f"{path}chunks"):
            _unpage(pages, _CHUNK_SIZE, f"{path}chunks.{key}")
        for key, pages in need(obj, "chunks", path, dict).items()}
    for name in counters:
        setattr(backend, name, need(obj, name, path))


_MEMORY_COUNTERS = ("dma_reads", "dma_writes")
_DISK_COUNTERS = ("reads", "writes")
_NET_COUNTERS = ("tx_bytes", "rx_bytes")
_STATS = ("io_rounds", "vmexit_cycles", "device_cycles", "checker_cycles")


# -- checkpoint --------------------------------------------------------------

def _device_obj(device, vm) -> Dict[str, object]:
    machine = device.machine
    out: Dict[str, object] = {
        "state": _pages(machine.state.data),
        "cycles": machine.cycles,
        "steps": machine.steps,
        "flags": {"overflow": machine.flags.overflow,
                  "last_store_field": machine.flags.last_store_field},
        "halted": device.halted,
        "fault": str(device.fault) if device.fault is not None else None,
    }
    disk = getattr(device, "disk", None)
    if disk is not None:
        out["disk"] = _store_obj(disk, _DISK_COUNTERS)
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
        out["memory"] = _store_obj(memory, _MEMORY_COUNTERS)
    return out


def _envelope(instance) -> Dict[str, object]:
    """The unsealed checkpoint of *instance*."""
    vm = instance.vm
    return {
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
            "memory": _store_obj(vm.memory, _MEMORY_COUNTERS),
            "stats": {name: getattr(vm.stats, name) for name in _STATS},
        },
        "devices": {part: _device_obj(device, vm)
                    for part, device in sorted(vm.devices.items())},
        "checkers": {
            part: {
                "state": _pages(att.checker.device_state.memory.data),
                "cycles": att.checker.cycles,
                "checked_rounds": att.checked_rounds,
            }
            for part, att in sorted(instance.attachments.items())},
    }


def checkpoint_instance(instance) -> Dict[str, object]:
    """Capture a sealed, JSON-serializable checkpoint of *instance*."""
    return seal(_envelope(instance))


# -- restore -----------------------------------------------------------------

def _header(envelope) -> Dict[str, object]:
    """The envelope's instance header, validated: what the receiver
    needs to resolve the spec and rebuild the skeleton."""
    header = {key: need(envelope, key, "", kind) for key, kind in (
        ("tenant", str), ("device", str), ("qemu_version", str),
        ("mode", str), ("backend", str), ("batch_rounds", int),
        ("spec_epoch", int), ("spec_digest", str), ("op_serial", int),
        ("quarantined", bool), ("quarantine_reason", str))}
    parts = split_device(header["device"])
    if (not parts or "+".join(parts) != header["device"]
            or len(set(parts)) != len(parts)
            or not all(part in PROFILES for part in parts)):
        raise FleetError(f"checkpoint device names no device profile: "
                         f"{header['device']!r}")
    try:
        parse_version(header["qemu_version"])
    except WorkloadError:
        raise FleetError(f"checkpoint qemu_version is not a version: "
                         f"{header['qemu_version']!r}") from None
    if header["mode"] not in _MODES:
        raise FleetError(f"checkpoint mode names no mode: "
                         f"{header['mode']!r}")
    if header["backend"] not in BACKENDS:
        raise FleetError(f"checkpoint backend names no backend: "
                         f"{header['backend']!r}")
    header["parts"] = set(parts)
    return header


def _parts(envelope, key: str, parts) -> Dict[str, object]:
    """The per-part section *key*, which must name exactly *parts*."""
    section = need(envelope, key, "", dict)
    if set(section) != parts:
        raise FleetError(f"checkpoint {key} names parts "
                         f"{sorted(section, key=str)!r}, the device has "
                         f"{sorted(parts)!r}")
    return section


def _device_restore(device, vm, obj, path: str) -> None:
    machine = device.machine
    data = machine.state.data
    data[:] = _unpage(need(obj, "state", path, dict), len(data),
                      f"{path}state")
    machine.cycles = need(obj, "cycles", path)
    machine.steps = need(obj, "steps", path)
    flags = need(obj, "flags", path, dict)
    machine.flags.overflow = need(flags, "overflow", f"{path}flags.", bool)
    machine.flags.last_store_field = need(flags, "last_store_field",
                                          f"{path}flags.", str)
    device.halted = need(obj, "halted", path, bool)
    device.fault = need(obj, "fault", path, _OPTIONAL_STR)
    disk = getattr(device, "disk", None)
    if disk is not None:
        _store_restore(disk, need(obj, "disk", path, dict), _DISK_COUNTERS,
                       f"{path}disk.")
    net = getattr(device, "net", None)
    if net is not None:
        section = need(obj, "net", path, dict)
        net.rx_queue = deque(_frames(section, "rx", f"{path}net."))
        net.tx_frames = _frames(section, "tx", f"{path}net.")
        for name in _NET_COUNTERS:
            setattr(net, name, need(section, name, f"{path}net."))
    irq = getattr(device, "irq_line", None)
    if irq is not None:
        section = need(obj, "irq", path, dict)
        level = need(section, "level", f"{path}irq.")
        if level > 1:
            raise FleetError(f"checkpoint {path}irq.level is not 0 or 1: "
                             f"{level!r}")
        irq.level = level
        irq.raise_count = need(section, "raise_count", f"{path}irq.")
    memory = getattr(device, "memory", None)
    if memory is not None and memory is not vm.memory:
        _store_restore(memory, need(obj, "memory", path, dict),
                       _MEMORY_COUNTERS, f"{path}memory.")


def _frames(obj, key: str, path: str):
    """A NIC queue: ``[payload hex, timestamp]`` pairs."""
    frames = []
    for i, pair in enumerate(need(obj, key, path, list)):
        where = f"{path}{key}.{i}"
        if not isinstance(pair, list) or len(pair) != 2:
            raise FleetError(f"checkpoint {where} is not a "
                             f"[payload, timestamp] pair")
        frames.append(NetFrame(_hex(pair[0], f"{where}.0"),
                               _check(pair[1], f"{where}.1")))
    return frames


def _restore(envelope, header, spec, injector=None):
    """Rebuild a :class:`GuardedInstance` from a verified envelope and
    its validated *header*, validating every other value it reads.
    Nothing outside the new instance is touched, so a refusal leaves
    the caller as it was."""
    from repro.fleet.instance import GuardedInstance

    parts = header["parts"]
    vm_obj = need(envelope, "vm", "", dict)
    devices = _parts(envelope, "devices", parts)
    checkers = _parts(envelope, "checkers", parts)
    instance = GuardedInstance(
        header["tenant"], header["device"], header["qemu_version"], spec,
        mode=Mode(header["mode"]), backend=header["backend"],
        injector=injector, batch_rounds=header["batch_rounds"])
    vm = instance.vm
    if set(vm.devices) != parts or set(instance.attachments) != parts:
        raise FleetError(f"checkpoint parts {sorted(parts)!r} do not match "
                         f"the rebuilt instance")
    _store_restore(vm.memory, need(vm_obj, "memory", "vm.", dict),
                   _MEMORY_COUNTERS, "vm.memory.")
    stats = need(vm_obj, "stats", "vm.", dict)
    for name in _STATS:
        setattr(vm.stats, name, need(stats, name, "vm.stats."))
    for part, obj in devices.items():
        _device_restore(vm.devices[part], vm, obj, f"devices.{part}.")
    for part, obj in checkers.items():
        path = f"checkers.{part}."
        attachment = instance.attachments[part]
        data = attachment.checker.device_state.memory.data
        data[:] = _unpage(need(obj, "state", path, dict), len(data),
                          f"{path}state")
        attachment.checker.cycles = need(obj, "cycles", path)
        attachment.checked_rounds = need(obj, "checked_rounds", path)
    instance.spec_epoch = header["spec_epoch"]
    instance.spec_digest = header["spec_digest"]
    instance._op_serial = header["op_serial"]
    instance.quarantined = header["quarantined"]
    instance.quarantine_reason = header["quarantine_reason"]
    return instance


def restore_instance(envelope, spec, *, injector=None):
    """Rebuild a :class:`GuardedInstance` from a sealed checkpoint.

    The instance skeleton (VM, device, driver, deployed checkers) is
    rebuilt from the profile — drivers are stateless, so bring-up needs
    no replay — and the serialized state replaces the skeleton's:
    device control-structure bytes (funcptr wiring included, since
    ``bind_externs`` stores function addresses as field values), backing
    stores, and the checkers' shadow state.  *spec* must be the same
    spec (or per-part spec dict) the checkpointed instance ran under —
    the worker resolves it from the envelope's ``spec_digest`` via the
    shared registry.
    """
    verify(envelope)
    return _restore(envelope, _header(envelope), spec, injector)
