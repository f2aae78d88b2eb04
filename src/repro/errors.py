"""Exception hierarchy shared across the SEDSpec reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
distinguish reproduction-infrastructure failures from genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Malformed IR: unknown block, bad operand types, broken invariants."""


class CompileError(ReproError):
    """The restricted-Python front end rejected a device source construct."""

    def __init__(self, message: str, lineno: int = 0, func: str = ""):
        self.lineno = lineno
        self.func = func
        prefix = f"{func}:{lineno}: " if func else ""
        super().__init__(prefix + message)


class InterpError(ReproError):
    """The IR interpreter hit an unrecoverable condition (not a device fault)."""


class DeviceFault(ReproError):
    """The emulated device crashed — the analogue of a QEMU segfault/abort.

    Raised e.g. when an out-of-bounds access leaves the device control
    structure entirely, or when an indirect call targets a non-code address.
    A :class:`DeviceFault` escaping to the VM is what a successful
    denial-of-service exploit looks like in this reproduction.
    """

    def __init__(self, message: str, device: str = "", kind: str = "fault"):
        self.device = device
        self.kind = kind
        super().__init__(f"[{device or 'device'}:{kind}] {message}")


class TraceError(ReproError):
    """IPT packet stream could not be encoded or decoded."""


class TruncatedTraceError(TraceError):
    """Trace container file is shorter than its own framing claims.

    Carries the byte offset at which the missing data was expected, so
    tooling can report exactly where a copy or capture was cut short."""

    def __init__(self, message: str, offset: int = 0):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class DecodeError(TraceError):
    """Typed decode failure: carries the byte offset where parsing died
    and the packets successfully decoded before it, so resynchronization
    can resume from the next PSB instead of discarding the stream."""

    def __init__(self, message: str, offset: int = 0, packets=()):
        self.offset = offset
        self.packets = list(packets)
        super().__init__(f"{message} (offset {offset})")


class InfraError(ReproError):
    """The enforcement *machinery* failed (trace loss, a transient
    interpreter fault, a stalled check) — an infrastructure condition,
    never a security verdict.  Degradation policies decide what a round
    that hit one of these means; it must never quarantine a tenant."""

    def __init__(self, message: str, kind: str = "infra"):
        self.kind = kind
        super().__init__(message)


class SpecError(ReproError):
    """Execution-specification construction or (de)serialization failed."""


class CheckerError(ReproError):
    """ES-Checker internal error (distinct from a detected anomaly)."""


class WorkloadError(ReproError):
    """A workload/benchmark harness was misconfigured."""


class GuestError(ReproError):
    """A guest driver observed a protocol violation from its device."""


class FleetError(ReproError):
    """The fleet enforcement service hit a control-plane failure
    (misconfiguration, stalled workers, respawn budget exhausted)."""


class PolicyError(ReproError):
    """A tenant resilience-policy document failed validation, or a
    policy artifact failed its content-digest check.  Raised eagerly at
    load so a malformed policy never disturbs a running fleet."""


class GatewayError(ReproError):
    """The admission gateway was misconfigured or broke an internal
    invariant (empty hash ring, unknown arrival pattern, lost events)."""
