"""Device framework: versioned compilation, extern binding, I/O dispatch.

A :class:`Device` wraps a compiled :class:`DeviceLogic` the way QEMU wraps
a device model: it owns the control structure (via the interpreter
machine), binds host-side helpers (DMA, IRQ, backing media), and exposes
the PMIO/MMIO handlers that the VM dispatches into.

``qemu_version`` drives compile-time gating: every device declares which
CVEs its source carries and the version each was fixed in; building at an
older version folds the vulnerable code path in, a newer one the patched
path — one source tree, two binaries, exactly like checking out the
matching QEMU tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from repro.compiler import DeviceLogic, compile_device
from repro.errors import DeviceFault, WorkloadError
from repro.interp import DEFAULT_BACKEND, Machine
from repro.ir import Program, StateMemory


def parse_version(version: str) -> Tuple[int, ...]:
    """``"2.6.0"`` → ``(2, 6, 0)`` (strict numeric dotted versions)."""
    try:
        return tuple(int(part) for part in version.split("."))
    except ValueError:
        raise WorkloadError(f"bad version string {version!r}") from None


def version_lt(a: str, b: str) -> bool:
    return parse_version(a) < parse_version(b)


@dataclass(frozen=True)
class CveGate:
    """One seeded vulnerability: the const gating it and its fix version."""

    cve: str
    const: str
    fixed_in: str
    description: str = ""

    def active_in(self, qemu_version: str) -> bool:
        return version_lt(qemu_version, self.fixed_in)


#: (logic class, sorted const overrides) -> frozen Program.  A frozen
#: program is immutable and every Machine owns its own StateMemory, so
#: devices built at the same version can share one compile (and with it
#: the per-program bytecode backend artifact cached on it).
_PROGRAM_CACHE: Dict[Tuple[type, Tuple[Tuple[str, int], ...]],
                     Program] = {}


def _compile_cached(logic: Type[DeviceLogic],
                    overrides: Dict[str, int]) -> Program:
    key = (logic, tuple(sorted(overrides.items())))
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = compile_device(logic, const_overrides=overrides)
        _PROGRAM_CACHE[key] = program
    return program


class Device:
    """Base class for the five emulated devices.

    Subclasses set :attr:`LOGIC` (the compilable DeviceLogic),
    :attr:`NAME`, :attr:`CVES` (gates), and override :meth:`bind_externs`
    and :meth:`reset` for device-specific wiring.
    """

    LOGIC: Type[DeviceLogic]
    NAME: str = ""
    CVES: Tuple[CveGate, ...] = ()
    #: extern name -> cycle cost (device-specific overrides)
    EXTERN_COSTS: Dict[str, int] = {}

    def __init__(self, qemu_version: str = "99.0.0",
                 max_steps: int = 200_000, backend: str = DEFAULT_BACKEND):
        self.qemu_version = qemu_version
        overrides = {gate.const: int(gate.active_in(qemu_version))
                     for gate in self.CVES}
        self.program: Program = _compile_cached(self.LOGIC, overrides)
        self.machine = Machine(self.program, max_steps=max_steps,
                               backend=backend)
        self.halted = False
        self.fault: Optional[DeviceFault] = None
        self.bind_externs()
        self.reset()

    # -- subclass hooks ------------------------------------------------------

    def bind_externs(self) -> None:
        """Bind host helpers into the machine (override per device)."""

    def reset(self) -> None:
        """Device reset: initial register values, funcptr wiring."""

    # -- introspection ----------------------------------------------------------

    @property
    def state(self) -> StateMemory:
        return self.machine.state

    def active_cves(self) -> Tuple[str, ...]:
        return tuple(g.cve for g in self.CVES
                     if g.active_in(self.qemu_version))

    def snapshot(self) -> StateMemory:
        return self.state.snapshot()

    # -- I/O entry ----------------------------------------------------------------

    def handle_io(self, key: str, args: Tuple[int, ...] = ()) -> Optional[int]:
        """Run one I/O round; device faults latch the device into a halted
        (crashed) condition, the analogue of the QEMU worker dying."""
        if self.halted:
            raise DeviceFault(f"{self.NAME} is halted after a fault",
                              device=self.NAME, kind="halted")
        try:
            return self.machine.run_entry(key, args)
        except DeviceFault as fault:
            self.halted = True
            self.fault = fault
            raise

    def io_keys(self) -> Tuple[str, ...]:
        return tuple(self.program.entry_handlers)


Factory = Callable[..., Device]

_REGISTRY: Dict[str, Type[Device]] = {}


def register_device(cls: Type[Device]) -> Type[Device]:
    """Class decorator: make a device constructible by name."""
    if not cls.NAME:
        raise WorkloadError(f"{cls.__name__} has no NAME")
    _REGISTRY[cls.NAME] = cls
    return cls


def device_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def create_device(name: str, **kwargs) -> Device:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown device {name!r}; known: {device_names()}") from None
    return cls(**kwargs)
