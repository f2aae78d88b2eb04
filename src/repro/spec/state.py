"""The *device state* of an execution specification (Section V-A.1).

A separate data structure from the emulated device's control structure: it
is initialized from the control structure when the device boots, and from
then on SEDSpec evolves it using only I/O data and the ES-CFG.

The shadow is a byte-exact, flat-layout clone of the control structure.
That choice is load-bearing: when the ES-Checker simulates a DSOD store
through an out-of-range index, the shadow corrupts the *same neighbouring
field* the real device would — so a function pointer clobbered by a buffer
overflow is already wrong in the shadow when the indirect-jump check
inspects it, one step before the real device would have made the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.errors import SpecError
from repro.ir import BufType, FuncPtrType, IntType, StateLayout, StateMemory


@dataclass
class FieldInfo:
    """Type metadata for one device-state parameter (the LLVM-IR-metadata
    analogue that the parameter check strategy reads)."""

    name: str
    bits: int
    signed: bool
    is_funcptr: bool = False


@dataclass
class BufferInfo:
    """Declared geometry of one device-state buffer."""

    name: str
    elem_bits: int
    length: int


class DeviceState:
    """SEDSpec's shadow of the device control structure."""

    def __init__(self, layout: StateLayout, param_fields: Set[str],
                 param_buffers: Set[str],
                 memory: Optional[StateMemory] = None):
        self.layout = layout
        self.param_fields = set(param_fields)
        self.param_buffers = set(param_buffers)
        self.memory = memory if memory is not None else StateMemory(layout)
        self.fields: Dict[str, FieldInfo] = {}
        self.buffers: Dict[str, BufferInfo] = {}
        for name in param_fields:
            decl = layout.field(name)
            if isinstance(decl.type, FuncPtrType):
                self.fields[name] = FieldInfo(name, 64, False,
                                              is_funcptr=True)
            elif isinstance(decl.type, IntType):
                self.fields[name] = FieldInfo(name, decl.type.bits,
                                              decl.type.signed)
            else:
                raise SpecError(
                    f"{name} is a buffer; list it in param_buffers")
        for name in param_buffers:
            decl = layout.field(name)
            if not isinstance(decl.type, BufType):
                raise SpecError(f"{name} is not a buffer")
            self.buffers[name] = BufferInfo(name, decl.type.elem.bits,
                                            decl.type.length)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def from_layout(cls, layout: StateLayout, param_fields: Set[str],
                    param_buffers: Set[str]) -> "DeviceState":
        return cls(layout, param_fields, param_buffers)

    def sync_from(self, memory: StateMemory) -> None:
        """Boot-time initialization from the real control structure."""
        self.memory.data[:] = memory.data

    def clone(self) -> "DeviceState":
        """Checker hot path: one clone per I/O round.  The type metadata
        is immutable after construction, so share it and copy only the
        backing memory instead of re-deriving everything via __init__."""
        twin = DeviceState.__new__(DeviceState)
        twin.layout = self.layout
        twin.param_fields = self.param_fields
        twin.param_buffers = self.param_buffers
        twin.memory = self.memory.snapshot()
        twin.fields = self.fields
        twin.buffers = self.buffers
        return twin

    # -- access (range checks are the ES-Checker's job) ------------------------

    def read_field(self, name: str) -> int:
        return self.memory.read_field(name)

    def write_field(self, name: str, value: int) -> None:
        """Store with C wrap semantics (overflow was checked *before*)."""
        self.memory.write_field(name, value)

    def in_range(self, name: str, value: int) -> bool:
        """Would *value* fit the declared type without wrapping?"""
        decl = self.layout.field(name)
        if isinstance(decl.type, FuncPtrType):
            return 0 <= value < (1 << 64)
        if isinstance(decl.type, IntType):
            return decl.type.contains(value)
        raise SpecError(f"{name} is not a scalar field")

    def buffer_length(self, name: str) -> int:
        decl = self.layout.field(name)
        if not isinstance(decl.type, BufType):
            raise SpecError(f"{name!r} is not a buffer")
        return decl.type.length

    def index_in_bounds(self, name: str, index: int) -> bool:
        return 0 <= index < self.buffer_length(name)

    def read_buf(self, name: str, index: int) -> int:
        """Flat-layout read: an OOB index reads the neighbouring field,
        exactly as the device would (may raise DeviceFault far OOB)."""
        return self.memory.read_buf(name, index)

    def write_buf(self, name: str, index: int, value: int) -> None:
        """Flat-layout write: simulated corruption lands where real
        corruption would (may raise DeviceFault far OOB)."""
        self.memory.write_buf(name, index, value)

    def dump(self) -> Dict[str, int]:
        """Scalar parameter values (for reports and tests)."""
        return {name: self.memory.read_field(name)
                for name in sorted(self.fields)}
