"""Functions, basic blocks, and whole-program containers for the device IR.

Every basic block is assigned a synthetic *code address*, so the IPT
simulator can speak the same language real PT does (addresses in TIP
packets, address-range filters), and so function-pointer fields can hold
genuine-looking values that an overflow can corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.layout import StateLayout
from repro.ir.stmt import Return, Stmt, Terminator

#: Addresses are spaced so that a corrupted pointer rarely lands on a valid
#: block by accident — like real code addresses under ASLR-less layouts.
BLOCK_ADDR_STRIDE = 0x40
FUNC_ADDR_STRIDE = 0x10000
CODE_BASE = 0x4000_0000


@dataclass
class BasicBlock:
    """A label, a straight-line statement list, and one terminator."""

    label: str
    stmts: List[Stmt] = field(default_factory=list)
    terminator: Terminator = field(default_factory=Return)
    address: int = 0
    lineno: int = 0

    def __str__(self) -> str:
        body = "\n".join(f"    {s}" for s in self.stmts)
        sep = "\n" if body else ""
        return f"  {self.label}: @{self.address:#x}\n{body}{sep}    {self.terminator}"


class Function:
    """A compiled device routine: params + CFG of basic blocks."""

    def __init__(self, name: str, params: Tuple[str, ...],
                 entry: str = "entry"):
        self.name = name
        self.params = params
        self.entry = entry
        self.blocks: Dict[str, BasicBlock] = {}
        self.address = 0        # assigned by Program.freeze()

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise IRError(f"duplicate block {block.label!r} in {self.name}")
        self.blocks[block.label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise IRError(f"{self.name} has no block {label!r}") from None

    def iter_blocks(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def validate(self) -> None:
        """Check CFG well-formedness: entry exists, successors resolve."""
        if self.entry not in self.blocks:
            raise IRError(f"{self.name}: entry block {self.entry!r} missing")
        for block in self.blocks.values():
            for succ in block.terminator.successors():
                if succ not in self.blocks:
                    raise IRError(
                        f"{self.name}:{block.label}: successor {succ!r} "
                        f"does not exist")

    def __str__(self) -> str:
        header = f"func {self.name}({', '.join(self.params)}) @{self.address:#x}"
        return header + "\n" + "\n".join(str(b) for b in self.blocks.values())


class Program:
    """All compiled functions of one device plus its state layout.

    ``freeze()`` assigns addresses and builds the address maps used by the
    tracer, the decoder, and the indirect-jump check.
    """

    def __init__(self, name: str, layout: StateLayout):
        self.name = name
        self.layout = layout
        self.functions: Dict[str, Function] = {}
        self.entry_handlers: Dict[str, str] = {}   # handler key -> func name
        self._frozen = False
        self.addr_to_block: Dict[int, Tuple[str, str]] = {}
        self.func_addr: Dict[str, int] = {}
        self.addr_to_func: Dict[int, str] = {}

    # -- construction ------------------------------------------------------

    def add_function(self, func: Function) -> Function:
        if self._frozen:
            raise IRError("program is frozen")
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def register_entry(self, key: str, func_name: str) -> None:
        """Mark *func_name* as the I/O entry handler for interface *key*.

        Keys look like ``"pmio:write:0x3f5"`` or ``"mmio:read:ctrl"`` —
        they are what the execution specification's entry block dispatches
        on (the paper: "parsing the target address/port of the I/O request").
        """
        self.entry_handlers[key] = func_name

    def freeze(self) -> "Program":
        """Validate, then assign code addresses to functions and blocks."""
        base = CODE_BASE
        for i, func in enumerate(self.functions.values()):
            func.validate()
            func.address = base + i * FUNC_ADDR_STRIDE
            self.func_addr[func.name] = func.address
            self.addr_to_func[func.address] = func.name
            for j, block in enumerate(func.iter_blocks()):
                block.address = func.address + j * BLOCK_ADDR_STRIDE
                self.addr_to_block[block.address] = (func.name, block.label)
        self._frozen = True
        return self

    # -- queries -----------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function {name!r} in {self.name}") from None

    def block_at(self, address: int) -> Optional[BasicBlock]:
        loc = self.addr_to_block.get(address)
        if loc is None:
            return None
        func_name, label = loc
        return self.functions[func_name].block(label)

    def code_range(self) -> Tuple[int, int]:
        """[lo, hi) address range of the device's code — the IPT filter."""
        if not self._frozen:
            raise IRError("freeze() the program before asking for ranges")
        addrs = list(self.addr_to_block)
        return (min(addrs), max(addrs) + BLOCK_ADDR_STRIDE)

    def entry_for(self, key: str) -> Function:
        try:
            return self.functions[self.entry_handlers[key]]
        except KeyError:
            raise IRError(
                f"{self.name}: no entry handler for {key!r}") from None

    def block_count(self) -> int:
        return sum(len(f.blocks) for f in self.functions.values())

    def __str__(self) -> str:
        return f"program {self.name}\n" + "\n\n".join(
            str(f) for f in self.functions.values())
