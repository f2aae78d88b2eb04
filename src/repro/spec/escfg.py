"""ES-CFG data structures (Section V-A).

An execution specification is a control-flow graph whose basic blocks carry
only what SEDSpec needs to *re-execute device behaviour over the shadow
device state*:

* **DSOD** (Device State Operation Data) — the sliced statements that
  manipulate device-state parameters (plus the local computations feeding
  them);
* **NBTD** (Next Block Transition Data) — the terminator steering to the
  next block, with conditions rewritten over device state / I/O data /
  sync variables.

Block types: entry, exit, conditional, command decision, command end —
plus the structural kinds (call/icall/switch) the checker walks through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import SpecError
from repro.ir import Expr, StateLayout, Stmt, Terminator
from repro.spec.state import BufferInfo, DeviceState, FieldInfo


@dataclass
class ESBlock:
    """One basic block of the ES-CFG."""

    address: int
    func: str
    label: str
    dsod: List[Stmt] = field(default_factory=list)
    nbtd: Optional[Terminator] = None
    kind: str = "plain"   # plain|cond|switch|call|icall|ret
    is_entry: bool = False
    is_exit: bool = False
    is_cmd_decision: bool = False
    is_cmd_end: bool = False
    #: expression yielding the current command at a decision block
    cmd_expr: Optional[Expr] = None

    def __str__(self) -> str:
        tags = [self.kind]
        if self.is_entry:
            tags.append("entry")
        if self.is_exit:
            tags.append("exit")
        if self.is_cmd_decision:
            tags.append("cmd-dec")
        if self.is_cmd_end:
            tags.append("cmd-end")
        body = "\n".join(f"    {s}" for s in self.dsod)
        sep = "\n" if body else ""
        return (f"  {self.label} @{self.address:#x} [{','.join(tags)}]\n"
                f"{body}{sep}    NBTD: {self.nbtd}")


@dataclass
class ESFunction:
    """ES blocks of one device routine, preserving its CFG shape."""

    name: str
    entry: str
    params: Tuple[str, ...]
    blocks: Dict[str, ESBlock] = field(default_factory=dict)

    def block(self, label: str) -> ESBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise SpecError(
                f"ES function {self.name} has no block {label!r} "
                f"(path left the execution specification)") from None

    def has_block(self, label: str) -> bool:
        return label in self.blocks


@dataclass
class CommandAccessTable:
    """Device command -> bitmap of accessible block addresses (Alg. 1)."""

    table: Dict[int, Set[int]] = field(default_factory=dict)

    def record(self, command: int, address: int) -> None:
        self.table.setdefault(command, set()).add(address)

    def knows(self, command: int) -> bool:
        return command in self.table

    def allows(self, command: int, address: int) -> bool:
        return address in self.table.get(command, set())

    def commands(self) -> List[int]:
        return sorted(self.table)

    def known_commands(self) -> FrozenSet[int]:
        """All commands any training run decided on (frozen for the
        bytecode checker's per-site tables)."""
        return frozenset(self.table)

    def commands_allowing(self, address: int) -> FrozenSet[int]:
        """Inverted row: the commands under which *address* is reachable.

        This is the bytecode checker's per-block access row — resolved
        once at lowering time so the per-round gate is a single
        ``cmd in row`` test instead of two dict lookups per block.
        """
        return frozenset(cmd for cmd, addrs in self.table.items()
                         if address in addrs)


@dataclass
class ExecutionSpec:
    """The complete execution specification for one emulated device."""

    device: str
    functions: Dict[str, ESFunction] = field(default_factory=dict)
    entry_handlers: Dict[str, str] = field(default_factory=dict)

    #: device-state parameter metadata + the control-structure layout the
    #: shadow state clones
    field_info: Dict[str, FieldInfo] = field(default_factory=dict)
    buffer_info: Dict[str, BufferInfo] = field(default_factory=dict)
    layout: Optional[StateLayout] = None

    #: training observations feeding the check strategies
    branch_observed: Dict[int, Set[bool]] = field(default_factory=dict)
    switch_targets: Dict[int, Set[int]] = field(default_factory=dict)
    icall_targets: Dict[int, Set[int]] = field(default_factory=dict)
    visited_blocks: Set[int] = field(default_factory=set)
    cmd_access: CommandAccessTable = field(
        default_factory=CommandAccessTable)

    #: program address maps needed to resolve indirect targets
    func_addr: Dict[str, int] = field(default_factory=dict)
    addr_to_func: Dict[int, str] = field(default_factory=dict)
    addr_to_block: Dict[int, Tuple[str, str]] = field(default_factory=dict)

    #: sync locals per function (data dependency recovery escape hatches)
    sync_locals: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    #: reduction statistics (for the ablation benchmarks)
    stats: Dict[str, int] = field(default_factory=dict)

    def __getstate__(self) -> Dict[str, object]:
        """Pickled without the lowered bytecode artifact that
        ``bytecode_spec_for`` caches on the spec (generated frames do
        not pickle): a spec sent to another process is lowered again
        there, on first use."""
        state = self.__dict__.copy()
        state.pop("_bytecode_backend", None)
        return state

    # -- structure queries ----------------------------------------------------

    def function(self, name: str) -> ESFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise SpecError(
                f"function {name!r} is not part of the execution "
                f"specification (never executed in training)") from None

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def entry_for(self, io_key: str) -> ESFunction:
        name = self.entry_handlers.get(io_key)
        if name is None:
            raise SpecError(f"no entry handler for I/O key {io_key!r}")
        return self.function(name)

    def knows_io_key(self, io_key: str) -> bool:
        return io_key in self.entry_handlers

    def block_count(self) -> int:
        return sum(len(f.blocks) for f in self.functions.values())

    def dsod_stmt_count(self) -> int:
        return sum(len(b.dsod) for f in self.functions.values()
                   for b in f.blocks.values())

    # -- check-strategy support -------------------------------------------------

    def make_device_state(self) -> DeviceState:
        if self.layout is None:
            raise SpecError("specification carries no layout")
        return DeviceState(self.layout, set(self.field_info),
                           set(self.buffer_info))

    def branch_is_one_sided(self, address: int) -> Optional[bool]:
        """If only one outcome was observed at this site, return it."""
        outcomes = self.branch_observed.get(address, set())
        if len(outcomes) == 1:
            return next(iter(outcomes))
        return None

    def legit_icall_targets(self, address: int) -> Set[int]:
        return self.icall_targets.get(address, set())

    def legit_switch_targets(self, address: int) -> Set[int]:
        return self.switch_targets.get(address, set())

    def frozen_icall_targets(self, address: int) -> FrozenSet[int]:
        """Immutable per-site legit-target row (bytecode checker table)."""
        return frozenset(self.icall_targets.get(address, ()))

    def frozen_switch_targets(self, address: int) -> FrozenSet[int]:
        """Immutable per-site legit-arm row (bytecode checker table)."""
        return frozenset(self.switch_targets.get(address, ()))

    # -- lifecycle support ----------------------------------------------------

    def training_facts(self) -> Dict[str, object]:
        """Canonical immutable snapshot of the training observations.

        Merging unions these monotone sets; the snapshot lets lifecycle
        code (and the merge property tests) compare what two specs *know*
        independently of structural details such as block reduction.
        """
        return {
            "visited_blocks": frozenset(self.visited_blocks),
            "branch_observed": frozenset(
                (addr, outcome)
                for addr, outcomes in self.branch_observed.items()
                for outcome in outcomes),
            "switch_targets": frozenset(
                (addr, target)
                for addr, targets in self.switch_targets.items()
                for target in targets),
            "icall_targets": frozenset(
                (addr, target)
                for addr, targets in self.icall_targets.items()
                for target in targets),
            "cmd_access": frozenset(
                (cmd, addr)
                for cmd, addrs in self.cmd_access.table.items()
                for addr in addrs),
            "sync_locals": frozenset(
                (name, local)
                for name, locals_ in self.sync_locals.items()
                for local in locals_),
            "entry_handlers": frozenset(self.entry_handlers.items()),
        }

    def observed_edges(self) -> Set[Tuple[int, int]]:
        """ITC-CFG edges the training runs exercised, as address pairs.

        Reconstructed from the NBTD terminators of visited blocks: a
        Goto contributes its one edge, a Branch contributes the observed
        outcome(s) at its site, Switch/ICall contribute the legitimised
        target addresses, and a Call contributes the callee-entry edge.
        Feeds ``cfg.coverage.effective_coverage`` for the promotion gate.
        """
        from repro.ir import Branch, Call, Goto, ICall, Switch
        edges: Set[Tuple[int, int]] = set()

        def block_addr(es_func: ESFunction, label: Optional[str]
                       ) -> Optional[int]:
            if label is None or label not in es_func.blocks:
                return None
            return es_func.blocks[label].address

        for es_func in self.functions.values():
            for block in es_func.blocks.values():
                if block.address not in self.visited_blocks:
                    continue
                nbtd = block.nbtd
                if isinstance(nbtd, Goto):
                    dst = block_addr(es_func, nbtd.target)
                    if dst is not None:
                        edges.add((block.address, dst))
                elif isinstance(nbtd, Branch):
                    outcomes = self.branch_observed.get(block.address, set())
                    for outcome in outcomes:
                        label = nbtd.taken if outcome else nbtd.not_taken
                        dst = block_addr(es_func, label)
                        if dst is not None:
                            edges.add((block.address, dst))
                elif isinstance(nbtd, Switch):
                    for dst in self.switch_targets.get(block.address, ()):
                        edges.add((block.address, dst))
                elif isinstance(nbtd, ICall):
                    for dst in self.icall_targets.get(block.address, ()):
                        edges.add((block.address, dst))
                elif isinstance(nbtd, Call):
                    dst = self.func_addr.get(nbtd.func)
                    if dst is not None:
                        edges.add((block.address, dst))
        return edges

    def describe(self) -> str:
        lines = [f"execution specification for {self.device}",
                 f"  functions: {len(self.functions)}",
                 f"  blocks: {self.block_count()}",
                 f"  DSOD statements: {self.dsod_stmt_count()}",
                 f"  commands known: {len(self.cmd_access.table)}",
                 f"  state parameters: {sorted(self.field_info)}",
                 f"  state buffers: {sorted(self.buffer_info)}"]
        for key, value in sorted(self.stats.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)
