"""ES-CFG construction (Section V-B, Algorithm 1) plus the refinements:
control-flow reduction (V-C) and data-dependency recovery (V-D).

Inputs: the compiled device program, the device state change log collected
under benign training samples, the parameter selection, and the taint
result (command block identification).  Output: an
:class:`~repro.spec.escfg.ExecutionSpec` ready for the ES-Checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.dataflow import SliceResult, slice_function
from repro.analysis.obslog import (
    EV_BLOCK, EV_BRANCH, EV_DECISION, EV_END, EV_TIP, DeviceStateChangeLog,
)
from repro.analysis.params import ParamSelection
from repro.analysis.taint import TaintResult, analyze_taint
from repro.errors import SpecError
from repro.ir import (
    Assign, BinOp, Branch, BufLen, BufLoad, BufStore, Call, Const, Expr,
    ExternCall, Goto, ICall, Intrinsic, Local, Param, Program, Return,
    StateRef, StateStore, Stmt, Switch, SyncVar, Terminator, UnOp,
)
from repro.spec.escfg import (
    CommandAccessTable, ESBlock, ESFunction, ExecutionSpec,
)
from repro.spec.state import DeviceState


# --------------------------------------------------------------------------
# Data dependency recovery: expression / statement rewriting
# --------------------------------------------------------------------------

def substitute_expr(expr: Expr, func_name: str,
                    sync_locals: FrozenSet[str],
                    param_fields: Set[str],
                    param_buffers: Set[str]) -> Expr:
    """Rewrite *expr* into the checker-evaluable form.

    * reads of control-structure fields outside the device state ->
      ``sync(field:name)`` (resolved from the live structure pre-I/O),
    * everything else passes through structurally.

    Locals backed by extern-call results stay plain locals: the spec
    constructor materializes one ``local = sync(extern:func:name)``
    assignment at the extern call's *definition* site instead (see
    ``build_spec``), so the walk pops exactly one harvested value per
    device read.  Rewriting every *use* into its own sync var — the
    obvious alternative — desynchronizes the harvest FIFO as soon as a
    handler branches on the same extern byte twice (virtio descriptor
    flags feed both the indirect-route and the chain-continuation
    tests), halting benign rounds with spurious sync failures.
    """
    if isinstance(expr, Local):
        return expr
    if isinstance(expr, StateRef):
        if expr.field not in param_fields:
            return SyncVar(f"field:{expr.field}")
        return expr
    if isinstance(expr, BufLoad):
        index = substitute_expr(expr.index, func_name, sync_locals,
                                param_fields, param_buffers)
        if expr.buf not in param_buffers:
            # All accessed buffers are selected by Rule 2; this is a
            # belt-and-braces path for hand-built selections.
            return SyncVar(f"field:{expr.buf}")
        return BufLoad(expr.buf, index)
    if isinstance(expr, BinOp):
        return BinOp(expr.op,
                     substitute_expr(expr.left, func_name, sync_locals,
                                     param_fields, param_buffers),
                     substitute_expr(expr.right, func_name, sync_locals,
                                     param_fields, param_buffers))
    if isinstance(expr, UnOp):
        return UnOp(expr.op,
                    substitute_expr(expr.operand, func_name, sync_locals,
                                    param_fields, param_buffers))
    return expr   # Const, Param, BufLen, SyncVar


def _subst_stmt(stmt: Stmt, func_name: str, sync_locals: FrozenSet[str],
                param_fields: Set[str], param_buffers: Set[str]
                ) -> Optional[Stmt]:
    sub = lambda e: substitute_expr(  # noqa: E731 - tight local helper
        e, func_name, sync_locals, param_fields, param_buffers)
    if isinstance(stmt, Assign):
        return Assign(stmt.target, sub(stmt.value), lineno=stmt.lineno)
    if isinstance(stmt, StateStore):
        return StateStore(stmt.field, sub(stmt.value), lineno=stmt.lineno)
    if isinstance(stmt, BufStore):
        return BufStore(stmt.buf, sub(stmt.index), sub(stmt.value),
                        lineno=stmt.lineno)
    if isinstance(stmt, Intrinsic):
        return Intrinsic(stmt.kind, tuple(sub(a) for a in stmt.args),
                         lineno=stmt.lineno)
    if isinstance(stmt, ExternCall):
        return None   # dropped: results arrive via sync vars
    return stmt


def _subst_terminator(term: Terminator, func_name: str,
                      sync_locals: FrozenSet[str], param_fields: Set[str],
                      param_buffers: Set[str]) -> Terminator:
    sub = lambda e: substitute_expr(  # noqa: E731
        e, func_name, sync_locals, param_fields, param_buffers)
    if isinstance(term, Branch):
        return Branch(sub(term.cond), term.taken, term.not_taken,
                      lineno=term.lineno)
    if isinstance(term, Switch):
        return Switch(sub(term.scrutinee), dict(term.table), term.default,
                      lineno=term.lineno)
    if isinstance(term, Call):
        return Call(term.func, tuple(sub(a) for a in term.args), term.dest,
                    term.cont, lineno=term.lineno)
    if isinstance(term, ICall):
        return ICall(term.ptr_field, tuple(sub(a) for a in term.args),
                     term.dest, term.cont, lineno=term.lineno)
    if isinstance(term, Return):
        value = sub(term.value) if term.value is not None else None
        return Return(value, lineno=term.lineno)
    return term


# --------------------------------------------------------------------------
# Algorithm 1: initial construction from the device state change log
# --------------------------------------------------------------------------

@dataclass
class _TrainingFacts:
    visited: Set[int]
    branch_observed: Dict[int, Set[bool]]
    switch_targets: Dict[int, Set[int]]
    icall_targets: Dict[int, Set[int]]
    cmd_access: CommandAccessTable


def _digest_log(log: DeviceStateChangeLog) -> _TrainingFacts:
    """RestoreRuntimeCFG + the per-log loop of Algorithm 1, condensed.

    Reads the rounds' recorded event tuples directly: none of the kinds
    it reads depends on the parameter view.  Faulted rounds are
    excluded: only *legitimate* executions define the specification.
    """
    facts = _TrainingFacts(set(), {}, {}, {}, CommandAccessTable())
    visited = facts.visited
    branch_observed = facts.branch_observed
    record = facts.cmd_access.record
    for round_ in log.rounds:
        if round_.faulted:
            continue
        current_cmd: Optional[int] = None
        for event in round_.trace:
            kind = event[0]
            if kind == EV_BLOCK:
                visited.add(event[1])
                if current_cmd is not None:
                    record(current_cmd, event[1])
            elif kind == EV_BRANCH:
                branch_observed.setdefault(event[1], set()) \
                    .add(bool(event[2]))
            elif kind == EV_TIP:
                target = int(event[2])
                if event[3] == "icall":
                    facts.icall_targets.setdefault(event[1], set()) \
                        .add(target)
                else:
                    facts.switch_targets.setdefault(event[1], set()) \
                        .add(target)
            elif kind == EV_DECISION:
                current_cmd = int(event[2])
                record(current_cmd, event[1])
            elif kind == EV_END:
                current_cmd = None
    return facts


def build_spec(program: Program, log: DeviceStateChangeLog,
               selection: ParamSelection,
               taint: Optional[TaintResult] = None,
               reduce_cfg: bool = True) -> ExecutionSpec:
    """Construct the execution specification for one device."""
    if taint is None:
        taint = analyze_taint(program)
    param_fields = selection.scalar_params | selection.funcptrs
    param_buffers = set(selection.buffers)
    # The ES-CFG must re-execute every store feeding an NBTD condition:
    # control-flow-influencing scalars are *tracked* in the shadow state
    # even when the Table-I rules don't select them as checked parameters
    # (a live sync read would be stale for write-then-branch rounds).
    tracked_fields = set(param_fields)
    for name in selection.influencing:
        if program.layout.has_field(name):
            decl = program.layout.field(name)
            if not decl.is_buffer:
                tracked_fields.add(name)

    facts = _digest_log(log)
    if not facts.visited:
        raise SpecError("training log contains no successful rounds")

    spec = ExecutionSpec(device=program.name)
    spec.entry_handlers = dict(program.entry_handlers)
    spec.branch_observed = facts.branch_observed
    spec.switch_targets = facts.switch_targets
    spec.icall_targets = facts.icall_targets
    spec.visited_blocks = facts.visited
    spec.cmd_access = facts.cmd_access
    spec.func_addr = dict(program.func_addr)
    spec.addr_to_func = dict(program.addr_to_func)
    spec.addr_to_block = dict(program.addr_to_block)

    shadow = DeviceState.from_layout(program.layout, param_fields,
                                     param_buffers)
    spec.field_info = shadow.fields
    spec.buffer_info = shadow.buffers
    spec.layout = program.layout

    entry_funcs = set(program.entry_handlers.values())
    blocks_before = stmts_before = 0

    for func in program.functions.values():
        visited_labels = {b.label for b in func.iter_blocks()
                          if b.address in facts.visited}
        if not visited_labels:
            continue
        slice_ = slice_function(func, tracked_fields, param_buffers)
        spec.sync_locals[func.name] = frozenset(slice_.sync_locals)
        es_func = ESFunction(func.name, func.entry, func.params)
        for block in func.iter_blocks():
            if block.label not in visited_labels:
                continue
            blocks_before += 1
            stmts_before += len(block.stmts)
            dsod: List[Stmt] = []
            for idx, stmt in enumerate(block.stmts):
                if isinstance(stmt, ExternCall):
                    target = stmt.defined_local()
                    if target in slice_.sync_locals:
                        # Data-dependency recovery (V-D): bind the
                        # harvested extern result once, where the
                        # device performs the read, so the sync
                        # oracle's FIFO stays aligned however many
                        # downstream sites use the local.
                        dsod.append(Assign(
                            target,
                            SyncVar(f"extern:{func.name}:{target}"),
                            lineno=stmt.lineno))
                    continue
                if not slice_.keeps(block.label, idx):
                    continue
                rewritten = _subst_stmt(
                    stmt, func.name, spec.sync_locals[func.name],
                    tracked_fields, param_buffers)
                if rewritten is not None:
                    dsod.append(rewritten)
            nbtd = _subst_terminator(
                block.terminator, func.name, spec.sync_locals[func.name],
                tracked_fields, param_buffers)
            es_block = ESBlock(
                address=block.address, func=func.name, label=block.label,
                dsod=dsod, nbtd=nbtd,
                kind=_kind_of(block.terminator),
                is_entry=(func.name in entry_funcs
                          and block.label == func.entry),
                is_exit=(func.name in entry_funcs
                         and isinstance(block.terminator, Return)),
                is_cmd_decision=(block.address
                                 in taint.command_decision_blocks),
                is_cmd_end=block.address in taint.command_end_blocks)
            if es_block.is_cmd_decision:
                es_block.cmd_expr = _command_expr(
                    block, func.name, spec.sync_locals[func.name],
                    tracked_fields, param_buffers)
            es_func.blocks[block.label] = es_block
        spec.functions[func.name] = es_func

    spec.stats["blocks_before_reduction"] = blocks_before
    spec.stats["stmts_before_slicing"] = stmts_before
    spec.stats["dsod_stmts"] = spec.dsod_stmt_count()
    if reduce_cfg:
        reduce_spec(spec)
    spec.stats["blocks_after_reduction"] = spec.block_count()
    spec.stats["sync_vars_used"] = len(used_sync_vars(spec))
    return spec


def sync_keys_for(spec: ExecutionSpec) -> Mapping[str, bool]:
    """Each entry key's checking discipline: whether
    :func:`handler_needs_sync` (co-execution) or not (strict checking).

    Computed once per spec object and cached on it, the way
    ``bytecode_spec_for`` caches the lowering, so attaching a checker
    (every instance build, every spec reload) walks no call graph.
    Nothing invalidates it: a spec is not changed once built — merging
    and promotion build new spec objects — and the table is read-only,
    shared by every attachment of the spec."""
    table = getattr(spec, "_sync_keys", None)
    if table is None:
        table = spec._sync_keys = MappingProxyType(
            {key: handler_needs_sync(spec, key)
             for key in spec.entry_handlers})
    return table


def sync_fields_for(spec: ExecutionSpec) -> Tuple[str, ...]:
    """The ``field:NAME`` sync variables the spec names whose field is
    a scalar of its layout: what a co-executed round reads before the
    device runs, so its walk resolves them to their pre-round values.
    (A name for a buffer or an unknown field fails to resolve however
    it is read.)  Cached on the spec object like :func:`sync_keys_for`,
    and as static: pcnet's and ehci's trained specs name none."""
    names = getattr(spec, "_sync_fields", None)
    if names is None:
        layout = spec.layout
        names = spec._sync_fields = tuple(sorted(
            name for name in used_sync_vars(spec)
            if name.startswith("field:")
            and layout.has_field(name[len("field:"):])
            and not layout.field(name[len("field:"):]).is_buffer))
    return names


def handler_needs_sync(spec: ExecutionSpec, io_key: str) -> bool:
    """Whether checking *io_key* may demand ``extern:`` sync values.

    Computed by reachability over the ES call graph (direct calls plus
    legitimised indirect targets).  Handlers that need none are checked
    strictly *before* the device executes; the rest co-execute with the
    device per the paper's sync-point scheme (Section V-D).
    """
    name = spec.entry_handlers.get(io_key)
    if name is None or not spec.has_function(name):
        return False
    seen: Set[str] = set()
    stack = [name]
    while stack:
        func_name = stack.pop()
        if func_name in seen or not spec.has_function(func_name):
            continue
        seen.add(func_name)
        es_func = spec.function(func_name)
        for block in es_func.blocks.values():
            for stmt in block.dsod:
                for expr in stmt.exprs():
                    if any(s.startswith("extern:")
                           for s in expr.sync_refs()):
                        return True
            nbtd = block.nbtd
            if nbtd is not None:
                for expr in nbtd.exprs():
                    if any(s.startswith("extern:")
                           for s in expr.sync_refs()):
                        return True
                from repro.ir import Call as _Call, ICall as _ICall
                if isinstance(nbtd, _Call):
                    stack.append(nbtd.func)
                elif isinstance(nbtd, _ICall):
                    for addr in spec.legit_icall_targets(block.address):
                        callee = spec.addr_to_func.get(addr)
                        if callee:
                            stack.append(callee)
    return False


def used_sync_vars(spec: ExecutionSpec) -> Set[str]:
    """Sync variables actually referenced by the final spec.

    The runtime attachment only co-executes a handler when an
    ``extern:...`` sync var can actually be demanded by a walk.
    """
    names: Set[str] = set()
    for es_func in spec.functions.values():
        for block in es_func.blocks.values():
            for stmt in block.dsod:
                for expr in stmt.exprs():
                    names |= expr.sync_refs()
            if block.nbtd is not None:
                for expr in block.nbtd.exprs():
                    names |= expr.sync_refs()
            if block.cmd_expr is not None:
                names |= block.cmd_expr.sync_refs()
    return names


def _kind_of(term: Terminator) -> str:
    if isinstance(term, Branch):
        return "cond"
    if isinstance(term, Switch):
        return "switch"
    if isinstance(term, Call):
        return "call"
    if isinstance(term, ICall):
        return "icall"
    if isinstance(term, Return):
        return "ret"
    return "plain"


def _command_expr(block, func_name, sync_locals, param_fields,
                  param_buffers) -> Optional[Expr]:
    """The expression naming the current command at a decision block."""
    for stmt in block.stmts:
        if isinstance(stmt, Intrinsic) and stmt.kind == "command_decision" \
                and stmt.args:
            return substitute_expr(stmt.args[0], func_name, sync_locals,
                                   param_fields, param_buffers)
    term = block.terminator
    if isinstance(term, Switch):
        return substitute_expr(term.scrutinee, func_name, sync_locals,
                               param_fields, param_buffers)
    return None


# --------------------------------------------------------------------------
# Control flow reduction (Section V-C)
# --------------------------------------------------------------------------

def reduce_spec(spec: ExecutionSpec) -> ExecutionSpec:
    """Delete/merge redundant ES blocks.

    1. *Bypass*: a plain block with empty DSOD and a Goto NBTD carries no
       information; edges through it are short-circuited and it is removed.
    2. *Cond merge* (the paper's explicit case): when both sides of a
       conditional reach the same retained block — because slicing removed
       everything that differed — the NBTD is dropped and the branch
       becomes a direct transition.
    """
    addr_remap: Dict[int, int] = {}
    for es_func in spec.functions.values():
        remap: Dict[str, str] = {}
        for label, block in es_func.blocks.items():
            if (not block.dsod and isinstance(block.nbtd, Goto)
                    and label != es_func.entry
                    and not (block.is_entry or block.is_exit
                             or block.is_cmd_decision or block.is_cmd_end)):
                remap[label] = block.nbtd.target

        def resolve(label: str) -> str:
            seen = set()
            while label in remap and label not in seen:
                seen.add(label)
                label = remap[label]
            return label

        for block in es_func.blocks.values():
            nbtd = block.nbtd
            if isinstance(nbtd, Goto):
                block.nbtd = Goto(resolve(nbtd.target), lineno=nbtd.lineno)
            elif isinstance(nbtd, Branch):
                taken = resolve(nbtd.taken)
                not_taken = resolve(nbtd.not_taken)
                if taken == not_taken:
                    # Both sides merged: drop the NBTD (paper's merge).
                    block.nbtd = Goto(taken, lineno=nbtd.lineno)
                    block.kind = "plain"
                else:
                    block.nbtd = Branch(nbtd.cond, taken, not_taken,
                                        lineno=nbtd.lineno)
            elif isinstance(nbtd, Switch):
                block.nbtd = Switch(
                    nbtd.scrutinee,
                    {k: resolve(v) for k, v in nbtd.table.items()},
                    resolve(nbtd.default) if nbtd.default else "",
                    lineno=nbtd.lineno)
            elif isinstance(nbtd, Call):
                block.nbtd = Call(nbtd.func, nbtd.args, nbtd.dest,
                                  resolve(nbtd.cont), lineno=nbtd.lineno)
            elif isinstance(nbtd, ICall):
                block.nbtd = ICall(nbtd.ptr_field, nbtd.args, nbtd.dest,
                                   resolve(nbtd.cont), lineno=nbtd.lineno)

        for label in remap:
            old_addr = es_func.blocks[label].address
            new_label = resolve(label)
            if new_label in es_func.blocks:
                addr_remap[old_addr] = es_func.blocks[new_label].address
        for label in list(es_func.blocks):
            if label in remap:
                del es_func.blocks[label]

    # Training observations recorded the *original* block addresses; any
    # bypassed block's address must now stand for its merge target, or the
    # switch/command checks would reject arms that merely got slimmer.
    def translate(addr: int) -> int:
        seen = set()
        while addr in addr_remap and addr not in seen:
            seen.add(addr)
            addr = addr_remap[addr]
        return addr

    spec.switch_targets = {
        site: {translate(t) for t in targets}
        for site, targets in spec.switch_targets.items()}
    spec.cmd_access.table = {
        cmd: {translate(a) for a in addrs}
        for cmd, addrs in spec.cmd_access.table.items()}
    return spec
