"""Flat bytecode backend for execution specifications (the default
ES-Checker backend).

The reference :class:`~repro.checker.escheck._Walker` re-dispatches on
IR node types for every DSOD statement of every I/O round and re-derives
every check table through ``self.spec.*`` lookups per site per round.
This module lowers the **whole spec** once into a single flat
array-encoded bytecode:

* ``code`` — one int opcode stream covering every trained routine, with
  all jump targets resolved to dense global block indices at lowering
  time (a synthesized *stub* block stands in for every
  referenced-but-untrained label, carrying its unobserved-path verdict);
* ``pool`` — the constant pool: field geometry, frozen check tables
  (legitimate icall/switch target sets, command-access rows, known
  commands), precomputed per-site **parameter bound tables** (declared
  lo/hi/mask per store site, buffer length/base/stride per access site),
  and pre-formatted anomaly messages;
* ``Switch`` terminators compiled to dense jump tables when the key
  range is compact and to binary-search key/target arrays otherwise,
  with each arm's legitimacy verdict precomputed into the table.

The assembler turns those arrays into **one generated, spec-specialized
Python source per spec**, assembled at lowering by
:func:`bytecode_spec_for`: one *entry* per I/O key with a plan, and the
*per-block path* ``_walk`` the entries share.  One call of a key's
entry is one ``(io_key, args)`` round of ``ESChecker.check_io``: it
walks the shadow buffer in place, decides the verdict, keeps the bytes
when the round commits and restores the entry bytes otherwise, and
hands back the report and the round's cycles.  An entry holds its
key's guarded superblock with the key's arity and local count inlined;
a clean exit returns its cycles as a literal, and a path that leaves
the superblock hands the walk's state over to ``_walk``.  ``_walk`` is
a ``while`` loop dispatching on the global block index through a
binary jump-target tree, with an explicit call stack, so walk
counters, the current command and the current address stay in locals
for the rest of the round.  A counted copy loop the lowering matches
(an ``L_LOOP`` record) is walked there in closed form when a guard
proves all its iterations clean, and one iteration at a time otherwise
(see :func:`_closed_form`).  Assembly is a deterministic function of
the arrays and needs no spec object.  Lowering and assembly happen in
the process that runs the checker, once per spec; nothing generated is
ever read back from disk.

The generator pieces — operator spellings, the source accumulator, the
state-buffer load/store forms, switch tables, the dispatch tree, tail
inlining and self-loop wrapping — are the code-generation toolkit of
:mod:`repro.interp.bytecode`, which specializes the device
interpreter's fast runner the same way.

Mode and strategies stay runtime-dynamic (read on every call), so one
artifact serves every configuration — the ablation benches rely on
that.

Semantics replicate the reference walker bit-for-bit: every anomaly
kind, message, counter increment and stop flavour.
``tests/checker/test_backend_diff.py`` holds both backends to that
across the seven device models and the CVE corpus.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CheckerError, DeviceFault
from repro.checker.anomalies import Action, CheckReport, Strategy
from repro.checker.escheck import (
    CHECK_BLOCK_COST, CHECK_STMT_COST, _WalkStop, _flag,
)
from repro.interp.bytecode import (
    _BIN_INLINE, _CODECS, _INT_LITERAL, _OPSYMS, _SIMPLE, _UN_INLINE,
    _UNSYMS, _ARM_BUDGET, _INLINE_BUDGET, _Asm, _Values, _buffer_offset,
    _emit_chain, _emit_dispatch, _emit_switch_pc, _encode_switch,
    _load_value, _spans, _state_load_expr, _store_stmt, _truth,
    _wrap_self_loops,
)
from repro.interp.ops import _floordiv, _mod, binop_fn
from repro.ir import (
    Assign, BinOp, Branch, BufLen, BufLoad, BufStore, Call, Const, Expr,
    FuncPtrType, Goto, ICall, Intrinsic, IntType, Local, Param, Return,
    StateRef, StateStore, Switch, SyncVar, UnOp,
)
from repro.spec.escfg import ESBlock, ESFunction, ExecutionSpec

#: read sentinels for the generated frame
_MISS = object()     # I/O parameter never provided
_UNDEF = object()    # ES local not yet assigned (slice gap)

# -- opcodes ----------------------------------------------------------------
C_CONST = 1          # ci
C_PARAM = 2          # pos mi
C_PARAM_MISS = 3     # mi       (name not among the routine's params)
C_LOCAL = 4          # slot mi
C_STATE = 5          # ii       (off, end, signed, bits)
C_STATEF = 6         # ni       (read_field fallback: buffer-decl read)
C_BUFLEN = 7         # v
C_BUFLOAD = 8        # ii
C_BINOP = 9          # oi
C_UNOP = 10          # oi
C_SYNC = 11          # ni
D_DSD = 20           #          dsod += 1 (charged before evaluation)
D_ASSIGN = 21        # slot
D_STORE = 22         # ii       (field, lo, hi, off, end, size, mask, msg)
D_STOREM = 23        # ni       (malformed decl: defer to shadow state)
D_BUFSTORE = 24      # ii
D_SETCMD = 25        # ii       (known-command row + messages)
D_CMDEND = 26        #
B_HDR = 30           # ii       (block prologue: watchdog + command gate)
N_GOTO = 40          # pc
N_BR = 41            # ii t nt
N_SWITCH = 42        # ii
N_CALL = 43          # ii nargs (transfer info in pool)
N_ICALL_PRE = 44     # ii
N_ICALL = 45         # nargs cont dest
N_RET0 = 46          #
N_RETV = 47          #
N_STUB = 48          # ni       (untrained-label landing block)
N_UNTRAINED = 49     # ni       (call into a function training never ran)
N_NONBTD = 50        # ni
L_LOOP = 60          # ii       (closed-form loop record; trails the blocks)


def _index_is_state_derived(index: Expr) -> bool:
    """Same parameter-check scope rule as both existing backends."""
    if isinstance(index, Const):
        return True
    return bool(index.state_refs())


def _collect_locals(func: ESFunction) -> Tuple[str, ...]:
    """Every local name the routine reads or writes, in first-appearance
    order (the slot map)."""
    seen: Dict[str, None] = {}

    def visit(expr: Expr) -> None:
        if isinstance(expr, Local):
            seen.setdefault(expr.name)
        elif isinstance(expr, BinOp):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, UnOp):
            visit(expr.operand)
        elif isinstance(expr, BufLoad):
            visit(expr.index)

    for block in func.blocks.values():
        for stmt in block.dsod:
            if isinstance(stmt, Assign):
                seen.setdefault(stmt.target)
                visit(stmt.value)
            elif isinstance(stmt, StateStore):
                visit(stmt.value)
            elif isinstance(stmt, BufStore):
                visit(stmt.index)
                visit(stmt.value)
            elif isinstance(stmt, Intrinsic):
                for arg in stmt.args:
                    visit(arg)
        nbtd = block.nbtd
        if isinstance(nbtd, Branch):
            visit(nbtd.cond)
        elif isinstance(nbtd, Switch):
            visit(nbtd.scrutinee)
        elif isinstance(nbtd, (Call, ICall)):
            for arg in nbtd.args:
                visit(arg)
            if nbtd.dest is not None:
                seen.setdefault(nbtd.dest)
        elif isinstance(nbtd, Return) and nbtd.value is not None:
            visit(nbtd.value)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Lowering: the whole spec -> one code/pool pair
# ---------------------------------------------------------------------------

class _SpecLowerer:
    def __init__(self, spec: ExecutionSpec):
        self.spec = spec
        self.code: List[int] = []
        self.pool: List[Any] = []
        self._pool_index: Dict[Any, int] = {}
        self.fnames = tuple(spec.functions)
        self.fid = {name: i for i, name in enumerate(self.fnames)}
        self.locals_of = {name: _collect_locals(func)
                          for name, func in spec.functions.items()}
        # Global pc assignment: per function, entry first, then the
        # remaining trained labels, then stubs for every referenced but
        # untrained label (sorted for determinism).
        self.pc_of: Dict[Tuple[str, str], int] = {}
        self.order: List[Tuple[str, str, bool]] = []   # (func, label, stub)
        pc = 0
        for name, func in spec.functions.items():
            labels = [func.entry] + [l for l in func.blocks
                                     if l != func.entry]
            referenced = set()
            for block in func.blocks.values():
                nbtd = block.nbtd
                if isinstance(nbtd, Goto):
                    referenced.add(nbtd.target)
                elif isinstance(nbtd, Branch):
                    referenced.update((nbtd.taken, nbtd.not_taken))
                elif isinstance(nbtd, Switch):
                    referenced.update(nbtd.table.values())
                    if nbtd.default:
                        referenced.add(nbtd.default)
                elif isinstance(nbtd, (Call, ICall)):
                    referenced.add(nbtd.cont)
            stubs = sorted(referenced - set(func.blocks))
            for label in labels:
                self.pc_of[(name, label)] = pc
                self.order.append((name, label, False))
                pc += 1
            for label in stubs:
                self.pc_of[(name, label)] = pc
                self.order.append((name, label, True))
                pc += 1
        self.entry_pc = tuple(
            self.pc_of[(name, spec.functions[name].entry)]
            for name in self.fnames)
        self.nparams = tuple(len(spec.functions[name].params)
                             for name in self.fnames)
        self.nlocals = tuple(len(self.locals_of[name])
                             for name in self.fnames)

    def ref(self, value: Any) -> int:
        key = (type(value).__name__, repr(value))
        idx = self._pool_index.get(key)
        if idx is None:
            idx = len(self.pool)
            self.pool.append(value)
            self._pool_index[key] = idx
        return idx

    def emit(self, *ops: int) -> None:
        self.code.extend(ops)

    def lower(self) -> "BytecodeSpec":
        spec = self.spec
        for name, label, stub in self.order:
            if stub:
                msg = (f"transition into {name}:{label} was never "
                       f"observed in training")
                self.emit(N_STUB, self.ref(msg))
                continue
            func = spec.functions[name]
            block = func.blocks[label]
            self.lower_block(func, block)
        for name, label, stub in self.order:
            if not stub:
                record = self.match_loop(spec.functions[name], label)
                if record is not None:
                    self.emit(L_LOOP, self.ref(record))
        # io_key -> (entry pc, nparams, nlocals); keys whose handler
        # training never ran are absent and take the unknown-key path.
        plans = {}
        for key, handler in spec.entry_handlers.items():
            fid = self.fid.get(handler)
            if fid is not None:
                plans[key] = (self.entry_pc[fid], self.nparams[fid],
                              self.nlocals[fid])
        return BytecodeSpec(
            device=spec.device, entry_pc=self.entry_pc, nparams=self.nparams,
            nlocals=self.nlocals, plans=plans, code=tuple(self.code),
            pool=tuple(self.pool))

    # -- blocks --------------------------------------------------------------

    def lower_block(self, func: ESFunction, block: ESBlock) -> None:
        spec = self.spec
        address = block.address
        gate = spec.cmd_access.commands_allowing(address)
        gate_msg = (f"block {address:#x} is not accessible under "
                    f"command %#x")
        self.emit(B_HDR, self.ref(
            (address, int(block.is_cmd_end),
             int(not block.is_cmd_decision), gate, gate_msg)))
        for stmt in block.dsod:
            self.lower_dsod(stmt, func, block)
        self.lower_nbtd(func, block)

    # -- counted loops -------------------------------------------------------

    def match_loop(self, func: ESFunction, label: str) -> Optional[tuple]:
        """The closed-form record of the counted ``for`` loop headed by
        block *label*, or None.

        The frontend lowers ``for i in range(...)`` to a head
        ``i < __i_stop``, a body and a step ``i = i + 1`` back to the
        head.  A loop matches when the head carries no DSOD and is
        two-sided in the spec, no loop block decides or ends a command,
        and the body is empty (its externs were sliced away, so the head
        branches straight to the step) or one of the two copy shapes of
        :meth:`copy_shape`.  The record holds what the assembler's
        closed form needs: the loop's pcs and head address, its blocks
        and DSOD statements per iteration, the local slots, the
        commands every loop block is accessible under, and the copy."""
        spec = self.spec
        head = func.blocks[label]
        nbtd, cond = head.nbtd, getattr(head.nbtd, "cond", None)
        if (not isinstance(nbtd, Branch) or not isinstance(cond, BinOp)
                or cond.op != "<" or not isinstance(cond.left, Local)
                or not isinstance(cond.right, Local)):
            return None
        i, stop = cond.left.name, cond.right.name
        if (stop != f"__{i}_stop" or head.dsod
                or spec.branch_is_one_sided(head.address) is not None):
            return None

        def is_step(block: Optional[ESBlock]) -> bool:
            return (block is not None and len(block.dsod) == 1
                    and isinstance(block.dsod[0], Assign)
                    and block.dsod[0].target == i
                    and block.dsod[0].value == BinOp("+", Local(i),
                                                     Const(1))
                    and isinstance(block.nbtd, Goto)
                    and block.nbtd.target == label)

        body = func.blocks.get(nbtd.taken)
        if is_step(body):
            blocks, copy = (body, head), None
        else:
            step = (func.blocks.get(body.nbtd.target)
                    if body is not None and isinstance(body.nbtd, Goto)
                    else None)
            copy = self.copy_shape(func, body.dsod, i, stop) \
                if is_step(step) else None
            if copy is None:
                return None
            blocks = (body, step, head)
        if any(b.is_cmd_decision or b.is_cmd_end for b in blocks):
            return None
        row = frozenset.intersection(*(
            spec.cmd_access.commands_allowing(b.address) for b in blocks))
        slot = self.locals_of[func.name].index
        return (self.pc_of[(func.name, body.label)],
                self.pc_of[(func.name, nbtd.not_taken)], head.address,
                len(blocks), sum(len(b.dsod) for b in blocks),
                slot(i), slot(stop), row, copy)

    def copy_shape(self, func: ESFunction, dsod, i: str,
                   stop: str) -> Optional[tuple]:
        """The copy of a loop body that moves one harvested value into a
        u8 buffer per iteration, or None.  Two shapes: the *cursor* copy
        ``v = sync(extern:F:v); dev.B[dev.K] = v; dev.K = dev.K + 1``
        and the *indexed* copy ``v = sync(extern:F:v); dev.B[i + c] =
        v``.  Returns ``(sync name, slot of v, B's offset, B's length,
        cursor, c)`` with the cursor as ``(K's load geometry, its
        bound, its size)``, or None for the indexed shape."""
        if (len(dsod) not in (2, 3) or not isinstance(dsod[0], Assign)
                or not isinstance(dsod[0].value, SyncVar)
                or not dsod[0].value.name.startswith("extern:")
                or dsod[0].target in (i, stop)
                or not isinstance(dsod[1], BufStore)
                or dsod[1].value != Local(dsod[0].target)):
            return None
        layout = self.spec.layout
        buf = layout.field(dsod[1].buf)
        if not (buf.is_buffer and buf.type.elem.bits == 8
                and not buf.type.elem.signed):
            return None
        index = dsod[1].index
        cursor, offset = None, 0
        if len(dsod) == 3:
            store = dsod[2]
            if not (isinstance(index, StateRef)
                    and isinstance(store, StateStore)
                    and store.field == index.field
                    and store.value == BinOp("+", index, Const(1))):
                return None
            decl = layout.field(index.field)
            if decl.is_buffer or not isinstance(decl.type, IntType):
                return None
            signed = decl.type.signed
            cursor = ((decl.offset, decl.end, int(signed),
                       decl.type.bits if signed else 0),
                      min(buf.type.length, decl.type.max_value), decl.size)
        else:
            offset = _buffer_offset(index, i)
            if offset is None:
                return None
        return (dsod[0].value.name,
                self.locals_of[func.name].index(dsod[0].target),
                buf.offset, buf.type.length, cursor, offset)

    # -- expressions ---------------------------------------------------------

    def lower_expr(self, expr: Expr, func: ESFunction) -> None:
        spec = self.spec
        if isinstance(expr, Const):
            self.emit(C_CONST, self.ref(expr.value))
        elif isinstance(expr, Param):
            msg = f"missing I/O parameter {expr.name!r}"
            if expr.name in func.params:
                self.emit(C_PARAM, tuple(func.params).index(expr.name),
                          self.ref(msg))
            else:
                self.emit(C_PARAM_MISS, self.ref(msg))
        elif isinstance(expr, Local):
            slot = self.locals_of[func.name].index(expr.name)
            msg = f"ES local {expr.name!r} undefined (slice gap)"
            self.emit(C_LOCAL, slot, self.ref(msg))
        elif isinstance(expr, StateRef):
            decl = spec.layout.field(expr.field)
            if decl.is_buffer:
                self.emit(C_STATEF, self.ref(expr.field))
            else:
                signed = (isinstance(decl.type, IntType)
                          and decl.type.signed)
                self.emit(C_STATE, self.ref(
                    (decl.offset, decl.end, int(signed),
                     decl.type.bits if signed else 0)))
        elif isinstance(expr, BufLoad):
            self.lower_expr(expr.index, func)
            decl = spec.layout.field(expr.buf)
            elem = decl.type.elem
            checked = _index_is_state_derived(expr.index)
            msg = (f"read at dev.{expr.buf}[%d] is outside the "
                   f"buffer's {decl.type.length} elements")
            self.emit(C_BUFLOAD, self.ref(
                (expr.buf, int(checked), decl.type.length, decl.offset,
                 elem.size, int(elem.signed), elem.bits,
                 spec.layout.size, msg)))
        elif isinstance(expr, BufLen):
            self.emit(C_BUFLEN, expr.length)
        elif isinstance(expr, SyncVar):
            self.emit(C_SYNC, self.ref(expr.name))
        elif isinstance(expr, BinOp):
            if isinstance(expr.left, Const) and isinstance(expr.right,
                                                           Const):
                try:
                    folded = binop_fn(expr.op)(expr.left.value,
                                               expr.right.value)
                except DeviceFault:
                    pass    # div0 must stay a runtime fault
                else:
                    self.emit(C_CONST, self.ref(folded))
                    return
            self.lower_expr(expr.left, func)
            self.lower_expr(expr.right, func)
            self.emit(C_BINOP, _OPSYMS.index(expr.op))
        elif isinstance(expr, UnOp):
            self.lower_expr(expr.operand, func)
            self.emit(C_UNOP, _UNSYMS.index(expr.op))
        else:
            # Mirrors the reference walker: a CheckerError when (never)
            # evaluated; lowering keeps it site-precise.
            self.emit(C_SYNC, self.ref(
                f"__cannot_evaluate__{type(expr).__name__}"))

    # -- DSOD ----------------------------------------------------------------

    def lower_dsod(self, stmt, func: ESFunction, block: ESBlock) -> None:
        spec = self.spec
        address = block.address
        self.emit(D_DSD)
        if isinstance(stmt, Assign):
            self.lower_expr(stmt.value, func)
            self.emit(D_ASSIGN,
                      self.locals_of[func.name].index(stmt.target))
        elif isinstance(stmt, StateStore):
            self.lower_expr(stmt.value, func)
            decl = spec.layout.field(stmt.field)
            if isinstance(decl.type, FuncPtrType):
                lo, hi = 0, (1 << 64) - 1
            elif isinstance(decl.type, IntType):
                lo, hi = decl.type.min_value, decl.type.max_value
            else:
                self.emit(D_STOREM, self.ref(stmt.field))
                return
            msg = (f"storing %d into dev.{stmt.field} ({decl.type}) "
                   f"overflows its declared range")
            mask = (1 << (decl.size * 8)) - 1
            self.emit(D_STORE, self.ref(
                (stmt.field, lo, hi, decl.offset, decl.end, decl.size,
                 mask, msg, address)))
        elif isinstance(stmt, BufStore):
            self.lower_expr(stmt.index, func)
            self.lower_expr(stmt.value, func)
            decl = spec.layout.field(stmt.buf)
            checked = _index_is_state_derived(stmt.index)
            msg = (f"write at dev.{stmt.buf}[%d] is outside the "
                   f"buffer's {decl.type.length} elements")
            emask = (1 << (decl.type.elem.size * 8)) - 1
            self.emit(D_BUFSTORE, self.ref(
                (stmt.buf, int(checked), decl.type.length, decl.offset,
                 decl.type.elem.size, emask, spec.layout.size, msg,
                 address)))
        elif isinstance(stmt, Intrinsic):
            if stmt.kind == "command_decision" and stmt.args:
                self.lower_expr(stmt.args[0], func)
                self.emit(D_SETCMD, self._setcmd_ref(address))
            elif stmt.kind == "command_end":
                self.emit(D_CMDEND)
            # other intrinsics: the D_DSD above is the whole effect
        else:
            self.emit(C_SYNC, self.ref(
                f"__unexpected_dsod__{type(stmt).__name__}"))

    def _setcmd_ref(self, address: int) -> int:
        known = self.spec.cmd_access.known_commands()
        return self.ref((frozenset(known),
                         "command %#x never observed in training",
                         address))

    # -- NBTD ----------------------------------------------------------------

    def lower_nbtd(self, func: ESFunction, block: ESBlock) -> None:
        spec = self.spec
        nbtd = block.nbtd
        address = block.address
        fname = func.name

        def pc(label: str) -> int:
            return self.pc_of[(fname, label)]

        if isinstance(nbtd, Goto):
            self.emit(N_GOTO, pc(nbtd.target))
        elif isinstance(nbtd, Branch):
            self.lower_expr(nbtd.cond, func)
            one_sided = spec.branch_is_one_sided(address)
            if one_sided is None:
                info = (-1, "")
            else:
                outcome = not one_sided   # the side that violates
                msg = (f"branch at {address:#x} took its never-trained "
                       f"side ({'taken' if outcome else 'not taken'})")
                info = (int(one_sided), msg)
            self.emit(N_BR, self.ref((info[0], info[1], address)),
                      pc(nbtd.taken), pc(nbtd.not_taken))
        elif isinstance(nbtd, Switch):
            self.lower_expr(nbtd.scrutinee, func)
            legit = spec.frozen_switch_targets(address)
            addr_of = {lbl: b.address for lbl, b in func.blocks.items()}

            def arm_pc(label: Optional[str]) -> int:
                if not label:
                    return -1
                if legit and addr_of.get(label) not in legit:
                    return -2
                return pc(label)

            table = {k: arm_pc(v) for k, v in nbtd.table.items()}
            default = arm_pc(nbtd.default)
            no_arm_msg = f"switch at {address:#x} has no arm for %d"
            not_legit_msg = (f"switch arm for %d at {address:#x} was "
                             f"never observed in training")
            enc = _encode_switch(table, default)
            setcmd = (self._setcmd_ref(address)
                      if block.is_cmd_decision else -1)
            self.emit(N_SWITCH, self.ref(
                (enc, int(bool(legit)), no_arm_msg, not_legit_msg,
                 address, setcmd)))
        elif isinstance(nbtd, Call):
            if not spec.has_function(nbtd.func):
                msg = (f"call into {nbtd.func}, which no training run "
                       f"executed")
                self.emit(N_UNTRAINED, self.ref((msg, address)))
                return
            for arg in nbtd.args:
                self.lower_expr(arg, func)
            callee = nbtd.func
            dest = (self.locals_of[fname].index(nbtd.dest)
                    if nbtd.dest is not None else -1)
            self.emit(N_CALL, self.ref(
                (self.entry_pc[self.fid[callee]],
                 self.nparams[self.fid[callee]],
                 self.nlocals[self.fid[callee]],
                 pc(nbtd.cont), dest)), len(nbtd.args))
        elif isinstance(nbtd, ICall):
            decl = spec.layout.field(nbtd.ptr_field)
            signed = (not decl.is_buffer
                      and isinstance(decl.type, IntType)
                      and decl.type.signed)
            legit = spec.frozen_icall_targets(address)
            by_addr = {
                addr: self.fid[fn]
                for addr, fn in ((a, spec.addr_to_func.get(a))
                                 for a in legit)
                if fn is not None and fn in self.fid
            }
            msg = (f"dev.{nbtd.ptr_field} points at %#x, not a "
                   f"legitimate target of this call site")
            self.emit(N_ICALL_PRE, self.ref(
                (decl.offset, decl.end, int(signed),
                 decl.type.bits if signed else 0, frozenset(legit),
                 by_addr, msg, address)))
            for arg in nbtd.args:
                self.lower_expr(arg, func)
            dest = (self.locals_of[fname].index(nbtd.dest)
                    if nbtd.dest is not None else -1)
            self.emit(N_ICALL, len(nbtd.args), pc(nbtd.cont), dest)
        elif isinstance(nbtd, Return):
            if nbtd.value is None:
                self.emit(N_RET0)
            else:
                self.lower_expr(nbtd.value, func)
                self.emit(N_RETV)
        else:
            self.emit(N_NONBTD, self.ref(
                f"ES block {block.label} has no NBTD"))


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------

class BytecodeSpec:
    """One spec's flat bytecode arrays plus its assembled functions
    (see :func:`_assemble_spec`): ``entries`` maps each I/O key with a
    plan to its entry, which checks one round per call; ``unknown`` is
    the round of any other key; ``walk`` is the per-block path the
    entries hand over to."""

    __slots__ = ("device", "entry_pc", "nparams", "nlocals", "plans",
                 "code", "pool", "walk", "entries", "unknown")

    def __init__(self, device: str,
                 entry_pc: Tuple[int, ...], nparams: Tuple[int, ...],
                 nlocals: Tuple[int, ...],
                 plans: Dict[str, Tuple[int, int, int]],
                 code: Tuple[int, ...], pool: Tuple[Any, ...]):
        self.device = device
        self.entry_pc = entry_pc
        self.nparams = nparams
        self.nlocals = nlocals
        self.plans = plans
        self.code = code
        self.pool = pool
        # Self-contained: assembly reads only the arrays above.
        self.walk, self.entries, self.unknown = _assemble_spec(self)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _base_consts(bspec: "BytecodeSpec") -> Dict[str, Any]:
    """What the generated frame's namespace starts from: helpers,
    sentinels, and the tables derived from the bytecode arrays."""
    from bisect import bisect_left

    def _die(msg: str) -> int:
        raise CheckerError(msg)

    return {
        "_fdiv": _floordiv, "_fmod": _mod,
        "_flag": _flag, "_WalkStop": _WalkStop,
        "CheckerError": CheckerError,
        "_SP": Strategy.PARAMETER, "_SI": Strategy.INDIRECT_JUMP,
        "_SC": Strategy.CONDITIONAL_JUMP,
        "_MISS": _MISS, "_UNDEF": _UNDEF,
        "_FENT": bspec.entry_pc, "_FNP": bspec.nparams,
        "_FNL": bspec.nlocals,
        "_MISSPAD": (_MISS,) * (max(bspec.nparams, default=0) + 1),
        "_bisect": bisect_left, "_die": _die, "_pad": _pad,
        "_ALLOW": Action.ALLOW, "_bytes": bytes, "_u8s": _u8s,
        "_stop": _stop, "_clean": _clean, "_abort": _abort,
        "_CBC": CHECK_BLOCK_COST, "_CSC": CHECK_STMT_COST,
        # Fixed-width accessors: no slice allocation, no int.to_bytes
        # object per store.
        **_CODECS,
    }


#: operand count per opcode (what :func:`_spans` steps over); the loop
#: records trail the blocks
_WIDTHS = {
    C_CONST: 1, C_PARAM: 2, C_PARAM_MISS: 1, C_LOCAL: 2, C_STATE: 1,
    C_STATEF: 1, C_BUFLEN: 1, C_BUFLOAD: 1, C_BINOP: 1, C_UNOP: 1,
    C_SYNC: 1, D_DSD: 0, D_ASSIGN: 1, D_STORE: 1, D_STOREM: 1,
    D_BUFSTORE: 1, D_SETCMD: 1, D_CMDEND: 0, B_HDR: 1, N_GOTO: 1, N_BR: 3,
    N_SWITCH: 1, N_CALL: 2, N_ICALL_PRE: 1, N_ICALL: 3, N_RET0: 0,
    N_RETV: 0, N_STUB: 1, N_UNTRAINED: 1, N_NONBTD: 1, L_LOOP: -1,
}


class _CheckPath:
    """The walk state of one path through a key's superblock: the
    blocks, DSOD statements and parameter and conditional checks walked
    since they were last added to the frame's counters, and the address
    ``_addr`` is owed (None: it is current).  They are charged in front
    of — or inside the branch of — anything that raises or hands over
    to the per-block path.  *walked* and *stmts* count the blocks and
    statements already charged, so a clean exit knows the round's
    totals as literals.  *cmd* says whether a command is in force: none
    at a key's entry, one after a command decision, none after a
    command end."""

    __slots__ = ("blk", "dsd", "pch", "cch", "addr", "cmd", "walked",
                 "stmts")

    def __init__(self) -> None:
        self.blk = self.dsd = self.pch = self.cch = 0
        self.walked = self.stmts = 0
        self.addr: Optional[int] = None
        self.cmd = False

    def copy(self) -> "_CheckPath":
        path = _CheckPath()
        path.blk, path.dsd, path.pch = self.blk, self.dsd, self.pch
        path.cch, path.addr, path.cmd = self.cch, self.addr, self.cmd
        path.walked, path.stmts = self.walked, self.stmts
        return path

    def check_lines(self) -> List[str]:
        lines = []
        if self.pch:
            lines.append(f"if _pon: _pch += {self.pch}")
        if self.cch:
            lines.append(f"if _con: _cch += {self.cch}")
        return lines

    def lines(self) -> List[str]:
        parts = [f"{var} += {n}" for var, n in (("_blk", self.blk),
                                                 ("_dsd", self.dsd)) if n]
        if self.addr is not None:
            parts.append(f"_addr = {self.addr}")
        return (["; ".join(parts)] if parts else []) + self.check_lines()

    def flush(self, asm: _Asm) -> None:
        for line in self.lines():
            asm.w(line)
        self.walked += self.blk
        self.stmts += self.dsd
        self.blk = self.dsd = self.pch = self.cch = 0
        self.addr = None


#: what a round's generated functions pass on to the per-block path:
#: the round's arguments, then (after the walk position) its state
_ROUND = "w, _iokey, _orc, _mode, _maxb, _tel, _clk, _full, _t0, _tst"
_STATE = "_blk, _dsd, _pch, _ich, _cch, _cmd, _addr, _entry"
#: the signature of a key's entry (and of the unknown-key round)
_ENTRY_ARGS = "w, _iokey, _args, _orc, _mode, _maxb, _tel, _clk, _full"


#: an entry reads the strategy gates off the walk context
_FLAGS = {"_pon": "w.param_on", "_ion": "w.ijump_on", "_con": "w.cond_on"}
_FLAG = re.compile(r"\b(?:_pon|_ion|_con)\b")


def _flag_attr(match) -> str:
    return _FLAGS[match.group()]


class _ArmTooLong(Exception):
    """Internal: a branch arm outgrew the room its superblock left."""


def _assemble_spec(bspec: BytecodeSpec
                   ) -> Tuple[Callable, Dict[str, Callable], Callable]:
    """Assemble the arrays into the spec's generated functions: the
    per-block path ``_walk``, one entry per plan (keys that share a
    handler share it) and the unknown-key round.  Returns ``(walk,
    entries, unknown)``, with *entries* keyed by I/O key; all three
    live in one generated source (their ``_bytecode_source``).

    The source is **spec-specialized**: the trained access tables and
    parameter bounds are constant-folded into the emitted code (field
    accesses index the shadow buffer directly, bound checks on
    in-range constant stores reduce to their counter increment,
    anomaly addresses become literals, and command gates that a
    ``command_end`` prologue makes unreachable are elided).  In
    ``_walk`` each block heads a value-numbered chain in the dispatch
    tree; each key's entry holds the key's guarded superblock (see
    :mod:`repro.interp.bytecode`, "Chains and superblocks"), inlines
    its arity and local count, and returns each clean exit's cycles as
    a literal.

    A call of an entry walks exactly one round: ``entry(w, io_key,
    args, oracle, mode, max_blocks, telemetry, clock, full)`` returns
    ``(report, cycles)``.  Wherever the guard fails or a path leaves the
    superblock — a checker call, a switch, a visited block, a command
    the row lacks, a branch whose arms do not fit — the entry hands the
    walk's state (pc, parameters, locals, call stack, counters, command,
    address and entry snapshot) to ``_walk``, which finishes the round.
    The round walks the shadow buffer in place.  An entry takes the
    entry snapshot just before the first store that a later flag site,
    raise or hand-off on the same path can follow (``_walk`` takes it
    on arrival if the entry did not), so a superblock path that ends
    clean copies nothing.  A round that commits (ALLOW, walk complete)
    keeps the bytes, and any other verdict, an incomplete walk or an
    exception escaping the round restores the entry bytes (an escaping
    exception propagates and charges nothing).  The report is ``None``
    for a clean round when *full* is false; otherwise its final state
    is bound to the bytes the round committed or kept.  The unknown-key
    round takes no snapshot and walks nothing.
    """
    from repro.telemetry.instruments import (
        FRAME_ROUND_CLEAN, FRAME_ROUND_START,
    )

    code, pool = bspec.code, bspec.pool
    asm = _Asm(_base_consts(bspec))
    push, pop, bind = asm.push, asm.pop, asm.bind
    spill_pending, force_temp = asm.spill_pending, asm.force_temp
    spans, records = _spans(code, _WIDTHS, (B_HDR, N_STUB), CheckerError)
    loops = [pool[code[pc + 1]] for pc in range(records, len(code), 2)]
    #: a closed-form loop's body: a superblock hands over there, so the
    #: per-block path walks the loop in closed form
    loop_bodies = {record[0] for record in loops}
    #: the entry being generated: its parameter tuple and local count
    key = {"par": "()", "nl": 0}
    #: the pcs a round reaches through a computed jump: every function
    #: entry (a direct or indirect call), every call's continuation (a
    #: return), every switch arm, and where an entry hands over
    roots = set(bspec.entry_pc)

    def key_env(vals: _Values) -> str:
        """The entry's ES locals as a list: an entry keeps each in the
        value table, and every one not assigned on the path is
        ``_UNDEF``."""
        return "[" + ", ".join(vals.names.get(("l", slot), "_UNDEF")
                               for slot in range(key["nl"])) + "]"

    def handoff(pc, vals: _Values, par: Optional[str] = None,
                env: Optional[str] = None, stack: str = "[]") -> None:
        """Hand the round over to the per-block path at *pc* (the
        counters are already charged)."""
        if isinstance(pc, int):
            roots.add(pc)
        asm.w(f"return _walk({_ROUND}, {pc}, {par or key['par']}, "
              f"{env or key_env(vals)}, {stack}, {_STATE})")

    def caller(vals: _Values, cont: int, dest: int) -> str:
        """The call stack a call hands over: the entry's frame."""
        return f"[({key_env(vals)}, {key['par']}, {cont}, {dest})]"

    def clean_exit(path: _CheckPath) -> None:
        """A superblock path's clean end: the counters a lean round
        needs are literals; telemetry and full reports charge the
        check counts first."""
        blocks, stmts = path.walked + path.blk, path.stmts + path.dsd
        cycles = int(blocks * CHECK_BLOCK_COST + stmts * CHECK_STMT_COST)
        asm.w("if _tel is None and not _full:")
        asm.w(f"    return None, {cycles}")
        for line in path.check_lines() + list(FRAME_ROUND_CLEAN):
            asm.w(line)
        asm.w("if not _full:")
        asm.w(f"    return None, {cycles}")
        asm.w(f"return _clean(w, _iokey, {blocks}, {stmts}, _pch, _ich, "
              f"_cch, _sdata), {cycles}")

    def pending(path: Optional[_CheckPath]) -> None:
        """A superblock's pending state, inside a branch that raises."""
        if path is not None:
            for line in path.lines():
                asm.w(line)

    def settle(path: Optional[_CheckPath]) -> None:
        """Charge a superblock's pending state before something that
        can raise or leave."""
        if path is not None:
            path.flush(asm)

    def emit_flag_raise(strategy: str, kind: str, msg_expr: str,
                        addr_expr: str, plain: bool = False,
                        path: Optional[_CheckPath] = None) -> None:
        pending(path)
        if plain:
            asm.w(f"_flag(w, {strategy}, {kind!r}, {msg_expr}, "
                  f"{addr_expr})")
            asm.w("raise _WalkStop()")
        else:
            asm.w(f"_r = _flag(w, {strategy}, {kind!r}, {msg_expr}, "
                  f"{addr_expr})")
            asm.w("raise _WalkStop(not _r)")

    def emit_checked_index(i: str, length: int, msg: str, addr_expr: str,
                           path: Optional[_CheckPath]) -> None:
        if path is None:
            asm.w("if _pon:")
            asm.indent += 1
            asm.w("_pch += 1")
            asm.w(f"if not 0 <= {i} < {length}:")
        else:
            path.pch += 1
            asm.w(f"if not 0 <= {i} < {length} and _pon:")
        asm.indent += 1
        emit_flag_raise("_SP", "buffer-overflow", f"{msg!r} % {i}",
                        addr_expr, plain=True, path=path)
        asm.indent -= 1 if path is not None else 2

    def emit_element_offset(i: str, base: int, esize: int,
                            struct_size: int,
                            path: Optional[_CheckPath]) -> str:
        o = asm.temp()
        asm.w(f"{o} = {base} + {i} * {esize}")
        asm.w(f"if {o} < 0 or {o} + {esize} > {struct_size}:")
        asm.indent += 1
        pending(path)
        asm.w("raise _WalkStop(True)")
        asm.indent -= 1
        return o

    def checked_read(key, fetch: str, sentinel: str, msg: str,
                     vals: _Values, path: Optional[_CheckPath]) -> None:
        """Push an ES local or I/O parameter, tested against its
        sentinel on the chain's first read only."""
        known = vals.names.get(key)
        if known is not None:
            push(known)
            return
        spill_pending()
        t = asm.temp()
        asm.w(f"{t} = {fetch}")
        asm.w(f"if {t} is {sentinel}:")
        asm.indent += 1
        pending(path)
        asm.w(f"raise CheckerError({msg!r})")
        asm.indent -= 1
        vals.names[key] = t
        push(t)

    def emit_block(k: int, vals: _Values,
                   path: Optional[_CheckPath]) -> tuple:
        cur_addr: Optional[int] = None   # current block address
        pc, end = spans[k]
        while pc < end:
            op = code[pc]
            if op == B_HDR:
                address, is_cmd_end, gated, gate, gate_msg = \
                    pool[code[pc + 1]]
                cur_addr = address
                if path is not None:
                    # The superblock's guard covers the watchdog.  Under
                    # a command decided on the path, a block whose row
                    # lacks it is walked on the per-block path, which
                    # flags it.
                    if gated and path.cmd and not is_cmd_end:
                        asm.w(f"if _cmd not in {bind(gate, '_G')}:")
                        asm.indent += 1
                        pending(path)
                        handoff(k, vals)
                        asm.indent -= 1
                        path.cch += 1
                    elif is_cmd_end and path.cmd:
                        asm.w("_cmd = None")
                    path.cmd = path.cmd and not is_cmd_end
                    path.blk += 1
                    path.addr = address
                    pc += 2
                    continue
                asm.w(f"_addr = {address}")
                asm.w("_blk += 1")
                asm.w("if _blk > _maxb:")
                asm.indent += 1
                emit_flag_raise("_SC", "walk-watchdog",
                                repr("specification walk exceeded block "
                                     "budget"), str(address))
                asm.indent -= 1
                if is_cmd_end:
                    # The prologue clears _cmd, so the gate can never
                    # fire.
                    asm.w("_cmd = None")
                elif gated:
                    gref = bind(gate, "_G")
                    asm.w("if _cmd is not None:")
                    asm.indent += 1
                    asm.w("if _con: _cch += 1")
                    asm.w(f"if _cmd not in {gref}:")
                    asm.indent += 1
                    emit_flag_raise("_SC", "command-access",
                                    f"{gate_msg!r} % _cmd", str(address))
                    asm.indent -= 2
                pc += 2
            elif op == N_STUB:
                # A stub flags at the *predecessor's* address (the block
                # the untrained transition left from), so _addr stays
                # dynamic.
                settle(path)
                emit_flag_raise("_SC", "unobserved-path",
                                repr(pool[code[pc + 1]]), "_addr")
                return ("end",)
            elif op == C_CONST:
                push(repr(pool[code[pc + 1]]))
                pc += 2
            elif op == C_PARAM:
                pos, mi = code[pc + 1], code[pc + 2]
                checked_read(("p", pos), f"_par[{pos}]", "_MISS", pool[mi],
                             vals, path)
                pc += 3
            elif op == C_PARAM_MISS:
                spill_pending()
                settle(path)
                t = asm.temp()
                asm.w(f"{t} = _die({pool[code[pc + 1]]!r})")
                push(t)
                pc += 2
            elif op == C_LOCAL:
                slot, mi = code[pc + 1], code[pc + 2]
                if path is None or ("l", slot) in vals.names:
                    checked_read(("l", slot), f"_env[{slot}]", "_UNDEF",
                                 pool[mi], vals, path)
                else:
                    # An entry's locals live in its value table: one the
                    # path never assigned is still undefined.
                    spill_pending()
                    pending(path)
                    asm.w(f"raise CheckerError({pool[mi]!r})")
                    push("_UNDEF")
                pc += 3
            elif op == C_STATE:
                off, end_, signed, _ = pool[code[pc + 1]]
                push(vals.load(asm, off, end_, signed))
                pc += 2
            elif op == C_STATEF:
                spill_pending()
                settle(path)
                t = asm.temp()
                asm.w(f"{t} = w.state.read_field({pool[code[pc + 1]]!r})")
                push(t)
                pc += 2
            elif op == C_BUFLEN:
                push(repr(code[pc + 1]))
                pc += 2
            elif op == C_BUFLOAD:
                (buf, checked, length, base, esize, signed, bits,
                 struct_size, msg) = pool[code[pc + 1]]
                index = pop()
                spill_pending()
                i = force_temp(index)
                if checked:
                    emit_checked_index(i, length, msg,
                                       "_addr" if cur_addr is None
                                       else str(cur_addr), path)
                o = emit_element_offset(i, base, esize, struct_size, path)
                t = asm.temp()
                asm.w(f"{t} = {_load_value(o, esize, signed)}")
                push(t)
                pc += 2
            elif op == C_BINOP:
                sym = _OPSYMS[code[pc + 1]]
                b, a = pop(), pop()
                if sym in ("//", "%"):
                    # A division fault leaves the frame: nothing to settle.
                    spill_pending()
                    t = asm.temp()
                    fn = "_fdiv" if sym == "//" else "_fmod"
                    asm.w(f"{t} = {fn}({a}, {b})")
                    push(t)
                else:
                    push(_BIN_INLINE[sym].format(a=a, b=b))
                pc += 2
            elif op == C_UNOP:
                push(_UN_INLINE[_UNSYMS[code[pc + 1]]].format(a=pop()))
                pc += 2
            elif op == C_SYNC:
                name = pool[code[pc + 1]]
                spill_pending()
                settle(path)
                t = asm.temp()
                if name.startswith("__cannot_evaluate__"):
                    kind = name[len("__cannot_evaluate__"):]
                    asm.w(f"{t} = _die({f'cannot evaluate {kind}'!r})")
                elif name.startswith("__unexpected_dsod__"):
                    kind = name[len("__unexpected_dsod__"):]
                    asm.w(f"{t} = _die("
                          f"{f'unexpected DSOD statement {kind}'!r})")
                else:
                    asm.w(f"{t} = _res({name!r})")
                    vals.fields.clear()
                push(t)
                pc += 2
            elif op == D_DSD:
                if path is None:
                    asm.w("_dsd += 1")
                else:
                    path.dsd += 1
                pc += 1
            elif op == D_ASSIGN:
                slot, value = code[pc + 1], pop()
                if not _SIMPLE.fullmatch(value):
                    value = force_temp(value)
                if path is None:
                    asm.w(f"_env[{slot}] = {value}")
                vals.names[("l", slot)] = value
                pc += 2
            elif op == D_STORE:
                (field, lo, hi, off, end_, size, mask, msg,
                 address) = pool[code[pc + 1]]
                raw_v = pop()
                if _INT_LITERAL.fullmatch(raw_v) and lo <= int(raw_v) <= hi:
                    # Constant store inside its declared bounds: the check
                    # can never fire, only its counter survives.
                    if path is None:
                        asm.w("if _pon: _pch += 1")
                    else:
                        path.pch += 1
                    asm.w(_store_stmt(str(off), size, str(int(raw_v) & mask)))
                    v = raw_v
                else:
                    v = force_temp(raw_v)
                    if path is None:
                        asm.w("if _pon:")
                        asm.indent += 1
                        asm.w("_pch += 1")
                        asm.w(f"if not {lo} <= {v} <= {hi}:")
                    else:
                        path.pch += 1
                        asm.w(f"if not {lo} <= {v} <= {hi} and _pon:")
                    asm.indent += 1
                    emit_flag_raise("_SP", "integer-overflow",
                                    f"{msg!r} % {v}", str(address),
                                    plain=True, path=path)
                    asm.indent -= 1 if path is not None else 2
                    asm.w(_store_stmt(str(off), size, f"{v} & {mask}"))
                vals.store(off, end_, lo < 0, v)
                pc += 2
            elif op == D_STOREM:
                field = pool[code[pc + 1]]
                v = force_temp(pop())
                settle(path)
                asm.w("if _pon:")
                asm.indent += 1
                asm.w("_pch += 1")
                asm.w(f"if not w.state.in_range({field!r}, {v}):")
                asm.indent += 1
                asm.w('raise AssertionError("unreachable")')
                asm.indent -= 2
                asm.w(f"w.state.write_field({field!r}, {v})")
                vals.fields.clear()
                pc += 2
            elif op == D_BUFSTORE:
                (buf, checked, length, base, esize, emask, struct_size,
                 msg, address) = pool[code[pc + 1]]
                value, index = pop(), pop()
                i = force_temp(index)
                v = force_temp(value)
                if checked:
                    emit_checked_index(i, length, msg, str(address), path)
                o = emit_element_offset(i, base, esize, struct_size, path)
                asm.w(_store_stmt(o, esize, f"{v} & {emask}"))
                if _INT_LITERAL.fullmatch(index):
                    at = base + int(index) * esize
                    vals.clobber(at, at + esize)
                else:
                    # A dynamic index may land on any field of the struct
                    # (with the parameter strategy off, or past a buffer
                    # into its neighbour, the CVE PoCs' corruption).
                    vals.fields.clear()
                pc += 2
            elif op == D_SETCMD:
                known, msg, address = pool[code[pc + 1]]
                v = force_temp(pop())
                _emit_setcmd(asm, known, msg, address, v, emit_flag_raise,
                             path)
                pc += 2
            elif op == D_CMDEND:
                if path is None or path.cmd:
                    asm.w("_cmd = None")
                if path is not None:
                    path.cmd = False
                pc += 1
            elif op == N_GOTO:
                return ("goto", code[pc + 1])
            elif op == N_BR:
                one_sided, msg, address = pool[code[pc + 1]]
                t_pc, nt_pc = code[pc + 2], code[pc + 3]
                cond = pop()
                if one_sided < 0:
                    return ("br", cond, t_pc, nt_pc)
                if path is None:
                    asm.w("if _con: _cch += 1")
                else:
                    path.cch += 1
                # The trained side is static; the other one flags.
                test = _truth(cond)
                asm.w(f"if not {test}:" if one_sided else f"if {test}:")
                asm.indent += 1
                emit_flag_raise("_SC", "unobserved-branch", repr(msg),
                                str(address), path=path)
                asm.indent -= 1
                return ("goto", t_pc if one_sided else nt_pc)
            elif op == N_SWITCH:
                (enc, has_legit, no_arm_msg, not_legit_msg, address,
                 setcmd) = pool[code[pc + 1]]
                roots.update(t for t in enc[2] + (enc[3],) if t >= 0)
                v = force_temp(pop())
                settle(path)
                if setcmd >= 0:
                    known, cmsg, caddr = pool[setcmd]
                    _emit_setcmd(asm, known, cmsg, caddr, v, emit_flag_raise)
                asm.w("if _con: _cch += 1")
                _emit_switch_pc(asm, enc, v)
                asm.w("if _pc == -1:")
                asm.indent += 1
                emit_flag_raise("_SC", "unobserved-arm",
                                f"{no_arm_msg!r} % {v}", str(address))
                asm.indent -= 1
                if has_legit:
                    asm.w("if _con: _cch += 1")
                    asm.w("if _pc == -2:")
                    asm.indent += 1
                    emit_flag_raise("_SC", "unobserved-arm",
                                    f"{not_legit_msg!r} % {v}",
                                    str(address))
                    asm.indent -= 1
                if path is None:
                    asm.w("continue")
                else:
                    handoff("_pc", vals)
                return ("exit",)
            elif op == N_CALL:
                entry, np_, nl, cont, dest = pool[code[pc + 1]]
                roots.add(cont)
                nargs = code[pc + 2]
                args = [pop() for _ in range(nargs)][::-1]
                spill_pending()
                settle(path)
                padded = (args + ["_MISS"] * np_)[:np_]
                callee_par = f"({', '.join(padded)}{',' if padded else ''})"
                if path is not None:
                    handoff(entry, vals, callee_par, f"[_UNDEF] * {nl}",
                            caller(vals, cont, dest))
                    return ("exit",)
                asm.w(f"_stack.append((_env, _par, {cont}, {dest}))")
                asm.w(f"_par = {callee_par}")
                asm.w(f"_env = [_UNDEF] * {nl}")
                asm.w(f"_pc = {entry}")
                asm.w("continue")
                return ("exit",)
            elif op == N_ICALL_PRE:
                (off, end_, signed, bits, legit, by_addr, msg,
                 address) = pool[code[pc + 1]]
                settle(path)
                asm.w("if _ion: _ich += 1")
                t = vals.load(asm, off, end_, signed)
                lref = bind(legit, "_L")
                asm.w(f"if {t} not in {lref}:")
                asm.indent += 1
                emit_flag_raise("_SI", "illegal-target", f"{msg!r} % {t}",
                                str(address))
                asm.indent -= 1
                f = asm.temp()
                aref = bind(dict(by_addr), "_A")
                asm.w(f"{f} = {aref}.get({t})")
                asm.w(f"if {f} is None:")
                asm.indent += 1
                asm.w("raise _WalkStop(True)")
                asm.indent -= 1
                push(f)
                pc += 2
            elif op == N_ICALL:
                nargs, cont, dest = code[pc + 1], code[pc + 2], code[pc + 3]
                roots.add(cont)
                args = [pop() for _ in range(nargs)][::-1]
                f = pop()
                spill_pending()
                t = asm.temp()
                asm.w(f"{t} = ({', '.join(args)}{',' if args else ''})")
                if path is not None:
                    handoff(f"_FENT[{f}]", vals,
                            f"({t} + _MISSPAD)[:_FNP[{f}]]",
                            f"[_UNDEF] * _FNL[{f}]", caller(vals, cont, dest))
                    return ("exit",)
                asm.w(f"_stack.append((_env, _par, {cont}, {dest}))")
                np_ = asm.temp()
                asm.w(f"{np_} = _FNP[{f}]")
                asm.w(f"_par = ({t} + _MISSPAD)[:{np_}]")
                asm.w(f"_env = [_UNDEF] * _FNL[{f}]")
                asm.w(f"_pc = _FENT[{f}]")
                asm.w("continue")
                return ("exit",)
            elif op == N_UNTRAINED:
                msg, address = pool[code[pc + 1]]
                settle(path)
                emit_flag_raise("_SC", "unobserved-path", repr(msg),
                                str(address))
                return ("end",)
            elif op in (N_RET0, N_RETV):
                value = pop() if op == N_RETV else "0"
                if path is not None:
                    # A superblock walks a key's handler: its return ends
                    # the round (the value is already evaluated).
                    clean_exit(path)
                    return ("end",)
                if op == N_RETV:
                    asm.w(f"_rv = {value}")
                asm.w("if not _stack:")
                asm.w("    break")
                asm.w("_env, _par, _pc, _d = _stack.pop()")
                asm.w("if _d >= 0:")
                asm.w(f"    _env[_d] = {'_rv' if op == N_RETV else 0}")
                asm.w("continue")
                return ("exit",)
            elif op == N_NONBTD:
                settle(path)
                asm.w(f"raise CheckerError({pool[code[pc + 1]]!r})")
                return ("end",)
            else:
                raise CheckerError(f"bad opcode {op} at pc {pc}")
        raise CheckerError(f"block {k} has no NBTD")

    def key_path(first: int, vals: _Values, path: _CheckPath,
                 visited: set, limit: Optional[int]) -> int:
        """Emit the superblock path from block *first*; every path ends
        (a clean exit, a raise or a hand-off).  Returns the most blocks
        a path walks before it ends — what the guard must cover.  An arm
        being collected (*limit* set) raises :class:`_ArmTooLong` as
        soon as it holds more than *limit* lines."""
        k, walked = first, 0
        while True:
            tail = emit_block(k, vals, path)
            walked += 1
            if limit is not None and len(asm.lines) > limit:
                raise _ArmTooLong()
            kind = tail[0]
            if kind == "goto":
                target = tail[1]
                if (target not in visited and target not in loop_bodies
                        and len(asm.lines) < _INLINE_BUDGET):
                    visited.add(target)
                    k = target
                    continue
                settle(path)
                handoff(target, vals)
            elif kind == "br":
                walked += key_arms(tail, vals, path, visited, limit)
            return walked

    def key_arms(tail: tuple, vals: _Values, path: _CheckPath,
                 visited: set, limit: Optional[int]) -> int:
        """A two-sided branch on a superblock path: an ``if``/``else``
        over both arms when they fit ``_ARM_BUDGET`` (and the room
        *limit* leaves); an arm that starts at a visited block or a
        closed-form loop body is a hand-off there.  Otherwise the
        branch hands over to the per-block path."""
        _, cond, taken, not_taken = tail
        room = _ARM_BUDGET
        if limit is not None:
            room = min(room, limit - len(asm.lines) - 2)
        arms: List[Tuple[int, List[str]]] = []
        try:
            for arm in (taken, not_taken):
                saved = asm.begin()
                try:
                    if arm in visited or arm in loop_bodies:
                        arm_path = path.copy()
                        settle(arm_path)
                        handoff(arm, vals)
                        walked = 0
                    else:
                        walked = key_path(arm, vals.copy(), path.copy(),
                                          visited | {arm}, room)
                finally:
                    lines = asm.end(saved)
                room -= len(lines)
                if room < 0:
                    raise _ArmTooLong()
                arms.append((walked, lines))
        except _ArmTooLong:
            settle(path)
            roots.update((taken, not_taken))
            handoff(f"{taken} if {_truth(cond)} else {not_taken}", vals)
            return 0
        asm.w(f"if {_truth(cond)}:")
        asm.splice(arms[0][1])
        asm.w("else:")
        asm.splice(arms[1][1])
        return max(arms[0][0], arms[1][0])

    # One entry per plan: keys that share a handler share it.
    entry_names: Dict[Tuple[int, int, int], str] = {}
    entry_sources: List[List[str]] = []
    for plan in sorted(set(bspec.plans.values())):
        entry, np_, nl = plan
        name = entry_names[plan] = f"_key{len(entry_sources)}"
        key["par"] = "_par" if np_ else "()"
        key["nl"] = nl
        asm.lines, asm.indent = [], 0
        walked = key_path(entry, _Values(), _CheckPath(), {entry}, None)
        if asm.stack:
            raise CheckerError("unbalanced expression stack lowering spec")
        # The strategy gates are read where a check fires or a report
        # needs them: a clean lean round reads none.
        body = [_FLAG.sub(_flag_attr, line)
                if "on" in line else line
                for line in _snapshot_stores(asm.lines)]
        out = _Asm(asm.consts)
        out.w(f"def {name}({_ENTRY_ARGS}):")
        out.indent += 1
        out.w("_t0 = _tst = None")
        for line in FRAME_ROUND_START:
            out.w(line)
        if any("_res(" in line for line in body):
            out.w("_res = _orc.resolve")
        out.w("_sdata = w.state.memory.data")
        if np_:
            out.w(f"_par = (_args if len(_args) == {np_} and type(_args) "
                  f"is tuple else _pad(_args, {np_}))")
        out.w("_blk = _dsd = _pch = _ich = _cch = _addr = 0; "
              "_cmd = _entry = None")
        out.w("try:")
        out.w(f"    if {walked} <= _maxb:")
        out.lines.extend("            " + line for line in body)
        out.w(f"    _pc = {entry}")
        out.w(f"    return _walk({_ROUND}, _pc, {key['par']}, "
              f"{'[_UNDEF] * %d' % nl if nl else '[]'}, [], {_STATE})")
        _emit_round_end(out)
        entry_sources.append(out.lines)

    # The per-block path holds the chains of the pcs a round can be
    # dispatched to: the roots, and, closing over them, every pc a held
    # chain jumps to (its emission adds the calls' continuations and
    # the switches' arms it meets to the roots).  A block reached only
    # inside other chains needs no chain of its own.
    blocks: List[List[str]] = [[] for _ in spans]
    held: set = set()
    todo = list(roots)
    while todo:
        k = todo.pop()
        if k in held:
            continue
        held.add(k)
        asm.lines, asm.indent = [], 0
        _emit_chain(asm, k, emit_block, _Values())
        if asm.stack:
            raise CheckerError("unbalanced expression stack lowering spec")
        blocks[k] = asm.lines
        todo.extend(_jumps(asm.lines) | roots - held)
    _wrap_self_loops(blocks)
    for record in loops:
        k = record[0]
        if blocks[k] and blocks[k][0] == "while True:":
            blocks[k][:0] = _closed_form(asm, *record[1:])
    pcs = sorted(held)

    out = _Asm(asm.consts)
    out.w(f"def _walk({_ROUND}, _pc, _par, _env, _stack, {_STATE}):")
    out.indent += 1
    out.w("_pon = w.param_on; _ion = w.ijump_on; _con = w.cond_on")
    out.w("_res = _orc.resolve")
    out.w("_sdata = w.state.memory.data")
    out.w("if _entry is None:")
    out.w("    _entry = _bytes(_sdata)")
    out.w("try:")
    out.w("    while True:")
    out.indent += 2
    _emit_dispatch(out, [blocks[k] for k in pcs], 0, len(pcs), keys=pcs)
    out.indent -= 2
    _emit_round_end(out)
    # The walk left the dispatch loop normally: every flag site stops
    # the walk, so nothing was flagged and the round is complete.
    for line in FRAME_ROUND_CLEAN:
        out.w(line)
    out.w("_cy = int(_blk * _CBC + _dsd * _CSC)")
    out.w("if not _full:")
    out.w("    return None, _cy")
    out.w("return _clean(w, _iokey, _blk, _dsd, _pch, _ich, _cch, "
          "_sdata), _cy")
    out.indent -= 1
    for lines in entry_sources:
        out.lines.extend(lines)
    # Telemetry stages the round on _tel.stage and times it when it is
    # staged at a multiple of TIME_EVERY (see CheckerTelemetry).
    out.w(f"def _unknown({_ENTRY_ARGS}):")
    out.indent += 1
    for line in FRAME_ROUND_START:
        out.w(line)
    out.w("_report = w.unknown_key(_iokey, _mode)")
    out.w("if _tel is not None:")
    out.w("    _tel.record_round(_report,")
    out.w("                      None if _t0 is None else _clk() - _t0)")
    out.w("if _full or _report.action is not _ALLOW:")
    out.w("    return _report, 0")
    out.w("return None, 0")

    namespace = _exec_source(out, f"<es-bytecode:{bspec.device}>",
                             ["_walk", "_unknown", *entry_names.values()])
    entries = {io_key: namespace[entry_names[plan]]
               for io_key, plan in bspec.plans.items()}
    return namespace["_walk"], entries, namespace["_unknown"]


#: a chain line that sets the next pc to literals: a goto, a two-sided
#: branch, a call's entry, a closed-form loop's exit
_JUMP = re.compile(r"(?:^ *|; )_pc = (\d+)(?: if .* else (\d+))?$")


def _jumps(lines: List[str]) -> set:
    """The literal pcs the chain *lines* jump to."""
    targets = set()
    for line in lines:
        if "_pc = " in line:
            match = _JUMP.search(line)
            if match is not None:
                targets.update(int(pc) for pc in match.groups() if pc)
    return targets


def _emit_round_end(out: _Asm) -> None:
    """The except clauses closing a round's ``try:``: a stopped walk or
    an unresolvable sync value ends the round through :func:`_stop`;
    anything else restores the entry bytes and propagates.  Handled
    inside the clauses: an exception kept in a local would tie itself,
    its traceback and the frame into a garbage cycle."""
    out.w("except (_WalkStop, CheckerError) as _e:")
    out.w("    return _stop(w, _iokey, _mode, _e, _addr, _blk, _dsd, _pch, "
          "_ich, _cch, _sdata, _entry, _tel, _t0, _clk, _full)")
    out.w("except BaseException:")
    out.w("    _abort(w, _sdata, _entry)")
    out.w("    raise")


def _exec_source(out: _Asm, filename: str,
                 names: List[str]) -> Dict[str, Any]:
    """Compile the generated source with the frame constants as its
    globals; each function in *names* carries the whole source."""
    source = "\n".join(out.lines) + "\n"
    namespace: Dict[str, Any] = dict(out.consts)
    exec(compile(source, filename, "exec"), namespace)
    for name in names:
        namespace[name]._bytecode_source = source
    return namespace


#: a superblock line that stores into the shadow buffer, and one that can
#: leave the entry other than by a clean exit
_STORE_LINE = re.compile(
    r"( *)(?:_sdata\[.+\] = |_p[248]\(_sdata, |w\.state\.write_field\()")
_RISK_LINE = re.compile(
    r" *(?:raise |return _walk\()|.*\b(?:_res|_fdiv|_fmod|_die)\("
    r"|.*\bw\.state\.")


def _snapshot_stores(lines: List[str]) -> List[str]:
    """Put ``_entry = _bytes(_sdata)`` in front of the first store of
    each superblock path that a raise or a hand-off can follow.

    Every block of a superblock's source ends its path (a clean exit, a
    raise or a hand-off), so the lines a store can reach are the rest of
    its block: those after it at its indentation or deeper.  A store
    whose path already took the snapshot needs none; a store no risk
    follows needs none either, and then no later store on its path
    does."""
    depths = [len(line) - len(line.lstrip(" ")) for line in lines]
    risky = [_RISK_LINE.match(line) is not None for line in lines]
    out: List[str] = []
    taken: List[int] = []       # indentations under a taken snapshot
    for i, line in enumerate(lines):
        depth = depths[i]
        while taken and depth < taken[-1]:
            taken.pop()
        store = (_STORE_LINE.match(line) if not taken and (
            "_sdata" in line or "write_field" in line) else None)
        if store is not None:
            for j in range(i + 1, len(lines)):
                if depths[j] < depth:
                    break
                if risky[j]:
                    out.append(store.group(1) + "_entry = _bytes(_sdata)")
                    taken.append(depth)
                    break
        out.append(line)
    return out


def _closed_form(asm: _Asm, exit_pc: int, head: int, nblocks: int,
                 ndsod: int, i_slot: int, stop_slot: int, row,
                 copy: Optional[tuple]) -> List[str]:
    """The guarded closed-form walk of one counted loop (a
    :meth:`_SpecLowerer.match_loop` record), placed in front of its
    native self-loop, whose entry follows the head's taken branch.

    When the guard proves at loop entry that all ``n = stop - i``
    remaining iterations would walk clean, it applies their effects at
    once — ``nblocks * n`` blocks, ``ndsod * n`` DSOD statements, the
    check counters, ``i = stop``, the copy's slice store and cursor —
    and exits to the head's not-taken target at the head's address,
    exactly as the scalar loop would; otherwise it falls through to the
    unchanged loop.  The guard: ``n >= 1`` with both values defined;
    the walk budget covers every block; no command is in force or the
    command is in every loop block's access row; a cursor copy's
    ``K .. K + n`` stays within the buffer and K's type, an indexed
    copy's ``i + c .. stop + c`` within the buffer; and the oracle's
    :meth:`~repro.checker.sync.SyncOracle.take` hands over all ``n``
    values at once."""
    guard = [f"_blk + {nblocks} * _ln <= _maxb"]
    if row:
        guard.append(f"(_cmd is None or _cmd in {asm.bind(row, '_G')})")
    else:
        guard.append("_cmd is None")
    lines = [f"_li = _env[{i_slot}]; _ls = _env[{stop_slot}]",
             "if _li is not _UNDEF and _ls is not _UNDEF:",
             "    _ln = _ls - _li",
             f"    if _ln >= 1 and {' and '.join(guard)}:"]
    effects = [f"_blk += {nblocks} * _ln; _dsd += {ndsod} * _ln",
               f"if _con and _cmd is not None: _cch += {nblocks} * _ln"]
    indent = "        "
    if copy is not None:
        name, v_slot, base, length, cursor, offset = copy
        if cursor is not None:
            geometry, bound, size = cursor
            lines += [f"{indent}_lk = {_state_load_expr(*geometry)}",
                      f"{indent}if 0 <= _lk and _lk + _ln <= {bound}:"]
            at = f"{base} + _lk"
            effects += ["if _pon: _pch += 2 * _ln",
                        _store_stmt(str(geometry[0]), size, "_lk + _ln")]
        else:
            lines.append(f"{indent}if 0 <= _li + {offset} and "
                         f"_ls + {offset} <= {length}:")
            at = f"{base + offset} + _li"
        indent += "    "
        lines += [f"{indent}_lv = _orc.take({name!r}, _ln)",
                  f"{indent}if _lv is not None:"]
        indent += "    "
        effects += [f"_env[{v_slot}] = _lv[-1]", f"_lo = {at}",
                    "_sdata[_lo:_lo + _ln] = _u8s(_lv)"]
    effects.append(f"_env[{i_slot}] = _ls; _addr = {head}; "
                   f"_pc = {exit_pc}")
    effects.append("continue")
    return lines + [indent + line for line in effects]


def _u8s(values: List[int]) -> bytes:
    """The bytes a run of u8 buffer stores of *values* leaves."""
    try:
        return bytes(values)
    except ValueError:
        return bytes([value & 0xFF for value in values])


def _pad(args, n: int) -> tuple:
    """A key's I/O arguments at its arity: missing ones read as
    ``_MISS``, extra ones are dropped."""
    return (tuple(args) + (_MISS,) * n)[:n]


def _clean(w, io_key: str, blocks: int, dsod: int, param: int,
           indirect: int, conditional: int, sdata) -> CheckReport:
    """The full report of a clean round, bound to the bytes it
    committed."""
    report = CheckReport(io_key=io_key, blocks_walked=blocks,
                         dsod_stmts_executed=dsod, param_checks=param,
                         indirect_checks=indirect,
                         conditional_checks=conditional)
    report.bind_final_state(partial(w.final_state, bytes(sdata)))
    return report


def _stop(w, io_key: str, mode, exc: Exception, address: int, blocks: int,
          dsod: int, param: int, indirect: int, conditional: int, sdata,
          entry: Optional[bytes], telemetry, t0, clock, full: bool):
    """The end of a round whose walk stopped (*exc* a ``_WalkStop``) or
    met an unresolvable sync value (*exc* a ``CheckerError``, flagged at
    *address*): the round's report and cycles, as ``check_io`` hands
    them back.  A round that does not commit restores *entry*, the
    entry snapshot; ``None`` means nothing was stored, so the buffer
    still holds the entry bytes."""
    if isinstance(exc, _WalkStop):
        incomplete = exc.incomplete
    else:
        incomplete = not _flag(w, Strategy.CONDITIONAL_JUMP,
                               "sync-failure", str(exc), address)
    report = w.report(io_key, mode, incomplete, blocks, dsod, param,
                      indirect, conditional)
    if report.action is Action.ALLOW and not incomplete:
        report.bind_final_state(partial(w.final_state, bytes(sdata)))
    else:
        if entry is None:
            entry = bytes(sdata)
        else:
            sdata[:] = entry
        report.bind_final_state(partial(w.final_state, entry))
    if telemetry is not None:
        telemetry.record_round(report,
                               None if t0 is None else clock() - t0)
    cycles = int(blocks * CHECK_BLOCK_COST + dsod * CHECK_STMT_COST)
    if full or incomplete or report.action is not Action.ALLOW:
        return report, cycles
    return None, cycles


def _abort(w, sdata, entry: Optional[bytes]) -> None:
    """An exception escapes the round: restore the entry bytes (if
    anything was stored) and drop what the round flagged."""
    if entry is not None:
        sdata[:] = entry
    w.flagged.clear()


def _emit_setcmd(asm: _Asm, known, msg: str, address: int, value: str,
                 emit_flag_raise, path: Optional[_CheckPath] = None) -> None:
    """Inline command-decision resolution (Algorithm 1's cmd table)."""
    if path is None:
        asm.w("if _con: _cch += 1")
    else:
        path.cch += 1
        path.cmd = True
    kref = asm.bind(known, "_K")
    asm.w(f"if {value} not in {kref}:")
    asm.indent += 1
    emit_flag_raise("_SC", "unknown-command", f"{msg!r} % {value}",
                    str(address), path=path)
    asm.indent -= 1
    asm.w(f"_cmd = {value}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def bytecode_spec_for(spec: ExecutionSpec) -> BytecodeSpec:
    """Lower + assemble once per spec object, shared by every checker
    deployed on it."""
    cached = getattr(spec, "_bytecode_backend", None)
    if cached is None:
        cached = _SpecLowerer(spec).lower()
        spec._bytecode_backend = cached
    return cached
