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
Python frame per spec**, assembled at lowering by
:func:`bytecode_spec_for`.  The frame is its own round driver: it takes
a queue of ``(io_key, args)`` rounds — one for ``ESChecker.check_io``,
many for ``ESChecker.check_batch`` — and for each builds the report,
walks, decides the verdict, and commits or rolls back the shadow buffer,
which it walks in place.  The walk is a ``while`` loop dispatching on
the global block index through a binary jump-target tree, with an
explicit call stack, so walk counters, the current command and the
current address stay in locals for the entire round.  A counted copy
loop the lowering matches (an ``L_LOOP`` record) is walked in closed
form when a guard proves all its iterations clean, and one iteration at
a time otherwise (see :func:`_closed_form`).  Assembly is a
deterministic function of the arrays and needs no spec object.
Lowering and assembly happen in the process that runs the checker, once
per spec; nothing generated is ever read back from disk.

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

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CheckerError, DeviceFault
from repro.checker.anomalies import Action, CheckReport, Strategy
from repro.checker.escheck import (
    CHECK_BLOCK_COST, CHECK_STMT_COST, _WalkStop, _flag,
)
from repro.interp.bytecode import (
    _BIN_INLINE, _CODECS, _INT_LITERAL, _OPSYMS, _UN_INLINE, _UNSYMS, _Asm,
    _buffer_offset, _emit_dispatch, _emit_switch_pc, _encode_switch,
    _exec_frame, _inline_goto_tails, _load_raw, _signed, _state_load_expr,
    _store_stmt, _wrap_self_loops,
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
    """One spec's flat bytecode arrays plus its assembled walk frame."""

    __slots__ = ("device", "entry_pc", "nparams", "nlocals", "plans",
                 "code", "pool", "walk")

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
        self.walk: Callable = _assemble_spec(self)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _base_consts(bspec: "BytecodeSpec") -> Dict[str, Any]:
    """What the generated frame's namespace starts from: helpers,
    sentinels, and the tables derived from the bytecode arrays."""
    from bisect import bisect_left
    from functools import partial

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
        "_plans_get": bspec.plans.get,
        "_bisect": bisect_left, "_die": _die,
        "_CR": CheckReport, "_ALLOW": Action.ALLOW, "_bytes": bytes,
        "_partial": partial, "_u8s": _u8s,
        "_CBC": CHECK_BLOCK_COST, "_CSC": CHECK_STMT_COST,
        # Fixed-width accessors: no slice allocation, no int.to_bytes
        # object per store.
        **_CODECS,
    }


def _assemble_spec(bspec: BytecodeSpec) -> Callable:
    """Assemble the arrays into the spec's one generated walk frame.

    The source is **spec-specialized**: the trained access tables and
    parameter bounds are constant-folded into the emitted code (field
    accesses index the shadow buffer directly, bound checks on
    in-range constant stores reduce to their counter increment,
    anomaly addresses become literals, and command gates that a
    ``command_end`` prologue makes unreachable are elided).  The frame
    is its own round driver: it loops over a queue of rounds — one for
    ``check_io``, many for ``check_batch`` — and for each builds the
    report, walks, decides the verdict, and commits or rolls back the
    shadow buffer, which it walks in place.  The prologue (strategy
    toggles, shadow buffer, entry snapshot) runs once per call.
    """
    code, pool = bspec.code, bspec.pool
    cur_addr: Optional[int] = None   # current block address
    asm = _Asm(_base_consts(bspec))
    push, pop, bind = asm.push, asm.pop, asm.bind
    spill_pending, force_temp = asm.spill_pending, asm.force_temp

    def emit_flag_raise(strategy: str, kind: str, msg_expr: str,
                        addr_expr: str, plain: bool = False) -> None:
        if plain:
            asm.w(f"_flag(w, {strategy}, {kind!r}, {msg_expr}, "
                  f"{addr_expr})")
            asm.w("raise _WalkStop()")
        else:
            asm.w(f"_r = _flag(w, {strategy}, {kind!r}, {msg_expr}, "
                  f"{addr_expr})")
            asm.w("raise _WalkStop(not _r)")

    def emit_checked_index(i: str, length: int, msg: str,
                           addr_expr: str) -> None:
        asm.w("if _pon:")
        asm.indent += 1
        asm.w("_pch += 1")
        asm.w(f"if not 0 <= {i} < {length}:")
        asm.indent += 1
        emit_flag_raise("_SP", "buffer-overflow", f"{msg!r} % {i}",
                        addr_expr, plain=True)
        asm.indent -= 2

    def emit_element_offset(i: str, base: int, esize: int,
                            struct_size: int) -> str:
        o = asm.temp()
        asm.w(f"{o} = {base} + {i} * {esize}")
        asm.w(f"if {o} < 0 or {o} + {esize} > {struct_size}:")
        asm.indent += 1
        asm.w("raise _WalkStop(True)")
        asm.indent -= 1
        return o

    blocks: List[List[str]] = []
    loops: List[tuple] = []
    pc = 0
    n = len(code)
    while pc < n:
        op = code[pc]
        if op == B_HDR:
            asm.lines = []
            blocks.append(asm.lines)
            address, is_cmd_end, gated, gate, gate_msg = pool[code[pc + 1]]
            cur_addr = address
            asm.w(f"_addr = {address}")
            asm.w("_blk += 1")
            asm.w("if _blk > _maxb:")
            asm.indent += 1
            emit_flag_raise("_SC", "walk-watchdog",
                            repr("specification walk exceeded block budget"),
                            str(address))
            asm.indent -= 1
            if is_cmd_end:
                # The prologue clears _cmd, so the gate can never fire.
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
            asm.lines = []
            blocks.append(asm.lines)
            # A stub flags at the *predecessor's* address (the block the
            # untrained transition left from), so _addr stays dynamic.
            cur_addr = None
            emit_flag_raise("_SC", "unobserved-path",
                            repr(pool[code[pc + 1]]), "_addr")
            pc += 2
        elif op == C_CONST:
            push(repr(pool[code[pc + 1]]))
            pc += 2
        elif op == C_PARAM:
            pos, mi = code[pc + 1], code[pc + 2]
            spill_pending()
            t = asm.temp()
            asm.w(f"{t} = _par[{pos}]")
            asm.w(f"if {t} is _MISS:")
            asm.indent += 1
            asm.w(f"raise CheckerError({pool[mi]!r})")
            asm.indent -= 1
            push(t)
            pc += 3
        elif op == C_PARAM_MISS:
            spill_pending()
            t = asm.temp()
            asm.w(f"{t} = _die({pool[code[pc + 1]]!r})")
            push(t)
            pc += 2
        elif op == C_LOCAL:
            slot, mi = code[pc + 1], code[pc + 2]
            spill_pending()
            t = asm.temp()
            asm.w(f"{t} = _env[{slot}]")
            asm.w(f"if {t} is _UNDEF:")
            asm.indent += 1
            asm.w(f"raise CheckerError({pool[mi]!r})")
            asm.indent -= 1
            push(t)
            pc += 3
        elif op == C_STATE:
            push(_state_load_expr(*pool[code[pc + 1]]))
            pc += 2
        elif op == C_STATEF:
            spill_pending()
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
                                   else str(cur_addr))
            o = emit_element_offset(i, base, esize, struct_size)
            t = asm.temp()
            raw = _load_raw(o, esize)
            asm.w(f"{t} = {_signed(raw, bits) if signed else raw}")
            push(t)
            pc += 2
        elif op == C_BINOP:
            sym = _OPSYMS[code[pc + 1]]
            b, a = pop(), pop()
            if sym in ("//", "%"):
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
            push(t)
            pc += 2
        elif op == D_DSD:
            asm.w("_dsd += 1")
            pc += 1
        elif op == D_ASSIGN:
            asm.w(f"_env[{code[pc + 1]}] = {pop()}")
            pc += 2
        elif op == D_STORE:
            (field, lo, hi, off, end, size, mask, msg,
             address) = pool[code[pc + 1]]
            raw_v = pop()
            if _INT_LITERAL.fullmatch(raw_v) and lo <= int(raw_v) <= hi:
                # Constant store inside its declared bounds: the check
                # can never fire, only its counter survives.
                asm.w("if _pon: _pch += 1")
                asm.w(_store_stmt(str(off), size, str(int(raw_v) & mask)))
            else:
                v = force_temp(raw_v)
                asm.w("if _pon:")
                asm.indent += 1
                asm.w("_pch += 1")
                asm.w(f"if not {lo} <= {v} <= {hi}:")
                asm.indent += 1
                emit_flag_raise("_SP", "integer-overflow",
                                f"{msg!r} % {v}", str(address),
                                plain=True)
                asm.indent -= 2
                asm.w(_store_stmt(str(off), size, f"{v} & {mask}"))
            pc += 2
        elif op == D_STOREM:
            field = pool[code[pc + 1]]
            v = force_temp(pop())
            asm.w("if _pon:")
            asm.indent += 1
            asm.w("_pch += 1")
            asm.w(f"if not w.state.in_range({field!r}, {v}):")
            asm.indent += 1
            asm.w('raise AssertionError("unreachable")')
            asm.indent -= 2
            asm.w(f"w.state.write_field({field!r}, {v})")
            pc += 2
        elif op == D_BUFSTORE:
            (buf, checked, length, base, esize, emask, struct_size,
             msg, address) = pool[code[pc + 1]]
            value, index = pop(), pop()
            i = force_temp(index)
            v = force_temp(value)
            if checked:
                emit_checked_index(i, length, msg, str(address))
            o = emit_element_offset(i, base, esize, struct_size)
            asm.w(_store_stmt(o, esize, f"{v} & {emask}"))
            pc += 2
        elif op == D_SETCMD:
            known, msg, address = pool[code[pc + 1]]
            v = force_temp(pop())
            _emit_setcmd(asm, known, msg, address, v, emit_flag_raise)
            pc += 2
        elif op == D_CMDEND:
            asm.w("_cmd = None")
            pc += 1
        elif op == N_GOTO:
            asm.w(f"_pc = {code[pc + 1]}")
            asm.w("continue")
            pc += 2
        elif op == N_BR:
            one_sided, msg, address = pool[code[pc + 1]]
            t_pc, nt_pc = code[pc + 2], code[pc + 3]
            cond = pop()
            if one_sided < 0:
                asm.w(f"_pc = {t_pc} if {cond} else {nt_pc}")
            else:
                c = force_temp(cond)
                asm.w("if _con: _cch += 1")
                if one_sided:   # trained side: taken
                    asm.w(f"if not {c}:")
                    asm.indent += 1
                    emit_flag_raise("_SC", "unobserved-branch",
                                    repr(msg), str(address))
                    asm.indent -= 1
                    asm.w(f"_pc = {t_pc}")
                else:
                    asm.w(f"if {c}:")
                    asm.indent += 1
                    emit_flag_raise("_SC", "unobserved-branch",
                                    repr(msg), str(address))
                    asm.indent -= 1
                    asm.w(f"_pc = {nt_pc}")
            asm.w("continue")
            pc += 4
        elif op == N_SWITCH:
            (enc, has_legit, no_arm_msg, not_legit_msg, address,
             setcmd) = pool[code[pc + 1]]
            v = force_temp(pop())
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
                                f"{not_legit_msg!r} % {v}", str(address))
                asm.indent -= 1
            asm.w("continue")
            pc += 2
        elif op == N_CALL:
            entry, np_, nl, cont, dest = pool[code[pc + 1]]
            nargs = code[pc + 2]
            args = [pop() for _ in range(nargs)][::-1]
            spill_pending()
            padded = (args + ["_MISS"] * np_)[:np_]
            asm.w(f"_stack.append((_env, _par, {cont}, {dest}))")
            asm.w(f"_par = ({', '.join(padded)}{',' if padded else ''})")
            asm.w(f"_env = [_UNDEF] * {nl}")
            asm.w(f"_pc = {entry}")
            asm.w("continue")
            pc += 3
        elif op == N_ICALL_PRE:
            (off, end, signed, bits, legit, by_addr, msg,
             address) = pool[code[pc + 1]]
            asm.w("if _ion: _ich += 1")
            t = asm.temp()
            asm.w(f"{t} = {_state_load_expr(off, end, signed, bits)}")
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
            args = [pop() for _ in range(nargs)][::-1]
            f = pop()
            spill_pending()
            t = asm.temp()
            asm.w(f"{t} = ({', '.join(args)}{',' if args else ''})")
            asm.w(f"_stack.append((_env, _par, {cont}, {dest}))")
            np_ = asm.temp()
            asm.w(f"{np_} = _FNP[{f}]")
            asm.w(f"_par = ({t} + _MISSPAD)[:{np_}]")
            asm.w(f"_env = [_UNDEF] * _FNL[{f}]")
            asm.w(f"_pc = _FENT[{f}]")
            asm.w("continue")
            pc += 4
        elif op == N_UNTRAINED:
            msg, address = pool[code[pc + 1]]
            emit_flag_raise("_SC", "unobserved-path", repr(msg),
                            str(address))
            pc += 2
        elif op == N_RET0:
            asm.w("if not _stack:")
            asm.w("    break")
            asm.w("_env, _par, _pc, _d = _stack.pop()")
            asm.w("if _d >= 0:")
            asm.w("    _env[_d] = 0")
            asm.w("continue")
            pc += 1
        elif op == N_RETV:
            asm.w(f"_rv = {pop()}")
            asm.w("if not _stack:")
            asm.w("    break")
            asm.w("_env, _par, _pc, _d = _stack.pop()")
            asm.w("if _d >= 0:")
            asm.w("    _env[_d] = _rv")
            asm.w("continue")
            pc += 1
        elif op == N_NONBTD:
            asm.w(f"raise CheckerError({pool[code[pc + 1]]!r})")
            pc += 2
        elif op == L_LOOP:
            loops.append(pool[code[pc + 1]])
            pc += 2
        else:
            raise CheckerError(f"bad opcode {op} at pc {pc}")

    if asm.stack:
        raise CheckerError("unbalanced expression stack lowering spec")

    _inline_goto_tails(blocks)
    _wrap_self_loops(blocks)
    for record in loops:
        k = record[0]
        if blocks[k][0] == "while True:":
            blocks[k][:0] = _closed_form(asm, *record[1:])

    out = _Asm(asm.consts)
    out.w("def _walk(w, _rounds, _reports_append, _orc, _mode, _maxb,")
    out.w("          _tel, _clk, _full):")
    out.indent += 1
    out.w("_pon = w.param_on; _ion = w.ijump_on; _con = w.cond_on")
    out.w("_res = _orc.resolve")
    out.w("_sdata = w.state.memory.data")
    out.w("_final = w.final_state")
    # A round that does not commit rolls the buffer back to the last
    # committed snapshot; anything escaping the frame (an oracle or
    # device fault, an interrupt) rolls it back to the entry snapshot.
    # A clean round that reports nothing (_full false) leaves the
    # committed snapshot stale (None); the next round retakes it.
    out.w("_committed = _entry = _bytes(_sdata)")
    out.w("_cyc = 0")
    out.w("try:")
    out.indent += 1
    out.w("for _iokey, _args in _rounds:")
    out.indent += 1
    out.w("if _tel is not None:")
    out.w("    _t0 = _clk()")
    out.w("_plan = _plans_get(_iokey)")
    out.w("if _plan is None:")
    out.w("    _report = w.unknown_key(_iokey, _mode)")
    out.w("else:")
    out.indent += 1
    out.w("if _committed is None:")
    out.w("    _committed = _bytes(_sdata)")
    out.w("_pc, _np, _nl = _plan")
    out.w("if len(_args) == _np:")
    out.w("    _par = _args if type(_args) is tuple else tuple(_args)")
    out.w("else:")
    out.w("    _par = (tuple(_args) + _MISSPAD)[:_np]")
    out.w("_env = [_UNDEF] * _nl")
    out.w("_blk = 0; _dsd = 0; _pch = 0; _ich = 0; _cch = 0")
    out.w("_cmd = None; _addr = 0")
    out.w("_stack = []")
    out.w("try:")
    out.indent += 1
    out.w("while True:")
    out.indent += 1
    _emit_dispatch(out, blocks, 0, len(blocks))
    out.indent -= 2
    # Handled inside the clauses: an exception kept in a local would
    # tie itself, its traceback and this frame into a garbage cycle.
    out.w("except _WalkStop as _e:")
    out.w("    _inc = _e.incomplete")
    out.w("except CheckerError as _e:")
    out.w('    _inc = not _flag(w, _SC, "sync-failure", str(_e), _addr)')
    # The walk left the dispatch loop normally: every flag site stops
    # the walk, so nothing was flagged and the round is complete.
    out.w("else:")
    out.indent += 1
    out.w("_cyc += int(_blk * _CBC + _dsd * _CSC)")
    out.w("if _tel is not None:")
    out.w("    _tel.record_clean(_pch, _ich, _cch, _clk() - _t0)")
    out.w("if _full:")
    out.w("    _committed = _bytes(_sdata)")
    out.w("    _report = _CR(io_key=_iokey, blocks_walked=_blk,")
    out.w("                  dsod_stmts_executed=_dsd, param_checks=_pch,")
    out.w("                  indirect_checks=_ich, conditional_checks=_cch)")
    out.w("    _report.bind_final_state(_partial(_final, _committed))")
    out.w("    _reports_append(_report)")
    out.w("else:")
    out.w("    _committed = None")
    out.w("    _reports_append(None)")
    out.w("continue")
    out.indent -= 1
    out.w("_report = w.report(_iokey, _mode, _inc, _blk, _dsd, _pch, _ich,")
    out.w("                   _cch)")
    out.w("_cyc += int(_blk * _CBC + _dsd * _CSC)")
    out.w("if _report.action is _ALLOW and not _inc:")
    out.w("    _committed = _bytes(_sdata)")
    out.w("else:")
    out.w("    _sdata[:] = _committed")
    out.w("_report.bind_final_state(_partial(_final, _committed))")
    out.indent -= 1
    out.w("if _tel is not None:")
    out.w("    _tel.record_round(_report, _clk() - _t0)")
    out.w("if _full or _report.incomplete or _report.action is not _ALLOW:")
    out.w("    _reports_append(_report)")
    out.w("else:")
    out.w("    _reports_append(None)")
    out.indent -= 2
    out.w("except BaseException:")
    out.w("    _sdata[:] = _entry")
    out.w("    w.flagged.clear()")
    out.w("    raise")
    out.w("return _cyc")

    return _exec_frame(out, f"<es-bytecode:{bspec.device}>", "_walk")


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


def _emit_setcmd(asm: _Asm, known, msg: str, address: int, value: str,
                 emit_flag_raise) -> None:
    """Inline command-decision resolution (Algorithm 1's cmd table)."""
    asm.w("if _con: _cch += 1")
    kref = asm.bind(known, "_K")
    asm.w(f"if {value} not in {kref}:")
    asm.indent += 1
    emit_flag_raise("_SC", "unknown-command", f"{msg!r} % {value}",
                    str(address))
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
