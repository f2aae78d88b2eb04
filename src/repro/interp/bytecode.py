"""Flat bytecode backend for device programs (the default interpreter
backend), and the code-generation toolkit both bytecode backends share.

The reference tree walker in :mod:`repro.interp.machine` re-dispatches
on IR node types for every statement, operand and terminator of every
round.  This module lowers each function once into a *flat*
array-encoded bytecode:

* ``code``  — a flat ``int`` opcode stream (expressions in stack form,
  statements and terminators as fixed-operand instructions);
* ``pool``  — a constant pool holding field geometry, messages, switch
  tables, and call targets (by name);
* jump targets resolved to dense block indices at lowering time, with
  ``Switch`` terminators compiled to dense tables when the key range is
  compact and to binary-search key/value arrays otherwise.

Execution happens in a **single dispatch loop per function**: the
assembler translates the opcode stream into one Python frame — a
``while`` loop dispatching on the block index through a binary
jump-target tree, with every statement body inlined (no per-statement
calls).  The assembled frame is a deterministic function of the int
stream, lowered and assembled in the process that runs the device;
nothing generated is ever read back from disk.

The frame is specialized like the checker frame: counters live in
locals and are reconciled on every exit path; field loads and stores
index the state buffer directly or go through fixed-width ``struct``
codecs; literal stores and constant-index buffer accesses inside the
struct are decided at assembly; static successors are generated into
their predecessors' chains, each decoding a field once, and trained
loops become native ``while`` loops; an entry handler starts at its
guarded superblock (see "Chains and superblocks" below); each extern
the function calls is resolved once per frame entry; and a counted
byte-copy loop moves its bytes with one call of each extern's block
twin when a guard proves that equals the scalar loop (see "Block
transfers" below).

One generator assembles every function twice, as the **fast runner**
and as the **traced runner** a machine with trace sinks runs (what
training runs).  The traced runner is the fast runner plus the sink
events, emitted inline where the reference walker emits them
(``on_block``/``on_branch``/``on_tip``/... in the same order), with
block transfers kept off so a copy loop reports every byte.

Semantics replicate the reference walker bit-for-bit: cycle/step
accounting (costs charged *before* evaluation), flag updates, fault
kinds and messages, and return-value coercion.  The differential suite
(``tests/interp/test_compile.py``) holds both runners to that.

The toolkit half of the module — operator spellings, the source
accumulator, state-buffer load/store forms, switch tables, the dispatch
tree, chains with their value tables, superblocks and self-loop
wrapping — is what :mod:`repro.checker.bytecode` builds its spec frame
from.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DeviceFault, InterpError
from repro.ir import (
    Assign, BinOp, Branch, BufLen, BufLoad, BufStore, Call, Const,
    ExternCall, Expr, FuncPtrType, Function, Goto, ICall, Intrinsic,
    IntType, Local, Param, Program, Return, StateRef, StateStore, Stmt,
    Switch, SyncVar, UnOp,
)
from repro.interp.ops import DEFAULT_EXTERN_COST, _floordiv, _mod

# -- opcodes ----------------------------------------------------------------
# Expressions (stack form; operands follow the opcode in the stream)
OP_CONST = 1          # ci              push pool[ci] (an int)
OP_PARAM = 2          # pos             push positional parameter
OP_PARAM_MISSING = 3  # mi              raise InterpError(pool[mi])
OP_LOCAL = 4          # ni              push local pool[ni]
OP_STATE = 5          # ii              scalar state load, pool[ii] geometry
OP_BUFLEN = 6         # v               push literal length
OP_BUFLOAD = 7        # ii              pops index; pool[ii] geometry
OP_BINOP = 8          # oi              pops rhs, lhs; _OPSYMS[oi]
OP_UNOP = 9           # oi              pops operand
OP_SYNCVAR = 10       # mi              raise InterpError(pool[mi])
OP_STATE_REF = 11     # ni              malformed fallback: read_field(name)
# Statements
OP_TICK = 18          # n               cycles += n (cost charged up front)
OP_ASSIGN = 20        # ni              pops value into local pool[ni]
OP_STORE = 21         # ii              pops value; pool[ii] store geometry
OP_BUFSTORE = 22      # ii              pops value, index
OP_EXTERN_PRE = 23    # ni mi           bind extern + add its cost
OP_EXTERN_CALL = 24   # nargs di        pops args; result into local di
OP_INTRIN = 25        # nargs ki        pops args; pool[ki] is the kind
OP_ICALL_PRE = 26     # ii              resolve funcptr target (may fault)
# Terminators
OP_GOTO = 30          # bi              jump to block index bi
OP_BR = 31            # bt bn           pops cond
OP_SWITCH = 32        # ii              pops scrutinee; pool[ii] jump table
OP_CALL = 33          # ni nargs di bi  direct call, resume at block bi
OP_ICALL_CALL = 34    # nargs di bi     call target of last ICALL_PRE
OP_RET = 35           #                 return None
OP_RETV = 36          #                 pops return value
OP_BLOCK = 40         #                 block prologue (step + watchdog)

#: operator index space shared by lowering and assembly
_OPSYMS = ("+", "-", "*", "//", "%", "&", "|", "^", "<<", ">>",
           "==", "!=", "<", "<=", ">", ">=", "and", "or")
_UNSYMS = ("-", "~", "not")

#: inline spellings for fault-free binary operators (a, b pre-evaluated)
_BIN_INLINE = {
    "+": "({a} + {b})", "-": "({a} - {b})", "*": "({a} * {b})",
    "&": "({a} & {b})", "|": "({a} | {b})", "^": "({a} ^ {b})",
    "<<": "({a} << ({b} & 63))", ">>": "({a} >> ({b} & 63))",
    "==": "(1 if {a} == {b} else 0)", "!=": "(1 if {a} != {b} else 0)",
    "<": "(1 if {a} < {b} else 0)", "<=": "(1 if {a} <= {b} else 0)",
    ">": "(1 if {a} > {b} else 0)", ">=": "(1 if {a} >= {b} else 0)",
    "and": "(1 if ({a} and {b}) else 0)",
    "or": "(1 if ({a} or {b}) else 0)",
}
_UN_INLINE = {"-": "(-({a}))", "~": "(~({a}))",
              "not": "(0 if {a} else 1)"}


# ---------------------------------------------------------------------------
# Lowering: IR -> flat arrays
# ---------------------------------------------------------------------------

class _FuncLowerer:
    """Lowers one function's CFG into code/pool arrays."""

    def __init__(self, func: Function, program: Program):
        self.func = func
        self.program = program
        self.code: List[int] = []
        self.pool: List[Any] = []
        self._pool_index: Dict[Any, int] = {}
        # Entry block first so the assembled loop starts at index 0.
        labels = [func.entry] + [l for l in func.blocks if l != func.entry]
        self.block_index = {label: i for i, label in enumerate(labels)}
        self.labels = tuple(labels)

    def ref(self, value: Any) -> int:
        """Intern *value* in the constant pool."""
        key = (type(value).__name__, repr(value))
        idx = self._pool_index.get(key)
        if idx is None:
            idx = len(self.pool)
            self.pool.append(value)
            self._pool_index[key] = idx
        return idx

    def emit(self, *ops: int) -> None:
        self.code.extend(ops)

    def lower(self) -> "BytecodeFunction":
        for label in self.labels:
            block = self.func.blocks[label]
            self.emit(OP_BLOCK)
            for stmt in block.stmts:
                self.lower_stmt(stmt)
            self.lower_terminator(block.terminator, label)
        return BytecodeFunction(
            name=self.func.name, params=tuple(self.func.params),
            labels=self.labels, code=tuple(self.code),
            pool=tuple(self.pool))

    # -- expressions ---------------------------------------------------------

    def lower_expr(self, expr: Expr) -> None:
        func_name = self.func.name
        if isinstance(expr, Const):
            self.emit(OP_CONST, self.ref(expr.value))
        elif isinstance(expr, Param):
            if expr.name in self.func.params:
                self.emit(OP_PARAM, self.func.params.index(expr.name))
            else:
                msg = f"{func_name}: unknown parameter {expr.name!r}"
                self.emit(OP_PARAM_MISSING, self.ref(msg))
        elif isinstance(expr, Local):
            self.emit(OP_LOCAL, self.ref(expr.name))
        elif isinstance(expr, StateRef):
            decl = self.program.layout.field(expr.field)
            if decl.is_buffer:
                self.emit(OP_STATE_REF, self.ref(expr.field))
            else:
                signed = (isinstance(decl.type, IntType)
                          and decl.type.signed)
                bits = decl.type.bits if signed else 0
                self.emit(OP_STATE, self.ref(
                    (decl.offset, decl.end, int(signed), bits)))
        elif isinstance(expr, BufLoad):
            self.lower_expr(expr.index)
            decl = self.program.layout.field(expr.buf)
            if not decl.is_buffer:
                self.emit(OP_BUFLOAD, self.ref((expr.buf, 0, 0, 0, 0, 0)))
            else:
                elem = decl.type.elem
                self.emit(OP_BUFLOAD, self.ref(
                    (expr.buf, 1, decl.offset, elem.size,
                     int(elem.signed), elem.bits)))
        elif isinstance(expr, BufLen):
            self.emit(OP_BUFLEN, expr.length)
        elif isinstance(expr, BinOp):
            if isinstance(expr.left, Const) and isinstance(expr.right, Const):
                # Constant folding: div0 must stay a runtime fault.
                from repro.interp.ops import binop_fn
                try:
                    folded = binop_fn(expr.op)(expr.left.value,
                                               expr.right.value)
                except DeviceFault:
                    pass
                else:
                    self.emit(OP_CONST, self.ref(folded))
                    return
            self.lower_expr(expr.left)
            self.lower_expr(expr.right)
            self.emit(OP_BINOP, _OPSYMS.index(expr.op))
        elif isinstance(expr, UnOp):
            self.lower_expr(expr.operand)
            self.emit(OP_UNOP, _UNSYMS.index(expr.op))
        elif isinstance(expr, SyncVar):
            msg = (f"SyncVar {expr.name!r} in a device program (sync vars "
                   f"belong to execution specifications)")
            self.emit(OP_SYNCVAR, self.ref(msg))
        else:
            raise InterpError(f"unknown expression {type(expr).__name__}")

    # -- statements ----------------------------------------------------------

    def lower_stmt(self, stmt: Stmt) -> None:
        layout = self.program.layout
        if isinstance(stmt, Assign):
            self.emit(OP_TICK, 1)
            self.lower_expr(stmt.value)
            self.emit(OP_ASSIGN, self.ref(stmt.target))
        elif isinstance(stmt, StateStore):
            self.emit(OP_TICK, 1)
            self.lower_expr(stmt.value)
            decl = layout.field(stmt.field)
            if decl.is_buffer or not isinstance(decl.type,
                                                (IntType, FuncPtrType)):
                self.emit(OP_STORE, self.ref((stmt.field, "malformed",
                                              0, 0, 0, 0, 0, 0)))
            elif isinstance(decl.type, FuncPtrType):
                mask = (1 << (decl.size * 8)) - 1
                self.emit(OP_STORE, self.ref(
                    (stmt.field, "fp", decl.offset, decl.end, decl.size,
                     mask, 0, 0)))
            else:
                mask = (1 << (decl.size * 8)) - 1
                self.emit(OP_STORE, self.ref(
                    (stmt.field, "int", decl.offset, decl.end, decl.size,
                     mask, decl.type.min_value, decl.type.max_value)))
        elif isinstance(stmt, BufStore):
            self.emit(OP_TICK, 1)
            self.lower_expr(stmt.index)
            self.lower_expr(stmt.value)
            decl = layout.field(stmt.buf)
            if decl.is_buffer:
                esize = decl.type.elem.size
                emask = (1 << (esize * 8)) - 1
                self.emit(OP_BUFSTORE, self.ref(
                    (stmt.buf, 1, decl.offset, esize, emask)))
            else:
                self.emit(OP_BUFSTORE, self.ref((stmt.buf, 0, 0, 0, 0)))
        elif isinstance(stmt, ExternCall):
            self.emit(OP_TICK, 1)
            msg = f"extern {stmt.func!r} is not bound"
            self.emit(OP_EXTERN_PRE, self.ref(stmt.func), self.ref(msg))
            for arg in stmt.args:
                self.lower_expr(arg)
            dest = self.ref(stmt.dest) if stmt.dest is not None else -1
            self.emit(OP_EXTERN_CALL, len(stmt.args), dest)
        elif isinstance(stmt, Intrinsic):
            self.emit(OP_TICK, 1)
            for arg in stmt.args:
                self.lower_expr(arg)
            self.emit(OP_INTRIN, len(stmt.args), self.ref(stmt.kind))
        else:
            raise InterpError(f"unknown statement {type(stmt).__name__}")

    # -- terminators ---------------------------------------------------------

    def lower_terminator(self, term, label: str) -> None:
        func_name = self.func.name
        if isinstance(term, Goto):
            self.emit(OP_TICK, 1)
            self.emit(OP_GOTO, self.block_index[term.target])
        elif isinstance(term, Branch):
            self.emit(OP_TICK, 2)
            self.lower_expr(term.cond)
            self.emit(OP_BR, self.block_index[term.taken],
                      self.block_index[term.not_taken])
        elif isinstance(term, Switch):
            self.emit(OP_TICK, 3)
            self.lower_expr(term.scrutinee)
            default = (self.block_index[term.default]
                       if term.default else -1)
            msg = (f"switch in {func_name}:{label} has no arm "
                   f"for %d and no default")
            table = {k: self.block_index[v] for k, v in term.table.items()}
            self.emit(OP_SWITCH,
                      self.ref((_encode_switch(table, default), msg)))
        elif isinstance(term, Call):
            # Resolve at lowering: a missing callee is a lowering-time
            # error.
            self.program.function(term.func)
            self.emit(OP_TICK, 4)
            for arg in term.args:
                self.lower_expr(arg)
            dest = self.ref(term.dest) if term.dest is not None else -1
            self.emit(OP_CALL, self.ref(term.func), len(term.args), dest,
                      self.block_index[term.cont])
        elif isinstance(term, ICall):
            self.emit(OP_TICK, 6)
            decl = self.program.layout.field(term.ptr_field)
            signed = (not decl.is_buffer and isinstance(decl.type, IntType)
                      and decl.type.signed)
            msg = (f"indirect call through dev.{term.ptr_field} to "
                   f"non-code address %#x")
            self.emit(OP_ICALL_PRE, self.ref(
                (term.ptr_field, decl.offset, decl.end, int(signed),
                 decl.type.bits if signed else 0, msg)))
            for arg in term.args:
                self.lower_expr(arg)
            dest = self.ref(term.dest) if term.dest is not None else -1
            self.emit(OP_ICALL_CALL, len(term.args), dest,
                      self.block_index[term.cont])
        elif isinstance(term, Return):
            self.emit(OP_TICK, 2)
            if term.value is None:
                self.emit(OP_RET)
            else:
                self.lower_expr(term.value)
                self.emit(OP_RETV)
        else:
            raise InterpError(f"unknown terminator {type(term).__name__}")


def _encode_switch(table: Dict[int, int], default: int) -> Tuple[Any, ...]:
    """Dense jump table when the key range is compact, else sorted
    key/target arrays for binary search."""
    if table:
        lo, hi = min(table), max(table)
        span = hi - lo + 1
        if span <= max(16, 4 * len(table)):
            dense = tuple(table.get(lo + i, default) for i in range(span))
            return ("dense", lo, dense, default)
    keys = tuple(sorted(table))
    vals = tuple(table[k] for k in keys)
    return ("bsearch", keys, vals, default)


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------

class BytecodeFunction:
    """One function's flat bytecode arrays (the serializable unit)."""

    __slots__ = ("name", "params", "labels", "code", "pool")

    def __init__(self, name: str, params: Tuple[str, ...],
                 labels: Tuple[str, ...], code: Tuple[int, ...],
                 pool: Tuple[Any, ...]):
        self.name = name
        self.params = params
        self.labels = labels
        self.code = code
        self.pool = pool


class BytecodeProgram:
    """All lowered functions of one program plus their assembled runners."""

    __slots__ = ("program_name", "funcs", "runners", "traced_runners",
                 "entries")

    def __init__(self, program_name: str,
                 funcs: Dict[str, BytecodeFunction]):
        self.program_name = program_name
        self.funcs = funcs
        self.runners: Dict[str, Callable] = {}
        self.traced_runners: Dict[str, Callable] = {}
        #: io key -> (its handler's fast runner, the handler's arity)
        self.entries: Dict[str, Tuple[Callable, int]] = {}

    def assemble(self, program: Program) -> "BytecodeProgram":
        handlers = set(program.entry_handlers.values())
        for name, bfunc in self.funcs.items():
            superblock = name in handlers
            self.runners[name] = _assemble_function(
                bfunc, program, superblock=superblock)
            self.traced_runners[name] = _assemble_function(
                bfunc, program, traced=True, superblock=superblock)
        for key, name in program.entry_handlers.items():
            if name in self.funcs:
                self.entries[key] = (self.runners[name],
                                     len(self.funcs[name].params))
        return self


# ---------------------------------------------------------------------------
# Code-generation toolkit (shared with repro.checker.bytecode)
# ---------------------------------------------------------------------------

class _Asm:
    """Generated source under construction: lines with indentation
    tracking, the expression stack of the instruction being assembled
    (source strings; ``_t<n>`` temps are already evaluated), and the
    constants the frame's namespace binds."""

    def __init__(self, consts: Dict[str, Any]) -> None:
        self.lines: List[str] = []
        self.indent = 0
        self.stack: List[str] = []
        self.consts = consts
        self._temp = 0
        self._const = 0

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def bind(self, value: Any, prefix: str = "_K") -> str:
        """Bind *value* as a frame constant; returns its name."""
        self._const += 1
        name = f"{prefix}{self._const}"
        self.consts[name] = value
        return name

    def push(self, expr: str) -> None:
        self.stack.append(expr)

    def pop(self) -> str:
        return self.stack.pop()

    def pop_args(self, n: int) -> List[str]:
        return [self.stack.pop() for _ in range(n)][::-1]

    def spill_pending(self) -> None:
        """Materialize every pending stack entry as a temp, in push
        order, so a faulting instruction cannot reorder evaluation."""
        for i, expr in enumerate(self.stack):
            if not _is_temp(expr):
                t = self.temp()
                self.w(f"{t} = {expr}")
                self.stack[i] = t

    def force_temp(self, expr: str) -> str:
        """Name an expression so it can be used more than once."""
        if _is_temp(expr):
            return expr
        t = self.temp()
        self.w(f"{t} = {expr}")
        return t

    def begin(self) -> Tuple[List[str], int]:
        """Start collecting lines apart, at indentation 0 (a guarded
        body or a branch arm whose header depends on what it holds);
        :meth:`end` hands them back."""
        saved = (self.lines, self.indent)
        self.lines, self.indent = [], 0
        return saved

    def end(self, saved: Tuple[List[str], int]) -> List[str]:
        lines = self.lines
        self.lines, self.indent = saved
        return lines

    def splice(self, lines: List[str]) -> None:
        """Append *lines* collected apart, one level in."""
        pad = "    " * (self.indent + 1)
        self.lines.extend(pad + line for line in lines)


def _is_temp(expr: str) -> bool:
    return expr.startswith("_t") and expr[2:].isdigit()


#: little-endian fixed-width codecs of the state-buffer forms below
_S2 = struct.Struct("<H")
_S4 = struct.Struct("<I")
_S8 = struct.Struct("<Q")
_CODECS: Dict[str, Any] = {
    "_u4": _S4.unpack_from, "_u8": _S8.unpack_from,
    "_i2": struct.Struct("<h").unpack_from,
    "_i4": struct.Struct("<i").unpack_from,
    "_i8": struct.Struct("<q").unpack_from,
    "_p2": _S2.pack_into, "_p4": _S4.pack_into, "_p8": _S8.pack_into,
}

#: a source string that is an integer literal (a folded ``Const``)
_INT_LITERAL = re.compile(r"-?\d+")


def _load_raw(off: str, size: int) -> str:
    """Read *size* little-endian bytes at *off* off the state buffer
    ``_sdata``: one-byte fields are a plain bytearray index, two-byte
    ones two index ops (cheaper than a slice plus ``int.from_bytes``),
    wider ones the fixed-width codecs.  Layout widths are 1, 2, 4 or 8."""
    if size == 1:
        return f"_sdata[{off}]"
    if size == 2:
        return f"(_sdata[{off}] | _sdata[{off} + 1] << 8)"
    return f"_u{size}(_sdata, {off})[0]"


def _store_stmt(off: str, size: int, value: str) -> str:
    """The store twin of :func:`_load_raw` (*value* already masked)."""
    if size == 1:
        return f"_sdata[{off}] = {value}"
    return f"_p{size}(_sdata, {off}, {value})"


def _load_value(off: str, size: int, signed: int) -> str:
    """The value of the *size*-byte integer at *off*: :func:`_load_raw`
    when unsigned; signed ones through the signed ``struct`` letters,
    or one byte's ``(b ^ 128) - 128``."""
    if not signed:
        return _load_raw(off, size)
    if size == 1:
        return f"((_sdata[{off}] ^ 128) - 128)"
    return f"_i{size}(_sdata, {off})[0]"


def _state_load_expr(off: int, end: int, signed: int, bits: int) -> str:
    """A scalar field load (*bits* is the width of a signed field)."""
    return _load_value(str(off), end - off, signed)


def _emit_switch_pc(asm: _Asm, enc: Tuple[Any, ...], v: str) -> None:
    """``_pc = <arm of v>`` over an :func:`_encode_switch` table; keys
    without an arm yield the table's default."""
    i = asm.temp()
    if enc[0] == "dense":
        _, base, dense, default = enc
        tref = asm.bind(dense, "_T")
        asm.w(f"{i} = {v} - {base}")
        asm.w(f"_pc = {tref}[{i}] if 0 <= {i} < {len(dense)} "
              f"else {default}")
    else:
        _, keys, vals, default = enc
        kref = asm.bind(keys, "_T")
        vref = asm.bind(vals, "_T")
        asm.w(f"{i} = _bisect({kref}, {v})")
        asm.w(f"_pc = {vref}[{i}] if {i} < {len(keys)} "
              f"and {kref}[{i}] == {v} else {default}")


def _emit_dispatch(out: _Asm, blocks: List[List[str]], lo: int, hi: int,
                   keys: Optional[List[int]] = None) -> None:
    """Binary jump-target tree over block indices: ``blocks[i]`` runs
    at ``_pc == keys[i]`` (sorted; by default ``i``)."""
    if hi - lo == 1:
        for line in blocks[lo]:
            out.w(line)
        return
    mid = (lo + hi) // 2
    out.w(f"if _pc < {mid if keys is None else keys[mid]}:")
    out.indent += 1
    _emit_dispatch(out, blocks, lo, mid, keys)
    out.indent -= 1
    out.w("else:")
    out.indent += 1
    _emit_dispatch(out, blocks, mid, hi, keys)
    out.indent -= 1


def _exec_frame(out: _Asm, filename: str, name: str) -> Callable:
    """Compile the generated source into the function *name*, with the
    frame constants as its globals."""
    source = "\n".join(out.lines) + "\n"
    namespace: Dict[str, Any] = dict(out.consts)
    exec(compile(source, filename, "exec"), namespace)
    frame = namespace[name]
    frame._bytecode_source = source
    return frame


def _spans(code: Tuple[int, ...], widths: Dict[int, int], heads,
           error: type) -> Tuple[List[Tuple[int, int]], int]:
    """Where each block lies in *code*: a block starts at each opcode in
    *heads* (a prologue) and runs to the next one, or to the first
    opcode of width -1 (a trailing record, not a block).  Returns the
    ``(start, end)`` spans and where the records start."""
    starts: List[int] = []
    pc, n = 0, len(code)
    while pc < n:
        op = code[pc]
        width = widths.get(op)
        if width is None:
            raise error(f"bad opcode {op} at pc {pc}")
        if width < 0:
            break
        if op in heads:
            starts.append(pc)
        pc += 1 + width
    ends = starts[1:] + [pc]
    return list(zip(starts, ends)), pc


# ---------------------------------------------------------------------------
# Chains and superblocks (shared with repro.checker.bytecode)
# ---------------------------------------------------------------------------
#
# A *chain* is a block plus, spliced in, each static successor (a Goto,
# a call's continuation, the trained side of a one-sided checker branch)
# up to a dynamic transfer, a cycle or the line budget.  Both frames
# generate a chain in one pass over its blocks' instructions with one
# value table (:class:`_Values`): a scalar field is decoded once per
# chain, a store is forwarded to the loads after it, and an ES local or
# I/O parameter is tested for ``_UNDEF`` / ``_MISS`` once.
#
# A *superblock* is the chain at an entry (a key's first block in the
# checker, an entry handler's first block in the device runner)
# generated a second time as a guarded fast path: one guard in front
# covers the whole path's watchdog budget, so no block pays a prologue
# test; the walk counters are charged at each exit and in front of
# anything that can raise instead of block by block; and a two-sided
# branch whose arms both end the round within a line budget becomes an
# ``if``/``else`` over both arms, so the value table survives it.  When
# the guard fails, the walk enters the dispatch loop at the entry and
# runs the per-block path.  The device runner builds its superblocks
# with :func:`_superblock`; the checker generates each key's superblock
# as a function of its own, whose every path ends in a return, so it
# also inlines arms that hand over to the per-block path (see
# ``repro.checker.bytecode``, :func:`_assemble_spec`).

#: Cap on a chain's line count.  Keeps the source (and CPython compile
#: time) linear in the program while still collapsing the straight-line
#: Goto / one-sided-branch chains that dominate execution.
_INLINE_BUDGET = 1600

#: Cap on the lines of the two arms a superblock inlines at one
#: two-sided branch.
_ARM_BUDGET = 240

#: a source string a value table can hand out as it is: a frame local or
#: an integer literal
_SIMPLE = re.compile(r"-?\d+|[A-Za-z_]\w*")


class _Values:
    """The value table of a chain being generated.

    ``fields`` maps a scalar field's offset to ``(end, source)``: what a
    load of bytes ``offset .. end - 1`` returns at this point of the
    chain, as a frame local, a literal, or an expression over frame
    locals that the first load materializes.  ``names`` maps a value
    the frame tests on read — an ES local, an I/O parameter, or a device
    runner local known to be assigned — to the source holding it.

    A field store records what a reload returns (the stored literal
    masked and sign-fixed, else the masked and sign-fixed stored value:
    it equals the stored value when that lies in the field's range).
    Whatever may write the state behind the table's back clears the
    fields it may hit: a buffer store (a dynamic index may land on any
    field), an accessor store, an extern, a sync resolution, a nested
    call.  A chain starts empty, so a loop head (where a native loop
    re-enters a chain) starts empty too."""

    __slots__ = ("fields", "names")

    def __init__(self, fields: Optional[Dict[int, Tuple[int, str]]] = None,
                 names: Optional[Dict[Any, str]] = None) -> None:
        self.fields = dict(fields) if fields else {}
        self.names = dict(names) if names else {}

    def copy(self) -> "_Values":
        return _Values(self.fields, self.names)

    def clobber(self, lo: int, hi: int) -> None:
        """Forget every field overlapping bytes ``lo .. hi - 1``."""
        for off in [off for off, (end, _) in self.fields.items()
                    if off < hi and lo < end]:
            del self.fields[off]

    def load(self, asm: _Asm, off: int, end: int, signed: int) -> str:
        """A frame local holding the field's value, decoded (or
        materialized from a forwarded store) on first use."""
        known = self.fields.get(off)
        if known is not None and known[0] == end:
            if _SIMPLE.fullmatch(known[1]):
                return known[1]
            expr = known[1]
        else:
            self.clobber(off, end)
            expr = _load_value(str(off), end - off, signed)
        t = asm.temp()
        asm.w(f"{t} = {expr}")
        self.fields[off] = (end, t)
        return t

    def store(self, off: int, end: int, signed: bool, value: str) -> None:
        """Forward a store of *value* (a frame local or a literal) to
        the loads after it."""
        self.clobber(off, end)
        bits = (end - off) * 8
        mask = (1 << bits) - 1
        if _INT_LITERAL.fullmatch(value):
            stored = int(value) & mask
            if signed and stored >> (bits - 1):
                stored -= 1 << bits
            reload = str(stored)
        elif signed:
            half = 1 << (bits - 1)
            reload = f"((({value} + {half}) & {mask}) - {half})"
        else:
            reload = f"({value} & {mask})"
        self.fields[off] = (end, reload)


def _truth(cond: str) -> str:
    """*cond* as a test, without an inline comparison's
    ``(1 if X else 0)`` wrapper (every operator spelling is
    parenthesized, so the wrapper is the whole string)."""
    if cond.startswith("(1 if ") and cond.endswith(" else 0)"):
        return cond[6:-8]
    return cond


def _emit_chain(asm: _Asm, first: int, emit_block: Callable,
                vals: _Values) -> None:
    """Emit the chain from block *first*, ending in its dispatch
    transfer.

    ``emit_block(k, vals, path)`` emits block *k* with the value table
    *vals* and returns its tail: ``("goto", j)`` or ``("call", j)`` for
    a static successor, ``("br", cond, taken, not_taken)`` for a
    two-sided branch, ``("end",)`` when it ended the round (returned,
    broke out or raised), ``("exit",)`` when it emitted a dynamic
    transfer.  *path* is None on the per-block path; a superblock passes
    the frame's pending counters (see :func:`_emit_superblock`)."""
    visited = {first}
    k = first
    while True:
        tail = emit_block(k, vals, None)
        kind = tail[0]
        if kind == "goto" or kind == "call":
            target = tail[1]
            if target not in visited and len(asm.lines) < _INLINE_BUDGET:
                visited.add(target)
                k = target
                continue
            asm.w(f"_pc = {target}")
            asm.w("continue")
        elif kind == "br":
            _, cond, taken, not_taken = tail
            asm.w(f"_pc = {taken} if {_truth(cond)} else {not_taken}")
            asm.w("continue")
        return


def _superblock(asm: _Asm, entry: int, emit_block: Callable, path,
                guard: Callable[[int], str]) -> List[str]:
    """The lines of the superblock at block *entry*: its fast path
    behind the guard *guard* formats for its block count, then the
    fallback into the dispatch loop at *entry*, the per-block path."""
    asm.lines, asm.indent = [], 0
    n, _ = _emit_superblock(asm, entry, emit_block, _Values(), path, guard,
                            {entry})
    return ([f"if {guard(n)}:"] + ["    " + line for line in asm.lines]
            + [f"_pc = {entry}", "continue"])


def _emit_superblock(asm: _Asm, first: int, emit_block: Callable,
                     vals: _Values, path, guard: Callable[[int], str],
                     visited: set) -> Tuple[int, bool]:
    """Emit the fast path of the superblock from block *first*.

    *path* holds the frame's pending counters: ``path.flush(asm)``
    charges them, ``path.copy()`` forks them for a branch arm and
    ``path.fresh()`` starts a segment after a nested call.  Returns the
    most blocks a path through it walks before it leaves or reaches a
    segment with a guard of its own — what the guard in front must
    cover — and whether every path ends the round."""
    k, blocks = first, 0
    while True:
        tail = emit_block(k, vals, path)
        blocks += 1
        kind = tail[0]
        if kind == "goto":
            target = tail[1]
            if target not in visited and len(asm.lines) < _INLINE_BUDGET:
                visited.add(target)
                k = target
                continue
            path.flush(asm)
            asm.w(f"_pc = {target}")
            asm.w("continue")
            return blocks, False
        if kind == "call":
            # The call charged the counters and the callee spent part of
            # the watchdog budget: the continuation is a segment behind
            # its own guard, falling back to the per-block path.
            cont = tail[1]
            if cont in visited:
                asm.w(f"_pc = {cont}")
                asm.w("continue")
                return blocks, False
            saved = asm.begin()
            n, ends = _emit_superblock(asm, cont, emit_block, vals,
                                       path.fresh(), guard, visited | {cont})
            lines = asm.end(saved)
            asm.w(f"if {guard(n)}:")
            asm.splice(lines)
            asm.w(f"_pc = {cont}")
            asm.w("continue")
            return blocks, ends
        if kind == "br":
            _, cond, taken, not_taken = tail
            arms: List[Tuple[int, List[str]]] = []
            for arm in (taken, not_taken):
                if arm in visited:
                    break
                saved = asm.begin()
                n, ends = _emit_superblock(asm, arm, emit_block, vals.copy(),
                                           path.copy(), guard,
                                           visited | {arm})
                lines = asm.end(saved)
                if not ends:
                    break
                arms.append((n, lines))
            if (len(arms) == 2
                    and len(arms[0][1]) + len(arms[1][1]) <= _ARM_BUDGET):
                asm.w(f"if {_truth(cond)}:")
                asm.splice(arms[0][1])
                asm.w("else:")
                asm.splice(arms[1][1])
                return blocks + max(arms[0][0], arms[1][0]), True
            path.flush(asm)
            asm.w(f"_pc = {taken} if {_truth(cond)} else {not_taken}")
            asm.w("continue")
            return blocks, False
        return blocks, kind == "end"


_TWO_SIDED = re.compile(r"^_pc = (\d+) if (.*) else (\d+)$")


def _wrap_self_loops(blocks: List[List[str]]) -> None:
    """Turn dispatch-level self-loops into native Python loops.

    In chains, a trained loop collapses into one block whose
    tail jumps back to the block itself — and every iteration still
    pays a full dispatch-tree descent to get back to it.  Such a block
    is wrapped in its own ``while True:``: the back-edge becomes a
    plain ``continue`` and the loop body re-executes without touching
    the dispatch tree at all.

    The back-edge is the block's tail (the only place a static or
    two-sided transfer sits once tails are inlined): either
    ``_pc = <itself>`` / ``continue``, or a two-sided branch with one
    arm back to the block (a loop latch that inlining pulled the loop
    header into), which is split into ``if c:`` / ``_pc = <itself>`` /
    ``continue`` plus ``_pc = K``.  Only such self-edges are split:
    splitting every two-sided branch would let chains copy each
    fall-through arm, growing the source (and its compile time) for no
    loop gained.

    Inside the wrapped body, control statements are re-targeted:

    * ``continue`` (a dispatch jump to another block) → ``break`` out
      of the inner loop, then the trailing ``continue`` re-enters the
      dispatch with ``_pc`` already set;
    * ``break`` (a checker round exit) → ``_pc = -1`` + ``break``; the
      trailing ``if _pc == -1: break`` propagates the round exit.
      ``return`` (a device frame exit) needs no re-targeting.

    Observables (counters, flags, state stores, anomaly addresses) are
    byte-for-byte those of the dispatch-driven execution.
    """
    for i, lines in enumerate(blocks):
        if len(lines) < 2:
            continue
        tail = lines[-2]
        match = _TWO_SIDED.match(tail)
        if match is not None and str(i) in match.group(1, 3):
            taken, cond, not_taken = match.groups()
            if int(taken) == i:
                test, other = cond, not_taken
            else:
                test, other = f"not {cond}", taken
            lines = lines[:-2] + [f"if {test}:", f"    _pc = {i}",
                                  "    continue", f"_pc = {other}",
                                  "continue"]
        elif tail != f"_pc = {i}":
            continue
        body: List[str] = []
        exits = False
        for line in lines:
            stripped = line.strip()
            indent = line[:len(line) - len(stripped)]
            if stripped == "continue":
                if body and body[-1].strip() == f"_pc = {i}":
                    # The self back-edge: drop the pc store, loop
                    # natively.
                    body.pop()
                    body.append(indent + "continue")
                else:
                    body.append(indent + "break")
            elif stripped == "break":
                exits = True
                body.append(indent + "_pc = -1")
                body.append(indent + "break")
            else:
                body.append(line)
        blocks[i] = (["while True:"]
                     + ["    " + line for line in body]
                     + (["if _pc == -1:", "    break"] if exits else [])
                     + ["continue"])


# ---------------------------------------------------------------------------
# Block transfers (fast runner only)
# ---------------------------------------------------------------------------

@dataclass
class _Transfer:
    """A counted ``for`` loop whose one body block moves one byte per
    iteration, which the fast runner can move as one twin call.

    The frontend lowers ``for i in range(...)`` to a head block
    (``i < __i_stop``), the body and a step block (``i = i + 1``).  The
    body is one of three shapes: ``dest = R(X + i)`` then either
    ``W(Y + i, dest)`` or a store into ``buf[i + c]`` /
    ``buf[cursor]; cursor += 1``; or ``W(Y + i, buf[i + c])`` /
    ``S(buf[i + c])``.  ``X`` and ``Y`` are the loop-invariant address
    bases of the read and write externs."""

    head: str
    body: str
    step: str
    exit: str
    i: str
    stop: str
    read: Optional[Tuple[str, Expr, str]] = None    # (extern, X, dest)
    write: Optional[Tuple[str, Expr]] = None        # (extern, Y)
    stream: Optional[str] = None                    # extern
    buf: Optional[str] = None
    into: bool = False             # the body stores into buf
    offset: int = 0                # c of buf[i + c]
    cursor: Optional[str] = None   # the field indexing buf instead

    @property
    def externs(self) -> Tuple[str, ...]:
        return tuple(name for name in (
            self.read and self.read[0], self.write and self.write[0],
            self.stream) if name)


def _counted_base(expr: Expr, i: str) -> Optional[Expr]:
    """``X`` of an ``X + i`` (``Const(0)`` for a bare ``i``), else None."""
    if expr == Local(i):
        return Const(0)
    if isinstance(expr, BinOp) and expr.op == "+":
        if expr.right == Local(i):
            return expr.left
        if expr.left == Local(i):
            return expr.right
    return None


def _buffer_offset(expr: Expr, i: str) -> Optional[int]:
    """``c`` of a buffer index ``i + c``, else None."""
    base = _counted_base(expr, i)
    return base.value if isinstance(base, Const) else None


def _transfer_body(stmts: List[Stmt], i: str,
                   stop: str) -> Optional[Dict[str, Any]]:
    """The :class:`_Transfer` fields of a body of one of the three
    shapes, else None."""
    if not stmts or not isinstance(stmts[0], ExternCall):
        return None
    first, rest = stmts[0], stmts[1:]
    if first.dest is None:
        # buffer -> write or stream extern
        load = first.args[-1] if first.args else None
        if rest or not isinstance(load, BufLoad):
            return None
        offset = _buffer_offset(load.index, i)
        if offset is None:
            return None
        fields = dict(buf=load.buf, offset=offset)
        if len(first.args) == 1:
            fields["stream"] = first.func
            return fields
        base = (_counted_base(first.args[0], i) if len(first.args) == 2
                else None)
        if base is None:
            return None
        fields["write"] = (first.func, base)
        return fields
    dest = first.dest
    base = (_counted_base(first.args[0], i) if len(first.args) == 1
            else None)
    if base is None or dest in (i, stop):
        return None
    fields = dict(read=(first.func, base, dest))
    value = Local(dest)
    if (len(rest) == 1 and isinstance(rest[0], ExternCall)
            and rest[0].dest is None and len(rest[0].args) == 2
            and rest[0].args[1] == value and rest[0].func != first.func):
        # read extern -> write extern
        fields["write"] = (rest[0].func,
                           _counted_base(rest[0].args[0], i))
        return fields if fields["write"][1] is not None else None
    if not rest or not isinstance(rest[0], BufStore) \
            or rest[0].value != value:
        return None
    fields.update(buf=rest[0].buf, into=True)
    if len(rest) == 1:
        fields["offset"] = _buffer_offset(rest[0].index, i)
        return fields if fields["offset"] is not None else None
    index = rest[0].index
    if (len(rest) == 2 and isinstance(index, StateRef)
            and isinstance(rest[1], StateStore)
            and rest[1].field == index.field
            and rest[1].value == BinOp("+", index, Const(1))):
        fields["cursor"] = index.field
        return fields
    return None


def _match_transfers(func: Function) -> List[_Transfer]:
    """Every counted loop of *func* whose body is a transfer shape."""
    found: List[_Transfer] = []
    for label, head in func.blocks.items():
        term = head.terminator
        if (head.stmts or not isinstance(term, Branch)
                or not isinstance(term.cond, BinOp) or term.cond.op != "<"
                or not isinstance(term.cond.left, Local)
                or not isinstance(term.cond.right, Local)):
            continue
        i, stop = term.cond.left.name, term.cond.right.name
        body = func.blocks[term.taken]
        if stop != f"__{i}_stop" or not isinstance(body.terminator, Goto):
            continue
        step = func.blocks[body.terminator.target]
        if not (len(step.stmts) == 1 and isinstance(step.stmts[0], Assign)
                and step.stmts[0].target == i
                and step.stmts[0].value == BinOp("+", Local(i), Const(1))
                and isinstance(step.terminator, Goto)
                and step.terminator.target == label):
            continue
        fields = _transfer_body(body.stmts, i, stop)
        if fields is not None:
            found.append(_Transfer(head=label, body=term.taken,
                                   step=body.terminator.target,
                                   exit=term.not_taken, i=i, stop=stop,
                                   **fields))
    return found


def _invariant_src(expr: Expr, func: Function, program: Program,
                   barred: set, written: set) -> Optional[str]:
    """Source of an address base that the loop cannot change and whose
    evaluation cannot fault (so it is evaluated once, at loop entry), or
    None.  *barred* locals are the loop's own, *written* fields are the
    ones the body stores."""
    def src(e: Expr) -> Optional[str]:
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Param):
            return _mangle_param(e.name) if e.name in func.params else None
        if isinstance(e, Local):
            return None if e.name in barred else _mangle_local(e.name)
        if isinstance(e, StateRef):
            decl = program.layout.field(e.field)
            if decl.is_buffer or e.field in written:
                return None
            signed = isinstance(decl.type, IntType) and decl.type.signed
            return _state_load_expr(decl.offset, decl.end, int(signed),
                                    decl.type.bits if signed else 0)
        if isinstance(e, BufLen):
            return repr(e.length)
        if isinstance(e, BinOp) and e.op in _BIN_INLINE:
            a, b = src(e.left), src(e.right)
            if a is None or b is None:
                return None
            return _BIN_INLINE[e.op].format(a=a, b=b)
        if isinstance(e, UnOp):
            a = src(e.operand)
            return None if a is None else _UN_INLINE[e.op].format(a=a)
        return None    # buffer loads, sync vars, // and % can fault
    return src(expr)


def _transfer_lines(t: _Transfer, func: Function, program: Program,
                    slots: Dict[str, int], cycles: int,
                    exit_pc: int) -> Optional[List[str]]:
    """The guarded block path of *t*, placed in front of its native
    self-loop: when every guard holds at loop entry it moves all
    ``n = stop - i`` bytes through the externs' twins and leaves the
    round exactly as the scalar loop would (counters, locals, flags,
    harvest, state), else it falls through to the unchanged loop.

    The guard: ``n >= 1``; the watchdog budget covers all ``3n``
    blocks; every extern of the body is bound and has a twin; every
    buffer index stays within that buffer's own elements and a cursor
    within its type; and a read-then-write body's write range does not
    start strictly inside its read range, where a shared store would
    make the loop read bytes it wrote itself."""
    i, stop = _mangle_local(t.i), _mangle_local(t.stop)
    written = {name for name in (t.buf if t.into else None, t.cursor)
               if name}
    barred = {t.i} | ({t.read[2]} if t.read else set())
    evals: List[str] = []
    conds: List[str] = []
    for var, part in (("_br", t.read), ("_bw", t.write)):
        if part is None:
            continue
        base = _invariant_src(part[1], func, program, barred, written)
        if base is None:
            return None
        evals.append(f"{var} = {i}" if base == "0"
                     else f"{var} = {base} + {i}")
    if t.read and t.write:
        conds.append("(_bw <= _br or _bw >= _br + _bn)")
    decl = program.layout.field(t.buf) if t.buf else None
    if decl is not None and not (decl.is_buffer and decl.type.elem.bits == 8
                                 and not decl.type.elem.signed):
        return None    # the twins move bytes: u8 buffers only
    cursor = program.layout.field(t.cursor) if t.cursor else None
    if cursor is not None:
        if cursor.is_buffer or not isinstance(cursor.type, IntType):
            return None
        ctype = cursor.type
        evals.append("_bc = " + _state_load_expr(
            cursor.offset, cursor.end, int(ctype.signed),
            ctype.bits if ctype.signed else 0))
        conds.append(f"0 <= _bc and _bc + _bn <= "
                     f"{min(decl.type.length, ctype.max_value)}")
        at = f"{decl.offset} + _bc"
    elif decl is not None:
        conds.append(f"{i} >= {-t.offset} and "
                     f"{stop} <= {decl.type.length - t.offset}")
        at = f"{decl.offset + t.offset} + {i}"
    guard = ["_bn >= 1", "_st + 3 * _bn <= _lim"]
    for name in t.externs:
        guard.append(f"_X{slots[name]} is not None")
        guard.append(f"_XB{slots[name]} is not None")
    lines = [f"_bn = {stop} - {i}", f"if {' and '.join(guard)}:"]
    if any(part[1].local_refs() for part in (t.read, t.write) if part):
        # A base local read before assignment faults in the loop, with
        # the loop's accounting: leave that to the scalar path.
        lines += ["    try:"] + ["        " + e for e in evals]
        lines += ["    except NameError:", "        _bn = 0"]
        conds.insert(0, "_bn")
    else:
        lines += ["    " + e for e in evals]
    effects: List[str] = []
    if t.read:
        effects.append(f"_bd = _XB{slots[t.read[0]]}(m, _br, _bn)")
    else:
        effects.append("_bo = " + at)
        effects.append("_bd = _sdata[_bo:_bo + _bn]")
    if t.write:
        effects.append(f"_XB{slots[t.write[0]]}(m, _bw, _bd)")
    if t.stream:
        effects.append(f"_XB{slots[t.stream]}(m, _bd)")
    if t.into:
        effects.append("_bo = " + at)
        effects.append("_sdata[_bo:_bo + _bn] = _bd")
    if cursor is not None:
        mask = (1 << (cursor.size * 8)) - 1
        effects.append(_store_stmt(str(cursor.offset), cursor.size,
                                   f"(_bc + _bn) & {mask}"))
        effects.append("_flags.overflow = False")
        effects.append(f"_flags.last_store_field = {t.cursor!r}")
    if t.read:
        key = f"extern:{func.name}:{t.read[2]}"
        effects += ["if _hv is not None:",
                    f"    _bq = _hv.get({key!r})",
                    f"    if _bq is None: _bq = _hv[{key!r}] = _deque()",
                    "    _bq.extend(_bd)",
                    f"{_mangle_local(t.read[2])} = _bd[-1]"]
    per_iter = " + ".join([str(cycles)] + [f"_XC{slots[name]}"
                                           for name in t.externs])
    effects += [f"{i} = {stop}", "_st += 3 * _bn",
                f"_cy += _bn * ({per_iter})", f"_pc = {exit_pc}",
                "continue"]
    lines.append(f"    if {' and '.join(conds)}:")
    return lines + ["        " + e for e in effects]


# ---------------------------------------------------------------------------
# Assembly: flat arrays -> one dispatch-loop frame
# ---------------------------------------------------------------------------

def _mangle_local(name: str) -> str:
    return "V_" + name


def _mangle_param(name: str) -> str:
    return "P_" + name


def _watchdog(m) -> None:
    """The block-budget fault, raised from every block prologue."""
    raise DeviceFault("watchdog: %d blocks without completing the I/O "
                      "round (infinite loop?)" % m.max_steps,
                      device=m.program.name, kind="watchdog")


def _die(msg: str) -> int:
    raise InterpError(msg)


def _elem_offset(base: int, index: str, esize: int) -> str:
    if esize == 1:
        return f"{base} + ({index})"
    return f"{base} + ({index}) * {esize}"


#: operand count per opcode (what :func:`_spans` steps over)
_WIDTHS = {
    OP_CONST: 1, OP_PARAM: 1, OP_PARAM_MISSING: 1, OP_LOCAL: 1,
    OP_STATE: 1, OP_BUFLEN: 1, OP_BUFLOAD: 1, OP_BINOP: 1, OP_UNOP: 1,
    OP_SYNCVAR: 1, OP_STATE_REF: 1, OP_TICK: 1, OP_ASSIGN: 1, OP_STORE: 1,
    OP_BUFSTORE: 1, OP_EXTERN_PRE: 2, OP_EXTERN_CALL: 2, OP_INTRIN: 2,
    OP_ICALL_PRE: 1, OP_GOTO: 1, OP_BR: 2, OP_SWITCH: 1, OP_CALL: 4,
    OP_ICALL_CALL: 3, OP_RET: 0, OP_RETV: 0, OP_BLOCK: 0,
}


class _RunPath:
    """The fast runner's pending counters on one superblock path: the
    steps and cycles charged since they were last added to ``_st`` /
    ``_cy``, which happens at every exit, call and extern, and in front
    of anything that can raise; *zero* says both locals hold 0."""

    __slots__ = ("st", "cy", "zero")

    def __init__(self, st: int = 0, cy: int = 0, zero: bool = True):
        self.st, self.cy, self.zero = st, cy, zero

    def copy(self) -> "_RunPath":
        return _RunPath(self.st, self.cy, self.zero)

    def fresh(self) -> "_RunPath":
        return _RunPath()

    def lines(self) -> List[str]:
        parts = [f"{var} += {n}" for var, n in (("_st", self.st),
                                                 ("_cy", self.cy)) if n]
        return ["; ".join(parts)] if parts else []

    def flush(self, asm: _Asm) -> None:
        for line in self.lines():
            asm.w(line)
        if self.st or self.cy:
            self.zero = False
        self.st = self.cy = 0

    def total(self, var: str, n: int) -> str:
        """``var`` plus *n* pending, as a source expression."""
        if self.zero:
            return str(n)
        return f"{var} + {n}" if n else var


def _assemble_function(bfunc: BytecodeFunction, program: Program,
                       traced: bool = False,
                       superblock: bool = False) -> Callable:
    """Translate the opcode stream into one Python frame.

    The frame keeps cycle/step counts as local deltas and reconciles
    them with the machine on *every* exit path (return, nested call,
    extern, and any raise), so fault-time accounting is bit-identical
    to the reference walker's.  It writes state through the specialized
    buffer forms, folds literal stores and in-struct constant-index
    accesses, and runs over chains (a block with its static successors,
    value-numbered) with native self-loops.  With *superblock* (an entry
    handler's frame) it starts at the guarded superblock of its first
    block.  It resolves each extern the function calls once at entry
    (so ``bind_extern`` takes effect at the next function entry),
    appends destination-bearing extern results to ``m.harvest`` (read
    once per frame) when co-execution has set it, resolves the block
    twins of its transfer loops there, and puts each loop's guarded
    block path in front of its native self-loop.

    *traced* (the runner of a machine with trace sinks) adds the sink
    events where the reference walker emits them, and keeps block
    transfers off so a copy loop reports every byte: ``on_block`` after
    the watchdog step, ``on_branch`` on the evaluated condition,
    ``on_tip`` before a wild-jump fault, ``on_call`` after the call's
    arguments, ``on_return`` after the return value, ``on_state_store``
    carrying the value table's read-back of the store, and so on.  An
    operand an event repeats is evaluated once, into a temp.  No sink
    reads the counters mid-round or writes state, so the traced frame
    is the fast frame in every other respect.
    """
    code, pool = bfunc.code, bfunc.pool
    device = program.name
    struct_size = program.layout.size
    func = program.function(bfunc.name)
    asm = _Asm({
        **_CODECS, "_fdiv": _floordiv, "_fmod": _mod, "_wd": _watchdog,
        "_die": _die, "_bisect": bisect_left, "_deque": deque,
        "InterpError": InterpError, "DeviceFault": DeviceFault,
    })
    if traced:
        asm.consts["_FN"] = func
        for i, label in enumerate(bfunc.labels):
            asm.consts[f"_BLK{i}"] = func.blocks[label]
        asm.consts["_BADDR"] = tuple(func.blocks[l].address
                                     for l in bfunc.labels)
    push, pop = asm.push, asm.pop
    local_names: set = set()
    externs: Dict[str, int] = {}    # extern name -> slot, first use order
    harvests = False    # any extern result to queue into m.harvest
    spans, _ = _spans(code, _WIDTHS, (OP_BLOCK,), InterpError)
    # static cycles each block charges
    ticks = [sum(code[pc + 1] for pc in _ops(code, start, stop, OP_TICK))
             for start, stop in spans]

    def local(name: str) -> str:
        local_names.add(name)
        return _mangle_local(name)

    def const_offset(index: str, base: int, esize: int):
        """The struct offset of a literal-index element, or None."""
        if _INT_LITERAL.fullmatch(index):
            return base + int(index) * esize
        return None

    def settle(path: Optional[_RunPath]) -> None:
        """Charge a superblock's pending counters before something that
        can raise (the handlers reconcile ``_cy``/``_st``)."""
        if path is not None:
            path.flush(asm)

    def pending(path: Optional[_RunPath]) -> None:
        """The pending counters, inside a branch that always raises."""
        if path is not None:
            for line in path.lines():
                asm.w(line)

    def event(call: str) -> None:
        """Hand the event *call* to every trace sink (traced only)."""
        if traced:
            asm.w(f"for _s in m._sinks: _s.{call}")

    def pin(expr: str) -> str:
        """*expr* evaluated once when an event repeats it (traced)."""
        if traced and not _SIMPLE.fullmatch(expr):
            return asm.force_temp(expr)
        return expr

    def emit_block(k: int, vals: _Values,
                   path: Optional[_RunPath]) -> tuple:
        nonlocal harvests
        blk = f"_BLK{k}"
        last_extern = ""
        pc, end = spans[k]
        while pc < end:
            op = code[pc]
            if op == OP_BLOCK:
                if path is not None:
                    path.st += 1
                else:
                    asm.w("_st += 1")
                    asm.w("if _st > _lim: _wd(m)")
                event(f"on_block(_FN, {blk})")
                pc += 1
            elif op == OP_TICK:
                if path is not None:
                    path.cy += code[pc + 1]
                else:
                    asm.w(f"_cy += {code[pc + 1]}")
                pc += 2
            elif op == OP_CONST:
                push(repr(pool[code[pc + 1]]))
                pc += 2
            elif op == OP_PARAM:
                push(_mangle_param(bfunc.params[code[pc + 1]]))
                pc += 2
            elif op in (OP_PARAM_MISSING, OP_SYNCVAR):
                asm.spill_pending()
                settle(path)
                t = asm.temp()
                asm.w(f"{t} = _die({pool[code[pc + 1]]!r})")
                push(t)
                pc += 2
            elif op == OP_LOCAL:
                name = pool[code[pc + 1]]
                if path is not None and name not in vals.names:
                    settle(path)    # read before assignment: NameError
                push(local(name))
                pc += 2
            elif op == OP_STATE:
                off, end_, signed, bits = pool[code[pc + 1]]
                push(vals.load(asm, off, end_, signed))
                pc += 2
            elif op == OP_STATE_REF:
                asm.spill_pending()
                settle(path)
                t = asm.temp()
                asm.w(f"{t} = _state.read_field({pool[code[pc + 1]]!r})")
                push(t)
                pc += 2
            elif op == OP_BUFLEN:
                push(repr(code[pc + 1]))
                pc += 2
            elif op == OP_BUFLOAD:
                buf, is_buffer, base, esize, signed, bits = pool[code[pc + 1]]
                index = pop()
                off = const_offset(index, base, esize) if is_buffer else None
                if off is not None and 0 <= off <= struct_size - esize:
                    # In-struct constant index: a plain load, nothing to
                    # test.
                    push(_load_value(str(off), esize, signed))
                elif off is not None or not is_buffer:
                    # read_buf raises the fault (oob-segfault, or not a
                    # buffer) with the reference walker's message.
                    asm.spill_pending()
                    settle(path)
                    t = asm.temp()
                    asm.w(f"{t} = _state.read_buf({buf!r}, {index})")
                    push(t)
                else:
                    asm.spill_pending()
                    t, o = asm.temp(), asm.temp()
                    asm.w(f"{o} = {_elem_offset(base, index, esize)}")
                    asm.w(f"if 0 <= {o} <= {struct_size - esize}:")
                    asm.w(f"    {t} = {_load_value(o, esize, signed)}")
                    asm.w("else:")
                    asm.indent += 1
                    pending(path)
                    asm.w(f"{t} = _state.read_buf({buf!r}, "
                          f"({o} - {base}) // {esize})")
                    asm.indent -= 1
                    push(t)
                pc += 2
            elif op == OP_BINOP:
                sym = _OPSYMS[code[pc + 1]]
                b, a = pop(), pop()
                if sym in ("//", "%"):
                    asm.spill_pending()
                    settle(path)
                    t = asm.temp()
                    fn = "_fdiv" if sym == "//" else "_fmod"
                    asm.w(f"{t} = {fn}({a}, {b})")
                    push(t)
                else:
                    push(_BIN_INLINE[sym].format(a=a, b=b))
                pc += 2
            elif op == OP_UNOP:
                push(_UN_INLINE[_UNSYMS[code[pc + 1]]].format(a=pop()))
                pc += 2
            elif op == OP_ASSIGN:
                value = pop()
                name = pool[code[pc + 1]]
                asm.w(f"{local(name)} = {value}")
                vals.names[name] = _mangle_local(name)
                pc += 2
            elif op == OP_STORE:
                field, kind, off, end_, size, mask, lo, hi = \
                    pool[code[pc + 1]]
                value = pop()
                if kind == "malformed":
                    # Through the accessor, like the reference walker's
                    # StateStore; the event re-reads the stored value.
                    v = asm.force_temp(value)
                    settle(path)
                    o = asm.temp()
                    asm.w(f"{o} = _state.write_field({field!r}, {v})")
                    asm.w(f"_flags.overflow = {o}")
                    asm.w(f"_flags.last_store_field = {field!r}")
                    if traced:
                        s = asm.temp()
                        asm.w(f"{s} = _state.read_field({field!r})")
                        event(f"on_state_store({field!r}, {s}, {o})")
                    vals.fields.clear()
                elif _INT_LITERAL.fullmatch(value):
                    # Literal store: the overflow bit and the stored bytes
                    # are decided here.
                    literal = int(value)
                    overflow = kind == "int" and not lo <= literal <= hi
                    asm.w(f"_flags.overflow = {overflow}")
                    asm.w(f"_flags.last_store_field = {field!r}")
                    asm.w(_store_stmt(str(off), size, str(literal & mask)))
                    vals.store(off, end_, lo < 0, value)
                else:
                    v = asm.force_temp(value)
                    asm.w("_flags.overflow = False" if kind == "fp" else
                          f"_flags.overflow = not {lo} <= {v} <= {hi}")
                    asm.w(f"_flags.last_store_field = {field!r}")
                    asm.w(_store_stmt(str(off), size, f"{v} & {mask}"))
                    vals.store(off, end_, lo < 0, v)
                if traced and kind != "malformed":
                    s = vals.load(asm, off, end_, lo < 0)
                    event(f"on_state_store({field!r}, {s}, "
                          f"_flags.overflow)")
                pc += 2
            elif op == OP_BUFSTORE:
                buf, is_buffer, base, esize, emask = pool[code[pc + 1]]
                value, index = pop(), pop()
                index, value = pin(index), pin(value)
                off = const_offset(index, base, esize) if is_buffer else None
                if off is not None and 0 <= off <= struct_size - esize:
                    if _INT_LITERAL.fullmatch(value):
                        masked = str(int(value) & emask)
                    else:
                        masked = f"{value} & {emask}"
                    asm.w(_store_stmt(str(off), esize, masked))
                    vals.clobber(off, off + esize)
                elif off is not None or not is_buffer:
                    settle(path)
                    asm.w(f"_state.write_buf({buf!r}, {index}, {value})")
                    vals.fields.clear()
                else:
                    o = asm.temp()
                    asm.w(f"{o} = {_elem_offset(base, index, esize)}")
                    v = asm.force_temp(value)
                    asm.w(f"if 0 <= {o} <= {struct_size - esize}:")
                    asm.w(f"    {_store_stmt(o, esize, f'{v} & {emask}')}")
                    asm.w("else:")
                    asm.indent += 1
                    pending(path)
                    asm.w(f"_state.write_buf({buf!r}, "
                          f"({o} - {base}) // {esize}, {v})")
                    asm.indent -= 1
                    # The element may land on any field of the struct.
                    vals.fields.clear()
                event(f"on_buf_store({buf!r}, {index}, {value})")
                pc += 2
            elif op == OP_EXTERN_PRE:
                name, msg = pool[code[pc + 1]], pool[code[pc + 2]]
                last_extern = name    # consumed by the matching EXTERN_CALL
                slot = externs.setdefault(name, len(externs))
                asm.w(f"if _X{slot} is None:")
                asm.indent += 1
                pending(path)
                asm.w(f"raise InterpError({msg!r})")
                asm.indent -= 1
                asm.w(f"_cy += _XC{slot}")
                if path is not None:
                    path.zero = False
                push(f"_X{slot}")    # carried under the args until the call
                pc += 3
            elif op == OP_EXTERN_CALL:
                nargs, dest = code[pc + 1], code[pc + 2]
                args = asm.pop_args(nargs)
                f = pop()
                asm.spill_pending()
                settle(path)
                asm.w("m.cycles += _cy; _cy = 0")
                asm.w("m.steps += _st; _lim -= _st; _st = 0")
                if path is not None:
                    path.zero = True
                args = [pin(a) for a in args]
                t = asm.temp()
                asm.w(f"{t} = int({f}({', '.join(['m'] + args)}) or 0)")
                dname = pool[dest] if dest >= 0 else None
                event(f"on_extern({bfunc.name!r}, {last_extern!r}, "
                      f"{dname!r}, ({', '.join(args)}"
                      f"{',' if args else ''}), {t})")
                vals.fields.clear()
                if dest >= 0:
                    harvests = True
                    key = f"extern:{bfunc.name}:{dname}"
                    q = asm.temp()
                    asm.w("if _hv is not None:")
                    asm.w(f"    {q} = _hv.get({key!r})")
                    asm.w(f"    if {q} is None: {q} = _hv[{key!r}] = "
                          f"_deque()")
                    asm.w(f"    {q}.append({t})")
                    asm.w(f"{local(dname)} = {t}")
                    vals.names[dname] = _mangle_local(dname)
                pc += 3
            elif op == OP_INTRIN:
                nargs, ki = code[pc + 1], code[pc + 2]
                args = [pin(a) for a in asm.pop_args(nargs)]
                for a in args:
                    if not _is_temp(a):
                        asm.w(a)    # evaluate for effect (it can fault)
                event(f"on_intrinsic({pool[ki]!r}, ({', '.join(args)}"
                      f"{',' if args else ''}))")
                pc += 3
            elif op == OP_ICALL_PRE:
                field, off, end_, signed, bits, msg = pool[code[pc + 1]]
                a = vals.load(asm, off, end_, signed)
                f = asm.temp()
                asm.w(f"{f} = _A2F.get({a})")
                # The TIP event fires even for a wild jump (the tracer
                # must see the bogus target), so it precedes the fault.
                event(f'on_tip({blk}, {a}, "icall")')
                asm.w(f"if {f} is None:")
                asm.indent += 1
                pending(path)
                asm.w(f"raise DeviceFault({msg!r} % {a}, "
                      f"device={device!r}, kind=\"wild-jump\")")
                asm.indent -= 1
                push(f)
                pc += 2
            elif op in (OP_CALL, OP_ICALL_CALL):
                if op == OP_CALL:
                    fname = pool[code[pc + 1]]
                    nargs, dest, cont = code[pc + 2:pc + 5]
                    pc += 5
                else:
                    nargs, dest, cont = code[pc + 1:pc + 4]
                    pc += 4
                args = asm.pop_args(nargs)
                if op == OP_CALL:
                    f = asm.bind(program.function(fname), "_F")
                else:
                    f = pop()
                asm.spill_pending()
                settle(path)
                asm.w("m.cycles += _cy; _cy = 0")
                asm.w("m.steps += _st; _st = 0")
                if op == OP_CALL:
                    # Args are evaluated before on_call, like the walker's
                    # Call terminator.
                    args = [pin(a) for a in args]
                    event(f"on_call(_FN, {f})")
                t = asm.temp()
                asm.w(f"{t} = m._call({f}, ({', '.join(args)}"
                      f"{',' if args else ''}))")
                asm.w("_lim = m.max_steps - m.steps")
                vals.fields.clear()
                if dest >= 0:
                    name = pool[dest]
                    asm.w(f"{local(name)} = int({t} or 0)")
                    vals.names[name] = _mangle_local(name)
                return ("call", cont)
            elif op == OP_GOTO:
                return ("goto", code[pc + 1])
            elif op == OP_BR:
                cond = pop()
                if traced:
                    o = asm.temp()
                    asm.w(f"{o} = True if {_truth(cond)} else False")
                    event(f"on_branch({blk}, {o})")
                    cond = o
                return ("br", cond, code[pc + 1], code[pc + 2])
            elif op == OP_SWITCH:
                enc, msg = pool[code[pc + 1]]
                v = asm.force_temp(pop())
                settle(path)
                _emit_switch_pc(asm, enc, v)
                asm.w(f"if _pc < 0: raise InterpError({msg!r} % {v})")
                if traced:
                    ta = asm.temp()
                    asm.w(f"{ta} = _BADDR[_pc]")
                    # Both events per sink before moving to the next sink,
                    # matching the walker's single sink loop.
                    asm.w("for _s in m._sinks:")
                    asm.w(f'    _s.on_tip({blk}, {ta}, "switch")')
                    asm.w(f"    _s.on_switch({blk}, {v}, {ta})")
                asm.w("continue")
                return ("exit",)
            elif op in (OP_RET, OP_RETV):
                if op == OP_RETV:
                    asm.w(f"_rv = {pop()}")
                event("on_return(_FN)")
                if path is not None:
                    asm.w(f"m.cycles += {path.total('_cy', path.cy)}; "
                          f"m.steps += {path.total('_st', path.st)}")
                else:
                    asm.w("m.cycles += _cy; m.steps += _st")
                asm.w("return _rv" if op == OP_RETV else "return None")
                return ("end",)
            else:
                raise InterpError(f"bad opcode {op} at pc {pc}")
        raise InterpError(f"block {k} of {bfunc.name} has no terminator")

    blocks: List[List[str]] = []
    for k in range(len(spans)):
        asm.lines, asm.indent = [], 0
        _emit_chain(asm, k, emit_block, _Values())
        if asm.stack:
            raise InterpError(
                f"unbalanced expression stack lowering {bfunc.name}")
        blocks.append(asm.lines)

    _wrap_self_loops(blocks)
    twins: Dict[str, int] = {}    # extern name -> slot, twin resolved
    index = {label: k for k, label in enumerate(bfunc.labels)}
    # Traced, each byte of a copy loop is a block, extern and store
    # event, so its loop stays scalar.
    for t in () if traced else _match_transfers(func):
        k = index[t.body]
        cycles = ticks[index[t.head]] + ticks[k] + ticks[index[t.step]]
        lines = _transfer_lines(t, func, program, externs, cycles,
                                index[t.exit])
        if lines is not None and blocks[k][0] == "while True:":
            blocks[k][:0] = lines
            twins.update((name, externs[name]) for name in t.externs)
    entry: List[str] = []
    if superblock:
        # _st is 0 at the frame's entry and after each call.
        entry = _superblock(asm, 0, emit_block, _RunPath(),
                            "{} <= _lim".format)

    # -- frame scaffolding ---------------------------------------------------
    out = _Asm(asm.consts)
    out.w("def _run(m, args):")
    out.indent += 1
    if bfunc.params:
        unpack = ", ".join(_mangle_param(p) for p in bfunc.params)
        out.w(f"{unpack}{',' if len(bfunc.params) == 1 else ''} = args")
    out.w("_st = 0; _cy = 0")
    out.w("_state = m.state; _sdata = _state.data; _flags = m.flags")
    if externs:
        out.w("_ext = m._externs; _ecost = m._extern_cost")
        for name, slot in externs.items():
            out.w(f"_X{slot} = _ext.get({name!r}); "
                  f"_XC{slot} = _ecost.get({name!r}, {DEFAULT_EXTERN_COST})")
    if twins:
        out.w("_xb = m._extern_block")
        for name, slot in twins.items():
            out.w(f"_XB{slot} = _xb.get({name!r})")
    out.w("_lim = m.max_steps - m.steps")
    if harvests:
        out.w("_hv = m.harvest")
    out.w("_pc = -1" if entry else "_pc = 0")
    out.w("try:")
    out.indent += 1
    out.w("while True:")
    out.indent += 1
    if entry:
        out.w("if _pc < 0:")
        out.indent += 1
        for line in entry:
            out.w(line)
        out.indent -= 1
        out.w("else:")
        out.indent += 1
        _emit_dispatch(out, blocks, 0, len(blocks))
        out.indent -= 1
    else:
        _emit_dispatch(out, blocks, 0, len(blocks))
    out.indent -= 2
    out.w("except NameError as e:")
    out.indent += 1
    out.w("m.cycles += _cy; m.steps += _st")
    out.w("_msg = _LMSG.get(getattr(e, 'name', None))")
    out.w("if _msg is not None:")
    out.w("    raise InterpError(_msg) from None")
    out.w("raise")
    out.indent -= 1
    out.w("except BaseException:")
    out.w("    m.cycles += _cy; m.steps += _st")
    out.w("    raise")

    out.consts["_LMSG"] = {
        _mangle_local(name): (f"{bfunc.name}: local {name!r} read "
                              f"before assignment")
        for name in local_names
    }
    out.consts["_A2F"] = {addr: program.functions[fname]
                          for addr, fname in program.addr_to_func.items()}
    return _exec_frame(out, f"<bytecode:{device}.{bfunc.name}>", "_run")


def _ops(code: Tuple[int, ...], start: int, stop: int, want: int):
    """Positions of opcode *want* in ``code[start:stop]``."""
    pc = start
    while pc < stop:
        op = code[pc]
        if op == want:
            yield pc
        pc += 1 + _WIDTHS[op]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def lower_program(program: Program) -> BytecodeProgram:
    """Lower every function of *program* to flat bytecode arrays."""
    if not program.frozen:
        raise InterpError("program must be frozen before lowering")
    funcs = {name: _FuncLowerer(func, program).lower()
             for name, func in program.functions.items()}
    return BytecodeProgram(program.name, funcs)


def bytecode_program_for(program: Program) -> BytecodeProgram:
    """Lower + assemble once per program; the artifact is shared by every
    machine."""
    cached = getattr(program, "_bytecode_backend", None)
    if cached is None:
        cached = lower_program(program).assemble(program)
        program._bytecode_backend = cached
    return cached
