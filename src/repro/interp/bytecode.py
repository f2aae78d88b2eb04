"""Flat bytecode backend for device programs (the default interpreter
backend).

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
calls, counters kept in locals and reconciled on every exit path).  The
assembled frame is a deterministic function of the int stream, lowered
and assembled in the process that runs the device; nothing generated
is ever read back from disk.

Semantics replicate the reference walker bit-for-bit: cycle/step
accounting (costs charged *before* evaluation), flag updates, fault
kinds and messages, and return-value coercion.  The differential suite
(``tests/interp/test_compile.py``) holds both backends to that.
Every function is assembled twice — a fast runner (counters in locals,
reconciled on exit) and a traced runner that emits the sink event
stream inline (``on_block``/``on_branch``/``on_tip``/... in the exact
order the reference walker produces them), so traced rounds stay in the
dispatch-loop frame too.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DeviceFault, InterpError
from repro.ir import (
    Assign, BinOp, Branch, BufLen, BufLoad, BufStore, Call, Const,
    ExternCall, Expr, FuncPtrType, Function, Goto, ICall, Intrinsic,
    IntType, Local, Param, Program, Return, StateRef, StateStore, Stmt,
    Switch, SyncVar, UnOp,
)
from repro.interp.ops import _floordiv, _mod

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
            self.emit(OP_SWITCH, self.ref(_encode_switch(table, default,
                                                         msg)))
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


def _encode_switch(table: Dict[int, int], default: int,
                   msg: str) -> Tuple[Any, ...]:
    """Dense jump table when the key range is compact, else sorted
    key/target arrays for binary search."""
    if table:
        lo, hi = min(table), max(table)
        span = hi - lo + 1
        if span <= max(16, 4 * len(table)):
            dense = tuple(table.get(lo + i, default) for i in range(span))
            return ("dense", lo, dense, default, msg)
    keys = tuple(sorted(table))
    vals = tuple(table[k] for k in keys)
    return ("bsearch", keys, vals, default, msg)


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

    __slots__ = ("program_name", "funcs", "runners", "traced_runners")

    def __init__(self, program_name: str,
                 funcs: Dict[str, BytecodeFunction]):
        self.program_name = program_name
        self.funcs = funcs
        self.runners: Dict[str, Callable] = {}
        self.traced_runners: Dict[str, Callable] = {}

    def assemble(self, program: Program) -> "BytecodeProgram":
        for name, bfunc in self.funcs.items():
            self.runners[name] = _assemble_function(bfunc, program)
            self.traced_runners[name] = _assemble_function(
                bfunc, program, traced=True)
        return self


# ---------------------------------------------------------------------------
# Assembly: flat arrays -> one dispatch-loop frame
# ---------------------------------------------------------------------------

class _Asm:
    """Accumulates generated source with indentation tracking."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0
        self._temp = 0

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"


def _mangle_local(name: str) -> str:
    return "V_" + name


def _mangle_param(name: str) -> str:
    return "P_" + name


def _state_load_expr(off: int, end: int, signed: int, bits: int) -> str:
    raw = f'_ifb(_data[{off}:{end}], "little")'
    if signed:
        half, mod = 1 << (bits - 1), 1 << bits
        return f"((({raw} + {half}) % {mod}) - {half})"
    return raw


class _StackEntry:
    __slots__ = ("expr",)

    def __init__(self, expr: str):
        self.expr = expr


def _assemble_function(bfunc: BytecodeFunction, program: Program,
                       traced: bool = False) -> Callable:
    """Translate the opcode stream into one Python frame.

    The fast frame keeps cycle/step counts as local deltas and
    reconciles them with the machine on *every* exit path (return,
    nested call, extern, and any raise), so fault-time accounting is
    bit-identical to the reference walker's.

    The traced frame (``traced=True``) instead updates ``m.cycles`` /
    ``m.steps`` directly — the counters must be current at every sink
    call — and emits the sink events inline, replicating the reference
    walker event-for-event: ``on_block`` after the watchdog check,
    ``on_tip`` before a wild-jump fault, ``on_return`` after the return
    value is evaluated, store events carrying the re-read stored value,
    and so on.  Both frames append destination-bearing extern results
    to ``m.harvest`` (read once per frame) when co-execution has set it.
    """
    code, pool = bfunc.code, bfunc.pool
    consts: Dict[str, Any] = {
        "_ifb": int.from_bytes, "_fdiv": _floordiv, "_fmod": _mod,
        "InterpError": InterpError, "DeviceFault": DeviceFault,
    }
    const_n = 0
    func = program.function(bfunc.name)
    if traced:
        consts["_FN"] = func
        for i, label in enumerate(bfunc.labels):
            consts[f"_BLK{i}"] = func.blocks[label]
        consts["_BADDR"] = tuple(func.blocks[l].address
                                 for l in bfunc.labels)

    def bind(value: Any, prefix: str = "_K") -> str:
        nonlocal const_n
        const_n += 1
        name = f"{prefix}{const_n}"
        consts[name] = value
        return name

    asm = _Asm()
    stack: List[_StackEntry] = []
    device = program.name
    local_names: set = set()
    harvests = False    # any extern result to queue into m.harvest

    def push(expr: str) -> None:
        stack.append(_StackEntry(expr))

    def pop() -> str:
        return stack.pop().expr

    def spill_pending() -> None:
        """Materialize every pending stack entry as a temp, in push
        order, so a faulting instruction cannot reorder evaluation."""
        for entry in stack:
            if not entry.expr.startswith("_t"):
                t = asm.temp()
                asm.w(f"{t} = {entry.expr}")
                entry.expr = t

    def force_temp(expr: str) -> str:
        """Name an expression so it can be used more than once."""
        if expr.startswith("_t") and expr[2:].isdigit():
            return expr
        t = asm.temp()
        asm.w(f"{t} = {expr}")
        return t

    # Split the stream into per-block line groups.
    blocks: List[List[str]] = []
    blk = "_BLK0"    # const name of the block currently being assembled
    pc = 0
    n = len(code)
    while pc < n:
        op = code[pc]
        if op == OP_BLOCK:
            asm.lines = []
            blk = f"_BLK{len(blocks)}"
            blocks.append(asm.lines)
            if traced:
                asm.w("m.steps += 1")
                asm.w("if m.steps > _maxs:")
                asm.indent += 1
                asm.w('raise DeviceFault("watchdog: %d blocks without '
                      'completing the I/O round (infinite loop?)" '
                      f'% _maxs, device={device!r}, kind="watchdog")')
                asm.indent -= 1
                asm.w(f"for _s in m._sinks: _s.on_block(_FN, {blk})")
            else:
                asm.w("_st += 1")
                asm.w("if _st > _lim:")
                asm.indent += 1
                asm.w('raise DeviceFault("watchdog: %d blocks without '
                      'completing the I/O round (infinite loop?)" '
                      f'% m.max_steps, device={device!r}, kind="watchdog")')
                asm.indent -= 1
            pc += 1
        elif op == OP_TICK:
            if traced:
                asm.w(f"m.cycles += {code[pc + 1]}")
            else:
                asm.w(f"_cy += {code[pc + 1]}")
            pc += 2
        elif op == OP_CONST:
            push(repr(pool[code[pc + 1]]))
            pc += 2
        elif op == OP_PARAM:
            push(_mangle_param(bfunc.params[code[pc + 1]]))
            pc += 2
        elif op == OP_PARAM_MISSING:
            spill_pending()
            t = asm.temp()
            asm.w(f"{t} = _die({pool[code[pc + 1]]!r})")
            push(t)
            pc += 2
        elif op == OP_LOCAL:
            name = pool[code[pc + 1]]
            local_names.add(name)
            push(_mangle_local(name))
            pc += 2
        elif op == OP_STATE:
            off, end, signed, bits = pool[code[pc + 1]]
            push(_state_load_expr(off, end, signed, bits))
            pc += 2
        elif op == OP_STATE_REF:
            spill_pending()
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
            spill_pending()
            t = asm.temp()
            if not is_buffer:
                asm.w(f"{t} = _state.read_buf({buf!r}, {index})")
            else:
                o = asm.temp()
                asm.w(f"{o} = {base} + ({index}) * {esize}")
                asm.w(f"if 0 <= {o} and {o} + {esize} <= "
                      f"{program.layout.size}:")
                asm.indent += 1
                raw = f'_ifb(_data[{o}:{o} + {esize}], "little")'
                if signed:
                    half, mod = 1 << (bits - 1), 1 << bits
                    asm.w(f"{t} = ((({raw} + {half}) % {mod}) - {half})")
                else:
                    asm.w(f"{t} = {raw}")
                asm.indent -= 1
                asm.w("else:")
                asm.indent += 1
                asm.w(f"{t} = _state.read_buf({buf!r}, "
                      f"({o} - {base}) // {esize})")
                asm.indent -= 1
            push(t)
            pc += 2
        elif op == OP_BINOP:
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
        elif op == OP_UNOP:
            push(_UN_INLINE[_UNSYMS[code[pc + 1]]].format(a=pop()))
            pc += 2
        elif op == OP_SYNCVAR:
            spill_pending()
            t = asm.temp()
            asm.w(f"{t} = _die({pool[code[pc + 1]]!r})")
            push(t)
            pc += 2
        elif op == OP_ASSIGN:
            name = pool[code[pc + 1]]
            local_names.add(name)
            asm.w(f"{_mangle_local(name)} = {pop()}")
            pc += 2
        elif op == OP_STORE:
            field, kind, off, end, size, mask, lo, hi = pool[code[pc + 1]]
            value = pop()
            if traced:
                # Uniform traced body (matches traced_store): write via
                # the accessor, re-read the stored value for the event.
                v = force_temp(value)
                o = asm.temp()
                asm.w(f"{o} = _state.write_field({field!r}, {v})")
                asm.w(f"_flags.overflow = {o}")
                asm.w(f"_flags.last_store_field = {field!r}")
                s = asm.temp()
                asm.w(f"{s} = _state.read_field({field!r})")
                asm.w(f"for _s in m._sinks: "
                      f"_s.on_state_store({field!r}, {s}, {o})")
            elif kind == "malformed":
                v = force_temp(value)
                asm.w(f"_flags.overflow = _state.write_field({field!r}, "
                      f"{v})")
                asm.w(f"_flags.last_store_field = {field!r}")
            else:
                v = force_temp(value)
                if kind == "fp":
                    asm.w("_flags.overflow = False")
                else:
                    asm.w(f"_flags.overflow = not {lo} <= {v} <= {hi}")
                asm.w(f"_flags.last_store_field = {field!r}")
                asm.w(f"_data[{off}:{end}] = ({v} & {mask})"
                      f'.to_bytes({size}, "little")')
            pc += 2
        elif op == OP_BUFSTORE:
            buf, is_buffer, base, esize, emask = pool[code[pc + 1]]
            value, index = pop(), pop()
            if traced:
                i = force_temp(index)
                v = force_temp(value)
                asm.w(f"_state.write_buf({buf!r}, {i}, {v})")
                asm.w(f"for _s in m._sinks: "
                      f"_s.on_buf_store({buf!r}, {i}, {v})")
            elif not is_buffer:
                asm.w(f"_state.write_buf({buf!r}, {index}, {value})")
            else:
                o = asm.temp()
                asm.w(f"{o} = {base} + ({index}) * {esize}")
                v = force_temp(value)
                asm.w(f"if 0 <= {o} and {o} + {esize} <= "
                      f"{program.layout.size}:")
                asm.indent += 1
                asm.w(f"_data[{o}:{o} + {esize}] = ({v} & {emask})"
                      f'.to_bytes({esize}, "little")')
                asm.indent -= 1
                asm.w("else:")
                asm.indent += 1
                asm.w(f"_state.write_buf({buf!r}, "
                      f"({o} - {base}) // {esize}, {v})")
                asm.indent -= 1
            pc += 2
        elif op == OP_EXTERN_PRE:
            name, msg = pool[code[pc + 1]], pool[code[pc + 2]]
            last_extern = name    # consumed by the matching EXTERN_CALL
            f = asm.temp()
            asm.w(f"{f} = _ext.get({name!r})")
            asm.w(f"if {f} is None:")
            asm.indent += 1
            asm.w(f"raise InterpError({msg!r})")
            asm.indent -= 1
            if traced:
                asm.w(f"m.cycles += _ecost.get({name!r}, 8)")
            else:
                asm.w(f"_cy += _ecost.get({name!r}, 8)")
            push(f)    # carried under the args until EXTERN_CALL
            pc += 3
        elif op == OP_EXTERN_CALL:
            nargs, dest = code[pc + 1], code[pc + 2]
            args = [pop() for _ in range(nargs)][::-1]
            f = pop()
            spill_pending()
            if traced:
                args = [force_temp(a) for a in args]
            else:
                asm.w("m.cycles += _cy; _cy = 0")
                asm.w("m.steps += _st; _lim -= _st; _st = 0")
            call = ", ".join(["m"] + args)
            t = asm.temp()
            asm.w(f"{t} = int({f}({call}) or 0)")
            if traced:
                tup = f"({', '.join(args)}{',' if args else ''})"
                dname = pool[dest] if dest >= 0 else None
                asm.w(f"for _s in m._sinks: _s.on_extern("
                      f"{bfunc.name!r}, {last_extern!r}, {dname!r}, "
                      f"{tup}, {t})")
            if dest >= 0:
                name = pool[dest]
                harvests = True
                q = asm.temp()
                asm.w("if _hv is not None:")
                asm.indent += 1
                key = f"extern:{bfunc.name}:{name}"
                asm.w(f"{q} = _hv.get({key!r})")
                asm.w(f"if {q} is None: {q} = _hv[{key!r}] = _deque()")
                asm.w(f"{q}.append({t})")
                asm.indent -= 1
                local_names.add(name)
                asm.w(f"{_mangle_local(name)} = {t}")
            pc += 3
        elif op == OP_INTRIN:
            nargs, ki = code[pc + 1], code[pc + 2]
            args = [pop() for _ in range(nargs)][::-1]
            if traced:
                args = [force_temp(a) for a in args]
                tup = f"({', '.join(args)}{',' if args else ''})"
                asm.w(f"for _s in m._sinks: "
                      f"_s.on_intrinsic({pool[ki]!r}, {tup})")
            else:
                for a in args:
                    if not (a.startswith("_t") and a[2:].isdigit()):
                        asm.w(a)    # evaluate for effect (it can fault)
            pc += 3
        elif op == OP_ICALL_PRE:
            field, off, end, signed, bits, msg = pool[code[pc + 1]]
            a = asm.temp()
            asm.w(f"{a} = {_state_load_expr(off, end, signed, bits)}")
            f = asm.temp()
            asm.w(f"{f} = _A2F.get({a})")
            if traced:
                # The TIP event fires even for a wild jump (the tracer
                # must see the bogus target), so it precedes the fault.
                asm.w(f'for _s in m._sinks: '
                      f'_s.on_tip({blk}, {a}, "icall")')
            asm.w(f"if {f} is None:")
            asm.indent += 1
            asm.w(f"raise DeviceFault({msg!r} % {a}, "
                  f"device={device!r}, kind=\"wild-jump\")")
            asm.indent -= 1
            push(f)
            pc += 2
        elif op == OP_ICALL_CALL:
            nargs, dest, cont = code[pc + 1], code[pc + 2], code[pc + 3]
            args = [pop() for _ in range(nargs)][::-1]
            f = pop()
            spill_pending()
            if not traced:
                asm.w("m.cycles += _cy; _cy = 0")
                asm.w("m.steps += _st; _st = 0")
            t = asm.temp()
            asm.w(f"{t} = m._call({f}, ({', '.join(args)}"
                  f"{',' if args else ''}))")
            if not traced:
                asm.w("_lim = m.max_steps - m.steps")
            if dest >= 0:
                name = pool[dest]
                local_names.add(name)
                asm.w(f"{_mangle_local(name)} = int({t} or 0)")
            asm.w(f"_pc = {cont}")
            asm.w("continue")
            pc += 4
        elif op == OP_CALL:
            fname = pool[code[pc + 1]]
            nargs, dest, cont = code[pc + 2], code[pc + 3], code[pc + 4]
            args = [pop() for _ in range(nargs)][::-1]
            spill_pending()
            fref = bind(program.function(fname), "_F")
            t = asm.temp()
            if traced:
                # Args are evaluated before on_call, like traced_call.
                args = [force_temp(a) for a in args]
                asm.w(f"for _s in m._sinks: _s.on_call(_FN, {fref})")
            else:
                asm.w("m.cycles += _cy; _cy = 0")
                asm.w("m.steps += _st; _st = 0")
            asm.w(f"{t} = m._call({fref}, ({', '.join(args)}"
                  f"{',' if args else ''}))")
            if not traced:
                asm.w("_lim = m.max_steps - m.steps")
            if dest >= 0:
                name = pool[dest]
                local_names.add(name)
                asm.w(f"{_mangle_local(name)} = int({t} or 0)")
            asm.w(f"_pc = {cont}")
            asm.w("continue")
            pc += 5
        elif op == OP_GOTO:
            asm.w(f"_pc = {code[pc + 1]}")
            asm.w("continue")
            pc += 2
        elif op == OP_BR:
            bt, bn = code[pc + 1], code[pc + 2]
            if traced:
                o = asm.temp()
                asm.w(f"{o} = True if {pop()} else False")
                asm.w(f"for _s in m._sinks: _s.on_branch({blk}, {o})")
                asm.w(f"_pc = {bt} if {o} else {bn}")
            else:
                asm.w(f"_pc = {bt} if {pop()} else {bn}")
            asm.w("continue")
            pc += 3
        elif op == OP_SWITCH:
            info = pool[code[pc + 1]]
            v = force_temp(pop())
            if info[0] == "dense":
                _, base, dense, default, msg = info
                tref = bind(tuple(dense), "_T")
                i = asm.temp()
                asm.w(f"{i} = {v} - {base}")
                asm.w(f"_pc = {tref}[{i}] if 0 <= {i} < {len(dense)} "
                      f"else {default}")
            else:
                _, keys, vals, default, msg = info
                kref = bind(tuple(keys), "_T")
                vref = bind(tuple(vals), "_T")
                i = asm.temp()
                asm.w(f"{i} = _bisect({kref}, {v})")
                asm.w(f"_pc = {vref}[{i}] if {i} < {len(keys)} "
                      f"and {kref}[{i}] == {v} else {default}")
            asm.w("if _pc < 0:")
            asm.indent += 1
            asm.w(f"raise InterpError({msg!r} % {v})")
            asm.indent -= 1
            if traced:
                ta = asm.temp()
                asm.w(f"{ta} = _BADDR[_pc]")
                # Both events per sink before moving to the next sink,
                # matching traced_switch's single loop.
                asm.w("for _s in m._sinks:")
                asm.indent += 1
                asm.w(f'_s.on_tip({blk}, {ta}, "switch")')
                asm.w(f"_s.on_switch({blk}, {v}, {ta})")
                asm.indent -= 1
            asm.w("continue")
            pc += 2
        elif op == OP_RET:
            if traced:
                asm.w("for _s in m._sinks: _s.on_return(_FN)")
            else:
                asm.w("m.cycles += _cy; m.steps += _st")
            asm.w("return None")
            pc += 1
        elif op == OP_RETV:
            asm.w(f"_rv = {pop()}")
            if traced:
                asm.w("for _s in m._sinks: _s.on_return(_FN)")
            else:
                asm.w("m.cycles += _cy; m.steps += _st")
            asm.w("return _rv")
            pc += 1
        else:
            raise InterpError(f"bad opcode {op} at pc {pc}")

    if stack:
        raise InterpError(
            f"unbalanced expression stack lowering {bfunc.name}")

    # -- frame scaffolding ---------------------------------------------------
    out = _Asm()
    out.w(f"def _run(m, args):")
    out.indent += 1
    if bfunc.params:
        unpack = ", ".join(_mangle_param(p) for p in bfunc.params)
        out.w(f"{unpack}{',' if len(bfunc.params) == 1 else ''} = args")
    if traced:
        out.w("_state = m.state; _data = _state.data; _flags = m.flags")
        out.w("_ext = m._externs; _ecost = m._extern_cost")
        out.w("_maxs = m.max_steps")
    else:
        out.w("_st = 0; _cy = 0")
        out.w("_state = m.state; _data = _state.data; _flags = m.flags")
        out.w("_ext = m._externs; _ecost = m._extern_cost")
        out.w("_lim = m.max_steps - m.steps")
    if harvests:
        out.w("_hv = m.harvest")
    out.w("_pc = 0")
    out.w("try:")
    out.indent += 1
    out.w("while True:")
    out.indent += 1
    _emit_dispatch(out, blocks, 0, len(blocks))
    out.indent -= 2
    out.w("except NameError as e:")
    out.indent += 1
    if not traced:
        out.w("m.cycles += _cy; m.steps += _st")
    out.w("_msg = _LMSG.get(getattr(e, 'name', None))")
    out.w("if _msg is not None:")
    out.indent += 1
    out.w("raise InterpError(_msg) from None")
    out.indent -= 1
    out.w("raise")
    out.indent -= 1
    if not traced:
        out.w("except BaseException:")
        out.indent += 1
        out.w("m.cycles += _cy; m.steps += _st")
        out.w("raise")
        out.indent -= 1
    out.indent -= 1

    consts["_LMSG"] = {
        _mangle_local(name): (f"{bfunc.name}: local {name!r} read "
                              f"before assignment")
        for name in local_names
    }
    consts["_A2F"] = {addr: program.functions[fname]
                      for addr, fname in program.addr_to_func.items()}
    from bisect import bisect_left
    consts["_bisect"] = bisect_left
    consts["_deque"] = deque

    def _die(msg: str) -> int:
        raise InterpError(msg)
    consts["_die"] = _die

    source = "\n".join(out.lines) + "\n"
    namespace: Dict[str, Any] = dict(consts)
    exec(compile(source, f"<bytecode:{device}.{bfunc.name}>", "exec"),
         namespace)
    runner = namespace["_run"]
    runner._bytecode_source = source
    return runner


def _emit_dispatch(out: _Asm, blocks: List[List[str]],
                   lo: int, hi: int) -> None:
    """Binary jump-target tree over block indices."""
    if hi - lo == 1:
        if len(blocks) > 1:
            # Guard so the leaf is reachable only for its own index; the
            # tree makes other indices impossible, so no else needed.
            pass
        for line in blocks[lo]:
            out.w(line)
        return
    mid = (lo + hi) // 2
    out.w(f"if _pc < {mid}:")
    out.indent += 1
    _emit_dispatch(out, blocks, lo, mid)
    out.indent -= 1
    out.w("else:")
    out.indent += 1
    _emit_dispatch(out, blocks, mid, hi)
    out.indent -= 1


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
