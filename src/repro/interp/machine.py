"""IR interpreter: executes compiled device programs.

The machine owns the device's control structure (:class:`StateMemory`),
dispatches extern calls into host helpers, notifies trace sinks, counts
cycles for the performance model, and maintains the flag register whose
overflow bit the parameter check strategy reads.

Two execution backends share this front door (:data:`BACKENDS`):

* ``backend="bytecode"`` (default) — functions lowered to a flat
  array-encoded bytecode and assembled into single dispatch-loop frames
  (:mod:`repro.interp.bytecode`).  A machine with trace sinks attached
  runs each function's traced runner: the same generated frame plus
  the sink events, inline, so training runs the serving frame's chains,
  value tables, native loops and superblocks;
* ``backend="reference"`` — the original tree walker, kept as the oracle
  the differential test suites compare the bytecode backend against.

A watchdog (``max_steps``) converts runaway loops — the CVE-2016-7909
failure mode — into a :class:`DeviceFault`, the analogue of a hung QEMU
worker being reaped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import DeviceFault, InterpError
from repro.ir import (
    Assign, BasicBlock, BinOp, Branch, BufLen, BufLoad, BufStore, Call,
    Const, ExternCall, Expr, Function, Goto, ICall, Intrinsic, Local, Param,
    Program, Return, StateMemory, StateRef, StateStore, Switch, SyncVar,
    UnOp,
)
from repro.interp.ops import (
    DEFAULT_EXTERN_COST, STMT_COST, TERM_COST, eval_binop, eval_unop,
)
from repro.interp.sinks import TraceSink

ExternFn = Callable[..., Optional[int]]

#: Every execution backend ``Machine`` and ``ESChecker`` accept, and the
#: one used wherever a caller does not choose.
BACKENDS = ("reference", "bytecode")
DEFAULT_BACKEND = "bytecode"


@dataclass
class Flags:
    """Minimal flag register: what the parameter check strategy consumes."""

    overflow: bool = False
    last_store_field: str = ""


@dataclass
class _Frame:
    func: Function
    env: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, int] = field(default_factory=dict)


class Machine:
    """Executes one device's IR program against its control structure."""

    def __init__(self, program: Program,
                 state: Optional[StateMemory] = None,
                 max_steps: int = 200_000,
                 max_depth: int = 64,
                 backend: str = DEFAULT_BACKEND):
        if not program.frozen:
            raise InterpError("program must be frozen before execution")
        if backend not in BACKENDS:
            raise InterpError(
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.program = program
        self.state = state if state is not None else StateMemory(program.layout)
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.backend = backend
        self.flags = Flags()
        self.cycles = 0
        self.steps = 0
        self._sinks: List[TraceSink] = []
        #: co-execution's extern results, ``extern:<caller>:<dest>`` ->
        #: values in call order (not a sink: the fast runner fills it too)
        self.harvest: Optional[Dict[str, Deque[int]]] = None
        self._externs: Dict[str, ExternFn] = {}
        self._extern_cost: Dict[str, int] = {}
        #: block twins: extern name -> one call that does what *n*
        #: per-byte calls do (only the bytecode fast runner calls them)
        self._extern_block: Dict[str, Callable] = {}
        self._depth = 0
        self._telemetry = None
        self._telemetry_cache = None
        if backend == "bytecode":
            from repro.interp.bytecode import bytecode_program_for
            self._bytecode = bytecode_program_for(program)
            self._entries = self._bytecode.entries
        else:
            self._bytecode = None
            self._entries = {}

    # -- configuration -----------------------------------------------------

    def add_sink(self, sink: TraceSink) -> TraceSink:
        self._sinks.append(sink)
        sink.attach(self)
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        self._sinks.remove(sink)

    def bind_extern(self, name: str, fn: ExternFn,
                    cost: int = DEFAULT_EXTERN_COST,
                    block: Optional[Callable] = None) -> None:
        """Bind extern *name* to *fn* at *cost* cycles a call.

        *block* is its optional block twin: one call with the effect and
        results of *n* per-byte calls over consecutive addresses, which
        the bytecode fast runner makes for a counted byte-copy loop
        (see :mod:`repro.interp.bytecode`).  By the role the loop gives
        the extern, a twin is called as ``block(m, start, n)`` for a
        read (returns the *n* results as ``bytes``),
        ``block(m, start, data)`` for a two-argument write and
        ``block(m, data)`` for a one-argument stream.  Binding without
        *block* drops a twin bound before, so a replaced extern is never
        bypassed by its old twin."""
        self._externs[name] = fn
        self._extern_cost[name] = cost
        if block is None:
            self._extern_block.pop(name, None)
        else:
            self._extern_block[name] = block

    def set_funcptr(self, field_name: str, func_name: str) -> None:
        """Point a function-pointer field at a compiled function."""
        self.state.write_field(field_name, self.program.func_addr[func_name])

    def set_recorder(self, recorder) -> None:
        """Opt into telemetry (``None`` detaches).  Recording happens per
        I/O round, not per block, so the interpreter hot loop is
        untouched either way."""
        if recorder is None:
            self._telemetry = None
            return
        cached = self._telemetry_cache
        if cached is not None and cached[0] is recorder:
            self._telemetry = cached[1]
            return
        from repro.telemetry.instruments import MachineTelemetry
        self._telemetry = MachineTelemetry(recorder, self.program.name)
        self._telemetry_cache = (recorder, self._telemetry)

    # -- entry points --------------------------------------------------------

    def run_entry(self, key: str, args: Tuple[int, ...] = ()) -> Optional[int]:
        """Run the entry handler for I/O interface *key* (one I/O round)."""
        entry = self._entries.get(key)
        if (entry is not None and not self._sinks
                and len(args) == entry[1] and self._depth < self.max_depth):
            # The common round: the key's fast runner, resolved once per
            # program, with what _call would check already checked.
            self.steps = 0
            self._depth += 1
            telemetry = self._telemetry
            try:
                result = entry[0](self, args)
            except DeviceFault as fault:
                if telemetry is not None:
                    telemetry.record_fault(fault.kind, self.steps)
                raise
            finally:
                self._depth -= 1
            if telemetry is not None:
                telemetry.n_rounds += 1
                telemetry.n_blocks += self.steps
            return result
        func = self.program.entry_for(key)
        for sink in self._sinks:
            sink.on_io_enter(key, args)
        self.steps = 0
        telemetry = self._telemetry
        if telemetry is None:
            result = self._call(func, args)
        else:
            try:
                result = self._call(func, args)
            except DeviceFault as fault:
                telemetry.record_fault(fault.kind, self.steps)
                raise
            # Inlined MachineTelemetry.record_round: staged slot adds.
            telemetry.n_rounds += 1
            telemetry.n_blocks += self.steps
        for sink in self._sinks:
            sink.on_io_exit(key, result)
        return result

    def run_function(self, name: str,
                     args: Tuple[int, ...] = ()) -> Optional[int]:
        """Run an arbitrary compiled function (init routines, tests)."""
        self.steps = 0
        return self._call(self.program.function(name), args)

    # -- core loop -------------------------------------------------------------

    def _call(self, func: Function, args: Tuple[int, ...]) -> Optional[int]:
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}")
        self._depth += 1
        if self._depth > self.max_depth:
            self._depth -= 1
            raise DeviceFault("call stack exhausted",
                              device=self.program.name, kind="stack-overflow")
        try:
            if self._bytecode is not None:
                if self._sinks:
                    return self._bytecode.traced_runners[func.name](
                        self, args)
                return self._bytecode.runners[func.name](self, args)
            return self._exec_blocks(
                _Frame(func, params=dict(zip(func.params, args))))
        finally:
            self._depth -= 1

    def _exec_blocks(self, frame: _Frame) -> Optional[int]:
        label = frame.func.entry
        while True:
            block = frame.func.block(label)
            self.steps += 1
            if self.steps > self.max_steps:
                raise DeviceFault(
                    f"watchdog: {self.max_steps} blocks without completing "
                    f"the I/O round (infinite loop?)",
                    device=self.program.name, kind="watchdog")
            for sink in self._sinks:
                sink.on_block(frame.func, block)
            for stmt in block.stmts:
                self._exec_stmt(frame, stmt)
            next_label = self._exec_terminator(frame, block)
            if next_label is None:
                return frame.env.get("__retval__")
            label = next_label

    # -- statements ----------------------------------------------------------

    def _exec_stmt(self, frame: _Frame, stmt) -> None:
        self.cycles += STMT_COST
        if isinstance(stmt, Assign):
            frame.env[stmt.target] = self._eval(frame, stmt.value)
        elif isinstance(stmt, StateStore):
            value = self._eval(frame, stmt.value)
            overflowed = self.state.write_field(stmt.field, value)
            self.flags.overflow = overflowed
            self.flags.last_store_field = stmt.field
            for sink in self._sinks:
                sink.on_state_store(stmt.field,
                                    self.state.read_field(stmt.field),
                                    overflowed)
        elif isinstance(stmt, BufStore):
            index = self._eval(frame, stmt.index)
            value = self._eval(frame, stmt.value)
            self.state.write_buf(stmt.buf, index, value)
            for sink in self._sinks:
                sink.on_buf_store(stmt.buf, index, value)
        elif isinstance(stmt, ExternCall):
            fn = self._externs.get(stmt.func)
            if fn is None:
                raise InterpError(f"extern {stmt.func!r} is not bound")
            self.cycles += self._extern_cost.get(stmt.func,
                                                 DEFAULT_EXTERN_COST)
            args = [self._eval(frame, a) for a in stmt.args]
            result = fn(self, *args)
            value = int(result or 0)
            for sink in self._sinks:
                sink.on_extern(frame.func.name, stmt.func, stmt.dest,
                               tuple(args), value)
            if stmt.dest is not None:
                if self.harvest is not None:
                    self.harvest.setdefault(
                        f"extern:{frame.func.name}:{stmt.dest}",
                        deque()).append(value)
                frame.env[stmt.dest] = value
        elif isinstance(stmt, Intrinsic):
            values = tuple(self._eval(frame, a) for a in stmt.args)
            for sink in self._sinks:
                sink.on_intrinsic(stmt.kind, values)
        else:
            raise InterpError(f"unknown statement {type(stmt).__name__}")

    # -- terminators -------------------------------------------------------------

    def _exec_terminator(self, frame: _Frame,
                         block: BasicBlock) -> Optional[str]:
        term = block.terminator
        self.cycles += TERM_COST.get(type(term).__name__, 1)
        if isinstance(term, Goto):
            return term.target
        if isinstance(term, Branch):
            taken = bool(self._eval(frame, term.cond))
            for sink in self._sinks:
                sink.on_branch(block, taken)
            return term.taken if taken else term.not_taken
        if isinstance(term, Switch):
            value = self._eval(frame, term.scrutinee)
            target = term.table.get(value, term.default)
            if not target:
                raise InterpError(
                    f"switch in {frame.func.name}:{block.label} has no arm "
                    f"for {value} and no default")
            target_addr = frame.func.block(target).address
            for sink in self._sinks:
                sink.on_tip(block, target_addr, "switch")
                sink.on_switch(block, value, target_addr)
            return target
        if isinstance(term, Call):
            callee = self.program.function(term.func)
            args = tuple(self._eval(frame, a) for a in term.args)
            for sink in self._sinks:
                sink.on_call(frame.func, callee)
            result = self._call(callee, args)
            if term.dest is not None:
                frame.env[term.dest] = int(result or 0)
            return term.cont
        if isinstance(term, ICall):
            addr = self.state.read_field(term.ptr_field)
            func_name = self.program.addr_to_func.get(addr)
            for sink in self._sinks:
                sink.on_tip(block, addr, "icall")
            if func_name is None:
                raise DeviceFault(
                    f"indirect call through dev.{term.ptr_field} to "
                    f"non-code address {addr:#x}",
                    device=self.program.name, kind="wild-jump")
            callee = self.program.function(func_name)
            args = tuple(self._eval(frame, a) for a in term.args)
            result = self._call(callee, args)
            if term.dest is not None:
                frame.env[term.dest] = int(result or 0)
            return term.cont
        if isinstance(term, Return):
            value = (self._eval(frame, term.value)
                     if term.value is not None else None)
            for sink in self._sinks:
                sink.on_return(frame.func)
            if value is not None:
                frame.env["__retval__"] = value
            return None
        raise InterpError(f"unknown terminator {type(term).__name__}")

    # -- expression evaluation --------------------------------------------------

    def _eval(self, frame: _Frame, expr: Expr) -> int:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Param):
            try:
                return frame.params[expr.name]
            except KeyError:
                raise InterpError(
                    f"{frame.func.name}: unknown parameter {expr.name!r}"
                ) from None
        if isinstance(expr, Local):
            try:
                return frame.env[expr.name]
            except KeyError:
                raise InterpError(
                    f"{frame.func.name}: local {expr.name!r} read before "
                    f"assignment") from None
        if isinstance(expr, StateRef):
            return self.state.read_field(expr.field)
        if isinstance(expr, BufLoad):
            return self.state.read_buf(expr.buf,
                                       self._eval(frame, expr.index))
        if isinstance(expr, BufLen):
            return expr.length
        if isinstance(expr, BinOp):
            return eval_binop(expr.op, self._eval(frame, expr.left),
                              self._eval(frame, expr.right))
        if isinstance(expr, UnOp):
            return eval_unop(expr.op, self._eval(frame, expr.operand))
        if isinstance(expr, SyncVar):
            raise InterpError(
                f"SyncVar {expr.name!r} in a device program (sync vars "
                f"belong to execution specifications)")
        raise InterpError(f"unknown expression {type(expr).__name__}")
