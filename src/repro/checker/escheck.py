"""ES-Checker: the runtime proxy enforcing an execution specification.

For every I/O interaction the checker *simulates* the device's execution
over the ES-CFG and its shadow device state — before the real device sees
the request — applying the enabled check strategies:

* **parameter check** at every DSOD store/load touching device-state
  parameters (integer overflow via declared type ranges, buffer overflow
  via declared buffer geometry);
* **indirect-jump check** at every NBTD funcptr call (target must be one
  the training runs legitimised);
* **conditional-jump check** at every NBTD branch/switch (one-sided
  branches must stay one-sided; dispatch arms and command access must have
  been observed).

If no strategy fires, the checker guarantees the upcoming real execution
complies with the specification and lets the device run; otherwise the
working mode decides between halting and warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import CheckerError, DeviceFault, SpecError
from repro.interp.machine import (
    BACKENDS, DEFAULT_BACKEND, eval_binop, eval_unop,
)
from repro.ir import (
    Assign, BinOp, Branch, BufLen, BufLoad, BufStore, Call, Const, Expr,
    Goto, ICall, Intrinsic, Local, Param, Return, StateMemory, StateRef,
    StateStore, Switch, SyncVar, UnOp,
)
from repro.checker.anomalies import (
    ALL_STRATEGIES, Action, Anomaly, CheckReport, Mode, Strategy,
    decide_action,
)
from repro.checker.sync import NullSyncOracle, SyncOracle
from repro.spec.escfg import ESBlock, ESFunction, ExecutionSpec

#: Cost model: walking one ES block / executing one DSOD statement is
#: cheaper than the device's own work — the checker runs straight-line
#: loads/stores over a flat shadow struct with no MemoryRegion dispatch,
#: no DMA address translation, and a reduced graph.  Charged as half a
#: device statement each; these constants feed the performance model.
CHECK_BLOCK_COST = 0.5
CHECK_STMT_COST = 0.5


_NULL_ORACLE = NullSyncOracle()


class _WalkStop(Exception):
    """Internal: the walk cannot or need not continue."""

    def __init__(self, incomplete: bool = False):
        self.incomplete = incomplete


class _WalkContext:
    """What a checker's generated walk frame reads besides its call
    arguments: the shadow state it walks in place, the enabled
    strategies with their toggles, and the anomalies the round in
    flight flagged.  One per bytecode checker, reused by every call
    (the reference walker keeps its own per-round state).

    A round builds its :class:`CheckReport` only when it needs one: a
    clean round (the walk left the dispatch loop normally) flagged
    nothing, so the frame reports it from its own counters, and every
    other round collects its report from :meth:`report`."""

    __slots__ = ("flagged", "state", "strategies", "param_on", "ijump_on",
                 "cond_on", "_view")

    def __init__(self, state, strategies: FrozenSet[Strategy]):
        #: (strategy, kind, message, block address) per recorded anomaly
        #: of the round in flight; :meth:`report` drains it
        self.flagged: List[Tuple[Strategy, str, str, int]] = []
        self.state = state
        self._view = None
        self.set_strategies(strategies)

    def set_strategies(self, strategies: FrozenSet[Strategy]) -> None:
        self.strategies = strategies
        self.param_on = Strategy.PARAMETER in strategies
        self.ijump_on = Strategy.INDIRECT_JUMP in strategies
        self.cond_on = Strategy.CONDITIONAL_JUMP in strategies

    def report(self, io_key: str, mode: Mode, incomplete: bool,
               blocks: int, dsod: int, param: int, indirect: int,
               conditional: int) -> CheckReport:
        """The full report of a round that did not end clean, built from
        the frame's counters and the anomalies flagged since the last
        report (mirrors ``ESChecker._check_io`` + ``_finish``)."""
        anomalies = [Anomaly(strategy=strategy, kind=kind, message=message,
                             block_address=address, io_key=io_key)
                     for strategy, kind, message, address in self.flagged]
        self.flagged.clear()
        return CheckReport(
            io_key=io_key, action=decide_action(anomalies, mode),
            anomalies=anomalies, blocks_walked=blocks,
            dsod_stmts_executed=dsod, incomplete=incomplete,
            param_checks=param, indirect_checks=indirect,
            conditional_checks=conditional)

    def unknown_key(self, io_key: str, mode: Mode) -> CheckReport:
        """The report of a round on an I/O key training never used:
        nothing walks, the shadow state is untouched and the final
        state stays unbound (mirrors ``ESChecker._check_io``)."""
        _flag(self, Strategy.CONDITIONAL_JUMP, "unknown-io-key",
              f"I/O interface {io_key!r} never used in training", 0)
        return self.report(io_key, mode, False, 0, 0, 0, 0, 0)

    def final_state(self, snapshot: bytes) -> Dict[str, int]:
        """A report's lazy final state: *snapshot*, the shadow buffer
        the round committed or kept, dumped through one view clone per
        checker (reports never share the live buffer)."""
        view = self._view
        if view is None:
            view = self._view = self.state.clone()
        view.memory.data[:] = snapshot
        return view.dump()


def _flag(w: _WalkContext, strategy: Strategy, kind: str, message: str,
          address: int) -> bool:
    """Record an anomaly if its strategy is enabled (mirrors
    ``ESChecker._flag``).  Every flag site stops the walk right after,
    so a round flags at most once before its report is built."""
    if strategy not in w.strategies:
        return False
    w.flagged.append((strategy, kind, message, address))
    return True


@dataclass
class _Frame:
    func: ESFunction
    env: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, int] = field(default_factory=dict)


class ESChecker:
    """Enforces one device's execution specification."""

    def __init__(self, spec: ExecutionSpec, mode: Mode = Mode.ENHANCEMENT,
                 strategies: FrozenSet[Strategy] = ALL_STRATEGIES,
                 max_walk_blocks: int = 500_000,
                 backend: str = DEFAULT_BACKEND,
                 recorder=None):
        if backend not in BACKENDS:
            raise CheckerError(
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.spec = spec
        self.mode = mode
        self.strategies = frozenset(strategies)
        self.max_walk_blocks = max_walk_blocks
        self.backend = backend
        self.device_state = spec.make_device_state()
        if backend == "bytecode":
            from repro.checker.bytecode import bytecode_spec_for
            self._bytecode = bytecode_spec_for(spec)
            self._walk_ctx = _WalkContext(self.device_state, self.strategies)
        else:
            self._bytecode = None
        self.cycles = 0
        # Telemetry is opt-in per checker: no recorder, no cost beyond
        # one None test per round (see repro.telemetry.recorder).
        self._telemetry = None
        self._telemetry_cache = None
        self._clock = None
        if recorder is not None:
            self.set_recorder(recorder)

    def set_recorder(self, recorder) -> None:
        """Attach (or, with ``None``, detach) a telemetry recorder.

        Metric handles resolve against the recorder and re-attaching the
        same recorder reuses the cached instrument bundle, so toggling
        telemetry resumes accumulating into the same counters.
        """
        if recorder is None:
            self._telemetry = None
            self._clock = None
            return
        cached = self._telemetry_cache
        if cached is not None and cached[0] is recorder:
            self._telemetry = cached[1]
        else:
            from repro.telemetry.instruments import CheckerTelemetry
            self._telemetry = CheckerTelemetry(recorder, self.spec.device,
                                               self.backend)
            self._telemetry_cache = (recorder, self._telemetry)
        self._clock = recorder.clock

    # -- lifecycle -----------------------------------------------------------

    def boot_sync(self, memory: StateMemory) -> None:
        """Initialize the shadow device state from the control structure
        (done once, at device boot — Section V-A.1)."""
        self.device_state.sync_from(memory)

    def resync(self, memory: StateMemory) -> None:
        """Optional fidelity knob: re-align shadow state with the device.

        The paper-faithful configuration never calls this after boot; the
        ablation benchmarks use it to quantify shadow-state drift.
        """
        self.device_state.sync_from(memory)

    # -- the check entry point ---------------------------------------------------

    def check_io(self, io_key: str, args: Tuple[int, ...] = (),
                 oracle: Optional[SyncOracle] = None, *,
                 report_clean: bool = True) -> Optional[CheckReport]:
        """Simulate one I/O round over the ES-CFG and report anomalies.

        With ``report_clean=False`` a *clean* round — verdict ALLOW, walk
        complete — returns ``None`` instead of its report; every other
        round returns its full report.  The shadow state, cycle
        accounting and telemetry are the same either way.  It is for a
        caller that acts only on warnings, halts and incomplete walks
        (``GuestVM``): on the bytecode backend a clean round then builds
        no report, takes no commit snapshot and binds no final state.
        """
        if self._bytecode is not None:
            # A batch of one; the frame records the round's telemetry.
            return self._run_frame(((io_key, args),), oracle,
                                   report_clean)[0]
        telemetry = self._telemetry
        if telemetry is None:
            report = self._check_io(io_key, args, oracle)
        else:
            clock = self._clock
            start = clock()
            report = self._check_io(io_key, args, oracle)
            telemetry.record_round(report, clock() - start)
        if (report_clean or report.incomplete
                or report.action is not Action.ALLOW):
            return report
        return None

    def _check_io(self, io_key: str, args: Tuple[int, ...],
                  oracle: Optional[SyncOracle]) -> CheckReport:
        """One round on the reference walker."""
        report = CheckReport(io_key=io_key)
        oracle = oracle or NullSyncOracle()

        handler = self.spec.entry_handlers.get(io_key)
        if handler is None or not self.spec.has_function(handler):
            self._flag(report, Strategy.CONDITIONAL_JUMP, "unknown-io-key",
                       f"I/O interface {io_key!r} never used in training",
                       0)
            self._finish(report)
            return report

        # Walk on a scratch copy: only a clean round updates the state.
        scratch = self.device_state.clone()
        walker = _Walker(self, report, scratch, oracle)
        try:
            walker.run(self.spec.entry_for(io_key), args)
        except _WalkStop as stop:
            report.incomplete = stop.incomplete
        except CheckerError as exc:
            # Unresolvable sync values mean the checker cannot vouch for
            # the round: an irregular-operation anomaly, or — with that
            # strategy off — an unresolved walk, like every other site.
            report.incomplete = not self._flag(
                report, Strategy.CONDITIONAL_JUMP, "sync-failure",
                str(exc), walker.current_address)

        self._finish(report)
        if report.action is Action.ALLOW and not report.incomplete:
            # The simulated final device state seeds the next round.
            self.device_state = scratch
        # Lazy — dumping is O(device state) and only eval/report readers
        # want it — but frozen at the round's end, as on the bytecode
        # backend: a later resync or restore does not show through.
        report.bind_final_state(self.device_state.clone().dump)
        return report

    # -- the batched entry -------------------------------------------------------

    def check_batch(self, rounds, oracle: Optional[SyncOracle] = None
                    ) -> List[CheckReport]:
        """Check a queue of I/O rounds through a single checker
        invocation (the cross-round batched entry).

        ``rounds`` is any iterable of ``(io_key, args)`` pairs — a
        list, or a generator streaming straight out of the trace
        decoder.  The returned reports are byte-identical to running
        :meth:`check_io` once per round in the same order: same
        anomalies, counters, actions, committed shadow state, and
        per-round final states.

        On the bytecode backend every round of the queue runs in one
        call of the spec's generated frame — the same frame
        :meth:`check_io` calls with a queue of one — so the frame's
        prologue is paid once per batch.  The reference backend falls
        back to per-round checking, which keeps parity trivially.
        """
        if self._bytecode is None:
            return [self.check_io(key, args, oracle=oracle)
                    for key, args in rounds]
        return self._run_frame(rounds, oracle)

    def _run_frame(self, rounds, oracle: Optional[SyncOracle],
                   report_clean: bool = True
                   ) -> List[Optional[CheckReport]]:
        """Run *rounds* through the spec's generated frame, in place on
        the committed shadow state.  Mode, strategies, watchdog budget
        and telemetry are read here, per call, so a change between
        rounds applies to the next one."""
        w = self._walk_ctx
        strategies = self.strategies
        if strategies is not w.strategies:
            w.set_strategies(strategies)
        w.state = self.device_state
        reports: List[Optional[CheckReport]] = []
        self.cycles += self._bytecode.walk(
            w, rounds, reports.append, oracle or _NULL_ORACLE,
            self.mode, self.max_walk_blocks,
            self._telemetry, self._clock, report_clean)
        return reports

    # -- internals --------------------------------------------------------------

    def _finish(self, report: CheckReport) -> None:
        report.action = decide_action(report.anomalies, self.mode)
        self.cycles += int(report.blocks_walked * CHECK_BLOCK_COST
                           + report.dsod_stmts_executed * CHECK_STMT_COST)

    def enabled(self, strategy: Strategy) -> bool:
        return strategy in self.strategies

    def _flag(self, report: CheckReport, strategy: Strategy, kind: str,
              message: str, block_address: int) -> bool:
        """Record an anomaly if its strategy is enabled.  Returns whether
        the anomaly was recorded (i.e. the strategy is active)."""
        if strategy not in self.strategies:
            return False
        report.anomalies.append(Anomaly(
            strategy=strategy, kind=kind, message=message,
            block_address=block_address, io_key=report.io_key))
        return True


class _Walker:
    """One I/O round's simulation over the ES-CFG."""

    def __init__(self, checker: ESChecker, report: CheckReport,
                 state, oracle: SyncOracle):
        self.checker = checker
        self.spec = checker.spec
        self.report = report
        self.state = state
        self.oracle = oracle
        self.current_address = 0
        self.current_cmd: Optional[int] = None
        self.blocks = 0
        # Check counts track *enabled* strategies only (a disabled
        # strategy's sites are traversed but not enforced).
        self.param_on = Strategy.PARAMETER in checker.strategies
        self.ijump_on = Strategy.INDIRECT_JUMP in checker.strategies
        self.cond_on = Strategy.CONDITIONAL_JUMP in checker.strategies

    # -- driving ------------------------------------------------------------

    def run(self, func: ESFunction, args: Tuple[int, ...]) -> Optional[int]:
        frame = _Frame(func, params=dict(zip(func.params, args)))
        label = func.entry
        stack: List[Tuple[_Frame, str, Optional[str]]] = []
        while True:
            block = self._resolve_block(frame.func, label)
            self._exec_block(frame, block)
            nbtd = block.nbtd
            if isinstance(nbtd, Goto):
                label = nbtd.target
            elif isinstance(nbtd, Branch):
                label = self._branch(frame, block, nbtd)
            elif isinstance(nbtd, Switch):
                label = self._switch(frame, block, nbtd)
            elif isinstance(nbtd, Call):
                callee = self._callee(block, nbtd.func)
                cargs = tuple(self._eval(frame, a) for a in nbtd.args)
                stack.append((frame, nbtd.cont, nbtd.dest))
                frame = _Frame(callee, params=dict(zip(callee.params,
                                                       cargs)))
                label = callee.entry
            elif isinstance(nbtd, ICall):
                callee = self._icall(frame, block, nbtd)
                cargs = tuple(self._eval(frame, a) for a in nbtd.args)
                stack.append((frame, nbtd.cont, nbtd.dest))
                frame = _Frame(callee, params=dict(zip(callee.params,
                                                       cargs)))
                label = callee.entry
            elif isinstance(nbtd, Return):
                value = (self._eval(frame, nbtd.value)
                         if nbtd.value is not None else 0)
                if not stack:
                    return value
                frame, label, dest = stack.pop()
                if dest is not None:
                    frame.env[dest] = value
            else:
                raise CheckerError(f"ES block {block.label} has no NBTD")

    def _resolve_block(self, func: ESFunction, label: str) -> ESBlock:
        try:
            block = func.block(label)
        except SpecError:
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP, "unobserved-path",
                f"transition into {func.name}:{label} was never observed "
                f"in training", self.current_address)
            raise _WalkStop(incomplete=not recorded)
        self.current_address = block.address
        self.blocks += 1
        self.report.blocks_walked += 1
        if self.blocks > self.checker.max_walk_blocks:
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP, "walk-watchdog",
                "specification walk exceeded block budget",
                self.current_address)
            raise _WalkStop(incomplete=not recorded)
        self._command_gate(block)
        return block

    # -- command access control ----------------------------------------------

    def _command_gate(self, block: ESBlock) -> None:
        """Block-entry gate: the command access table (Algorithm 1's
        ``cmd_act``) must allow this block under the current command."""
        if block.is_cmd_end:
            self.current_cmd = None
        if self.current_cmd is None or block.is_cmd_decision:
            return
        if self.cond_on:
            self.report.conditional_checks += 1
        if not self.spec.cmd_access.allows(self.current_cmd,
                                           block.address):
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP, "command-access",
                f"block {block.address:#x} is not accessible under "
                f"command {self.current_cmd:#x}", block.address)
            raise _WalkStop(incomplete=not recorded)

    def _set_command(self, block: ESBlock, cmd: int) -> None:
        """A command-decision point resolved: derive the accessible-block
        subgraph (reject commands training never saw)."""
        if self.cond_on:
            self.report.conditional_checks += 1
        if not self.spec.cmd_access.knows(cmd):
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP, "unknown-command",
                f"command {cmd:#x} never observed in training",
                block.address)
            raise _WalkStop(incomplete=not recorded)
        self.current_cmd = cmd

    # -- DSOD execution + parameter check ---------------------------------------

    def _exec_block(self, frame: _Frame, block: ESBlock) -> Optional[int]:
        for stmt in block.dsod:
            self.report.dsod_stmts_executed += 1
            if isinstance(stmt, Assign):
                frame.env[stmt.target] = self._eval(frame, stmt.value)
            elif isinstance(stmt, StateStore):
                value = self._eval(frame, stmt.value)
                self._param_check_store(block, stmt.field, value)
                self.state.write_field(stmt.field, value)
            elif isinstance(stmt, BufStore):
                index = self._eval(frame, stmt.index)
                value = self._eval(frame, stmt.value)
                if _index_is_state_derived(stmt.index):
                    self._param_check_index(block, stmt.buf, index, "write")
                try:
                    # Flat-layout shadow: near-OOB corrupts the same
                    # neighbour the real device would (prediction!).
                    self.state.write_buf(stmt.buf, index, value)
                except DeviceFault:
                    # Far OOB with the parameter check disabled: the
                    # shadow cannot follow, walk ends unresolved.
                    raise _WalkStop(incomplete=True) from None
            elif isinstance(stmt, Intrinsic):
                if stmt.kind == "command_decision" and stmt.args:
                    self._set_command(block,
                                      self._eval(frame, stmt.args[0]))
                elif stmt.kind == "command_end":
                    self.current_cmd = None
            else:
                raise CheckerError(
                    f"unexpected DSOD statement {type(stmt).__name__}")
        return None

    def _param_check_store(self, block: ESBlock, field_name: str,
                           value: int) -> None:
        """Integer-overflow arm of the parameter check (UBSan-inspired:
        declared type metadata + the would-be overflow)."""
        if not self.param_on:
            return
        self.report.param_checks += 1
        if not self.state.in_range(field_name, value):
            type_name = str(self.state.layout.field(field_name).type)
            self.checker._flag(
                self.report, Strategy.PARAMETER, "integer-overflow",
                f"storing {value} into dev.{field_name} ({type_name}) "
                f"overflows its declared range", block.address)
            raise _WalkStop()

    def _param_check_index(self, block: ESBlock, buf: str, index: int,
                           direction: str) -> None:
        """Buffer-overflow arm of the parameter check."""
        if not self.param_on:
            return
        self.report.param_checks += 1
        if not self.state.index_in_bounds(buf, index):
            self.checker._flag(
                self.report, Strategy.PARAMETER, "buffer-overflow",
                f"{direction} at dev.{buf}[{index}] is outside the "
                f"buffer's {self.state.buffer_length(buf)} elements",
                block.address)
            raise _WalkStop()

    # -- NBTD checks ---------------------------------------------------------------

    def _branch(self, frame: _Frame, block: ESBlock,
                nbtd: Branch) -> str:
        outcome = bool(self._eval(frame, nbtd.cond))
        one_sided = self.spec.branch_is_one_sided(block.address)
        if one_sided is not None and self.cond_on:
            self.report.conditional_checks += 1
        if one_sided is not None and outcome != one_sided:
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP,
                "unobserved-branch",
                f"branch at {block.address:#x} took its "
                f"never-trained side ({'taken' if outcome else 'not taken'})",
                block.address)
            raise _WalkStop(incomplete=not recorded)
        return nbtd.taken if outcome else nbtd.not_taken

    def _switch(self, frame: _Frame, block: ESBlock,
                nbtd: Switch) -> str:
        value = self._eval(frame, nbtd.scrutinee)
        if block.is_cmd_decision:
            # Auto-detected dispatch: the scrutinee names the command.
            self._set_command(block, value)
        if self.cond_on:
            self.report.conditional_checks += 1
        label = nbtd.table.get(value, nbtd.default)
        if not label:
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP, "unobserved-arm",
                f"switch at {block.address:#x} has no arm for {value}",
                block.address)
            raise _WalkStop(incomplete=not recorded)
        target_block = frame.func.blocks.get(label)
        legit = self.spec.legit_switch_targets(block.address)
        if legit and self.cond_on:
            self.report.conditional_checks += 1
        if legit and (target_block is None
                      or target_block.address not in legit):
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP, "unobserved-arm",
                f"switch arm for {value} at {block.address:#x} was never "
                f"observed in training", block.address)
            raise _WalkStop(incomplete=not recorded)
        return label

    def _callee(self, block: ESBlock, name: str) -> ESFunction:
        if not self.spec.has_function(name):
            recorded = self.checker._flag(
                self.report, Strategy.CONDITIONAL_JUMP, "unobserved-path",
                f"call into {name}, which no training run executed",
                block.address)
            raise _WalkStop(incomplete=not recorded)
        return self.spec.function(name)

    def _icall(self, frame: _Frame, block: ESBlock,
               nbtd: ICall) -> ESFunction:
        """Indirect-jump check: the pointer must target a block the
        specification knows to be legitimate for this site."""
        if self.ijump_on:
            self.report.indirect_checks += 1
        ptr = self.state.read_field(nbtd.ptr_field)
        legit = self.spec.legit_icall_targets(block.address)
        if ptr not in legit:
            recorded = self.checker._flag(
                self.report, Strategy.INDIRECT_JUMP, "illegal-target",
                f"dev.{nbtd.ptr_field} points at {ptr:#x}, not a "
                f"legitimate target of this call site", block.address)
            raise _WalkStop(incomplete=not recorded)
        callee_name = self.spec.addr_to_func.get(ptr)
        if callee_name is None or not self.spec.has_function(callee_name):
            # Target legitimised but its body never trained — cannot
            # simulate further.
            raise _WalkStop(incomplete=True)
        return self.spec.function(callee_name)

    # -- expression evaluation (with parameter check on loads) -----------------------

    def _eval(self, frame: _Frame, expr: Expr) -> int:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Param):
            try:
                return frame.params[expr.name]
            except KeyError:
                raise CheckerError(
                    f"missing I/O parameter {expr.name!r}") from None
        if isinstance(expr, Local):
            try:
                return frame.env[expr.name]
            except KeyError:
                raise CheckerError(
                    f"ES local {expr.name!r} undefined (slice gap)"
                ) from None
        if isinstance(expr, StateRef):
            return self.state.read_field(expr.field)
        if isinstance(expr, BufLoad):
            index = self._eval(frame, expr.index)
            # Reads through device-state indices are checked too.
            if _index_is_state_derived(expr.index):
                block = _FakeBlock(self.current_address)
                self._param_check_index(block, expr.buf, index, "read")
            try:
                return self.state.read_buf(expr.buf, index)
            except DeviceFault:
                raise _WalkStop(incomplete=True) from None
        if isinstance(expr, BufLen):
            return expr.length
        if isinstance(expr, SyncVar):
            return self.oracle.resolve(expr.name)
        if isinstance(expr, BinOp):
            return eval_binop(expr.op, self._eval(frame, expr.left),
                              self._eval(frame, expr.right))
        if isinstance(expr, UnOp):
            return eval_unop(expr.op, self._eval(frame, expr.operand))
        raise CheckerError(f"cannot evaluate {type(expr).__name__}")


def _index_is_state_derived(index: Expr) -> bool:
    """The paper's parameter-check scope: the buffer-overflow arm fires
    only when *a device state index parameter* addresses the buffer.
    Indices held in temporary locals (CVE-2015-7504's case) are outside
    the strategy's reach — that CVE is the indirect-jump check's job.
    Constant indices are checked too (free and false-positive-proof)."""
    if isinstance(index, Const):
        return True
    return bool(index.state_refs())


@dataclass
class _FakeBlock:
    """Address carrier for anomaly reports raised during expression eval."""

    address: int
