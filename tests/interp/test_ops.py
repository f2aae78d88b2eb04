"""Unit tests for the shared operator tables (repro.interp.ops).

One module owns the integer semantics of every IR operator; these tests
pin those semantics directly AND through each lowering that consumes the
tables — the reference ``eval_binop``/``eval_unop`` entry points, the
device-side bytecode lowering, and the checker-side bytecode lowering —
so no backend can drift from another.  The two lowerings are exercised
end to end: a one-block IR program on ``Machine(backend="bytecode")``
and a one-block execution spec on the bytecode ES-Checker, each
yielding the expression under test.  *Compiled* below means run
through one of those two lowerings.
"""

from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from repro.checker import ESChecker
from repro.errors import DeviceFault, InterpError
from repro.interp import Machine
from repro.interp.ops import (
    BINOP_FUNCS, UNOP_FUNCS, binop_fn, eval_binop, eval_unop,
)
from repro.ir import (
    BasicBlock, Function, Program, Return, StateLayout, Switch,
)
from repro.ir.expr import BINOPS, UNOPS, BinOp, Const, Param, UnOp
from repro.spec.escfg import ESBlock, ESFunction, ExecutionSpec

#: ground truth for each operator at sample operands
CASES = {
    "+": [((3, 4), 7), ((-3, 4), 1)],
    "-": [((3, 4), -1), ((10, 4), 6)],
    "*": [((3, 4), 12), ((-3, 4), -12)],
    "//": [((9, 4), 2), ((-9, 4), -3)],
    "%": [((9, 4), 1), ((-9, 4), 3)],
    "&": [((0b1100, 0b1010), 0b1000)],
    "|": [((0b1100, 0b1010), 0b1110)],
    "^": [((0b1100, 0b1010), 0b0110)],
    "<<": [((1, 4), 16), ((1, 64), 1), ((1, 65), 2)],
    ">>": [((16, 4), 1), ((16, 64), 16), ((16, 65), 8)],
    "==": [((3, 3), 1), ((3, 4), 0)],
    "!=": [((3, 3), 0), ((3, 4), 1)],
    "<": [((3, 4), 1), ((4, 3), 0), ((3, 3), 0)],
    "<=": [((3, 4), 1), ((4, 3), 0), ((3, 3), 1)],
    ">": [((3, 4), 0), ((4, 3), 1), ((3, 3), 0)],
    ">=": [((3, 4), 0), ((4, 3), 1), ((3, 3), 1)],
    "and": [((2, 3), 1), ((2, 0), 0), ((0, 3), 0), ((0, 0), 0)],
    "or": [((2, 3), 1), ((2, 0), 1), ((0, 3), 1), ((0, 0), 0)],
}
UNOP_CASES = {
    "-": [(5, -5), (-5, 5), (0, 0)],
    "~": [(0, -1), (5, -6), (-1, 0)],
    "not": [(0, 1), (5, 0), (-5, 0)],
}


def _device_lowering(expr, params):
    """Device side: a one-block IR program returning *expr*, on the
    bytecode Machine.  Returns ``run(*args)``."""
    func = Function("f", params)
    func.add_block(BasicBlock("entry", terminator=Return(expr)))
    program = Program("ops", StateLayout("OpsCtrl"))
    program.add_function(func)
    machine = Machine(program.freeze(), backend="bytecode")
    return lambda *args: machine.run_function("f", args)


def _checker_lowering(expr, params):
    """Checker side: a one-block execution spec that switches on *expr*
    with no arms, on the bytecode ES-Checker.  Every round then flags
    one ``unobserved-arm`` anomaly whose message ends in the value, so
    ``run(*args)`` is one ``check_io`` that reads it back from there."""
    block = ESBlock(address=0x1000, func="f", label="entry",
                    nbtd=Switch(expr), kind="switch", is_entry=True,
                    is_exit=True)
    spec = ExecutionSpec(
        device="ops", functions={"f": ESFunction("f", "entry", params,
                                                 {"entry": block})},
        entry_handlers={"k": "f"}, layout=StateLayout("OpsCtrl"))
    checker = ESChecker(spec, backend="bytecode")

    def run(*args):
        (anomaly,) = checker.check_io("k", args).anomalies
        return int(anomaly.message.rsplit(" ", 1)[1])
    return run


@lru_cache(maxsize=None)
def _device_binop(op):
    return _device_lowering(BinOp(op, Param("a"), Param("b")), ("a", "b"))


@lru_cache(maxsize=None)
def _checker_binop(op):
    return _checker_lowering(BinOp(op, Param("a"), Param("b")), ("a", "b"))


@lru_cache(maxsize=None)
def _device_unop(op):
    return _device_lowering(UnOp(op, Param("a")), ("a",))


@lru_cache(maxsize=None)
def _checker_unop(op):
    return _checker_lowering(UnOp(op, Param("a")), ("a",))


class TestTableCompleteness:
    def test_every_ir_binop_has_a_table_entry(self):
        assert set(BINOP_FUNCS) == BINOPS

    def test_every_ir_unop_has_a_table_entry(self):
        assert set(UNOP_FUNCS) == UNOPS

    def test_unknown_binop_raises(self):
        with pytest.raises(InterpError, match="unknown operator"):
            eval_binop("**", 2, 3)
        with pytest.raises(InterpError, match="unknown operator"):
            binop_fn("**")

    def test_unknown_unop_raises(self):
        with pytest.raises(InterpError, match="unknown unary"):
            eval_unop("!", 1)


@pytest.mark.parametrize("op", sorted(BINOPS))
class TestEveryBinop:
    def test_reference_eval(self, op):
        for (a, b), expected in CASES[op]:
            assert eval_binop(op, a, b) == expected

    def test_device_compiled(self, op):
        for (a, b), expected in CASES[op]:
            assert _device_binop(op)(a, b) == expected

    def test_checker_compiled(self, op):
        for (a, b), expected in CASES[op]:
            assert _checker_binop(op)(a, b) == expected

    def test_const_folding_matches_runtime(self, op):
        for (a, b), expected in CASES[op]:
            folded = BinOp(op, Const(a), Const(b))
            assert _device_lowering(folded, ())() == expected
            assert _checker_lowering(folded, ())() == expected


@pytest.mark.parametrize("op", sorted(UNOPS))
class TestEveryUnop:
    def test_reference_eval(self, op):
        for a, expected in UNOP_CASES[op]:
            assert eval_unop(op, a) == expected

    def test_device_compiled(self, op):
        for a, expected in UNOP_CASES[op]:
            assert _device_unop(op)(a) == expected

    def test_checker_compiled(self, op):
        for a, expected in UNOP_CASES[op]:
            assert _checker_unop(op)(a) == expected


class TestDivisionByZero:
    @pytest.mark.parametrize("op", ["//", "%"])
    def test_reference_faults(self, op):
        with pytest.raises(DeviceFault) as exc:
            eval_binop(op, 1, 0)
        assert exc.value.kind == "div0"

    @pytest.mark.parametrize("op", ["//", "%"])
    def test_compiled_faults_at_runtime(self, op):
        for run in (_device_binop(op), _checker_binop(op)):
            with pytest.raises(DeviceFault) as exc:
                run(1, 0)
            assert exc.value.kind == "div0"

    @pytest.mark.parametrize("op", ["//", "%"])
    def test_const_div0_folds_to_runtime_fault(self, op):
        """Constant folding must not turn a runtime crash into a
        lowering-time one: both lowerings succeed, the run faults."""
        expr = BinOp(op, Const(1), Const(0))
        for run in (_device_lowering(expr, ()), _checker_lowering(expr, ())):
            with pytest.raises(DeviceFault) as exc:
                run()
            assert exc.value.kind == "div0"


class TestCrossBackendAgreement:
    @given(st.sampled_from(sorted(BINOPS)),
           st.integers(-(2 ** 40), 2 ** 40),
           st.integers(-(2 ** 40), 2 ** 40))
    def test_all_three_lowerings_agree(self, op, a, b):
        try:
            reference = eval_binop(op, a, b)
        except DeviceFault:
            with pytest.raises(DeviceFault):
                _device_binop(op)(a, b)
            with pytest.raises(DeviceFault):
                _checker_binop(op)(a, b)
            return
        assert _device_binop(op)(a, b) == reference
        assert _checker_binop(op)(a, b) == reference

    @given(st.sampled_from(sorted(UNOPS)),
           st.integers(-(2 ** 40), 2 ** 40))
    def test_unop_lowerings_agree(self, op, a):
        reference = eval_unop(op, a)
        assert _device_unop(op)(a) == reference
        assert _checker_unop(op)(a) == reference
