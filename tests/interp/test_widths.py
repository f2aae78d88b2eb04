"""Width and signedness matrix: every ``IntType`` through the bytecode
runners vs the reference walker.

The seven device models use only u8/u16/u32/i32 scalars, one 8-byte
function pointer and u8 buffers, so their differential suites never
reach the state-access forms that differ by width: two index
operations for 2-byte fields, the ``struct`` codecs for 4- and 8-byte
ones, and the signed fix-up.  This synthetic program declares one
scalar and one 4-element buffer of every ``IntType`` and drives them
through:

* scalar stores of min-1, min, max, max+1, -1 and 2**70, each as a
  dynamic (parameter) and as a literal value;
* buffer loads at indices -100000, -1, 0, len-1, len and 100000, each
  as a constant and as a dynamic index — neighbour reads and
  ``oob-segfault`` included;
* buffer stores over the product of those indices and values, each
  side constant or dynamic — neighbour corruption included.

Every case starts from the same byte pattern, and the result (or the
fault's type, kind and message), the state bytes, ``cycles``, ``steps``
and the flag register must be identical on the reference walker and
the bytecode fast and traced runners.
"""

from functools import lru_cache

import pytest

from repro.errors import DeviceFault, InterpError
from repro.interp import Flags, Machine, TraceSink
from repro.ir import (
    BasicBlock, BufLoad, BufStore, BufType, Const, Function, Param, Program,
    Return, StateLayout, StateRef, StateStore,
)
from repro.ir.types import I8, I16, I32, I64, U8, U16, U32, U64

TYPES = (U8, U16, U32, U64, I8, I16, I32, I64)
LENGTH = 4
INDICES = (-100000, -1, 0, LENGTH - 1, LENGTH, 100000)
RUNNERS = ("reference", "fast", "traced")


def _values(typ):
    return (typ.min_value - 1, typ.min_value, typ.max_value,
            typ.max_value + 1, -1, 2 ** 70)


def _tag(n):
    return f"m{-n}" if n < 0 else str(n)


def _operand(value, name, literal):
    """(expression, parameter names, args) for a literal or dynamic
    operand."""
    if literal:
        return Const(value), (), ()
    return Param(name), (name,), (value,)


@lru_cache(maxsize=None)
def _matrix():
    """The program plus its cases: (type, function name, args)."""
    layout = StateLayout("WidthCtrl")
    for typ in TYPES:
        layout.add(f"s_{typ}", typ)
        layout.add(f"b_{typ}", BufType(typ, LENGTH))
    program = Program("widths", layout)
    cases = []

    def case(typ, name, params, stmts, ret, args):
        if name not in program.functions:
            func = Function(name, params)
            func.add_block(BasicBlock("entry", stmts=stmts,
                                      terminator=Return(ret)))
            program.add_function(func)
        cases.append((typ, name, args))

    for typ in TYPES:
        scalar, buf = f"s_{typ}", f"b_{typ}"
        for vi, value in enumerate(_values(typ)):
            for literal in (True, False):
                v, params, args = _operand(value, "v", literal)
                case(typ, f"store_{scalar}_{f'l{vi}' if literal else 'd'}",
                     params, [StateStore(scalar, v)], StateRef(scalar),
                     args)
        for index in INDICES:
            for const in (True, False):
                i, iparams, iargs = _operand(index, "i", const)
                where = f"c{_tag(index)}" if const else "d"
                case(typ, f"load_{buf}_{where}", iparams, [],
                     BufLoad(buf, i), iargs)
                for vi, value in enumerate(_values(typ)):
                    for literal in (True, False):
                        v, vparams, vargs = _operand(value, "v", literal)
                        what = f"l{vi}" if literal else "d"
                        case(typ, f"bufstore_{buf}_{where}_{what}",
                             iparams + vparams, [BufStore(buf, i, v)],
                             BufLoad(buf, i), iargs + vargs)
    return program.freeze(), tuple(cases)


@lru_cache(maxsize=None)
def _machines():
    program, _ = _matrix()
    machines = {"reference": Machine(program, backend="reference"),
                "fast": Machine(program, backend="bytecode")}
    traced = Machine(program, backend="bytecode")
    traced.add_sink(TraceSink())
    machines["traced"] = traced
    return machines


def _run(machine, name, args):
    """One case from the fixed byte pattern; every observable."""
    machine.state.data[:] = bytes(i * 37 % 251
                                  for i in range(len(machine.state.data)))
    machine.cycles = 0
    machine.flags = Flags()
    try:
        outcome = machine.run_function(name, args)
    except DeviceFault as fault:
        outcome = ("DeviceFault", fault.kind, str(fault))
    except InterpError as err:
        outcome = ("InterpError", str(err))
    return (outcome, bytes(machine.state.data), machine.cycles,
            machine.steps, machine.flags.overflow,
            machine.flags.last_store_field)


@pytest.mark.parametrize("typ", TYPES, ids=str)
def test_runners_match_reference(typ):
    _, cases = _matrix()
    machines = _machines()
    faults = overflows = 0
    for _, name, args in (c for c in cases if c[0] == typ):
        runs = {r: _run(machines[r], name, args) for r in RUNNERS}
        for runner in RUNNERS[1:]:
            assert runs[runner] == runs["reference"], (runner, name, args)
        faults += isinstance(runs["reference"][0], tuple)
        overflows += runs["reference"][4]
    # Not vacuous: out-of-struct accesses fault, out-of-range stores
    # set the overflow bit.
    assert faults and overflows


def test_matrix_covers_every_form():
    _, cases = _matrix()
    assert {typ for typ, _, _ in cases} == set(TYPES)
    per_type = len(cases) // len(TYPES)
    # 12 scalar stores + 12 loads + 6 indices x 2 x 6 values x 2 stores
    assert per_type == 12 + 12 + 144
