"""Shared operator semantics and cost model constants.

One module owns the exact integer semantics of every IR operator so the
reference interpreter, the ES-Checker's shadow walk, the constant folder,
and the bytecode lowerings all agree bit-for-bit: division and modulo by
zero raise :class:`DeviceFault` (the device crashes, exactly like the C
it models), shift counts are masked to 6 bits (x86 ``shl/shr`` on 64-bit
operands), and comparisons/logicals return 0/1 ints.

The tables map operator spellings to plain functions, so a lowering can
pre-resolve the operator once instead of re-running an if-chain per
evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import DeviceFault, InterpError

#: Per-operation cycle costs of the performance model.  Extern costs are
#: configurable per helper (DMA is far more expensive than a register poke).
STMT_COST = 1
TERM_COST = {
    "Goto": 1, "Branch": 2, "Switch": 3, "Call": 4, "ICall": 6, "Return": 2,
}
DEFAULT_EXTERN_COST = 8


def _floordiv(a: int, b: int) -> int:
    if b == 0:
        raise DeviceFault("division by zero", kind="div0")
    return a // b


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise DeviceFault("modulo by zero", kind="div0")
    return a % b


def _shl(a: int, b: int) -> int:
    return a << (b & 63)


def _shr(a: int, b: int) -> int:
    return a >> (b & 63)


#: Binary operator table shared by every execution backend.
BINOP_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": _floordiv,
    "%": _mod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": _shl,
    ">>": _shr,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "and": lambda a, b: int(bool(a) and bool(b)),
    "or": lambda a, b: int(bool(a) or bool(b)),
}

#: Unary operator table shared by every execution backend.
UNOP_FUNCS: Dict[str, Callable[[int], int]] = {
    "-": lambda a: -a,
    "~": lambda a: ~a,
    "not": lambda a: int(not a),
}


def binop_fn(op: str) -> Callable[[int, int], int]:
    """Resolve *op* once (at lowering time) instead of per evaluation."""
    try:
        return BINOP_FUNCS[op]
    except KeyError:
        raise InterpError(f"unknown operator {op!r}") from None


def eval_binop(op: str, a: int, b: int) -> int:
    """Exact integer semantics shared by interpreter, folder, and checker."""
    try:
        fn = BINOP_FUNCS[op]
    except KeyError:
        raise InterpError(f"unknown operator {op!r}") from None
    return fn(a, b)


def eval_unop(op: str, a: int) -> int:
    try:
        fn = UNOP_FUNCS[op]
    except KeyError:
        raise InterpError(f"unknown unary operator {op!r}") from None
    return fn(a)
