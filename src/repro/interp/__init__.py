"""IR interpreter, its execution backends, and trace sink interfaces."""

from repro.interp.machine import BACKENDS, DEFAULT_BACKEND, Flags, Machine
from repro.interp.ops import (
    BINOP_FUNCS, DEFAULT_EXTERN_COST, STMT_COST, TERM_COST, UNOP_FUNCS,
    eval_binop, eval_unop,
)
from repro.interp.bytecode import BytecodeProgram, bytecode_program_for
from repro.interp.sinks import CoverageSink, TraceSink

__all__ = [
    "BACKENDS", "BINOP_FUNCS", "DEFAULT_BACKEND", "DEFAULT_EXTERN_COST",
    "STMT_COST", "TERM_COST", "UNOP_FUNCS", "Flags", "Machine",
    "BytecodeProgram", "bytecode_program_for", "eval_binop", "eval_unop",
    "CoverageSink", "TraceSink",
]
