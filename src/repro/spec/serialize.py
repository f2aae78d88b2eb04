"""Execution specification (de)serialization.

Specs are built once (offline, from training runs) and then *deployed* into
hypervisors; this module gives them a stable JSON wire format, including
the DSOD/NBTD expression trees.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import SpecError
from repro.ir import (
    Assign, BinOp, Branch, BufLen, BufLoad, BufStore, BufType, Call, Const,
    Expr, FuncPtrType, Goto, ICall, IntType, Intrinsic, Local, Param,
    Return, StateLayout, StateRef, StateStore, Stmt, Switch, SyncVar,
    Terminator, UnOp,
)
from repro.spec.escfg import (
    CommandAccessTable, ESBlock, ESFunction, ExecutionSpec,
)
from repro.spec.state import BufferInfo, FieldInfo


# -- expressions -------------------------------------------------------------

def expr_to_obj(expr: Optional[Expr]) -> Any:
    if expr is None:
        return None
    if isinstance(expr, Const):
        return ["const", expr.value]
    if isinstance(expr, Local):
        return ["local", expr.name]
    if isinstance(expr, Param):
        return ["param", expr.name]
    if isinstance(expr, StateRef):
        return ["state", expr.field]
    if isinstance(expr, BufLoad):
        return ["bufload", expr.buf, expr_to_obj(expr.index)]
    if isinstance(expr, BufLen):
        return ["buflen", expr.buf, expr.length]
    if isinstance(expr, SyncVar):
        return ["sync", expr.name]
    if isinstance(expr, BinOp):
        return ["bin", expr.op, expr_to_obj(expr.left),
                expr_to_obj(expr.right)]
    if isinstance(expr, UnOp):
        return ["un", expr.op, expr_to_obj(expr.operand)]
    raise SpecError(f"cannot serialize expression {type(expr).__name__}")


def expr_from_obj(obj: Any) -> Optional[Expr]:
    if obj is None:
        return None
    tag = obj[0]
    if tag == "const":
        return Const(obj[1])
    if tag == "local":
        return Local(obj[1])
    if tag == "param":
        return Param(obj[1])
    if tag == "state":
        return StateRef(obj[1])
    if tag == "bufload":
        return BufLoad(obj[1], expr_from_obj(obj[2]))
    if tag == "buflen":
        return BufLen(obj[1], obj[2])
    if tag == "sync":
        return SyncVar(obj[1])
    if tag == "bin":
        return BinOp(obj[1], expr_from_obj(obj[2]), expr_from_obj(obj[3]))
    if tag == "un":
        return UnOp(obj[1], expr_from_obj(obj[2]))
    raise SpecError(f"cannot deserialize expression tag {tag!r}")


# -- statements ----------------------------------------------------------------

def stmt_to_obj(stmt: Stmt) -> Any:
    if isinstance(stmt, Assign):
        return ["assign", stmt.target, expr_to_obj(stmt.value)]
    if isinstance(stmt, StateStore):
        return ["store", stmt.field, expr_to_obj(stmt.value)]
    if isinstance(stmt, BufStore):
        return ["bufstore", stmt.buf, expr_to_obj(stmt.index),
                expr_to_obj(stmt.value)]
    if isinstance(stmt, Intrinsic):
        return ["intrinsic", stmt.kind,
                [expr_to_obj(a) for a in stmt.args]]
    raise SpecError(f"cannot serialize statement {type(stmt).__name__}")


def stmt_from_obj(obj: Any) -> Stmt:
    tag = obj[0]
    if tag == "assign":
        return Assign(obj[1], expr_from_obj(obj[2]))
    if tag == "store":
        return StateStore(obj[1], expr_from_obj(obj[2]))
    if tag == "bufstore":
        return BufStore(obj[1], expr_from_obj(obj[2]), expr_from_obj(obj[3]))
    if tag == "intrinsic":
        return Intrinsic(obj[1], tuple(expr_from_obj(a) for a in obj[2]))
    raise SpecError(f"cannot deserialize statement tag {tag!r}")


# -- terminators ------------------------------------------------------------------

def term_to_obj(term: Optional[Terminator]) -> Any:
    if term is None:
        return None
    if isinstance(term, Goto):
        return ["goto", term.target]
    if isinstance(term, Branch):
        return ["branch", expr_to_obj(term.cond), term.taken,
                term.not_taken]
    if isinstance(term, Switch):
        return ["switch", expr_to_obj(term.scrutinee),
                {str(k): v for k, v in term.table.items()}, term.default]
    if isinstance(term, Call):
        return ["call", term.func, [expr_to_obj(a) for a in term.args],
                term.dest, term.cont]
    if isinstance(term, ICall):
        return ["icall", term.ptr_field,
                [expr_to_obj(a) for a in term.args], term.dest, term.cont]
    if isinstance(term, Return):
        return ["ret", expr_to_obj(term.value)]
    raise SpecError(f"cannot serialize terminator {type(term).__name__}")


def term_from_obj(obj: Any) -> Optional[Terminator]:
    if obj is None:
        return None
    tag = obj[0]
    if tag == "goto":
        return Goto(obj[1])
    if tag == "branch":
        return Branch(expr_from_obj(obj[1]), obj[2], obj[3])
    if tag == "switch":
        return Switch(expr_from_obj(obj[1]),
                      {int(k): v for k, v in obj[2].items()}, obj[3])
    if tag == "call":
        return Call(obj[1], tuple(expr_from_obj(a) for a in obj[2]),
                    obj[3], obj[4])
    if tag == "icall":
        return ICall(obj[1], tuple(expr_from_obj(a) for a in obj[2]),
                     obj[3], obj[4])
    if tag == "ret":
        return Return(expr_from_obj(obj[1]))
    raise SpecError(f"cannot deserialize terminator tag {tag!r}")


# -- state layout -----------------------------------------------------------------

def layout_to_obj(layout: StateLayout) -> Any:
    fields = []
    for decl in layout.fields:
        if isinstance(decl.type, BufType):
            fields.append(["buf", decl.name, decl.type.elem.bits,
                           int(decl.type.elem.signed), decl.type.length,
                           int(decl.register)])
        elif isinstance(decl.type, FuncPtrType):
            fields.append(["ptr", decl.name, int(decl.register)])
        else:
            fields.append(["int", decl.name, decl.type.bits,
                           int(decl.type.signed), int(decl.register)])
    return {"struct": layout.struct_name, "fields": fields}


def layout_from_obj(obj: Any) -> StateLayout:
    layout = StateLayout(obj["struct"])
    for entry in obj["fields"]:
        tag = entry[0]
        if tag == "buf":
            _, name, bits, signed, length, register = entry
            layout.add(name, BufType(IntType(bits, bool(signed)), length),
                       register=bool(register))
        elif tag == "ptr":
            _, name, register = entry
            layout.add(name, FuncPtrType(), register=bool(register))
        else:
            _, name, bits, signed, register = entry
            layout.add(name, IntType(bits, bool(signed)),
                       register=bool(register))
    return layout


# -- blocks ----------------------------------------------------------------------

def block_to_obj(block: ESBlock) -> Any:
    return {
        "address": block.address,
        "dsod": [stmt_to_obj(s) for s in block.dsod],
        "nbtd": term_to_obj(block.nbtd),
        "kind": block.kind,
        "flags": [block.is_entry, block.is_exit, block.is_cmd_decision,
                  block.is_cmd_end],
        "cmd_expr": expr_to_obj(block.cmd_expr),
    }


def block_from_obj(func: str, label: str, obj: Any) -> ESBlock:
    flags = obj["flags"]
    return ESBlock(
        address=obj["address"], func=func, label=label,
        dsod=[stmt_from_obj(s) for s in obj["dsod"]],
        nbtd=term_from_obj(obj["nbtd"]), kind=obj["kind"],
        is_entry=flags[0], is_exit=flags[1],
        is_cmd_decision=flags[2], is_cmd_end=flags[3],
        cmd_expr=expr_from_obj(obj["cmd_expr"]))


def copy_block(block: ESBlock) -> ESBlock:
    """Deep copy through the wire encoding: the copy shares no mutable
    structure (dsod list, terminator, switch table) with the original."""
    return block_from_obj(block.func, block.label, block_to_obj(block))


# -- whole specification --------------------------------------------------------------

def spec_to_json(spec: ExecutionSpec) -> str:
    """The canonical serialized form: keys sorted, so the text (and the
    content address ``spec_digest`` takes of it) depends only on what
    the spec contains, not on the insertion order training left in its
    dicts (which follows set iteration, and so the process hash seed)."""
    functions = {}
    for name, es_func in spec.functions.items():
        functions[name] = {
            "entry": es_func.entry,
            "params": list(es_func.params),
            "blocks": {label: block_to_obj(b)
                       for label, b in es_func.blocks.items()},
        }
    payload = {
        "device": spec.device,
        "functions": functions,
        "entry_handlers": spec.entry_handlers,
        "field_info": {n: [f.bits, f.signed, f.is_funcptr]
                       for n, f in spec.field_info.items()},
        "buffer_info": {n: [b.elem_bits, b.length]
                        for n, b in spec.buffer_info.items()},
        "layout": layout_to_obj(spec.layout) if spec.layout else None,
        "branch_observed": {str(k): sorted(v)
                            for k, v in spec.branch_observed.items()},
        "switch_targets": {str(k): sorted(v)
                           for k, v in spec.switch_targets.items()},
        "icall_targets": {str(k): sorted(v)
                          for k, v in spec.icall_targets.items()},
        "visited_blocks": sorted(spec.visited_blocks),
        "cmd_access": {str(k): sorted(v)
                       for k, v in spec.cmd_access.table.items()},
        "func_addr": spec.func_addr,
        "addr_to_block": {str(k): list(v)
                          for k, v in spec.addr_to_block.items()},
        "sync_locals": {k: sorted(v) for k, v in spec.sync_locals.items()},
        "stats": spec.stats,
    }
    return json.dumps(payload, sort_keys=True)


def spec_from_json(text: str) -> ExecutionSpec:
    raw = json.loads(text)
    spec = ExecutionSpec(device=raw["device"])
    for name, fobj in raw["functions"].items():
        es_func = ESFunction(name, fobj["entry"], tuple(fobj["params"]))
        for label, bobj in fobj["blocks"].items():
            es_func.blocks[label] = block_from_obj(name, label, bobj)
        spec.functions[name] = es_func
    spec.entry_handlers = dict(raw["entry_handlers"])
    spec.field_info = {
        n: FieldInfo(n, v[0], v[1], v[2])
        for n, v in raw["field_info"].items()}
    spec.buffer_info = {
        n: BufferInfo(n, v[0], v[1]) for n, v in raw["buffer_info"].items()}
    spec.layout = (layout_from_obj(raw["layout"])
                   if raw.get("layout") else None)
    spec.branch_observed = {
        int(k): {bool(x) for x in v}
        for k, v in raw["branch_observed"].items()}
    spec.switch_targets = {
        int(k): set(v) for k, v in raw["switch_targets"].items()}
    spec.icall_targets = {
        int(k): set(v) for k, v in raw["icall_targets"].items()}
    spec.visited_blocks = set(raw["visited_blocks"])
    spec.cmd_access = CommandAccessTable(
        {int(k): set(v) for k, v in raw["cmd_access"].items()})
    spec.func_addr = {k: int(v) for k, v in raw["func_addr"].items()}
    spec.addr_to_func = {v: k for k, v in spec.func_addr.items()}
    spec.addr_to_block = {
        int(k): (v[0], v[1]) for k, v in raw["addr_to_block"].items()}
    spec.sync_locals = {
        k: frozenset(v) for k, v in raw["sync_locals"].items()}
    spec.stats = dict(raw["stats"])
    return spec
