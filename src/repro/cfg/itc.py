"""ITC-CFG: Indirect-Targets-Connected control-flow graph.

FlowGuard's construction: take the static CFG (precise for direct edges,
but with holes at indirect transfers) and *connect* the holes using the
indirect targets observed in the PT trace.  The result is the graph the CFG
analyzer works on — it knows exactly which conditional and indirect jumps
exist and which targets they legitimately reached during training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.ir import (
    Branch, Call, Goto, ICall, Program, Return, Switch,
)
from repro.ipt.decoder import BRANCH, DecodedRound, walk_table


@dataclass
class ITCNode:
    """One basic block of the ITC-CFG."""

    address: int
    func: str
    label: str
    kind: str = "plain"   # plain | cond | switch | icall | call | ret
    executed: bool = False


@dataclass
class ITCCFG:
    """The connected graph plus execution (training) annotations."""

    nodes: Dict[int, ITCNode] = field(default_factory=dict)
    #: static direct edges + runtime-connected indirect edges
    edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: edges actually traversed by training samples
    executed_edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: indirect site -> set of observed target addresses
    indirect_targets: Dict[int, Set[int]] = field(default_factory=dict)
    #: conditional site -> set of observed outcomes (True/False)
    branch_outcomes: Dict[int, Set[bool]] = field(default_factory=dict)

    def successors(self, address: int) -> List[int]:
        return sorted(dst for src, dst in self.edges if src == address)

    def executed_nodes(self) -> Set[int]:
        return {a for a, n in self.nodes.items() if n.executed}

    def cond_sites(self) -> List[int]:
        return sorted(a for a, n in self.nodes.items() if n.kind == "cond")

    def indirect_sites(self) -> List[int]:
        return sorted(a for a, n in self.nodes.items()
                      if n.kind in ("switch", "icall"))

    def one_sided_branches(self) -> List[Tuple[int, bool]]:
        """Conditional sites where training saw only one outcome.

        These become the teeth of the conditional-jump check strategy: the
        unobserved side is flagged at runtime.  Returns (address, the
        outcome that was *never* observed).
        """
        result = []
        for addr, outcomes in self.branch_outcomes.items():
            if len(outcomes) == 1:
                seen = next(iter(outcomes))
                result.append((addr, not seen))
        return sorted(result)


def build_static(program: Program) -> ITCCFG:
    """Static CFG skeleton: every block, direct edges, typed nodes."""
    graph = ITCCFG()
    for func in program.functions.values():
        for block in func.iter_blocks():
            term = block.terminator
            if isinstance(term, Branch):
                kind = "cond"
            elif isinstance(term, Switch):
                kind = "switch"
            elif isinstance(term, ICall):
                kind = "icall"
            elif isinstance(term, Call):
                kind = "call"
            elif isinstance(term, Return):
                kind = "ret"
            else:
                kind = "plain"
            graph.nodes[block.address] = ITCNode(
                block.address, func.name, block.label, kind)
    for func in program.functions.values():
        for block in func.iter_blocks():
            term = block.terminator
            for succ_label in term.successors():
                succ = func.block(succ_label)
                graph.edges.add((block.address, succ.address))
            if isinstance(term, Call):
                callee = program.function(term.func)
                entry = callee.block(callee.entry)
                graph.edges.add((block.address, entry.address))
    return graph


def connect_rounds(graph: ITCCFG, program: Program,
                   rounds: Iterable[DecodedRound]) -> ITCCFG:
    """Fold decoded training rounds into the graph (the "connect" step).

    Marks executed nodes/edges, records observed indirect targets, and
    records conditional outcomes (needed for one-sided-branch detection).
    Each round's consecutive block pairs are folded into one set first,
    so every distinct hop is classified once, against the program's
    :func:`~repro.ipt.decoder.walk_table`.
    """
    executed: Set[int] = set()
    hops: Set[Tuple[int, int]] = set()
    for round_ in rounds:
        path = round_.block_addresses
        executed.update(path)
        hops.update(zip(path, path[1:]))
        for src, target, _kind in round_.indirect_edges:
            graph.indirect_targets.setdefault(src, set()).add(target)
    for addr in executed:
        node = graph.nodes.get(addr)
        if node is not None:
            node.executed = True
    graph.executed_edges |= hops
    graph.edges |= hops
    table = walk_table(program)
    for src, dst in hops:
        entry = table.get(src)
        if entry is None or entry[0] != BRANCH:
            continue
        # Was the hop the taken or the not-taken side of the branch?
        if dst == entry[1]:
            graph.branch_outcomes.setdefault(src, set()).add(True)
        elif dst == entry[2]:
            graph.branch_outcomes.setdefault(src, set()).add(False)
    return graph


def build_itc_cfg(program: Program,
                  rounds: Iterable[DecodedRound]) -> ITCCFG:
    """Full FlowGuard-style pipeline: static skeleton + runtime connection."""
    return connect_rounds(build_static(program), program, rounds)
