"""Trace sink interface for the IR interpreter.

Sinks observe execution without influencing it: the IPT simulator, the
observation-point logger, and coverage collectors are all sinks.  Methods
default to no-ops so a sink implements only what it needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from repro.ir import BasicBlock, Function
    from repro.interp.machine import Machine


class TraceSink:
    """Base class: override the events you care about."""

    def attach(self, machine: "Machine") -> None:
        """Called once when the sink is added to a machine."""

    def on_io_enter(self, key: str, args: Tuple[int, ...]) -> None:
        """An I/O request entered the device (trace start / TIP.PGE)."""

    def on_io_exit(self, key: str, result: Optional[int]) -> None:
        """The I/O round completed (trace stop / TIP.PGD)."""

    def on_block(self, func: "Function", block: "BasicBlock") -> None:
        """A basic block began executing."""

    def on_branch(self, block: "BasicBlock", taken: bool) -> None:
        """A conditional branch resolved (source of TNT bits)."""

    def on_tip(self, block: "BasicBlock", target_addr: int,
               kind: str) -> None:
        """An indirect transfer resolved (source of TIP packets).

        *kind* is ``"switch"`` for jump-table dispatch or ``"icall"`` for a
        function-pointer call.
        """

    def on_switch(self, block: "BasicBlock", value: int,
                  target_addr: int) -> None:
        """A switch dispatch resolved, with its scrutinee value (the
        observation points use this to log command decisions)."""

    def on_call(self, caller: "Function", callee: "Function") -> None:
        """A direct call (no PT packet, but useful for logs/coverage)."""

    def on_return(self, func: "Function") -> None:
        """A function returned."""

    def on_intrinsic(self, kind: str, values: Tuple[int, ...]) -> None:
        """A SEDSpec intrinsic executed (command decision/end markers)."""

    def on_extern(self, caller: str, func: str, dest: Optional[str],
                  args: Tuple[int, ...], result: int) -> None:
        """An extern host helper ran."""

    def on_state_store(self, field: str, value: int,
                       overflowed: bool) -> None:
        """A control-structure scalar field was written."""

    def on_buf_store(self, buf: str, index: int, value: int) -> None:
        """A control-structure buffer element was written."""


class CoverageSink(TraceSink):
    """Collects executed blocks and CFG edges — used by the effective-
    coverage measurement (Table III) and by tests."""

    def __init__(self) -> None:
        self.blocks: set = set()
        self.edges: set = set()
        self._last_addr: Optional[int] = None

    def on_io_enter(self, key: str, args: Tuple[int, ...]) -> None:
        self._last_addr = None

    def on_block(self, func, block) -> None:
        self.blocks.add(block.address)
        if self._last_addr is not None:
            self.edges.add((self._last_addr, block.address))
        self._last_addr = block.address

    def merge(self, other: "CoverageSink") -> None:
        self.blocks |= other.blocks
        self.edges |= other.edges
