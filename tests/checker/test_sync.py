"""Unit tests for the sync-point oracles and the extern harvest that
feeds :class:`QueueSyncOracle` during co-execution."""

from collections import deque

import pytest

from repro.checker import (
    FieldSyncOracle, MappingSyncOracle, NullSyncOracle, QueueSyncOracle,
)
from repro.compiler import DeviceLogic, compile_device, fld
from repro.errors import CheckerError
from repro.interp import Machine, TraceSink
from repro.ir import StateLayout, StateMemory, U8, U32


def make_memory():
    layout = StateLayout("T")
    layout.add("phase", U8)
    layout.add("count", U32)
    memory = StateMemory(layout)
    memory.write_field("phase", 3)
    memory.write_field("count", 77)
    return memory


class TestOracles:
    def test_null_refuses(self):
        with pytest.raises(CheckerError):
            NullSyncOracle().resolve("anything")

    def test_mapping(self):
        oracle = MappingSyncOracle({"a": 5})
        assert oracle.resolve("a") == 5
        with pytest.raises(CheckerError):
            oracle.resolve("b")

    def test_field_oracle_reads_live_memory(self):
        oracle = FieldSyncOracle(make_memory())
        assert oracle.resolve("field:phase") == 3
        assert oracle.resolve("field:count") == 77

    def test_field_oracle_falls_back(self):
        oracle = FieldSyncOracle(make_memory(),
                                 fallback=MappingSyncOracle({"x": 9}))
        assert oracle.resolve("x") == 9

    def test_queue_oracle_pops_in_order(self):
        queues = {"extern:f:byte": deque([10, 20, 30])}
        oracle = QueueSyncOracle(queues)
        assert [oracle.resolve("extern:f:byte") for _ in range(3)] \
            == [10, 20, 30]

    def test_queue_exhaustion_is_divergence(self):
        oracle = QueueSyncOracle({"extern:f:b": deque([1])})
        oracle.resolve("extern:f:b")
        with pytest.raises(CheckerError, match="diverged"):
            oracle.resolve("extern:f:b")

    def test_queue_falls_back_for_fields(self):
        oracle = QueueSyncOracle({}, fallback=FieldSyncOracle(
            make_memory()))
        assert oracle.resolve("field:phase") == 3


class HarvestLogic(DeviceLogic):
    """Destination-bearing host reads from two callers, plus a
    destination-less host notification."""

    STRUCT = "HarvestCtrl"
    FIELDS = (fld("acc", "u32"),)
    CONSTS = {}
    EXTERNS = ("peek", "notify")
    ENTRIES = {"pmio:write:0": "fill", "pmio:write:1": "ping"}

    def fill(self, value):
        byte = peek(value)  # noqa: F821  (extern)
        self.acc = byte
        byte = peek(value + 1)  # noqa: F821
        self.acc = self.acc + byte
        self.other(value)
        notify(value)  # noqa: F821
        return 0

    def other(self, value):
        byte = peek(value + 2)  # noqa: F821
        self.acc = self.acc + byte

    def ping(self, value):
        notify(value)  # noqa: F821
        return 0


def _peek(m, v):
    return (v * 37 + 11) & 0xFF


def _harvest_machine(path):
    """A HarvestLogic machine on the fast runner, the traced runner (a
    no-op sink attached) or the reference walker."""
    machine = Machine(compile_device(HarvestLogic),
                      backend="reference" if path == "reference"
                      else "bytecode")
    notified = []
    machine.bind_extern("peek", _peek)
    machine.bind_extern("notify", lambda m, v: notified.append(v))
    if path == "traced":
        machine.add_sink(TraceSink())
    return machine, notified


@pytest.mark.parametrize("path", ["fast", "traced", "reference"])
class TestHarvest:
    def test_keys_by_caller_and_dest(self, path):
        machine, _ = _harvest_machine(path)
        machine.harvest = {}
        machine.run_entry("pmio:write:0", (5,))
        assert {k: list(q) for k, q in machine.harvest.items()} == {
            "extern:fill:byte": [_peek(None, 5), _peek(None, 6)],
            "extern:other:byte": [_peek(None, 7)],
        }
        assert all(isinstance(q, deque) for q in machine.harvest.values())

    def test_destless_externs_not_harvested(self, path):
        machine, notified = _harvest_machine(path)
        machine.harvest = {}
        machine.run_entry("pmio:write:1", (9,))
        assert notified == [9]
        assert machine.harvest == {}

    def test_no_harvest_outside_coexecution(self, path):
        machine, _ = _harvest_machine(path)
        assert machine.harvest is None
        machine.run_entry("pmio:write:0", (5,))
        assert machine.harvest is None

    def test_harvest_feeds_queue_oracle_in_order(self, path):
        machine, _ = _harvest_machine(path)
        machine.harvest = {}
        for value in (1, 2):
            machine.run_entry("pmio:write:0", (value,))
        oracle = QueueSyncOracle(machine.harvest)
        assert [oracle.resolve("extern:fill:byte") for _ in range(4)] \
            == [_peek(None, v) for v in (1, 2, 2, 3)]
        with pytest.raises(CheckerError, match="diverged"):
            oracle.resolve("extern:fill:byte")
