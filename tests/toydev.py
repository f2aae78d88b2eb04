"""A small synthetic device used throughout the test suite.

It has just enough structure to exercise every compiler/interpreter/spec
feature: registers, a FIFO with index/length counters, a function-pointer
IRQ callback, a command dispatch switch, a vulnerable (unchecked) write
path gated by a compile-time constant, and extern calls.
"""

from repro.compiler import DeviceLogic, arr, fld, ptr, reg
from repro.interp import DEFAULT_BACKEND


class ToyLogic(DeviceLogic):
    STRUCT = "ToyCtrl"
    FIELDS = (
        reg("status", "u8", doc="status register"),
        reg("cmd", "u8", doc="command register"),
        arr("fifo", "u8", 8, doc="data FIFO"),
        fld("pos", "i32", doc="FIFO cursor"),
        fld("count", "u8", doc="bytes queued"),
        ptr("irq", doc="interrupt callback"),
        fld("irq_level", "u8"),
    )
    CONSTS = {"VULN_UNCHECKED_PUSH": 0, "CMD_RESET": 0, "CMD_PUSH": 1,
              "CMD_POP": 2, "CMD_SUM": 3}
    EXTERNS = ("host_log",)
    ENTRIES = {
        "pmio:write:0": "write_cmd",
        "pmio:write:1": "write_data",
        "pmio:read:1": "read_data",
    }

    def write_cmd(self, value):
        """Command register write: dispatch on the command byte."""
        self.cmd = value
        sed_command_decision(value)  # noqa: F821  (compiler intrinsic)
        if value == self.CMD_RESET:
            self.do_reset()
        elif value == self.CMD_SUM:
            self.do_sum()
        sed_command_end()  # noqa: F821
        return 0

    def do_reset(self):
        self.pos = 0
        self.count = 0
        self.status = 0
        self.irq_level = 0

    def do_sum(self):
        total = 0
        for i in range(self.count):
            total = total + self.fifo[i]
        self.status = total
        self.raise_irq()

    def raise_irq(self):
        self.irq(1)

    def on_irq(self, level):
        self.irq_level = level
        host_log(level)  # noqa: F821

    def write_data(self, value):
        """Push a byte; the patched build bounds-checks the cursor."""
        if self.VULN_UNCHECKED_PUSH:
            self.fifo[self.pos] = value
            self.pos += 1
            self.count += 1
        else:
            if self.pos < len(self.fifo):
                self.fifo[self.pos] = value
                self.pos += 1
                self.count += 1
            else:
                self.status = 0xFF
        return 0

    def read_data(self):
        if self.count == 0:
            self.status = 0xFE
            return 0
        self.pos -= 1
        self.count -= 1
        value = self.fifo[self.pos]
        return value


def make_toy_machine(vuln=False, extern_cost=None, backend=DEFAULT_BACKEND):
    """The canonical ToyLogic machine: compiled with or without the
    vulnerable push path, ``host_log`` bound to a no-op, and the IRQ
    function pointer seeded.  Formerly copy-pasted (with slight drift)
    across the interp, checker, spec, telemetry, and integration
    suites — shared so device-harness changes land in one place."""
    from repro.compiler import compile_device
    from repro.interp import Machine

    overrides = {"VULN_UNCHECKED_PUSH": 1} if vuln else None
    program = compile_device(ToyLogic, const_overrides=overrides)
    machine = Machine(program, backend=backend)
    if extern_cost is None:
        machine.bind_extern("host_log", lambda m, level: None)
    else:
        machine.bind_extern("host_log", lambda m, level: None,
                            cost=extern_cost)
    machine.set_funcptr("irq", "on_irq")
    return machine
