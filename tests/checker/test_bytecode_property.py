"""Property-based differential test: random device programs through the
bytecode backends vs the reference walkers.

Hypothesis generates whole device-logic classes — random scalar field
widths, random handler bodies drawn from a small statement/expression
grammar (stores, nested conditionals, masked buffer writes) — then:

* the interpreter property runs the same I/O script on a reference
  Machine and a bytecode Machine and requires identical results and
  final device state;
* the checker property trains a spec on the generated device, replays
  a workload *with injected faults* (out-of-range parameter values,
  untrained I/O keys) through a reference-backend and a
  bytecode-backend ``ESChecker``, and requires the two CheckReport
  streams to be dataclass-identical — same anomalies in the same
  order, same walk counters, same final shadow state, same cycle
  accounting.  Extern sync values come from a co-execution harvest
  that the fast runner, the traced runner and the reference walker
  must produce identically.

The fixed-device differential suites pin the five real profiles; this
one walks the program space around them.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import BACKENDS, ESChecker
from repro.checker.sync import QueueSyncOracle
from repro.compiler import DeviceLogic, arr, compile_device, fld
from repro.interp import Machine, TraceSink
from repro.spec import build_spec

WIDTHS = ("u8", "u16", "i32")
BINOPS = ("+", "-", "&", "|", "^")
CMPS = ("<", "<=", "==", "!=", ">", ">=")


def _bind_peek(machine):
    """The deterministic host read generated devices may call."""
    machine.bind_extern("peek", lambda m, v: (v * 37 + 11) & 0xFF,
                        cost=3)
    return machine


@st.composite
def device_classes(draw):
    """A random DeviceLogic subclass, returned as ``(cls, source)`` —
    ``compile_device`` needs the source text for exec'd classes.

    When Hypothesis opts in to the extern, the handler binds one host
    read into a local up front and the grammar may use that local any
    number of times — including in several branch conditions, the
    virtio descriptor-walk shape that forces the spec's sync-FIFO to
    stay aligned with the device's read count."""
    nfields = draw(st.integers(min_value=2, max_value=4))
    names = [f"f{i}" for i in range(nfields)]
    widths = [draw(st.sampled_from(WIDTHS)) for _ in names]
    use_extern = draw(st.booleans())

    def expr(depth=0):
        kinds = ["const", "field", "value"]
        if use_extern:
            kinds.append("extern_local")
        if depth < 2:
            kinds.append("binop")
        kind = draw(st.sampled_from(kinds))
        if kind == "const":
            return str(draw(st.integers(min_value=0, max_value=255)))
        if kind == "field":
            return f"self.{draw(st.sampled_from(names))}"
        if kind == "value":
            return "value"
        if kind == "extern_local":
            return "t0"
        op = draw(st.sampled_from(BINOPS))
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    def stmt(indent, depth=0):
        pad = "    " * indent
        kinds = ["store", "bufstore"]
        if depth < 2:
            kinds.append("if")
        kind = draw(st.sampled_from(kinds))
        if kind == "store":
            target = draw(st.sampled_from(names))
            return [f"{pad}self.{target} = {expr()}"]
        if kind == "bufstore":
            return [f"{pad}self.buf[{expr()} & 3] = {expr()}"]
        cmp = draw(st.sampled_from(CMPS))
        lines = [f"{pad}if {expr()} {cmp} {expr()}:"]
        lines += stmt(indent + 1, depth + 1)
        lines.append(f"{pad}else:")
        lines += stmt(indent + 1, depth + 1)
        return lines

    body = []
    if use_extern:
        body.append("        t0 = peek(value)")
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        body += stmt(2)

    field_decls = ", ".join(
        f"fld({name!r}, {width!r})"
        for name, width in zip(names, widths))
    source = "\n".join([
        "class GenLogic(DeviceLogic):",
        "    STRUCT = 'GenCtrl'",
        f"    FIELDS = ({field_decls}, arr('buf', 'u8', 4),)",
        "    CONSTS = {}",
        f"    EXTERNS = {('peek',) if use_extern else ()!r}",
        "    ENTRIES = {'pmio:write:0': 'write_a',",
        "               'pmio:read:0': 'read_s'}",
        "",
        "    def write_a(self, value):",
        *body,
        "        return 0",
        "",
        "    def read_s(self):",
        f"        return self.{names[0]}",
    ])
    namespace = {"DeviceLogic": DeviceLogic, "fld": fld, "arr": arr}
    exec(source, namespace)
    return namespace["GenLogic"], source


#: Workload values stay in-distribution; fault values go far outside it.
script_strategy = st.lists(
    st.integers(min_value=0, max_value=255), min_size=3, max_size=12)
fault_strategy = st.lists(
    st.one_of(
        st.integers(min_value=256, max_value=1 << 40),
        st.integers(min_value=-(1 << 33), max_value=-1),
    ),
    min_size=1, max_size=4)


class TestInterpreterParity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(device_classes(), script_strategy)
    def test_fast_machines_match_reference(self, logic, script):
        cls, source = logic
        program = compile_device(cls, source=source)
        ref = _bind_peek(Machine(program, backend="reference"))
        fast = _bind_peek(Machine(program, backend="bytecode"))
        for value in script:
            assert (fast.run_entry("pmio:write:0", (value,))
                    == ref.run_entry("pmio:write:0", (value,)))
            assert (fast.run_entry("pmio:read:0", ())
                    == ref.run_entry("pmio:read:0", ()))
        assert bytes(fast.state.data) == bytes(ref.state.data)
        assert fast.cycles == ref.cycles
        assert fast.steps == ref.steps


class TestCheckerParity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(device_classes(), script_strategy, fault_strategy)
    def test_reports_identical_under_faults(self, logic, script,
                                            faults):
        cls, source = logic
        program = compile_device(cls, source=source)

        machine = _bind_peek(Machine(program))
        selection = select_parameters(program)
        logger = machine.add_sink(ObservationLogger(
            "gen", selection.scalar_params | selection.funcptrs,
            selection.buffers))
        for value in script:
            machine.run_entry("pmio:write:0", (value,))
            machine.run_entry("pmio:read:0", ())
        spec = build_spec(program, logger.log, selection)

        checkers = {}
        for name in BACKENDS:
            seed = Machine(program)
            checker = ESChecker(spec, backend=name)
            checker.boot_sync(seed.state)
            checkers[name] = checker

        # Each probe is first run on live device machines with the
        # harvest set — exactly the runtime's co-execution scheme — on
        # the fast runner, the traced runner (a no-op sink attached) and
        # the reference walker; all three must harvest the same FIFO.
        # Checkers then resolve extern sync vars from that FIFO, each
        # from its own copy (resolving pops).
        devices = {
            "fast": _bind_peek(Machine(program)),
            "traced": _bind_peek(Machine(program)),
            "reference": _bind_peek(Machine(program, backend="reference")),
        }
        devices["traced"].add_sink(TraceSink())

        def oracles(harvest):
            import copy
            return {name: QueueSyncOracle(copy.deepcopy(harvest))
                    for name in checkers}

        # Benign replay, then the injected faults: values far outside
        # the trained distribution (conditional-jump anomalies, or
        # parameter anomalies where a store widens them), plus an I/O
        # key training never saw.
        probes = [("pmio:write:0", (v,)) for v in script]
        probes += [("pmio:read:0", ())]
        probes += [("pmio:write:0", (v,)) for v in faults]
        probes += [("pmio:write:7", (1,))]
        for key, args in probes:
            harvests = {}
            for path, device in devices.items():
                device.harvest = harvests[path] = {}
                try:
                    device.run_entry(key, args)
                except Exception:
                    pass    # unknown key / device fault: partial harvest
                finally:
                    device.harvest = None
            assert harvests["fast"] == harvests["reference"], (key, args)
            assert harvests["traced"] == harvests["reference"], (key, args)
            per_checker = oracles(harvests["reference"])
            reports = {name: checker.check_io(key, args,
                                              oracle=per_checker[name])
                       for name, checker in checkers.items()}
            assert reports["bytecode"] == reports["reference"], (key, args)
            assert (reports["bytecode"].final_state
                    == reports["reference"].final_state)
        ref, fast = checkers["reference"], checkers["bytecode"]
        assert fast.cycles == ref.cycles
        assert fast.device_state.dump() == ref.device_state.dump()
