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

The grammar also draws the shapes the frames' per-key superblocks
(``repro.interp.bytecode``, "Chains and superblocks") must keep exact:
a field loaded several times in one chain, a store then a load of the
same field, out-of-range stores into signed and unsigned fields (the
checker property runs with the parameter strategy on or off), a
dynamic-index buffer store that runs past the buffer into the next
scalar field and then a load of that field, an extern that writes a
field and a nested call between two loads, and a two-sided branch
whose arms both end the round.

The fixed-device differential suites pin the five real profiles; this
one walks the program space around them.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import ObservationLogger, select_parameters
from repro.checker import ALL_STRATEGIES, BACKENDS, ESChecker, Strategy
from repro.checker.sync import QueueSyncOracle
from repro.compiler import DeviceLogic, arr, compile_device, fld, reg
from repro.interp import Machine, TraceSink
from repro.spec import build_spec

WIDTHS = ("u8", "u16", "i32", "i8", "i16")
BINOPS = ("+", "-", "&", "|", "^")
CMPS = ("<", "<=", "==", "!=", ">", ">=")


def _stamp(m, value):
    """A host call that writes a field the handler may load around it."""
    m.state.write_field("f0", value * 3 + 1)


def _bind_peek(machine):
    """The deterministic host read generated devices may call, and the
    host write."""
    machine.bind_extern("peek", lambda m, v: (v * 37 + 11) & 0xFF,
                        cost=3)
    machine.bind_extern("stamp", _stamp, cost=2)
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
    # a register is always in the spec's device state, a plain field
    # only when selection finds it steering control flow
    kinds = [draw(st.sampled_from(("fld", "reg"))) for _ in names]
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
        kinds = ["store", "bufstore", "reload", "wide", "past", "stamp",
                 "call"]
        if depth < 2:
            kinds.append("if")
        kind = draw(st.sampled_from(kinds))
        target = draw(st.sampled_from(names))
        field = draw(st.sampled_from(names))
        if kind == "store":
            return [f"{pad}self.{target} = {expr()}"]
        if kind == "bufstore":
            return [f"{pad}self.buf[{expr()} & 3] = {expr()}"]
        if kind == "reload":
            # a store, then the same field loaded twice
            return [f"{pad}self.{field} = {expr()}",
                    f"{pad}self.{target} = (self.{field} ^ value) "
                    f"+ self.{field}"]
        if kind == "wide":
            # out of range of every narrow width, either sign
            op = draw(st.sampled_from(("*", "-")))
            return [f"{pad}self.{target} = value {op} 300",
                    f"{pad}self.{field} = self.{target} + 1"]
        if kind == "past":
            # value & 5 runs past the 4-element buffer into tail's bytes
            return [f"{pad}self.{field} = self.tail + 1",
                    f"{pad}self.buf[value & 5] = {expr()}",
                    f"{pad}self.{target} = self.tail + self.{field}"]
        if kind in ("stamp", "call"):
            # a host write, or a nested call, between two loads of f0
            between = ("stamp(value)" if kind == "stamp"
                       else f"self.helper({expr()})")
            return [f"{pad}self.{target} = self.f0 + 1",
                    f"{pad}{between}",
                    f"{pad}self.{field} = self.f0 ^ self.{target}"]
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
    if draw(st.booleans()):
        # both arms end the round
        cmp = draw(st.sampled_from(CMPS))
        body += [f"        if {expr()} {cmp} {expr()}:",
                 f"            self.{draw(st.sampled_from(names))} = "
                 f"{expr()}",
                 f"            return {expr()}",
                 f"        return {expr()}"]
    else:
        body.append("        return 0")

    field_decls = ", ".join(
        f"{kind}({name!r}, {width!r})"
        for kind, name, width in zip(kinds, names, widths))
    source = "\n".join([
        "class GenLogic(DeviceLogic):",
        "    STRUCT = 'GenCtrl'",
        f"    FIELDS = ({field_decls}, arr('buf', 'u8', 4),",
        "              reg('tail', 'i16'),)",
        "    CONSTS = {}",
        "    EXTERNS = ('peek', 'stamp')",
        "    ENTRIES = {'pmio:write:0': 'write_a',",
        "               'pmio:read:0': 'read_s'}",
        "",
        "    def write_a(self, value):",
        *body,
        "",
        "    def helper(self, value):",
        f"        self.f0 = value + self.{names[-1]}",
        "        return 0",
        "",
        "    def read_s(self):",
        f"        return self.{names[0]} + self.tail",
    ])
    namespace = {"DeviceLogic": DeviceLogic, "fld": fld, "reg": reg,
                 "arr": arr}
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
    @given(device_classes(), script_strategy, fault_strategy,
           st.booleans())
    def test_reports_identical_under_faults(self, logic, script,
                                            faults, param_on):
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

        strategies = (ALL_STRATEGIES if param_on
                      else ALL_STRATEGIES - {Strategy.PARAMETER})
        checkers = {}
        for name in BACKENDS:
            seed = Machine(program)
            checker = ESChecker(spec, backend=name, strategies=strategies)
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
