"""Outside-in layer tracing for the end-to-end benchmark.

The program under test is not modified: :func:`install` wraps the public
entry points of each layer from here, in the module or class where the
caller looks the name up, and :func:`uninstall` puts the originals back.
A span is appended to an in-memory buffer when the wrapped call returns,
as ``(layer, start_ns, end_ns, depth, batch_seq)``; records therefore
arrive in post-order and the parent of each span is rebuilt from the
depths alone.  Every span opened while a batch is being submitted or run
carries that batch's seq.

The buffer is a flat ``int64`` array, so recording a span leaves no
object behind for the cyclic garbage collector.  Kept as a list of
tuples, the spans made the collector run 60 % more often on a
``fleet-pool`` episode (428 instead of 268 young collections), which
slowed traced runs and inflated the ``runtime.gc_*`` metrics.

A direct call from a layer into itself (``FDC.handle_io`` ->
``Device.handle_io``, ``check_batch`` -> ``check_io`` on the per-round
backends) is folded into the outer span, so one I/O round is one span.

Pool workers are forked and inherit the wrappers.  The wrapped pool entry
point clears the inherited buffer when a worker starts and writes the
worker's spans to ``spans_dir`` when it exits; :func:`load_worker_spans`
merges them in the parent.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

FIELDS = 5          # layer, start_ns, end_ns, depth, seq

#: GuestVM entry points the guest drivers call for one I/O round.
VM_ENTRIES = ("outb", "inb", "outl", "inl", "mmio_write", "mmio_read")

_INHERITED = object()


class Patches:
    """Attributes replaced on classes and modules; :meth:`undo` puts the
    originals back, newest first (an attribute that a class only
    inherited is deleted again)."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Tracer:
    """Span buffer, wrapper factory and patch bookkeeping for one run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: FIELDS int64s per span; see the module docstring
        self.flat = array("q")
        #: innermost open layer, depth of open spans, current batch seq
        self.state = [-1, 0, -1]
        self.counts: Dict[str, int] = {}
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_start = 0
        self.patches = Patches()

    # -- layers and spans -------------------------------------------------

    def layer(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
        return lid

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable,
             seq_of: Optional[Callable] = None) -> Callable:
        """*fn* recording one span of layer *name* per outermost call;
        *seq_of(args)* names the batch the call works on, if any."""
        lid = self.layer(name)
        clock = time.perf_counter_ns
        record = self.flat.extend
        st = self.state

        if seq_of is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if st[0] == lid:
                    return fn(*args, **kwargs)
                outer, depth = st[0], st[1]
                st[0], st[1] = lid, depth + 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((lid, start, clock(), depth, st[2]))
                    st[0], st[1] = outer, depth
            return traced

        @functools.wraps(fn)
        def traced_seq(*args, **kwargs):
            outer, depth, seq = st
            st[0], st[1], st[2] = lid, depth + 1, seq_of(args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record((lid, start, clock(), depth, st[2]))
                st[0], st[1], st[2] = outer, depth, seq
        return traced_seq

    def wrap_device(self, fn: Callable) -> Callable:
        """``handle_io`` wrapper whose layer is ``device.<NAME>`` of the
        device the round runs on."""
        ids: Dict[str, int] = {}
        clock = time.perf_counter_ns
        record = self.flat.extend
        st = self.state

        @functools.wraps(fn)
        def traced(device, *args, **kwargs):
            lid = ids.get(device.NAME)
            if lid is None:
                lid = ids[device.NAME] = self.layer(f"device.{device.NAME}")
            if st[0] == lid:
                return fn(device, *args, **kwargs)
            outer, depth = st[0], st[1]
            st[0], st[1] = lid, depth + 1
            start = clock()
            try:
                return fn(device, *args, **kwargs)
            finally:
                record((lid, start, clock(), depth, st[2]))
                st[0], st[1] = outer, depth
        return traced

    def buffer_bytes(self) -> int:
        """Memory the span buffer holds."""
        return self.flat.itemsize * len(self.flat)

    def span(self, owner, attr: str, name: str,
             seq_of: Optional[Callable] = None) -> None:
        self.patches.set(owner, attr, self.wrap(name, getattr(owner, attr),
                                                seq_of))

    def counter(self, owner, attr: str, key: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        self.patches.set(owner, attr, counted)

    def uninstall(self) -> None:
        self.patches.undo()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector ------------------------------------------------

    def watch_gc(self) -> None:
        """Time every collection from now on (``gc.callbacks``)."""
        self.gc_pause_ns = self.gc_gen2 = 0
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    # -- worker processes -------------------------------------------------

    def reset(self) -> None:
        """Forget everything inherited from the parent (forked worker)."""
        del self.flat[:]
        self.state[:] = [-1, 0, -1]
        self.counts.clear()
        self.gc_pause_ns = self.gc_gen2 = 0

    def dump(self, stem: str) -> None:
        """Write the spans to ``<stem>.spans`` (raw int64s, fast enough to
        leave inside the worker's lifetime) and the rest to
        ``<stem>.json``."""
        with open(stem + ".spans", "wb") as handle:
            self.flat.tofile(handle)
        with open(stem + ".json", "w") as handle:
            json.dump({"pid": os.getpid(), "names": self.names,
                       "counts": self.counts,
                       "gc_pause_ns": self.gc_pause_ns,
                       "gc_gen2": self.gc_gen2}, handle)


def _batch_seq(args) -> int:
    return args[1].seq


def install(tracer: Tracer, spans_dir: str) -> None:
    """Wrap every traced layer; see the module docstring."""
    import repro.core.pipeline as pipeline
    import repro.checker.bytecode as checker_bytecode
    import repro.fleet.supervisor as supervisor_mod
    from repro.checker.escheck import ESChecker
    from repro.devices.base import Device
    from repro.fleet.instance import GuardedInstance
    from repro.fleet.registry import SpecRegistry
    from repro.fleet.worker import FleetWorker
    from repro.gateway.admission import AdmissionController
    from repro.gateway.engine import Gateway
    from repro.ipt.decoder import Decoder
    from repro.vm.machine import GuestVM
    import repro.workloads.profiles     # noqa: F401  (registers devices)

    FleetSession = supervisor_mod.FleetSession
    FleetSupervisor = supervisor_mod.FleetSupervisor

    # front ends and the fleet
    tracer.span(Gateway, "run", "gateway.engine")
    tracer.span(AdmissionController, "try_admit", "gateway.admission")
    tracer.span(FleetSession, "submit", "fleet.session", _batch_seq)
    tracer.span(FleetSession, "close", "fleet.session.close")
    tracer.span(FleetSession, "checkpoint_tenant", "fleet.migration")
    tracer.span(FleetSession, "install_checkpoint", "fleet.migration")
    tracer.span(FleetSupervisor, "run", "fleet.supervisor")
    tracer.span(FleetWorker, "run_batch", "fleet.worker", _batch_seq)
    tracer.span(GuardedInstance, "apply", "fleet.instance")
    tracer.span(GuardedInstance, "__init__", "fleet.instance.build")

    worker_main = supervisor_mod.worker_main
    traced_main = tracer.wrap("fleet.pool.worker", worker_main)

    @functools.wraps(worker_main)
    def worker_entry(*args, **kwargs):
        tracer.reset()
        try:
            return traced_main(*args, **kwargs)
        finally:
            tracer.dump(os.path.join(spans_dir, f"worker-{os.getpid()}"))
    # supervisor.py imported the name; _spawn looks it up there
    tracer.patches.set(supervisor_mod, "worker_main", worker_entry)

    # the guest machine, the device interpreter, the checker
    for entry in VM_ENTRIES:
        tracer.span(GuestVM, entry, "vm")
    # the op-boundary flush is VM work but not an I/O round
    tracer.span(GuestVM, "flush_batches", "vm.flush")
    tracer.counter(GuestVM, "_co_execute", "vm.coexec_rounds")
    tracer.counter(GuestVM, "_credit_io", "vm.credit_rounds")
    for cls in _subclasses(Device):
        if "handle_io" in cls.__dict__:
            tracer.patches.set(cls, "handle_io",
                         tracer.wrap_device(cls.__dict__["handle_io"]))
    tracer.span(ESChecker, "check_io", "checker")
    check_batch = tracer.wrap("checker", ESChecker.check_batch)

    @functools.wraps(check_batch)
    def counted_batch(self, rounds, oracle=None):
        reports = check_batch(self, rounds, oracle)
        tracer.count("checker.batch_calls")
        tracer.count("checker.batched_rounds", len(reports))
        return reports
    tracer.patches.set(ESChecker, "check_batch", counted_batch)
    tracer.counter(ESChecker, "resync", "checker.resyncs")

    # set-up: training (paper phases 1 and 2) and checker lowering
    tracer.span(SpecRegistry, "_train", "setup.train")
    tracer.span(Decoder, "decode_stream", "ipt.decode")
    tracer.span(pipeline, "build_itc_cfg", "cfg.build")
    tracer.span(pipeline, "select_parameters", "analysis")
    tracer.span(pipeline, "analyze_taint", "analysis")
    tracer.span(pipeline, "build_spec", "spec.build")
    lower = checker_bytecode.bytecode_spec_for
    traced_lower = tracer.wrap("checker.lower", lower)

    @functools.wraps(lower)
    def lower_on_miss(spec):
        if getattr(spec, "_bytecode_backend", None) is None:
            return traced_lower(spec)
        return lower(spec)
    # escheck imports the name from the module at call time
    tracer.patches.set(checker_bytecode, "bytecode_spec_for", lower_on_miss)


def _subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def load_worker_spans(spans_dir: str) -> List[dict]:
    """Every span dump a pool worker wrote."""
    dumps = []
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            stem = os.path.join(spans_dir, name[:-len(".json")])
            with open(stem + ".json") as handle:
                dump = json.load(handle)
            dump["spans"] = array("q")
            with open(stem + ".spans", "rb") as handle:
                dump["spans"].frombytes(handle.read())
            dumps.append(dump)
    return dumps


# -- reduction ---------------------------------------------------------------

class Spans:
    """One process's spans with parents and self times rebuilt."""

    def __init__(self, names: List[str], buf, pid: int):
        self.names = names
        self.pid = pid
        n = len(buf) // FIELDS
        self.layer = buf[0::FIELDS]
        self.start = buf[1::FIELDS]
        self.end = buf[2::FIELDS]
        depth = buf[3::FIELDS]
        self.seq = buf[4::FIELDS]
        self.parent = [-1] * n
        self.self_ns = [self.end[i] - self.start[i] for i in range(n)]
        stack: List[int] = []
        for i in range(n):
            while stack and depth[stack[-1]] > depth[i]:
                child = stack.pop()
                self.parent[child] = i
                self.self_ns[i] -= self.end[child] - self.start[child]
            stack.append(i)
        self.roots = stack
        self.root_layer = [0] * n
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            self.root_layer[i] = (self.root_layer[p] if p >= 0
                                  else self.layer[i])

    def __len__(self) -> int:
        return len(self.layer)

    def name(self, i: int) -> str:
        return self.names[self.layer[i]]

    def nesting_errors(self) -> List[str]:
        """Spans that do not lie inside their parent's interval."""
        errors = []
        for i, p in enumerate(self.parent):
            if p >= 0 and not (self.start[p] <= self.start[i]
                               and self.end[i] <= self.end[p]):
                errors.append(f"{self.name(i)} [{self.start[i]}, "
                              f"{self.end[i]}] outside {self.name(p)} "
                              f"[{self.start[p]}, {self.end[p]}]")
        return errors

    def jsonl(self) -> Iterator[str]:
        for i in range(len(self)):
            yield json.dumps({
                "pid": self.pid, "id": i, "layer": self.name(i),
                "start_ns": self.start[i], "end_ns": self.end[i],
                "parent": self.parent[i], "seq": self.seq[i]})


class LayerTable:
    """Per-layer calls, inclusive and self time over chosen roots."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.root_ns = 0

    def add(self, spans: Spans, roots: Tuple[str, ...]) -> None:
        wanted = {i for i, n in enumerate(spans.names) if n in roots}
        for i in range(len(spans)):
            if spans.root_layer[i] not in wanted:
                continue
            name = spans.name(i)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = (self.total_ns.get(name, 0)
                                   + spans.end[i] - spans.start[i])
            self.self_ns[name] = self.self_ns.get(name, 0) \
                + spans.self_ns[i]
            if spans.parent[i] < 0:
                self.root_ns += spans.end[i] - spans.start[i]

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def total(self, name: str) -> int:
        return self.total_ns.get(name, 0)

    def own(self, name: str) -> int:
        return self.self_ns.get(name, 0)

    def prefixed(self, prefix: str) -> List[str]:
        return sorted(n for n in self.calls if n.startswith(prefix))

    def rows(self) -> List[Tuple[str, int, float, float, float]]:
        """(layer, calls, total ms, self ms, self share of roots)."""
        root = self.root_ns or 1
        return [(name, self.calls[name], self.total_ns[name] / 1e6,
                 self.self_ns[name] / 1e6, self.self_ns[name] / root)
                for name in sorted(self.calls,
                                   key=lambda n: -self.self_ns[n])]
