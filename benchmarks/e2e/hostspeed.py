"""Host-speed probe: rescale wall times to one reference host speed.

The benchmark host is a shared 2-vCPU KVM guest whose speed drifts by up
to 1.8x over seconds to minutes as neighbours load the physical machine.
Four back-to-back serves of one identical ``steady`` episode in one
process took 3.7 to 4.7 s, with process CPU time within 1 % of the wall
time, and no run length averages that out.  So every timed interval is
paired with probes of the host's current speed.  A probe times three
fixed slices of interpreter work that touch none of the code under test:
a tight dict/arithmetic loop, a method-call walk over linked objects, and
a branchy walk over a 30k-node dict graph.  Probes are interleaved with
the measured work on the same core about every 100 ms.  Their own time is
subtracted from the interval, and each stretch of the interval between
two probes is divided by the slowdown those probes saw (the geometric
mean over the three slices of duration / reference duration).

Calibration on the reference host, over 190 measured episodes of the
four workloads (20 runs each, probe slowdown 1.0 to 1.8x): the log of an
episode's wall time per I/O round followed the log of its probe slowdown
with slope 1.10 to 1.17 and correlation 0.88 to 0.98.  Across 10 seeds,
the quartile spread of ``ops_per_s`` fell from 8-23 % raw to 3-7 %
rescaled.  The slope above 1 means a slow host still reads a little slow
after rescaling.

The probes never run the code under test, but they share its core,
caches and heap, so a change to that code could also move the probes
and have part of its effect divided away.  A check with known injected
slowdowns, six seed-interleaved pairs per kind on ``steady`` and
``fleet-pool``: a CPU-only loop and a memory-heavy one (random reads
over a 64 MB array) in every device round, each making ``ops_per_s``
27-46 % worse.  The geometric mean of the raw B/A ratios over the
rescaled ones was 0.95 to 1.03, with every 95 % interval containing 1.
So no bias showed, but the raw noise of six pairs resolves one only
down to about 15 %.  ``compare`` therefore judges the raw values too
and flags where the two verdicts differ.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import threading
import time
from array import array
from typing import List, Sequence

#: Per-slice probe duration on the reference host (2-vCPU KVM guest,
#: Intel Xeon at 2.1 GHz, Python 3.11): the median with the core busy.
REFERENCE_NS = (390_000, 285_000, 390_000)
#: Minimum spacing of two probes.
INTERVAL_NS = 100_000_000


class _Node:
    __slots__ = ("a", "b", "nxt")

    def __init__(self, a: int, b: int):
        self.a, self.b, self.nxt = a, b, None

    def step(self, x: int) -> int:
        return (x + self.a) ^ self.b


class Kernels:
    """The three fixed slices of work one probe times."""

    def __init__(self) -> None:
        rng = random.Random(5)
        self.nodes = [_Node(rng.randrange(1 << 20), rng.randrange(1 << 20))
                      for _ in range(4000)]
        for node in self.nodes:
            node.nxt = self.nodes[rng.randrange(len(self.nodes))]
        self.graph = [{"op": rng.randrange(6), "val": rng.randrange(100),
                       "next": rng.randrange(30000), "args": (1, 2)}
                      for _ in range(30000)]

    @staticmethod
    def loop() -> int:
        acc, table = 0, {}
        for i in range(3000):
            k = i & 127
            table[k] = table.get(k, 0) ^ i
            acc += (i * 7) % 13
        return acc

    def objects(self) -> int:
        node, x = self.nodes[0], 0
        for _ in range(2500):
            x = node.step(x) & 0xFFFFF
            node = node.nxt
        return x

    def graph_walk(self) -> int:
        graph, pc, acc, env = self.graph, 0, 0, {}
        for _ in range(1500):
            block = graph[pc]
            op = block["op"]
            if op == 0:
                acc += block["val"]
            elif op == 1:
                acc ^= block["val"]
            elif op == 2:
                env[block["val"] & 15] = acc
            elif op == 3:
                acc = env.get(block["val"] & 15, acc)
            else:
                acc = (acc * 3 + block["args"][0]) & 0xFFFF
            pc = block["next"]
        return acc

    def probe(self):
        """(total ns spent, slowdown against the reference), with the
        cyclic collector paused so no collection lands inside."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent, product = 0, 1.0
            for kernel, reference in zip(
                    (self.loop, self.objects, self.graph_walk),
                    REFERENCE_NS):
                start = time.perf_counter_ns()
                kernel()
                took = time.perf_counter_ns() - start
                spent += took
                product *= took / reference
            return spent, product ** (1 / len(REFERENCE_NS))
        finally:
            if enabled:
                gc.enable()


class Probes:
    """Every probe one process took: end time, time spent, slowdown."""

    def __init__(self) -> None:
        self.end = array("q")
        self.spent = array("q")
        self.slowdown = array("d")
        self._last = 0
        self._kernels = None

    def clear(self) -> None:
        del self.end[:], self.spent[:], self.slowdown[:]
        self._last = 0

    def take(self) -> None:
        if self._kernels is None:
            self._kernels = Kernels()
        spent, slowdown = self._kernels.probe()
        self._last = time.perf_counter_ns()
        self.end.append(self._last)
        self.spent.append(spent)
        self.slowdown.append(slowdown)

    def due(self, now_ns: int) -> bool:
        return now_ns - self._last >= INTERVAL_NS

    def to_obj(self) -> dict:
        return {"end": list(self.end), "spent": list(self.spent),
                "slowdown": list(self.slowdown)}

    def merge(self, obj: dict) -> None:
        rows = sorted(zip(list(self.end) + obj["end"],
                          list(self.spent) + obj["spent"],
                          list(self.slowdown) + obj["slowdown"]))
        self.clear()
        for end, spent, slowdown in rows:
            self.end.append(end)
            self.spent.append(spent)
            self.slowdown.append(slowdown)

    def _window(self, start_ns: int, end_ns: int):
        return (bisect.bisect_left(self.end, start_ns),
                bisect.bisect_right(self.end, end_ns))

    def spent_ns(self, start_ns: int, end_ns: int) -> int:
        """Probe time inside [start, end]."""
        lo, hi = self._window(start_ns, end_ns)
        return sum(self.spent[lo:hi])

    def _smoothed(self) -> List[float]:
        """Each probe's slowdown, median-filtered with its neighbours so
        one disturbed probe does not rescale its stretch of work."""
        s = self.slowdown
        return [statistics.median(s[max(0, i - 1):i + 2])
                for i in range(len(s))]

    def scaled_ns(self, start_ns: int, end_ns: int,
                  own_probes: bool = True) -> float:
        """The work time in [start, end] at reference host speed.

        The interval is cut at every probe; each stretch between two
        probes is divided by the mean slowdown of the probes bounding
        it.  With *own_probes* the probes ran inside the interval on the
        same thread, and their time is left out."""
        n = len(self.end)
        if n == 0:
            return float(end_ns - start_ns)
        smooth = self._smoothed()
        lo, hi = self._window(start_ns, end_ns)
        prev_t, prev_s = start_ns, smooth[lo - 1 if lo else 0]
        total = 0.0
        for i in range(lo, hi):
            stop = self.end[i] - (self.spent[i] if own_probes else 0)
            total += max(0, stop - prev_t) / ((prev_s + smooth[i]) / 2)
            prev_t, prev_s = self.end[i], smooth[i]
        next_s = smooth[hi] if hi < n else prev_s
        return total + (end_ns - prev_t) / ((prev_s + next_s) / 2)

    def local_factors(self, at_ns: Sequence[int]) -> List[float]:
        """Host slowdown around each instant: the median of the five
        probes nearest to it."""
        n = len(self.end)
        if n == 0:
            return [1.0] * len(at_ns)
        medians = [statistics.median(self.slowdown[max(0, i - 2):i + 3])
                   for i in range(n)]
        out = []
        for t in at_ns:
            i = min(bisect.bisect_left(self.end, t), n - 1)
            if i > 0 and t - self.end[i - 1] < self.end[i] - t:
                i -= 1
            out.append(medians[i])
        return out


class Background:
    """Probe from a helper thread while a block runs (used around the
    set-up, which has no natural pause points).  The thread sleeps
    between probes and holds the interpreter lock only while probing."""

    def __init__(self, probes: Probes):
        self.probes = probes
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_NS / 1e9):
            self.probes.take()

    def __enter__(self) -> "Background":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
