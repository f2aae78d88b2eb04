"""Telemetry primitives: counters, fixed-bucket histograms, snapshots.

Zero dependencies, no global mutable state.  Live metrics (:class:`Counter`,
:class:`Histogram`) are cheap mutable cells owned by a
:class:`~repro.telemetry.recorder.Recorder`; :meth:`Recorder.snapshot`
freezes them into immutable value objects that survive later recording
untouched and merge associatively:

    merge_snapshots(r1.snapshot(), r2.snapshot())
        == snapshot of one recorder that saw all of r1's and r2's events

Histograms use *fixed* bucket boundaries (``le`` semantics, like
Prometheus): a value lands in the first bucket whose upper bound is >= the
value, with one implicit +Inf overflow bucket.  Fixed boundaries are what
make snapshots mergeable without resampling; percentiles are nearest-rank
over the cumulative bucket counts and answer with the bucket's upper bound
(the overflow bucket answers with the observed maximum).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ReproError


class TelemetryError(ReproError):
    """Misused telemetry API (mismatched buckets, bad boundaries)."""


#: A metric identity: name plus its label set, order-independent.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default span boundaries in nanoseconds: 250ns .. 1s, roughly 1-2.5-5
#: per decade — wide enough for a bytecode checker round (~tens of us)
#: and a reference-backend round (~hundreds of us) to land mid-range.
DEFAULT_NS_BUCKETS: Tuple[int, ...] = (
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
    100_000_000, 1_000_000_000,
)

#: Default boundaries for simulated-clock spans (cycles).  At the
#: substrate's nominal 1 GHz a cycle is one simulated nanosecond, so
#: these cover a single vmexit (~300 cycles) up to a long DMA command.
DEFAULT_CYCLE_BUCKETS: Tuple[int, ...] = (
    500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 10_000_000,
)

#: Small-integer boundaries (queue depths, retry counts).
DEFAULT_DEPTH_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


def labels_key(labels: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical, hashable form of a label mapping."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count.  ``inc`` is the hot path: one
    attribute add, no locks (recorders are process-local and the
    substrate is single-threaded per recorder)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str,
                 labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-boundary histogram with ``le`` bucket semantics."""

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 labels: Tuple[Tuple[str, str], ...] = (),
                 bounds: Tuple[int, ...] = DEFAULT_NS_BUCKETS):
        bounds = tuple(bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise TelemetryError(
                f"histogram {name!r} needs strictly increasing, non-empty "
                f"bucket boundaries")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: one slot per boundary plus the +Inf overflow slot
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values, weights=None) -> None:
        """Batch observe — the drain path for staged sample buffers.
        With *weights*, each value counts that many times (a sampled
        histogram: one timed value stands for its window)."""
        if not values:
            return
        counts = self.counts
        bounds = self.bounds
        index = bisect_left
        if weights is None:
            weights = [1] * len(values)
        total = 0
        for value, weight in zip(values, weights):
            counts[index(bounds, value)] += weight
            total += value * weight
        self.count += sum(weights)
        self.total += total
        lo = min(values)
        hi = max(values)
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    def snapshot(self) -> "HistogramSnapshot":
        return HistogramSnapshot(
            name=self.name, labels=self.labels, bounds=self.bounds,
            counts=tuple(self.counts), count=self.count, total=self.total,
            min=self.min, max=self.max)


def _percentile(bounds: Tuple[int, ...], counts: Tuple[int, ...],
                count: int, observed_max: Optional[int],
                q: float) -> float:
    """Nearest-rank percentile over cumulative bucket counts."""
    if count == 0:
        return 0.0
    rank = max(1, -(-int(q * count * 1_000_000) // 1_000_000))  # ceil
    if rank > count:
        rank = count
    cumulative = 0
    for i, c in enumerate(counts):
        cumulative += c
        if cumulative >= rank:
            if i < len(bounds):
                return float(bounds[i])
            return float(observed_max if observed_max is not None else 0)
    return float(observed_max if observed_max is not None else 0)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram at snapshot time."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    bounds: Tuple[int, ...]
    counts: Tuple[int, ...]
    count: int
    total: int
    min: Optional[int]
    max: Optional[int]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation."""
        return _percentile(self.bounds, self.counts, self.count, self.max,
                           q)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Everything one recorder (or a merge of several) had counted.

    The mappings are plain dicts for ergonomic lookup but are owned
    exclusively by the snapshot — recorders copy on snapshot, mergers
    build fresh dicts — so treat them as frozen.
    """

    counters: Mapping[MetricKey, int]
    histograms: Mapping[MetricKey, HistogramSnapshot]

    def counter(self, name: str, **labels: object) -> int:
        return self.counters.get((name, labels_key(labels)), 0)

    def histogram(self, name: str,
                  **labels: object) -> Optional[HistogramSnapshot]:
        return self.histograms.get((name, labels_key(labels)))

    def counters_named(self, name: str) -> Dict[MetricKey, int]:
        """All label variants of one counter name."""
        return {k: v for k, v in self.counters.items() if k[0] == name}

    def label_values(self, name: str, label: str) -> Dict[str, int]:
        """Sum of a counter grouped by one label's values."""
        grouped: Dict[str, int] = {}
        for (metric, labels), value in self.counters.items():
            if metric != name:
                continue
            for key, val in labels:
                if key == label:
                    grouped[val] = grouped.get(val, 0) + value
        return grouped

    @property
    def empty(self) -> bool:
        return not self.counters and not self.histograms


EMPTY_SNAPSHOT = TelemetrySnapshot(counters={}, histograms={})


def _merge_histograms(a: HistogramSnapshot,
                      b: HistogramSnapshot) -> HistogramSnapshot:
    if a.bounds != b.bounds:
        raise TelemetryError(
            f"cannot merge histogram {a.name!r}: bucket boundaries differ")
    mins = [m for m in (a.min, b.min) if m is not None]
    maxs = [m for m in (a.max, b.max) if m is not None]
    return HistogramSnapshot(
        name=a.name, labels=a.labels, bounds=a.bounds,
        counts=tuple(x + y for x, y in zip(a.counts, b.counts)),
        count=a.count + b.count, total=a.total + b.total,
        min=min(mins) if mins else None,
        max=max(maxs) if maxs else None)


def merge_snapshots(snapshots: Iterable[TelemetrySnapshot]
                    ) -> TelemetrySnapshot:
    """Associative, order-independent merge: summed counters, summed
    histogram buckets (boundaries must agree per metric)."""
    counters: Dict[MetricKey, int] = {}
    histograms: Dict[MetricKey, HistogramSnapshot] = {}
    for snap in snapshots:
        for key, value in snap.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, hist in snap.histograms.items():
            existing = histograms.get(key)
            histograms[key] = (hist if existing is None
                               else _merge_histograms(existing, hist))
    return TelemetrySnapshot(counters=counters, histograms=histograms)
