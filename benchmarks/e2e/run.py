#!/usr/bin/env python3
"""End-to-end wall-clock service benchmark with outside-in layer tracing.

Run from the repository root (no install step; ``src/`` is put on the
path here)::

    python3 benchmarks/e2e/run.py --workload steady --seed 1
    python3 benchmarks/e2e/run.py --workload steady --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --seed 1 [--trace]     # all workloads
    python3 benchmarks/e2e/run.py compare A/ B/

One workload run: build the inputs from ``--seed``; set up cold (train
every spec into an empty temporary spec cache, construct the gateway or
supervisor, serve a quarter-size warm-up episode), which ``setup_s``
times; then serve fixed-size episodes of the workload until
``--seconds`` have passed; certify every episode's verdicts.  Wall times
are rescaled to the reference host speed (see ``hostspeed.py``).  The last
line of standard output is one JSON object: the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics.  A correctness failure prints
``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space for spec caches, span and probe dumps, inside the checkout
TMP = ROOT / ".bench_tmp"

DEFAULT_SECONDS = 8
#: tenants in the warm-up episode, as a share of a full episode's
WARMUP_SCALE = 0.25
#: full-size episodes measured at least, after the warm-up
MIN_MEASURED = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, "
                        "each in its own process)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="serving time to measure per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer "
                        "metrics")
    parser.add_argument("--out", help="directory for the full result "
                        "record of each run (read by `compare`)")
    parser.add_argument("--trace-out", help="write the spans of a traced "
                        "run here as JSON lines")
    # harness tests only: shrink the tenant count
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- measurement helpers ----------------------------------------------------------

def rss_mb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_submits(patches, probes, take):
    """A ``perf_counter_ns`` pair around every ``FleetSession.submit``
    (the gateway's batch submit-to-result time), with a host-speed probe
    between batches when one is due.  Returns the (start, duration)
    arrays."""
    from repro.fleet.supervisor import FleetSession

    starts, durations = array("q"), array("q")
    submit = FleetSession.submit
    clock = time.perf_counter_ns

    def timed(session, batch):
        start = clock()
        if probes.due(start):
            take()
            start = clock()
        result = submit(session, batch)
        durations.append(clock() - start)
        starts.append(start)
        return result
    patches.set(FleetSession, "submit", timed)
    return starts, durations


def probe_pool_workers(patches, probes_dir: Path, take_span):
    """Host-speed probes inside forked pool workers: between batches when
    due, written to *probes_dir* with the worker's peak RSS when it
    exits."""
    import hostspeed
    import repro.fleet.supervisor as supervisor_mod
    from repro.fleet.worker import FleetWorker

    probes = hostspeed.Probes()
    probes.take()               # workers inherit the built kernels
    take = take_span(probes.take)
    run_batch = FleetWorker.run_batch
    worker_main = supervisor_mod.worker_main

    def probed_run_batch(worker, batch):
        if probes.due(time.perf_counter_ns()):
            take()
        return run_batch(worker, batch)

    def worker_entry(*args, **kwargs):
        probes.clear()          # forked: drop the parent's state
        try:
            return worker_main(*args, **kwargs)
        finally:
            with open(probes_dir / f"worker-{os.getpid()}.json", "w") as f:
                json.dump(dict(probes.to_obj(), peak_rss_mb=peak_rss_mb()),
                          f)
    patches.set(FleetWorker, "run_batch", probed_run_batch)
    patches.set(supervisor_mod, "worker_main", worker_entry)


class _StampedTs(dict):
    """The supervisor's seq -> enqueue-time map, additionally stamping
    each batch's first dispatch and its result's collection on the
    ``perf_counter_ns`` clock the probes and spans use."""

    def __init__(self, stamps: "PoolStamps"):
        super().__init__()
        self._stamps = stamps

    def setdefault(self, seq, value=None):
        if seq not in self:
            self._stamps.dispatched[seq] = time.perf_counter_ns()
        return super().setdefault(seq, value)

    def pop(self, seq, *default):
        if seq in self:
            self._stamps.collected[seq] = time.perf_counter_ns()
        return super().pop(seq, *default)


class PoolStamps:
    """Dispatch and collection time of every pool batch: the queue-wait
    samples behind ``FleetStats.p50_queue_wait_s``, with timestamps."""

    def __init__(self, patches):
        from repro.fleet.supervisor import FleetSupervisor

        self.dispatched, self.collected = {}, {}
        run_pool = FleetSupervisor._run_pool
        stamps = self

        def stamped_run_pool(supervisor, pending):
            supervisor._enqueue_ts = _StampedTs(stamps)
            return run_pool(supervisor, pending)
        patches.set(FleetSupervisor, "_run_pool", stamped_run_pool)

    def take(self):
        """seq -> (dispatched, collected) for the episode just served
        (seqs restart every episode), then forget them."""
        out = {seq: (sent, self.collected[seq])
               for seq, sent in self.dispatched.items()
               if seq in self.collected}
        self.dispatched.clear()
        self.collected.clear()
        return out


def collect_probes(probes_dir: Path):
    """Merge (and remove) the probe dumps pool workers left behind:
    (probes, worker count, largest worker peak RSS)."""
    import hostspeed

    probes, workers, peak = hostspeed.Probes(), 0, 0.0
    for path in sorted(probes_dir.iterdir()):
        with open(path) as handle:
            dump = json.load(handle)
        probes.merge(dump)
        peak = max(peak, dump["peak_rss_mb"])
        path.unlink()
        workers += 1
    return probes, workers, peak


def episode_inputs(workload, seed: int, index: int, scale: float = 1.0):
    """(plans, inputs) of a run's episode *index*.  Episode 0 is the
    warm-up, a quarter-size episode; inputs are pure data from the seed."""
    import workloads as wl

    traffic = wl.episode_seed(seed, index)
    if index == 0:
        scale *= WARMUP_SCALE
    if workload.kind == "pool":
        return wl.pool_inputs(workload, traffic, scale)
    plans = wl.plans_for(workload, seed, scale)
    return plans, wl.gateway_inputs(workload, plans, traffic)


def serve_episode(run, workload, plans, inputs):
    """One episode through the front end's ``run`` (or a wrapper of it)."""
    if workload.kind == "pool":
        return run(inputs, plans)
    streams, rebalances = inputs
    return run(plans, streams, rebalances=rebalances)


def cold_start(workload, seed: int, scale: float, cache_dir: str,
               wrap_warmup=None):
    """What ``setup_s`` times: train every spec into an empty cache
    (paper phases 1 and 2), build the front end, and serve the warm-up
    episode, which pays the work done lazily on first use (instance
    builds, checker lowering).  Returns (front end, warm-up result)."""
    import workloads as wl
    from repro.fleet.registry import SpecRegistry
    from repro.fleet.supervisor import FleetSupervisor
    from repro.gateway import Gateway

    registry = SpecRegistry(cache_dir=cache_dir)
    registry.prime(wl.spec_pairs(wl.plans_for(workload, seed, scale)))
    if workload.kind == "pool":
        service = FleetSupervisor(wl.pool_config(workload, cache_dir),
                                  registry=registry)
    else:
        service = Gateway(wl.gateway_config(workload, seed),
                          registry=registry)
    run = service.run if wrap_warmup is None else wrap_warmup(service.run)
    plans, inputs = episode_inputs(workload, seed, 0, scale)
    return service, serve_episode(run, workload, plans, inputs)


def timed_cold_start(workload, seed: int, scale: float, cache_dir: str,
                     probe: bool = True, wrap_warmup=None):
    """(front end, warm-up result, raw seconds, seconds at reference host
    speed).  Probes run from a helper thread when *probe* is set."""
    import hostspeed

    probes = hostspeed.Probes()
    if probe:
        probes.take()           # builds the probe kernels before timing
    start = time.perf_counter_ns()
    with hostspeed.Background(probes) if probe else contextlib.nullcontext():
        service, warm = cold_start(workload, seed, scale, cache_dir,
                                   wrap_warmup)
    end = time.perf_counter_ns()
    return (service, warm, (end - start) / 1e9,
            probes.scaled_ns(start, end) / 1e9)


def collect_garbage(tracer) -> None:
    """Collect the garbage of a torn-down episode outside every timed
    interval (and outside the traced collector statistics), so each
    episode starts from the same heap."""
    if tracer is None:
        gc.collect()
        return
    watched = tracer.gc_pause_ns, tracer.gc_gen2
    gc.collect()
    tracer.gc_pause_ns, tracer.gc_gen2 = watched


# -- one workload run ------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, trace_out=None) -> dict:
    import hostspeed
    import metrics as m
    import tracing
    import workloads as wl
    from repro.fleet.supervisor import percentile

    workload = wl.WORKLOADS[name]
    pool = workload.kind == "pool"
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP))
    tracer = tracing.Tracer() if trace else None
    patches = tracing.Patches()     # the harness's own wrappers
    try:
        if tracer is not None:
            (workdir / "spans").mkdir()
            tracing.install(tracer, str(workdir / "spans"))

        if tracer is None:
            service, warm, setup_raw, setup_scaled = timed_cold_start(
                workload, seed, scale, str(workdir / "specs"))
        else:
            service, warm, setup_raw, setup_scaled = tracer.wrap(
                "phase.setup", timed_cold_start)(
                workload, seed, scale, str(workdir / "specs"), probe=False,
                wrap_warmup=lambda run: tracer.wrap("phase.warmup", run))
        warm = (m.pool_episode(warm, 0.0) if pool
                else m.gateway_episode(warm, 0.0))
        collect_garbage(tracer)
        rss_after_setup = rss_mb()

        # Harness wrappers for the measured episodes: batch timing and
        # host-speed probes.
        probes = hostspeed.Probes()
        probes.take()           # builds the probe kernels up front

        def take_span(fn):
            return fn if tracer is None else tracer.wrap("bench.probe", fn)
        if pool:
            (workdir / "probes").mkdir()
            probe_pool_workers(patches, workdir / "probes", take_span)
            stamps = PoolStamps(patches)
            pool_waits, pool_windows = [], []
        else:
            starts, durations = time_submits(patches, probes,
                                             take_span(probes.take))
        run = service.run if tracer is None else \
            tracer.wrap("phase.episode", service.run)
        if tracer is not None:      # counters cover the measured episodes
            tracer.counts.clear()
            tracer.watch_gc()

        growth_kb = worker_peak = 0.0
        episodes = []
        window = time.perf_counter()
        while True:
            ep_plans, inputs = episode_inputs(workload, seed,
                                              len(episodes) + 1, scale)
            t0 = time.perf_counter_ns()
            result = serve_episode(run, workload, ep_plans, inputs)
            t1 = time.perf_counter_ns()
            if pool:
                episode = m.pool_episode(result, (t1 - t0) / 1e9,
                                         len(inputs))
                # Workers probed on their own cores while the parent
                # waited: rescale the parent's wall by their probes, less
                # the share of worker time the probes took.
                ep_probes, workers, peak = collect_probes(
                    workdir / "probes")
                worker_peak = max(worker_peak, peak)
                lost = ep_probes.spent_ns(t0, t1) / max(1, workers)
                scaled = ep_probes.scaled_ns(t0, t1, own_probes=False) \
                    * (1 - lost / (t1 - t0))
                ep_stamps = stamps.take()
                pool_windows.append((t0, t1, ep_stamps))
                factors = ep_probes.local_factors(
                    [sent for sent, _ in ep_stamps.values()])
                pool_waits.extend(((got - sent) / 1e6, f) for (sent, got), f
                                  in zip(ep_stamps.values(), factors))
                own = t1 - t0 - lost
            else:
                episode = m.gateway_episode(result, (t1 - t0) / 1e9)
                scaled = probes.scaled_ns(t0, t1)
                own = t1 - t0 - probes.spent_ns(t0, t1)
            episode.scaled_s = scaled / 1e9
            episode.host_factor = own / scaled
            if tracer is not None and not episodes:
                # The first measured episode sets the peak; take the span
                # buffer out of it.
                span_kb = tracer.buffer_bytes() / 1024
                growth_kb = max(0.0, (peak_rss_mb() - rss_after_setup)
                                * 1024 - span_kb) / (episode.ops or 1)
            episodes.append(episode)
            # Tearing a whole service down per episode is the harness's
            # doing, not the program's.
            del result
            collect_garbage(tracer)
            # Stop where another whole episode would overshoot the
            # measuring time by more than stopping undershoots it.
            mean_wall = sum(e.wall_s for e in episodes) / len(episodes)
            if (len(episodes) >= MIN_MEASURED and time.perf_counter()
                    - window + mean_wall / 2 >= seconds):
                break

        peak = peak_rss_mb()
        if pool:
            peak += worker_peak
            raw_batch_ms = [ms for ms, _ in pool_waits]
            batch_ms = [ms / f for ms, f in pool_waits]
        else:
            raw_batch_ms = [ns / 1e6 for ns in durations]
            factors = probes.local_factors(starts)
            batch_ms = [ms / f for ms, f in zip(raw_batch_ms, factors)]
        layers = table = None
        if tracer is not None:
            patches.undo()          # outermost wrappers first
            tracer.uninstall()
            layers, table = reduce_trace(
                tracer, workdir / "spans", episodes, rss_after_setup,
                growth_kb, pool_windows if pool else [], trace_out)
    finally:
        patches.undo()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # The warm-up is certified like every episode but stays out of the
    # serving metrics.  The first measured episode serves the seed's own
    # traffic at full size in every run, so its verdicts and simulated
    # latency are the run's.
    p99 = percentile(batch_ms, 0.99)
    ops = sum(e.ops for e in episodes)
    offered = sum(e.offered for e in [warm] + episodes)
    errors = sum(e.errors for e in [warm] + episodes)
    failures = sorted({f for e in [warm] + episodes for f in e.failures})
    if errors:
        failures.append(f"{errors} op(s) failed (error_rate > 0)")
    values = {
        "ops_per_s": ops / sum(e.scaled_s for e in episodes),
        "batch_p50_ms": percentile(batch_ms, 0.50),
        "batch_p99_ms": p99,
        "setup_s": setup_scaled,
        "peak_rss_mb": peak,
        "sim_p99_ms": episodes[0].sim_p99_ms,
        "error_rate": errors / offered,
    }
    raw = {
        "ops_per_s": ops / sum(e.wall_s for e in episodes),
        "batch_p50_ms": percentile(raw_batch_ms, 0.50),
        "batch_p99_ms": percentile(raw_batch_ms, 0.99),
        "setup_s": setup_raw,
    }
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "scale": scale, "backend": wl.BACKEND,
        "clock": workload.clock, "why": workload.why,
        "correct": not failures, "failures": failures,
        "attempted": offered, "failed": errors,
        "verdict_digest": episodes[0].digest,
        "episode_digests": [e.digest for e in [warm] + episodes],
        "episodes": len(episodes), "ops": ops,
        "serve_s": sum(e.wall_s for e in episodes),
        "episode_walls_s": [e.wall_s for e in episodes],
        "episode_rounds": [e.rounds for e in episodes],
        "host_factors": [e.host_factor for e in episodes],
        "batch_samples": len(batch_ms),
        "beyond_p99": sum(1 for v in batch_ms if v > p99),
        "metrics": {name: {"value": values[name], "unit": unit,
                           "clock": clock}
                    for name, unit, clock in m.E2E + m.EXACT},
        "raw_wall": raw,
        "layers": layers, "layer_table": table,
    }


def reduce_trace(tracer, spans_dir: Path, episodes, rss_after_setup: float,
                 growth_kb: float, pool_windows, trace_out):
    """Per-layer metrics and the self-time table of a traced run.  The
    set-up table covers the cold start, warm-up included; the serving
    table the measured episodes.  *pool_windows* holds (start, end,
    seq -> (dispatched, collected)) per measured pool episode."""
    import metrics as m
    import tracing

    main = tracing.Spans(tracer.names, tracer.flat, os.getpid())
    processes = [main]
    counts = dict(tracer.counts)
    gc_pause_ns, gc_gen2 = tracer.gc_pause_ns, tracer.gc_gen2
    setup, serve = tracing.LayerTable(), tracing.LayerTable()
    setup.add(main, ("phase.setup",))
    serve.add(main, ("phase.episode",))
    # Pool workers live for one episode each; per-batch IPC is the
    # dispatch-to-result latency minus the worker's run_batch, minus the
    # time the batch queued behind earlier batches on the same worker
    # (credits allow queue_depth outstanding).
    ipc_ns = latency_ns = busy_ns = 0
    ipc_batches = 0
    for dump in tracing.load_worker_spans(str(spans_dir)):
        spans = tracing.Spans(dump["names"], dump["spans"], dump["pid"])
        processes.append(spans)
        born = min(spans.start[i] for i in spans.roots)
        if born < pool_windows[0][0]:           # served the warm-up
            setup.add(spans, ("fleet.pool.worker",))
            continue
        serve.add(spans, ("fleet.pool.worker",))
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        gc_pause_ns += dump["gc_pause_ns"]
        gc_gen2 += dump["gc_gen2"]
        stamps = next(s for t0, t1, s in pool_windows if t0 <= born <= t1)
        runs = sorted((spans.start[i], spans.end[i], spans.seq[i])
                      for i in range(len(spans))
                      if spans.name(i) == "fleet.worker")
        prev_end = 0
        for start, end, seq in runs:
            busy_ns += end - start
            if seq in stamps:
                sent, got = stamps[seq]
                latency_ns += got - sent
                ipc_ns += (got - end) + (start - max(sent, prev_end))
                ipc_batches += 1
            prev_end = end
    worker_life = serve.total("fleet.pool.worker")
    info = {
        "episodes": len(episodes),
        "ops": sum(e.ops for e in episodes),
        "offered": sum(e.offered for e in episodes),
        "batches": sum(e.batches for e in episodes),
        "migrations": sum(e.migrations for e in episodes),
        "ipc_ns": ipc_ns, "latency_ns": latency_ns,
        "ipc_batches": ipc_batches,
        "worker_busy_share": busy_ns / worker_life if worker_life else 0.0,
        "gc_pause_ns": gc_pause_ns, "gc_gen2": gc_gen2,
        "rss_after_setup_mb": rss_after_setup,
        "growth_kb_per_op": growth_kb,
    }
    values = m.per_layer(serve, setup, counts, info)
    units = dict(m.LAYER + m.LAYER_DETAIL)
    layers = {name: {"value": values[name], "unit": units[name]}
              for name in units}
    if trace_out:
        with open(trace_out, "w") as handle:
            for spans in processes:
                for line in spans.jsonl():
                    handle.write(line + "\n")
    nesting = [e for spans in processes for e in spans.nesting_errors()]
    check = {
        "spans": sum(len(s) for s in processes),
        "nesting_errors": len(nesting),
        "root_ms": serve.root_ns / 1e6,
        "self_sum_ms": sum(serve.self_ns.values()) / 1e6,
    }
    return layers, {"rows": [list(r) for r in serve.rows()],
                    "check": check}


# -- output -------------------------------------------------------------------

def final_line(record: dict) -> dict:
    """The one-line result: end-to-end metrics, or per-layer when
    traced."""
    import metrics as m

    if record["trace"]:
        metrics = {name: {"value": record["layers"][name]["value"],
                          "unit": unit} for name, unit in m.LAYER}
    else:
        metrics = {name: {"value": record["metrics"][name]["value"],
                          "unit": unit} for name, unit, _ in m.E2E}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def describe(record: dict) -> None:
    import metrics as m

    print(f"workload {record['workload']}  seed={record['seed']}  "
          f"backend={record['backend']}  trace={record['trace']}")
    print(f"  clock: {record['clock']}")
    print(f"  why: {record['why']}")
    factors = record["host_factors"]
    print(f"  cold start (set-up and warm-up) took "
          f"{record['raw_wall']['setup_s']:.2f} s raw; then "
          f"{record['episodes']} measured episodes: "
          f"{record['ops']} ops in {record['serve_s']:.2f} s; host slowdown "
          f"{min(factors):.2f}-{max(factors):.2f}x the reference")
    raw = record["raw_wall"]
    for name, unit, clock in m.E2E + m.EXACT:
        value = record["metrics"][name]["value"]
        note = f"  (raw wall {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<14} {value:>14.4f} {unit:<6} [{clock}]{note}")
    print(f"  {record['failed']} of {record['attempted']} ops failed; "
          f"batch samples {record['batch_samples']}, "
          f"{record['beyond_p99']} beyond p99")
    print(f"  verdict_digest {record['verdict_digest']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if record["trace"]:
        table = record["layer_table"]
        check = table["check"]
        print(f"  layer self time ({check['spans']} spans, root "
              f"{check['root_ms']:.1f} ms, self sum "
              f"{check['self_sum_ms']:.1f} ms, "
              f"{check['nesting_errors']} nesting errors)")
        print(f"    {'layer':<24}{'calls':>10}{'total ms':>12}"
              f"{'self ms':>12}{'self %':>8}")
        for layer, calls, total, own, share in table["rows"]:
            print(f"    {layer:<24}{calls:>10}{total:>12.1f}{own:>12.1f}"
                  f"{100 * share:>8.2f}")
        for name, unit in m.LAYER + m.LAYER_DETAIL:
            print(f"  {name:<34} {record['layers'][name]['value']:>12.4f} "
                  f"{unit}")


def save(record: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{record['workload']}-s{record['seed']}-t{record['trace']}"
    n = 0
    while os.path.exists(os.path.join(out_dir, f"{stem}-r{n}.json")):
        n += 1
    path = os.path.join(out_dir, f"{stem}-r{n}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return path


def latest(out_dir: str, name: str, seed: int, trace: int) -> dict:
    stem = f"{name}-s{seed}-t{trace}-r"
    paths = sorted((p for p in os.listdir(out_dir) if p.startswith(stem)),
                   key=lambda p: int(p[len(stem):-len(".json")]))
    with open(os.path.join(out_dir, paths[-1])) as handle:
        return json.load(handle)


def run_all(args) -> int:
    """Every workload, each in a fresh process; with ``--trace`` also a
    traced run each, reporting the tracing overhead."""
    import metrics as m
    import workloads as wl

    TMP.mkdir(exist_ok=True)
    out_dir = args.out or tempfile.mkdtemp(prefix="results-", dir=TMP)
    summary, ok = {}, True
    for name in wl.WORKLOADS:
        records = {}
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds",
                   repr(args.seconds), "--trace", str(trace),
                   "--out", out_dir, "--scale", repr(args.scale)]
            if trace and args.trace_out:
                cmd += ["--trace-out", f"{args.trace_out}.{name}"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0
            if proc.stdout.strip():
                records[trace] = latest(out_dir, name, args.seed, trace)
        if 0 not in records:
            continue
        base = records[0]
        summary[name] = {k: v["value"] for k, v in base["metrics"].items()}
        if 1 in records:
            traced = records[1]["metrics"]["ops_per_s"]["value"]
            summary[name]["trace_overhead"] = \
                base["metrics"]["ops_per_s"]["value"] / traced - 1
    print(f"\nsummary (seed {args.seed}; results in {out_dir})")
    header = "".join(f"{n:>15}" for n, _, _ in m.E2E)
    print(f"  {'workload':<11}{header}{'trace ovh':>11}")
    for name, row in summary.items():
        cells = "".join(f"{row[n]:>15.4f}" for n, _, _ in m.E2E)
        overhead = row.get("trace_overhead")
        tail = f"{100 * overhead:>10.1f}%" if overhead is not None else ""
        print(f"  {name:<11}{cells}{tail}")
    print("  units: " + ", ".join(f"{n} {u} [{c}]" for n, u, c in m.E2E))
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload is not None and args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale, args.trace_out)
    describe(record)
    if args.out:
        print(f"  record: {save(record, args.out)}")
    print(json.dumps(final_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
