#!/usr/bin/env python
"""Run the micro-benchmark suite and record per-benchmark medians.

Writes ``BENCH_micro.json`` (repo root by default): the median/mean/
stddev of every benchmark in ``benchmarks/bench_micro.py`` — each row
tagged with its execution backend — plus the bytecode-over-reference
speedup for each backend-parametrized group.  This file is the perf
trajectory — regenerate it whenever the hot paths change and commit
the result alongside the change.

Full (non ``--quick``) runs force warm-up on, floor the round count at
``MIN_ROUNDS``, and disable GC during the timed rounds: the
serialization-roundtrip bench in particular is collector-noise
dominated otherwise (stddev several times its median), and the
combination is what makes its stddev trustworthy run-to-run.

Also drives ``python -m repro bench-fleet`` to produce
``BENCH_fleet.json`` — the fleet service's worker-scaling and
security-isolation numbers — unless ``--no-fleet`` is given, and
``python -m repro bench-telemetry`` to produce ``BENCH_telemetry.json``
— the telemetry-off vs telemetry-on overhead of the enforcement
pipeline on the default (bytecode) backend — unless ``--no-telemetry``
is given.

Usage::

    python benchmarks/run_bench.py [--out BENCH_micro.json]
                                   [--fleet-out BENCH_fleet.json]
                                   [--telemetry-out BENCH_telemetry.json]
                                   [--quick] [--no-fleet] [--no-telemetry]

``--quick`` caps calibration for CI smoke runs (one round per bench,
smaller fleet workload); the numbers are noisy but the ratios still
have to clear sanity floors.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Round floor for full runs.  pytest-benchmark's default calibration
#: settles on five rounds for the fast benches, which leaves their
#: stddev hostage to a single GC pause; twenty rounds with warm-up
#: keeps run-to-run stddev of the serialization roundtrip inside a few
#: percent of its median.
MIN_ROUNDS = 20
WARMUP_ITERATIONS = 3


def run_suite(quick: bool) -> dict:
    """Run bench_micro.py under pytest-benchmark, return its raw JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        raw_path = tmp.name
    cmd = [
        sys.executable, "-m", "pytest",
        os.path.join(HERE, "bench_micro.py"),
        "--benchmark-only", "-q", "-p", "no:cacheprovider",
        f"--benchmark-json={raw_path}",
    ]
    if quick:
        cmd += ["--benchmark-disable-gc", "--benchmark-warmup=off",
                "--benchmark-min-rounds=1"]
    else:
        # GC stays off during timed rounds in full runs too: the
        # serialization roundtrip allocates enough that collection
        # pauses inside a round inflate its stddev ~13x (6.2ms on a
        # 1.7ms median) while shifting the median barely at all.
        cmd += ["--benchmark-disable-gc", "--benchmark-warmup=on",
                f"--benchmark-warmup-iterations={WARMUP_ITERATIONS}",
                f"--benchmark-min-rounds={MIN_ROUNDS}"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"),
                    env.get("PYTHONPATH", "")) if p)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (rc={proc.returncode})")
        with open(raw_path) as handle:
            return json.load(handle)
    finally:
        os.unlink(raw_path)


def run_fleet(out_path: str, quick: bool) -> None:
    """Run the fleet benchmark CLI; it writes *out_path* itself."""
    cmd = [sys.executable, "-m", "repro", "bench-fleet",
           "--out", out_path]
    if quick:
        cmd.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"),
                    env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise SystemExit(
            f"fleet benchmark failed (rc={proc.returncode})")


def run_telemetry(out_path: str, quick: bool) -> None:
    """Run the telemetry overhead CLI; it writes *out_path* itself."""
    cmd = [sys.executable, "-m", "repro", "bench-telemetry",
           "--out", out_path, "--max-overhead-pct", "5"]
    if quick:
        cmd.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"),
                    env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise SystemExit(
            f"telemetry benchmark failed (rc={proc.returncode})")


def _backend_of(name: str) -> str:
    """The execution backend a parametrized bench ran on ('-' if the
    bench is backend-independent)."""
    if name.endswith("]") and "[" in name:
        return name[name.index("[") + 1:-1]
    return "-"


def summarize(raw: dict) -> dict:
    """Per-benchmark medians plus backend speedup ratios."""
    benches = {}
    for entry in raw["benchmarks"]:
        stats = entry["stats"]
        benches[entry["name"]] = {
            "backend": _backend_of(entry["name"]),
            "median_s": stats["median"],
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }

    def ratios(numerator: str, denominator: str) -> dict:
        out = {}
        for name, stats in benches.items():
            if not name.endswith(f"[{denominator}]"):
                continue
            group = name[:-len(f"[{denominator}]")]
            other = benches.get(f"{group}[{numerator}]")
            if other:
                out[group] = round(
                    other["median_s"] / stats["median_s"], 2)
        return out

    return {
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "unit": "seconds",
        "benchmarks": benches,
        "speedups_bytecode_over_reference": ratios("reference",
                                                   "bytecode"),
    }


def print_table(summary: dict) -> None:
    """Per-benchmark medians with an explicit backend column."""
    rows = [("benchmark", "backend", "median", "stddev", "rounds")]
    for name, stats in sorted(summary["benchmarks"].items()):
        base = name.split("[")[0]
        rows.append((base, stats["backend"],
                     f"{stats['median_s'] * 1e3:.3f}ms",
                     f"{stats['stddev_s'] * 1e3:.3f}ms",
                     str(stats["rounds"])))
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_micro.json"))
    parser.add_argument("--fleet-out",
                        default=os.path.join(ROOT, "BENCH_fleet.json"))
    parser.add_argument("--telemetry-out",
                        default=os.path.join(ROOT,
                                             "BENCH_telemetry.json"))
    parser.add_argument("--quick", action="store_true",
                        help="one round per bench (CI smoke)")
    parser.add_argument("--no-fleet", action="store_true",
                        help="skip the fleet scaling benchmark")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="skip the telemetry overhead benchmark")
    args = parser.parse_args()
    summary = summarize(run_suite(quick=args.quick))
    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print_table(summary)
    for group, ratio in sorted(
            summary["speedups_bytecode_over_reference"].items()):
        print(f"{group}: bytecode is {ratio}x faster than reference")
    print(f"wrote {args.out}")
    if not args.no_fleet:
        run_fleet(args.fleet_out, quick=args.quick)
    if not args.no_telemetry:
        run_telemetry(args.telemetry_out, quick=args.quick)


if __name__ == "__main__":
    main()
