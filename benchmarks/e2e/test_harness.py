"""Harness tests for the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every run here uses the benchmark-only scale-down (``--scale``: fewer
tenants) and a short measuring time, so the whole file takes a few
minutes; the workloads keep all their devices and attacks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare                                          # noqa: E402
import workloads as wl                                  # noqa: E402

SMALL = ("--scale", "0.1", "--seconds", "0.5")


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run(tmp: Path, *args: str) -> dict:
    """One benchmark run; returns its final line and full record."""
    out = tmp / "records"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, *SMALL,
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = proc.stdout.split("record: ")[-1].splitlines()[0]
    with open(path) as handle:
        return {"line": line, "record": json.load(handle)}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload untraced and traced, at seed 3."""
    tmp = tmp_path_factory.mktemp("e2e")
    out = {}
    for name in wl.WORKLOADS:
        out[name, 0] = run(tmp, "--workload", name, "--seed", "3")
        trace_out = tmp / f"{name}.jsonl"
        out[name, 1] = run(tmp, "--workload", name, "--seed", "3",
                           "--trace", "1", "--trace-out", str(trace_out))
        out[name, 1]["jsonl"] = trace_out
    return out


def test_metric_names_and_units_match_benchmark_json(runs):
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in wl.WORKLOADS:
        for trace, want in ((0, e2e), (1, layer)):
            line = runs[name, trace]["line"]
            assert set(line) == {"correct", "attempted", "failed",
                                 "metrics"}
            assert line["correct"] and line["failed"] == 0
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, (name, trace)


def test_same_seed_same_verdict_digest(runs, tmp_path):
    again = run(tmp_path, "--workload", "steady", "--seed", "3")
    first = runs["steady", 0]["record"]
    assert again["record"]["verdict_digest"] == first["verdict_digest"]
    for name in wl.WORKLOADS:          # tracing changes no verdict
        assert (runs[name, 1]["record"]["verdict_digest"]
                == runs[name, 0]["record"]["verdict_digest"])


def test_different_seed_changes_traffic():
    for workload in wl.WORKLOADS.values():
        plans = wl.plans_for(workload, 1, 0.1)
        if workload.kind == "pool":
            one = wl.pool_inputs(workload, 1, 0.1)[1]
            two = wl.pool_inputs(workload, 2, 0.1)[1]
        else:
            one = wl.gateway_inputs(workload, plans, 1)[0]
            two = wl.gateway_inputs(workload, plans, 2)[0]
        assert one != two, workload.name
        assert wl.episode_seed(1, 1) != wl.episode_seed(1, 2)


def test_traced_spans_nest_and_self_times_sum_to_root(runs):
    for name in wl.WORKLOADS:
        spans = {}
        with open(runs[name, 1]["jsonl"]) as handle:
            for line in handle:
                span = json.loads(line)
                spans[span["pid"], span["id"]] = span
        assert spans, name
        self_ns = {k: s["end_ns"] - s["start_ns"] for k, s in spans.items()}
        root_ns = 0
        for (pid, _), span in spans.items():
            if span["parent"] < 0:
                root_ns += span["end_ns"] - span["start_ns"]
                continue
            parent = spans[pid, span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
            self_ns[pid, span["parent"]] -= span["end_ns"] - span["start_ns"]
        assert all(v >= 0 for v in self_ns.values()), name
        assert abs(sum(self_ns.values()) - root_ns) <= 0.01 * root_ns, name
        # the printed layer table: serving-phase self times sum to its roots
        check = runs[name, 1]["record"]["layer_table"]["check"]
        assert check["nesting_errors"] == 0, name
        assert abs(check["self_sum_ms"] - check["root_ms"]) \
            <= 0.01 * check["root_ms"], name


BENCH = {"end_to_end": [{"name": "ops_per_s", "unit": "ops/s",
                         "better": "higher", "bound": 0.1}],
         "per_layer": []}
BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def synthetic(tmp: Path, side: str, values, digest="d", raw=None) -> Path:
    directory = tmp / side
    directory.mkdir()
    for seed, value in enumerate(values):
        record = {"workload": "steady", "seed": seed, "trace": 0,
                  "episode_digests": [digest],
                  "metrics": {"ops_per_s": {"value": value,
                                            "unit": "ops/s"}}}
        if raw is not None:
            record["raw_wall"] = {"ops_per_s": raw[seed]}
        with open(directory / f"steady-s{seed}-t0-r0.json", "w") as f:
            json.dump(record, f)
    return directory


def compared(tmp: Path, a, b, a_opts=None, b_opts=None):
    return compare.compare(
        compare.load(str(synthetic(tmp, "a", a, **(a_opts or {})))),
        compare.load(str(synthetic(tmp, "b", b, **(b_opts or {})))),
        BENCH)


@pytest.mark.parametrize("b, verdict", [
    ([120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "improved"),
    ([80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "regressed"),
    # the pair ratios B/A scatter by far more than the bound
    ([70, 131, 79, 120, 77, 122, 85, 116, 89, 110], "unresolved"),
    ([99, 101, 98, 100, 101, 98, 99, 100, 99, 100], "no-worse"),
])
def test_compare_verdicts(tmp_path, b, verdict):
    rows = compared(tmp_path, BASE, b)
    assert [r["verdict"] for r in rows] == [verdict]
    assert rows[0]["digests_equal"]
    assert rows[0]["raw_verdict"] is None


def test_compare_pairs_by_seed(tmp_path):
    """Seed-to-seed differences cancel out of the paired ratios: B is 1 %
    slower on every seed, while the seeds themselves span 40 %."""
    a = [100, 140, 110, 130, 120, 100, 140, 110, 130, 120]
    rows = compared(tmp_path, a, [0.99 * v for v in a])
    assert rows[0]["verdict"] == "no-worse"
    assert rows[0]["ratio"] == pytest.approx(0.99)


def test_compare_flags_raw_and_rescaled_disagreement(tmp_path):
    rows = compared(tmp_path, BASE, BASE,
                    a_opts={"raw": BASE},
                    b_opts={"raw": [0.8 * v for v in BASE]})
    assert rows[0]["verdict"] == "no-worse"
    assert rows[0]["raw_verdict"] == "regressed"


def test_compare_flags_changed_verdicts(tmp_path):
    rows = compared(tmp_path, [100, 101], [100, 101],
                    a_opts={"digest": "x"}, b_opts={"digest": "y"})
    assert not rows[0]["digests_equal"]
