"""Command-line interface to the SEDSpec reproduction.

::

    python -m repro train   --device fdc --out fdc.spec.json
    python -m repro inspect --spec fdc.spec.json [--dot out.dot]
    python -m repro exploit --cve CVE-2015-3456 [--protect]
    python -m repro exploit --family oob-write [--device virtio-net]
    python -m repro corpus  [--seed 11] [--out CORPUS.json]
    python -m repro tables  [--which 1|3]
    python -m repro devices
    python -m repro serve   --workers 2 --tenants 4 [--inject CVE-...]
    python -m repro serve   --gateway --shards 2 --tenants 1000 \
                            --arrival bursty [--rebalance-at 0.5]
    python -m repro bench-fleet [--workers 1,2,4,8] [--gateway] \
                            [--out BENCH_fleet.json]
    python -m repro stats   --device fdc --rounds 200 [--chaos-seed 101]
    python -m repro bench-telemetry [--quick] [--max-overhead-pct 5]
    python -m repro chaos   --seeds 101,102 [--policy fail-closed] [--out R.json]
    python -m repro spec generations --cache DIR --device fdc
    python -m repro spec promote --cache DIR --device fdc --candidate c.spec.json
    python -m repro spec reload  --cache DIR --device fdc [--digest PREFIX]
    python -m repro spec smoke   [--quick] [--out SMOKE_lifecycle.json]
    python -m repro policy show   [--file policy.json] [--tenant T]
    python -m repro policy apply  --file policy.json --cache DIR
    python -m repro policy reload --file policy.json [--tenants 4]
    python -m repro migrate [--backends reference,bytecode] \
                            [--out MIGRATION.json]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.interp.machine import BACKENDS, DEFAULT_BACKEND


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.devices import create_device, device_names
    from repro.eval.report import render_table

    rows = []
    for name in device_names():
        device = create_device(name, qemu_version=args.qemu_version)
        cves = ", ".join(g.cve for g in device.CVES) or "-"
        active = ", ".join(device.active_cves()) or "-"
        rows.append((name, device.LOGIC.STRUCT,
                     device.program.block_count(), cves, active))
    print(render_table(
        ("Device", "Struct", "Blocks", "Seeded CVEs",
         f"Active @ {args.qemu_version}"), rows))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.spec import spec_to_json
    from repro.workloads import train_device_spec

    artifacts = train_device_spec(args.device,
                                  qemu_version=args.qemu_version,
                                  seed=args.seed,
                                  repeats=args.repeats,
                                  backend=args.backend)
    print(artifacts.spec.describe())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(spec_to_json(artifacts.spec))
        print(f"wrote {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.spec import spec_from_json
    from repro.spec.dot import spec_to_dot

    with open(args.spec) as handle:
        spec = spec_from_json(handle.read())
    print(spec.describe())
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(spec_to_dot(spec, function=args.function))
        print(f"wrote {args.dot}")
    return 0


def _cmd_exploit(args: argparse.Namespace) -> int:
    from repro.checker import Mode
    from repro.core import deploy
    from repro.exploits import exploit_by_cve, run_exploit
    from repro.workloads import train_device_spec
    from repro.workloads.profiles import PROFILES

    if bool(args.cve) == bool(args.family):
        print("exploit: need exactly one of --cve / --family",
              file=sys.stderr)
        return 2
    if args.family:
        return _run_family(args)
    if args.cve.startswith("SYN:"):
        from repro.exploits.corpus import resolve_attack
        exploit = resolve_attack(args.cve)
    else:
        exploit = exploit_by_cve(args.cve)
    prof = PROFILES[exploit.device]
    vm, device = prof.make_vm(exploit.qemu_version,
                              backend=args.backend)
    if args.protect:
        spec = train_device_spec(
            exploit.device, qemu_version=exploit.qemu_version,
            backend=args.backend).spec
        deploy(vm, device, spec, mode=Mode.PROTECTION,
               backend=args.backend)
    outcome = run_exploit(vm, device, exploit)
    print(f"{exploit.cve} against {exploit.device} "
          f"(qemu {exploit.qemu_version}): {exploit.description}")
    print(f"  protected: {args.protect}")
    print(f"  detected:  {outcome.detected} "
          f"{sorted(s.value for s in outcome.anomaly_strategies)}")
    print(f"  device fault: {outcome.device_faulted} "
          f"({outcome.fault_kind or '-'})")
    return 0 if (outcome.detected == args.protect
                 or exploit.expected_miss) else 1


def _run_family(args: argparse.Namespace) -> int:
    """``exploit --family``: replay every corpus PoC of one vulnerability
    family (optionally narrowed to one device), protected."""
    from repro.exploits.corpus import (
        FAMILIES, generate_corpus, poc_detected, run_corpus_poc,
    )

    if args.family not in FAMILIES:
        print(f"unknown family {args.family!r} "
              f"(choose from {', '.join(FAMILIES)})", file=sys.stderr)
        return 2
    devices = [args.device] if args.device else None
    pocs = generate_corpus(seed=args.seed, devices=devices,
                           families=[args.family])
    failures = 0
    for poc in pocs:
        outcome = run_corpus_poc(poc, backend=args.backend)
        ok = poc_detected(poc, outcome)
        failures += not ok
        strategies = sorted(s.value for s in outcome.anomaly_strategies)
        print(f"{poc.poc_id}: detected={outcome.detected} "
              f"{strategies} {'ok' if ok else 'MISS'}")
    print(f"{len(pocs) - failures}/{len(pocs)} detected "
          f"with the labeled strategy")
    return 1 if failures else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    """Generate the synthetic corpus and certify it: every PoC detected
    on every backend with its ground-truth strategy, zero benign false
    positives on multi-device mixes."""
    import json

    from repro.exploits.corpus import (
        benign_mix_false_positives, corpus_summary, generate_corpus,
        poc_detected, sweep_corpus,
    )

    backends = args.backends
    mixes = args.benign_mix or ["virtio-net+virtio-blk"]
    pocs = generate_corpus(seed=args.seed)
    summary = corpus_summary(pocs)
    print(f"corpus: {summary['total']} PoCs at seed {args.seed} "
          f"({len(summary['by_device'])} devices, "
          f"{len(summary['by_family'])} families)")
    missed = []
    for poc, backend, outcome in sweep_corpus(pocs, backends):
        if not poc_detected(poc, outcome):
            missed.append((poc.poc_id, backend))
            print(f"  MISS {poc.poc_id} on {backend}: "
                  f"detected={outcome.detected}")
    print(f"detection matrix: "
          f"{len(pocs) * len(backends) - len(missed)}/"
          f"{len(pocs) * len(backends)} cells detected")
    false_positives = {}
    for mix in mixes:
        for backend in backends:
            false_positives[(mix, backend)] = benign_mix_false_positives(
                device=mix, ops=args.benign_ops, backend=backend)
    flagged = sum(false_positives.values())
    print(f"benign mixes: {flagged} false positive(s) over "
          f"{len(false_positives)} (mix, backend) runs")
    if args.out:
        payload = {
            "seed": args.seed,
            "backends": backends,
            "summary": summary,
            "missed": [f"{p}@{b}" for p, b in missed],
            "benign_false_positives": {
                f"{mix}@{backend}": count
                for (mix, backend), count in false_positives.items()},
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if (missed or flagged) else 0


def _cmd_spec_diff(args: argparse.Namespace) -> int:
    from repro.spec import coverage_gain, merge_specs, spec_from_json

    with open(args.base) as handle:
        base = spec_from_json(handle.read())
    with open(args.other) as handle:
        other = spec_from_json(handle.read())
    merged = merge_specs(base, other)
    new_blocks = merged.visited_blocks - base.visited_blocks
    new_cmds = set(merged.cmd_access.table) - set(base.cmd_access.table)
    print(f"device: {base.device}")
    print(f"base: {base.block_count()} blocks, "
          f"{len(base.cmd_access.table)} commands")
    print(f"other adds: {len(new_blocks)} blocks, "
          f"{len(new_cmds)} commands "
          f"({sorted(hex(c) for c in new_cmds)})")
    print(f"coverage gain: {coverage_gain(base, merged):.1%}")
    if args.out:
        from repro.spec import spec_to_json
        with open(args.out, "w") as handle:
            handle.write(spec_to_json(merged))
        print(f"wrote merged spec to {args.out}")
    return 0


@contextlib.contextmanager
def _spec_cache(args: argparse.Namespace, prefix: str):
    """The run's spec cache directory: ``--spec-cache`` when given, none
    for an ``--inline`` run, else a temporary directory that pool
    workers share and that is removed when the run ends."""
    if args.spec_cache is not None or args.inline:
        yield args.spec_cache
        return
    import tempfile
    with tempfile.TemporaryDirectory(prefix=prefix) as cache_dir:
        yield cache_dir


def _serve_gateway(args: argparse.Namespace, resilience: dict) -> int:
    """``repro serve --gateway``: open-loop arrivals through the
    admission gateway into a sharded fleet.  Exit code certifies the
    conservation + security invariants, so CI can smoke it directly.
    *resilience* holds the ``--policy`` set, if one was given."""
    from repro.checker import Mode
    from repro.eval.report import render_table
    from repro.fleet.loadgen import plan_tenants
    from repro.gateway import (
        AdmissionConfig, ArrivalSpec, Gateway, GatewayConfig,
        PolicyReloadAction, RebalanceAction,
    )
    from repro.telemetry.stats import gateway_rows

    devices = args.devices.split(",")
    plans = plan_tenants(devices, args.tenants, inject_cves=args.inject,
                         inject_fraction=args.inject_fraction,
                         qemu_version=args.qemu_version, seed=args.seed)
    arrival = ArrivalSpec(pattern=args.arrival, rate_per_sec=args.rate,
                          horizon_s=args.horizon_ms * 1e-3)
    rebalances = []
    if args.rebalance_at is not None:
        rebalances.append(RebalanceAction(
            at_cycle=int(args.rebalance_at * arrival.horizon_cycles),
            add=(args.shards,)))
    policy_reloads = []
    if args.policy_reload_at is not None:
        reload_file = args.policy_reload or args.policy
        if reload_file is None:
            print("serve: --policy-reload-at needs --policy-reload "
                  "(or --policy) naming the document to hot-load",
                  file=sys.stderr)
            return 2
        reloaded = _load_policies(reload_file)
        if reloaded is None:
            return 2
        policy_reloads.append(PolicyReloadAction(
            at_cycle=int(args.policy_reload_at * arrival.horizon_cycles),
            policies=reloaded))
    with _spec_cache(args, "sedspec-gw-") as cache_dir:
        config = GatewayConfig(
            shards=args.shards, workers_per_shard=args.workers,
            coalesce_max=args.coalesce_max, slo_ms=args.slo_ms,
            seed=args.seed,
            admission=AdmissionConfig(quota_rate_per_sec=args.quota_rate,
                                      quota_burst=args.quota_burst,
                                      queue_cap=args.queue_cap),
            arrival=arrival, inline=args.inline, backend=args.backend,
            batch_rounds=args.batch_rounds,
            mode=Mode(args.mode), cache_dir=cache_dir, **resilience)
        result = Gateway(config).run(plans, rebalances=rebalances,
                                     policy_reloads=policy_reloads)

    # At four-digit tenant counts a full per-tenant table is noise:
    # show the tenants where something happened, summarize the rest.
    interesting = [s for s in result.tenants.values()
                   if s.attacked or s.quarantined or s.detections
                   or s.rejected]
    rows = [(s.tenant, s.device, "yes" if s.attacked else "-",
             f"{s.completed}/{s.submitted}", s.rejected, s.detections,
             s.quarantine_reason if s.quarantined else "-")
            for s in interesting[:args.show_tenants]]
    if rows:
        print(render_table(("Tenant", "Device", "Attacked", "Served",
                            "Rejected", "Detections", "Quarantine"),
                           rows))
        hidden = len(interesting) - len(rows)
        if hidden > 0:
            print(f"(+{hidden} more flagged tenants)")
    print(f"({len(result.tenants) - len(interesting)} benign tenants "
          f"served without incident)")
    print()
    print(result.stats.describe())
    print(result.fleet.describe())
    print()
    print(render_table(("Gateway counter", "Total"),
                       gateway_rows(result.telemetry)))
    if result.moves:
        print(f"rebalance moved {len(result.moves)} tenants "
              f"across shards")

    failures = result.safety_failures()
    if result.fleet.lost:
        failures.append(f"{result.fleet.lost} requests lost")
    if result.fleet.detections < args.min_detections:
        failures.append(f"expected >= {args.min_detections} detections, "
                        f"saw {result.fleet.detections}")
    if args.rebalance_at is not None and not result.moves:
        failures.append("rebalance requested but no tenant moved")
    if (args.policy_reload_at is not None
            and result.stats.policy_reload_events == 0):
        failures.append("policy reload requested but never fired")
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.checker import Mode
    from repro.eval.report import render_table
    from repro.fleet import (
        FleetConfig, FleetSupervisor, build_load,
    )

    # Without --policy the config keeps its default PolicySet.
    resilience = {}
    if args.policy:
        resilience["policies"] = _load_policies(args.policy)
        if resilience["policies"] is None:
            return 2
    if args.gateway:
        return _serve_gateway(args, resilience)
    devices = args.devices.split(",")
    plans, schedule = build_load(
        devices, args.tenants, args.batches, args.ops,
        inject_cves=args.inject, inject_fraction=args.inject_fraction,
        qemu_version=args.qemu_version, seed=args.seed)
    with _spec_cache(args, "sedspec-serve-") as cache_dir:
        config = FleetConfig(workers=args.workers, inline=args.inline,
                             queue_depth=args.queue_depth,
                             mode=Mode(args.mode), backend=args.backend,
                             batch_rounds=args.batch_rounds,
                             cache_dir=cache_dir, **resilience)
        result = FleetSupervisor(config).run(schedule, plans)
    rows = [(s.tenant, s.device, "yes" if s.attacked else "-",
             f"{s.completed}/{s.submitted}", s.rejected, s.detections,
             s.quarantine_reason if s.quarantined else "-")
            for s in result.tenants.values()]
    print(render_table(("Tenant", "Device", "Attacked", "Served",
                        "Rejected", "Detections", "Quarantine"), rows))
    print(result.stats.describe())
    if result.stats.lost:
        print(f"ERROR: {result.stats.lost} requests lost")
        return 1
    if result.stats.detections < args.min_detections:
        print(f"ERROR: expected >= {args.min_detections} detections, "
              f"saw {result.stats.detections}")
        return 1
    return 0


def _cmd_bench_fleet(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.fleet import run_fleet_bench

    worker_counts = tuple(int(w) for w in args.workers.split(","))
    kwargs = dict(worker_counts=worker_counts,
                  devices=tuple(args.devices.split(",")),
                  tenants=args.tenants, batches=args.batches,
                  ops=args.ops, backend=args.backend,
                  inline=args.inline, cache_dir=args.spec_cache,
                  seed=args.seed)
    if args.quick:
        kwargs.update(batches=2, ops=3)
    if args.migration_provenance:
        with open(args.migration_provenance) as handle:
            kwargs["migration"] = json_mod.load(handle)
    payload = run_fleet_bench(**kwargs)
    if args.gateway:
        from repro.gateway.bench import run_gateway_bench
        payload["gateway"] = run_gateway_bench(
            backend=args.backend, cache_dir=args.spec_cache,
            seed=args.seed, quick=args.quick)
    with open(args.out, "w") as handle:
        json_mod.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for workers, point in sorted(payload["scaling"].items(),
                                 key=lambda kv: int(kv[0])):
        print(f"{workers} worker(s): "
              f"{point['rounds_per_sec']:,.0f} rounds/s (simulated), "
              f"p95 {point['p95_request_ms']:.3f} ms, "
              f"wall {point['wall_s']:.2f}s")
    sec = payload["security"]
    print(f"security: attacked={sec['attacked']} "
          f"quarantined={sec['quarantined']} "
          f"detections={sec['detections']} lost={sec['lost']}")
    ok = sec["ok"]
    if "migration" in payload:
        mig = payload["migration"]
        print(f"migration provenance: "
              f"{mig.get('total_migrations', 0)} migrations, "
              f"all_certified={mig.get('all_certified')}")
        ok = ok and bool(mig.get("all_certified"))
    if args.gateway:
        gw = payload["gateway"]
        for pattern, points in sorted(gw["scaling"].items()):
            for tenants, point in sorted(points.items(),
                                         key=lambda kv: int(kv[0])):
                print(f"gateway[{pattern}] {tenants} tenants / "
                      f"{point['shards']} shards: "
                      f"p50 {point['p50_latency_ms']:.3f} ms, "
                      f"p99 {point['p99_latency_ms']:.3f} ms, "
                      f"SLO violations {point['slo_violations']} "
                      f"({100 * point['slo_violation_rate']:.1f}%), "
                      f"wall {point['wall_s']:.2f}s")
        reb = gw["rebalance"]
        print(f"gateway rebalance: moved={reb['moved_tenants']} "
              f"lost={reb['lost']} duplicates={reb['duplicates']} "
              f"detections={reb['detections']}/{reb['attacked']} "
              f"ok={reb['ok']}")
        ok = ok and gw["ok"]
    print(f"wrote {args.out}")
    return 0 if ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.checker import Mode
    from repro.eval.report import render_table
    from repro.telemetry import prometheus_text, write_jsonl
    from repro.telemetry.stats import (
        degradation_rows, interp_summary, latency_rows, policy_rows,
        run_stats, strategy_rows,
    )

    run = run_stats(device=args.device, rounds=args.rounds,
                    backend=args.backend, qemu_version=args.qemu_version,
                    mode=Mode(args.mode), seed=args.seed,
                    chaos_seed=args.chaos_seed)
    print(f"device {run.device} ({args.qemu_version}), "
          f"backend {run.backend}, mode {args.mode}: "
          f"{run.rounds} checked I/O rounds")
    print()
    print(render_table(("Strategy", "Checks", "Violations"),
                       strategy_rows(run.snapshot)))
    print()
    print(render_table(
        ("Histogram", "Count", "Mean", "p50", "p95", "p99", "Max"),
        latency_rows(run.snapshot)))
    interp = interp_summary(run.snapshot)
    print()
    print(f"interp: {interp['io_rounds']} I/O rounds, "
          f"{interp['blocks']} blocks executed, "
          f"{interp['faults']} faults")
    print()
    print(render_table(("Degradation / faults", "Total"),
                       degradation_rows(run.snapshot)))
    print()
    print(render_table(("Policy lifecycle", "Total"),
                       policy_rows(run.snapshot)))
    if args.json_out:
        lines = write_jsonl(run.snapshot, args.json_out)
        print(f"wrote {lines} metric lines to {args.json_out}")
    if args.prom_out:
        with open(args.prom_out, "w") as handle:
            handle.write(prometheus_text(run.snapshot))
        print(f"wrote {args.prom_out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.errors import PolicyError
    from repro.faults import (
        CampaignConfig, decoder_recovery_experiment, run_campaign,
        write_report,
    )

    config = CampaignConfig(
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        policy=args.policy, max_retries=args.max_retries,
        devices=tuple(args.devices.split(",")),
        tenants=args.tenants, batches_per_tenant=args.batches,
        ops_per_batch=args.ops, workers=args.workers,
        inline=not args.pool)
    try:
        report = run_campaign(config)
    except PolicyError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    print(report.describe())
    if args.recovery_runs:
        recovery = decoder_recovery_experiment(runs=args.recovery_runs)
        print(f"decoder recovery: "
              f"{int(recovery['recovered'])}/{int(recovery['runs'])} "
              f"({recovery['recovery_rate']:.1%}; "
              f"{int(recovery['tail_loss'])} tail losses)")
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if not report.passed:
        print("ERROR: safety invariant violated (see outcomes above); "
              "replay with the same --seeds to reproduce")
        return 1
    return 0


def _cmd_bench_telemetry(args: argparse.Namespace) -> int:
    import datetime
    import json as json_mod
    import platform

    from repro.telemetry.bench import measure_overhead

    kwargs = dict(device=args.device, backend=args.backend,
                  qemu_version=args.qemu_version, seed=args.seed)
    if args.quick:
        kwargs.update(passes=5, reps=1, ops=10)
    payload = measure_overhead(**kwargs)
    payload["generated"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds")
    payload["machine"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    with open(args.out, "w") as handle:
        json_mod.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    off = payload["telemetry_off"]
    record = payload["record_path_ns_per_round"]
    print(f"{payload['device']} [{payload['backend']}] "
          f"{payload['io_rounds_per_pass']} guarded rounds/pass: "
          f"round {off['ns_per_round']:.0f} ns, telemetry "
          f"{payload['overhead_ns_per_round']:.0f} ns/round "
          f"(checker {record['checker']:.0f} + "
          f"machine {record['machine']:.0f}) "
          f"= {payload['overhead_pct']:.2f}% overhead")
    print(f"wrote {args.out}")
    if (args.max_overhead_pct is not None
            and payload["overhead_pct"] > args.max_overhead_pct):
        print(f"ERROR: telemetry overhead {payload['overhead_pct']:.2f}% "
              f"exceeds the {args.max_overhead_pct:.2f}% budget")
        return 1
    return 0


def _cmd_spec_generations(args: argparse.Namespace) -> int:
    from repro.eval.report import render_table
    from repro.fleet import SpecRegistry

    registry = SpecRegistry(cache_dir=args.cache)
    chain = registry.generations(args.device, args.qemu_version)
    if not chain:
        print(f"no generation chain for ({args.device}, "
              f"{args.qemu_version}) in {args.cache}")
        return 1
    active = registry.active_generation(args.device, args.qemu_version)
    rows = [(g.generation,
             "*" if active and g.digest == active.digest else "",
             g.digest[:16], g.block_count, g.edge_count,
             f"{g.coverage_gain:.4f}", g.edge_gain, g.merged_from,
             len(g.parents), g.provenance or "-") for g in chain]
    print(render_table(
        ("Gen", "Act", "Digest", "Blocks", "Edges", "CovGain",
         "EdgeGain", "Merged", "Parents", "Provenance"), rows))
    return 0


def _cmd_spec_promote(args: argparse.Namespace) -> int:
    from repro.fleet import SpecRegistry
    from repro.spec import PromotionConfig, promote, spec_from_json

    registry = SpecRegistry(cache_dir=args.cache)
    candidates = []
    for path in args.candidate:
        with open(path) as handle:
            candidates.append(spec_from_json(handle.read()))
    config = PromotionConfig(
        min_coverage_gain=args.min_coverage_gain,
        min_edge_gain=args.min_edge_gain,
        benign_rounds=args.benign_rounds, backend=args.backend,
        cves=tuple(args.cve), activate=not args.no_activate)
    report = promote(registry, args.device, args.qemu_version,
                     candidates, config,
                     provenance=args.provenance or "cli:promote")
    print(report.describe())
    return 0 if report.promoted else 1


def _cmd_spec_reload(args: argparse.Namespace) -> int:
    from repro.fleet import (
        FleetConfig, FleetSupervisor, SpecRegistry, build_load,
    )

    registry = SpecRegistry(cache_dir=args.cache)
    chain = registry.generations(args.device, args.qemu_version)
    if not chain:
        print(f"no generation chain for ({args.device}, "
              f"{args.qemu_version}); promote something first")
        return 1
    if args.digest:
        gen = next((g for g in chain
                    if g.digest.startswith(args.digest)), None)
        if gen is None:
            print(f"no generation matches digest {args.digest!r}")
            return 1
    else:
        gen = chain[-1]
    plans, schedule = build_load(
        [args.device], args.tenants, args.batches, args.ops,
        qemu_version=args.qemu_version, seed=args.seed)
    at_seq = (args.batches // 2) * len(plans)
    supervisor = FleetSupervisor(
        FleetConfig(workers=args.workers, inline=args.inline,
                    cache_dir=args.cache), registry)
    supervisor.reload_spec(args.device, gen.digest, at_seq=at_seq)
    result = supervisor.run(schedule, plans)
    print(f"hot reload to gen {gen.generation} ({gen.digest[:16]}) "
          f"at seq {at_seq}:")
    print(result.stats.describe())
    stats = result.stats
    ok = (stats.lost == 0 and stats.duplicate_results == 0
          and stats.spec_reloads == len(plans)
          and not result.quarantined_tenants())
    if not ok:
        print("ERROR: reload run lost traffic or quarantined a benign "
              "tenant; generation NOT activated")
        return 1
    if args.activate:
        registry.activate(args.device, args.qemu_version, gen.digest)
        print(f"activated gen {gen.generation} as the default")
    return 0


def _cmd_spec_smoke(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.fleet import run_lifecycle_smoke

    kwargs = dict(devices=tuple(args.devices.split(",")),
                  tenants=args.tenants, attacked=args.attacked,
                  batches=args.batches, ops=args.ops,
                  workers=args.workers, backend=args.backend,
                  cache_dir=args.cache, seed=args.seed)
    if args.quick:
        kwargs.update(devices=("fdc", "sdhci"), tenants=3, attacked=2)
    payload = run_lifecycle_smoke(**kwargs)
    for device, p in payload["promotions"].items():
        verdict = (f"gen {p['generation']}" if p["promoted"]
                   else f"REFUSED: {p['reason']}")
        print(f"{device}: {verdict} cov_gain={p['coverage_gain']} "
              f"edge_gain={p['edge_gain']} "
              f"removed_fps={p['removed_false_positives']} "
              f"cves={p['cve_results']}")
    fleet = payload["fleet"]
    print(f"fleet: {fleet['tenants']} tenants, reload at seq "
          f"{fleet['reload_at_seq']}, spec_reloads="
          f"{fleet['spec_reloads']}, detections="
          f"{fleet['detections']}/{fleet['expected_detections']}, "
          f"lost={fleet['lost']}, parity_ok={fleet['parity']['ok']}")
    print(f"ok: {payload['ok']}")
    if args.out:
        with open(args.out, "w") as handle:
            json_mod.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if payload["ok"] else 1


#: Per-policy knob columns shown by ``repro policy show``.
_POLICY_FIELDS = ("policy_id", "degradation", "max_retries", "rate_quota",
                  "respawn_budget", "throttle_after", "circuit_cooldown",
                  "restore_after", "quarantine_after")


def _load_policies(path: str):
    """Load + validate a policy file, or None on error: every policy
    command then exits 2."""
    from repro.errors import PolicyError
    from repro.policy.model import load_policy_file

    try:
        return load_policy_file(path)
    except PolicyError as exc:
        print(f"policy: {exc}", file=sys.stderr)
        return None


def _cmd_policy_show(args: argparse.Namespace) -> int:
    from repro.eval.report import render_table
    from repro.policy.model import DEFAULT_POLICY, PolicySet

    if args.file:
        policies = _load_policies(args.file)
        if policies is None:
            return 2
    else:
        policies = PolicySet(default=DEFAULT_POLICY)
    print(f"policy set {policies.digest[:16]}: default + "
          f"{len(policies.tenants)} tenant override(s)")
    scopes = [("(default)", policies.default)]
    scopes += sorted(policies.tenants.items())
    for tenant in args.tenant or ():
        scopes.append((f"{tenant} (resolved)", policies.resolve(tenant)))
    rows = [(scope,) + tuple(getattr(pol, f) for f in _POLICY_FIELDS)
            for scope, pol in scopes]
    print(render_table(("Scope",) + _POLICY_FIELDS, rows))
    return 0


def _cmd_policy_apply(args: argparse.Namespace) -> int:
    from repro.policy.model import PolicyStore

    policies = _load_policies(args.file)
    if policies is None:
        return 2
    store = PolicyStore(cache_dir=args.cache)
    digest = store.put(policies)
    print(f"validated and stored policy set {digest[:16]} "
          f"at {store.path(digest)}")
    return 0


def _cmd_policy_reload(args: argparse.Namespace) -> int:
    """Mid-schedule fleet-wide policy hot reload (the policy twin of
    ``spec reload``): malformed input fails before the fleet starts
    (exit 2); a well-formed one swaps per tenant at the halfway batch
    boundary with nothing lost or duplicated (else exit 1)."""
    from repro.fleet import FleetConfig, FleetSupervisor, build_load

    policies = _load_policies(args.file)
    if policies is None:
        return 2
    plans, schedule = build_load(
        args.devices.split(","), args.tenants, args.batches, args.ops,
        seed=args.seed)
    at_seq = (args.batches // 2) * len(plans)
    with _spec_cache(args, "sedspec-pol-") as cache_dir:
        supervisor = FleetSupervisor(
            FleetConfig(workers=args.workers, inline=args.inline,
                        cache_dir=cache_dir))
        digest = supervisor.reload_policy(policies, at_seq=at_seq)
        result = supervisor.run(schedule, plans)
    print(f"hot policy reload to {digest[:16]} at seq {at_seq}:")
    print(result.stats.describe())
    stats = result.stats
    ok = (stats.lost == 0 and stats.duplicate_results == 0
          and stats.policy_reloads == len(plans)
          and not result.quarantined_tenants())
    if not ok:
        print("ERROR: policy reload lost traffic, duplicated results, "
              "quarantined a benign tenant, or missed a tenant swap "
              f"(policy_reloads={stats.policy_reloads}, "
              f"expected {len(plans)})")
        return 1
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    """Live-migration certification across checker backends: the same
    load served with and without migrating every tenant mid-stream must
    produce byte-identical per-tenant verdicts with op conservation."""
    import json as json_mod

    from repro.fleet import (
        migration_provenance, run_migration_certification,
    )

    backends = args.backends
    certs = []
    for backend in backends:
        cert = run_migration_certification(
            devices=tuple(args.devices.split(",")), tenants=args.tenants,
            batches_per_tenant=args.batches, ops_per_batch=args.ops,
            backend=backend, inject_fraction=args.inject_fraction,
            migrate_after_batch=args.migrate_after,
            workers=args.workers, seed=args.seed)
        print(cert.describe())
        certs.append(cert)
    provenance = migration_provenance(certs)
    print(f"total migrations: {provenance['total_migrations']} across "
          f"{len(backends)} backend(s); "
          f"all_certified={provenance['all_certified']}")
    if args.out:
        with open(args.out, "w") as handle:
            json_mod.dump(provenance, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if provenance["all_certified"] else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.which in ("1", "all"):
        from repro.eval import generate_table1
        print(generate_table1().render())
    if args.which in ("3", "all"):
        from repro.checker import Strategy
        from repro.eval import render_table, strategy_matrix
        rows = strategy_matrix()
        print(render_table(
            ("Device", "CVE", "Param", "IndJmp", "CondJmp", "match"),
            [(r.device, r.cve,
              "Y" if Strategy.PARAMETER in r.detected_by else "",
              "Y" if Strategy.INDIRECT_JUMP in r.detected_by else "",
              "Y" if Strategy.CONDITIONAL_JUMP in r.detected_by else "",
              "ok" if r.matches_paper else "MISMATCH") for r in rows]))
    return 0


def _backend_list(text: str) -> List[str]:
    """``--backends`` value: a comma-separated subset of BACKENDS."""
    names = [b.strip() for b in text.split(",") if b.strip()]
    if not names or not set(names) <= set(BACKENDS):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list drawn from "
            f"{','.join(BACKENDS)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SEDSpec reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("devices", help="list devices and seeded CVEs")
    p.add_argument("--qemu-version", default="99.0.0")
    p.set_defaults(fn=_cmd_devices)

    p = sub.add_parser("train", help="train an execution specification")
    p.add_argument("--device", required=True)
    p.add_argument("--qemu-version", default="99.0.0")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--backend", choices=BACKENDS,
                   default=DEFAULT_BACKEND,
                   help="execution backend for the training device")
    p.add_argument("--out", help="write the spec JSON here")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("inspect", help="describe / visualize a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--dot", help="write a Graphviz rendering here")
    p.add_argument("--function", help="restrict the DOT to one function")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("exploit", help="run a CVE proof-of-concept or a "
                                       "corpus vulnerability family")
    p.add_argument("--cve", help="a seeded CVE or a SYN: corpus PoC id")
    p.add_argument("--family",
                   help="replay every corpus PoC of this family "
                        "(oob-write, reentrancy, descriptor-loop, "
                        "state-confusion) instead of one CVE")
    p.add_argument("--device",
                   help="with --family: restrict to one device")
    p.add_argument("--seed", type=int, default=11,
                   help="with --family: corpus generation seed")
    p.add_argument("--protect", action="store_true",
                   help="deploy SEDSpec (protection mode) first")
    p.add_argument("--backend", choices=BACKENDS,
                   default=DEFAULT_BACKEND,
                   help="execution backend for device and checker")
    p.set_defaults(fn=_cmd_exploit)

    p = sub.add_parser(
        "corpus", help="generate the synthetic vulnerability corpus and "
                       "certify detection / zero benign false positives")
    p.add_argument("--seed", type=int, default=11,
                   help="corpus generation seed")
    p.add_argument("--backends", type=_backend_list,
                   default=",".join(BACKENDS),
                   help="comma-separated checker backends to sweep")
    p.add_argument("--benign-mix", action="append", default=None,
                   metavar="DEVICES",
                   help="composite device name to drive benign "
                        "(repeatable; default virtio-net+virtio-blk)")
    p.add_argument("--benign-ops", type=int, default=40,
                   help="benign requests per mix")
    p.add_argument("--out", help="write a JSON certification report here")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser(
        "serve", help="run the fleet enforcement service over a "
                      "generated workload")
    p.add_argument("--devices", default="fdc,sdhci",
                   help="comma-separated device mix")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--tenants", type=int, default=4)
    p.add_argument("--batches", type=int, default=4,
                   help="batches per tenant")
    p.add_argument("--ops", type=int, default=4,
                   help="requests per batch")
    p.add_argument("--inject", action="append", default=[],
                   metavar="CVE", help="attack one tenant with this CVE "
                                       "PoC (repeatable)")
    p.add_argument("--inject-fraction", type=float, default=0.0,
                   help="fraction of tenants to attack with CVE PoCs")
    p.add_argument("--qemu-version", default="99.0.0")
    p.add_argument("--mode", choices=("protection", "enhancement"),
                   default="protection")
    p.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)
    p.add_argument("--batch-rounds", type=int, default=0,
                   help="credit-batch size: strict-key I/O rounds "
                        "execute on credit and are vetted in one "
                        "batched checker invocation per flush "
                        "(0 = per-round vets)")
    p.add_argument("--inline", action="store_true",
                   help="in-process worker pool (no multiprocessing)")
    p.add_argument("--queue-depth", type=int, default=4,
                   help="outstanding batches per worker (backpressure)")
    p.add_argument("--spec-cache", default=None,
                   help="spec cache dir (required for multiprocessing "
                        "unless --inline)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--min-detections", type=int, default=0,
                   help="exit nonzero unless at least this many "
                        "detections were recorded")
    p.add_argument("--policy", default=None, metavar="FILE",
                   help="tenant-policy document (JSON) the fleet boots "
                        "under; malformed input is rejected before any "
                        "worker starts")
    gw = p.add_argument_group(
        "gateway", "open-loop admission gateway over sharded "
                   "supervisors (--workers becomes lanes per shard; "
                   "--batches/--ops are ignored, arrivals drive load)")
    gw.add_argument("--gateway", action="store_true",
                    help="serve through the admission gateway")
    gw.add_argument("--shards", type=int, default=2,
                    help="supervisor shards behind the gateway")
    gw.add_argument("--arrival",
                    choices=("poisson", "bursty", "diurnal"),
                    default="poisson", help="per-tenant arrival process")
    gw.add_argument("--rate", type=float, default=200.0,
                    help="mean arrivals per tenant per simulated second")
    gw.add_argument("--horizon-ms", type=float, default=20.0,
                    help="simulated arrival horizon")
    gw.add_argument("--quota-rate", type=float, default=2000.0,
                    help="token-bucket refill per tenant per second")
    gw.add_argument("--quota-burst", type=int, default=16,
                    help="token-bucket capacity")
    gw.add_argument("--queue-cap", type=int, default=64,
                    help="max queued ops per tenant before shedding")
    gw.add_argument("--coalesce-max", type=int, default=8,
                    help="max queued ops folded into one dispatch")
    gw.add_argument("--slo-ms", type=float, default=2.0,
                    help="arrival-to-completion latency objective")
    gw.add_argument("--rebalance-at", type=float, default=None,
                    metavar="FRACTION",
                    help="add a shard at this fraction of the horizon "
                         "and require tenants to move cleanly")
    gw.add_argument("--policy-reload-at", type=float, default=None,
                    metavar="FRACTION",
                    help="hot-reload the tenant policy fleet-wide at "
                         "this fraction of the horizon")
    gw.add_argument("--policy-reload", default=None, metavar="FILE",
                    help="policy document for --policy-reload-at "
                         "(default: re-fire --policy)")
    gw.add_argument("--show-tenants", type=int, default=16,
                    help="max flagged-tenant rows to print")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "bench-fleet", help="fleet throughput scaling + security run; "
                            "writes BENCH_fleet.json")
    p.add_argument("--workers", default="1,2,4,8",
                   help="comma-separated worker counts")
    p.add_argument("--devices", default="fdc,sdhci,scsi,ehci")
    p.add_argument("--tenants", type=int, default=8)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--ops", type=int, default=4)
    p.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)
    p.add_argument("--inline", action="store_true",
                   help="in-process worker pool (no multiprocessing)")
    p.add_argument("--spec-cache", default=None,
                   help="persistent spec cache dir (default: temp dir)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--quick", action="store_true",
                   help="smaller workload for CI smoke")
    p.add_argument("--gateway", action="store_true",
                   help="also run the gateway benchmark (four-digit "
                        "simulated-tenant scaling across shards) and "
                        "add it to the payload")
    p.add_argument("--migration-provenance", default=None,
                   metavar="FILE",
                   help="merge a `repro migrate --out` certification "
                        "summary into the payload (and gate the exit "
                        "code on all_certified)")
    p.add_argument("--out", default="BENCH_fleet.json")
    p.set_defaults(fn=_cmd_bench_fleet)

    p = sub.add_parser(
        "stats", help="run an instrumented benign workload and print "
                      "the per-strategy telemetry breakdown")
    p.add_argument("--device", default="fdc")
    p.add_argument("--rounds", type=int, default=200,
                   help="checked I/O rounds to drive (at least)")
    p.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)
    p.add_argument("--qemu-version", default="99.0.0")
    p.add_argument("--mode", choices=("protection", "enhancement"),
                   default="enhancement")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="also run a small fault-injection trial with "
                        "this seed so the degradation counters populate")
    p.add_argument("--json-out",
                   help="also export the snapshot as JSON lines")
    p.add_argument("--prom-out",
                   help="also export Prometheus-style text")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "chaos", help="run a seeded fault-injection campaign over the "
                      "fleet and check the safety invariants")
    p.add_argument("--seeds", default="101,102,103,104,105",
                   help="comma-separated campaign seeds")
    p.add_argument("--policy",
                   choices=("fail-closed", "fail-open", "retry"),
                   default="fail-closed")
    p.add_argument("--max-retries", type=int, default=2,
                   help="replay attempts under the retry policy")
    p.add_argument("--devices", default="fdc,sdhci,scsi,ehci,pcnet")
    p.add_argument("--tenants", type=int, default=10)
    p.add_argument("--batches", type=int, default=4,
                   help="batches per tenant")
    p.add_argument("--ops", type=int, default=3,
                   help="requests per batch")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--pool", action="store_true",
                   help="multiprocessing workers instead of the "
                        "reproducible inline fallback")
    p.add_argument("--recovery-runs", type=int, default=0,
                   help="also run this many decoder PSB-resync trials")
    p.add_argument("--out", help="write the replayable campaign "
                                 "report (JSON) here")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "bench-telemetry",
        help="measure telemetry-on vs -off pipeline overhead; writes "
             "BENCH_telemetry.json")
    p.add_argument("--device", default="fdc")
    p.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)
    p.add_argument("--qemu-version", default="99.0.0")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--quick", action="store_true",
                   help="fewer, shorter passes for CI smoke")
    p.add_argument("--max-overhead-pct", type=float, default=None,
                   help="exit nonzero if overhead exceeds this")
    p.add_argument("--out", default="BENCH_telemetry.json")
    p.set_defaults(fn=_cmd_bench_telemetry)

    p = sub.add_parser("spec-diff",
                       help="compare/merge two trained specs")
    p.add_argument("--base", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--out", help="write the merged spec here")
    p.set_defaults(fn=_cmd_spec_diff)

    p = sub.add_parser(
        "spec", help="spec lifecycle: generation chains, gated "
                     "promotion, fleet hot reload")
    spec_sub = p.add_subparsers(dest="spec_command", required=True)

    sp = spec_sub.add_parser(
        "generations", help="show a device's generation chain")
    sp.add_argument("--cache", required=True,
                    help="spec cache dir holding the chains")
    sp.add_argument("--device", required=True)
    sp.add_argument("--qemu-version", default="99.0.0")
    sp.set_defaults(fn=_cmd_spec_generations)

    sp = spec_sub.add_parser(
        "promote", help="merge candidate specs into the active "
                        "generation through the coverage and "
                        "differential-replay gates")
    sp.add_argument("--cache", required=True)
    sp.add_argument("--device", required=True)
    sp.add_argument("--qemu-version", default="99.0.0")
    sp.add_argument("--candidate", action="append", required=True,
                    metavar="SPEC_JSON",
                    help="candidate spec file (repeatable)")
    sp.add_argument("--min-coverage-gain", type=float, default=0.0)
    sp.add_argument("--min-edge-gain", type=int, default=0)
    sp.add_argument("--benign-rounds", type=int, default=30)
    sp.add_argument("--cve", action="append", default=[],
                    help="CVE to difference against (default: the "
                         "device's seeded CVE)")
    sp.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)
    sp.add_argument("--no-activate", action="store_true",
                    help="publish without activating (staged rollout: "
                         "a later hot reload names the digest)")
    sp.add_argument("--provenance", default="")
    sp.set_defaults(fn=_cmd_spec_promote)

    sp = spec_sub.add_parser(
        "reload", help="hot-reload a published generation into a "
                       "running fleet mid-schedule")
    sp.add_argument("--cache", required=True)
    sp.add_argument("--device", required=True)
    sp.add_argument("--qemu-version", default="99.0.0")
    sp.add_argument("--digest", default="",
                    help="generation digest (prefix ok; default: "
                         "newest published)")
    sp.add_argument("--tenants", type=int, default=4)
    sp.add_argument("--batches", type=int, default=4)
    sp.add_argument("--ops", type=int, default=4)
    sp.add_argument("--workers", type=int, default=2)
    sp.add_argument("--inline", action="store_true",
                    help="in-process worker pool (no multiprocessing)")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--activate", action="store_true",
                    help="activate the generation once the reload run "
                         "completes cleanly")
    sp.set_defaults(fn=_cmd_spec_reload)

    sp = spec_sub.add_parser(
        "smoke", help="end-to-end lifecycle smoke: train partial "
                      "specs, promote the merge, hot-reload a running "
                      "fleet, verify every seeded CVE is still caught")
    sp.add_argument("--devices", default="fdc,ehci,pcnet,sdhci,scsi")
    sp.add_argument("--tenants", type=int, default=6,
                    help="tenants per device")
    sp.add_argument("--attacked", type=int, default=5,
                    help="seeded-CVE tenants per device")
    sp.add_argument("--batches", type=int, default=4)
    sp.add_argument("--ops", type=int, default=4)
    sp.add_argument("--workers", type=int, default=2)
    sp.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)
    sp.add_argument("--cache", default=None,
                    help="spec cache dir (default: temp dir)")
    sp.add_argument("--seed", type=int, default=23)
    sp.add_argument("--quick", action="store_true",
                    help="two devices, three tenants each (CI smoke)")
    sp.add_argument("--out", help="write the JSON payload here")
    sp.set_defaults(fn=_cmd_spec_smoke)

    p = sub.add_parser(
        "policy", help="tenant resilience policy: show resolved knobs, "
                       "validate + store documents, fleet hot reload")
    policy_sub = p.add_subparsers(dest="policy_command", required=True)

    pp = policy_sub.add_parser(
        "show", help="print a policy set's resolved per-tenant knobs")
    pp.add_argument("--file", default=None,
                    help="policy document (default: the built-in "
                         "fleet default)")
    pp.add_argument("--tenant", action="append", default=[],
                    help="also show this tenant's resolved policy "
                         "(repeatable)")
    pp.set_defaults(fn=_cmd_policy_show)

    pp = policy_sub.add_parser(
        "apply", help="validate a policy document and store it "
                      "content-addressed in a cache dir")
    pp.add_argument("--file", required=True)
    pp.add_argument("--cache", required=True,
                    help="policy cache dir (shared with pool workers)")
    pp.set_defaults(fn=_cmd_policy_apply)

    pp = policy_sub.add_parser(
        "reload", help="hot-reload a policy document into a running "
                       "fleet mid-schedule (epoch-consistent, nothing "
                       "lost)")
    pp.add_argument("--file", required=True)
    pp.add_argument("--devices", default="fdc,sdhci")
    pp.add_argument("--tenants", type=int, default=4)
    pp.add_argument("--batches", type=int, default=4)
    pp.add_argument("--ops", type=int, default=4)
    pp.add_argument("--workers", type=int, default=2)
    pp.add_argument("--inline", action="store_true",
                    help="in-process worker pool (no multiprocessing)")
    pp.add_argument("--spec-cache", default=None,
                    help="spec cache dir (default: temp dir)")
    pp.add_argument("--seed", type=int, default=7)
    pp.set_defaults(fn=_cmd_policy_reload)

    p = sub.add_parser(
        "migrate", help="certify live tenant migration: byte-identical "
                        "verdicts and zero lost/duplicated ops vs a "
                        "never-migrated baseline, per backend")
    p.add_argument("--backends", type=_backend_list,
                   default=",".join(BACKENDS),
                   help="comma-separated checker backends to certify")
    p.add_argument("--devices", default="fdc")
    p.add_argument("--tenants", type=int, default=4)
    p.add_argument("--batches", type=int, default=4,
                   help="batches per tenant")
    p.add_argument("--ops", type=int, default=6,
                   help="requests per batch")
    p.add_argument("--inject-fraction", type=float, default=0.5,
                   help="fraction of tenants attacked with CVE PoCs "
                        "(fired after the migration point)")
    p.add_argument("--migrate-after", type=int, default=1,
                   help="migrate each tenant after this many batches")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", help="write the provenance summary (JSON) "
                                 "for bench-fleet --migration-provenance")
    p.set_defaults(fn=_cmd_migrate)

    p = sub.add_parser("tables", help="regenerate paper tables")
    p.add_argument("--which", choices=("1", "3", "all"), default="all")
    p.set_defaults(fn=_cmd_tables)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
