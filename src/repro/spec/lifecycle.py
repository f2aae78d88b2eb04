"""Spec lifecycle: candidate merging, gated promotion, retraining queue.

The paper's §VIII remedy for false positives is *distribution*: device
developers and testers each train SEDSpec against their own corpora, and
the resulting partial specifications are folded back together.  This
module is the control loop around that fold:

* **promotion** — :func:`promote` merges candidate specs into the active
  generation via :func:`~repro.spec.merge.merge_all`, measures what the
  merge bought (block-coverage gain plus the ITC-CFG edge delta), and
  only publishes/activates the result when the gain clears a threshold
  *and* a differential replay shows the merged spec neither lets a
  seeded CVE escape nor flags benign traffic the active spec allowed;
* **retraining queue** — rounds the enforcement fleet could not vouch
  for (trace gaps) or that look like unseen-legitimate behaviour
  (near-miss control-flow anomalies, incomplete walks) are queued as
  :class:`RetrainRecord`\\ s, and :func:`candidate_from_records` replays
  them as a training workload to mint the next candidate.

Promotion refusals are first-class results (:class:`PromotionReport`),
not exceptions: a refused candidate is a normal, expected outcome of the
loop.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SpecError
from repro.interp.machine import DEFAULT_BACKEND
from repro.spec.escfg import ExecutionSpec
from repro.spec.merge import coverage_gain, merge_all


# -- retraining queue --------------------------------------------------------

@dataclass(frozen=True)
class RetrainRecord:
    """One enforcement round worth re-observing in training.

    Plain picklable data: workers produce these, the supervisor
    aggregates them, and :func:`candidate_from_records` replays them.
    The op is named the same way :class:`~repro.fleet.loadgen.OpRequest`
    names it — kind + index into the device profile's op list + seed —
    so the replay regenerates the exact guest interaction.
    """

    tenant: str
    device: str
    qemu_version: str
    reason: str                 # trace-gap | incomplete-walk | near-miss
    io_key: str
    seq: int                    # batch seq the round arrived in
    kind: str                   # OpRequest.kind
    index: int = 0
    seed: int = 0

    def to_obj(self) -> Dict[str, object]:
        return {"tenant": self.tenant, "device": self.device,
                "qemu_version": self.qemu_version, "reason": self.reason,
                "io_key": self.io_key, "seq": self.seq, "kind": self.kind,
                "index": self.index, "seed": self.seed}

    @classmethod
    def from_obj(cls, obj: Dict[str, object]) -> "RetrainRecord":
        return cls(tenant=str(obj["tenant"]), device=str(obj["device"]),
                   qemu_version=str(obj["qemu_version"]),
                   reason=str(obj["reason"]), io_key=str(obj["io_key"]),
                   seq=int(obj["seq"]), kind=str(obj["kind"]),
                   index=int(obj.get("index", 0)),
                   seed=int(obj.get("seed", 0)))


class RetrainQueue:
    """Candidate training traces, optionally persisted as JSON lines.

    With a *path* the queue appends each record durably (one JSON object
    per line) and reloads the backlog on construction, so the feedback
    loop survives supervisor restarts.  Deduplicates on (device,
    qemu_version, kind, index, seed) — the replay identity — so a noisy
    tenant cannot flood the queue with the same round.
    """

    def __init__(self, path: Optional[str] = None,
                 max_records: int = 10_000):
        self.path = path
        self.max_records = max_records
        self.dropped = 0
        self._records: List[RetrainRecord] = []
        self._seen: set = set()
        if path is not None and os.path.exists(path):
            with open(path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        self._admit(RetrainRecord.from_obj(
                            json.loads(line)))
                    except (ValueError, KeyError, TypeError):
                        continue    # torn tail line: skip, keep the rest

    def _key(self, record: RetrainRecord) -> Tuple:
        return (record.device, record.qemu_version, record.kind,
                record.index, record.seed)

    def _admit(self, record: RetrainRecord) -> bool:
        key = self._key(record)
        if key in self._seen or len(self._records) >= self.max_records:
            self.dropped += 1
            return False
        self._seen.add(key)
        self._records.append(record)
        return True

    def add(self, record: RetrainRecord) -> bool:
        admitted = self._admit(record)
        if admitted and self.path is not None:
            with open(self.path, "a") as handle:
                handle.write(json.dumps(record.to_obj()) + "\n")
        return admitted

    def extend(self, records: Sequence[RetrainRecord]) -> int:
        return sum(1 for r in records if self.add(r))

    def records(self, device: Optional[str] = None,
                qemu_version: Optional[str] = None
                ) -> List[RetrainRecord]:
        return [r for r in self._records
                if (device is None or r.device == device)
                and (qemu_version is None
                     or r.qemu_version == qemu_version)]

    def __len__(self) -> int:
        return len(self._records)


def candidate_from_records(device: str, qemu_version: str,
                           records: Sequence[RetrainRecord],
                           backend: str = DEFAULT_BACKEND) -> ExecutionSpec:
    """Replay queued rounds as a training workload; returns the spec.

    Only benign-shaped rounds are replayed: exploit records are refused
    outright — a flagged CVE round must never become training data, no
    matter how it got queued.
    """
    from repro.core import build_execution_spec
    from repro.errors import DeviceFault
    from repro.workloads.profiles import PROFILES

    prof = PROFILES[device]
    rounds = [r for r in records
              if r.device == device and r.kind in ("common", "rare")]
    if not rounds:
        raise SpecError(
            f"no replayable retrain records for device {device!r}")

    def workload(vm, _device) -> None:
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        for record in rounds:
            ops = (prof.common_ops if record.kind == "common"
                   else prof.rare_ops)
            fn = ops[record.index % len(ops)]
            try:
                fn(vm, driver, random.Random(record.seed))
            except DeviceFault:
                # The round crashed the device in enforcement too.  The
                # log never records a faulted round (its exit event
                # never comes), so the spec learns nothing from it; the
                # trace keeps its partial path only as an unclosed last
                # round of the ITC-CFG.  The halted device refuses every
                # later op, so no record after the fault trains either.
                continue

    artifacts = build_execution_spec(
        lambda: prof.make_vm(qemu_version, backend=backend), workload)
    return artifacts.spec


# -- promotion ---------------------------------------------------------------

@dataclass(frozen=True)
class PromotionConfig:
    #: minimum fraction of merged visited blocks that must be new
    min_coverage_gain: float = 0.0
    #: minimum count of new ITC-CFG edges the merge must contribute
    min_edge_gain: int = 0
    #: differential benign corpus: rounds replayed under both specs
    benign_rounds: int = 30
    benign_seed: int = 1234
    #: fraction of benign rounds drawn from the profile's rare ops (the
    #: false-positive-prone traffic the lifecycle exists to legitimize)
    rare_fraction: float = 0.25
    #: CVE PoCs both specs must be differenced against; () means the
    #: device's seeded CVE
    cves: Tuple[str, ...] = ()
    backend: str = DEFAULT_BACKEND
    #: activate on promotion (registry.get serves it immediately).  A
    #: staged rollout sets this False: the generation is published but
    #: the fleet keeps its current spec until a hot reload names the new
    #: digest — and only then is it activated as the default.
    activate: bool = True


@dataclass
class PromotionReport:
    """What :func:`promote` decided, and the evidence."""

    device: str
    qemu_version: str
    promoted: bool = False
    reason: str = ""
    digest: str = ""                 # merged candidate's content address
    base_digest: str = ""
    generation: int = 0              # chain position when promoted
    candidate_count: int = 0
    merged_sites: int = 0
    coverage_gain: float = 0.0
    edge_gain: int = 0
    benign_rounds: int = 0
    #: benign rounds the merged spec flags that the base allowed
    new_false_positives: int = 0
    #: benign rounds the base flagged that the merged spec allows (the
    #: §VIII remedy working: unseen-legitimate traffic legitimized)
    removed_false_positives: int = 0
    #: cve -> (detected under base, detected under merged)
    cve_results: Dict[str, Tuple[bool, bool]] = field(default_factory=dict)
    #: CVEs the base detected but the merged spec let run — any entry
    #: here refuses promotion
    escapes: List[str] = field(default_factory=list)

    def describe(self) -> str:
        verdict = (f"PROMOTED gen {self.generation} "
                   f"({self.digest[:16]})" if self.promoted
                   else f"REFUSED: {self.reason}")
        cves = ", ".join(
            f"{cve}={'/'.join('hit' if d else 'miss' for d in pair)}"
            for cve, pair in sorted(self.cve_results.items())) or "-"
        return (f"promotion [{self.device} @ {self.qemu_version}] "
                f"{verdict}\n"
                f"  candidates={self.candidate_count} "
                f"sites={self.merged_sites} "
                f"coverage_gain={self.coverage_gain:.4f} "
                f"edge_gain={self.edge_gain}\n"
                f"  benign differential over {self.benign_rounds} rounds:"
                f" new_fps={self.new_false_positives} "
                f"removed_fps={self.removed_false_positives}\n"
                f"  cve differential (base/merged): {cves}")


def _benign_ops(prof, config: PromotionConfig
                ) -> List[Tuple[str, int, int]]:
    """The shared benign corpus, as (kind, index, seed) triples."""
    rng = random.Random(config.benign_seed)
    ops: List[Tuple[str, int, int]] = []
    for _ in range(config.benign_rounds):
        if prof.rare_ops and rng.random() < config.rare_fraction:
            ops.append(("rare", rng.randrange(len(prof.rare_ops)),
                        rng.randrange(1 << 31)))
        else:
            index = rng.choices(range(len(prof.common_ops)),
                                weights=prof.op_weights)[0]
            ops.append(("common", index, rng.randrange(1 << 31)))
    return ops


def _replay_outcomes(spec: ExecutionSpec, device: str, qemu_version: str,
                     ops: Sequence[Tuple[str, int, int]],
                     backend: str) -> List[str]:
    """Replay the corpus under *spec* in PROTECTION mode.

    Returns one outcome per round: "ok", "halt", or "fault".  After a
    halt the guarded VM is rebuilt so every round is judged from a clean
    instance — outcomes stay per-round comparable across specs.
    """
    from repro.checker import Mode
    from repro.core import deploy
    from repro.errors import DeviceFault
    from repro.vm.machine import SEDSpecHalt
    from repro.workloads.profiles import PROFILES

    prof = PROFILES[device]

    def fresh():
        vm, dev = prof.make_vm(qemu_version, backend=backend)
        deploy(vm, dev, spec, mode=Mode.PROTECTION, backend=backend)
        driver = prof.make_driver(vm)
        prof.prepare(vm, driver)
        return vm, driver

    vm, driver = fresh()
    outcomes: List[str] = []
    for kind, index, seed in ops:
        fns = prof.common_ops if kind == "common" else prof.rare_ops
        fn = fns[index % len(fns)]
        try:
            fn(vm, driver, random.Random(seed))
            outcomes.append("ok")
        except SEDSpecHalt:
            outcomes.append("halt")
            vm, driver = fresh()
        except DeviceFault:
            outcomes.append("fault")
    return outcomes


def _default_cves(device: str) -> Tuple[str, ...]:
    """The device's *seeded* CVE: its first detectable PoC.

    One per device, matching the five-device seeded-CVE matrix the
    acceptance experiments replay.  Callers wanting more set
    ``PromotionConfig.cves`` explicitly.
    """
    from repro.exploits import EXPLOITS
    for exploit in EXPLOITS:
        if exploit.device == device and not exploit.expected_miss:
            return (exploit.cve,)
    return ()


def _cve_detected(spec: ExecutionSpec, cve: str,
                  backend: str) -> bool:
    """Run one PoC against a fresh VM guarded by *spec*.

    The device is built at the CVE's vulnerable ``qemu_version`` —
    running a PoC against a patched build proves nothing.
    """
    from repro.checker import Mode
    from repro.core import deploy
    from repro.exploits import exploit_by_cve, run_exploit
    from repro.workloads.profiles import PROFILES

    exploit = exploit_by_cve(cve)
    prof = PROFILES[exploit.device]
    vm, dev = prof.make_vm(exploit.qemu_version, backend=backend)
    deploy(vm, dev, spec, mode=Mode.PROTECTION, backend=backend)
    return run_exploit(vm, dev, exploit).detected


def promote(registry, device: str, qemu_version: str,
            candidates: Sequence[ExecutionSpec],
            config: Optional[PromotionConfig] = None,
            provenance: str = "") -> PromotionReport:
    """Merge *candidates* into the active generation; promote if safe.

    *registry* is a :class:`~repro.fleet.registry.SpecRegistry`.  On
    success the merged spec is published as the next generation of the
    (device, qemu_version) chain — parents recorded, coverage stats
    attached — and activated, so subsequent ``registry.get`` traffic and
    fleet hot reloads serve it.  On refusal nothing is published and the
    report says why.
    """
    from repro.fleet.registry import spec_digest

    config = config or PromotionConfig()
    report = PromotionReport(device=device, qemu_version=qemu_version,
                             candidate_count=len(candidates))
    if not candidates:
        report.reason = "no candidate specs"
        return report

    base_gen = registry.ensure_base_generation(device, qemu_version)
    base = registry.spec_by_digest(base_gen.digest)
    report.base_digest = base_gen.digest

    try:
        merged = merge_all([base, *candidates])
    except SpecError as exc:
        report.reason = f"incompatible candidates: {exc}"
        return report
    report.merged_sites = int(merged.stats.get("merged_from", 1))
    report.digest = spec_digest(merged)

    # Gate 1: the merge must actually buy coverage.
    report.coverage_gain = coverage_gain(base, merged)
    base_edges = base.observed_edges()
    report.edge_gain = len(merged.observed_edges() - base_edges)
    if report.coverage_gain < config.min_coverage_gain:
        report.reason = (f"coverage gain {report.coverage_gain:.4f} "
                         f"below threshold {config.min_coverage_gain}")
        return report
    if report.edge_gain < config.min_edge_gain:
        report.reason = (f"edge gain {report.edge_gain} below threshold "
                         f"{config.min_edge_gain}")
        return report

    # Gate 2: differential benign replay — the merged spec must not flag
    # a round the active spec allowed (no new false positives).
    from repro.workloads.profiles import PROFILES
    ops = _benign_ops(PROFILES[device], config)
    report.benign_rounds = len(ops)
    base_outcomes = _replay_outcomes(base, device, qemu_version, ops,
                                     config.backend)
    merged_outcomes = _replay_outcomes(merged, device, qemu_version, ops,
                                       config.backend)
    for before, after in zip(base_outcomes, merged_outcomes):
        if after == "halt" and before != "halt":
            report.new_false_positives += 1
        elif before == "halt" and after != "halt":
            report.removed_false_positives += 1
    if report.new_false_positives:
        report.reason = (f"{report.new_false_positives} new false "
                         f"positive(s) in benign differential replay")
        return report

    # Gate 3: differential CVE replay — no detection the active spec
    # makes may be lost (no new escapes).
    cves = config.cves or _default_cves(device)
    for cve in cves:
        detected_base = _cve_detected(base, cve, config.backend)
        detected_merged = _cve_detected(merged, cve, config.backend)
        report.cve_results[cve] = (detected_base, detected_merged)
        if detected_base and not detected_merged:
            report.escapes.append(cve)
    if report.escapes:
        report.reason = ("candidate launders seeded CVE(s): "
                         + ", ".join(report.escapes))
        return report

    gen = registry.publish(
        device, qemu_version, merged,
        provenance=provenance or f"promote:{len(candidates)} candidates",
        parents=(base_gen.digest,
                 *(spec_digest(c) for c in candidates)),
        coverage_gain=report.coverage_gain,
        edge_gain=report.edge_gain)
    if config.activate:
        registry.activate(device, qemu_version, gen.digest)
    report.promoted = True
    report.generation = gen.generation
    report.reason = "all gates passed"
    return report
