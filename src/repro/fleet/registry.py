"""Shared execution-spec registry: train once, deploy everywhere.

Specification-guided systems only pay off at fleet scale if the expensive
offline phase (trace, analyse, construct — seconds per device here, hours
against real QEMU) runs **once** per device build and every worker reuses
the result.  The registry provides that: an in-memory memo backed by an
optional on-disk cache of ``spec_to_json`` payloads that multiple worker
processes share.

Cache keys are **content hashes**: the fingerprint digests the compiled
device program (every block, statement, terminator and address), the state
layout, the entry-handler map and the ``qemu_version`` it was built at.
Change anything about the device model — patch a CVE, add a handler,
re-order a block — and the fingerprint moves, so a stale persisted spec
can never be deployed against a device it was not trained on.  Stale
files are simply never looked up again (and an envelope check rejects a
tampered or hand-renamed file that lies about its fingerprint).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.devices.base import Device, create_device
from repro.errors import SpecError
from repro.spec import ExecutionSpec, spec_from_json, spec_to_json
from repro.spec.serialize import layout_to_obj

#: Bumping this invalidates every persisted spec (format evolution).
#: 2: envelopes carry a ``spec_sha256`` content digest so a bit-flipped
#: payload is rejected instead of silently deploying a mutated spec.
CACHE_FORMAT = 2


def _spec_digest(spec_obj) -> str:
    """Content hash of the serialized spec payload inside an envelope."""
    return hashlib.sha256(
        json.dumps(spec_obj, sort_keys=True).encode()).hexdigest()


def spec_digest(spec: ExecutionSpec) -> str:
    """Content address of a spec: the digest generation chains key on."""
    return _spec_digest(spec_to_json(spec))


def program_fingerprint(device: Device) -> str:
    """Content hash of one built device: program + layout + version."""
    payload = "\n".join((
        f"format:{CACHE_FORMAT}",
        f"device:{device.NAME}",
        f"qemu:{device.qemu_version}",
        "layout:" + json.dumps(layout_to_obj(device.program.layout),
                               sort_keys=True),
        "entries:" + json.dumps(device.program.entry_handlers,
                                sort_keys=True),
        str(device.program),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RegistryStats:
    """Where each ``get`` was served from."""

    trains: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    stale_rejected: int = 0
    #: unreadable/truncated/bit-flipped envelopes rejected on load; each
    #: one recovers by retraining, never by deploying a mutated spec
    corrupt_rejected: int = 0
    #: generation-chain traffic (spec lifecycle)
    publishes: int = 0
    activations: int = 0
    generation_hits: int = 0


@dataclass
class SpecGeneration:
    """One link of a per-(device, qemu_version) spec generation chain.

    Promoted/retrained specs are first-class artifacts: each generation
    records its content digest, its parent digests (the candidates that
    were merged into it), where it came from, and what it bought in
    coverage — so ``repro spec generations`` can show the lineage and a
    hot reload can name exactly which artifact it is deploying.
    """

    device: str
    qemu_version: str
    generation: int                 # 1-based position in the chain
    digest: str                     # content address of the spec payload
    parents: Tuple[str, ...] = ()   # digests this generation merged
    provenance: str = ""            # training/promotion site description
    coverage_gain: float = 0.0      # block-coverage gain over parent
    edge_gain: int = 0              # new ITC-CFG edges over parent
    merged_from: int = 1            # training sites folded in
    block_count: int = 0
    edge_count: int = 0

    def to_obj(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "qemu_version": self.qemu_version,
            "generation": self.generation,
            "digest": self.digest,
            "parents": list(self.parents),
            "provenance": self.provenance,
            "coverage_gain": self.coverage_gain,
            "edge_gain": self.edge_gain,
            "merged_from": self.merged_from,
            "block_count": self.block_count,
            "edge_count": self.edge_count,
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, object]) -> "SpecGeneration":
        return cls(
            device=str(obj["device"]),
            qemu_version=str(obj["qemu_version"]),
            generation=int(obj["generation"]),
            digest=str(obj["digest"]),
            parents=tuple(str(p) for p in obj.get("parents", ())),
            provenance=str(obj.get("provenance", "")),
            coverage_gain=float(obj.get("coverage_gain", 0.0)),
            edge_gain=int(obj.get("edge_gain", 0)),
            merged_from=int(obj.get("merged_from", 1)),
            block_count=int(obj.get("block_count", 0)),
            edge_count=int(obj.get("edge_count", 0)),
        )

    def describe(self) -> str:
        parents = ",".join(p[:12] for p in self.parents) or "-"
        return (f"gen {self.generation}  {self.digest[:16]}  "
                f"sites={self.merged_from}  blocks={self.block_count}  "
                f"edges={self.edge_count}  gain={self.coverage_gain:.3f}  "
                f"parents={parents}  {self.provenance}")


class SpecRegistry:
    """Train-or-load execution specs keyed by (device, qemu_version).

    With a ``cache_dir`` the registry persists every trained spec and
    serves later requests — including from other processes — from disk;
    without one it degrades to a per-process memo.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 seed: int = 7, repeats: int = 2):
        self.cache_dir = cache_dir
        self.seed = seed
        self.repeats = repeats
        self.stats = RegistryStats()
        self._memory: Dict[Tuple[str, str], ExecutionSpec] = {}
        self._fingerprints: Dict[Tuple[str, str], str] = {}
        #: generation chains, newest last; loaded lazily from disk
        self._generations: Dict[Tuple[str, str], List[SpecGeneration]] = {}
        self._active: Dict[Tuple[str, str], str] = {}
        self._by_digest: Dict[str, ExecutionSpec] = {}
        #: content-addressed tenant-policy sets; rides the same cache_dir
        #: so pool worker processes resolve policy digests exactly the
        #: way they resolve spec digests
        from repro.policy.model import PolicyStore
        self.policies = PolicyStore(cache_dir)

    # -- keys ---------------------------------------------------------------

    def fingerprint(self, device_name: str, qemu_version: str) -> str:
        key = (device_name, qemu_version)
        if key not in self._fingerprints:
            device = create_device(device_name, qemu_version=qemu_version)
            self._fingerprints[key] = program_fingerprint(device)
        return self._fingerprints[key]

    def cache_path(self, device_name: str,
                   qemu_version: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        digest = self.fingerprint(device_name, qemu_version)
        return os.path.join(
            self.cache_dir,
            f"{device_name}-{qemu_version}-{digest[:16]}.spec.json")

    def generations_path(self, device_name: str,
                         qemu_version: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        digest = self.fingerprint(device_name, qemu_version)
        return os.path.join(
            self.cache_dir,
            f"{device_name}-{qemu_version}-{digest[:16]}.generations.json")

    def generation_spec_path(self, digest: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir,
                            f"gen-{digest[:16]}.spec.json")

    # -- the train-or-load path --------------------------------------------

    def get(self, device_name: str,
            qemu_version: str = "99.0.0") -> ExecutionSpec:
        key = (device_name, qemu_version)
        spec = self._memory.get(key)
        if spec is not None:
            self.stats.memory_hits += 1
            return spec
        spec = self._load_active(device_name, qemu_version)
        if spec is None:
            spec = self._load(device_name, qemu_version)
        if spec is None:
            spec = self._train(device_name, qemu_version)
        self._memory[key] = spec
        return spec

    def prime(self, pairs: Iterable[Tuple[str, str]]
              ) -> List[ExecutionSpec]:
        """Train/load every (device, qemu_version) pair up front, so
        worker processes find a warm disk cache instead of retraining;
        returns the specs.  Composite device names split into their
        parts here — the registry itself stays strictly per-device."""
        return [self.get(part, qemu_version)
                for device_name, qemu_version in pairs
                for part in device_name.split("+")]

    def _load(self, device_name: str,
              qemu_version: str) -> Optional[ExecutionSpec]:
        path = self.cache_path(device_name, qemu_version)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            # Truncated or garbled on disk: recover by retraining.
            self.stats.corrupt_rejected += 1
            return None
        if not isinstance(envelope, dict):
            self.stats.corrupt_rejected += 1
            return None
        if (envelope.get("format") != CACHE_FORMAT
                or envelope.get("fingerprint")
                != self.fingerprint(device_name, qemu_version)):
            self.stats.stale_rejected += 1
            return None
        try:
            spec_obj = envelope["spec"]
            if envelope.get("spec_sha256") != _spec_digest(spec_obj):
                # A valid-JSON envelope whose payload was mutated (e.g.
                # a bit flip inside a number) would otherwise deploy a
                # spec the device was never trained for.
                self.stats.corrupt_rejected += 1
                return None
            spec = spec_from_json(spec_obj)
        except (KeyError, TypeError, ValueError, SpecError):
            self.stats.corrupt_rejected += 1
            return None
        self.stats.disk_hits += 1
        return spec

    def _train(self, device_name: str, qemu_version: str) -> ExecutionSpec:
        from repro.workloads.profiles import train_device_spec

        spec = train_device_spec(device_name, qemu_version=qemu_version,
                                 seed=self.seed,
                                 repeats=self.repeats).spec
        self.stats.trains += 1
        self._persist(device_name, qemu_version, spec)
        return spec

    def _persist(self, device_name: str, qemu_version: str,
                 spec: ExecutionSpec) -> None:
        path = self.cache_path(device_name, qemu_version)
        if path is None:
            return
        spec_obj = spec_to_json(spec)
        envelope = {
            "format": CACHE_FORMAT,
            "device": device_name,
            "qemu_version": qemu_version,
            "fingerprint": self.fingerprint(device_name, qemu_version),
            "train_seed": self.seed,
            "train_repeats": self.repeats,
            "spec_sha256": _spec_digest(spec_obj),
            "spec": spec_obj,
        }
        _atomic_write_json(path, envelope)

    # -- generation chains ---------------------------------------------------

    def _chain(self, device_name: str,
               qemu_version: str) -> List[SpecGeneration]:
        key = (device_name, qemu_version)
        if key in self._generations:
            return self._generations[key]
        chain: List[SpecGeneration] = []
        path = self.generations_path(device_name, qemu_version)
        if path is not None and os.path.exists(path):
            try:
                with open(path) as handle:
                    obj = json.load(handle)
                if (isinstance(obj, dict)
                        and obj.get("format") == CACHE_FORMAT
                        and obj.get("fingerprint")
                        == self.fingerprint(device_name, qemu_version)):
                    chain = [SpecGeneration.from_obj(g)
                             for g in obj.get("generations", [])]
                    active = obj.get("active")
                    if active:
                        self._active[key] = str(active)
                else:
                    self.stats.stale_rejected += 1
            except (OSError, ValueError, KeyError, TypeError):
                self.stats.corrupt_rejected += 1
        self._generations[key] = chain
        return chain

    def _persist_chain(self, device_name: str, qemu_version: str) -> None:
        path = self.generations_path(device_name, qemu_version)
        if path is None:
            return
        key = (device_name, qemu_version)
        _atomic_write_json(path, {
            "format": CACHE_FORMAT,
            "device": device_name,
            "qemu_version": qemu_version,
            "fingerprint": self.fingerprint(device_name, qemu_version),
            "active": self._active.get(key),
            "generations": [g.to_obj() for g in self._chain(
                device_name, qemu_version)],
        })

    def publish(self, device_name: str, qemu_version: str,
                spec: ExecutionSpec, provenance: str = "",
                parents: Iterable[str] = (),
                coverage_gain: float = 0.0,
                edge_gain: int = 0) -> SpecGeneration:
        """Append *spec* to the generation chain as a named artifact.

        Publishing is idempotent on content: re-publishing a digest the
        chain already holds returns the existing generation.  Publishing
        does **not** change which generation ``get`` serves — that takes
        an explicit :meth:`activate` (or a fleet hot reload by digest).
        """
        digest = spec_digest(spec)
        chain = self._chain(device_name, qemu_version)
        for gen in chain:
            if gen.digest == digest:
                self._by_digest[digest] = spec
                return gen
        gen = SpecGeneration(
            device=device_name, qemu_version=qemu_version,
            generation=len(chain) + 1, digest=digest,
            parents=tuple(parents), provenance=provenance,
            coverage_gain=coverage_gain, edge_gain=edge_gain,
            merged_from=int(spec.stats.get("merged_from", 1)),
            block_count=spec.block_count(),
            edge_count=len(spec.observed_edges()))
        chain.append(gen)
        self._by_digest[digest] = spec
        path = self.generation_spec_path(digest)
        if path is not None:
            _atomic_write_json(path, {
                "format": CACHE_FORMAT,
                "device": device_name,
                "qemu_version": qemu_version,
                "fingerprint": self.fingerprint(device_name,
                                                qemu_version),
                "spec_sha256": digest,
                "spec": spec_to_json(spec),
            })
        self._persist_chain(device_name, qemu_version)
        self.stats.publishes += 1
        return gen

    def ensure_base_generation(self, device_name: str,
                               qemu_version: str) -> SpecGeneration:
        """Bootstrap a chain: publish the train-once spec as generation 1.

        Chains are opt-in — plain ``get`` traffic never creates one, so
        the legacy cache path (and its tamper checks) are untouched until
        lifecycle code starts versioning a device.  Idempotent.
        """
        chain = self._chain(device_name, qemu_version)
        if chain:
            active = self.active_generation(device_name, qemu_version)
            return active if active is not None else chain[-1]
        spec = self.get(device_name, qemu_version)
        gen = self.publish(
            device_name, qemu_version, spec,
            provenance=f"train:seed={self.seed}:repeats={self.repeats}")
        self.activate(device_name, qemu_version, gen.digest)
        return gen

    def activate(self, device_name: str, qemu_version: str,
                 digest: str) -> SpecGeneration:
        """Make a published generation the one ``get`` serves."""
        chain = self._chain(device_name, qemu_version)
        gen = next((g for g in chain if g.digest == digest), None)
        if gen is None:
            raise SpecError(
                f"cannot activate unknown generation {digest[:16]} for "
                f"({device_name}, {qemu_version}) — publish it first")
        key = (device_name, qemu_version)
        self._active[key] = digest
        self._memory[key] = self.spec_by_digest(digest)
        self._persist_chain(device_name, qemu_version)
        self.stats.activations += 1
        return gen

    def generations(self, device_name: str,
                    qemu_version: str) -> List[SpecGeneration]:
        return list(self._chain(device_name, qemu_version))

    def active_generation(self, device_name: str,
                          qemu_version: str) -> Optional[SpecGeneration]:
        chain = self._chain(device_name, qemu_version)
        digest = self._active.get((device_name, qemu_version))
        if digest is None:
            return None
        return next((g for g in chain if g.digest == digest), None)

    def spec_by_digest(self, digest: str) -> ExecutionSpec:
        """Fetch a published spec by content address (cross-process:
        worker processes resolve hot-reload digests through here)."""
        spec = self._by_digest.get(digest)
        if spec is not None:
            return spec
        path = self.generation_spec_path(digest)
        if path is None or not os.path.exists(path):
            raise SpecError(
                f"no published spec artifact for digest {digest[:16]}")
        try:
            with open(path) as handle:
                envelope = json.load(handle)
            spec_obj = envelope["spec"]
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.corrupt_rejected += 1
            raise SpecError(
                f"generation artifact for {digest[:16]} is unreadable")
        if (not isinstance(envelope, dict)
                or envelope.get("format") != CACHE_FORMAT
                or envelope.get("spec_sha256") != digest
                or _spec_digest(spec_obj) != digest):
            self.stats.corrupt_rejected += 1
            raise SpecError(
                f"generation artifact for {digest[:16]} fails its "
                f"content-digest check")
        spec = spec_from_json(spec_obj)
        self._by_digest[digest] = spec
        self.stats.generation_hits += 1
        return spec

    def _load_active(self, device_name: str,
                     qemu_version: str) -> Optional[ExecutionSpec]:
        digest = self._active.get((device_name, qemu_version))
        if digest is None:
            self._chain(device_name, qemu_version)   # may load it
            digest = self._active.get((device_name, qemu_version))
        if digest is None:
            return None
        try:
            spec = self.spec_by_digest(digest)
        except SpecError:
            return None
        self.stats.disk_hits += 1
        return spec


def _atomic_write_json(path: str, obj) -> None:
    """Atomic publish: concurrent workers either see the whole file or
    none of it, never a torn write."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(obj, handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
