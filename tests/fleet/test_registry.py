"""SpecRegistry: train-once semantics and content-hash invalidation."""

import json
import os

import pytest

from repro.devices.base import create_device
from repro.fleet import SpecRegistry, program_fingerprint
from repro.fleet import registry as registry_mod
from repro.spec import spec_to_json


class TestFingerprint:
    def test_stable_for_same_build(self):
        a = program_fingerprint(create_device("fdc"))
        b = program_fingerprint(create_device("fdc"))
        assert a == b

    def test_differs_across_qemu_versions(self):
        # 2.3.0 folds the Venom-vulnerable path in; 99.0.0 the patched
        # one — different programs, different fingerprints.
        old = program_fingerprint(create_device(
            "fdc", qemu_version="2.3.0"))
        new = program_fingerprint(create_device(
            "fdc", qemu_version="99.0.0"))
        assert old != new

    def test_differs_across_devices(self):
        assert (program_fingerprint(create_device("fdc"))
                != program_fingerprint(create_device("scsi")))


class TestRegistry:
    def test_trains_once_then_memory_hits(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        first = registry.get("fdc")
        second = registry.get("fdc")
        assert first is second
        assert registry.stats.trains == 1
        assert registry.stats.memory_hits == 1

    def test_disk_cache_shared_across_registries(self, tmp_path):
        a = SpecRegistry(cache_dir=str(tmp_path))
        spec = a.get("fdc")
        b = SpecRegistry(cache_dir=str(tmp_path))
        loaded = b.get("fdc")
        assert b.stats.trains == 0
        assert b.stats.disk_hits == 1
        assert spec_to_json(loaded) == spec_to_json(spec)

    def test_memory_only_without_cache_dir(self):
        registry = SpecRegistry(cache_dir=None)
        registry.get("fdc")
        assert registry.cache_path("fdc", "99.0.0") is None
        assert registry.stats.trains == 1

    def test_cache_path_is_content_addressed(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        path = registry.cache_path("fdc", "99.0.0")
        digest = registry.fingerprint("fdc", "99.0.0")
        assert digest[:16] in os.path.basename(path)

    def test_changed_program_invalidates_cache(self, tmp_path,
                                               monkeypatch):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        registry.get("fdc")
        assert registry.stats.trains == 1
        # The device model "changes": its content hash moves, so the
        # persisted spec's filename no longer matches and a fresh
        # registry retrains instead of reusing the stale file.
        monkeypatch.setattr(registry_mod, "program_fingerprint",
                            lambda device: "f" * 64)
        fresh = SpecRegistry(cache_dir=str(tmp_path))
        fresh.get("fdc")
        assert fresh.stats.trains == 1
        assert fresh.stats.disk_hits == 0

    def test_tampered_envelope_rejected(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        registry.get("fdc")
        path = registry.cache_path("fdc", "99.0.0")
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["fingerprint"] = "0" * 64
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        fresh = SpecRegistry(cache_dir=str(tmp_path))
        fresh.get("fdc")
        assert fresh.stats.stale_rejected == 1
        assert fresh.stats.trains == 1

    @pytest.mark.parametrize("version", ["2.3.0", "99.0.0"])
    def test_versions_get_distinct_cache_files(self, tmp_path, version):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        other = "99.0.0" if version == "2.3.0" else "2.3.0"
        assert (registry.cache_path("fdc", version)
                != registry.cache_path("fdc", other))


class TestBytecodeArtifacts:
    """Lowered bytecode (interp + checker) through the registry:
    content-addressed, byte-identical round trips, tamper-rejected."""

    def _interp_artifact(self):
        from repro.interp import bytecode_program_for

        return bytecode_program_for(create_device("fdc").program)

    def _checker_artifact(self):
        from repro.checker.bytecode import bytecode_spec_for
        from repro.workloads.profiles import train_device_spec

        spec = train_device_spec("fdc").spec
        return bytecode_spec_for(spec)

    def test_interp_round_trip_byte_identical(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        art = self._interp_artifact()
        digest = registry.store_bytecode(art)
        fresh = SpecRegistry(cache_dir=str(tmp_path))
        loaded = fresh.load_bytecode(digest)
        assert loaded.to_payload() == art.to_payload()
        assert loaded.digest() == digest
        blob = json.dumps(loaded.to_payload(), sort_keys=True)
        assert blob == json.dumps(art.to_payload(), sort_keys=True)

    def test_checker_round_trip_byte_identical(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        art = self._checker_artifact()
        digest = registry.store_bytecode(art)
        fresh = SpecRegistry(cache_dir=str(tmp_path))
        loaded = fresh.load_bytecode(digest)
        assert loaded.to_payload() == art.to_payload()
        assert loaded.digest() == digest

    def test_memory_memo_returns_same_object(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        art = self._interp_artifact()
        digest = registry.store_bytecode(art)
        assert registry.load_bytecode(digest) is art

    def test_tampered_payload_rejected(self, tmp_path):
        from repro.errors import SpecError

        registry = SpecRegistry(cache_dir=str(tmp_path))
        digest = registry.store_bytecode(self._interp_artifact())
        path = registry.bytecode_path(digest)
        with open(path) as handle:
            envelope = json.load(handle)
        # Flip one constant inside the payload: the envelope still
        # claims the original digest, so only the recomputed content
        # digest can catch it.
        funcs = envelope["payload"]["funcs"]
        body = funcs[sorted(funcs)[0]]
        body["code"][0] = body["code"][0] + 1
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        fresh = SpecRegistry(cache_dir=str(tmp_path))
        with pytest.raises(SpecError, match="digest|decode"):
            fresh.load_bytecode(digest)
        assert fresh.stats.corrupt_rejected == 1

    def test_renamed_artifact_rejected(self, tmp_path):
        """A file renamed to another address lies about its digest."""
        from repro.errors import SpecError

        registry = SpecRegistry(cache_dir=str(tmp_path))
        digest = registry.store_bytecode(self._interp_artifact())
        bogus = "0" * 64
        os.rename(registry.bytecode_path(digest),
                  registry.bytecode_path(bogus))
        fresh = SpecRegistry(cache_dir=str(tmp_path))
        with pytest.raises(SpecError, match="envelope"):
            fresh.load_bytecode(bogus)
        assert fresh.stats.corrupt_rejected == 1

    def test_missing_artifact_raises(self, tmp_path):
        from repro.errors import SpecError

        registry = SpecRegistry(cache_dir=str(tmp_path))
        with pytest.raises(SpecError, match="no bytecode artifact"):
            registry.load_bytecode("ab" * 32)


class TestBatchDispatchArtifacts:
    """Spec-specialized batched dispatch (``bd-*``) through the
    registry: addressed by the bytecode it was specialized from, hit
    skips re-specialization, corruption degrades to a miss."""

    def _bspec(self):
        from repro.checker.bytecode import (BytecodeSpec,
                                            bytecode_spec_for)
        from repro.workloads.profiles import train_device_spec

        spec = train_device_spec("fdc").spec
        # A private copy: the process-level bytecode_spec_for cache
        # would otherwise hand every test the same object with the
        # batched frame already assembled.
        return BytecodeSpec.from_payload(
            bytecode_spec_for(spec).to_payload())

    def test_round_trip_skips_respecialization(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        stored = self._bspec()
        registry.store_batch_dispatch(stored)
        fresh_registry = SpecRegistry(cache_dir=str(tmp_path))
        fresh = self._bspec()
        assert fresh._walk_batch is None
        assert fresh_registry.load_batch_dispatch(fresh) is True
        # The adopted frame is the cached specialization verbatim.
        assert (fresh._walk_batch._bytecode_source
                == stored.batch_walk()._bytecode_source)

    def test_memory_memo_hits_without_disk(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        registry.store_batch_dispatch(self._bspec())
        os.unlink(registry.batch_dispatch_path(self._bspec().digest()))
        assert registry.load_batch_dispatch(self._bspec()) is True

    def test_cold_cache_misses(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        bspec = self._bspec()
        assert registry.load_batch_dispatch(bspec) is False
        assert bspec._walk_batch is None
        assert registry.stats.corrupt_rejected == 0

    def test_tampered_source_degrades_to_miss(self, tmp_path):
        registry = SpecRegistry(cache_dir=str(tmp_path))
        bspec = self._bspec()
        registry.store_batch_dispatch(bspec)
        path = registry.batch_dispatch_path(bspec.digest())
        with open(path) as handle:
            envelope = json.load(handle)
        # Altered generated source under an unchanged content digest:
        # only the recomputed payload digest can catch it.
        envelope["payload"]["source"] += "\n# tampered\n"
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        fresh_registry = SpecRegistry(cache_dir=str(tmp_path))
        fresh = self._bspec()
        assert fresh_registry.load_batch_dispatch(fresh) is False
        assert fresh._walk_batch is None
        assert fresh_registry.stats.corrupt_rejected == 1

    def test_older_batch_format_respecialized(self, tmp_path):
        """An artifact stored for an older generated-frame ``_ctx``
        layout is rejected even under a valid envelope digest, so its
        frame is re-specialized instead of unpacking the batch context
        into the wrong slots."""
        from repro.checker.bytecode import BATCH_FORMAT

        registry = SpecRegistry(cache_dir=str(tmp_path))
        bspec = self._bspec()
        registry.store_batch_dispatch(bspec)
        path = registry.batch_dispatch_path(bspec.digest())
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["payload"]["format"] = BATCH_FORMAT - 1
        envelope["sha256"] = registry_mod._payload_digest(
            envelope["payload"])
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        fresh_registry = SpecRegistry(cache_dir=str(tmp_path))
        fresh = self._bspec()
        assert fresh_registry.load_batch_dispatch(fresh) is False
        assert fresh._walk_batch is None
        assert fresh_registry.stats.corrupt_rejected == 1
        assert (fresh.batch_walk()._bytecode_source
                == bspec.batch_walk()._bytecode_source)

    def test_other_generations_artifact_misses(self, tmp_path):
        """An artifact keyed by another spec generation's bytecode is
        simply not found under this one's digest."""
        from repro.checker.bytecode import bytecode_spec_for
        from repro.workloads.profiles import train_device_spec

        registry = SpecRegistry(cache_dir=str(tmp_path))
        registry.store_batch_dispatch(self._bspec())
        other = bytecode_spec_for(
            train_device_spec("sdhci").spec)
        assert registry.load_batch_dispatch(other) is False
        assert registry.stats.corrupt_rejected == 0
