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
