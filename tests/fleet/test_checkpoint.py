"""Checkpoint/restore: ``restore(checkpoint(x))`` is verdict-identical.

For every device profile (the composite included), an instance serves a
benign prefix, is checkpointed mid-stream, and the restored twin must
produce byte-identical outcomes — status, report content, cycle
accounting — on the same continuation stream.  The envelope itself must
survive a JSON wire hop and reject any tampering before touching state.
"""

import json
import random

import pytest

from repro.checker import Mode
from repro.errors import FleetError
from repro.fleet import (
    CHECKPOINT_FORMAT, SpecRegistry, checkpoint_instance,
    envelope_bytes, restore_instance, verify,
)
from repro.fleet.instance import GuardedInstance
from repro.fleet.loadgen import OpRequest, sample_benign_op
from repro.fleet.migration import report_obj
from repro.policy.model import canonical_json

DEVICES = ("fdc", "sdhci", "scsi", "ehci", "pcnet", "virtio-net",
           "virtio-blk", "virtio-net+virtio-blk")


@pytest.fixture(scope="module")
def registry():
    return SpecRegistry(cache_dir=None)


def _spec_for(registry, device, qemu_version="99.0.0"):
    parts = device.split("+")
    if len(parts) > 1:
        return {part: registry.get(part, qemu_version)
                for part in parts}
    return registry.get(device, qemu_version)


def _outcome_obj(outcome):
    return {
        "status": outcome.status,
        "cycles": outcome.cycles,
        "io_rounds": outcome.io_rounds,
        "quarantined": outcome.quarantined,
        "report": (report_obj(outcome.report)
                   if outcome.report is not None else None),
    }


def _instance(registry, device, qemu_version="99.0.0"):
    return GuardedInstance("t0", device, qemu_version,
                           _spec_for(registry, device, qemu_version),
                           mode=Mode.PROTECTION)


class TestRoundTrip:
    @pytest.mark.parametrize("device", DEVICES)
    def test_restored_verdicts_identical(self, registry, device):
        original = _instance(registry, device)
        rng = random.Random(31)
        for op in (sample_benign_op(device, rng) for _ in range(6)):
            original.apply(op)
        envelope = checkpoint_instance(original)
        # The wire hop a live migration performs: canonical JSON text.
        wire = json.loads(canonical_json(envelope))
        assert envelope_bytes(envelope) == len(
            canonical_json(wire).encode())
        restored = restore_instance(wire, _spec_for(registry, device))

        tail_rng = random.Random(77)
        tail = [sample_benign_op(device, tail_rng) for _ in range(6)]
        for op in tail:
            a, b = original.apply(op), restored.apply(op)
            assert _outcome_obj(a) == _outcome_obj(b)
        assert original._op_serial == restored._op_serial

    def test_detection_identical_after_restore(self, registry):
        # The PoC fires on the *restored* instance: the shadow checker
        # state crossed the checkpoint, so the verdict must not change.
        qemu = "2.3.0"      # Venom-vulnerable build
        original = _instance(registry, "fdc", qemu)
        rng = random.Random(5)
        for op in (sample_benign_op("fdc", rng) for _ in range(4)):
            original.apply(op)
        restored = restore_instance(
            checkpoint_instance(original),
            _spec_for(registry, "fdc", qemu))
        poc = OpRequest("exploit", 0, 9, cve="CVE-2015-3456")
        a, b = original.apply(poc), restored.apply(poc)
        assert a.status == b.status == "detected"
        assert _outcome_obj(a) == _outcome_obj(b)
        assert original.quarantined and restored.quarantined

    def test_quarantine_state_survives(self, registry):
        original = _instance(registry, "fdc", "2.3.0")
        original.apply(OpRequest("exploit", 0, 9, cve="CVE-2015-3456"))
        assert original.quarantined
        restored = restore_instance(
            checkpoint_instance(original),
            _spec_for(registry, "fdc", "2.3.0"))
        assert restored.quarantined
        assert restored.quarantine_reason == original.quarantine_reason
        assert restored.apply(
            sample_benign_op("fdc", random.Random(1))).status \
            == "rejected"


class TestEnvelope:
    def test_envelope_is_sealed_and_versioned(self, registry):
        envelope = checkpoint_instance(_instance(registry, "fdc"))
        assert envelope["format"] == CHECKPOINT_FORMAT
        verify(envelope)    # must not raise

    @pytest.mark.parametrize("mutate", [
        lambda env: env.update(op_serial=env["op_serial"] + 1),
        lambda env: env.pop("checkers"),
        lambda env: env.update(digest="0" * 64),
        lambda env: env["vm"]["memory"].update(dma_reads=999),
    ])
    def test_tampered_envelope_rejected(self, registry, mutate):
        instance = _instance(registry, "fdc")
        instance.apply(sample_benign_op("fdc", random.Random(2)))
        envelope = checkpoint_instance(instance)
        mutate(envelope)
        with pytest.raises(FleetError):
            restore_instance(envelope, _spec_for(registry, "fdc"))

    def test_wrong_format_rejected(self, registry):
        envelope = checkpoint_instance(_instance(registry, "fdc"))
        envelope["format"] = CHECKPOINT_FORMAT + 1
        with pytest.raises(FleetError):
            verify(envelope)

    def test_non_object_rejected(self):
        with pytest.raises(FleetError):
            verify("not an envelope")

    def test_unknown_device_part_rejected(self, registry):
        envelope = checkpoint_instance(_instance(registry, "fdc"))
        envelope["devices"]["ghost"] = envelope["devices"]["fdc"]
        from repro.fleet.checkpoint import seal
        seal(envelope)      # re-seal: digest is valid, content is not
        with pytest.raises(FleetError):
            restore_instance(envelope, _spec_for(registry, "fdc"))
