"""Format-2 checkpoint envelopes: the page codec, one digest pass per
hop, and fail-closed restores of re-sealed malformed envelopes.

The digest is a content address, not a MAC: anyone can re-seal an
envelope they changed.  So the restore validates every value it reads,
and a malformed envelope must be refused with a :class:`FleetError` —
never a builtin exception, never a structure resized by a slice
assignment, never a receiving worker left half-installed.
"""

import copy
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checker import Mode
from repro.devices.backends import _CHUNK_SIZE, DiskImage, GuestMemory
from repro.errors import FleetError
from repro.fleet import FleetWorker, SpecRegistry, checkpoint_instance, \
    restore_instance, verify
import repro.fleet.checkpoint as checkpoint
from repro.fleet.checkpoint import PAGE_SIZE, _pages, _store_obj, \
    _store_restore, _unpage, seal
from repro.fleet.instance import GuardedInstance
from repro.fleet.loadgen import RequestBatch, sample_benign_op
from repro.policy.model import PolicySet, TenantPolicy, canonical_json
from tests.devices.fixtures import _store_digest


def _wire(obj):
    """The hop a live migration performs: canonical JSON text."""
    return json.loads(canonical_json(obj))


def _edge_writes(draw, size, granules):
    """Short writes that start a few bytes either side of a page or
    chunk boundary (or anywhere), clamped to the buffer."""
    writes = []
    for _ in range(draw(st.integers(0, 6))):
        granule = draw(st.sampled_from(granules))
        edge = granule * draw(st.integers(0, max(0, size // granule)))
        offset = min(max(edge + draw(st.integers(-3, 3)), 0),
                     max(size - 1, 0))
        payload = draw(st.binary(min_size=1, max_size=9))
        writes.append((offset, payload[:size - offset]))
    return writes


@st.composite
def blobs(draw):
    size = draw(st.sampled_from([0, 1, PAGE_SIZE - 1, PAGE_SIZE,
                                 PAGE_SIZE + 1, 556, 4143, _CHUNK_SIZE])
                | st.integers(0, 3 * PAGE_SIZE))
    blob = bytearray(size)
    for offset, payload in _edge_writes(draw, size, [PAGE_SIZE, 1]):
        blob[offset:offset + len(payload)] = payload
    return blob


@st.composite
def stores(draw):
    """A sparse backend with writes at chunk and page edges, some of
    them zeros that allocate a chunk and leave it all zero."""
    size = draw(st.sampled_from([_CHUNK_SIZE, 3 * _CHUNK_SIZE + 100]))
    backend = (GuestMemory(size) if draw(st.booleans())
               else DiskImage(size))
    for offset, payload in _edge_writes(draw, size,
                                        [_CHUNK_SIZE, PAGE_SIZE]):
        if draw(st.booleans()):
            payload = bytes(len(payload))
        backend._store.write_range(offset, payload)
    return backend


def _counters(backend):
    return (("dma_reads", "dma_writes") if isinstance(backend, GuestMemory)
            else ("reads", "writes"))


class TestPageCodec:
    @given(blobs())
    @settings(max_examples=300, deadline=None)
    def test_blob_round_trip(self, blob):
        pages = _wire(_pages(blob))
        assert _unpage(pages, len(blob), "blob") == blob
        # Only non-zero pages travel, each as long as the blob allows.
        for key, text in pages.items():
            offset = int(key) * PAGE_SIZE
            assert bytes.fromhex(text) == blob[offset:offset + PAGE_SIZE]
            assert any(bytes.fromhex(text))

    @given(stores())
    @settings(max_examples=150, deadline=None)
    def test_store_round_trip(self, backend):
        twin = type(backend)(backend.size)
        counters = _counters(backend)
        _store_restore(twin, _wire(_store_obj(backend, counters)),
                       counters, "store.")
        # An allocated chunk stays allocated, all-zero or not: the
        # footprint and the fixtures' chunk digest both hold.
        assert twin._store._chunks == backend._store._chunks
        assert twin.allocated_bytes == backend.allocated_bytes
        assert _store_digest(twin) == _store_digest(backend)

    def test_all_zero_chunk_is_an_empty_map(self):
        memory = GuestMemory(2 * _CHUNK_SIZE)
        memory.write_block(_CHUNK_SIZE + 7, bytes(3))
        obj = _store_obj(memory, ("dma_reads", "dma_writes"))
        assert obj["chunks"] == {"1": {}}

    def test_short_last_page(self):
        # pcnet's control structure is 4,143 bytes: its last page holds
        # 47 bytes, and a page of any other length is refused.
        blob = bytearray(4143)
        blob[-1] = 0xAB
        pages = _pages(blob)
        assert list(pages) == ["8"] and len(pages["8"]) == 2 * 47
        with pytest.raises(FleetError):
            _unpage({"8": "00" * PAGE_SIZE}, 4143, "state")

    @pytest.mark.parametrize("pages", [
        {"9": "00" * PAGE_SIZE},            # past the buffer
        {"-1": "00" * PAGE_SIZE},
        {"01": "00" * PAGE_SIZE},           # not the canonical index
        {"x": "00" * PAGE_SIZE},
        {"0": "00" * (PAGE_SIZE - 1)},      # wrong length
        {"0": "zz" * PAGE_SIZE},            # bad hex
        {"0": 7},
        ["00"],                             # not a map
    ])
    def test_bad_page_map_refused(self, pages):
        with pytest.raises(FleetError):
            _unpage(pages, 4 * PAGE_SIZE, "state")


# -- envelopes from live workers ---------------------------------------------

@pytest.fixture(scope="module")
def registry():
    registry = SpecRegistry(cache_dir=None)
    registry.policies.put(_SILVER)
    return registry


_SILVER = PolicySet(default=TenantPolicy(policy_id="silver"))


def _served_worker(registry, device, tenant="t0", seed=3):
    """A worker that served a few batches for *tenant*, the last one
    under a reloaded policy generation."""
    from dataclasses import replace

    worker = FleetWorker(0, registry)
    rng = random.Random(seed)
    for seq in range(3):
        batch = RequestBatch(tenant, device, "99.0.0", seq,
                             tuple(sample_benign_op(device, rng)
                                   for _ in range(3)))
        if seq == 2:
            batch = replace(batch, policy_epoch=3,
                            policy_digest=_SILVER.digest)
        worker.run_batch(batch)
    return worker


_ENVELOPES = {}


def _envelope(registry, device):
    if device not in _ENVELOPES:
        _ENVELOPES[device] = _served_worker(
            registry, device).checkpoint_tenant("t0")
    return copy.deepcopy(_ENVELOPES[device])


def _paths(obj, path=()):
    """Every path into *obj*: containers and leaves alike."""
    if path:
        yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _paths(value, path + (index,))


_DROP = object()
_VALUES = [-1, 0, 1, 2 ** 64, 1.5, True, None, "", "x", "zz", [], {},
           {"0": "00"}, [["", 0]]]


def _mutations(value):
    """What one value may become: another kind, a neighbour of
    itself, or nothing at all."""
    out = list(_VALUES) + [_DROP]
    if isinstance(value, str):
        out += [value[:-2], value + "00", value + "0", value.upper()]
    if type(value) is int:
        out += [value + 1, -value - 1]
    if isinstance(value, dict):
        out += [{**value, "9999": "00" * PAGE_SIZE}]
    return out


def _mutate(envelope, path, new):
    parent = envelope
    for key in path[:-1]:
        parent = parent[key]
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new


def _assert_skeleton_sized(instance):
    """Every structure and chunk of a restored instance is exactly as
    large as the receiver built it."""
    vm = instance.vm
    stores = [vm.memory._store]
    for device in vm.devices.values():
        state = device.machine.state
        assert len(state.data) == state.layout.size
        if getattr(device, "disk", None) is not None:
            stores.append(device.disk._store)
    for attachment in instance.attachments.values():
        memory = attachment.checker.device_state.memory
        assert len(memory.data) == memory.layout.size
    for store in stores:
        assert all(len(chunk) == _CHUNK_SIZE
                   for chunk in store._chunks.values())


def _assert_untouched(worker):
    assert not worker.tenants


class TestMutatedEnvelopes:
    """Structure-aware mutation: change one value anywhere in a sealed
    envelope, re-seal it, and restore it on a fresh worker."""

    @pytest.mark.parametrize("device", ["fdc", "pcnet",
                                        "virtio-net+virtio-blk"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_restore_succeeds_whole_or_fails_closed(self, registry,
                                                     device, data):
        envelope = _envelope(registry, device)
        paths = sorted((p for p in _paths(envelope)
                        if p != ("digest",)), key=repr)
        path = data.draw(st.sampled_from(paths), label="path")
        value = envelope
        for key in path:
            value = value[key]
        new = data.draw(st.sampled_from(_mutations(value)), label="value")
        _mutate(envelope, path, new)
        seal(envelope)
        worker = FleetWorker(1, registry)
        try:
            instance = worker.restore_tenant(envelope)
        except FleetError:
            _assert_untouched(worker)
            return
        _assert_skeleton_sized(instance)
        assert worker.tenants[instance.tenant].instance is instance

    @pytest.mark.parametrize("path,new", [
        (("vm",), _DROP),
        (("devices", "fdc", "state", "0"), "zz"),
        # a page one byte long, or one byte too long: a slice
        # assignment would have resized the control structure
        (("devices", "fdc", "state", "0"), "ab"),
        (("devices", "fdc", "state", "0"), "ab" * (PAGE_SIZE + 1)),
        (("vm", "memory", "chunks", "0"), {"0": "ab"}),
        (("vm", "memory", "chunks", "x"), {}),
        (("mode",), "nope"),
        (("device",), ""),
        (("device",), "fdc+fdc"),
        (("devices", "fdc", "cycles"), "x"),
        (("devices", "fdc", "steps"), -1),
        (("checkers", "fdc", "checked_rounds"), True),
        (("devices", "fdc", "irq", "level"), 2),
        (("breaker", "rung"), 9),
        (("policy", "digest"), "0" * 64),
        (("spec_digest",), "0" * 64),
    ])
    def test_named_mutation_refused(self, registry, path, new):
        envelope = _envelope(registry, "fdc")
        _mutate(envelope, path, new)
        seal(envelope)
        worker = FleetWorker(1, registry)
        with pytest.raises(FleetError,
                           match=re.escape(".".join(path[:2]))):
            worker.restore_tenant(envelope)
        _assert_untouched(worker)

    def test_refused_restore_leaves_worker_untouched(self, registry):
        # A re-sealed envelope naming an unknown device part, carrying
        # a policy generation the receiver holds: the refusal installs
        # neither the policy set nor its epoch.
        envelope = _envelope(registry, "fdc")
        assert envelope["policy"] == {"epoch": 3,
                                      "digest": _SILVER.digest}
        envelope["devices"]["ghost"] = envelope["devices"]["fdc"]
        seal(envelope)
        worker = FleetWorker(1, registry)
        with pytest.raises(FleetError, match="devices"):
            worker.restore_tenant(envelope)
        _assert_untouched(worker)
        assert worker.policy_for("t0").policy_id == "default"


class TestOneDigestPassPerHop:
    def test_policy_digest_calls(self, registry, monkeypatch):
        source = _served_worker(registry, "fdc")
        calls = []
        real = checkpoint.policy_digest

        def spy(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(checkpoint, "policy_digest", spy)
        envelope = source.checkpoint_tenant("t0")
        assert len(calls) == 1
        target = FleetWorker(1, registry)
        target.restore_tenant(envelope)
        assert len(calls) == 2
        assert target.policy_for("t0").policy_id == "silver"


class TestFormat:
    def test_format_1_envelope_refused(self, registry):
        instance = GuardedInstance("t0", "fdc", "99.0.0",
                                   registry.get("fdc", "99.0.0"),
                                   mode=Mode.PROTECTION)
        envelope = checkpoint_instance(instance)
        assert envelope["format"] == 2
        envelope["format"] = 1
        seal(envelope)
        with pytest.raises(FleetError, match="format 1"):
            verify(envelope)
        with pytest.raises(FleetError):
            restore_instance(envelope, registry.get("fdc", "99.0.0"))
        worker = FleetWorker(1, registry)
        with pytest.raises(FleetError):
            worker.restore_tenant(envelope)
        _assert_untouched(worker)
