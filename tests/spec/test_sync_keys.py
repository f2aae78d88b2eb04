"""Each key's checking discipline is computed once per spec.

``sync_keys_for`` caches the key -> co-execute table on the spec
object, the way ``bytecode_spec_for`` caches the lowering, so attaching
a checker walks no call graph.  The table must equal
``handler_needs_sync`` for every key of every spec training produces:
the seven profiles at 99.0.0, the CVE builds and the corpus's virtio
gates (the rows of ``test_digest.PINNED``).  A composite guest guards
each part with that part's per-device spec, so its parts are among
those rows.
"""

import pickle

import pytest

from repro.core import deploy
from repro.spec.builder import handler_needs_sync, sync_keys_for
from repro.workloads.profiles import PROFILES, train_device_spec

from tests.spec.test_digest import PINNED

ROWS = sorted(set(PINNED) | {(name, "99.0.0") for name in PROFILES})


@pytest.mark.parametrize("device,qemu_version", ROWS,
                         ids=[f"{d}-{v}" for d, v in ROWS])
def test_table_equals_handler_needs_sync(device, qemu_version):
    spec = train_device_spec(device, qemu_version).spec
    table = sync_keys_for(spec)
    assert dict(table) == {key: handler_needs_sync(spec, key)
                           for key in spec.entry_handlers}
    assert sync_keys_for(spec) is table


def test_attachments_share_the_read_only_table():
    spec = train_device_spec("sdhci").spec
    tables = []
    for _ in range(2):
        vm, device = PROFILES["sdhci"].make_vm()
        deploy(vm, device, spec)
        tables.append(vm.attachments[device.NAME].sync_keys)
    assert tables[0] is tables[1] is sync_keys_for(spec)
    assert tables[0]["pmio:read:4"] is True
    with pytest.raises(TypeError):
        tables[0]["pmio:read:4"] = False
    # A pickled spec leaves the table behind and rebuilds an equal one.
    copy = pickle.loads(pickle.dumps(spec))
    assert "_sync_keys" not in vars(copy)
    assert dict(sync_keys_for(copy)) == dict(tables[0])
