"""A spec's content address is canonical, and training is pinned.

``spec_digest`` keys the registry, the generation chains, hot reloads
and checkpoints, so the same training must give the same digest in
every process (whatever its string-hash seed, which decides set
iteration order during training) and on every execution backend.

The pinned table holds, for every distinct device program training
sees (the seven profiles at 99.0.0, the CVE builds of
``repro.exploits.pocs`` and the corpus's virtio gates), the spec
digest, the sha256 of the PT bytes the training run emitted, and the
sha256 of a canonical dump of the decoded rounds and the ITC-CFG.  The
spec alone cannot catch a decoder or ITC-CFG regression: parameter
selection reads only the static node set.  Two more rows pin the trace
loss paths training never takes (a bounded trace buffer and an
``ipt.drop`` + ``ipt.overflow`` fault plan).
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import repro
import repro.core.pipeline as pipeline
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec
from repro.fleet.registry import program_fingerprint, spec_digest
from repro.ipt import IPTTracer
from repro.workloads.profiles import PROFILES, train_device_spec

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_PRINT_FDC_DIGEST = (
    "from repro.fleet.registry import spec_digest\n"
    "from repro.workloads.profiles import train_device_spec\n"
    "print(spec_digest(train_device_spec('fdc').spec))\n")


def _start_training(hash_seed: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=_SRC)
    return subprocess.Popen([sys.executable, "-c", _PRINT_FDC_DIGEST],
                            env=env, stdout=subprocess.PIPE, text=True)


def test_digest_is_independent_of_hash_seed_and_backend():
    children = [_start_training(seed) for seed in (0, 1)]
    reference = spec_digest(train_device_spec("fdc",
                                              backend="reference").spec)
    digests = []
    for child in children:
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 0
        digests.append(out.strip())
    # Hash seeds 0 and 1, default (bytecode) backend...
    assert digests[0] == digests[1]
    # ...and the reference backend in this process.
    assert reference == digests[0]


# -- what training produces, per device program ----------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _decode_dump(rounds, itc) -> bytes:
    """Canonical bytes of the decoded rounds and the ITC-CFG."""
    return json.dumps({
        "rounds": [[r.entry_address, r.block_addresses,
                    [list(edge) for edge in r.indirect_edges],
                    r.faulted, r.trace_gap] for r in rounds],
        "executed": sorted(itc.executed_nodes()),
        "edges": sorted(map(list, itc.edges)),
        "executed_edges": sorted(map(list, itc.executed_edges)),
        "indirect_targets": sorted(
            [src, sorted(targets)]
            for src, targets in itc.indirect_targets.items()),
        "branch_outcomes": sorted(
            [src, sorted(outcomes)]
            for src, outcomes in itc.branch_outcomes.items()),
    }, separators=(",", ":")).encode()


def training_row(device: str, qemu_version: str):
    """(spec digest, PT bytes sha256, decode + ITC-CFG sha256) of
    ``train_device_spec(device, qemu_version)``.

    The tracer and the decoded rounds are the ones the pipeline itself
    used: both are caught through ``repro.core.pipeline``'s module
    globals, where the end-to-end benchmark's tracer wraps them too.
    """
    seen = {}
    make_tracer = pipeline.IPTTracer
    connect = pipeline.build_itc_cfg

    def tracer(*args, **kwargs):
        seen["tracer"] = make_tracer(*args, **kwargs)
        return seen["tracer"]

    def build_itc_cfg(program, rounds):
        seen["rounds"] = list(rounds)
        seen["itc"] = connect(program, seen["rounds"])
        return seen["itc"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "IPTTracer", tracer)
        patch.setattr(pipeline, "build_itc_cfg", build_itc_cfg)
        artifacts = train_device_spec(device, qemu_version)
    assert artifacts.itc is seen["itc"]
    return (spec_digest(artifacts.spec), _sha(seen["tracer"].raw()),
            _sha(_decode_dump(seen["rounds"], seen["itc"])))


def loss_row(**tracer_kwargs):
    """(raw sha256, overflows, dropped) of one fdc training session
    traced by an ``IPTTracer(**tracer_kwargs)``."""
    prof = PROFILES["fdc"]
    vm, device = prof.make_vm()
    tracer = device.machine.add_sink(IPTTracer(**tracer_kwargs))
    prof.training(vm, device, random.Random(7))
    return _sha(tracer.raw()), tracer.overflows, tracer.dropped


def loss_plan() -> FaultInjector:
    return FaultInjector(FaultPlan(11, (
        FaultSpec("ipt.drop", probability=0.02),
        FaultSpec("ipt.overflow", probability=0.01))))


#: (device, qemu_version) -> (spec_digest, PT sha256, decode sha256)
PINNED = {
    ("ehci", "5.1.0"): (
        "fae0eab3d30211fc24510612da45b32d90b9c3ec43e82bc6908388702501df76",
        "7dd0b0ff7d542fceb3ab0e205dd3b74161c9ac2224b344e2dda31c303f79334d",
        "d55949ca3e9632a4c34c13928b5026e22b4bcccdc25c3d6227c92e3f3eacebba",
    ),
    ("ehci", "99.0.0"): (
        "31442bf7d9c4745423bd6690339cb0ed4b31db10b56bc5522159975d29529cd0",
        "d1ba58375fdc9ea0d7193e8c44a9c7cb8b885c3cc51192f78e0fac7740bc858f",
        "edff1833faac561d2803a723aef9ea7e8da7f67b17dc72168a85ca1480d866d9",
    ),
    ("fdc", "2.3.0"): (
        "1ae56273fa90934f59f961be08d2ab3e9be9633da0f73d5bdfd8a25d00c53790",
        "d8806cfcbbec8d9226480be83e77248f53f07f2d61c153542917e79a06b74cec",
        "7bed246b11f65ea2786b8c3de9532815b068ee680d806ce5ec5096969331e87e",
    ),
    ("fdc", "2.5.0"): (
        "4758d59892d367350f03601079e6463b5365b813fc5e7918f5777cef9d3e27fe",
        "f75d128cbdd37d6f2e9b11c762acdfc9389825652c76fa451e6896715a7c118d",
        "4d5aa47250ba33395d7ccc7c92ffe66632f4ed04f54261bd5b013817dbf15dfd",
    ),
    ("fdc", "99.0.0"): (
        "880c25971eeec4f3b6f1601b52c4d458fbc1ff91edb8e49f730807ffeed726d7",
        "f75d128cbdd37d6f2e9b11c762acdfc9389825652c76fa451e6896715a7c118d",
        "4d5aa47250ba33395d7ccc7c92ffe66632f4ed04f54261bd5b013817dbf15dfd",
    ),
    ("pcnet", "2.4.0"): (
        "901bc2dec8cf949cf439de56d4fa07cb66f91ce9ff56b3d7a3237a3a05e649a2",
        "273f626d43d1226be64af45c060ed09ef14411bf8aa4df96cf723e7079b44e53",
        "94823e5b9caa32796c2833d7790f903f01fca695e8c90684e9e65df2a163ef78",
    ),
    ("pcnet", "2.6.0"): (
        "f5a591e53c933e40f995f47b872375de5d3b086746755bf9193b2a6edbe059d6",
        "4f72740893bdf8f06c70fa45fd040b86a35b043236bd010fa5831777cec5f89e",
        "a6f3e196984710e6bb7d3eca252e02fc1796f3e440d1e8981ca829fe8139ee05",
    ),
    ("pcnet", "99.0.0"): (
        "c7b738e7be4ca78a53c01ad1c80e7f2cc9a81925ac0e6f17c70f872f782f8e0f",
        "252d13f4d66ba249eb3c5b82193c94c67b76565adbf2c9831d1700f1c8789a71",
        "b5e9f715ef26077de4f0c3114862191e363ca5920cc34f43db613745171894ad",
    ),
    ("scsi", "2.4.0"): (
        "4280d49df3768794dcffa35af2ff9624ad328960ae423fce290ce04a81872fc6",
        "66743eb8a91f9b4fac8fff46e8e664f6d114013d55bca0027a3a53ceba998200",
        "1044c473b9eddc86be031318df74e0a9fa74851afbc631a1a7f7654ac611a907",
    ),
    ("scsi", "2.6.0"): (
        "452b00727cc5da06592767f7e917059a2c6f209c936d5b63b28ec08fa7f47a4d",
        "66743eb8a91f9b4fac8fff46e8e664f6d114013d55bca0027a3a53ceba998200",
        "b0cb52220dc322728b3f8646a6a551741957c7af0e594253c72fd94242a50c81",
    ),
    ("scsi", "99.0.0"): (
        "324b760b7e06e7df9c245f14246c8ac3f057aff6a5dc72c88e66e807ec19623b",
        "66743eb8a91f9b4fac8fff46e8e664f6d114013d55bca0027a3a53ceba998200",
        "fa13f6012152ca03edaad19831620cd841336d66b62985340aac2bb0c81876ab",
    ),
    ("sdhci", "5.2.0"): (
        "11524a6bd13f5de260169f9903a308469ff5b48d4f72cb76ce2dff5a29d5b053",
        "9d3be381cfd166ba36319660de599b6f468cffb51f26cfe9c16529f2a92aa64f",
        "01274b28f7af366c6225ff46e75d5caa44682c2f6234ec20109273178966c74c",
    ),
    ("sdhci", "99.0.0"): (
        "4ff62d83bc1a4cfed3d9472090a5131a1a914b72dd891edf0dc86c9bc50f437a",
        "47212fcfe9dc921fdaae3814e540ff2c9ad9fc7a1341af78a53190097f8713a3",
        "c6ec72f2c130436416814078c054d592d87dcf0bb219f31ccfdf25defed43cdf",
    ),
    ("virtio-blk", "7.0.0"): (
        "6b7a2cb405323d540859affa8b059d70e1c5cc2a375fe3cb860eba2b41ab8789",
        "55358eb68767277e941d9faa1f2a9e666adbe6e1593e726d1fa1970cf2e593ab",
        "56f56eb61ec23d04f47ce16f5c1b988e3a71e9d8a11c4e5c572bf457fe3ea6a0",
    ),
    ("virtio-blk", "7.1.0"): (
        "2e355ee6d167958ba9ddf91c6f7cdd59c724f7c33fc55dd1c099ecfe56bfb4d4",
        "c6afb35c611693f008fb4dcb107e3ba31208f0434c08fe9d77039e1759072050",
        "1e23fd3cb68cc25a6f2211206c94e5e61afaf33f3fef022736c3e4886a738875",
    ),
    ("virtio-blk", "7.2.0"): (
        "19bdb14e2ca67952d7f60469449e0abba6934637e3d3447c1f2c56aaf82b487f",
        "6c00beb7a4f8b8a3bed40ed30a6505990f5547882f5508b2df747fc11f12a568",
        "bbf6f28c6f36e70e5ad4a64ebd8a49f9cc859c5da95fa61685112511a447aef0",
    ),
    ("virtio-blk", "7.3.0"): (
        "232f64f200a9185f547f93458f11b97f7dc5e48537641277be3678698897c7d0",
        "0a82df44c67840f2b463075ec7086fdc2dcb11896a434e94a264843162631195",
        "81c28ed45043dc0b926fb0a1e21b9fe4f9f61cd740e5fc768d0dbe729a457e48",
    ),
    ("virtio-blk", "99.0.0"): (
        "40e55d9e0b0aca8acccffa07a54a19051ad59ce7a33303e67d303d294650dd12",
        "0a82df44c67840f2b463075ec7086fdc2dcb11896a434e94a264843162631195",
        "74fce55c9e5f1492eddaa9069fa574c7d235aff17831a2bedf0404ede32cb716",
    ),
    ("virtio-net", "7.0.0"): (
        "0888f56fb90e6219f9da1a8fb0ae6482eaa29f88de8d4d137eeb3bf170ee1ec3",
        "64fcdd064e7e6fcc8c00fe7394d0550ea0101a7e32e5789f69060dd4e4dda276",
        "2279dbcba99b4e132f39ba92b24ea5d8077fccc16f7e0b47bcebb0b10076cac5",
    ),
    ("virtio-net", "7.1.0"): (
        "9e7429cf3adebd2596d34623aec917e547d0d3815b93b6e67f6f5edd6b86230f",
        "b5b955e90a36a6b46461aaa16e6d85816ceec12345eee1300cd956012d0eb3bf",
        "59873c5056d581cf65bfc480998324e016c08858f4e18623f8522170facb2b29",
    ),
    ("virtio-net", "7.2.0"): (
        "07e188daab9a02fa8016509bc510af2e12307e3987736e6fa289653c1fefaee0",
        "ecaa051c5d871d4fd2fe7e4161dfb10f6af89c77f77cbb925643bf4b615d8c17",
        "9c2c841e84dbb56ccb9b21e1aa5a8f13c7a1bf2decb8f7a5426c331f35b82543",
    ),
    ("virtio-net", "7.3.0"): (
        "d9686cdadc41c1485b2b1f0b2667f02e10f67a25e0342025a578b8341ee6552a",
        "633e5c0fa3dc4fe02ac779a6d93477a1a186112ac95b91965d95f91c86bbf0c9",
        "5a069c1af3205d14ebfee33d78e83851ecaadf5f7a03ea42e4ca2d563c02fe7b",
    ),
    ("virtio-net", "99.0.0"): (
        "22b905a4849325a9c18b01896786abc8fb5dd0cb999b263eeadafff7ea65764c",
        "633e5c0fa3dc4fe02ac779a6d93477a1a186112ac95b91965d95f91c86bbf0c9",
        "23b9726362fb0047ad010f7c2a0012c46c270d7dc6e0a0ecbdf9172eca3fa6ef",
    ),
}

#: the loss paths training never takes: (raw sha256, overflows, dropped)
PINNED_BUFFER_LIMIT = (
    "6e3c73c9f1cca7129742576f5b6feaa91db2bfb07997f253ffc624a4033bbcfa",
    150, 150)
PINNED_FAULT_PLAN = (
    "d0d2471689a34a4cbc2ec78e87731413905c4f40ff7da53f139039f13f3128ce",
    80, 256)


def test_pinned_programs_are_distinct():
    fingerprints = {program_fingerprint(PROFILES[name].make_vm(version)[1])
                    for name, version in PINNED}
    assert len(PINNED) == len(fingerprints) == 23


@pytest.mark.parametrize("device,qemu_version", sorted(PINNED))
def test_training_is_pinned(device, qemu_version):
    assert training_row(device, qemu_version) == \
        PINNED[device, qemu_version]


def test_bounded_buffer_trace_is_pinned():
    assert loss_row(buffer_limit=64) == PINNED_BUFFER_LIMIT


def test_fault_plan_trace_is_pinned():
    assert loss_row(injector=loss_plan()) == PINNED_FAULT_PLAN
