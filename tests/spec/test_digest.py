"""A spec's content address is canonical.

``spec_digest`` keys the registry, the generation chains, hot reloads
and checkpoints, so the same training must give the same digest in
every process (whatever its string-hash seed, which decides set
iteration order during training) and on every execution backend.
"""

import os
import subprocess
import sys

import repro
from repro.fleet.registry import spec_digest
from repro.workloads.profiles import train_device_spec

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
