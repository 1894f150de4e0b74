"""Integration: the ISA the kernels are compiled for is invisible in the bits.

The compiled tier is built for the host's own vector ISA
(``-march=native``); ``REPRO_KERNEL_CFLAGS=-march=x86-64`` (last flag
wins) is the baseline-ISA build of the same source on the same ladder.
IEEE add, multiply, divide and ``rint`` are correctly rounded per
element at every vector width and the build never contracts or
reassociates (DESIGN.md, vector-width lemma), so the two builds must
agree on every byte.  Asserted here, not assumed: the same short
8-node machine and R = 2 ensemble run in two child processes, one per
build, and their state codes and energies are compared — together with
the cache keys, which must differ, or one build would have been handed
the other's object.  (That a different *host* ISA token alone changes
the key is ``test_kernel_tier.py``'s, beside the faked compiler.)
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import available, build

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = [
    pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64"), reason="-march=x86-64 needs an x86-64 host"
    ),
    pytest.mark.skipif(not available(), reason="no C compiler: compiled kernel tier unavailable"),
]

CHILD = """
import hashlib, json
from repro.core import BerendsenThermostat, MDParams, minimize_energy
from repro.ensemble import EnsembleSimulation
from repro.io.serialize import pack_state
from repro.kernels import kernel_info
from repro.machine import AntonMachine
from repro.systems import build_water_box

def digest(blob):
    return hashlib.sha256(blob).hexdigest()

def bits(energies):
    return {k: [float(x).hex() for x in __import__("numpy").atleast_1d(v)]
            for k, v in energies.items()}

params = MDParams(cutoff=4.0, mesh=(16, 16, 16), long_range_every=2)
system = build_water_box(n_molecules=24, seed=11)
minimize_energy(system, params, max_steps=10)
out = {"kernel": kernel_info("compiled", 1), "minimized": digest(system.positions.tobytes())}
system.initialize_velocities(300.0, seed=12)
machine = AntonMachine(system.copy(), params, n_nodes=8, dt=1.0, backend="vectorized",
                       kernel_tier="compiled", kernel_threads=1)
try:
    machine.run(6)
    out["machine"] = digest(pack_state(machine.checkpoint()))
    out["machine_energies"] = bits(machine.integrator.last_info.energies)
finally:
    machine.close()
float_mesh = MDParams(cutoff=4.0, mesh=(16, 16, 16), long_range_every=2)
ens = EnsembleSimulation(system, float_mesh, dt=1.0, seeds=[3, 4], temperature=300.0,
                         thermostat=BerendsenThermostat(300.0), constraints=True,
                         kernel_tier="compiled", kernel_threads=1)
ens.run(6)
out["ensemble"] = [digest(b"".join(a.tobytes() for a in ens.state_codes(r))) for r in range(2)]
out["ensemble_energies"] = bits(ens.integrator.last_info.energies)
print(json.dumps(out))
"""


def run_child(extra_cflags: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_KERNEL_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    if extra_cflags is not None:
        env["REPRO_KERNEL_CFLAGS"] = extra_cflags
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_native_and_baseline_isa_builds_agree_on_every_byte():
    native = run_child(None)
    baseline = run_child("-march=x86-64")
    kn, kb = native.pop("kernel"), baseline.pop("kernel")
    assert kn["tier"] == kb["tier"] == "compiled"
    assert kb["flags"].endswith("-march=x86-64")
    assert build.HOST_ISA_FLAG in kn["flags"] or kn["rung"].startswith("baseline")
    assert kn["so"] != kb["so"]  # each build has its own object
    assert native == baseline

