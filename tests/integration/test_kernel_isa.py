"""Integration: the ISA and width the kernels are compiled for are
invisible in the bits.

The compiled tier is built for the host's own vector ISA at its full
vector width (``-march=native -mprefer-vector-width=512``).
``REPRO_KERNEL_CFLAGS`` (appended last, so it wins) gives three other
builds of the same source on the same ladder: the host ISA at 256-bit
vectors (``-mprefer-vector-width=256``), the baseline ISA
(``-march=x86-64``) and no vectoriser at all (``-O0``).  IEEE add,
multiply, divide and ``rint`` are correctly rounded per element at every
vector width and no build contracts or reassociates (DESIGN.md,
vector-width lemma), so the four builds must agree on every byte.
Asserted here, not assumed: the same short 8-node machine and R = 2
ensemble run in four child processes, one per build, and their state
codes and energies are compared — together with the cache keys, which
must all differ, or one build would have been handed another's object.
(That a different *host* ISA token alone changes the key is
``test_kernel_tier.py``'s, beside the faked compiler.)
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


#: The extra flags of each build; None is the production build.
BUILDS = (None, "-mprefer-vector-width=256", "-march=x86-64", "-O0")


def test_native_and_baseline_isa_builds_agree_on_every_byte():
    runs = [run_child(flags) for flags in BUILDS]
    kernels = [run.pop("kernel") for run in runs]
    assert all(k["tier"] == "compiled" for k in kernels)
    production = kernels[0]
    if production["rung"] == "host-isa":
        assert build.HOST_ISA_FLAG in production["flags"]
        assert build.VECTOR_WIDTH_FLAG in production["flags"]
    for k, flags in zip(kernels[1:], BUILDS[1:]):
        assert k["flags"].endswith(flags)
    assert len({k["so"] for k in kernels}) == len(BUILDS)  # each build its own object
    for run, flags in zip(runs[1:], BUILDS[1:]):
        assert run == runs[0], flags
