"""Integration: the host's BLAS owns no bit of a trajectory.

The mesh gather's sums used to be a batched ``matmul`` and two
``einsum``s, whose reduction order is whatever the BLAS NumPy ships
chooses — and OpenBLAS may choose differently per thread count.  They
are now adds in the order DESIGN.md's gather-order lemma defines, on
both tiers, so nothing a run computes may depend on
``OPENBLAS_NUM_THREADS``.  Asserted in two child processes (the
variable is read when NumPy loads): a minimised float-path system, a
short solo run on each tier and a short 8-node machine run must give
the same digests at one and at two BLAS threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import hashlib, json
from repro.core import BerendsenThermostat, MDParams, Simulation, minimize_energy
from repro.io.serialize import pack_state
from repro.kernels import available
from repro.machine import AntonMachine
from repro.systems import build_water_box

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

system = build_water_box(n_molecules=24, seed=11)
energy = minimize_energy(system, MDParams(cutoff=4.0, mesh=(16, 16, 16)), max_steps=15)
out = {"minimized": [float(energy).hex(), digest(system.positions)]}
system.initialize_velocities(300.0, seed=12)
params = MDParams(cutoff=4.0, skin=0.1, mesh=(16, 16, 16), long_range_every=2)
for tier in ("numpy", "compiled") if available() else ("numpy",):
    sim = Simulation(system.copy(), params, dt=1.0, constraints=True,
                     thermostat=BerendsenThermostat(300.0), kernel_tier=tier)
    sim.run(6)
    out["solo"] = out.get("solo", []) + [digest(*sim.integrator.state_codes())]
machine = AntonMachine(system.copy(), MDParams(cutoff=4.0, mesh=(16, 16, 16)), n_nodes=8, dt=1.0)
try:
    machine.run(4)
    out["machine"] = hashlib.sha256(pack_state(machine.checkpoint())).hexdigest()
finally:
    machine.close()
print(json.dumps(out))
"""


def run_child(blas_threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_one_and_two_blas_threads_agree_on_every_byte():
    one, two = run_child(1), run_child(2)
    assert len(set(one["solo"])) == 1  # and the tiers agree with each other
    assert one == two
