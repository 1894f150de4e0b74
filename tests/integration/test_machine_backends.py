"""Execution backends of the machine simulation are interchangeable.

The paper's parallel-invariance argument (Section 4) — quantize once,
integer-accumulate, and the distribution of terms is invisible — is
what lets the simulator swap its own execution strategy: array
kernels (vectorized) against the per-node Python loops they replaced
(serial, the oracle).  These tests pin that claim bit-for-bit:
identical state codes across backends and node counts, identical
traffic statistics, and a checkpoint that restores across backends.
"""

import numpy as np
import pytest

from repro.core import MDParams, minimize_energy
from repro.kernels import available
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.serial_backend import machine_backend

PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    long_range_every=2,
)


@pytest.fixture(scope="module")
def base_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def run_machine(base_system, backend, n_nodes=8, steps=4, params=PARAMS):
    machine = AntonMachine(
        base_system.copy(), params, n_nodes=n_nodes, dt=1.0, backend=machine_backend(backend)
    )
    try:
        machine.step(steps)
        return machine.state_codes(), machine.traffic_summary(), machine.network.stats
    finally:
        machine.close()


class TestBackendEquivalence:
    @pytest.mark.parametrize("n_nodes", [1, 8, 64])
    def test_serial_vs_vectorized_bitwise(self, base_system, n_nodes):
        (Xs, Vs), _, _ = run_machine(base_system, "serial", n_nodes=n_nodes)
        (Xv, Vv), _, _ = run_machine(base_system, "vectorized", n_nodes=n_nodes)
        np.testing.assert_array_equal(Xs, Xv)
        np.testing.assert_array_equal(Vs, Vv)

    def test_traffic_statistics_identical(self, base_system):
        _, tags_s, stats_s = run_machine(base_system, "serial")
        _, tags_v, stats_v = run_machine(base_system, "vectorized")
        assert tags_s == tags_v
        assert stats_s.messages == stats_v.messages
        assert stats_s.bytes == stats_v.bytes
        assert stats_s.hop_bytes == stats_v.hop_bytes
        np.testing.assert_array_equal(
            stats_s.per_node_messages, stats_v.per_node_messages
        )
        np.testing.assert_array_equal(stats_s.per_node_bytes, stats_v.per_node_bytes)

    def test_unknown_backend_rejected(self, base_system):
        # No name registry: "vectorized" or a MachineBackend instance.
        for bad in ("simd", "serial"):
            with pytest.raises(ValueError, match="unknown backend"):
                AntonMachine(base_system.copy(), PARAMS, n_nodes=8, backend=bad)


    def test_checkpoint_restore_across_backends(self, base_system):
        # A serial machine resumes a vectorized machine's checkpoint:
        # the snapshot is backend-independent integer state.
        donor = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        donor.step(2)
        chk = donor.checkpoint()
        donor.step(2)
        X_ref, V_ref = donor.state_codes()

        resumed = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend=machine_backend("serial")
        )
        resumed.restore(chk)
        resumed.step(2)
        X_res, V_res = resumed.state_codes()
        np.testing.assert_array_equal(X_ref, X_res)
        np.testing.assert_array_equal(V_ref, V_res)


#: The three ways a machine step's pairs reach the accumulator and the
#: network: per-node loops, NumPy array passes, the compiled walk + marks.
EXECUTIONS = (("serial", "numpy"), ("vectorized", "numpy"), ("vectorized", "compiled"))


@pytest.mark.skipif(not available(), reason="no C compiler: compiled kernel tier unavailable")
class TestExecutionEquivalence:
    """Serial-NumPy, vectorized-NumPy and vectorized-compiled agree on the
    bits and on every traffic number: the force-export routes come from
    ``np.unique`` over the pairs in the first and from the (atom, node)
    marks in the other two."""

    def _run(self, base_system, backend, tier, **extra):
        machine = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend=machine_backend(backend),
            kernel_tier=tier, **extra,
        )
        try:
            machine.run(6)
            out = {
                "codes": [a.copy() for a in machine.state_codes()],
                "traffic": machine.traffic_summary(),
                "messages": machine.network.stats.messages,
                "bytes": machine.network.stats.bytes,
            }
            if machine.router is not None:
                out["link_bytes"] = machine.router.primary.bytes.copy()
                out["link_packets"] = machine.router.primary.packets.copy()
                out["export_link_bytes"] = machine.router.by_tag["force_export"].bytes.copy()
            if machine.fault_controller is not None:
                out["faults"] = machine.fault_report()
            return out
        finally:
            machine.close()

    @staticmethod
    def _assert_same(a, b):
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], (list, np.ndarray)):
                for x, y in zip(a[key], b[key]):
                    np.testing.assert_array_equal(x, y, err_msg=key)
            else:
                assert a[key] == b[key], key

    def test_traffic_summary_and_routed_link_loads(self, base_system):
        ref, *others = (
            self._run(base_system, backend, tier, routed=True)
            for backend, tier in EXECUTIONS
        )
        assert ref["traffic"]["force_export"][0] > 0
        assert ref["export_link_bytes"].sum() > 0
        for other in others:
            self._assert_same(ref, other)

    def test_faulted_run_heals_to_the_same_bits_and_primary_traffic(self, base_system):
        clean = self._run(base_system, "serial", "numpy")
        for backend, tier in EXECUTIONS:
            healed = self._run(
                base_system, backend, tier, faults={"drop": 0.3, "corrupt": 0.2},
                fault_seed=7,
            )
            assert healed.pop("faults")["retries"] > 0
            # Primary traffic excludes retransmits: exactly the clean run's.
            for key in ("codes", "traffic"):
                self._assert_same({key: clean[key]}, {key: healed[key]})


class TestStepProfile:
    """The hierarchical phase profile accounts for the step wall time."""

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_profile_covers_step_and_exposes_mesh_subphases(self, base_system, backend):
        machine = AntonMachine(
            base_system.copy(), PARAMS, n_nodes=8, dt=1.0, backend=machine_backend(backend)
        )
        try:
            machine.step(4)
            prof = machine.profile()
        finally:
            machine.close()
        assert prof["steps"] == 4
        assert prof["wall_per_step"] > 0.0
        # Top-level phases must explain >= 90% of the measured step time.
        assert prof["coverage"] >= 0.9
        mesh = (
            prof["phases"]["step"]["children"]["force"]["children"]
            ["machine_mesh"]["children"]
        )
        for phase in ("mesh_plan", "mesh_spread", "mesh_fft", "mesh_interp"):
            assert phase in mesh
            assert mesh[phase]["seconds_per_step"] > 0.0
