"""Unit tests for deterministic state serialization and fingerprints."""

import numpy as np
import pytest

from repro.core import FixedPointConfig, MDParams
from repro.io import FingerprintMismatch, check_fingerprint, system_fingerprint
from repro.io.serialize import pack_state, unpack_state
from repro.systems import build_water_box


class TestPackState:
    def test_scalar_round_trip(self):
        value = {
            "none": None,
            "true": True,
            "false": False,
            "int": -(2**62),
            "float": 0.1 + 0.2,
            "str": "héllo",
            "bytes": b"\x00\xff",
            "list": [1, 2.5, "x"],
            "nested": {"a": {"b": [None, True]}},
        }
        assert unpack_state(pack_state(value)) == value

    def test_ndarray_round_trip_bitwise(self):
        rng = np.random.default_rng(3)
        arrays = {
            "i64": rng.integers(-(2**40), 2**40, size=(7, 3)),
            "f64": rng.standard_normal((5, 3)),
            "f32": rng.standard_normal(4).astype(np.float32),
            "empty": np.empty((0, 3), dtype=np.int64),
        }
        back = unpack_state(pack_state(arrays))
        for key, arr in arrays.items():
            assert back[key].dtype == arr.dtype
            assert back[key].shape == arr.shape
            np.testing.assert_array_equal(back[key], arr)

    def test_unpacked_arrays_are_writable(self):
        back = unpack_state(pack_state({"a": np.arange(3)}))
        back["a"][0] = 99  # must not raise (frombuffer views are read-only)

    def test_same_value_same_bytes(self):
        state = {"X": np.arange(12).reshape(4, 3), "step": 7, "dt": 2.5}
        assert pack_state(state) == pack_state(
            {"X": np.arange(12).reshape(4, 3), "step": 7, "dt": 2.5}
        )

    def test_rejects_object_arrays_and_unknown_types(self):
        with pytest.raises(TypeError):
            pack_state(np.array([object()]))
        with pytest.raises(TypeError):
            pack_state({"x": set()})
        with pytest.raises(TypeError):
            pack_state({1: "non-str key"})

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            unpack_state(pack_state({"a": 1}) + b"junk")


PARAMS = MDParams(cutoff=4.2, mesh=(16, 16, 16), long_range_every=2)


@pytest.fixture(scope="module")
def system():
    return build_water_box(n_molecules=24, seed=5)


class TestFingerprint:
    def test_self_consistent(self, system):
        fp = system_fingerprint(system, PARAMS, "fixed", 1.0, FixedPointConfig())
        check_fingerprint(fp, fp)  # no raise

    def test_skin_is_bitwise_irrelevant(self, system):
        from dataclasses import replace

        a = system_fingerprint(system, PARAMS, "fixed", 1.0)
        b = system_fingerprint(system, replace(PARAMS, skin=3.7), "fixed", 1.0)
        assert a["params_hash"] == b["params_hash"]

    def test_cutoff_changes_params_hash(self, system):
        from dataclasses import replace

        a = system_fingerprint(system, PARAMS, "fixed", 1.0)
        b = system_fingerprint(system, replace(PARAMS, cutoff=4.0), "fixed", 1.0)
        assert a["params_hash"] != b["params_hash"]

    def test_kernel_mode_keyword_is_not_hashed(self, system):
        a = system_fingerprint(system, MDParams(), "fixed", 1.0)
        b = system_fingerprint(
            system, MDParams(kernel_mode="table", quantize_mesh_bits=40), "fixed", 1.0
        )
        assert a["params_hash"] == b["params_hash"]

    @pytest.mark.parametrize("params, digest", [
        (MDParams(), "492612aac42904e5e9d3621cbe5276618301df4157d71f9a12a766d5ea61e817"),
        (MDParams(cutoff=7.5, long_range_every=2),
         "0d67969162323d26e1b9a635896b2e8398c4a13de1a316153aaa502142f7902f"),
    ], ids=["default", "cutoff-and-mts"])
    def test_params_hash_is_pinned(self, system, params, digest):
        # Recorded at commit 18be3a9, when ewald_tolerance, electrostatics
        # and table_mantissa_bits were still MDParams fields: the constants
        # that replaced them are hashed under the old names, so checkpoints
        # and trajectories written then still match.
        assert system_fingerprint(system, params, "fixed", 1.0)["params_hash"] == digest

    def test_different_system_rejected(self, system):
        other = build_water_box(n_molecules=27, seed=5)
        a = system_fingerprint(system, PARAMS, "fixed", 1.0)
        b = system_fingerprint(other, PARAMS, "fixed", 1.0)
        with pytest.raises(FingerprintMismatch, match="n_atoms"):
            check_fingerprint(a, b)

    def test_datapath_width_mismatch_rejected(self, system):
        """A stored fingerprint of another position width (a file written
        by a build whose width was not 40) is refused."""
        a = system_fingerprint(system, PARAMS, "fixed", 1.0, FixedPointConfig())
        assert a["position_bits"] == 40
        stored = {**a, "position_bits": 32}
        with pytest.raises(FingerprintMismatch, match="position_bits"):
            check_fingerprint(stored, a)

    def test_unknown_fields_ignored(self, system):
        # Forward compatibility: fields the current code does not know
        # about must not fail the check.
        a = system_fingerprint(system, PARAMS, "fixed", 1.0)
        stored = dict(a, future_field="whatever")
        check_fingerprint(stored, a)  # no raise

    def test_mismatch_message_lists_every_field(self, system):
        a = system_fingerprint(system, PARAMS, "fixed", 1.0)
        b = system_fingerprint(system, PARAMS, "float", 2.5)
        with pytest.raises(FingerprintMismatch) as err:
            check_fingerprint(a, b, what="trajectory")
        assert "mode" in str(err.value)
        assert "dt" in str(err.value)
        assert "trajectory" in str(err.value)
