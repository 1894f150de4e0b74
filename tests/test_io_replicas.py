"""Unit tests for shared artifact naming (replicas + job store)."""

from pathlib import Path

from repro.io import (
    job_checkpoint_dir,
    job_energy_log_path,
    job_trajectory_path,
    replica_checkpoint_dir,
    replica_trajectory_path,
    sanitize_artifact_name,
    unique_artifact_dir,
)


class TestIndexedArtifactPath:
    def test_suffix_preserved(self):
        assert replica_trajectory_path("out/traj.rrs", 3) == Path("out/traj.r003.rrs")

    def test_missing_suffix_gets_default(self):
        # The rename edge case: "traj" and "traj.rrs" derive the same family.
        assert replica_trajectory_path("traj", 0) == Path("traj.r000.rrs")
        assert replica_trajectory_path("traj", 0) == replica_trajectory_path("traj.rrs", 0)

    def test_multi_dot_names(self):
        assert replica_trajectory_path("run.v2.rrs", 1) == Path("run.v2.r001.rrs")

    def test_replica_helpers_delegate(self):
        assert replica_trajectory_path("t.rrs", 12) == Path("t.r012.rrs")
        assert replica_checkpoint_dir("ck", 2) == Path("ck/replica-002")

    def test_indices_never_collide(self):
        names = {replica_trajectory_path("t.rrs", i) for i in range(100)}
        assert len(names) == 100


class TestSanitize:
    def test_safe_names_pass_through(self):
        assert sanitize_artifact_name("relax-300K_v2.1") == "relax-300K_v2.1"

    def test_unsafe_runs_collapse(self):
        assert sanitize_artifact_name("my job/№7") == "my-job-7"

    def test_traversal_neutralized(self):
        assert ".." not in sanitize_artifact_name("../../etc/passwd")
        assert not sanitize_artifact_name("...hidden").startswith(".")

    def test_empty_falls_back(self):
        assert sanitize_artifact_name("///") == "job"
        assert sanitize_artifact_name("", fallback="x") == "x"


class TestUniqueArtifactDir:
    def test_creates_and_returns(self, tmp_path):
        d = unique_artifact_dir(tmp_path, "alpha")
        assert d == tmp_path / "alpha" and d.is_dir()

    def test_collision_gets_deterministic_suffix(self, tmp_path):
        first = unique_artifact_dir(tmp_path, "alpha")
        second = unique_artifact_dir(tmp_path, "alpha")
        third = unique_artifact_dir(tmp_path, "alpha")
        assert (first.name, second.name, third.name) == ("alpha", "alpha-2", "alpha-3")

    def test_sanitized_collision(self, tmp_path):
        # Two different unsafe names sanitizing to the same slug must
        # still get distinct directories.
        a = unique_artifact_dir(tmp_path, "my job")
        b = unique_artifact_dir(tmp_path, "my?job")
        assert a != b and a.is_dir() and b.is_dir()

    def test_job_layout_helpers(self, tmp_path):
        d = unique_artifact_dir(tmp_path, "j")
        assert job_trajectory_path(d) == d / "traj.rrs"
        assert job_checkpoint_dir(d) == d / "ck"
        assert job_energy_log_path(d) == d / "energy.jsonl"
