"""The kernel suite is the one tier switch.

Every component that runs kernels holds a suite — the NumPy one unless
it is handed another — and calls it without asking which tier it is.
Pinned two ways: what each component holds when built without
``kernels=``, and a scan of ``src/repro`` for code that asks anyway.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.core import ConstraintSolver, ForceCalculator, MDParams
from repro.ensemble.engine import (
    EnsembleConstraintSolver,
    EnsembleForceCalculator,
    tile_system,
)
from repro.ewald import GaussianSplitEwald, MeshStencilPlan
from repro.geometry import EnsembleNeighborList, NeighborList
from repro.kernels import available, get_suite
from repro.systems import build_water_box

SRC = Path(repro.__file__).resolve().parent


def test_components_built_without_a_suite_hold_the_numpy_suite(monkeypatch):
    """Whatever the environment resolves to: ``kernels=`` omitted is NumPy."""
    if available():
        monkeypatch.setenv("REPRO_KERNEL_TIER", "compiled")
    numpy_k = get_suite("numpy")
    system = build_water_box(n_molecules=24, seed=11)
    params = MDParams(cutoff=4.0, mesh=(16, 16, 16))
    stacked = tile_system(system, 2)
    solver = ConstraintSolver(system.topology, system.masses, system.box)
    held = {
        "ForceCalculator": ForceCalculator(system, params).kernels,
        "NeighborList": NeighborList(system.box, 4.0).kernels,
        "EnsembleNeighborList": EnsembleNeighborList(system.box, 4.0, 2, system.n_atoms).kernels,
        "ConstraintSolver": solver.kernels,
        "EnsembleForceCalculator": EnsembleForceCalculator(
            stacked, params, 2, system.n_atoms
        ).kernels,
        "EnsembleConstraintSolver": EnsembleConstraintSolver(solver, 2, system.n_atoms).kernels,
    }
    for method in (
        MeshStencilPlan.build, MeshStencilPlan.spread_codes, MeshStencilPlan.spread_float,
        MeshStencilPlan.interpolate_forces, GaussianSplitEwald.make_plan,
        GaussianSplitEwald.mesh_pass, GaussianSplitEwald.kspace,
    ):
        held[method.__qualname__] = inspect.signature(method).parameters["kernels"].default
    assert {name: k for name, k in held.items() if k is not numpy_k} == {}


class _TierQuestions(ast.NodeVisitor):
    """``(file, enclosing function)`` of every place that asks which tier runs."""

    def __init__(self, path: str):
        self.path, self.func, self.found = path, None, []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        args = node.args
        defaults = [*([None] * (len(args.args) - len(args.defaults))), *args.defaults]
        for arg, default in [*zip(args.args, defaults), *zip(args.kwonlyargs, args.kw_defaults)]:
            if arg.arg == "kernels" and isinstance(default, ast.Constant) and default.value is None:
                self.found.append((self.path, node.name, "kernels=None"))
        self.generic_visit(node)
        self.func = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        for op, (a, b) in zip(node.ops, zip(operands, operands[1:])):
            if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                isinstance(x, ast.Attribute) and x.attr == "tier" for x in (a, b)
            ):
                self.found.append((self.path, self.func, ".tier =="))
            if (
                isinstance(op, (ast.Is, ast.IsNot))
                and isinstance(b, ast.Constant) and b.value is None
                and (
                    (isinstance(a, ast.Name) and a.id in ("kernels", "k"))
                    or (isinstance(a, ast.Attribute) and a.attr == "kernels")
                )
            ):
                self.found.append((self.path, self.func, "kernels is None"))
        self.generic_visit(node)


def test_only_the_stencil_plan_asks_which_tier_runs():
    """Outside ``repro/kernels/`` no code compares a ``.tier``, tests a
    suite against ``None`` or defaults one to ``None`` — except the
    plan's cubes-or-fused choice, which owns the cube format."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("kernels/"):
            continue
        visitor = _TierQuestions(rel)
        visitor.visit(ast.parse(path.read_text(), filename=rel))
        found += visitor.found
    assert found == [("ewald/gse.py", "_fused", ".tier ==")]


def test_the_scan_sees_a_tier_question():
    """The scan catches each shape of tier question it exists to forbid."""
    visitor = _TierQuestions("x.py")
    visitor.visit(ast.parse(
        "def f(self, kernels=None):\n"
        "    k = self.kernels\n"
        "    if k is not None and k.tier == 'compiled':\n"
        "        return self.kernels is None\n"
    ))
    kinds = sorted(kind for _, _, kind in visitor.found)
    assert kinds == [".tier ==", "kernels is None", "kernels is None", "kernels=None"]
    assert {func for _, func, _ in visitor.found} == {"f"}
