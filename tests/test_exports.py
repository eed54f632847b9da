"""Every name the package exports is used by the library or the benchmark,
or is kept here for a stated reason; test-only code lives in tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieext"
ACCEPTANCE = "called by tests/test_acceptance.py, the paper's acceptance criteria"
KEEP = {
    "adjoint_module": "planned: ROADMAP item 12",
    "cohomology_representatives": "planned: ROADMAP items 1 and 17",
    **dict.fromkeys(["conjugate_coeff", "group_unit", "delta_cochain", "pointwise_product"],
                    "planned: ROADMAP item 10, the extension's group law"),
    "spanning_chain": "planned: ROADMAP item 10; `benchmark/tracer.py` wraps it by name",
    "sl2_group": "planned: ROADMAP item 3",
    **dict.fromkeys(["curvature_defect", "cocycle_recovery_residual", "period", "betti",
                     "cube_boundary_chain"], ACCEPTANCE),
    "is_cocycle": "the library's cocycle predicate; benchmark/tracer.py wraps it by name",
}


def names_in(path):
    """The names path reads: Name ids, Attribute attrs, ImportFrom aliases."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_or_kept_for_a_reason():
    exported = {alias.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(names_in, users + list((ROOT / "benchmark").glob("*.py"))))
    assert sorted(exported - used - set(KEEP)) == []
    assert sorted(set(KEEP) - exported) == []  # a name no longer exported needs no reason
