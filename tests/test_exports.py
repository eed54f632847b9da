"""Every name the package exports is used by the library or the benchmark,
or is kept here for a stated reason; test-only code lives in tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieext"
ACCEPTANCE = "called by tests/test_acceptance.py, the paper's acceptance criteria"
VALIDATOR = ("the README's validator of a group; `validate` calls its two halves apart, "
             "to report the algebra's issues before the module's")
TRACED = "benchmark/tracer.py wraps it by name"
KEEP = {
    "adjoint_module": "planned: ROADMAP item 12",
    "cohomology_representatives": "planned: ROADMAP items 1 and 17",
    **dict.fromkeys(["conjugate_coeff", "group_unit", "delta_cochain", "pointwise_product", "GroupLaw",
                     "group_multiply", "group_inverse", "apply_delta"],
                    "planned: ROADMAP item 10, the extension's group law"),
    "spanning_chain": "the tests' reference for `_spanning_integral`; `benchmark/tracer.py` wraps it by name",
    **dict.fromkeys(["curvature_defect", "cocycle_recovery_residual", "period", "betti",
                     "cube_boundary_chain", "differentiate_group_cocycle"], ACCEPTANCE),
    "is_cocycle": "the library's cocycle predicate; benchmark/tracer.py wraps it by name",
    **dict.fromkeys(["apply_d", "build_complex_slice", "coboundary_matrix", "assert_cycle_closed"], TRACED),
    "smooth_step": "the spanning surfaces' schedule, with which the tests build their reference surfaces",
    "eval_equivariant": "the form at one point, the tests' per-node reference for the quadrature",
    "validate_group": VALIDATOR,
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
    """A use counts outside the module that defines the name: a name its own
    module alone reads is still unused by the rest of the library."""
    home = {alias.name: node.module for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = set(home)
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "benchmark").glob("*.py"))
    reads = {p: names_in(p) for p in users}
    used = {name for name in exported
            if any(name in names for p, names in reads.items() if p.parent != PACKAGE or p.stem != home[name])}
    assert sorted(exported - used - set(KEEP)) == []
    assert sorted(set(KEEP) - exported) == []  # a name no longer exported needs no reason


KEEP_PARAMS = {
    **dict.fromkeys(["period.quad_order", "cocycle_recovery_residual.step",
                     "cocycle_recovery_residual.quad_order", "is_cocycle.tol"], ACCEPTANCE),
    "cochain_from_pairs.degree": "the one reader of keyed cochains, which tests use at degrees 0 and 1",
    "validate_group.tol_alg": VALIDATOR,
}


def defaulted_params(path):
    """(function, position or None if keyword-only, name) for each defaulted
    parameter of path's module-level functions."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            yield from ((node.name, i, arg.arg) for i, arg in enumerate(positional) if i >= first)
            yield from ((node.name, None, arg.arg)
                        for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)


def calls_in(path):
    """(called name, positions passed, keywords passed) for each call in path;
    a *args passes every later position, a **kwargs (keyword None) every keyword."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
            yield (getattr(node.func, "id", None) or node.func.attr,
                   starred[0] if starred else len(node.args), {k.arg for k in node.keywords})


def test_every_defaulted_parameter_is_passed_or_kept_for_a_reason():
    """A default that no call in the library or the benchmark overrides is a
    parameter with one value: it goes, or KEEP_PARAMS says why it stays."""
    exported = {alias.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    calls = [c for path in [*PACKAGE.glob("*.py"), *(ROOT / "benchmark").glob("*.py")]
             for c in calls_in(path)]
    unpassed = {
        f"{fn}.{param}"
        for path in PACKAGE.glob("*.py") for fn, position, param in defaulted_params(path)
        if fn in exported and not any(
            name == fn and ((position is not None and position < n) or {param, None} & keywords)
            for name, n, keywords in calls)
    }
    assert sorted(unpassed - set(KEEP_PARAMS)) == []
    assert sorted(set(KEEP_PARAMS) - unpassed) == []  # a passed parameter needs no reason


KEEP_PRIVATE = {
    "_require_cocycles": "the package's one refusal of a non-cocycle, which the form (documents) and "
                         "the extension (extensions) raise at their own tolerance",
    "_group_identities": VALIDATOR,
    "_issues_above": "the issue format of every validator, which groups' validators share with algebra's",
    **dict.fromkeys(["_path_nodes", "_triangle_integral"],
                    "pi1 takes the per-path step once per loop and the pair step on k² pairs"),
    "_quoted": "the one bound on a value quoted in a message, shared by documents, expressions, "
               "geometry, integrability and cochain_from_pairs",
    "_cut": "the same bound on a matrix group's name, which documents prints without quotes",
    "_coincidence_tol": "the one closeness rule for group elements, which the closure check and the "
                        "spanning guard (geometry) and the pi1 loop check (integrability) share with "
                        "validate_path",
    "_along": "an open chain's refusal re-reads the closure check's uncancelled segments to give "
              "the closest two's distance",
}


def test_every_private_name_imported_across_modules_is_kept_for_a_reason():
    """An underscore name that one lieext module imports from another is a
    step the owner shares: it goes, or KEEP_PRIVATE says why it stays."""
    imported = {alias.name for path in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if alias.name.startswith("_")}
    assert sorted(imported - set(KEEP_PRIVATE)) == []
    assert sorted(set(KEEP_PRIVATE) - imported) == []  # a name no longer imported needs no reason
