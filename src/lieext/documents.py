"""Problem documents: the declarative JSON input format of the CLI.

A document names its task and provides the sections that task needs:
algebra (structure constants, sparse triples or dense), module (rho
matrices and an optional group-action expression), lattice, group (a named
built-in or an explicit matrix realization), cocycles, and parametric
paths/loops/cycles written in the small expression grammar (variables t
and s).  Indices are 0-based throughout.  parse_document builds and
cross-checks the in-memory objects; dispatch lives in the cli module.
"""

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import expressions
from .algebra import (
    Lattice,
    LieAlgebra,
    ModuleAction,
    trivial_module,
)
from .cohomology import Cochain
from .errors import (
    DocumentError,
    ExpressionError,
    LieExtError,
    MalformedInputError,
    UnresolvedReferenceError,
)
from .extensions import AlgebraExtension
from .geometry import Surface2Chain, SurfacePatch
from .groups import (
    GroupPath,
    MatrixGroup,
    heisenberg_group,
    su2_group,
    torus_group,
    translation_group,
)
from .integrability import CycleSet, torus_winding_loop

SCHEMA_VERSION = 1

TASKS = (
    "validate",
    "cohomology",
    "extend",
    "equivalence",
    "gamma",
    "d2",
    "check-integrability",
    "pi1",
)


@dataclass
class ProblemDocument:
    """Parsed and cross-checked problem statement."""

    task: str
    raw: dict
    algebra: Optional[LieAlgebra] = None
    module: Optional[ModuleAction] = None
    lattice: Optional[Lattice] = None
    group: Optional[MatrixGroup] = None
    cocycle: Optional[Cochain] = None
    cocycle2: Optional[Cochain] = None
    paths: Dict[str, GroupPath] = field(default_factory=dict)
    loops: List[tuple] = field(default_factory=list)
    cycles: Optional[CycleSet] = None
    pair: Optional[tuple] = None
    cochain_expr: Optional[list] = None
    options: dict = field(default_factory=dict)


def _require(condition, message):
    if not condition:
        raise DocumentError(message)


def _as_float_array(obj, shape_desc, context):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{context}: expected {shape_desc}: {exc}") from None
    return arr


def _count(section: dict, key: str, context: str) -> int:
    """section[key], required to be a non-negative integer."""
    _require(key in section, f"{context} needs a {key!r} field")
    value = section[key]
    _require(
        isinstance(value, int) and value >= 0,
        f"{context} {key} must be a non-negative integer, got {value!r}",
    )
    return value


def _parse_algebra(section) -> LieAlgebra:
    _require(isinstance(section, dict), "algebra section must be an object")
    n = _count(section, "dim", "algebra")
    labels = tuple(section.get("labels", ()))
    if "structure_constants_dense" in section:
        c = _as_float_array(
            section["structure_constants_dense"], "an n x n x n array", "algebra"
        )
        if c.shape != (n, n, n):
            raise DocumentError(
                f"algebra: dense structure constants have shape {c.shape}, "
                f"expected {(n, n, n)}"
            )
    else:
        c = np.zeros((n, n, n))
        for entry in section.get("structure_constants", []):
            _require(
                isinstance(entry, (list, tuple)) and len(entry) == 4,
                "algebra: sparse structure constants are [i, j, k, value] rows",
            )
            i, j, k, value = entry
            _require(
                all(isinstance(x, int) for x in (i, j, k)),
                f"algebra: indices must be integers in {entry}",
            )
            _require(
                0 <= i < n and 0 <= j < n and 0 <= k < n,
                f"algebra: index out of range in {entry}",
            )
            _require(i < j, f"algebra: sparse rows need i < j, got {entry}")
            c[i, j, k] = float(value)
            c[j, i, k] = -float(value)  # antisymmetric partner filled by convention
    try:
        return LieAlgebra(structure_constants=c, basis_labels=labels)
    except MalformedInputError as exc:
        raise DocumentError(f"algebra: {exc}") from None


def serialize_algebra(alg: LieAlgebra) -> dict:
    """Algebra section in the sparse document format (round-trippable)."""
    c = alg.structure_constants
    rows = []
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if c[i, j, k] != 0.0:
                    rows.append([i, j, k, float(c[i, j, k])])
    return {
        "dim": n,
        "labels": list(alg.basis_labels),
        "structure_constants": rows,
    }


def serialize_extension(ext: AlgebraExtension) -> dict:
    """Document fragment for a built extension: total algebra plus markers."""
    return {
        "algebra": serialize_algebra(ext.total),
        "base_dim": ext.base_dim,
        "coeff_dim": ext.coeff_dim,
    }


def _compile_exprs(strings, context):
    out = []
    for idx, text in enumerate(strings):
        try:
            out.append(expressions.parse_expression(text))
        except ExpressionError as exc:
            pos = f" at position {exc.position}" if exc.position is not None else ""
            raise DocumentError(f"{context}[{idx}]: {exc}{pos}") from None
    return out


def _parse_module(section, alg: Optional[LieAlgebra], group: Optional[MatrixGroup]) -> ModuleAction:
    _require(isinstance(section, dict), "module section must be an object")
    m = _count(section, "coeff_dim", "module")
    dim = alg.dim if alg is not None else (group.algebra.dim if group else None)
    _require(dim is not None, "module section needs an algebra or group to attach to")
    if "rho" in section:
        rho = _as_float_array(section["rho"], "an n x m x m array", "module")
        if rho.shape != (dim, m, m):
            raise DocumentError(
                f"module: rho has shape {rho.shape}, expected {(dim, m, m)}"
            )
    else:
        rho = np.zeros((dim, m, m))
    action = None
    ga = section.get("group_action")
    if ga is not None and ga != "trivial":
        _require(
            isinstance(ga, dict) and "exprs" in ga,
            "module.group_action must be 'trivial' or {'exprs': [...]}",
        )
        _require(group is not None and group.chart is not None,
                 "module.group_action needs a group with a coordinate chart")
        exprs = _compile_exprs(ga["exprs"], "module.group_action.exprs")
        _require(len(exprs) == m, f"module.group_action needs {m} expressions")
        chart = group.chart

        def action(g, v):
            coords = chart.to_coords(g)
            env = {f"g{i + 1}": coords[i] for i in range(chart.dim)}
            env.update({f"a{j + 1}": v[j] for j in range(m)})
            return np.array([e(env) for e in exprs])

    return ModuleAction(rho=rho, group_action=action)


def _parse_lattice(section, coeff_dim: Optional[int]) -> Lattice:
    _require(isinstance(section, dict), "lattice section must be an object")
    gens = _as_float_array(section.get("generators", []), "an r x m array", "lattice")
    if gens.size == 0:
        m = coeff_dim if coeff_dim else 1
        gens = np.zeros((0, m))
    if gens.ndim != 2:
        raise DocumentError(f"lattice: generators must be r x m, got shape {gens.shape}")
    if coeff_dim is not None and gens.shape[0] > 0 and gens.shape[1] != coeff_dim:
        raise DocumentError(
            f"lattice: generators live in R^{gens.shape[1]} but the coefficient "
            f"space is R^{coeff_dim}"
        )
    return Lattice(generators=gens)


def _parse_group(section) -> MatrixGroup:
    _require(isinstance(section, dict), "group section must be an object")
    kind = section.get("kind")
    if kind == "torus":
        return torus_group(_count(section, "dim", "torus group"))
    if kind == "translation":
        return translation_group(_count(section, "dim", "translation group"))
    if kind == "su2":
        return su2_group()
    if kind == "heisenberg":
        return heisenberg_group()
    if kind == "matrix":
        _require("basis" in section, "matrix group needs 'basis'")
        basis = _as_float_array(section["basis"], "an n x d x d array", "group.basis")
        _require("structure_constants" in section or "algebra" in section,
                 "matrix group needs structure constants (via 'algebra')")
        alg = _parse_algebra(section["algebra"])
        try:
            return MatrixGroup(
                algebra=alg,
                basis=basis,
                mod_action=trivial_module(alg.dim, 1),
                name=section.get("name", "matrix-group"),
            )
        except MalformedInputError as exc:
            raise DocumentError(f"group: {exc}") from None
    raise DocumentError(
        f"unknown group kind {kind!r} (expected torus, translation, su2, "
        "heisenberg, or matrix)"
    )


def _parse_cocycle(section, alg_dim: int, coeff_dim: int, context="cocycle") -> Cochain:
    _require(isinstance(section, dict), f"{context} section must be an object")
    degree = section.get("degree", 2)
    comps = {}
    for entry in section.get("components", []):
        _require(
            isinstance(entry, dict) and "indices" in entry and "value" in entry,
            f"{context}: components are objects with 'indices' and 'value'",
        )
        idx = tuple(entry["indices"])
        _require(
            len(idx) == degree and all(isinstance(i, int) for i in idx),
            f"{context}: indices {idx} must be {degree} integers",
        )
        _require(
            tuple(sorted(idx)) == idx and len(set(idx)) == degree,
            f"{context}: indices {idx} must be strictly increasing",
        )
        value = np.atleast_1d(_as_float_array(entry["value"], "a vector", context))
        if value.shape != (coeff_dim,):
            raise DocumentError(
                f"{context}: value for {idx} has length {value.shape[0]}, "
                f"expected {coeff_dim}"
            )
        comps[idx] = value
    try:
        return Cochain(degree, alg_dim, coeff_dim, comps)
    except MalformedInputError as exc:
        raise DocumentError(f"{context}: {exc}") from None


def _map_eval(entries, var_names, context):
    """Compile a coords vector or matrix of expressions into an evaluator."""
    if isinstance(entries, dict) and "coords" in entries:
        exprs = _compile_exprs(entries["coords"], f"{context}.coords")
        def make(chart):
            def ev(*args):
                env = dict(zip(var_names, args))
                return chart.from_coords(np.array([e(env) for e in exprs]))
            return ev
        return "coords", exprs, make
    if isinstance(entries, dict) and "matrix" in entries:
        rows = entries["matrix"]
        _require(
            isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
            f"{context}.matrix must be a list of rows",
        )
        compiled = [
            [
                float(e) if isinstance(e, (int, float)) else _compile_exprs([e], context)[0]
                for e in row
            ]
            for row in rows
        ]
        def make(chart):
            def ev(*args):
                env = dict(zip(var_names, args))
                return np.array(
                    [[c(env) if callable(c) else c for c in row] for row in compiled]
                )
            return ev
        return "matrix", compiled, make
    raise DocumentError(f"{context} needs either 'coords' or 'matrix'")


def _parse_path(entries, group: MatrixGroup, context) -> GroupPath:
    kind, _, make = _map_eval(entries, ("t",), context)
    if kind == "coords":
        _require(
            group.chart is not None,
            f"{context}: coordinate paths need a group with a chart",
        )
        return GroupPath(eval=make(group.chart))
    return GroupPath(eval=make(None))


def _parse_patch(entry, group: MatrixGroup, context) -> SurfacePatch:
    _require(isinstance(entry, dict), f"{context} must be an object")
    domain = entry.get("domain", "square")
    coeff = entry.get("coefficient", 1)
    _require(isinstance(coeff, int), f"{context}: coefficient must be an integer")
    kind, _, make = _map_eval(entry, ("t", "s"), context)
    if kind == "coords":
        _require(
            group.chart is not None,
            f"{context}: coordinate patches need a group with a chart",
        )
        ev = make(group.chart)
    else:
        ev = make(None)
    try:
        return SurfacePatch(eval=ev, domain=domain, coefficient=coeff)
    except MalformedInputError as exc:
        raise DocumentError(f"{context}: {exc}") from None


def parse_document(text_or_dict) -> ProblemDocument:
    """Parse, build, and cross-check a problem document."""
    if isinstance(text_or_dict, str):
        try:
            raw = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"document is not valid JSON: {exc.msg} at line {exc.lineno} "
                f"column {exc.colno}"
            ) from None
    else:
        raw = text_or_dict
    _require(isinstance(raw, dict), "document must be a JSON object")
    task = raw.get("task")
    _require(task in TASKS, f"task must be one of {', '.join(TASKS)}; got {task!r}")
    options = raw.get("options", {})
    _require(isinstance(options, dict), "options must be an object")
    doc = ProblemDocument(task=task, raw=raw, options=dict(options))

    if "group" in raw:
        doc.group = _parse_group(raw["group"])
    if "algebra" in raw:
        doc.algebra = _parse_algebra(raw["algebra"])
        if doc.group is not None and doc.algebra.dim != doc.group.algebra.dim:
            raise DocumentError(
                f"algebra dim {doc.algebra.dim} does not match group algebra "
                f"dim {doc.group.algebra.dim}"
            )
    elif doc.group is not None:
        doc.algebra = doc.group.algebra

    if "module" in raw:
        doc.module = _parse_module(raw["module"], doc.algebra, doc.group)
    elif doc.algebra is not None:
        doc.module = trivial_module(doc.algebra.dim, 1)

    coeff_dim = doc.module.coeff_dim if doc.module is not None else None
    if "lattice" in raw:
        try:
            doc.lattice = _parse_lattice(raw["lattice"], coeff_dim)
        except LieExtError as exc:
            raise DocumentError(f"lattice: {exc}") from None

    if "cocycle" in raw:
        _require(doc.algebra is not None, "cocycle needs an algebra or group section")
        doc.cocycle = _parse_cocycle(raw["cocycle"], doc.algebra.dim, coeff_dim or 1)
    if "cocycle2" in raw:
        _require(doc.algebra is not None, "cocycle2 needs an algebra or group section")
        doc.cocycle2 = _parse_cocycle(
            raw["cocycle2"], doc.algebra.dim, coeff_dim or 1, context="cocycle2"
        )

    if "paths" in raw:
        _require(doc.group is not None, "paths need a group section")
        _require(isinstance(raw["paths"], dict), "paths section must map names to paths")
        for name, entry in raw["paths"].items():
            doc.paths[name] = _parse_path(entry, doc.group, f"paths[{name!r}]")

    if "loops" in raw:
        _require(doc.group is not None, "loops need a group section")
        for pos, entry in enumerate(raw["loops"]):
            _require(isinstance(entry, dict), "loops entries must be objects")
            name = entry.get("name", f"loop{pos}")
            if "winding" in entry:
                winding = entry["winding"]
                _require(
                    isinstance(winding, list) and all(isinstance(w, int) for w in winding),
                    f"loops[{name!r}]: winding must be a list of integers",
                )
                _require(
                    doc.group.chart is not None and len(winding) == doc.group.chart.dim,
                    f"loops[{name!r}]: winding length must match the group's "
                    "coordinate dimension",
                )
                doc.loops.append((name, torus_winding_loop(doc.group, winding)))
            else:
                doc.loops.append((name, _parse_path(entry, doc.group, f"loops[{name!r}]")))

    if "cycles" in raw:
        _require(doc.group is not None, "cycles need a group section")
        gens = []
        for pos, entry in enumerate(raw["cycles"]):
            _require(isinstance(entry, dict), "cycles entries must be objects")
            name = entry.get("name", f"cycle{pos}")
            patches = entry.get("patches")
            _require(
                isinstance(patches, list) and patches,
                f"cycles[{name!r}] needs a non-empty 'patches' list",
            )
            built = tuple(
                _parse_patch(p, doc.group, f"cycles[{name!r}].patches[{k}]")
                for k, p in enumerate(patches)
            )
            gens.append((name, Surface2Chain(patches=built)))
        doc.cycles = CycleSet(generators=tuple(gens))

    if "pair" in raw:
        pair = raw["pair"]
        _require(
            isinstance(pair, list) and len(pair) == 2,
            "pair must be a list of two path names",
        )
        for name in pair:
            if name not in doc.paths:
                raise UnresolvedReferenceError(
                    f"pair references unknown path {name!r}"
                )
        doc.pair = (pair[0], pair[1])

    if "cochain_expr" in raw:
        exprs = raw["cochain_expr"]
        _require(
            isinstance(exprs, list) and exprs,
            "cochain_expr must be a non-empty list of expression strings",
        )
        _require(
            doc.group is not None and doc.group.chart is not None,
            "cochain_expr needs a group with a coordinate chart",
        )
        compiled = _compile_exprs(exprs, "cochain_expr")
        k = doc.group.chart.dim
        allowed = {f"x{i + 1}" for i in range(k)} | {f"y{i + 1}" for i in range(k)}
        for expr in compiled:
            bad = expr.variables - allowed
            if bad:
                raise DocumentError(
                    f"cochain_expr: unknown variables {sorted(bad)}; use x1..x{k} "
                    f"and y1..y{k}"
                )
        doc.cochain_expr = compiled

    _validate_task_requirements(doc)
    return doc


_TASK_NEEDS = {
    "validate": ("algebra",),
    "cohomology": ("algebra",),
    "extend": ("algebra", "cocycle"),
    "equivalence": ("algebra", "cocycle", "cocycle2"),
    "gamma": ("group", "cocycle", "pair"),
    "d2": ("group", "cochain_expr"),
    "check-integrability": ("group", "cocycle", "lattice", "cycles"),
    "pi1": ("group", "cocycle", "loops"),
}


def _validate_task_requirements(doc: ProblemDocument):
    for attr in _TASK_NEEDS[doc.task]:
        value = getattr(doc, attr)
        if value is None or (isinstance(value, (list, dict)) and not value):
            raise DocumentError(f"task {doc.task!r} requires a {attr!r} section")
