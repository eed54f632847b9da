"""Problem documents: the declarative JSON input format of the CLI.

A document names its task and provides the sections that task needs:
algebra (structure constants, sparse triples or dense), module (rho
matrices and an optional group-action expression), lattice, group (a named
built-in or an explicit matrix realization), cocycles, and parametric
paths/loops/cycles written in the small expression grammar (variables t
and s).  Indices are 0-based throughout.  parse_document builds and
cross-checks the in-memory objects; TASKS holds, for each task, the
sections it needs, how it runs and how its results read as text.
"""

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from . import expressions
from .batch import vectorized
from .algebra import (
    DEFAULT_TOL_ALG,
    DEFAULT_TOL_LAT,
    Lattice,
    LieAlgebra,
    ModuleAction,
    reduce_mod_lattice,
    trivial_module,
    validate_algebra,
    validate_module,
)
from .cohomology import (
    Cochain,
    GroupCochain,
    cohomology_table,
    is_cocycle,
    normalization_residual,
)
from .errors import (
    EXIT_INDETERMINATE,
    EXIT_OK,
    DocumentError,
    ExpressionError,
    LieExtError,
    MalformedInputError,
    NotACocycleError,
    UnresolvedReferenceError,
)
from .extensions import (
    DEFAULT_EQUIV_TOL,
    AlgebraExtension,
    are_equivalent,
    build_algebra_extension,
)
from .geometry import (
    DEFAULT_D2_STEP,
    EquivariantForm,
    Surface2Chain,
    SurfacePatch,
    derived_cochain,
    path_cocycle,
)
from .groups import (
    GroupPath,
    MatrixGroup,
    heisenberg_group,
    su2_group,
    torus_group,
    translation_group,
    validate_action_compatibility,
    validate_group,
    validate_path,
)
from .integrability import (
    CycleSet,
    check_integrability,
    pi1_cocycle_table,
    torus_winding_loop,
)

SCHEMA_VERSION = 1


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


def _finite(arr: np.ndarray, context) -> np.ndarray:
    _require(np.isfinite(arr).all(), f"{context}: expected finite numbers")
    return arr


def _real(value, context) -> float:
    """value as a finite float; DocumentError for anything else, booleans too."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        pass
    raise DocumentError(f"{context}: expected a finite number, got {value!r}")


def _list(value, context) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{context} must be a list, got {value!r}")
    return value


def _name(value, context) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{context} must be a string, got {value!r}")
    return value


def _count(section: dict, key: str, context: str) -> int:
    """section[key], required to be a non-negative integer."""
    _require(key in section, f"{context} needs a {key!r} field")
    value = section[key]
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 0,
        f"{context} {key} must be a non-negative integer, got {value!r}",
    )
    return value


def _parse_algebra(section) -> LieAlgebra:
    _require(isinstance(section, dict), "algebra section must be an object")
    n = _count(section, "dim", "algebra")
    labels = _list(section.get("labels", []), "algebra.labels")
    labels = tuple(_name(label, "algebra label") for label in labels)
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
        rows = _list(section.get("structure_constants", []), "algebra.structure_constants")
        for entry in rows:
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
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError):
                raise DocumentError(f"algebra: value in {entry} is not a number") from None
            c[i, j, k] = value
            c[j, i, k] = -value  # antisymmetric partner filled by convention
    _finite(c, "algebra")
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
        rho = _finite(_as_float_array(section["rho"], "an n x m x m array", "module"), "module")
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
        context = "module.group_action.exprs"
        exprs = _compile_exprs(_list(ga["exprs"], context), context)
        _require(len(exprs) == m, f"module.group_action needs {m} expressions")
        chart = group.chart

        @vectorized
        def action(g, v):
            coords = chart.to_coords(g)
            env = {f"g{i + 1}": coords[..., i] for i in range(chart.dim)}
            env.update({f"a{j + 1}": v[..., j] for j in range(m)})
            return _fill(coords.shape[:-1], [exprs], env)[..., 0, :]

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
    try:
        return Lattice(generators=gens)
    except LieExtError as exc:
        raise DocumentError(f"lattice: {exc}") from None


def _parse_group(section) -> MatrixGroup:
    _require(isinstance(section, dict), "group section must be an object")
    kind = section.get("kind")
    if kind in ("torus", "translation"):
        k = _count(section, "dim", f"{kind} group")
        _require(k > 0, f"{kind} group dim must be positive")
        return (torus_group if kind == "torus" else translation_group)(k)
    if kind == "su2":
        return su2_group()
    if kind == "heisenberg":
        return heisenberg_group()
    if kind == "matrix":
        _require("basis" in section, "matrix group needs 'basis'")
        basis = _as_float_array(section["basis"], "an n x d x d array", "group.basis")
        basis = _finite(basis, "group.basis")
        _require("algebra" in section, "matrix group needs structure constants (via 'algebra')")
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
    _require(
        isinstance(degree, int) and not isinstance(degree, bool) and degree >= 0,
        f"{context}: degree must be a non-negative integer, got {degree!r}",
    )
    comps = {}
    for entry in _list(section.get("components", []), f"{context}.components"):
        _require(
            isinstance(entry, dict) and "indices" in entry and "value" in entry,
            f"{context}: components are objects with 'indices' and 'value'",
        )
        idx = tuple(_list(entry["indices"], f"{context}: indices"))
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
        cochain = Cochain(degree, alg_dim, coeff_dim, comps)
    except MalformedInputError as exc:
        raise DocumentError(f"{context}: {exc}") from None
    _finite(cochain.to_vector(), context)
    return cochain


def _fill(shape, rows, env) -> np.ndarray:
    """Array of shape shape + (rows, columns) whose entries are the
    constants and compiled expressions of rows, broadcast over shape."""
    out = np.empty(tuple(shape) + (len(rows), len(rows[0]) if rows else 0))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry(env) if callable(entry) else entry
    return out


def _map_eval(entries, group: MatrixGroup, var_names, context):
    """Compile a coords vector or matrix of expressions into an evaluator
    that takes scalars or arrays of parameters."""
    if isinstance(entries, dict) and "coords" in entries:
        _require(
            group.chart is not None,
            f"{context}: coordinates need a group with a chart",
        )
        chart = group.chart
        coords = entries["coords"]
        _require(
            isinstance(coords, list) and len(coords) == chart.dim,
            f"{context}.coords must be a list of {chart.dim} expressions",
        )
        exprs = _compile_exprs(coords, f"{context}.coords")

        @vectorized
        def ev(*args):
            shape = np.broadcast_shapes(*map(np.shape, args))
            coords = _fill(shape, [exprs], dict(zip(var_names, args)))[..., 0, :]
            return chart.from_coords(coords)
        return ev
    if isinstance(entries, dict) and "matrix" in entries:
        rows = entries["matrix"]
        d = group.embed_dim
        _require(
            isinstance(rows, list) and len(rows) == d
            and all(isinstance(r, list) and len(r) == d for r in rows),
            f"{context}.matrix must be a list of {d} rows of {d} entries",
        )
        compiled = [
            [
                _real(e, context) if isinstance(e, (int, float))
                else _compile_exprs([e], context)[0]
                for e in row
            ]
            for row in rows
        ]

        @vectorized
        def ev(*args):
            shape = np.broadcast_shapes(*map(np.shape, args))
            return _fill(shape, compiled, dict(zip(var_names, args)))
        return ev
    raise DocumentError(f"{context} needs either 'coords' or 'matrix'")


def _parse_path(entries, group: MatrixGroup, context) -> GroupPath:
    return GroupPath(eval=_map_eval(entries, group, ("t",), context))


def _parse_patch(entry, group: MatrixGroup, context) -> SurfacePatch:
    _require(isinstance(entry, dict), f"{context} must be an object")
    domain = entry.get("domain", "square")
    coeff = entry.get("coefficient", 1)
    _require(isinstance(coeff, int), f"{context}: coefficient must be an integer")
    ev = _map_eval(entry, group, ("t", "s"), context)
    try:
        return SurfacePatch(eval=ev, domain=domain, coefficient=coeff)
    except MalformedInputError as exc:
        raise DocumentError(f"{context}: {exc}") from None


def load_json(text: str):
    """The JSON value in text; DocumentError with the position when invalid."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"document is not valid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from None


def parse_document(text_or_dict) -> ProblemDocument:
    """Parse, build, and cross-check a problem document."""
    raw = load_json(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    _require(isinstance(raw, dict), "document must be a JSON object")
    task = raw.get("task")
    _require(
        isinstance(task, str) and task in TASKS,
        f"task must be one of {', '.join(TASKS)}; got {task!r}",
    )
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
        doc.lattice = _parse_lattice(raw["lattice"], coeff_dim)

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
        for pos, entry in enumerate(_list(raw["loops"], "loops")):
            _require(isinstance(entry, dict), "loops entries must be objects")
            name = _name(entry.get("name", f"loop{pos}"), "loop name")
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
        for pos, entry in enumerate(_list(raw["cycles"], "cycles")):
            _require(isinstance(entry, dict), "cycles entries must be objects")
            name = _name(entry.get("name", f"cycle{pos}"), "cycle name")
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
            if _name(name, "pair entry") not in doc.paths:
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

    for section in TASKS[task].needs:
        value = getattr(doc, section)
        if value is None or (isinstance(value, (list, dict)) and not value):
            raise DocumentError(f"task {task!r} requires a {section!r} section")
    return doc


# ---------------------------------------------------------------------------
# Tasks: each runner maps (document, quadrature order) to (results, warnings,
# exit code) and each renderer maps results to the lines of the text report.
# Runners call library functions through this module's globals.


def _number(name: str, value, kind=float):
    """value as kind (int or float); MalformedInputError when it is not a
    number (booleans are not), or for int when it is not a whole number."""
    try:
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None:
        raise MalformedInputError(f"option {name!r} must be a number, got {value!r}")
    if kind is int and not number.is_integer():
        raise MalformedInputError(f"option {name!r} must be an integer, got {value!r}")
    return kind(number)


def _option(opts: dict, names: tuple, default, kind=float):
    """The first of the named options that is set, as a finite positive
    number; else default."""
    for name in names:
        if name in opts:
            value = _number(name, opts[name], kind)
            if not 0 < value < math.inf:
                raise MalformedInputError(
                    f"option {name!r} must be finite and positive, got {opts[name]!r}"
                )
            return value
    return default


def _degrees(opts: dict) -> list:
    """The cohomology degrees asked for: 'degrees', else ['degree'], else [2]."""
    degrees = opts.get("degrees")
    if degrees is None:
        return [_number("degree", opts.get("degree", 2), int)]
    if not isinstance(degrees, list):
        raise MalformedInputError(
            f"option 'degrees' must be a list of integers, got {degrees!r}"
        )
    return [_number("degrees", n, int) for n in degrees]


def _form(doc: ProblemDocument) -> EquivariantForm:
    group = doc.group
    if doc.module is not None and not doc.module.is_trivial:
        group = replace(group, mod_action=doc.module)
    return EquivariantForm(doc.cocycle, group)


def _components(cochain: Cochain) -> list:
    return [
        {"indices": list(k), "value": [float(x) for x in v]}
        for k, v in cochain.components.items()
    ]


def _run_validate(doc, quad_order):
    tol = _option(doc.options, ("tol_alg", "tol"), DEFAULT_TOL_ALG)
    issues = list(validate_algebra(doc.algebra, tol))
    if doc.module is not None:
        issues += validate_module(doc.algebra, doc.module, tol)
    if doc.group is not None:
        issues += validate_group(doc.group, tol)
        if doc.module is not None and doc.module.group_action is not None:
            issues += validate_action_compatibility(doc.group, doc.module)
    for name, path in doc.paths.items():
        issues += [
            type(i)(f"path[{name}].{i.identity}", i.indices, i.residual)
            for i in validate_path(doc.group, path)
        ]
    results = {"violations": [i.as_dict() for i in issues], "valid": not issues}
    return results, [], EXIT_OK


def _render_validate(results):
    if results["valid"]:
        return ["valid: all identities hold"]
    return [f"violations ({len(results['violations'])}):"] + [
        f"  {v['identity']} at {tuple(v['indices'])}: residual {v['residual']:.3e}"
        for v in results["violations"]
    ]


def _run_cohomology(doc, quad_order):
    table = cohomology_table(doc.algebra, doc.module, _degrees(doc.options))
    return {"slices": table}, [], EXIT_OK


def _render_cohomology(results):
    return [
        f"degree {sl['degree']}: dim C = {sl['cochain_dim']}, "
        f"dim Z = {sl['cocycle_dim']}, dim B = {sl['coboundary_dim']}, "
        f"betti = {sl['betti']}, rank margin = "
        + ("n/a" if sl["rank_margin"] is None else f"{sl['rank_margin']:.2e}")
        for sl in results["slices"]
    ]


def _run_extend(doc, quad_order):
    tol = _option(doc.options, ("tol_alg", "tol"), DEFAULT_TOL_ALG)
    ext = build_algebra_extension(doc.algebra, doc.module, doc.cocycle, tol)
    residual = max((i.residual for i in validate_algebra(ext.total, tol)), default=0.0)
    results = {"extension": serialize_extension(ext), "jacobi_residual": residual}
    return results, [], EXIT_OK


def _render_extend(results):
    ext = results["extension"]
    return [
        f"extension built: total dim {ext['algebra']['dim']} "
        f"(base {ext['base_dim']} + coefficients {ext['coeff_dim']})",
        f"jacobi residual: {results['jacobi_residual']:.3e}",
    ] + [
        f"  c[{row[0]},{row[1]},{row[2]}] = {row[3]}"
        for row in ext["algebra"]["structure_constants"]
    ]


def _run_equivalence(doc, quad_order):
    tol = _option(doc.options, ("equiv_tol", "tol"), DEFAULT_EQUIV_TOL)
    verdict, witness, residual = are_equivalent(
        doc.algebra, doc.module, doc.cocycle, doc.cocycle2, tol
    )
    results = {"equivalent": verdict, "residual": residual}
    if witness is not None:
        results["witness"] = _components(witness)
    return results, [], EXIT_OK


def _render_equivalence(results):
    return [
        f"equivalent: {results['equivalent']}",
        f"residual: {results['residual']:.3e}",
    ] + [
        f"  witness{tuple(comp['indices'])} = {comp['value']}"
        for comp in results.get("witness", [])
    ]


def _run_gamma(doc, quad_order):
    form = _form(doc)
    g1, g2 = (doc.paths[name] for name in doc.pair)
    warnings = []
    for name in doc.pair:
        issues = validate_path(doc.group, doc.paths[name])
        if issues:
            warnings.append(f"path {name!r}: " + "; ".join(i.identity for i in issues))
    value = path_cocycle(form, g1, g2, quad_order)
    results = {"value": [float(v) for v in value]}
    if doc.lattice is not None:
        results["value_mod_lattice"] = [
            float(v) for v in reduce_mod_lattice(doc.lattice, value)
        ]
    return results, warnings, EXIT_OK


def _render_gamma(results):
    lines = [f"value: {results['value']}"]
    if "value_mod_lattice" in results:
        lines.append(f"value mod lattice: {results['value_mod_lattice']}")
    return lines


def _run_d2(doc, quad_order):
    step = _option(doc.options, ("fd_step",), DEFAULT_D2_STEP)
    chart = doc.group.chart
    exprs = doc.cochain_expr

    def f_eval(g, h):
        gx, hy = chart.to_coords(g), chart.to_coords(h)
        env = {f"x{i + 1}": gx[i] for i in range(chart.dim)}
        env.update({f"y{i + 1}": hy[i] for i in range(chart.dim)})
        return np.array([e(env) for e in exprs])

    f = GroupCochain(degree=2, eval=f_eval, coeff_dim=len(exprs))
    rng = np.random.default_rng(0)
    samples = [chart.from_coords(0.5 * rng.normal(size=chart.dim)) for _ in range(8)]
    warnings = []
    norm_res = normalization_residual(f, doc.group.identity, samples)
    if norm_res > 1e-9:
        warnings.append(
            f"cochain is not normalized: |f| reaches {norm_res:.2e} with an "
            "identity argument"
        )
    derived = derived_cochain(doc.group, f, step)
    return {"derived_cochain": _components(derived), "fd_step": step}, warnings, EXIT_OK


def _render_d2(results):
    return [
        f"  D2f{tuple(comp['indices'])} = {comp['value']}"
        for comp in results["derived_cochain"]
    ]


def _run_check_integrability(doc, quad_order):
    form = _form(doc)
    tol = _option(doc.options, ("tol_lat", "tol"), DEFAULT_TOL_LAT)
    if not is_cocycle(doc.algebra, doc.module, doc.cocycle):
        raise NotACocycleError("the cochain to integrate is not a cocycle")
    report = check_integrability(form, doc.cycles, doc.lattice, quad_order, tol)
    warnings = []
    code = EXIT_OK
    if report.overall == "indeterminate":
        code = EXIT_INDETERMINATE
        warnings.append("some period sits in the ambiguity band of the lattice test")
    for gen in report.generators:
        if gen.error_estimate > tol:
            warnings.append(
                f"generator {gen.name!r}: quadrature error estimate "
                f"{gen.error_estimate:.2e} inflated the tolerance"
            )
    return report.as_dict(), warnings, code


def _render_check_integrability(results):
    return (
        [f"verdict: {results['overall']}"]
        + [
            f"  {gen['generator']}: period {gen['period']} -> {gen['verdict']} "
            f"(coefficients {gen['coefficients']}, residual {gen['residual']:.2e}, "
            f"error estimate {gen['error_estimate']:.2e})"
            for gen in results["generators"]
        ]
        + [f"assumption: {results['assumption']}"]
    )


def _run_pi1(doc, quad_order):
    form = _form(doc)
    tol = _option(doc.options, ("tol_lat", "tol"), DEFAULT_TOL_LAT)
    table = pi1_cocycle_table(form, doc.loops, doc.lattice, quad_order, tol)
    return table.as_dict(), [], EXIT_OK


def _render_pi1(results):
    loops = results["loops"]
    lines = [f"loops: {', '.join(loops)}", "commutators:"]
    lines += [f"  {loops[i]}: {row}" for i, row in enumerate(results["commutators"])]
    if "commutator_in_lattice" in results:
        lines.append("commutator in lattice:")
        lines += [
            f"  {loops[i]}: {row}"
            for i, row in enumerate(results["commutator_in_lattice"])
        ]
    return lines


@dataclass(frozen=True)
class Task:
    """One CLI task: the document sections it needs, its runner and its
    text renderer."""

    needs: tuple
    run: Callable
    render: Callable


TASKS: Dict[str, Task] = {
    "validate": Task(("algebra",), _run_validate, _render_validate),
    "cohomology": Task(("algebra",), _run_cohomology, _render_cohomology),
    "extend": Task(("algebra", "cocycle"), _run_extend, _render_extend),
    "equivalence": Task(
        ("algebra", "cocycle", "cocycle2"), _run_equivalence, _render_equivalence
    ),
    "gamma": Task(("group", "cocycle", "pair"), _run_gamma, _render_gamma),
    "d2": Task(("group", "cochain_expr"), _run_d2, _render_d2),
    "check-integrability": Task(
        ("group", "cocycle", "lattice", "cycles"),
        _run_check_integrability,
        _render_check_integrability,
    ),
    "pi1": Task(("group", "cocycle", "loops"), _run_pi1, _render_pi1),
}
