"""Problem documents: the declarative JSON input format of the CLI.

A document names its task and provides the sections that task needs:
algebra (structure constants, sparse triples or dense), module (rho
matrices and an optional group-action expression), lattice, group (a named
built-in or an explicit matrix realization), cocycles, and parametric
paths/loops/cycles written in the small expression grammar.  A document
gives an algebra or a group, not both: a group document's algebra is the
group's.  Indices are 0-based throughout.  parse_document builds and
cross-checks the in-memory objects: the group or algebra, the module, then
each section of SECTIONS, in its order, by its reader; it reads the
options against OPTIONS.  TASKS holds, for each task, the sections it
needs, the options it reads with their defaults, and how it runs.  No task
has a text form of its own: the text report names the results fields as
the machine report does.  Numbers are read by two readers only: _integer
and _reals.  Every expression-valued section (path and patch coords or
matrix, the module's group action, the d2 cochain) becomes one vectorized
map by _expression_map: its texts parsed into one node table, each
distinct text once, and its variables checked.  A message quotes a value
from the document through errors._quoted, which bounds its length.
"""

import bisect
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import itemgetter
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
    algebra_residuals,
    reduce_mod_lattice,
    trivial_module,
    validate_algebra,
    validate_module,
)
from .cohomology import (
    Cochain,
    GroupCochain,
    _require_cocycles,
    cohomology_table,
    index_table,
    normalization_residual,
)
from .errors import (
    EXIT_INDETERMINATE,
    EXIT_OK,
    DocumentError,
    ExpressionError,
    LieExtError,
    MalformedInputError,
    UnresolvedReferenceError,
    _cut,
    _quoted,
)
from .extensions import (
    DEFAULT_EQUIV_TOL,
    are_equivalent,
    build_algebra_extension,
)
from .geometry import (
    DEFAULT_D2_STEP,
    DEFAULT_QUAD_ORDER,
    EquivariantForm,
    Surface2Chain,
    SurfacePatch,
    derived_cochain,
    path_cocycle,
    path_samples,
)
from .groups import (
    PATH_SAMPLES,
    GroupPath,
    MatrixGroup,
    _group_identities,
    heisenberg_group,
    sl2_group,
    su2_group,
    torus_group,
    translation_group,
    validate_action_compatibility,
    validate_lattice_fixed,
    validate_path,
)
from .integrability import (
    check_integrability,
    pi1_cocycle_table,
    torus_winding_loop,
)

SCHEMA_VERSION = 1
# Above 64 a patch is integrated over slices of its stencil; far above it,
# Gauss-Legendre nodes alone would exhaust memory.
MAX_QUAD_ORDER = 256
# The largest algebra, group and coefficient dimension: an algebra's Jacobi
# check holds dim^4 numbers, so even an extension stays within ~300 MB.
MAX_DIM = 24


@dataclass
class ProblemDocument:
    """Parsed and cross-checked problem statement."""

    task: str
    algebra: Optional[LieAlgebra] = None
    module: Optional[ModuleAction] = None
    lattice: Optional[Lattice] = None
    group: Optional[MatrixGroup] = None
    cocycle: Optional[Cochain] = None
    cocycle2: Optional[Cochain] = None
    paths: Dict[str, GroupPath] = field(default_factory=dict)
    loops: List[tuple] = field(default_factory=list)
    cycles: List[tuple] = field(default_factory=list)
    pair: Optional[tuple] = None
    cochain_expr: Optional[GroupCochain] = None
    options: dict = field(default_factory=dict)  # name -> value, as OPTIONS reads it


def _require(condition, message):
    if not condition:
        raise DocumentError(message)


def _integer(value, context, low=None, high=None) -> int:
    """value as a JSON integer (never a boolean) in [low, high] where given."""
    if type(value) is int:
        if (low is None or value >= low) and (high is None or value <= high):
            return value
    bounds = (
        "" if low is None else f" >= {low}" if high is None
        else f" equal to {low}" if low == high else f" in [{low}, {high}]"
    )
    raise DocumentError(f"{context} must be an integer{bounds}, got {_quoted(value)}")


def _reals(value, context, shape=None) -> np.ndarray:
    """value, a number or nested lists of numbers, as a float array; the
    numbers must be finite JSON numbers, never booleans or strings, and the
    array of the given shape when one is given."""
    arr = np.array(value, dtype=object)
    try:
        ok = set(map(type, arr.ravel().tolist())) <= {int, float}
        arr = arr.astype(float) if ok else None
    except OverflowError:  # an integer beyond the float range
        arr = None
    _require(
        arr is not None and np.isfinite(arr).all(),
        f"{context}: expected finite numbers, not booleans or strings",
    )
    _require(
        shape is None or arr.shape == shape,
        f"{context}: got shape {arr.shape}, expected {shape}",
    )
    return arr


def _positive(value, context) -> float:
    """value as one finite JSON number above zero."""
    number = float(_reals(value, context, ()))
    _require(number > 0, f"{context} must be positive, got {_quoted(value)}")
    return number


def _list(value, context) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{context} must be a list, got {_quoted(value)}")
    return value


def _name(value, context) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{context} must be a string, got {_quoted(value)}")
    return value


def _degrees(value, context) -> list:
    """value as a non-empty list of distinct integers >= 0."""
    degrees = [_integer(n, context, low=0) for n in _list(value, context)]
    _require(degrees and len(set(degrees)) == len(degrees),
             f"{context} must list distinct degrees, at least one, got {_quoted(value)}")
    return degrees


# The options a document may set, each with the reader of its value.  A task
# reads the ones TASKS lists for it, with the defaults listed there.
OPTIONS = {
    "quad_order": lambda value, context: _integer(value, context, 1, MAX_QUAD_ORDER),
    "tol": _positive,
    "fd_step": _positive,
    "degrees": _degrees,
}


def _parse_options(options) -> dict:
    _require(isinstance(options, dict), "options must be an object")
    read = {}
    for name, value in options.items():
        _require(name in OPTIONS, f"unknown option {_quoted(name)}; options are {', '.join(OPTIONS)}")
        read[name] = OPTIONS[name](value, f"option {name!r}")
    return read


def _index_rows(items, width, high=float("inf")):
    """items, JSON integers in [0, high), as rows of width: int64, or exact
    Python integers beyond it; None unless the type, range, order (first
    index below the second) and repeat masks pass on every row."""
    if set(map(type, items)) <= {int} and 0 <= min(items, default=0) and (
            top := max(items, default=-1)) < high:
        arr = np.array(items, dtype=np.int64 if top < 2**63 else object).reshape(-1, width)
        if (arr[:, 0] < arr[:, 1]).all() and len(set(zip(*[iter(items)] * width))) == len(arr):
            return arr


def _parse_algebra(section) -> LieAlgebra:
    """The algebra section.  Sparse rows are read as arrays (types and lengths
    over all rows at once, then the masks of _index_rows); when a mask fails,
    bisection finds the first row it fails on, and one row's checks name it."""
    _require(isinstance(section, dict), "algebra section must be an object")
    n = _integer(section.get("dim"), "algebra dim", 0, MAX_DIM)
    labels = _list(section.get("labels", []), "algebra.labels")
    labels = tuple(_name(label, "algebra label") for label in labels)
    if "structure_constants_dense" in section:
        _require("structure_constants" not in section, "algebra: give either "
                 "structure_constants or structure_constants_dense, not both")
        c = _reals(section["structure_constants_dense"], "algebra: dense structure constants",
                   (n, n, n))
    else:
        c = np.zeros((n, n, n))
        rows = _list(section.get("structure_constants", []), "algebra.structure_constants")
        _require(
            set(map(type, rows)) <= {list} and set(map(len, rows)) <= {4},
            "algebra: sparse structure constants are [i, j, k, value] rows",
        )
        flat = list(chain.from_iterable(rows))
        values = _reals(flat[3::4], "algebra: sparse values", (len(rows),))
        del flat[3::4]
        ijk = _index_rows(flat, 3, n)
        if ijk is None:  # the first row the arrays cannot take names its fault
            row = rows[bisect.bisect_left(
                range(len(rows)), True, key=lambda e: _index_rows(flat[:3 * e + 3], 3, n) is None)]
            i, j, k = (_integer(x, "algebra: sparse index", low=0) for x in row[:3])
            _require(i < j < n and k < n,
                     f"algebra: sparse row {_quoted(row)} needs i < j < dim and k < dim")
            raise DocumentError(f"algebra: sparse entry ({i}, {j}, {k}) given twice")
        i, j, k = ijk.T
        c[i, j, k] = values
        c[j, i, k] = -values  # antisymmetric partner filled by convention
    try:
        return LieAlgebra(structure_constants=c, basis_labels=labels)
    except MalformedInputError as exc:
        raise DocumentError(f"algebra: {exc}") from None


def serialize_algebra(alg: LieAlgebra) -> dict:
    """Algebra section in the sparse document format (round-trippable)."""
    c = alg.structure_constants
    i, j, k = np.nonzero((c != 0) & np.triu(np.ones((alg.dim, alg.dim), bool), 1)[..., None])
    rows = list(map(list, zip(i.tolist(), j.tolist(), k.tolist(), c[i, j, k].tolist())))
    return {"dim": alg.dim, "labels": list(alg.basis_labels), "structure_constants": rows}


def serialize_extension(total: LieAlgebra, base_dim: int) -> dict:
    """Document fragment for a built extension: the total algebra, whose first
    base_dim basis vectors span g and the rest a."""
    return {
        "algebra": serialize_algebra(total),
        "base_dim": base_dim,
        "coeff_dim": total.dim - base_dim,
    }


def _expression_map(texts, shape, names, context, numbers=False) -> Callable:
    """texts, a vector's or a matrix's entries in row-major order (and JSON
    numbers, parsed from their float's repr, where numbers allows them), as
    one vectorized map: an array per name in, shape' + shape out, shape'
    their broadcast shape.  Each distinct text is parsed once into one node
    table and each distinct subexpression evaluated once per call.  An error
    names its entry, context[i] or context[i][j]: one that does not parse,
    reads a variable outside names, or is the first to need a failing node."""
    table = expressions.Table()
    where = lambda e: context + "".join(f"[{k}]" for k in np.unravel_index(e, shape))
    for e, text in enumerate(texts):
        if numbers and isinstance(text, (int, float)):
            text = repr(float(_reals(text, where(e), ())))  # parses to the same bits
        expr = table.parsed.get(text) if isinstance(text, str) else None
        if expr is None:
            try:
                expr = expressions.parse_expression(text, table)
            except ExpressionError as exc:
                pos = f" at position {exc.position}" if exc.position is not None else ""
                raise DocumentError(f"{where(e)}: {exc}{pos}") from None
            unknown = sorted(expr.variables - set(names))
            if unknown:
                raise DocumentError(
                    f"{where(e)}: unknown variable {_quoted(unknown[0])}; the variables here "
                    f"are {', '.join(names)}"
                )
        table.enter(expr)
    run = table.compile(names, lambda e: where(e) + ": ")

    @vectorized
    def evaluate(*args):
        out = run(*args)
        return out.reshape(out.shape[:-1] + shape)
    return evaluate


def _parse_module(section, alg: Optional[LieAlgebra],
                  group: Optional[MatrixGroup]) -> ModuleAction:
    _require(isinstance(section, dict), "module section must be an object")
    m = _integer(section.get("coeff_dim"), "module coeff_dim", 0, MAX_DIM)
    _require(alg is not None, "module section needs an algebra or group to attach to")
    rho = np.zeros((alg.dim, m, m))
    if "rho" in section:
        rho = _reals(section["rho"], "module: rho", (alg.dim, m, m))
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
        chart = group.chart
        names = [f"g{i + 1}" for i in range(chart.dim)] + [f"a{j + 1}" for j in range(m)]
        exprs = _list(ga["exprs"], context)
        values = _expression_map(exprs, (len(exprs),), names, context)
        _require(len(exprs) == m, f"module.group_action needs {m} expressions")

        @vectorized
        def action(g, v):
            return values(*np.moveaxis(chart.to_coords(g), -1, 0), *np.moveaxis(v, -1, 0))

    return ModuleAction(rho=rho, group_action=action)


def _parse_lattice(section, module: Optional[ModuleAction]) -> Lattice:
    _require(isinstance(section, dict), "lattice section must be an object")
    coeff_dim = None if module is None else module.coeff_dim
    gens = _reals(section.get("generators", []), "lattice: generators")
    if gens.size == 0:
        m = 1 if coeff_dim is None else coeff_dim
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
        k = _integer(section.get("dim"), f"{kind} group dim", 1, MAX_DIM)
        return (torus_group if kind == "torus" else translation_group)(k)
    if kind == "su2":
        return su2_group()
    if kind == "sl2":
        return sl2_group()
    if kind == "heisenberg":
        return heisenberg_group()
    if kind == "matrix":
        _require("basis" in section, "matrix group needs 'basis'")
        basis = _reals(section["basis"], "group.basis")
        _require("algebra" in section, "matrix group needs structure constants (via 'algebra')")
        alg = _parse_algebra(section["algebra"])
        name = _cut(_name(section.get("name", "matrix-group"), "group.name"))
        try:
            return MatrixGroup(algebra=alg, basis=basis, name=name)
        except MalformedInputError as exc:
            raise DocumentError(f"group: {exc}") from None
    raise DocumentError(
        f"unknown group kind {_quoted(kind)} (expected torus, translation, su2, sl2, "
        "heisenberg, or matrix)"
    )


def _parse_cocycle(section, alg_dim: int, coeff_dim: int, context="cocycle") -> Cochain:
    """A cocycle section, its components read as arrays by read below; when
    a check fails, bisection finds the first component it fails on, and one
    component's checks name it.  Indices out of range are named together."""
    _require(isinstance(section, dict), f"{context} section must be an object")
    degree = _integer(
        section.get("degree", 2), f"{context}: degree (tasks read 2-cocycles only)", 2, 2
    )
    comps = _list(section.get("components", []), f"{context}.components")

    def read(part):  # (N, 2) indices and (N, coeff_dim) values, or None
        try:
            idx, values = zip(*map(itemgetter("indices", "value"), part)) if part else ((), ())
            if not set(map(type, values)) <= {list}:  # a value given as one number
                values = [v if isinstance(v, list) else [v] for v in values]
            if set(map(len, idx)) <= {2} and set(map(len, values)) <= {coeff_dim}:
                pairs = _index_rows(list(chain.from_iterable(idx)), 2)
                flat = _reals(list(chain.from_iterable(values)), "", (len(part) * coeff_dim,))
                return None if pairs is None else (pairs, flat.reshape(len(part), coeff_dim))
        except (KeyError, TypeError, DocumentError):
            return None

    arrays = read(comps)
    if arrays is None:  # the first component the arrays cannot take names its fault
        end = bisect.bisect_left(range(len(comps)), True, key=lambda e: read(comps[:e + 1]) is None)
        entry, seen = comps[end], set(map(tuple, read(comps[:end])[0].tolist()))
        _require(
            isinstance(entry, dict) and "indices" in entry and "value" in entry,
            f"{context}: components are objects with 'indices' and 'value'",
        )
        idx = tuple(
            _integer(i, f"{context}: index", low=0)
            for i in _list(entry["indices"], f"{context}: indices")
        )
        _require(len(idx) == degree, f"{context}: indices {_quoted(idx)} must be {degree} integers")
        _require(idx[0] < idx[1], f"{context}: indices {_quoted(idx)} must be strictly increasing")
        _require(idx not in seen, f"{context}: indices {_quoted(list(idx))} given twice")
        value = entry["value"] if isinstance(entry["value"], list) else [entry["value"]]
        _reals(value, f"{context}: value for {_quoted(idx)}", (coeff_dim,))
    pairs, values = arrays
    out = sorted(map(tuple, pairs[pairs[:, 1] >= alg_dim].tolist()))
    _require(not out, f"{context}: component indices {_quoted(out)} are not strictly increasing "
             f"degree-{degree} tuples in range({alg_dim})")
    keys = index_table(alg_dim, degree)  # (i, j) -> i * alg_dim + j keeps the lex order
    rows = np.zeros((len(keys), coeff_dim))
    rows[np.searchsorted(keys @ (alg_dim, 1), pairs @ (alg_dim, 1))] = values
    return Cochain(degree, alg_dim, coeff_dim, rows)


def _map_eval(entries, group: MatrixGroup, names, context):
    """A path's or patch's coords vector or matrix of expressions in the
    parameters names, as (values, chart): a vectorized map from parameter
    arrays to the stack of chart coordinates, and the group's chart; or to
    the stack of group matrices, and None."""
    if isinstance(entries, dict) and "coords" in entries:
        chart, coords = group.chart, entries["coords"]
        _require(chart is not None, f"{context}: coordinates need a group with a chart")
        _require(isinstance(coords, list) and len(coords) == chart.dim,
                 f"{context}.coords must be a list of {chart.dim} expressions")
        return _expression_map(coords, (chart.dim,), names, f"{context}.coords"), chart
    if isinstance(entries, dict) and "matrix" in entries:
        rows, d = entries["matrix"], group.embed_dim
        _require(isinstance(rows, list) and len(rows) == d
                 and all(isinstance(r, list) and len(r) == d for r in rows),
                 f"{context}.matrix must be a list of {d} rows of {d} entries")
        flat = list(chain.from_iterable(rows))
        return _expression_map(flat, (d, d), names, f"{context}.matrix", numbers=True), None
    raise DocumentError(f"{context} needs either 'coords' or 'matrix'")


def _parse_path(entries, group: MatrixGroup, context) -> GroupPath:
    values, chart = _map_eval(entries, group, ("t",), context)
    return GroupPath(eval=values, chart=chart)


def _parse_patch(entry, group: MatrixGroup, context) -> SurfacePatch:
    _require(isinstance(entry, dict), f"{context} must be an object")
    domain = entry.get("domain", "square")
    coeff = _integer(entry.get("coefficient", 1), f"{context}: coefficient", -2**53, 2**53)
    values, chart = _map_eval(entry, group, ("t", "s"), context)
    try:
        return SurfacePatch(eval=values, domain=domain, coefficient=coeff, chart=chart)
    except MalformedInputError as exc:
        raise DocumentError(f"{context}: {exc}") from None


def load_json(text):
    """The JSON value in text, a str or UTF-8 bytes; DocumentError with the position when invalid."""
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise DocumentError(f"document is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document is not valid JSON: {exc.msg} at line {exc.lineno} "
                            f"column {exc.colno}") from None
    except ValueError:  # an integer longer than Python converts
        raise DocumentError("document is not valid JSON: an integer has more than "
                            f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise DocumentError("document is not valid JSON: nested too deeply") from None


def _read_cocycle(context, section, doc) -> Cochain:
    _require(doc.algebra is not None, f"{context} needs an algebra or group section")
    return _parse_cocycle(section, doc.algebra.dim, doc.module.coeff_dim, context)


def _read_paths(section, doc) -> dict:
    _require(doc.group is not None, "paths need a group section")
    _require(isinstance(section, dict), "paths section must map names to paths")
    return {name: _parse_path(entry, doc.group, f"paths[{_quoted(name)}]")
            for name, entry in section.items()}


def _read_named(kind, read_entry, section, doc) -> list:
    """A list of kind (loop or cycle) objects as (name, value) pairs: each named
    by its 'name' or kind{position}, once, and read by read_entry(entry, group, context)."""
    _require(doc.group is not None, f"{kind}s need a group section")
    named = {}
    for pos, entry in enumerate(_list(section, f"{kind}s")):
        _require(isinstance(entry, dict), f"{kind}s entries must be objects")
        name = _name(entry.get("name", f"{kind}{pos}"), f"{kind} name")
        _require(name not in named, f"{kind}s: name {_quoted(name)} given twice")
        named[name] = read_entry(entry, doc.group, f"{kind}s[{_quoted(name)}]")
    return list(named.items())


def _read_loop(entry, group: MatrixGroup, context) -> GroupPath:
    """A path, or a straight loop of integer windings on a torus: of the
    document groups, the one with an additive chart and a skew basis."""
    if "winding" not in entry:
        return _parse_path(entry, group, context)
    where, chart = f"{context}: winding", group.chart
    winding = [_integer(w, where, -2**53, 2**53) for w in _list(entry["winding"], where)]
    _require(chart is not None and chart.additive
             and not (group.basis + group.basis.transpose(0, 2, 1)).any(),
             f"{where} needs a torus group, not {group.name}")
    _require(len(winding) == chart.dim,
             f"{context}: winding length must match the group's coordinate dimension")
    return torus_winding_loop(group, winding)


def _read_cycle(entry, group: MatrixGroup, context) -> Surface2Chain:
    patches = entry.get("patches")
    _require(isinstance(patches, list) and patches, f"{context} needs a non-empty 'patches' list")
    built = tuple(_parse_patch(p, group, f"{context}.patches[{k}]") for k, p in enumerate(patches))
    _require(any(p.coefficient for p in built), f"{context} has no patch with a non-zero coefficient")
    return Surface2Chain(patches=built)


def _read_pair(pair, doc) -> tuple:
    _require(isinstance(pair, list) and len(pair) == 2, "pair must be a list of two path names")
    for name in pair:
        if _name(name, "pair entry") not in doc.paths:
            raise UnresolvedReferenceError(f"pair references unknown path {_quoted(name)}")
    return tuple(pair)


def _read_cochain_expr(exprs, doc) -> GroupCochain:
    _require(isinstance(exprs, list) and exprs,
             "cochain_expr must be a non-empty list of expression strings")
    _require(doc.group is not None and doc.group.chart is not None,
             "cochain_expr needs a group with a coordinate chart")
    chart = doc.group.chart
    names = [f"x{i + 1}" for i in range(chart.dim)] + [f"y{i + 1}" for i in range(chart.dim)]
    values = _expression_map(exprs, (len(exprs),), names, "cochain_expr")

    def f_eval(g, h):
        return values(*np.moveaxis(chart.to_coords(g), -1, 0),
                      *np.moveaxis(chart.to_coords(h), -1, 0))
    return GroupCochain(degree=2, eval=f_eval, coeff_dim=len(exprs))


# The sections after the group or algebra and the module, read in this order
# by their readers (section, doc) -> the field of that name.  A reader checks
# the sections it needs; of two broken sections, the one listed first is reported.
SECTIONS = {
    "lattice": lambda section, doc: _parse_lattice(section, doc.module),
    "cocycle": partial(_read_cocycle, "cocycle"),
    "cocycle2": partial(_read_cocycle, "cocycle2"),
    "paths": _read_paths,
    "loops": partial(_read_named, "loop", _read_loop),
    "cycles": partial(_read_named, "cycle", _read_cycle),
    "pair": _read_pair,
    "cochain_expr": _read_cochain_expr,
}


def parse_document(text_or_dict) -> ProblemDocument:
    """Parse, build, and cross-check a problem document."""
    raw = load_json(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    _require(isinstance(raw, dict), "document must be a JSON object")
    task = raw.get("task")
    _require(
        isinstance(task, str) and task in TASKS,
        f"task must be one of {', '.join(TASKS)}; got {_quoted(task)}",
    )
    options = _parse_options(raw.get("options", {}))
    doc = ProblemDocument(task=task, options=options)

    if "group" in raw:  # a group document's algebra is the group's
        _require("algebra" not in raw, "give an algebra section or a group section, not both; "
                 "a matrix group gives its algebra in group.algebra")
        doc.group = _parse_group(raw["group"])
        doc.algebra = doc.group.algebra
    elif "algebra" in raw:
        doc.algebra = _parse_algebra(raw["algebra"])

    if "module" in raw:
        doc.module = _parse_module(raw["module"], doc.algebra, doc.group)
    elif doc.algebra is not None:
        doc.module = trivial_module(doc.algebra.dim, 1)

    for section, read in SECTIONS.items():
        if section in raw:
            setattr(doc, section, read(raw[section], doc))

    for section in TASKS[task].needs:
        value = getattr(doc, section)
        if value is None or (isinstance(value, (list, dict)) and not value):
            raise DocumentError(f"task {task!r} requires a {section!r} section")
    return doc


# ---------------------------------------------------------------------------
# Tasks: each runner maps a document and the options its task reads, as
# keywords, to (results, warnings, exit code).  Runners call library
# functions through this module's globals.


def _components(cochain: Cochain) -> list:
    keys = index_table(cochain.alg_dim, cochain.degree).tolist()
    return [{"indices": k, "value": v} for k, v in zip(keys, cochain.values.tolist())]


def _form(doc):
    """The document's equivariant form; the group must fix its lattice and the
    cochain must be a cocycle of the document's algebra, the group's."""
    for issue in validate_lattice_fixed(doc.module, doc.lattice) if doc.lattice else ():
        (i, j), residual = issue["indices"], issue["residual"]
        raise MalformedInputError(f"lattice generator {j} is not fixed by the group: |module.rho[{i}] gamma_{j}| "
                                  f"/ |gamma_{j}| = {residual:.3e} in units of max|module.rho[{i}]|")
    form = EquivariantForm(doc.cocycle, doc.group, doc.module)
    _require_cocycles(doc.algebra, doc.module, {"omega": doc.cocycle})
    return form


def _run_validate(doc, tol):
    issues = validate_algebra(doc.algebra, tol) + validate_module(doc.algebra, doc.module, tol)
    if doc.group is not None:  # doc.algebra is the group's
        issues += _group_identities(doc.group, tol) + validate_action_compatibility(doc.group, doc.module)
    if doc.lattice is not None:
        issues += validate_lattice_fixed(doc.module, doc.lattice, tol)
    for name, path in doc.paths.items():
        issues += [{**i, "identity": f"path[{name}].{i['identity']}"}
                   for i in validate_path(doc.group, path)]
    results = {"violations": issues, "valid": not issues}
    warnings = []
    if doc.group is not None and doc.module.group_action is None and np.any(doc.module.rho):
        warnings.append(
            "module.rho is non-zero but module.group_action is missing: gamma, "
            "check-integrability and pi1 will refuse this document"
        )
    return results, warnings, EXIT_OK


def _run_cohomology(doc, degrees):
    table = cohomology_table(doc.algebra, doc.module, degrees)
    return {"slices": table}, [], EXIT_OK


def _run_extend(doc, tol):
    total = build_algebra_extension(doc.algebra, doc.module, doc.cocycle, tol)
    residual = max(float(np.max(r, initial=0.0)) for r in algebra_residuals(total))
    extension = serialize_extension(total, doc.algebra.dim)
    return {"extension": extension, "jacobi_residual": residual}, [], EXIT_OK


def _run_equivalence(doc, tol):
    verdict, witness, residual = are_equivalent(
        doc.algebra, doc.module, doc.cocycle, doc.cocycle2, tol
    )
    results = {"equivalent": verdict, "residual": residual}
    if witness is not None:
        results["witness"] = _components(witness)
    return results, [], EXIT_OK


def _run_gamma(doc, quad_order):
    form = _form(doc)
    g1, g2 = (doc.paths[name] for name in doc.pair)
    warnings = []
    for name in doc.pair:
        path_samples(doc.group, f"paths[{_quoted(name)}]", doc.paths[name], PATH_SAMPLES)  # names a sample outside
        issues = validate_path(doc.group, doc.paths[name])
        if issues:
            warnings.append(f"path {_quoted(name)}: " + "; ".join(i["identity"] for i in issues))
    value = path_cocycle(form, g1, g2, quad_order)
    results = {"value": [float(v) for v in value]}
    if doc.lattice is not None:
        results["value_mod_lattice"] = [
            float(v) for v in reduce_mod_lattice(doc.lattice, value)
        ]
    return results, warnings, EXIT_OK


def _run_d2(doc, fd_step):
    chart, f = doc.group.chart, doc.cochain_expr
    rng = np.random.default_rng(0)
    samples = [chart.from_coords(0.5 * rng.normal(size=chart.dim)) for _ in range(8)]
    warnings = []
    norm_res = normalization_residual(f, doc.group.identity, samples)
    if norm_res > 1e-9:
        warnings.append(
            f"cochain is not normalized: |f| reaches {norm_res:.2e} with an "
            "identity argument"
        )
    derived = derived_cochain(doc.group, f, fd_step)
    return {"derived_cochain": _components(derived), "fd_step": fd_step}, warnings, EXIT_OK


def _run_check_integrability(doc, quad_order, tol):
    report = check_integrability(_form(doc), doc.cycles, doc.lattice, quad_order, tol)
    warnings = report.pop("warnings")
    return report, warnings, EXIT_INDETERMINATE if report["overall"] == "indeterminate" else EXIT_OK


def _run_pi1(doc, quad_order, tol):
    table = pi1_cocycle_table(_form(doc), doc.loops, doc.lattice, quad_order, tol)
    undecided = any("indeterminate" in row for row in table.get("commutator_in_lattice", ()))
    return table, table.pop("warnings"), EXIT_INDETERMINATE if undecided else EXIT_OK


@dataclass(frozen=True)
class Task:
    """One CLI task: the document sections it needs, each option its runner
    reads with its default, and its runner.  The text report walks the
    runner's results, so a new field needs no code to be shown."""

    needs: tuple
    options: dict
    run: Callable


TASKS: Dict[str, Task] = {
    "validate": Task(("algebra",), {"tol": DEFAULT_TOL_ALG}, _run_validate),
    "cohomology": Task(("algebra",), {"degrees": (2,)}, _run_cohomology),
    "extend": Task(("algebra", "cocycle"), {"tol": DEFAULT_TOL_ALG}, _run_extend),
    "equivalence": Task(("algebra", "cocycle", "cocycle2"), {"tol": DEFAULT_EQUIV_TOL}, _run_equivalence),
    "gamma": Task(("group", "cocycle", "pair"), {"quad_order": DEFAULT_QUAD_ORDER}, _run_gamma),
    "d2": Task(("group", "cochain_expr"), {"fd_step": DEFAULT_D2_STEP}, _run_d2),
    "check-integrability": Task(("group", "cocycle", "lattice", "cycles"),
                                {"quad_order": DEFAULT_QUAD_ORDER, "tol": DEFAULT_TOL_LAT}, _run_check_integrability),
    "pi1": Task(("group", "cocycle", "loops"), {"quad_order": DEFAULT_QUAD_ORDER, "tol": DEFAULT_TOL_LAT}, _run_pi1),
}
