"""Command-line front end: parse a problem document, dispatch, report.

Usage:
    lieext PROBLEM.json [--task TASK] [--quad-order N] [--tol X]
           [--fd-step H] [--output text|machine]
    lieext - < PROBLEM.json
    lieext --fixtures

Exit codes: 0 success, 2 malformed input, 3 computation rejected (e.g. a
non-cocycle where a cocycle is required), 4 indeterminate verdict.
Machine output is a single JSON report on stdout; reports are
deterministic for a fixed document apart from the timing field.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from importlib import resources

import numpy as np

from .algebra import (
    DEFAULT_TOL_ALG,
    DEFAULT_TOL_LAT,
    reduce_mod_lattice,
    validate_algebra,
    validate_module,
)
from .cohomology import (
    GroupCochain,
    build_complex_slice,
    is_cocycle,
    normalization_residual,
)
from .documents import (
    SCHEMA_VERSION,
    ProblemDocument,
    parse_document,
    serialize_extension,
)
from .errors import (
    BoundaryMismatchError,
    DocumentError,
    ExpressionError,
    InvalidLatticeError,
    MalformedInputError,
    MembershipError,
    NotACocycleError,
    NotALoopError,
    OpenChainError,
    TangentDecompositionError,
    UnresolvedReferenceError,
    UserFunctionError,
)
from .extensions import DEFAULT_EQUIV_TOL, are_equivalent, build_algebra_extension
from .geometry import (
    DEFAULT_D2_STEP,
    DEFAULT_QUAD_ORDER,
    EquivariantForm,
    derived_cochain,
    path_cocycle,
)
from .groups import validate_action_compatibility, validate_group, validate_path
from .integrability import check_integrability, pi1_cocycle_table

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REJECTED = 3
EXIT_INDETERMINATE = 4

_INPUT_ERRORS = (
    DocumentError,
    UnresolvedReferenceError,
    ExpressionError,
    MalformedInputError,
    InvalidLatticeError,
)
_REJECTION_ERRORS = (
    NotACocycleError,
    NotALoopError,
    OpenChainError,
    BoundaryMismatchError,
    TangentDecompositionError,
    MembershipError,
    UserFunctionError,
)


def _digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _issues_dicts(issues):
    return [issue.as_dict() for issue in issues]


def _form(doc: ProblemDocument) -> EquivariantForm:
    group = doc.group
    if doc.module is not None and not doc.module.is_trivial:
        group = replace(group, mod_action=doc.module)
    return EquivariantForm(doc.cocycle, group)


def _number(name: str, value, kind=float):
    """value as kind (int or float); MalformedInputError when it is not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise MalformedInputError(
            f"option {name!r} must be a number, got {value!r}"
        ) from None


def _option(opts: dict, names: tuple, default, kind=float):
    """The first of the named options that is set, as a number; else default."""
    for name in names:
        if name in opts:
            return _number(name, opts[name], kind)
    return default


def _degrees(opts: dict) -> list:
    """The cohomology degrees asked for: 'degrees', else ['degree'], else [2]."""
    degrees = opts.get("degrees")
    if degrees is None:
        return [_option(opts, ("degree",), 2, int)]
    if not isinstance(degrees, list):
        raise MalformedInputError(
            f"option 'degrees' must be a list of integers, got {degrees!r}"
        )
    return [_number("degrees", n, int) for n in degrees]


def run(doc: ProblemDocument) -> tuple:
    """Dispatch a parsed document; return (report dict, exit code)."""
    opts = doc.options
    quad_order = _option(opts, ("quad_order",), DEFAULT_QUAD_ORDER, int)
    if quad_order < 1:
        raise MalformedInputError(
            f"option 'quad_order' must be a positive integer, got {quad_order}"
        )
    warnings = []
    results = {}
    code = EXIT_OK

    if doc.task == "validate":
        tol = _option(opts, ("tol_alg", "tol"), DEFAULT_TOL_ALG)
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
        results = {"violations": _issues_dicts(issues), "valid": not issues}

    elif doc.task == "cohomology":
        table = []
        for n in _degrees(opts):
            sl = build_complex_slice(doc.algebra, doc.module, n)
            table.append(
                {
                    "degree": sl.n,
                    "cochain_dim": sl.cochain_dim,
                    "cocycle_dim": sl.cocycle_dim,
                    "coboundary_dim": sl.coboundary_dim,
                    "betti": sl.betti,
                }
            )
        results = {"slices": table}

    elif doc.task == "extend":
        tol = _option(opts, ("tol_alg", "tol"), DEFAULT_TOL_ALG)
        ext = build_algebra_extension(doc.algebra, doc.module, doc.cocycle, tol)
        residual = max(
            (i.residual for i in validate_algebra(ext.total, tol)), default=0.0
        )
        results = {"extension": serialize_extension(ext), "jacobi_residual": residual}

    elif doc.task == "equivalence":
        tol = _option(opts, ("equiv_tol", "tol"), DEFAULT_EQUIV_TOL)
        verdict, witness, residual = are_equivalent(
            doc.algebra, doc.module, doc.cocycle, doc.cocycle2, tol
        )
        results = {"equivalent": verdict, "residual": residual}
        if witness is not None:
            results["witness"] = [
                {"indices": list(k), "value": [float(x) for x in v]}
                for k, v in witness.components.items()
            ]

    elif doc.task == "gamma":
        form = _form(doc)
        g1, g2 = (doc.paths[name] for name in doc.pair)
        for name in doc.pair:
            issues = validate_path(doc.group, doc.paths[name])
            if issues:
                warnings.append(
                    f"path {name!r}: " + "; ".join(i.identity for i in issues)
                )
        value = path_cocycle(form, g1, g2, quad_order)
        results = {"value": [float(v) for v in value]}
        if doc.lattice is not None:
            results["value_mod_lattice"] = [
                float(v) for v in reduce_mod_lattice(doc.lattice, value)
            ]

    elif doc.task == "d2":
        step = _option(opts, ("fd_step",), DEFAULT_D2_STEP)
        chart = doc.group.chart
        exprs = doc.cochain_expr

        def f_eval(g, h):
            gx, hy = chart.to_coords(g), chart.to_coords(h)
            env = {f"x{i + 1}": gx[i] for i in range(chart.dim)}
            env.update({f"y{i + 1}": hy[i] for i in range(chart.dim)})
            return np.array([e(env) for e in exprs])

        f = GroupCochain(degree=2, eval=f_eval, coeff_dim=len(exprs))
        rng = np.random.default_rng(0)
        samples = [
            chart.from_coords(0.5 * rng.normal(size=chart.dim)) for _ in range(8)
        ]
        norm_res = normalization_residual(f, doc.group.identity, samples)
        if norm_res > 1e-9:
            warnings.append(
                f"cochain is not normalized: |f| reaches {norm_res:.2e} with an "
                "identity argument"
            )
        derived = derived_cochain(doc.group, f, step)
        results = {
            "derived_cochain": [
                {"indices": list(k), "value": [float(x) for x in v]}
                for k, v in derived.components.items()
            ],
            "fd_step": step,
        }

    elif doc.task == "check-integrability":
        form = _form(doc)
        tol = _option(opts, ("tol_lat", "tol"), DEFAULT_TOL_LAT)
        if not is_cocycle(doc.algebra, doc.module, doc.cocycle):
            raise NotACocycleError("the cochain to integrate is not a cocycle")
        report = check_integrability(form, doc.cycles, doc.lattice, quad_order, tol)
        results = report.as_dict()
        if report.overall == "indeterminate":
            code = EXIT_INDETERMINATE
            warnings.append(
                "some period sits in the ambiguity band of the lattice test"
            )
        for gen in report.generators:
            if gen.error_estimate > tol:
                warnings.append(
                    f"generator {gen.name!r}: quadrature error estimate "
                    f"{gen.error_estimate:.2e} inflated the tolerance"
                )

    elif doc.task == "pi1":
        form = _form(doc)
        tol = _option(opts, ("tol_lat", "tol"), DEFAULT_TOL_LAT)
        table = pi1_cocycle_table(form, doc.loops, doc.lattice, quad_order, tol)
        results = table.as_dict()

    return (
        {
            "schema_version": SCHEMA_VERSION,
            "task": doc.task,
            "inputs_digest": _digest(doc.raw),
            "results": results,
            "warnings": warnings,
        },
        code,
    )


def _render_text(report: dict) -> str:
    lines = [f"task: {report['task']}", f"inputs: {report['inputs_digest']}"]
    results = report["results"]
    task = report["task"]
    if task == "validate":
        if results["valid"]:
            lines.append("valid: all identities hold")
        else:
            lines.append(f"violations ({len(results['violations'])}):")
            for v in results["violations"]:
                lines.append(
                    f"  {v['identity']} at {tuple(v['indices'])}: "
                    f"residual {v['residual']:.3e}"
                )
    elif task == "cohomology":
        for sl in results["slices"]:
            lines.append(
                f"degree {sl['degree']}: dim C = {sl['cochain_dim']}, "
                f"dim Z = {sl['cocycle_dim']}, dim B = {sl['coboundary_dim']}, "
                f"betti = {sl['betti']}"
            )
    elif task == "extend":
        ext = results["extension"]
        lines.append(
            f"extension built: total dim {ext['algebra']['dim']} "
            f"(base {ext['base_dim']} + coefficients {ext['coeff_dim']})"
        )
        lines.append(f"jacobi residual: {results['jacobi_residual']:.3e}")
        for row in ext["algebra"]["structure_constants"]:
            lines.append(f"  c[{row[0]},{row[1]},{row[2]}] = {row[3]}")
    elif task == "equivalence":
        lines.append(f"equivalent: {results['equivalent']}")
        lines.append(f"residual: {results['residual']:.3e}")
        if "witness" in results:
            for comp in results["witness"]:
                lines.append(f"  witness{tuple(comp['indices'])} = {comp['value']}")
    elif task == "gamma":
        lines.append(f"value: {results['value']}")
        if "value_mod_lattice" in results:
            lines.append(f"value mod lattice: {results['value_mod_lattice']}")
    elif task == "d2":
        for comp in results["derived_cochain"]:
            lines.append(f"  D2f{tuple(comp['indices'])} = {comp['value']}")
    elif task == "check-integrability":
        lines.append(f"verdict: {results['overall']}")
        for gen in results["generators"]:
            lines.append(
                f"  {gen['generator']}: period {gen['period']} -> {gen['verdict']} "
                f"(coefficients {gen['coefficients']}, residual {gen['residual']:.2e}, "
                f"error estimate {gen['error_estimate']:.2e})"
            )
        lines.append(f"assumption: {results['assumption']}")
    elif task == "pi1":
        lines.append(f"loops: {', '.join(results['loops'])}")
        lines.append("commutators:")
        for i, row in enumerate(results["commutators"]):
            lines.append(f"  {results['loops'][i]}: {row}")
        if "commutator_in_lattice" in results:
            lines.append("commutator in lattice:")
            for i, row in enumerate(results["commutator_in_lattice"]):
                lines.append(f"  {results['loops'][i]}: {row}")
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    lines.append(f"time: {report['timing_seconds']:.3f}s")
    return "\n".join(lines)


def _list_fixtures() -> str:
    base = resources.files("lieext") / "fixtures"
    with (base / "index.json").open() as handle:
        index = json.load(handle)
    lines = ["shipped example documents:"]
    for entry in index:
        lines.append(
            f"  {entry['file']}  task={entry['task']}  "
            f"expected_exit={entry['expected_exit']}  {entry['description']}"
        )
        lines.append(f"    path: {base / entry['file']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lieext",
        description="Lie algebra/group cohomology, extensions, and the "
        "period-lattice integrability test.",
    )
    parser.add_argument(
        "document",
        nargs="?",
        help="problem document path, or '-' for stdin",
    )
    parser.add_argument("--task", help="override the document's task")
    parser.add_argument("--quad-order", type=int, help="quadrature order per axis")
    parser.add_argument("--tol", type=float, help="task-appropriate tolerance override")
    parser.add_argument("--fd-step", type=float, help="finite-difference step for d2")
    parser.add_argument(
        "--output", choices=("text", "machine"), default="text", help="report format"
    )
    parser.add_argument(
        "--fixtures", action="store_true", help="list shipped example documents"
    )
    args = parser.parse_args(argv)

    if args.fixtures:
        print(_list_fixtures())
        return EXIT_OK
    if not args.document:
        parser.error("a document path (or '-') is required unless --fixtures is given")

    started = time.perf_counter()
    try:
        if args.document == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.document, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise DocumentError(f"cannot read {args.document}: {exc}") from None
        if args.task:
            parsed = json.loads(text)
            parsed["task"] = args.task
            doc = parse_document(parsed)
        else:
            doc = parse_document(text)
        if args.quad_order is not None:
            doc.options["quad_order"] = args.quad_order
        if args.tol is not None:
            doc.options["tol"] = args.tol
        if args.fd_step is not None:
            doc.options["fd_step"] = args.fd_step
        report, code = run(doc)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"input error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _REJECTION_ERRORS as exc:
        print(f"computation rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED

    report["timing_seconds"] = time.perf_counter() - started
    if args.output == "machine":
        print(json.dumps(report, sort_keys=True))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
