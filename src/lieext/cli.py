"""Command-line front end: parse a problem document, dispatch, report.

Usage:
    lieext PROBLEM.json [--task TASK] [--quad-order N] [--tol X]
           [--fd-step H] [--output text|machine]
    lieext - < PROBLEM.json
    lieext --fixtures

Exit codes: 0 success, 2 malformed input, 3 computation rejected (e.g. a
non-cocycle where a cocycle is required, or a result that is not a finite
double), 4 indeterminate verdict.
Machine output is a single JSON report on stdout; reports are
deterministic for a fixed document apart from the timing field.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from importlib import resources

import numpy as np

from .documents import (
    SCHEMA_VERSION,
    TASKS,
    ProblemDocument,
    _option,
    load_json,
    parse_document,
)
from .errors import EXIT_INPUT, EXIT_OK, DocumentError, LieExtError
from .geometry import DEFAULT_QUAD_ORDER


def _digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _non_finite(value, where="results"):
    """Where the first NaN or infinity in a report value sits, else None."""
    if isinstance(value, float) and not math.isfinite(value):
        return where
    items = value.items() if isinstance(value, dict) else ()
    if isinstance(value, list):
        items = enumerate(value)
    return next(filter(None, (_non_finite(v, f"{where}[{k!r}]") for k, v in items)), None)


def run(doc: ProblemDocument) -> tuple:
    """Run a parsed document's task; return (report dict, exit code)."""
    quad_order = _option(doc.options, ("quad_order",), DEFAULT_QUAD_ORDER, int)
    # overflow shows up as a non-finite result, rejected below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        results, warnings, code = TASKS[doc.task].run(doc, quad_order)
    where = _non_finite(results)
    if where is not None:
        raise LieExtError(f"{where} is not finite")
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
    lines += TASKS[report["task"]].render(report["results"])
    lines += [f"warning: {w}" for w in report["warnings"]]
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
        raw = load_json(text)
        if args.task and isinstance(raw, dict):
            raw["task"] = args.task
        doc = parse_document(raw)
        for option in ("quad_order", "tol", "fd_step"):
            if getattr(args, option) is not None:
                doc.options[option] = getattr(args, option)
        report, code = run(doc)
    except LieExtError as exc:
        kind = "input error" if exc.exit_code == EXIT_INPUT else "computation rejected"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code

    report["timing_seconds"] = time.perf_counter() - started
    if args.output == "machine":
        print(json.dumps(report, sort_keys=True, allow_nan=False))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
