"""Command-line front end: parse a problem document, dispatch, report.

Usage:
    lieext PROBLEM.json [--task TASK] [--quad-order N] [--tol X]
           [--fd-step H] [--output text|machine]
    lieext - < PROBLEM.json
    lieext --fixtures

A document's "options" may set four names: quad_order (an integer from 1
to MAX_QUAD_ORDER = 256, default 16; at least 2 for check-integrability),
tol (a positive number; default 1e-9 for validate and extend, 1e-8 for
equivalence, 1e-6 for check-integrability and pi1), fd_step (a positive
number, default 1e-3 for d2) and degrees (a list of integers, default [2]
for cohomology).  Any other name exits 2;
a known option that the task does not read gives a warning.
The flags --quad-order, --tol and --fd-step are written into the
document's options before it is parsed and override the values there.

Exit codes: 0 success, 2 malformed input (an unknown option included),
3 computation rejected (e.g. a non-cocycle where a cocycle is required, or
a result that is not a finite double), 4 indeterminate verdict.
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
    load_json,
    parse_document,
)
from .errors import EXIT_INPUT, EXIT_OK, DocumentError, LieExtError


def _non_finite(value, where="results"):
    """Where the first NaN or infinity in a report value sits, else None."""
    if isinstance(value, float) and not math.isfinite(value):
        return where
    items = value.items() if isinstance(value, dict) else ()
    if isinstance(value, list):
        items = enumerate(value)
    return next(filter(None, (_non_finite(v, f"{where}[{k!r}]") for k, v in items)), None)


def run(doc: ProblemDocument) -> tuple:
    """Run a parsed document's task; return (report dict, exit code); main adds the digest and timing."""
    # overflow shows up as a non-finite result, rejected by _encode, not as a warning
    task = TASKS[doc.task]
    warnings = [
        f"option {name!r} has no effect on task {doc.task!r}"
        for name in doc.options
        if name not in task.options
    ]
    options = {name: doc.options.get(name, default) for name, default in task.options.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        results, task_warnings, code = task.run(doc, **options)
    return (
        {
            "schema_version": SCHEMA_VERSION,
            "task": doc.task,
            "results": results,
            "warnings": warnings + task_warnings,
        },
        code,
    )


# Text names a results field as the machine report does, apart from these.
_LABELS = {"overall": "verdict"}


def _text(value) -> str:
    """A string bare, any other value as in the machine report."""
    return value if isinstance(value, str) else json.dumps(value)


def _results_lines(results: dict, indent: str = "") -> list:
    """One line per scalar or list of scalars, `key: value`; a dict as `key:`
    and its fields indented; any other list as `key:` and one `- item` line
    per item, a dict item as `- k: v, k: v`."""
    lines = []
    for key, value in results.items():
        key = _LABELS.get(key, key)
        if isinstance(value, dict):
            lines += [f"{indent}{key}:", *_results_lines(value, indent + "  ")]
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            lines.append(f"{indent}{key}:")
            lines += [
                f"{indent}  - " + (", ".join(f"{k}: {_text(v)}" for k, v in item.items())
                                   if isinstance(item, dict) else _text(item))
                for item in value
            ]
        else:
            lines.append(f"{indent}{key}: {_text(value)}")
    return lines


def _render_text(report: dict) -> str:
    lines = [f"task: {report['task']}", f"inputs: {report['inputs_digest']}"]
    lines += _results_lines(report["results"])
    lines += [f"warning: {w}" for w in report["warnings"]]
    lines.append(f"time: {report['timing_seconds']:.3f}s")
    return "\n".join(lines)


def _encode(report: dict, machine: bool) -> str:
    """The report as printed, dumped once in machine mode; a NaN or infinity
    in results fails one strict dump at C speed, and the walk then names it."""
    try:
        if machine:
            return json.dumps(report, sort_keys=True, allow_nan=False)
        json.dumps(report["results"], allow_nan=False)
    except (ValueError, TypeError):
        where = _non_finite(report["results"])
        if where is None:
            raise
        raise LieExtError(f"{where} is not finite") from None
    return _render_text(report)


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


# Built once per process: parse_args reads it and returns a fresh namespace.
_PARSER = argparse.ArgumentParser(
    prog="lieext",
    description="Lie algebra/group cohomology, extensions, and the "
    "period-lattice integrability test.",
)
_PARSER.add_argument(
    "document",
    nargs="?",
    help="problem document path, or '-' for stdin",
)
_PARSER.add_argument("--task", help="override the document's task")
_PARSER.add_argument("--quad-order", type=int, help="quadrature order per axis")
_PARSER.add_argument("--tol", type=float, help="task-appropriate tolerance override")
_PARSER.add_argument("--fd-step", type=float, help="finite-difference step for d2")
_PARSER.add_argument(
    "--output", choices=("text", "machine"), default="text", help="report format"
)
_PARSER.add_argument(
    "--fixtures", action="store_true", help="list shipped example documents"
)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if args.fixtures:
        print(_list_fixtures())
        return EXIT_OK
    if not args.document:
        _PARSER.error("a document path (or '-') is required unless --fixtures is given")

    started = time.perf_counter()
    try:
        if args.document == "-":
            data = sys.stdin.buffer.read()
        else:
            try:
                with open(args.document, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                raise DocumentError(f"cannot read {args.document}: {exc}") from None
        raw = load_json(data)
        flags = {
            name: getattr(args, name)
            for name in ("quad_order", "tol", "fd_step")
            if getattr(args, name) is not None
        }
        if isinstance(raw, dict):
            if args.task:
                raw["task"] = args.task
            # flags override the document and go through the same checks;
            # a non-object options is left for parse_document to reject
            if flags and isinstance(raw.setdefault("options", {}), dict):
                raw["options"].update(flags)
        report, code = run(parse_document(raw))
        # the digest names the bytes read, then any override as canonical JSON
        overrides = {**flags, "task": args.task} if args.task else flags
        tail = json.dumps(overrides, sort_keys=True, separators=(",", ":")).encode() if overrides else b""
        report["inputs_digest"] = "sha256:" + hashlib.sha256(data + tail).hexdigest()
        report["timing_seconds"] = time.perf_counter() - started
        output = _encode(report, args.output == "machine")
    except LieExtError as exc:
        kind = "input error" if exc.exit_code == EXIT_INPUT else "computation rejected"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
