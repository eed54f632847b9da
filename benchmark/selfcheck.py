"""Short self-check of the benchmark itself (run.py --self-check).

1. Every metric that BENCHMARK.json lists prints, by name and unit, from a
   short run of each workload, untraced and traced.
2. Each oracle rejects a perturbed result: period + 0.5, Betti + 1, path
   identity + 0.5.
3. Traced and untraced runs of the same operations give identical outputs
   apart from the timing field.
"""

import copy
import itertools
import json
import subprocess
import sys

import numpy as np

import workloads
from run import WORK, run_op
from tracer import Tracer


def _short_runs(root, spec):
    ok = True
    for workload, trace in itertools.product([w["name"] for w in spec["workloads"]], (0, 1)):
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "2", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"FAIL {workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-300:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        wanted = spec["per_layer" if trace else "end_to_end"]
        for metric in wanted:
            got = result["metrics"].get(metric["name"])
            printed = any(line.startswith(f"metric {metric['name']} = ")
                          and line.endswith(f" {metric['unit']}") for line in lines)
            if got is None or got["unit"] != metric["unit"] or not printed:
                print(f"FAIL {workload} trace={trace}: {metric['name']} [{metric['unit']}] "
                      f"missing or with another unit: {got}")
                ok = False
        extra = set(result["metrics"]) - {m["name"] for m in wanted}
        if extra:
            print(f"FAIL {workload} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
            ok = False
    print(f"self-check metric names and units: {'ok' if ok else 'FAIL'}")
    return ok


def _first(stream, label_prefix):
    return next(op for op in stream if op.label.startswith(label_prefix))


def _perturbed_oracles():
    path = WORK / "document.json"
    cases = []
    op = _first(workloads.periods_stream(5), "su2-sphere")
    outcome, _ = run_op(op, path)
    bad = copy.deepcopy(outcome)
    bad.report["results"]["generators"][0]["period"][0] += 0.5
    cases.append(("period + 0.5", op, outcome, bad))
    op = _first(workloads.cohomology_stream(5), "table")
    outcome, _ = run_op(op, path)
    bad = copy.deepcopy(outcome)
    bad.report["results"]["slices"][0]["betti"] += 1
    cases.append(("Betti + 1", op, outcome, bad))
    op = _first(workloads.path_identities_stream(5), "coboundary q8")
    outcome, _ = run_op(op, path)
    cases.append(("path identity + 0.5", op, outcome, [np.asarray(outcome[0]) + 0.5]))
    ok = True
    for name, op, good, bad in cases:
        accepts = not op.check(good).findings
        rejects = bool(op.check(bad).findings)
        print(f"self-check oracle {op.label}: accepts the result: {accepts}; "
              f"rejects {name}: {rejects}")
        ok &= accepts and rejects
    return ok


def _strip_timing(outcome):
    if isinstance(outcome, workloads.CliOutcome):
        report = dict(outcome.report or {})
        report.pop("timing_seconds", None)
        return outcome.code, json.dumps(report, sort_keys=True), outcome.message
    return [np.asarray(v).tolist() for v in outcome]


def _trace_is_transparent(n_ops=6):
    path = WORK / "document.json"
    ok = True
    for name, stream_of in workloads.WORKLOADS.items():
        plain = [_strip_timing(run_op(op, path)[0])
                 for op in itertools.islice(stream_of(11), n_ops)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [_strip_timing(run_op(op, path)[0])
                      for op in itertools.islice(stream_of(11), n_ops)]
        finally:
            tracer.uninstall()
        same = plain == traced
        print(f"self-check traced and untraced {name} outputs identical over {n_ops} "
              f"operations: {same}")
        ok &= same
    return ok


def main(root):
    WORK.mkdir(exist_ok=True)
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    ok = _perturbed_oracles()
    ok &= _trace_is_transparent()
    ok &= _short_runs(root, spec)
    print(f"self-check: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1
