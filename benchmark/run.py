"""lieext benchmark: one seeded workload, one closed-loop client.

    python3 benchmark/run.py --workload periods --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --self-check

One operation runs after the previous one finishes, in this process, with
no worker threads.  A run holds a fixed number of whole blocks of the seeded
stream, sized from --seconds, so a seed always runs the same operations and
its `attempted` and `failed` counts repeat exactly.  Untraced runs (--trace 0)
report the end-to-end metrics, with times scaled to a fixed speed of the
machine, measured by the loops in reference.py.  Traced runs (--trace 1) run
every operation twice, untraced and traced, and report per-layer metrics from
the traced runs, the tracing overhead, and the error rate and largest
numerical error over both (tracing does not change outputs; --self-check
verifies that).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report:
environment, sample counts, raw wall-clock figures, error rate, largest
numerical error, and every failed operation itemised by document kind and
oracle.

`correct` is false when the program gave an answer that contradicts its
reference (a wrong Betti number, verdict, period or equivalence).  An
operation that raises, exits with another code than expected, declines to
decide, or misses a documented property such as a nearest-point reduction
counts as failed; those show in `failed` and in the error rate.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import NUMPY_REFERENCE_S, REFERENCE_S, numpy_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchmark_work"
SETUP_RUNS = 5
# Wall time of a traced run relative to an untraced one of the same blocks.
TRACE_COST = 2.2
# The machine's speed drifts by tens of percent over seconds to minutes
# (other tenants share the cores), which no run length here averages away.
# Every time in the end-to-end metrics is therefore scaled by a reference
# loop timed around each operation in the same run (numpy_loop; python_loop
# for the import times): figures are in seconds of a machine on which the
# loop takes its REFERENCE_S.  The raw wall-clock figures are printed
# alongside.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from reference import python_loop\n"
    "def loop_time():\n"
    "    start = time.perf_counter()\n"
    "    python_loop()\n"
    "    return time.perf_counter() - start\n"
    "before = loop_time()\n"
    "start = time.perf_counter()\n"
    "import lieext, lieext.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, (before + loop_time()) / 2)\n"
    "print(lieext.__file__)\n"
)
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def machine_slowdown():
    """How much slower than the reference machine this one runs right now."""
    start = perf_counter()
    numpy_loop()
    return (perf_counter() - start) / NUMPY_REFERENCE_S


def measure_setup():
    """Median time of `import lieext, lieext.cli` in fresh interpreters,
    raw and scaled to the reference speed measured inside each of them."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3:
            raise RuntimeError(f"import failed in a fresh interpreter: {proc.stderr.strip()}")
        if not Path(lines[2]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported lieext from {lines[2]}, not from {SRC}")
        raw.append(float(lines[0]))
        scaled.append(float(lines[0]) * REFERENCE_S / float(lines[1]))
    return statistics.median(scaled), raw, scaled


def environment(seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor() or "unknown")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "not a git checkout"
    try:  # only this checkout's own repository, never one above it
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=20,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "commit": commit, "seed": seed,
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


class Phase:
    """Outcomes of one closed-loop pass over a workload's operations."""

    def __init__(self):
        self.latencies = []
        self.readings = []  # (time, machine_slowdown()) around untraced operations
        self.intervals = []  # (start, end) of each untraced operation
        self.traced_latencies = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.max_abs_err = 0.0
        self.failures = []  # (op index, label, oracle, detail)

    def record(self, index, op, result):
        self.attempted += 1
        self.max_abs_err = max(self.max_abs_err, result.max_abs_err)
        if result.findings:
            self.failed += 1
            self.wrong += any(finding.wrong for finding in result.findings)
            for finding in result.findings:
                self.failures.append((index, op.label, finding.oracle, finding.detail))


def run_op(op, path):
    """Time one operation; never raises for the program's sake."""
    if op.document is not None:
        path.write_text(op.document, encoding="utf-8")
        import workloads
        call = lambda: workloads.run_cli(str(path))
    else:
        call = op.run
    start = perf_counter()
    try:
        outcome = call()
    except (Exception, SystemExit) as exc:
        outcome = exc
    return outcome, perf_counter() - start


def timed_op(op, path, phase):
    """run_op between two readings of the machine's slowdown."""
    phase.readings.append((perf_counter(), machine_slowdown()))
    start = perf_counter()
    outcome, latency = run_op(op, path)
    phase.readings.append((perf_counter(), machine_slowdown()))
    return outcome, latency, start


def local_slowdowns(readings, intervals, halfwidth=2.0):
    """For each operation, the median reading taken within `halfwidth`
    seconds of it: follows the drift, ignores a single slow reading."""
    times = [t for t, _ in readings]
    out = []
    for start, end in intervals:
        window = readings[bisect_left(times, start - halfwidth):
                          bisect_right(times, end + halfwidth)]
        out.append(statistics.median(v for _, v in window))
    return out


def check_op(op, outcome):
    import workloads
    if isinstance(outcome, BaseException):
        result = workloads.Check()
        result.fail("exception", f"{type(outcome).__name__}: {outcome}")
        return result
    try:
        return op.check(outcome)
    except Exception as exc:  # an output the oracle cannot even read
        result = workloads.Check()
        result.fail("check_raised", f"{type(exc).__name__}: {exc}", wrong=True)
        return result


def blocks_for(block_seconds, seconds, trace):
    """How many whole blocks of a workload's stream one run holds.

    A run is a fixed number of blocks, not a time limit, so the same seed
    always runs the same operations: `attempted` and `failed` then repeat
    exactly from run to run.  The count is sized from --seconds with the
    workload's block time; a traced run executes every operation twice,
    once traced, and holds fewer blocks.
    """
    return max(1, round(seconds / (block_seconds * (TRACE_COST if trace else 1.0))))


def run_phase(stream, blocks, warmup, tracer=None):
    """Run the operations of the first `blocks` blocks of the stream.

    With a tracer, every operation runs twice, untraced and traced, in an
    order that alternates, so the tracing overhead is measured on the same
    work at nearly the same moment.
    """
    phase = Phase()
    WORK.mkdir(exist_ok=True)
    path = WORK / "document.json"
    run_op(warmup, path)
    for index, op in enumerate(stream):
        if op.round >= blocks:
            break
        plain_first = tracer is None or index % 2 == 0
        if plain_first:
            outcome, latency, began = timed_op(op, path, phase)
        if tracer is not None:
            tracer.install()
            tracer.op, tracer.scope = index, op.scope
            try:
                traced, traced_latency = run_op(op, path)
            finally:
                tracer.op = None
                tracer.uninstall()
            phase.traced_latencies.append(traced_latency)
            phase.record(index, op, check_op(op, traced))
        if not plain_first:
            outcome, latency, began = timed_op(op, path, phase)
        phase.latencies.append(latency)
        phase.intervals.append((began, began + latency))
        phase.record(index, op, check_op(op, outcome))
    return phase


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a beta density, steadier from run to run than
    one interpolated order statistic when the latencies come in classes."""
    import numpy as np  # after main() has pinned BLAS to one thread
    x = np.sort(np.asarray(values, dtype=float))
    n, k = len(x), 64
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = (np.arange(n * k) + 0.5) / (n * k)  # k midpoints in each ((i-1)/n, i/n)
    log_density = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    weights = np.exp(log_density - log_density.max()).reshape(n, k).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(latencies, setup_s):
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * quantile(latencies, 0.5),
        "op_ms_p90": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_failures(phase):
    print(f"error_rate = {phase.failed / max(phase.attempted, 1):.6g} fraction "
          f"({phase.failed} of {phase.attempted} operations failed; "
          f"{phase.wrong} gave a wrong answer)")
    print(f"max_abs_err = {phase.max_abs_err:.6g} (largest distance of a numerical "
          "result from its reference, in the result's own unit)")
    if not phase.failures:
        return
    print("failures by document kind and oracle:")
    for (kind, oracle), count in sorted(Counter((f[1], f[2]) for f in phase.failures).items()):
        print(f"  {count:4d} x {kind} / {oracle}")
    print("failed operations (first 40):")
    for index, kind, oracle, detail in phase.failures[:40]:
        print(f"  op {index} {kind} [{oracle}] {detail}")


def run_workload(args):
    import workloads
    from tracer import Tracer

    stream_of = workloads.WORKLOADS[args.workload]
    warmup_seed = args.seed + 7919
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("load: closed loop, one client, in-process, no worker threads")
    setup_s, setup_raw, setup_scaled = measure_setup()
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"setup: {SETUP_RUNS} fresh interpreters, wall "
          + ", ".join(f"{t:.4f}" for t in setup_raw) + " s; scaled "
          + ", ".join(f"{t:.4f}" for t in setup_scaled) + " s")

    tracer = Tracer() if args.trace else None
    blocks = blocks_for(workloads.BLOCK_SECONDS[args.workload], args.seconds, args.trace)
    print(f"run length: {blocks} whole blocks of the seeded stream "
          f"(sized from --seconds {args.seconds:g})")
    phase = run_phase(stream_of(args.seed), blocks, next(stream_of(warmup_seed)), tracer)
    n = len(phase.latencies)
    if tracer is None:
        slowdowns = local_slowdowns(phase.readings, phase.intervals)
        wall = end_to_end(phase.latencies, statistics.median(setup_raw))
        scaled = [t / v for t, v in zip(phase.latencies, slowdowns)]
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(scaled, setup_s).items()}
        print(f"samples: {n} timed operations after one warm-up; the machine ran "
              f"{statistics.median(slowdowns):.3f}x the reference time "
              f"({min(slowdowns):.3f}..{max(slowdowns):.3f}); op_ms_p50 and op_ms_p90 "
              "are Harrell-Davis estimates over all of them")
        print("wall clock, unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
    else:
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.per_layer(n)
        ratios = [t / p for t, p in zip(phase.traced_latencies, phase.latencies)]
        metrics["trace.overhead"] = (statistics.median(ratios) - 1.0, "ratio")
        metrics["error_rate"] = (phase.failed / phase.attempted, "fraction")
        metrics["max_abs_err"] = (phase.max_abs_err, "result-units")
        print(f"samples: {n} operations, each run untraced and traced after one warm-up; "
              "trace.overhead is the median traced/untraced latency ratio minus 1")
    print_failures(phase)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("periods", "cohomology", "path-identities"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check metric names, oracles and tracing, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "lieext" / "__init__.py").is_file():
        return fail(f"no lieext sources under {SRC}")
    # The load model is one process without worker threads, BLAS included.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import lieext
    if not Path(lieext.__file__).resolve().is_relative_to(SRC):
        return fail(f"imported lieext from {lieext.__file__}, not from {SRC}")
    if args.self_check:
        import selfcheck
        return selfcheck.main(ROOT)
    if args.workload is None:
        return fail("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
