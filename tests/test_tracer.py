"""The benchmark's tracer wraps library functions by name, and its workloads
call library functions by name: a renamed or deleted function must fail
here, and every original must be back after a traced run."""

import functools
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np

import lieext.cli  # noqa: F401  (the tracer wraps cli.main)

from conftest import direct_sum

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
_spec = importlib.util.spec_from_file_location("tracer", BENCHMARK / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _bindings():
    """(module, name) -> value for every name bound in a lieext module, and
    (class, attribute) -> value for the traced methods."""
    bound = {(name, key): value for name, module in sys.modules.items()
             if name == "lieext" or name.startswith("lieext.")
             for key, value in vars(module).items()}
    for module, cls, attr, _ in tracer.HOT:
        if cls:
            bound[cls, attr] = vars(getattr(sys.modules[module], cls))[attr]
    return bound


def test_install_wraps_every_traced_function_and_uninstall_restores_it():
    before = _bindings()
    run = tracer.Tracer()
    run.install()
    try:
        during = _bindings()
    finally:
        run.uninstall()
    traced = [(m, a) for m, a, _ in tracer.SPANS]
    traced += [(cls or m, a) for m, cls, a, _ in tracer.HOT]
    assert all(during[key] is not before[key] for key in traced)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_argument_hooks_find_their_arguments():
    # the tracer binds surface_integral's form/chain/quad_order and
    # coboundary_matrix's alg/mod/n by name: a renamed parameter must fail here
    torus = lieext.torus_group(2)
    square = lieext.SurfacePatch(
        eval=lambda t, s: torus.chart.from_coords(np.stack([t, s], axis=-1)))
    form = lieext.EquivariantForm(lieext.cochain_from_pairs(2, 1, {(0, 1): 1.0}), torus)
    sl2 = lieext.sl2_algebra()
    run = tracer.Tracer()
    run.install()
    try:
        lieext.geometry.surface_integral(form, lieext.Surface2Chain(patches=(square,)), 4)
        lieext.cohomology.coboundary_matrix(sl2, lieext.adjoint_module(sl2), 1)
    finally:
        run.uninstall()
    assert run.shared["integral"][0] == run.shared["d"][0] == 1


def test_a_traced_table_assembles_each_degree_once_on_the_traced_path():
    # the cohomology workload's coboundary metrics count these spans: a table
    # that assembled d_n some other way would leave them silently short
    alg = direct_sum(lieext.sl2_algebra(), lieext.heisenberg3_algebra())
    mod = lieext.trivial_module(alg.dim, 2)
    run = tracer.Tracer()
    run.install()
    try:
        lieext.cohomology_table(alg, mod, range(alg.dim + 1))
    finally:
        run.uninstall()
    spans = [span for span in run.spans if span[3] == "cohomology.coboundary_matrix"]
    assert len(spans) == run.shared["d"][0] == alg.dim + 1
    assert sum(run.d_entries.values()) == sum(
        math.comb(alg.dim, n + 1) * math.comb(alg.dim, n) * 4 for n in range(alg.dim + 1))


def test_every_library_name_the_benchmark_uses_resolves():
    names = {
        match for path in BENCHMARK.glob("*.py")
        for match in re.findall(r"\blieext(?:\.\w+)+", path.read_text())
    }
    assert "lieext.cochain_from_pairs" in names
    missing = []
    for name in sorted(names):  # the lieext modules are all imported by now
        try:
            functools.reduce(getattr, name.split(".")[1:], lieext)
        except AttributeError:
            missing.append(name)
    assert missing == []
