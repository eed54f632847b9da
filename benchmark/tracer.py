"""Per-layer tracing from outside the program.

The tracer replaces public functions of lieext with timing wrappers while a
traced run lasts, in every module that bound them with `from .x import y`
(found by identity), and puts the originals back afterwards.  Two kinds of
wrapper:

* spans, at coarse layer boundaries: one record per call with its parent
  span and the operation it belongs to, kept in memory and written out when
  the run ends;
* hot calls, made thousands of times per operation: only a count and a time
  total, keyed by the innermost open span, because a record per call would
  distort the run.

Shared work is measured by fingerprints: a surface integral by its form,
order and the values of its patches on a fixed probe grid; a coboundary
matrix by its structure constants, module and degree.  Probe evaluations are
attributed to a "probe" frame and left out of every count.
"""

import functools
import hashlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name)
SPANS = (
    ("lieext.cli", "main", "cli.main"),
    ("lieext.documents", "parse_document", "documents.parse"),
    ("lieext.documents", "serialize_extension", "documents.serialize"),
    ("lieext.algebra", "validate_algebra", "algebra.validate_algebra"),
    ("lieext.algebra", "validate_module", "algebra.validate_module"),
    ("lieext.algebra", "reduce_mod_lattice", "algebra.reduce_mod_lattice"),
    ("lieext.groups", "validate_group", "groups.validate_group"),
    ("lieext.groups", "validate_path", "groups.validate_path"),
    ("lieext.groups", "validate_action_compatibility", "groups.validate_action"),
    ("lieext.cohomology", "build_complex_slice", "cohomology.build_complex_slice"),
    ("lieext.cohomology", "coboundary_matrix", "cohomology.coboundary_matrix"),
    ("lieext.cohomology", "is_cocycle", "cohomology.is_cocycle"),
    ("lieext.cohomology", "normalization_residual", "cohomology.normalization_residual"),
    ("lieext.extensions", "build_algebra_extension", "extensions.build"),
    ("lieext.extensions", "are_equivalent", "extensions.are_equivalent"),
    ("lieext.geometry", "surface_integral", "geometry.surface_integral"),
    ("lieext.geometry", "spanning_chain", "geometry.spanning_chain"),
    ("lieext.geometry", "path_cocycle", "geometry.path_cocycle"),
    ("lieext.geometry", "path_cocycle_coboundary", "geometry.path_cocycle_coboundary"),
    ("lieext.geometry", "representative_independence_residuals",
     "geometry.representative_independence"),
    ("lieext.geometry", "derived_cochain", "geometry.derived_cochain"),
    ("lieext.integrability", "assert_cycle_closed", "integrability.closure"),
    ("lieext.integrability", "check_integrability", "integrability.check_integrability"),
    ("lieext.integrability", "pi1_cocycle_table", "integrability.pi1_cocycle_table"),
)

# (module, class or None, attribute, counter name)
HOT = (
    ("lieext.expressions", "Expression", "__call__", "expressions.eval"),
    ("lieext.geometry", "SurfacePatch", "__call__", "geometry.patch"),
    ("lieext.groups", "MatrixGroup", "decompose", "groups.decompose"),
    ("lieext.groups", "MatrixGroup", "check_membership", "groups.membership"),
    ("lieext.cohomology", None, "apply_d", "cohomology.apply_d"),
    ("lieext.algebra", None, "lattice_member", "algebra.lattice_member"),
)

PROBE = "probe"
# inside the triangle 0 <= s <= t <= 1, so valid for both patch domains
PROBE_POINTS = ((0.31, 0.17), (0.62, 0.45), (0.88, 0.23))


def _digest(*parts):
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end)
        self.stack = []  # open frames: (span id, name)
        self.calls = defaultdict(int)  # (counter, innermost frame) -> calls
        self.times = defaultdict(float)  # (counter, innermost frame) -> seconds
        self.nodes = defaultdict(int)  # op -> quadrature nodes
        self.d_entries = defaultdict(int)  # op -> entries of assembled d_n
        self.shared = {"integral": [0, set()], "d": [0, set()]}  # calls, distinct keys
        self.op = None
        self.scope = None
        self._next = 0
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        lieext_modules = [m for name, m in sys.modules.items()
                          if name == "lieext" or name.startswith("lieext.")]
        for module, attr, name in SPANS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(name, original)
            for mod in lieext_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for module, cls, attr, name in HOT:
            owner = getattr(sys.modules[module], cls) if cls else None
            original = getattr(owner, attr) if owner else getattr(sys.modules[module], attr)
            wrapper = self._hot(name, original)
            if owner is not None:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in lieext_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- wrappers ------------------------------------------------------

    def _hot(self, name, fn):
        calls, times, stack = self.calls, self.times, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, stack[-1][1] if stack else None)
                calls[key] += 1
                times[key] += perf_counter() - start
        return wrapper

    def _span(self, name, fn):
        enter = {"geometry.surface_integral": self._enter_integral,
                 "cohomology.coboundary_matrix": self._enter_coboundary}.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                enter(bound.arguments)
            sid = self._next
            self._next += 1
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, self.op, name, start, end))
            if name == "cohomology.coboundary_matrix":
                self.d_entries[self.op] += int(np.size(result))
            return result
        return wrapper

    def _share(self, kind, key):
        entry = self.shared[kind]
        entry[0] += 1
        entry[1].add((self.scope, key))

    def _enter_integral(self, a):
        form, chain, order = a["form"], a["chain"], a["quad_order"]
        self.nodes[self.op] += sum(1 for p in chain.patches if p.coefficient) * order * order
        self.stack.append((None, PROBE))
        try:
            probes = [
                (p.domain, p.coefficient,
                 np.round(np.concatenate([np.ravel(np.asarray(p.eval(t, s), dtype=float))
                                          for t, s in PROBE_POINTS]), 10).tobytes())
                for p in chain.patches
            ]
            key = _digest(order, form.group.name,
                          np.round(form.cochain.to_vector(), 12).tobytes(), probes)
        except Exception:  # the real call will raise and be counted; this one is unique
            key = ("unprobed", self._next)
        finally:
            self.stack.pop()
        self._share("integral", key)

    def _enter_coboundary(self, a):
        key = _digest(a["alg"].structure_constants.tobytes(), a["mod"].rho.tobytes(), a["n"])
        self._share("d", key)

    # -- results --------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                         "start": start, "end": end}) + "\n")

    def per_layer(self, n_ops):
        """Per-operation layer metrics over the traced operations."""
        dur = defaultdict(float)
        count = defaultdict(int)
        child = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            dur[name] += end - start
            count[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            self_time[name] += (end - start) - child.get(sid, 0.0)

        def hot(name, frame=None):
            keys = [k for k in self.calls if k[0] == name and k[1] != PROBE
                    and (frame is None or k[1] == frame)]
            return sum(self.calls[k] for k in keys), sum(self.times[k] for k in keys)

        def per_call_us(name):
            calls, secs = hot(name)
            return 1e6 * secs / calls if calls else 0.0

        def ratio(kind):
            calls, distinct = self.shared[kind][0], len(self.shared[kind][1])
            return distinct / calls if calls else 1.0

        n = max(n_ops, 1)
        nodes = sum(self.nodes.values())
        quad_evals, _ = hot("geometry.patch", "geometry.surface_integral")
        out = {
            "geometry.quad_nodes": (nodes / n, "count/op"),
            "geometry.us_per_node": (
                1e6 * dur["geometry.surface_integral"] / nodes if nodes else 0.0, "us"),
            "geometry.surface_integral.calls": (count["geometry.surface_integral"] / n, "count/op"),
            "geometry.surface_integral.ms": (1e3 * dur["geometry.surface_integral"] / n, "ms/op"),
            "geometry.patch_evals": (quad_evals / n, "count/op"),
            "geometry.patch_evals_per_node": (quad_evals / nodes if nodes else 0.0, "ratio"),
            "geometry.spanning_chain.ms": (1e3 * dur["geometry.spanning_chain"] / n, "ms/op"),
            "geometry.distinct_integral_ratio": (ratio("integral"), "ratio"),
            "expressions.evals": (hot("expressions.eval")[0] / n, "count/op"),
            "expressions.eval.us": (per_call_us("expressions.eval"), "us"),
            "groups.decompose.calls": (hot("groups.decompose")[0] / n, "count/op"),
            "groups.decompose.us": (per_call_us("groups.decompose"), "us"),
            "groups.membership.calls": (hot("groups.membership")[0] / n, "count/op"),
            "groups.membership.us": (per_call_us("groups.membership"), "us"),
            "integrability.closure.ms": (1e3 * dur["integrability.closure"] / n, "ms/op"),
            "integrability.edge_samples": (
                hot("geometry.patch", "integrability.closure")[0] / n, "count/op"),
            "algebra.lattice_member.calls": (hot("algebra.lattice_member")[0] / n, "count/op"),
            "algebra.lattice_member.us": (per_call_us("algebra.lattice_member"), "us"),
            "cohomology.coboundary_matrix.calls": (
                count["cohomology.coboundary_matrix"] / n, "count/op"),
            "cohomology.coboundary_matrix.ms": (
                1e3 * dur["cohomology.coboundary_matrix"] / n, "ms/op"),
            "cohomology.apply_d.calls": (hot("cohomology.apply_d")[0] / n, "count/op"),
            "cohomology.d_entries": (sum(self.d_entries.values()) / n, "count/op"),
            "cohomology.distinct_d_ratio": (ratio("d"), "ratio"),
            "cohomology.rank.ms": (1e3 * self_time["cohomology.build_complex_slice"] / n, "ms/op"),
            "extensions.are_equivalent.ms": (1e3 * dur["extensions.are_equivalent"] / n, "ms/op"),
            "extensions.build.ms": (1e3 * dur["extensions.build"] / n, "ms/op"),
            "documents.parse.ms": (1e3 * dur["documents.parse"] / n, "ms/op"),
            "cli.main.self_ms": (1e3 * self_time["cli.main"] / n, "ms/op"),
        }
        return out
