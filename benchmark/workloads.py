"""Seeded workloads: what one operation runs and how its output is checked.

Each workload is an endless stream of operations made from the seed.  The
kinds of operation, their sizes and their quadrature orders follow a fixed
schedule that the seed only permutes, so two seeds load the program the same
way; the values inside each operation (cocycles, lattices, bases, paths) are
drawn from the seed.  The program sees only the generated inputs.

An operation's `run` is what gets timed; its `check` runs afterwards and
compares the outcome with a reference from `oracles`, never with the
program's own answer.
"""

import functools
import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb
from typing import Callable, List, Optional

import numpy as np

import lieext
import lieext.cli

import oracles

PERIOD_ORDERS = (8, 16, 24)


@dataclass
class Finding:
    oracle: str
    detail: str
    wrong: bool  # a confident answer that contradicts the reference


@dataclass
class Check:
    findings: List[Finding] = field(default_factory=list)
    max_abs_err: float = 0.0

    def numeric(self, oracle, got, want, tol):
        """Compare a numerical result with its reference within tol."""
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
        self.max_abs_err = max(self.max_abs_err, err)
        if not err <= tol:
            self.fail(oracle, f"off by {err:.3e} (tolerance {tol:.1e})", wrong=True)

    def fail(self, oracle, detail, wrong=False):
        self.findings.append(Finding(oracle, detail, wrong))


@dataclass
class Op:
    label: str  # kind and size, used to itemise failures
    scope: str  # operations that may share work carry the same scope
    run: Callable[[], object]  # the timed call
    check: Callable[[object], Check]
    document: Optional[str] = None  # CLI document text, written before timing
    round: int = 0  # the block it belongs to; a run holds whole blocks


# ---------------------------------------------------------------------------
# Running a document through the CLI in-process


@dataclass
class CliOutcome:
    code: Optional[int]  # None when main raised
    report: Optional[dict]
    message: str  # stderr, or the exception that escaped main


def run_cli(path):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = lieext.cli.main([path, "--output", "machine"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback exit; counted as a failure
        return CliOutcome(None, None, f"{type(exc).__name__}: {exc}")
    report = None
    if out.getvalue().strip():
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            report = None
    return CliOutcome(code, report, err.getvalue().strip())


def cli_check(expected_exits, check_report=None):
    """Check an exit code, then the report's content when there is one."""
    def check(outcome):
        result = Check()
        if outcome.code not in expected_exits:
            got = "traceback" if outcome.code is None else f"exit {outcome.code}"
            first = outcome.message.splitlines()[0] if outcome.message else ""
            result.fail(
                "exit_code",
                f"expected exit {sorted(expected_exits)}, got {got}: {first[:120]}",
                wrong=outcome.code == 0,
            )
        if outcome.report is not None and check_report is not None:
            try:
                check_report(outcome.report, result)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                result.fail("report_shape", f"{type(exc).__name__}: {exc}", wrong=True)
        elif check_report is not None and 0 in expected_exits and outcome.code == 0:
            result.fail("report_shape", "exit 0 without a machine report", wrong=True)
        return result
    return check


def _fmt(x):
    return repr(float(x))


class Schedule:
    """A fixed block of entries, shuffled by the seed each time round.

    Yields (block number, entry, k), where k counts the entries of that kind
    so far from a seeded offset.  A run holds whole blocks, so every run
    has the same mix of kinds and sizes for every seed.
    """

    def __init__(self, rng, entries):
        self.rng = rng
        self.entries = list(entries)
        self.count = {kind: int(rng.integers(0, 60))
                      for kind in sorted({entry[0] for entry in self.entries})}

    def __iter__(self):
        for block in itertools.count():
            for pos in self.rng.permutation(len(self.entries)):
                entry = self.entries[pos]
                k = self.count[entry[0]]
                self.count[entry[0]] += 1
                yield block, entry, k


# ---------------------------------------------------------------------------
# periods: problem documents through lieext.cli.main


def _lattice(rng, dim):
    """Lattice generators: a scaled Z, or a skewed basis of R^2."""
    if dim == 1:
        return np.array([[rng.uniform(0.5, 2.0)]])
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    skew = np.array([[1.0, 0.0], [rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.5)]])
    return rng.uniform(0.5, 1.5) * skew @ rot.T


def _in_lattice(gens, v):
    """True, False, or None when v sits too close to call."""
    _, dist = oracles.nearest_lattice_point(gens, v)
    if dist < 1e-12:
        return True
    if dist > 1e-4:
        return False
    return None


def _cocycle_section(values):
    return {"degree": 2, "components": [{"indices": [0, 1], "value": [float(x) for x in values]}]}


def _torus_doc(rng, k, member):
    """T^2 cocycle and lattice; every third document sits on the lattice."""
    dim = 1 + k % 2
    gens = _lattice(rng, dim)
    if member:
        c = gens.T @ rng.integers(-2, 3, size=dim).astype(float)
    else:
        c = rng.uniform(-2.0, 2.0, size=dim)
    return dim, gens, c


def _integrability_check(gens, period_ref, expect_member):
    """Periods against the analytic value, verdict against the lattice."""
    def check_report(report, result):
        res = report["results"]
        for gen, ref in zip(res["generators"], period_ref):
            result.numeric("period", gen["period"], ref, gen["tolerance_used"])
        want = _in_lattice(gens, period_ref[0]) if expect_member is None else expect_member
        if want is None:
            return
        want_overall = "integrable" if want else "not_integrable"
        if res["overall"] != want_overall:
            result.fail(
                "verdict",
                f"expected {want_overall}, got {res['overall']}",
                wrong=res["overall"] != "indeterminate",
            )
    return check_report


def _periods_square(rng, k, tiling):
    dim, gens, c = _torus_doc(rng, k, member=k % 3 == 0)
    shear = int(rng.integers(-1, 2))
    if tiling:
        patches = [
            {"domain": "square",
             "coords": [f"0.5*t + {a}", f"0.5*s + {b}"]}
            for a in (0.0, 0.5) for b in (0.0, 0.5)
        ]
    else:
        a, b = rng.uniform(-1.0, 1.0, size=2)
        patches = [{"domain": "square", "coords": [f"t + {shear}*s + {_fmt(a)}", f"s + {_fmt(b)}"]}]
    doc = {
        "task": "check-integrability",
        "group": {"kind": "torus", "dim": 2},
        "module": {"coeff_dim": dim},
        "cocycle": _cocycle_section(c),
        "lattice": {"generators": gens.tolist()},
        "cycles": [{"name": "torus", "patches": patches}],
    }
    return doc, {0}, _integrability_check(gens, [c], None)


def _block_exprs(rng, ncoords):
    """A smooth 3-patch [0,1]^3 -> chart coordinates, as expression makers."""
    coef = rng.uniform(-0.6, 0.6, size=(ncoords, 5))

    def make(u, v, w):
        return [
            f"{_fmt(a[0])} + {_fmt(a[1])}*({u}) + {_fmt(a[2])}*({v})*({w})"
            f" + {_fmt(a[3])}*sin(pi*({w}))*({u}) + {_fmt(a[4])}*cos(pi*({v}))"
            for a in coef
        ]
    return make


def _cube_patches(make):
    """Six oriented faces of the block, as cube_boundary_chain orders them."""
    patches = []
    for axis in range(3):
        sign = -1 if axis % 2 == 0 else 1
        for value, coeff in (("0", sign), ("1", -sign)):
            args = ["t", "s"]
            args.insert(axis, value)
            patches.append({"domain": "square", "coefficient": coeff, "coords": make(*args)})
    return patches


def _periods_cube(rng, k, group):
    if group == "torus":
        dim, gens, c = _torus_doc(rng, k, member=False)
        section = {"kind": "torus", "dim": 2}
        make = _block_exprs(rng, 2)
        cocycle = _cocycle_section(c)
    else:
        dim, gens = 1, _lattice(rng, 1)
        section = {"kind": "heisenberg"}
        make = _block_exprs(rng, 3)
        vals = rng.uniform(-2.0, 2.0, size=3)
        cocycle = {"degree": 2, "components": [
            {"indices": list(ij), "value": [float(x)]}
            for ij, x in zip(((0, 1), (0, 2), (1, 2)), vals)]}
    doc = {
        "task": "check-integrability",
        "group": section,
        "module": {"coeff_dim": dim},
        "cocycle": cocycle,
        "lattice": {"generators": gens.tolist()},
        "cycles": [{"name": "cube-boundary", "patches": _cube_patches(make)}],
    }
    return doc, {0}, _integrability_check(gens, [np.zeros(dim)], True)


def _quaternion_matrix_exprs(q):
    """Left multiplication by q = (w, x, y, z) as a 4x4 expression matrix."""
    w, x, y, z = (f"({e})" for e in q)
    neg = lambda e: f"-{e}"
    return [
        [w, neg(x), neg(y), neg(z)],
        [x, w, neg(z), y],
        [y, z, w, neg(x)],
        [z, neg(y), x, w],
    ]


def _periods_sphere(rng, k):
    """A great 2-sphere in SU(2) = S^3: a boundary, so every period is 0."""
    frame, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    e1, e2, e3 = frame[:, 0], frame[:, 1], frame[:, 2]
    q = [
        f"{_fmt(e3[i])}*cos(pi*t) + sin(pi*t)*({_fmt(e1[i])}*cos(2*pi*s)"
        f" + {_fmt(e2[i])}*sin(2*pi*s))"
        for i in range(4)
    ]
    gens = _lattice(rng, 1)
    vals = rng.uniform(-2.0, 2.0, size=3)
    doc = {
        "task": "check-integrability",
        "group": {"kind": "su2"},
        "cocycle": {"degree": 2, "components": [
            {"indices": list(ij), "value": [float(x)]}
            for ij, x in zip(((0, 1), (0, 2), (1, 2)), vals)]},
        "lattice": {"generators": gens.tolist()},
        "cycles": [{"name": "great-sphere", "patches": [
            {"domain": "square", "matrix": _quaternion_matrix_exprs(q)}]}],
    }
    return doc, {0}, _integrability_check(gens, [np.zeros(1)], True)


def _mod_lattice_check(result, oracle, value, reduced, gens):
    """A reduction mod the lattice must be congruent and nearest."""
    value, reduced = np.asarray(value, dtype=float), np.asarray(reduced, dtype=float)
    _, dist = oracles.nearest_lattice_point(gens, value - reduced)
    if dist > 1e-6:
        result.fail(oracle, f"{reduced.tolist()} is not congruent to {value.tolist()}", wrong=True)
        return
    _, nearest = oracles.nearest_lattice_point(gens, value)
    if np.linalg.norm(reduced) > nearest + 1e-6:
        result.fail(
            oracle,
            f"representative has norm {np.linalg.norm(reduced):.3g}, the nearest "
            f"lattice point is {nearest:.3g} away",
        )


def _periods_gamma(rng, k):
    dim, gens, c = _torus_doc(rng, k, member=False)
    v1, v2 = rng.uniform(-1.5, 1.5, size=(2, 2))
    ref = c * (v1[0] * v2[1] - v1[1] * v2[0]) / 2.0
    doc = {
        "task": "gamma",
        "group": {"kind": "torus", "dim": 2},
        "module": {"coeff_dim": dim},
        "cocycle": _cocycle_section(c),
        "paths": {
            "p": {"coords": [f"{_fmt(v1[0])}*t", f"{_fmt(v1[1])}*t"]},
            "q": {"coords": [f"{_fmt(v2[0])}*t", f"{_fmt(v2[1])}*t"]},
        },
        "pair": ["p", "q"],
        "lattice": {"generators": gens.tolist()},
    }

    def check_report(report, result):
        res = report["results"]
        result.numeric("gamma", res["value"], ref, 1e-6)
        _mod_lattice_check(result, "nearest_representative", res["value"],
                           res["value_mod_lattice"], gens)
    return doc, {0}, check_report


def _periods_pi1(rng, k):
    dim, gens, c = _torus_doc(rng, k, member=False)
    windings = []
    while len(windings) < 2:
        w = rng.integers(-2, 3, size=2)
        if w.any():
            windings.append([int(x) for x in w])
    doc = {
        "task": "pi1",
        "group": {"kind": "torus", "dim": 2},
        "module": {"coeff_dim": dim},
        "cocycle": _cocycle_section(c),
        "lattice": {"generators": gens.tolist()},
        "loops": [{"name": f"l{i}", "winding": w} for i, w in enumerate(windings)],
    }

    def check_report(report, result):
        res = report["results"]
        for i, wi in enumerate(windings):
            for j, wj in enumerate(windings):
                det = wi[0] * wj[1] - wi[1] * wj[0]
                result.numeric("loop_value", res["values"][i][j], c * det / 2.0, 1e-6)
                comm = c * det
                result.numeric("commutator", res["commutators"][i][j], comm, 1e-6)
                if i >= j:  # the table is antisymmetric; judge each pair once
                    continue
                _mod_lattice_check(result, "nearest_representative", comm,
                                   res["commutators_mod_lattice"][i][j], gens)
                want = _in_lattice(gens, comm)
                got = res["commutator_in_lattice"][i][j]
                if want is not None and got != ("member" if want else "not_member"):
                    result.fail("commutator_verdict",
                                f"loops {wi}, {wj}: commutator {comm.tolist()} called {got}",
                                wrong=got != "indeterminate")
    return doc, {0}, check_report


# Malformed documents: the error contract says exit 2 (input) and exit 3
# for errors that only show during evaluation.  Kinds that escape with a
# traceback today stay in the draw and count as failures.
def _malformed_periods(rng, k):
    doc, _, _ = _periods_square(rng, 1, tiling=False)
    kind = ["dim_string", "dim_negative", "order_string", "divide_by_zero",
            "unknown_variable", "value_length", "missing_cycles", "bad_json"][k % 8]
    expected = {2}
    if kind == "dim_string":
        doc["group"]["dim"] = "x"
    elif kind == "dim_negative":
        doc["group"]["dim"] = -1
    elif kind == "order_string":
        doc["options"] = {"quad_order": "x"}
    elif kind == "divide_by_zero":
        doc["cycles"][0]["patches"][0]["coords"][0] = "t/0"
        expected = {2, 3}
    elif kind == "unknown_variable":
        doc["cycles"][0]["patches"][0]["coords"][1] = "s + q"
    elif kind == "value_length":
        doc["cocycle"]["components"][0]["value"].append(1.0)
    elif kind == "missing_cycles":
        del doc["cycles"]
    else:
        return json.dumps(doc)[:-7], expected, None, kind
    return doc, expected, None, kind


def _open_chain(rng, k):
    """Half of the torus, or a hemisphere: not a cycle, so exit 3."""
    if k % 2 == 0:
        doc, _, _ = _periods_square(rng, 1, tiling=False)
        doc["cycles"][0]["patches"][0]["coords"][1] = "0.5*s"
    else:
        doc, _, _ = _periods_sphere(rng, k)
        rows = doc["cycles"][0]["patches"][0]["matrix"]
        doc["cycles"][0]["patches"][0]["matrix"] = [
            [e.replace("pi*t", "0.5*pi*t") for e in row] for row in rows]
    return doc, {3}, None


# Every kind at every quadrature order once per block, plus one malformed
# document and one open chain (a few percent).  The two cube kinds at order
# 24, the slowest documents (about 1 s today), come twice, so they make the
# top 15 % and op_ms_p90 falls in the middle of their class rather than at
# the edge of a wider one; one more fundamental square at order 8 puts
# op_ms_p50 in the middle of the four kinds of about 150 ms.
PERIODS_BLOCK = [
    (kind, order)
    for kind in ("t2-square", "t2-tiling", "t2-cube", "su2-sphere", "heis-cube", "t2-gamma",
                 "t2-pi1")
    for order in PERIOD_ORDERS
] + [("t2-square", 8), ("t2-cube", 24), ("heis-cube", 24), ("malformed", None),
     ("open-chain", None)]


def periods_stream(seed):
    rng = np.random.default_rng(seed)
    for n, (block, (kind, order), k) in enumerate(Schedule(rng, PERIODS_BLOCK)):
        label = f"{kind} q{order}"
        if kind == "malformed":
            doc, expected, check_report, sub = _malformed_periods(rng, k)
            label = f"malformed/{sub}"
        elif kind == "open-chain":
            doc, expected, check_report = _open_chain(rng, k)
        elif kind in ("t2-square", "t2-tiling"):
            doc, expected, check_report = _periods_square(rng, k, kind == "t2-tiling")
        elif kind == "t2-cube":
            doc, expected, check_report = _periods_cube(rng, k, "torus")
        elif kind == "heis-cube":
            doc, expected, check_report = _periods_cube(rng, k, "heisenberg")
        elif kind == "su2-sphere":
            doc, expected, check_report = _periods_sphere(rng, k)
        elif kind == "t2-gamma":
            doc, expected, check_report = _periods_gamma(rng, k)
        else:
            doc, expected, check_report = _periods_pi1(rng, k)
        if isinstance(doc, dict) and order is not None:
            doc["options"] = {"quad_order": order}
        text = doc if isinstance(doc, str) else json.dumps(doc)
        yield Op(label, f"doc{n}", None, cli_check(expected, check_report), text, block)


# ---------------------------------------------------------------------------
# cohomology: algebra-side documents through lieext.cli.main


def _heisenberg(k):
    n = 2 * k + 1
    c = np.zeros((n, n, n))
    for i in range(k):
        c[i, k + i, n - 1] = 1.0
        c[k + i, i, n - 1] = -1.0
    return c


def _sl2():
    c = np.zeros((3, 3, 3))
    for i, j, k, v in ((0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)):
        c[i, j, k], c[j, i, k] = v, -v
    return c


def _direct_sum(a, b):
    n, p = a.shape[0], b.shape[0]
    c = np.zeros((n + p,) * 3)
    c[:n, :n, :n] = a
    c[n:, n:, n:] = b
    return c


def _family(name):
    """Standard-basis structure constants and the closed-form Betti numbers."""
    kind, _, size = name.partition(":")
    size = int(size or 0)
    if kind == "sl2":
        return _sl2(), oracles.betti_sl2_sum([1])
    if kind == "R":
        return np.zeros((size,) * 3), oracles.betti_abelian(size)
    if kind == "h":
        return _heisenberg(size), oracles.betti_heisenberg(size)
    if kind == "sl2+R":
        return _direct_sum(_sl2(), np.zeros((size,) * 3)), oracles.betti_sl2_sum(
            oracles.betti_abelian(size))
    if kind == "sl2+h":
        return _direct_sum(_sl2(), _heisenberg(size)), oracles.betti_sl2_sum(
            oracles.betti_heisenberg(size))
    raise ValueError(name)


def _adjoint(c):
    return np.transpose(c, (0, 2, 1))


def _dense_basis(rng, c):
    """Structure constants after a well-conditioned random change of basis."""
    n = c.shape[0]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    p = q @ np.diag(rng.uniform(1.0, 2.0, size=n))
    return np.einsum("ia,jb,ijk,kc->abc", p, p, c, np.linalg.inv(p).T)


def _algebra_section(c):
    n = c.shape[0]
    rows = [[i, j, k, float(c[i, j, k])]
            for i in range(n) for j in range(i + 1, n) for k in range(n) if c[i, j, k] != 0.0]
    return {"dim": n, "structure_constants": rows}


def _module_section(rho):
    if not np.any(rho):
        return {"coeff_dim": int(rho.shape[1])}
    return {"coeff_dim": int(rho.shape[1]), "rho": rho.tolist()}


def _alg_from_section(section):
    """Structure constants exactly as the document states them."""
    n = section["dim"]
    c = np.zeros((n, n, n))
    for i, j, k, v in section["structure_constants"]:
        c[i, j, k], c[j, i, k] = v, -v
    return c


def _cochain_section(vec, n):
    """A 2-cochain with values in R, in the package's component order."""
    return {"degree": 2, "components": [
        {"indices": list(key), "value": [float(x)]}
        for key, x in zip(itertools.combinations(range(n), 2), vec)]}


_BETTI_CACHE = {}


def _reference_betti(name, module):
    """Closed form where the literature gives one, else the invariance rule."""
    c, closed = _family(name)
    if module == "trivial":
        return closed
    if name.startswith("R:"):
        return oracles.betti_abelian(c.shape[0], c.shape[0])
    if name == "sl2":
        return oracles.betti_whitehead(3)
    if name not in _BETTI_CACHE:
        _BETTI_CACHE[name] = oracles.betti_numbers(c, _adjoint(c))
    return _BETTI_CACHE[name]


def _cohomology_table(rng, name, module):
    c = _dense_basis(rng, _family(name)[0])
    alg = _algebra_section(c)
    c = _alg_from_section(alg)
    n = c.shape[0]
    rho = _adjoint(c) if module == "adjoint" else np.zeros((n, 1, 1))
    want = _reference_betti(name, module)
    m = rho.shape[1]
    doc = {"task": "cohomology", "algebra": alg, "module": _module_section(rho),
           "options": {"degrees": list(range(n + 1))}}

    def check_report(report, result):
        slices = report["results"]["slices"]
        got = [s["betti"] for s in slices]
        dims = [s["cochain_dim"] for s in slices]
        want_dims = [m * comb(n, p) for p in range(n + 1)]
        if dims != want_dims:
            result.fail("cochain_dims", f"expected {want_dims}, got {dims}", wrong=True)
        if got != want:
            result.fail("betti", f"expected {want}, got {got}", wrong=True)
    return doc, {0}, check_report


def _cohomology_extend(rng, name, cocycle):
    c = _alg_from_section(_algebra_section(_dense_basis(rng, _family(name)[0])))
    n = c.shape[0]
    rho = np.zeros((n, 1, 1))
    d2 = oracles.d_matrix(c, rho, 2)
    z = oracles.null_space(d2)
    omega = z @ rng.uniform(-1.0, 1.0, size=z.shape[1])
    expected = {0}
    if not cocycle:
        # the direction d_2 stretches most: far from every cocycle
        omega = omega + np.linalg.svd(d2)[2][0]
        expected = {3}
    doc = {"task": "extend", "algebra": _algebra_section(c), "module": {"coeff_dim": 1},
           "cocycle": _cochain_section(omega, n)}

    def check_report(report, result):
        ext = report["results"]["extension"]
        total = _alg_from_section(ext["algebra"])
        want = np.zeros((n + 1,) * 3)
        want[:n, :n, :n] = c
        for p, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            want[i, j, n], want[j, i, n] = omega[p], -omega[p]
        if total.shape != want.shape:
            result.fail("extension", f"total dim {total.shape[0]}, expected {n + 1}", wrong=True)
            return
        result.numeric("extension", total, want, 1e-12)
        result.numeric("jacobi_residual", report["results"]["jacobi_residual"], 0.0, 1e-9)
    return doc, expected, check_report


def _cohomology_equivalence(rng, name, equivalent):
    c = _alg_from_section(_algebra_section(_dense_basis(rng, _family(name)[0])))
    n = c.shape[0]
    rho = np.zeros((n, 1, 1))
    z = oracles.null_space(oracles.d_matrix(c, rho, 2))
    d1 = oracles.d_matrix(c, rho, 1)
    omega1 = z @ rng.uniform(-1.0, 1.0, size=z.shape[1])
    if equivalent:
        omega2 = omega1 + d1 @ rng.uniform(-1.0, 1.0, size=d1.shape[1])
        distance = 0.0
    else:
        classes = oracles.orth_complement_in(z, d1)
        shift = classes @ rng.uniform(0.5, 1.0, size=classes.shape[1])
        omega2 = omega1 + shift
        distance = float(np.linalg.norm(shift))
    doc = {"task": "equivalence", "algebra": _algebra_section(c), "module": {"coeff_dim": 1},
           "cocycle": _cochain_section(omega1, n),
           "cocycle2": _cochain_section(omega2, n)}

    def check_report(report, result):
        res = report["results"]
        if res["equivalent"] is not equivalent:
            result.fail("equivalent", f"expected {equivalent}, got {res['equivalent']}", wrong=True)
            return
        result.numeric("residual", res["residual"], distance, 1e-8)
        if equivalent and d1.shape[1]:
            witness = np.array([comp["value"][0] for comp in res["witness"]])
            result.numeric("witness", d1 @ witness, omega1 - omega2, 1e-8)
    return doc, {0}, check_report


def _malformed_cohomology(rng, k):
    doc, _, _ = _cohomology_table(rng, "h:1", "trivial")
    kind = ["degree_string", "degree_range", "row_order", "order_string",
            "rho_shape", "dim_string", "bad_json"][k % 7]
    if kind == "degree_string":
        doc["options"]["degrees"] = ["x"]
    elif kind == "degree_range":
        doc["options"]["degrees"] = [4]
    elif kind == "row_order":
        doc["algebra"]["structure_constants"].append([2, 1, 0, 1.0])
    elif kind == "order_string":
        doc["options"]["quad_order"] = "x"
    elif kind == "rho_shape":
        doc["module"] = {"coeff_dim": 2, "rho": [[[1.0]]]}
    elif kind == "dim_string":
        doc["algebra"]["dim"] = "x"
    else:
        return json.dumps(doc)[:-9], kind
    return doc, kind


# Block layout, cheapest first.  Forty small documents (two copies of each):
# extend and equivalence documents that assemble at most one d_n, small
# tables and two malformed documents; ten equivalence documents of about
# the same cost sit in the middle, so op_ms_p50 falls inside one class.
# Five mid-size tables of about the same cost (0.3 s today) hold op_ms_p90
# in their middle, on enough samples to be steady.  R^8 and h_7, the
# largest algebras, take seconds today and make the top 4 %.
_SMALL = (
    "table R:4 adjoint", "table h:2 trivial", "table sl2+R:2 trivial",
    "table R:5 trivial", "table h:1 adjoint", "table sl2 adjoint",
    "table sl2 trivial", "table h:1 trivial",
    "extend R:4", "extend h:2", "extend sl2+R:2", "extend-non-cocycle h:2",
    "equivalent h:2", "equivalent sl2+R:2", "equivalent sl2+h:1",
    "inequivalent h:1", "inequivalent h:2", "inequivalent h:2", "inequivalent sl2+R:2",
    "malformed",
)
COHOMOLOGY_BLOCK = [(kind,) for kind in _SMALL + _SMALL + (
    "table sl2+R:2 adjoint", "table sl2+R:2 adjoint", "table h:2 adjoint", "table h:2 adjoint",
    "table sl2+h:1 trivial",
    "table R:8 trivial", "table h:3 trivial",
)]


def cohomology_stream(seed):
    rng = np.random.default_rng(seed)
    for n, (block, (kind,), k) in enumerate(Schedule(rng, COHOMOLOGY_BLOCK)):
        task, _, rest = kind.partition(" ")
        name, _, module = rest.partition(" ")
        check_report = None
        if task == "table":
            doc, expected, check_report = _cohomology_table(rng, name, module)
        elif task.startswith("extend"):
            doc, expected, check_report = _cohomology_extend(rng, name, task == "extend")
        elif task in ("equivalent", "inequivalent"):
            doc, expected, check_report = _cohomology_equivalence(rng, name, task == "equivalent")
        else:
            doc, sub = _malformed_cohomology(rng, k)
            expected, kind = {2}, f"malformed/{sub}"
        if expected == {3}:
            check_report = None
        text = doc if isinstance(doc, str) else json.dumps(doc)
        yield Op(kind, f"doc{n}", None, cli_check(expected, check_report), text, block)


# ---------------------------------------------------------------------------
# path-identities: library calls on smooth torus path families


def _torus_path(group, rng, winding, amp=0.12, harmonics=2):
    """Based smooth torus path with integer winding and bounded wiggle,
    made the way the acceptance suite makes them."""
    w = np.asarray(winding, dtype=float)
    a = rng.normal(0.0, 0.06, size=(2, harmonics))
    b = rng.normal(0.0, 0.06, size=(2, harmonics))
    for row in range(2):
        total = np.sum(np.abs(a[row])) + 2.0 * np.sum(np.abs(b[row]))
        if total > amp:
            a[row] *= amp / total
            b[row] *= amp / total
    ks = np.arange(1, harmonics + 1)

    def coords(t):
        return w * t + a @ np.sin(2.0 * np.pi * ks * t) + b @ (np.cos(2.0 * np.pi * ks * t) - 1.0)

    return lieext.coordinate_path(group, coords)


def _lattice_distance(vec):
    vec = np.asarray(vec, dtype=float)
    return float(np.max(np.abs(vec - np.round(vec))))


def _family_ops(form, paths, family):
    """The four operations of one path family: both identities at order 8,
    then at order 16."""
    g1, g1p, g2, g2p, g3 = paths
    calls = {
        "coboundary": lambda order: [lieext.path_cocycle_coboundary(form, g1, g2, g3, order)],
        "representatives": lambda order: lieext.representative_independence_residuals(
            form, g1, g1p, g2, g2p, order),
    }
    coarse = {}

    def check(values, name, order):
        result = Check()
        for pos, v in enumerate(values):
            v = np.asarray(v, dtype=float)
            dist = _lattice_distance(v)
            result.max_abs_err = max(result.max_abs_err, dist)
            if order == 8:
                coarse[name, pos] = v
                tol = 1e-2
            else:
                tol = 1e-6 + float(np.max(np.abs(v - coarse[name, pos])))
            if not dist <= tol:
                result.fail("lattice_rule", f"{name}[{pos}] = {v.tolist()} is {dist:.2e} "
                            f"from Z (tolerance {tol:.1e})", wrong=True)
        return result

    for order in (8, 16):
        for name, call in calls.items():
            yield Op(f"{name} q{order}", f"family{family}/q{order}",
                     functools.partial(call, order),
                     functools.partial(check, name=name, order=order), round=family)


def path_identities_stream(seed):
    """Families of five paths, made as the acceptance suite makes them.

    The order-16 results are checked with the acceptance suite's lattice
    rule: within 1e-6 of Z, widened by their distance from the order-8
    results of the same family.  Order-8 results only have to land within
    1e-2 of Z, a sanity bound about 20x the largest order-8 error seen.
    """
    rng = np.random.default_rng(seed)
    torus = lieext.torus_group(2)
    form = lieext.EquivariantForm(lieext.cochain_from_pairs(2, 1, {(0, 1): 1.0}), torus)
    for family in itertools.count():
        paths = [_torus_path(torus, rng, w) for w in ([1, 0], [1, 0], [0, 1], [0, 1])]
        paths.append(_torus_path(torus, rng, rng.integers(-2, 3, size=2)))
        yield from _family_ops(form, paths, family)


# Wall seconds one block of each stream takes, checks and machine-speed
# readings included, measured on a 2-core Intel Xeon host; a run of
# --seconds S holds about S / BLOCK_SECONDS blocks.
BLOCK_SECONDS = {"periods": 7.0, "cohomology": 5.0, "path-identities": 2.8}

WORKLOADS = {
    "periods": periods_stream,
    "cohomology": cohomology_stream,
    "path-identities": path_identities_stream,
}
