"""Soundness census: how often `check-integrability`, `pi1`, `cohomology`,
`validate`, `extend` and `equivalence` answer confidently wrong on documents
whose answer is known.

    PYTHONPATH=src python tests/census.py [--seed 20261020] [--count 400]

Each document runs through `lieext.cli.main` in this process.  An answer is
right when it exits 0 with the known verdict (or Betti numbers), confidently
wrong when it exits 0 with another one, and honest when it exits 4; any
other exit is counted apart.  `extend` answers "accepts" by exit 0 and
"refuses" by exit 3 (not a cocycle), and `cohomology` answers "refuses" by
exit 3 (not a cochain complex), so those refusals are answers too, as is
exit 3 on a family whose known answer is a refusal (open-gap).  The
counts are printed per family and quadrature order ('-' for a family
without one).

Families:
* `t2-step`: one square on T^2 whose first coordinate climbs a logistic
  step, `["t + h/(1 + exp(-(t - c)/w))", "s"]`, with h in {-1, 1, 2}, w =
  10^U(-3, log10 0.012), c in U(0.3, 0.7), cocycle 0.5 or 0.25 on (0, 1),
  order 8, 16, 24 or 32 and lattice Z.  The oracle is the cycle's degree,
  the determinant of its edge translations (1 + h here), computed from the
  patch's coordinates at the edges: the period is the cocycle times it.
* `h2-incomplete`: the two documents whose cycles do not span H_2(T^k), on
  which the answer must be the one over every coordinate 2-torus: T^2
  whose only cycle is the fundamental square with coefficient 2, and T^3
  with cocycle values 1 on (0, 1) and 0.5 on (1, 2) whose only cycle is
  the (0, 1) torus.  Both are not integrable.
* `heis-narrow`: the six faces of a block (u, v, r) in [0,1]^3 ->
  Heisenberg(3) whose x coordinate climbs the same kind of logistic step,
  in p = u + 0.2 v r: `p + h/(1 + exp(-(p - c)/w))` with h, w and c drawn
  as above, y = v + a u r and z = r + b u v (a, b in U(-0.5, 0.5)),
  cocycle values in {0.25, 0.5, 1} on (0, 1), (0, 2) and (1, 2), order 8,
  16, 24 or 32 and lattice Z.  A block's boundary bounds, so the period is
  0 and the answer integrable.  They are drawn after the t2-step
  documents, from the same generator, so those draws are the ones made
  without this family.
* `su2-narrow`: the great 2-sphere of SU(2) spelled as a `matrix` patch, as
  in the fixture `su2_sphere_period.json`, with `pi*t` replaced by
  `pi*(θ(t))`, θ(t) the same kind of logistic step `t + h/(1 + exp(-(t -
  c)/w))`, h, w, c and the order drawn as for t2-step, cocycle values in
  {0.25, 0.5, 1} on (0, 1), (0, 2) and (1, 2), and lattice Z.  H_2(SU(2))
  = 0, so the period is 0 and the answer integrable.  They are drawn after
  the heis-narrow documents.
* `sl2h-scaled`: `cohomology` over degrees 0-6 of sl2 + heis3 with the
  trivial module, with one summand's structure constants (sl2 or heis3,
  drawn) multiplied by 10^e, e an integer in [-16, 16].  That is the change
  of basis e_i -> 10^e e_i on the summand, so the Betti numbers are the
  Kunneth product of sl2's 1, 0, 0, 1 (Whitehead) and heis3's 1, 2, 2, 1:
  1, 2, 2, 2, 2, 2, 1.  They are drawn after the su2-narrow documents.
* `t2-tiling`: the t2-step square cut into a 2 x 2 tiling, h, w, c, the
  cocycle and the order drawn as for t2-step.  Tile (a, b) maps (t, s) to
  the step of u = 0.5 t + a and to 0.5 s + b, so every tile reads the same
  global step and shared edges cancel.  The oracle is the cycle's degree
  from its edges' end-points: edges that are one edge of the torus pair
  up, and a pair whose lifts differ by the integer vector N adds -e N_0
  times the change of the second coordinate along the edge (e the edge's
  signed weight).  They are drawn after the sl2h-scaled documents.
* `lattice-basis`: the fundamental square of T^2 with values in R^2,
  order 16, against the lattice spanned by the rows of U B: B a drawn
  basis of condition number at most 10, U unimodular with one off-diagonal
  entry +-10^e, e an integer in [0, 8].  The cocycle value is B^T n, n
  integers in [-3, 3], or that plus half a row of B, and the oracle is
  whether its coefficients n in B are integers.  U B spans the lattice B
  does, so the answer does not depend on e.  They are drawn after the
  t2-tiling documents.
* `cocycle-scale`: a cocycle times 10^e, e an integer in [-30, 30], which
  changes no class: `equivalence` on heis3 of e^0 ^ e^2 (a class that is
  not 0: not equivalent) or of e^0 ^ e^1 (= d(-e^2): equivalent) against 0,
  or `extend` on heis5 ([e0, e2] = [e1, e3] = e4) of e^2 ^ e^4 (not a
  cocycle: refused) or of e^0 ^ e^1 (a cocycle: accepted), the case drawn.
  They are drawn after the lattice-basis documents.
* `algebra-scale`: `validate` and `cohomology` over degrees 0-dim of one
  document, whose structure constants are sl2 + heis3's or those of the
  bracket [e0, e1] = e1, [e1, e2] = e0, which breaks Jacobi, the algebra
  drawn, all times 10^e, e an integer in [-30, 30].  The answer is valid
  with the Kunneth Betti numbers of sl2h-scaled, or not valid with the
  cohomology refused.  They are drawn after the cocycle-scale documents.
* `open-gap`: chains and loops that miss closing by g turns, g =
  10^U(-8, -4), the cocycle and the order drawn as for t2-step: every
  other document is the 2 x 2 tiling of the fundamental square of T^2
  with one tile, drawn, shifted by g in its first coordinate
  (`check-integrability`), the others the `pi1` loop `[(1 - g) t, 0]`.
  Neither is closed, so the answer is a refusal, exit 3, and an exit 0 is
  confidently wrong.  They are drawn after the algebra-scale documents.
This script is not collected by pytest.
"""

import argparse
import contextlib
import io
import json
import tempfile
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np

from lieext.cli import main

ORDERS = (8, 16, 24, 32)
STEP = "{u} + {h}/(1 + exp(-({u} - {c!r})/{w!r}))"
SL2_HEIS3 = ((0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0), (3, 4, 5, 1.0))  # [i, j, k, c_ij^k]
NOT_LIE = ((0, 1, 1, 1.0), (1, 2, 0, 1.0))
HEIS3 = {"dim": 3, "structure_constants": [[0, 1, 2, 1.0]]}
HEIS5 = {"dim": 5, "structure_constants": [[0, 2, 4, 1.0], [1, 3, 4, 1.0]]}
KUNNETH = [int(b) for b in np.convolve((1, 0, 0, 1), (1, 2, 2, 1))]  # sl2's Betti numbers times heis3's


def torus_document(k, cocycle, patches, order):
    return {
        "task": "check-integrability",
        "group": {"kind": "torus", "dim": k},
        "cocycle": {"degree": 2, "components": [{"indices": list(ij), "value": [v]} for ij, v in cocycle]},
        "lattice": {"generators": [[1.0]]},
        "cycles": [{"name": "cycle", "patches": patches}],
        "options": {"quad_order": order},
    }


def step_degree(h, c, w):
    """The degree of the step square: the determinant of its edge
    translations, each rounded to the integer it closes up to on the torus.
    x takes no s and y = s no t, so it is x(1) - x(0) times y(1) - y(0) = 1."""
    x = lambda t: t + h / (1.0 + np.exp(-(t - c) / w))
    return round(x(1.0) - x(0.0))


def step_draw(rng):
    """h, w, c, the cocycle value and the order of a step document."""
    h = int(rng.choice([-1, 1, 2]))
    w = float(10.0 ** rng.uniform(-3.0, np.log10(0.012)))
    c = float(rng.uniform(0.3, 0.7))
    return h, w, c, float(rng.choice([0.5, 0.25])), int(rng.choice(ORDERS))


def answer_for(period):
    return "integrable" if period == round(period) else "not_integrable"


def step_family(rng, count):
    for _ in range(count):
        h, w, c, value, order = step_draw(rng)
        patch = {"domain": "square", "coords": [STEP.format(u="t", h=h, c=c, w=w), "s"]}
        answer = answer_for(value * step_degree(h, c, w))
        yield order, torus_document(2, [((0, 1), value)], [patch], order), answer


def paired_degree(edges):
    """The degree of a closed chain on T^2 from its edges, (start, end,
    weight) with start and end the lifted coordinates of the edge's ends.
    Two edges whose ends differ by one integer vector N, traversed the same
    way with opposite weights or the other way with equal ones, are one
    edge of the torus, and the pair adds -weight * N_0 * (end - start)_1."""
    unpaired, degree = [(np.asarray(a), np.asarray(b), e) for a, b, e in edges], 0.0
    while unpaired:
        a, b, e = unpaired.pop()
        for k, (a2, b2, e2) in enumerate(unpaired):
            if e2 == e:  # the other way round
                a2, b2 = b2, a2
            n = np.round(a2 - a)
            if abs(e2) == abs(e) and np.allclose([a2 - a, b2 - b], n, rtol=0, atol=1e-9):
                degree -= e * n[0] * (b - a)[1]
                del unpaired[k]
                break
        else:
            raise ValueError(f"the edge {a} -> {b} has no partner: the chain is not closed")
    return round(degree)


def tiling_family(rng, count):
    for _ in range(count):
        h, w, c, value, order = step_draw(rng)
        patches, edges = [], []
        for a, b in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)):
            u = f"0.5*t + {a!r}"
            patches.append({"domain": "square", "coords": [STEP.format(u=u, h=h, c=c, w=w), f"0.5*s + {b!r}"]})
            corners = [(p + h / (1.0 + np.exp(-(p - c) / w)), b + 0.5 * s)  # the step at p = u(t)
                       for p, s in ((a, 0), (a + 0.5, 0), (a + 0.5, 1), (a, 1))]
            edges += [(p, q, 1) for p, q in zip(corners, corners[1:] + corners[:1])]
        answer = answer_for(value * paired_degree(edges))
        yield order, torus_document(2, [((0, 1), value)], patches, order), answer


def lattice_basis_family(rng, count):
    square = {"domain": "square", "coords": ["t", "s"]}
    for _ in range(count):
        basis = rng.normal(size=(2, 2))
        while np.linalg.cond(basis) > 10.0:
            basis = rng.normal(size=(2, 2))
        unimodular = np.eye(2)
        unimodular[tuple(rng.permutation(2))] = rng.choice([-1.0, 1.0]) * 10.0 ** int(rng.integers(0, 9))
        n = rng.integers(-3, 4, size=2) + (0.5 * np.eye(2)[rng.integers(2)] if rng.integers(2) else 0.0)
        doc = torus_document(2, [((0, 1), 0.0)], [square], 16)
        doc["cocycle"]["components"][0]["value"] = (basis.T @ n).tolist()  # coefficients n in B
        doc["lattice"]["generators"] = (unimodular @ basis).tolist()
        doc["module"] = {"coeff_dim": 2}
        yield 16, doc, "integrable" if np.all(n == np.round(n)) else "not_integrable"


def incomplete_family():
    """Each 2-torus of T^k has the cocycle's value as its period, so the
    extension needs every value in Z: 0.5 is not."""
    square = {"domain": "square", "coords": ["t", "s"], "coefficient": 2}
    yield 16, torus_document(2, [((0, 1), 0.5)], [square], 16), "not_integrable"
    torus01 = {"domain": "square", "coords": ["t", "s", "0"]}
    yield 16, torus_document(3, [((0, 1), 1.0), ((1, 2), 0.5)], [torus01], 16), "not_integrable"


def heis_narrow_family(rng, count):
    for _ in range(count):
        h = int(rng.choice([-1, 1, 2]))
        w = float(10.0 ** rng.uniform(-3.0, np.log10(0.012)))
        c = float(rng.uniform(0.3, 0.7))
        a, b = (float(v) for v in rng.uniform(-0.5, 0.5, size=2))
        values = [float(v) for v in rng.choice([0.25, 0.5, 1.0], size=3)]
        order = int(rng.choice(ORDERS))

        def block(u, v, r):
            return [STEP.format(u=f"({u}) + 0.2*({v})*({r})", h=h, c=c, w=w),
                    f"({v}) + {a!r}*({u})*({r})", f"({r}) + {b!r}*({u})*({v})"]

        patches = []
        for axis in range(3):  # the faces as cube_boundary_chain orients them
            sign = -1 if axis % 2 == 0 else 1
            for value, coefficient in (("0", sign), ("1", -sign)):
                args = ["t", "s"]
                args.insert(axis, value)
                patches.append({"domain": "square", "coefficient": coefficient, "coords": block(*args)})
        yield order, {
            "task": "check-integrability",
            "group": {"kind": "heisenberg"},
            "cocycle": {"degree": 2, "components": [{"indices": list(ij), "value": [v]}
                                                    for ij, v in zip(((0, 1), (0, 2), (1, 2)), values)]},
            "lattice": {"generators": [[1.0]]},
            "cycles": [{"name": "block-boundary", "patches": patches}],
            "options": {"quad_order": order},
        }, "integrable"


def su2_narrow_family(rng, count):
    sphere = json.loads((resources.files("lieext") / "fixtures" / "su2_sphere_period.json").read_text())
    matrix = sphere["cycles"][0]["patches"][0]["matrix"]
    for _ in range(count):
        h = int(rng.choice([-1, 1, 2]))
        w = float(10.0 ** rng.uniform(-3.0, np.log10(0.012)))
        c = float(rng.uniform(0.3, 0.7))
        values = [float(v) for v in rng.choice([0.25, 0.5, 1.0], size=3)]
        order = int(rng.choice(ORDERS))
        theta = f"pi*({STEP.format(u='t', h=h, c=c, w=w)})"
        yield order, {
            "task": "check-integrability",
            "group": {"kind": "su2"},
            "cocycle": {"degree": 2, "components": [{"indices": list(ij), "value": [v]}
                                                    for ij, v in zip(((0, 1), (0, 2), (1, 2)), values)]},
            "lattice": {"generators": [[1.0]]},
            "cycles": [{"name": "great-sphere", "patches": [
                {"domain": "square", "matrix": [[e.replace("pi*t", theta) for e in row] for row in matrix]}]}],
            "options": {"quad_order": order},
        }, "integrable"


def sl2h_scaled_family(rng, count):
    for _ in range(count):
        heis = bool(rng.integers(2))  # the summand scaled: heis3, else sl2
        scale = 10.0 ** int(rng.integers(-16, 17))
        rows = [[i, j, k, v * scale if (i >= 3) == heis else v] for i, j, k, v in SL2_HEIS3]
        yield None, {
            "task": "cohomology",
            "algebra": {"dim": 6, "structure_constants": rows},
            "module": {"coeff_dim": 1},
            "options": {"degrees": list(range(7))},
        }, KUNNETH


def cocycle_scale_family(rng, count):
    cases = ((HEIS3, (0, 2), "equivalence", False), (HEIS3, (0, 1), "equivalence", True),
             (HEIS5, (2, 4), "extend", "refuses"), (HEIS5, (0, 1), "extend", "accepts"))
    for _ in range(count):
        algebra, indices, task, answer = cases[rng.integers(len(cases))]
        value = 10.0 ** int(rng.integers(-30, 31))
        doc = {"task": task, "algebra": algebra,
               "cocycle": {"components": [{"indices": list(indices), "value": value}]}}
        if task == "equivalence":
            doc["cocycle2"] = {"components": []}
        yield None, doc, answer


def algebra_scale_family(rng, count):
    for _ in range(count):
        lie = bool(rng.integers(2))
        scale = 10.0 ** int(rng.integers(-30, 31))
        rows = [[i, j, k, v * scale] for i, j, k, v in (SL2_HEIS3 if lie else NOT_LIE)]
        dim = 6 if lie else 3
        yield None, {
            "task": ["validate", "cohomology"],
            "algebra": {"dim": dim, "structure_constants": rows},
            "options": {"degrees": list(range(dim + 1))},
        }, [True, KUNNETH] if lie else [False, "refuses"]


def open_gap_family(rng, count):
    for n in range(count):
        gap = float(10.0 ** rng.uniform(-8.0, -4.0))
        value, order = float(rng.choice([0.5, 0.25])), int(rng.choice(ORDERS))
        doc = torus_document(2, [((0, 1), value)], [], order)
        if n % 2 == 0:
            shifted = int(rng.integers(4))
            doc["cycles"][0]["patches"] = [
                {"domain": "square", "coords": [f"0.5*t + {a + (gap if k == shifted else 0.0)!r}", f"0.5*s + {b!r}"]}
                for k, (a, b) in enumerate(((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)))]
        else:
            del doc["cycles"]
            doc.update(task="pi1", loops=[{"name": "loop", "coords": [f"{1.0 - gap!r}*t", "0"]}])
        yield order, doc, "refuses"


def run(path, doc):
    """(exit code, answer) of doc through the CLI, the answer None when the
    exit answers nothing.  A doc whose task is a list runs once per task: its
    code is the largest, its answer the list of answers, None if one is None."""
    if isinstance(doc["task"], list):
        runs = [run(path, {**doc, "task": task}) for task in doc["task"]]
        answers = [got for _, got in runs]
        return max(code for code, _ in runs), None if None in answers else answers
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(path), "--output", "machine"])
    if code == 3 and doc["task"] in ("extend", "cohomology"):
        return code, "refuses"
    if code not in (0, 4):
        return code, None
    results = json.loads(out.getvalue())["results"]
    if doc["task"] == "extend":
        return code, "accepts"
    for key in ("overall", "valid", "equivalent", "commutator_in_lattice"):
        if key in results:
            return code, results[key]
    return code, [row["betti"] for row in results["slices"]]


def census(seed, count):
    """Counter of (family, order, outcome), outcome one of right, wrong,
    exit 4 and other."""
    rng = np.random.default_rng(seed)
    counts = Counter()
    families = (("t2-step", step_family(rng, count)), ("h2-incomplete", incomplete_family()),
                ("heis-narrow", heis_narrow_family(rng, count)), ("su2-narrow", su2_narrow_family(rng, count)),
                ("sl2h-scaled", sl2h_scaled_family(rng, count)), ("t2-tiling", tiling_family(rng, count)),
                ("lattice-basis", lattice_basis_family(rng, count)),
                ("cocycle-scale", cocycle_scale_family(rng, count)), ("algebra-scale", algebra_scale_family(rng, count)),
                ("open-gap", open_gap_family(rng, count)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for family, docs in families:
            for order, doc, answer in docs:
                code, got = run(path, doc)
                if code == 3 and answer == "refuses":  # an open chain or loop: the refusal is the answer
                    got = "refuses"
                if code == 4 or got is None:
                    outcome = "exit 4" if code == 4 else "other"
                else:
                    outcome = "right" if got == answer else "wrong"
                counts[family, order, outcome] += 1
    return counts


def report(counts) -> str:
    outcomes = ("right", "wrong", "exit 4", "other")
    counts = Counter({(f, "-" if q is None else q, o): n for (f, q, o), n in counts.items()})
    rows = sorted({(family, order) for family, order, _ in counts})
    lines = [f"{'family':<14} {'order':>5} " + " ".join(f"{o:>7}" for o in outcomes)]
    for family, order in rows + [("total", "")]:
        pick = lambda o: sum(n for (f, q, out), n in counts.items()
                             if out == o and (family == "total" or (f, q) == (family, order)))
        lines.append(f"{family:<14} {order!s:>5} " + " ".join(f"{pick(o):>7}" for o in outcomes))
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=20261020)
    parser.add_argument("--count", type=int, default=400,
                        help="t2-step, heis-narrow, su2-narrow, sl2h-scaled, t2-tiling, lattice-basis, "
                             "cocycle-scale, algebra-scale and open-gap documents each")
    args = parser.parse_args()
    print(report(census(args.seed, args.count)))
