"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

import lieext as lx

from conftest import (
    area_cochain, direct_sum, quaternion_element, random_cochain, random_torus_path,
)
from test_cohomology import oracle_betti


def report(number, detail):
    print(f"ACCEPTANCE {number} PASS: {detail}")


def test_criterion_1_cohomology_dimensions():
    cases = [
        (lx.abelian_algebra(2), 1),
        (lx.sl2_algebra(), 0),
        (lx.heisenberg3_algebra(), 2),
    ]
    timings = []
    for alg, expected in cases:
        mod = lx.trivial_module(alg.dim, 1)
        start = time.perf_counter()
        got = lx.betti(alg, mod, 2)
        oracle = oracle_betti(alg, mod, 2)
        timings.append(time.perf_counter() - start)
        assert got == oracle == expected
        assert timings[-1] < 1.0
    report(
        1,
        "betti(R^2)=1, betti(sl2)=0, betti(heis3)=2 match the brute-force "
        f"oracle exactly (max {max(timings):.3f}s per case)",
    )


def test_criterion_2_nilpotency_suites():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    algebras = [
        (lx.abelian_algebra(2), lx.trivial_module(2, 1)),
        (lx.heisenberg3_algebra(), lx.adjoint_module(lx.heisenberg3_algebra())),
        (lx.sl2_algebra(), lx.adjoint_module(lx.sl2_algebra())),
        (
            direct_sum(lx.sl2_algebra(), lx.heisenberg3_algebra()),
            lx.trivial_module(6, 2),
        ),
    ]
    worst_d = 0.0
    for alg, mod in algebras:
        for degree in range(alg.dim + 1):
            for _ in range(100):
                om = random_cochain(degree, alg.dim, mod.coeff_dim, rng)
                dd = lx.apply_d(alg, mod, lx.apply_d(alg, mod, om))
                worst_d = max(worst_d, dd.max_norm())
    assert worst_d < 1e-8

    heis = lx.heisenberg_group()
    trans = lx.translation_group(2)
    worst_delta = 0.0
    count = 0
    while count < 100:
        # random polynomial cochains vanishing when either argument is 1
        a, b, c = rng.normal(size=3)
        f_h = lx.GroupCochain(
            degree=2,
            eval=lambda g, h, a=a, b=b, c=c: np.array(
                [a * g[0, 1] * h[1, 2] + b * g[0, 2] * h[0, 1] + c * g[1, 2] * h[0, 2]]
            ),
        )
        f_t = lx.GroupCochain(
            degree=2,
            eval=lambda g, h, a=a, b=b: np.array(
                [a * g[0, 2] * h[1, 2] + b * g[0, 2] * g[1, 2] * h[0, 2]]
            ),
        )
        for group, f in ((heis, f_h), (trans, f_t)):
            df = lx.delta_cochain(None, f)
            els = [group.exp(group.realize(rng.normal(size=group.algebra.dim))) for _ in range(4)]
            worst_delta = max(worst_delta, float(np.max(np.abs(lx.apply_delta(None, df, els)))))
            count += 1
    assert worst_delta < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        2,
        f"d^2=0 residual {worst_d:.2e} over 100 cochains/degree up to dim 6; "
        f"delta^2=0 residual {worst_delta:.2e} over {count} tuples ({elapsed:.1f}s)",
    )


def test_criterion_3_jacobi_iff_cocycle():
    rng = np.random.default_rng(3)
    slopes = []
    for alg in (lx.heisenberg3_algebra(), lx.sl2_algebra()):
        mod = lx.adjoint_module(alg)
        both = {True: 0, False: 0}
        for trial in range(50):
            if trial % 2:
                omega = random_cochain(2, alg.dim, mod.coeff_dim, rng)
            else:
                omega = lx.apply_d(
                    alg, mod, random_cochain(1, alg.dim, mod.coeff_dim, rng)
                )
            ext = lx.build_algebra_extension(alg, mod, omega, force=True)
            jacobi_ok = lx.validate_algebra(ext, 1e-9) == []
            cocycle_ok = lx.is_cocycle(alg, mod, omega, 1e-9)
            assert jacobi_ok == cocycle_ok
            both[cocycle_ok] += 1
        assert both[True] and both[False]  # both verdict classes exercised

        # perturb a cocycle along a direction with d(direction) != 0
        direction = None
        while direction is None or lx.apply_d(alg, mod, direction).max_norm() < 0.1:
            direction = random_cochain(2, alg.dim, mod.coeff_dim, rng)
        eps = np.logspace(-1, -5, 5)
        residuals = []
        for e in eps:
            ext = lx.build_algebra_extension(
                alg, mod, float(e) * direction, force=True
            )
            residuals.append(
                max(i["residual"] for i in lx.validate_algebra(ext, 1e-30))
            )
        slope = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
        assert abs(slope - 1.0) < 0.1
        slopes.append(slope)
    report(
        3,
        "Jacobi and cocycle verdicts agree on 50 cochains for heis3 and sl2 "
        f"(adjoint coefficients); perturbation slopes {slopes[0]:.4f}, "
        f"{slopes[1]:.4f}",
    )


def test_criterion_4_torus_quantization():
    start = time.perf_counter()
    torus = lx.torus_group(2)
    patch = lx.SurfacePatch(
        eval=lambda t, s: torus.chart.from_coords([t, s]), domain="square"
    )
    cycles = [("fundamental", lx.Surface2Chain(patches=(patch,)))]
    cases = [
        (1.0, [[1.0]], "integrable"),
        (0.5, [[1.0]], "not_integrable"),
        (0.5, [[0.5]], "integrable"),
    ]
    for c, gens, expected in cases:
        form = lx.EquivariantForm(area_cochain(c), torus)
        rep = lx.check_integrability(form, cycles, lx.Lattice(generators=gens), 16)
        assert rep["overall"] == expected
        assert abs(rep["generators"][0]["period"][0] - c) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        4,
        "torus levels quantize: c=1 vs Z integrable, c=0.5 vs Z not, "
        f"c=0.5 vs 0.5Z integrable; periods within 1e-8 ({elapsed:.1f}s)",
    )


def test_criterion_5_cocycle_recovery():
    start = time.perf_counter()
    groups = [lx.translation_group(2), lx.torus_group(2)]
    e = np.eye(2)
    worst = 0.0
    for group in groups:
        for c in (1.0, 0.5, 2.0):
            form = lx.EquivariantForm(area_cochain(c), group)
            res = lx.cocycle_recovery_residual(form, e[0], e[1], 1e-3, 16)
            worst = max(worst, res)
            assert res < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        5,
        "differentiating the path cocycle recovers omega on R^2 and T^2 for "
        f"c in {{1, 0.5, 2}}; worst residual {worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_6_cocycle_identity_and_well_definedness():
    rng = np.random.default_rng(6)
    torus = lx.torus_group(2)
    lattice = lx.Lattice(generators=[[1.0]])
    form = lx.EquivariantForm(area_cochain(1.0), torus)
    families = 10
    for family in range(families):
        g1, _ = random_torus_path(torus, rng, winding=[1, 0])
        g1p, _ = random_torus_path(torus, rng, winding=[1, 0])
        g2, _ = random_torus_path(torus, rng, winding=[0, 1])
        g2p, _ = random_torus_path(torus, rng, winding=[0, 1])
        g3, _ = random_torus_path(torus, rng)

        v16 = lx.path_cocycle_coboundary(form, g1, g2, g3, 16)
        v8 = lx.path_cocycle_coboundary(form, g1, g2, g3, 8)
        tol = 1e-6 + float(np.max(np.abs(v16 - v8)))
        res = lx.lattice_member(lattice, v16, tol)
        assert res["verdict"] == "member", f"family {family}: delta-gamma {v16}"

        idents16 = lx.representative_independence_residuals(form, g1, g1p, g2, g2p, 16)
        idents8 = lx.representative_independence_residuals(form, g1, g1p, g2, g2p, 8)
        for k, (a16, a8) in enumerate(zip(idents16, idents8)):
            tol = 1e-6 + float(np.max(np.abs(a16 - a8)))
            res = lx.lattice_member(lattice, a16, tol)
            assert res["verdict"] == "member", f"family {family} identity {k}: {a16}"
    report(
        6,
        f"four-term coboundary and all three representative-independence "
        f"identities land in the lattice for {families} random path families",
    )


def test_criterion_7_derivation_oracle():
    rng = np.random.default_rng(7)
    trans = lx.translation_group(2)
    chart = trans.chart
    f = lx.GroupCochain(
        degree=2,
        eval=lambda g, h: np.array([chart.to_coords(g)[0] * chart.to_coords(h)[1]]),
    )
    worst = 0.0
    for _ in range(20):
        x, y = rng.normal(size=(2, 2))
        got = lx.differentiate_group_cocycle(trans, f, x, y)[0]
        want = x[0] * y[1] - y[0] * x[1]
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-6
    f_sym = lx.GroupCochain(
        degree=2,
        eval=lambda g, h: np.array([chart.to_coords(g)[0] * chart.to_coords(h)[0]]),
    )
    for _ in range(5):
        x, y = rng.normal(size=(2, 2))
        assert abs(lx.differentiate_group_cocycle(trans, f_sym, x, y)[0]) < 1e-6
    report(
        7,
        "finite-difference derivation matches the analytic antisymmetrized "
        f"mixed partial on 20 samples (worst {worst:.2e}); symmetric input "
        "is annihilated",
    )


def test_criterion_8_curvature_identity():
    rng = np.random.default_rng(8)
    trans = lx.translation_group(2)
    sl2g = lx.sl2_group()
    worst = 0.0
    for _ in range(20):
        # heis3-type extensions: scaled area cocycles over R^2
        form = lx.EquivariantForm(area_cochain(float(rng.normal())), trans)
        x, y = rng.normal(size=(2, 2))
        worst = max(worst, lx.curvature_defect(form, x, y))
        # sl2 extensions: arbitrary 2-cochains are cocycles here
        om = lx.Cochain(2, 3, 1, rng.normal(size=3))
        form2 = lx.EquivariantForm(om, sl2g)
        x2, y2 = rng.normal(size=(2, 3))
        worst = max(worst, lx.curvature_defect(form2, x2, y2))
    assert worst < 1e-12
    report(
        8,
        "pulled-back curvature equals the cocycle on 20 random heis3-type "
        f"and sl2 extensions (worst residual {worst:.2e})",
    )


def test_criterion_9_pi1_commutator_table():
    torus = lx.torus_group(2)
    c = 1.0
    form = lx.EquivariantForm(area_cochain(c), torus)
    windings = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
    loops = [
        (f"{m},{n}", lx.torus_winding_loop(torus, [m, n])) for m, n in windings
    ]
    table = lx.pi1_cocycle_table(form, loops, quad_order=4)
    lat_z = lx.Lattice(generators=[[1.0]])
    lat_2z = lx.Lattice(generators=[[2.0]])
    worst = 0.0
    for i, m in enumerate(windings):
        for j, n in enumerate(windings):
            expected = c * (m[0] * n[1] - m[1] * n[0])
            got = table["commutators"][i][j][0]
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) < 1e-6
            # hand-computed verdicts: integers always land in Z; odd
            # determinants are 1 mod 2Z, even ones are 0
            assert lx.lattice_member(lat_z, table["commutators"][i][j], 1e-6)["verdict"] == "member"
            in_2z = lx.lattice_member(lat_2z, table["commutators"][i][j], 1e-6)
            det = round(expected)
            assert (in_2z["verdict"] == "member") == (det % 2 == 0)
            reduced = lx.reduce_mod_lattice(lat_2z, table["commutators"][i][j])
            assert abs(abs(reduced[0]) - (det % 2)) < 1e-6
    report(
        9,
        f"loop commutator table matches c*det(m, n) for all |m|,|n| <= 3 "
        f"(worst {worst:.2e}); mod-Z and mod-2Z verdicts as hand-computed",
    )


def test_criterion_10_boundary_periods():
    rng = np.random.default_rng(10)
    torus = lx.torus_group(2)
    form_t = lx.EquivariantForm(area_cochain(1.0), torus)
    worst = 0.0
    for _ in range(3):
        a = rng.normal(0, 0.3, size=(2, 3))
        b = rng.normal(0, 0.3, size=(2, 3))

        def block(u1, u2, u3, a=a, b=b):
            v = np.array([u1, u2, u3])
            return torus.chart.from_coords(a @ np.sin(v) + b @ (np.cos(v) - 1.0))

        val = lx.period(form_t, lx.cube_boundary_chain(block), 16)
        worst = max(worst, abs(val[0]))

    su2 = lx.su2_group()

    def sphere(t, s):
        th, ph = np.pi * t, 2.0 * np.pi * s
        q = np.array(
            [0.0, np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        )
        return quaternion_element(q)

    sphere_chain = lx.Surface2Chain(
        patches=(lx.SurfacePatch(eval=sphere, domain="square"),)
    )
    for _ in range(3):
        om = lx.Cochain(2, 3, 1, rng.normal(size=3))
        form_s = lx.EquivariantForm(om, su2)
        val = lx.period(form_s, sphere_chain, 16)
        worst = max(worst, abs(val[0]))
    assert worst < 1e-7
    report(
        10,
        "boundary cycles on T^2 and the equatorial sphere in SU(2) have "
        f"vanishing periods at order 16 (worst {worst:.2e})",
    )
