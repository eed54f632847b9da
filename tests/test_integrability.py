import json
import sys
from importlib import resources

import numpy as np
import pytest

import lieext as lx
from lieext.batch import vectorized
from lieext.cli import run
from lieext.documents import parse_document
from lieext.errors import EXIT_INDETERMINATE, MalformedInputError, NotALoopError, OpenChainError

from conftest import area_cochain, quaternion_element


def fundamental_cycle(group):
    patch = lx.SurfacePatch(
        eval=lambda t, s: group.chart.from_coords([t, s]), domain="square"
    )
    return lx.Surface2Chain(patches=(patch,))


def quartered_cycle(group):
    """The same fundamental class as four quarter patches."""
    patches = []
    for di in range(2):
        for dj in range(2):
            patches.append(
                lx.SurfacePatch(
                    eval=(
                        lambda di, dj: lambda t, s: group.chart.from_coords(
                            [(di + t) / 2.0, (dj + s) / 2.0]
                        )
                    )(di, dj),
                    domain="square",
                )
            )
    return lx.Surface2Chain(patches=tuple(patches))


def sphere_cycle():
    def patch(t, s):
        th, ph = np.pi * t, 2.0 * np.pi * s
        q = np.array(
            [0.0, np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        )
        return quaternion_element(q)

    return lx.Surface2Chain(patches=(lx.SurfacePatch(eval=patch, domain="square"),))


class TestPeriod:
    def test_torus_fundamental_values(self, torus2):
        for c in (1.0, 0.5, 2.0):
            form = lx.EquivariantForm(area_cochain(c), torus2)
            val = lx.period(form, fundamental_cycle(torus2), 16)
            assert val[0] == pytest.approx(c, abs=1e-8)

    def test_boundary_cycle_has_zero_period(self, torus2, rng):
        form = lx.EquivariantForm(area_cochain(), torus2)
        a = rng.normal(0, 0.2, size=(2, 3))

        def block(u1, u2, u3):
            v = np.array([u1, u2, u3])
            return torus2.chart.from_coords(a @ np.sin(v))

        val = lx.period(form, lx.cube_boundary_chain(block), 12)
        assert abs(val[0]) < 1e-8

    def test_su2_equatorial_sphere_is_a_boundary(self, su2, rng):
        # H_2 of a 3-sphere vanishes, so every closed 2-form has period 0
        om = lx.Cochain(2, 3, 1, rng.normal(size=3))
        form = lx.EquivariantForm(om, su2)
        val = lx.period(form, sphere_cycle(), 16)
        assert abs(val[0]) < 1e-7

    def test_exact_forms_under_a_group_action_have_zero_periods(self, torus2):
        # T^2 acts on R^2 by rotation through 2 pi t0, read from g's first
        # block, so rho(e0) = 2 pi J; omega = d alpha is exact, and its form's
        # periods over the closed wavy torus vanish at a converged order
        mod = lx.ModuleAction(
            rho=np.array([2.0 * np.pi * np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2))]),
            group_action=vectorized(lambda g, v: (g[..., :2, :2] @ v[..., None])[..., 0]))
        wavy = vectorized(lambda t, s: torus2.chart.from_coords(np.stack(
            [t + 0.2 * np.sin(2.0 * np.pi * s), s + 0.1 * np.sin(2.0 * np.pi * t)], axis=-1)))
        cycle = lx.Surface2Chain(patches=(lx.SurfacePatch(eval=wavy),))
        rng = np.random.default_rng(0)
        for _ in range(3):
            alpha = lx.Cochain(1, 2, 2, rng.normal(size=(2, 2)))
            form = lx.EquivariantForm(lx.apply_d(torus2.algebra, mod, alpha), torus2, mod)
            assert np.max(np.abs(lx.period(form, cycle, 8))) > 1e-3  # not zero node by node
            assert np.max(np.abs(lx.period(form, cycle, 24))) <= 1e-10

    def test_open_chain_rejected(self, torus2):
        form = lx.EquivariantForm(area_cochain(), torus2)
        patch = lx.SurfacePatch(
            eval=lambda t, s: torus2.chart.from_coords([t / 2, s]), domain="square"
        )
        with pytest.raises(OpenChainError):
            lx.period(form, lx.Surface2Chain(patches=(patch,)), 8)

    @pytest.mark.parametrize("domain, coords, message", [
        # the seams at x = 0 and 1/2 are rotations by 0 and pi: 2 apart
        ("square", lambda t, s: [t / 2, s], "2 uncancelled boundary edge(s), the closest two 2.000e+00 apart "
                                            "(tolerance 1.000e-09)"),
        # the edges on s = 0 and s = t coincide and cancel; one is left, so no pair to measure
        ("simplex", lambda t, s: [t, s * (t - s)], "1 uncancelled boundary edge(s)"),
    ], ids=["two-left", "one-left"])
    def test_open_chain_names_its_closest_edges(self, torus2, domain, coords, message):
        patch = lx.SurfacePatch(eval=vectorized(lambda t, s: torus2.chart.from_coords(np.stack(coords(t, s), -1))),
                                domain=domain)
        with pytest.raises(OpenChainError) as caught:
            lx.assert_cycle_closed(lx.Surface2Chain(patches=(patch,)), "c")
        assert str(caught.value) == f"'c' has {message}; it is not a 2-cycle"

    def test_homology_invariance(self, torus2):
        form = lx.EquivariantForm(area_cochain(0.7), torus2)
        whole = lx.period(form, fundamental_cycle(torus2), 16)
        pieces = lx.period(form, quartered_cycle(torus2), 16)
        assert abs(whole[0] - pieces[0]) < 2e-8


class TestCheckIntegrability:
    def cycles(self, group):
        return [("fundamental", fundamental_cycle(group))]

    def test_quantized_levels(self, torus2):
        cases = [
            (1.0, [[1.0]], "integrable"),
            (0.5, [[1.0]], "not_integrable"),
            (0.5, [[0.5]], "integrable"),
        ]
        for c, gens, expected in cases:
            form = lx.EquivariantForm(area_cochain(c), torus2)
            report = lx.check_integrability(
                form, self.cycles(torus2), lx.Lattice(generators=gens), 16
            )
            assert report["overall"] == expected
            assert report["generators"][0]["period"][0] == pytest.approx(c, abs=1e-8)

    def test_empty_generator_set_vacuously_integrable(self, su2, rng):
        om = lx.Cochain(2, 3, 1, rng.normal(size=3))
        form = lx.EquivariantForm(om, su2)
        report = lx.check_integrability(
            form, [], lx.Lattice(generators=[[1.0]]), 8
        )
        assert report["overall"] == "integrable"
        assert report["generators"] == []

    def test_ambiguous_period_is_indeterminate(self, torus2, unit_lattice):
        form = lx.EquivariantForm(area_cochain(1.0 + 5e-6), torus2)
        report = lx.check_integrability(
            form, self.cycles(torus2), unit_lattice, 16
        )
        assert report["overall"] == "indeterminate"

    def test_error_estimate_recorded(self, torus2, unit_lattice):
        form = lx.EquivariantForm(area_cochain(), torus2)
        report = lx.check_integrability(form, self.cycles(torus2), unit_lattice, 16)
        gen = report["generators"][0]
        assert gen["error_estimate"] >= 0.0
        assert gen["tolerance_used"] >= 1e-6

    def test_verdict_monotone_under_lattice_growth(self, torus2, rng):
        # adding generators to Gamma never flips integrable -> not integrable
        for _ in range(5):
            c = float(rng.choice([0.25, 0.5, 1.0, 1.5]))
            form = lx.EquivariantForm(area_cochain(c), torus2)
            small = lx.Lattice(generators=[[1.0]])
            big = lx.Lattice(generators=[[0.25]])  # refines Z
            r_small = lx.check_integrability(form, self.cycles(torus2), small, 12)
            r_big = lx.check_integrability(form, self.cycles(torus2), big, 12)
            if r_small["overall"] == "integrable":
                assert r_big["overall"] == "integrable"

    def test_scaling_covariance(self, torus2):
        lam = 3.7
        base_form = lx.EquivariantForm(area_cochain(0.5), torus2)
        scaled_form = lx.EquivariantForm(area_cochain(0.5 * lam), torus2)
        base_rep = lx.check_integrability(
            base_form, self.cycles(torus2), lx.Lattice(generators=[[0.5]]), 12
        )
        scaled_rep = lx.check_integrability(
            scaled_form, self.cycles(torus2), lx.Lattice(generators=[[0.5 * lam]]), 12
        )
        assert scaled_rep["generators"][0]["period"][0] == pytest.approx(
            lam * base_rep["generators"][0]["period"][0], rel=1e-9
        )
        assert scaled_rep["overall"] == base_rep["overall"] == "integrable"

    def test_report_serializes(self, torus2, unit_lattice):
        form = lx.EquivariantForm(area_cochain(), torus2)
        report = lx.check_integrability(form, self.cycles(torus2), unit_lattice, 8)
        assert report["overall"] == "integrable"
        assert report["generators"][0]["generator"] == "fundamental"
        assert "assumption" in report


def wavy_square_document(value, quad_order):
    """T^2 against Z over one wavy square of class 1, so the period is value."""
    return {
        "task": "check-integrability",
        "group": {"kind": "torus", "dim": 2},
        "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [value]}]},
        "lattice": {"generators": [[1.0]]},
        "cycles": [{"name": "wavy", "patches": [
            {"coords": ["t + 0.2*sin(2*pi*s)", "s + 0.2*sin(2*pi*t)"]}]}],
        "options": {"quad_order": quad_order},
    }


def test_each_patch_is_evaluated_twice_per_generator(torus2, unit_lattice):
    calls = [[] for _ in range(4)]

    def counted(k, di, dj):
        def patch(t, s):
            calls[k].append(t)
            return torus2.chart.from_coords(np.stack([(di + t) / 2.0, (dj + s) / 2.0], axis=-1))

        return vectorized(patch)

    chain = lx.Surface2Chain(patches=tuple(
        lx.SurfacePatch(eval=counted(k, k // 2, k % 2)) for k in range(4)
    ))
    cycles = [("a", chain), ("b", chain)]
    report = lx.check_integrability(lx.EquivariantForm(area_cochain(), torus2), cycles, unit_lattice)
    assert report["overall"] == "integrable"
    # per generator: once on the edges for closure, once on both rules' stencils
    assert [len(c) for c in calls] == [4, 4, 4, 4]


class TestErrorEstimate:
    def test_quad_order_one_is_refused(self):
        # at order 1 the half-order comparison is the period itself: the
        # estimate reads ~1e-8 while the period -0.579 is far from the true 1
        with pytest.raises(MalformedInputError, match="half the order"):
            run(parse_document(wavy_square_document(1.0, 1)))

    def test_estimate_over_half_the_lattice_spacing_is_indeterminate(self):
        # period 0.454 against a true 0.5, estimate 0.744: the inflated
        # tolerance covers every point of R, so "member" would mean nothing
        report, code = run(parse_document(wavy_square_document(0.5, 2)))
        results = report["results"]
        assert code == EXIT_INDETERMINATE and results["overall"] == "indeterminate"
        assert results["generators"][0]["verdict"] == "indeterminate"
        assert results["generators"][0]["error_estimate"] >= 0.5


class TestPi1Table:
    def test_basis_commutator_equals_area(self, torus2, unit_lattice):
        for c in (1.0, 0.5):
            form = lx.EquivariantForm(area_cochain(c), torus2)
            loops = [
                ("m", lx.torus_winding_loop(torus2, [1, 0])),
                ("n", lx.torus_winding_loop(torus2, [0, 1])),
            ]
            table = lx.pi1_cocycle_table(form, loops, unit_lattice, quad_order=8)
            assert table["commutators"][0][1][0] == pytest.approx(c, abs=1e-8)
            assert table["commutators"][0][0][0] == pytest.approx(0.0, abs=1e-10)

    def test_determinant_formula_on_windings(self, torus2):
        c = 0.8
        form = lx.EquivariantForm(area_cochain(c), torus2)
        windings = [(1, 0), (0, 1), (2, -1), (-1, 2)]
        loops = [
            (f"{m},{n}", lx.torus_winding_loop(torus2, [m, n])) for m, n in windings
        ]
        table = lx.pi1_cocycle_table(form, loops, quad_order=8)
        for i, (m1, m2) in enumerate(windings):
            for j, (n1, n2) in enumerate(windings):
                expected = c * (m1 * n2 - m2 * n1)
                assert table["commutators"][i][j][0] == pytest.approx(expected, abs=1e-7)

    def test_mod_lattice_verdicts(self, torus2):
        # c=1: commutator 1 vanishes mod Z but not mod 2Z
        form = lx.EquivariantForm(area_cochain(1.0), torus2)
        loops = [
            ("m", lx.torus_winding_loop(torus2, [1, 0])),
            ("n", lx.torus_winding_loop(torus2, [0, 1])),
        ]
        table_z = lx.pi1_cocycle_table(
            form, loops, lx.Lattice(generators=[[1.0]]), quad_order=8
        )
        assert table_z["commutator_in_lattice"][0][1] == "member"
        assert abs(table_z["commutators_mod_lattice"][0][1][0]) < 1e-8
        table_2z = lx.pi1_cocycle_table(
            form, loops, lx.Lattice(generators=[[2.0]]), quad_order=8
        )
        assert table_2z["commutator_in_lattice"][0][1] == "not_member"
        assert table_2z["commutators_mod_lattice"][0][1][0] == pytest.approx(1.0, abs=1e-8)

    def test_commutators_are_reduced_in_one_call(self, monkeypatch):
        original, calls = lx.reduce_mod_lattice, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("lieext") and getattr(module, "reduce_mod_lattice", None) is original:
                monkeypatch.setattr(module, "reduce_mod_lattice", counted)
        fixture = resources.files("lieext") / "fixtures" / "pi1_torus.json"
        report, _ = run(parse_document(json.loads(fixture.read_text())))
        assert len(calls) == 1
        assert report["results"]["commutator_in_lattice"] == [["member"] * 2] * 2

    def test_each_loop_is_called_once_on_the_rule(self, torus2):
        form = lx.EquivariantForm(area_cochain(0.7), torus2)
        calls = {}

        def counted(name, winding):
            loop = lx.torus_winding_loop(torus2, winding)

            @vectorized
            def path(t):
                calls.setdefault(name, []).append(np.size(t))
                return loop(t)

            return name, lx.GroupPath(eval=path)

        loops = [counted("m", [1, 0]), counted("n", [1, 2])]
        table = lx.pi1_cocycle_table(form, loops, quad_order=16)
        # once on the 33 membership samples, once on the rule's 3n parameters
        assert calls == {"m": [33, 48], "n": [33, 48]}
        for i, (_, p) in enumerate(loops):
            for j, (_, q) in enumerate(loops):
                assert table["values"][i][j] == lx.path_cocycle(form, p, q, 16).tolist()
        assert table["commutators"][0][1][0] == pytest.approx(1.4, abs=1e-8)

    def test_a_loop_leaving_the_group_at_a_node_is_named(self, torus2):
        # on T^2 at the 33 membership samples, off it at the rule's parameters
        form = lx.EquivariantForm(area_cochain(), torus2)
        loop = lx.torus_winding_loop(torus2, [1, 0])
        samples = np.linspace(0.0, 1.0, 33)
        off = lx.GroupPath(eval=vectorized(
            lambda t: loop(t) * np.where(np.isin(t, samples), 1.0, 1.1)[..., None, None]))
        loops = [("m", loop), ("off", off)]
        with pytest.raises(lx.MembershipError,
                           match=r"^loops\['off'\] leaves the group at t = 0\.00529953: "):
            lx.pi1_cocycle_table(form, loops, quad_order=16)

    def test_open_loop_rejected(self, torus2):
        form = lx.EquivariantForm(area_cochain(), torus2)
        arc = lx.coordinate_path(torus2, lambda t: np.array([0.5 * t, 0.0]))
        with pytest.raises(NotALoopError):
            lx.pi1_cocycle_table(form, [("arc", arc)], quad_order=4)

    def test_non_integer_winding_rejected(self, torus2):
        with pytest.raises(NotALoopError):
            lx.torus_winding_loop(torus2, [0.5, 1])
