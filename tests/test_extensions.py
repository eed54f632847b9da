import operator
import warnings

import numpy as np
import pytest

import lieext as lx
from lieext.errors import MalformedInputError, NotACocycleError

from conftest import area_cochain


def rotation_action_module():
    """R acting on R^2 by rotation: rho = 2*pi*J, group action R(2*pi*x)."""
    j = np.array([[0.0, -1.0], [1.0, 0.0]])

    def act(x, v):
        th = 2.0 * np.pi * float(x)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        return rot @ v

    return lx.ModuleAction(rho=(2.0 * np.pi * j)[None, :, :], group_action=act)


class TestBuildAlgebraExtension:
    def test_r2_area_cocycle_gives_heis3(self, r2, heis3):
        ext = lx.build_algebra_extension(r2, lx.trivial_module(2, 1), area_cochain())
        assert np.array_equal(
            ext.total.structure_constants, heis3.structure_constants
        )
        assert lx.validate_algebra(ext.total) == []

    def test_zero_cocycle_trivial_action_is_direct_sum(self, sl2):
        ext = lx.build_algebra_extension(
            sl2, lx.trivial_module(3, 2), lx.zero_cochain(2, 3, 2)
        )
        c = ext.total.structure_constants
        assert np.array_equal(c[:3, :3, :3], sl2.structure_constants)
        assert not np.any(c[:3, :3, 3:])  # no twist
        assert not np.any(c[3:, :, :]) and not np.any(c[:, 3:, :])  # abelian ideal

    def test_total_bracket_matches_displayed_formula(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        lam = lx.random_cochain(1, 3, 3, rng)
        omega = lx.apply_d(sl2, adj, lam)
        ext = lx.build_algebra_extension(sl2, adj, omega)
        for _ in range(10):
            x1, x2 = rng.normal(size=(2, 3))
            v1, v2 = rng.normal(size=(2, 3))
            got = lx.bracket(
                ext.total,
                np.concatenate([x1, v1]),
                np.concatenate([x2, v2]),
            )
            base = lx.bracket(sl2, x1, x2)
            fiber = (
                np.einsum("i,iab,b->a", x1, adj.rho, v2)
                - np.einsum("i,iab,b->a", x2, adj.rho, v1)
                + omega(x1, x2)
            )
            assert np.allclose(got, np.concatenate([base, fiber]), atol=1e-12)

    def test_projection_is_homomorphism(self, heis3, rng):
        mod = lx.trivial_module(3, 1)
        omega = lx.random_cochain(2, 3, 1, rng)
        ext = lx.build_algebra_extension(heis3, mod, omega)
        for _ in range(10):
            w1, w2 = rng.normal(size=(2, 4))
            top = lx.bracket(ext.total, w1, w2)
            assert np.allclose(
                ext.project_base(top),
                lx.bracket(heis3, ext.project_base(w1), ext.project_base(w2)),
            )

    def test_non_cocycle_rejected_with_residual(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        omega = lx.random_cochain(2, 3, 3, rng)
        with pytest.raises(NotACocycleError) as err:
            lx.build_algebra_extension(sl2, adj, omega)
        assert err.value.residual == pytest.approx(
            lx.apply_d(sl2, adj, omega).max_norm()
        )

    def test_force_builds_broken_object(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        omega = lx.random_cochain(2, 3, 3, rng)
        ext = lx.build_algebra_extension(sl2, adj, omega, force=True)
        assert lx.validate_algebra(ext.total) != []


class TestJacobiCocycleEquivalence:
    def test_verdicts_agree(self, heis3, sl2, rng):
        for alg in (heis3, sl2):
            adj = lx.adjoint_module(alg)
            for trial in range(25):
                if trial % 2:
                    omega = lx.random_cochain(2, alg.dim, adj.coeff_dim, rng)
                else:
                    lam = lx.random_cochain(1, alg.dim, adj.coeff_dim, rng)
                    omega = lx.apply_d(alg, adj, lam)
                ext = lx.build_algebra_extension(alg, adj, omega, force=True)
                jacobi_ok = lx.validate_algebra(ext.total, 1e-9) == []
                assert jacobi_ok == lx.is_cocycle(alg, adj, omega, 1e-9)

    def test_perturbation_residual_linear_in_epsilon(self, sl2):
        adj = lx.adjoint_module(sl2)
        base = lx.zero_cochain(2, 3, 3)
        direction = lx.Cochain(2, 3, 3, {(0, 1): np.array([0.0, 1.0, 0.0])})
        d_dir = lx.apply_d(sl2, adj, direction).max_norm()
        assert d_dir > 0.1  # the direction must actually break closedness
        eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        residuals = []
        for e in eps:
            ext = lx.build_algebra_extension(sl2, adj, base + float(e) * direction, force=True)
            residuals.append(max(i.residual for i in lx.validate_algebra(ext.total)))
        slope = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestAreEquivalent:
    def test_coboundary_shift_detected_with_witness(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        lam0 = lx.random_cochain(1, 3, 3, rng)
        omega = lx.apply_d(sl2, adj, lx.random_cochain(1, 3, 3, rng))
        shifted = omega + lx.apply_d(sl2, adj, lam0)
        same, witness, residual = lx.are_equivalent(sl2, adj, shifted, omega)
        assert same and residual < 1e-10
        # witness may differ from lam0 by ker d1, but d(witness) must match
        assert (
            lx.apply_d(sl2, adj, witness) - (shifted - omega)
        ).max_norm() < 1e-9

    def test_r2_area_vs_zero_not_equivalent(self, r2):
        mod = lx.trivial_module(2, 1)
        same, witness, residual = lx.are_equivalent(
            r2, mod, area_cochain(), lx.zero_cochain(2, 2, 1)
        )
        assert not same and witness is None
        assert residual == pytest.approx(1.0)  # d1 = 0, so the gap is |omega|

    @pytest.mark.parametrize("scale", [1e300, 1.5e-300])
    def test_residual_at_the_ends_of_the_double_range(self, r2, scale):
        mod = lx.trivial_module(2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, residual = lx.are_equivalent(
                r2, mod, area_cochain(scale), lx.zero_cochain(2, 2, 1)
            )
        assert residual == pytest.approx(scale, rel=1e-15)

    def test_residual_beyond_the_double_range_is_inf(self, r2):
        # 1.7e308 - (-1.7e308) overflows; the difference is taken at a
        # power-of-two scale, so only the reported residual is infinite
        mod = lx.trivial_module(2, 1)
        result = lx.are_equivalent(r2, mod, area_cochain(1.7e308), area_cochain(-1.7e308))
        assert result == (False, None, np.inf)

    def test_inputs_must_be_2_cochains(self, heis3):
        mod = lx.trivial_module(3, 1)
        three = lx.zero_cochain(3, 3, 1)
        with pytest.raises(MalformedInputError):
            lx.are_equivalent(heis3, mod, three, three)

    def test_witness_of_large_cocycles(self, sl2, rng):
        mod = lx.trivial_module(3, 1)
        om1, om2 = (1e200 * lx.random_cochain(2, 3, 1, rng) for _ in range(2))
        same, witness, _ = lx.are_equivalent(sl2, mod, om1, om2, equiv_tol=1e190)
        assert same
        gap = lx.apply_d(sl2, mod, witness) - (om1 - om2)
        assert gap.max_norm() < 1e-9 * (om1 - om2).max_norm()

    def test_sl2_trivial_coefficients_all_equivalent(self, sl2, rng):
        # H^2(sl2, R) = 0: any two cocycles differ by a coboundary
        mod = lx.trivial_module(3, 1)
        om1 = lx.random_cochain(2, 3, 1, rng)
        om2 = lx.random_cochain(2, 3, 1, rng)
        same, witness, _ = lx.are_equivalent(sl2, mod, om1, om2)
        assert same
        assert (lx.apply_d(sl2, mod, witness) - (om1 - om2)).max_norm() < 1e-9

    def test_equivalence_relation_axioms(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        oms = [
            lx.apply_d(sl2, adj, lx.random_cochain(1, 3, 3, rng)) for _ in range(3)
        ]
        for om in oms:
            assert lx.are_equivalent(sl2, adj, om, om)[0]
        a, b, c = oms
        assert lx.are_equivalent(sl2, adj, a, b)[0] == lx.are_equivalent(sl2, adj, b, a)[0]
        if lx.are_equivalent(sl2, adj, a, b)[0] and lx.are_equivalent(sl2, adj, b, c)[0]:
            assert lx.are_equivalent(sl2, adj, a, c)[0]

    def test_non_cocycle_inputs_rejected(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        with pytest.raises(NotACocycleError):
            lx.are_equivalent(
                sl2, adj, lx.random_cochain(2, 3, 3, rng), lx.zero_cochain(2, 3, 3)
            )


def additive_law(cocycle_fn, action=None, lattice=None):
    return lx.GroupLaw(
        cocycle=lx.GroupCochain(degree=2, eval=cocycle_fn),
        action=action,
        compose=operator.add,
        inverse=operator.neg,
        identity=0.0,
        lattice=lattice,
    )


class TestGroupLaw:
    def test_direct_product_when_cocycle_vanishes(self):
        law = additive_law(lambda x, y: np.zeros(1))
        g, a = lx.group_multiply(law, (1.0, np.array([0.0])), (2.0, np.array([3.0])))
        assert g == pytest.approx(3.0) and a[0] == pytest.approx(3.0)

    def test_product_cocycle_twists_fiber(self):
        law = additive_law(lambda x, y: np.array([x * y]))
        g, a = lx.group_multiply(law, (1.0, np.array([0.0])), (2.0, np.array([3.0])))
        assert g == pytest.approx(3.0) and a[0] == pytest.approx(5.0)

    def test_inverse_formula(self, rng):
        law = additive_law(lambda x, y: np.array([x * y]))
        for _ in range(20):
            p = (float(rng.normal()), rng.normal(size=1))
            g, a = lx.group_multiply(law, p, lx.group_inverse(law, p))
            assert g == pytest.approx(0.0)
            assert a[0] == pytest.approx(0.0, abs=1e-12)

    def test_associativity_iff_delta_vanishes(self, rng):
        good = additive_law(lambda x, y: np.array([x * y]))
        bad = additive_law(lambda x, y: np.array([x * y * y]))
        for law, expect in ((good, True), (bad, False)):
            ok = True
            for _ in range(10):
                trip = [(float(t), rng.normal(size=1)) for t in rng.normal(size=3)]
                left = lx.group_multiply(law, lx.group_multiply(law, trip[0], trip[1]), trip[2])
                right = lx.group_multiply(law, trip[0], lx.group_multiply(law, trip[1], trip[2]))
                delta = lx.apply_delta(
                    None, law.cocycle, [t[0] for t in trip], compose=operator.add
                )
                agree = abs(left[1][0] - right[1][0]) < 1e-9
                assert agree == (abs(delta[0]) < 1e-9)
                ok = ok and agree
            assert ok == expect

    def test_fiber_reduced_mod_lattice(self):
        lat = lx.Lattice(generators=[[1.0]])
        law = additive_law(lambda x, y: np.array([x * y]), lattice=lat)
        _, a = lx.group_multiply(law, (1.5, np.array([0.2])), (2.0, np.array([0.2])))
        # 0.2 + 0.2 + 3.0 = 3.4 -> 0.4 mod Z
        assert a[0] == pytest.approx(0.4)

    def test_conjugation_realizes_group_action(self, rng):
        mod = rotation_action_module()
        law = lx.GroupLaw(
            cocycle=lx.GroupCochain(degree=2, eval=lambda x, y: np.zeros(2)),
            action=mod.act,
            compose=operator.add,
            inverse=operator.neg,
            identity=0.0,
        )
        for _ in range(10):
            g = float(rng.normal())
            v = rng.normal(size=2)
            assert np.allclose(lx.conjugate_coeff(law, g, v), mod.act(g, v), atol=1e-12)

    def test_unit_element(self):
        law = additive_law(lambda x, y: np.array([x * y]))
        g, a = lx.group_unit(law, 1)
        assert g == 0.0 and np.all(a == 0.0)
