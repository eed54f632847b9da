import warnings

import numpy as np
import pytest

import lieext as lx
from lieext.algebra import scale_of
from lieext.errors import MalformedInputError, NotACocycleError, UserFunctionError

from conftest import area_cochain, random_cochain


def rotation_action_module():
    """R acting on R^2 by rotation: rho = 2*pi*J, group action R(2*pi*g[0, 1])."""
    j = np.array([[0.0, -1.0], [1.0, 0.0]])

    def act(g, v):
        th = 2.0 * np.pi * g[0, 1]
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        return rot @ v

    return lx.ModuleAction(rho=(2.0 * np.pi * j)[None, :, :], group_action=act)


class TestBuildAlgebraExtension:
    def test_r2_area_cocycle_gives_heis3(self, r2, heis3):
        ext = lx.build_algebra_extension(r2, lx.trivial_module(2, 1), area_cochain())
        assert np.array_equal(
            ext.structure_constants, heis3.structure_constants
        )
        assert lx.validate_algebra(ext) == []

    def test_zero_cocycle_trivial_action_is_direct_sum(self, sl2):
        ext = lx.build_algebra_extension(
            sl2, lx.trivial_module(3, 2), lx.Cochain(2, 3, 2)
        )
        c = ext.structure_constants
        assert np.array_equal(c[:3, :3, :3], sl2.structure_constants)
        assert not np.any(c[:3, :3, 3:])  # no twist
        assert not np.any(c[3:, :, :]) and not np.any(c[:, 3:, :])  # abelian ideal

    def test_total_bracket_matches_displayed_formula(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        lam = random_cochain(1, 3, 3, rng)
        omega = lx.apply_d(sl2, adj, lam)
        ext = lx.build_algebra_extension(sl2, adj, omega)
        for _ in range(10):
            x1, x2 = rng.normal(size=(2, 3))
            v1, v2 = rng.normal(size=(2, 3))
            got = lx.bracket(
                ext,
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
        omega = random_cochain(2, 3, 1, rng)
        ext = lx.build_algebra_extension(heis3, mod, omega)
        for _ in range(10):
            w1, w2 = rng.normal(size=(2, 4))
            top = lx.bracket(ext, w1, w2)
            assert np.allclose(
                top[:3],
                lx.bracket(heis3, w1[:3], w2[:3]),
            )

    def test_non_cocycle_rejected_with_residual(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        omega = random_cochain(2, 3, 3, rng)
        with pytest.raises(NotACocycleError) as err:
            lx.build_algebra_extension(sl2, adj, omega)
        # relative to sl2's structure constants and omega
        assert err.value.residual == pytest.approx(
            lx.apply_d(sl2, adj, omega).max_norm() / (scale_of(adj.rho) * scale_of(omega.values))
        )

    def test_force_builds_broken_object(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        omega = random_cochain(2, 3, 3, rng)
        ext = lx.build_algebra_extension(sl2, adj, omega, force=True)
        assert lx.validate_algebra(ext) != []

    def test_force_still_needs_a_lie_algebra(self):
        # [e0, e1] = e1 and [e1, e2] = e0 break Jacobi, so d_2 d_1 is not zero
        c = np.zeros((3, 3, 3))
        c[0, 1, 1], c[1, 0, 1], c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0, 1.0, -1.0
        with pytest.raises(lx.LieExtError, match="d_2 d_1 is not zero"):
            lx.build_algebra_extension(lx.LieAlgebra(c), lx.trivial_module(3, 1),
                                       lx.Cochain(2, 3, 1), force=True)


class TestJacobiCocycleEquivalence:
    def test_verdicts_agree(self, heis3, sl2, rng):
        for alg in (heis3, sl2):
            adj = lx.adjoint_module(alg)
            for trial in range(25):
                if trial % 2:
                    omega = random_cochain(2, alg.dim, adj.coeff_dim, rng)
                else:
                    lam = random_cochain(1, alg.dim, adj.coeff_dim, rng)
                    omega = lx.apply_d(alg, adj, lam)
                ext = lx.build_algebra_extension(alg, adj, omega, force=True)
                jacobi_ok = lx.validate_algebra(ext, 1e-9) == []
                assert jacobi_ok == lx.is_cocycle(alg, adj, omega, 1e-9)

    def test_perturbation_residual_linear_in_epsilon(self, sl2):
        adj = lx.adjoint_module(sl2)
        base = lx.Cochain(2, 3, 3)
        direction = lx.cochain_from_pairs(3, 3, {(0, 1): np.array([0.0, 1.0, 0.0])})
        d_dir = lx.apply_d(sl2, adj, direction).max_norm()
        assert d_dir > 0.1  # the direction must actually break closedness
        eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        residuals = []
        for e in eps:
            ext = lx.build_algebra_extension(sl2, adj, base + float(e) * direction, force=True)
            residuals.append(max(i["residual"] for i in lx.validate_algebra(ext)))
        slope = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestAreEquivalent:
    def test_coboundary_shift_detected_with_witness(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        lam0 = random_cochain(1, 3, 3, rng)
        omega = lx.apply_d(sl2, adj, random_cochain(1, 3, 3, rng))
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
            r2, mod, area_cochain(), lx.Cochain(2, 2, 1)
        )
        assert not same and witness is None
        assert residual == pytest.approx(1.0)  # d1 = 0, so the gap is |omega|

    @pytest.mark.parametrize("scale", [1e300, 1.5e-300])
    def test_residual_at_the_ends_of_the_double_range(self, r2, scale):
        mod = lx.trivial_module(2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, residual = lx.are_equivalent(
                r2, mod, area_cochain(scale), lx.Cochain(2, 2, 1)
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
        three = lx.Cochain(3, 3, 1)
        with pytest.raises(MalformedInputError):
            lx.are_equivalent(heis3, mod, three, three)

    def test_witness_of_large_cocycles(self, sl2, rng):
        mod = lx.trivial_module(3, 1)
        om1, om2 = (1e200 * random_cochain(2, 3, 1, rng) for _ in range(2))
        same, witness, _ = lx.are_equivalent(sl2, mod, om1, om2, equiv_tol=1e190)
        assert same
        gap = lx.apply_d(sl2, mod, witness) - (om1 - om2)
        assert gap.max_norm() < 1e-9 * (om1 - om2).max_norm()

    def test_sl2_trivial_coefficients_all_equivalent(self, sl2, rng):
        # H^2(sl2, R) = 0: any two cocycles differ by a coboundary
        mod = lx.trivial_module(3, 1)
        om1 = random_cochain(2, 3, 1, rng)
        om2 = random_cochain(2, 3, 1, rng)
        same, witness, _ = lx.are_equivalent(sl2, mod, om1, om2)
        assert same
        assert (lx.apply_d(sl2, mod, witness) - (om1 - om2)).max_norm() < 1e-9

    def test_equivalence_relation_axioms(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        oms = [
            lx.apply_d(sl2, adj, random_cochain(1, 3, 3, rng)) for _ in range(3)
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
                sl2, adj, random_cochain(2, 3, 3, rng), lx.Cochain(2, 3, 3)
            )

    def test_the_refusal_names_the_cochain_and_its_residual(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        omega = random_cochain(2, 3, 3, rng)
        with pytest.raises(NotACocycleError, match="^omega2 is not a cocycle") as err:
            lx.are_equivalent(sl2, adj, lx.Cochain(2, 3, 3), omega)
        relative = lx.apply_d(sl2, adj, omega).max_norm() / (scale_of(adj.rho) * scale_of(omega.values))
        assert err.value.residual == relative


R1 = lx.translation_group(1)


def real(x):
    """The element x of R as a matrix of translation_group(1)."""
    return R1.chart.from_coords([x])


def law_on(group, cocycle_fn, module=None, lattice=None):
    cocycle = lx.GroupCochain(degree=2, eval=cocycle_fn, coeff_dim=module.coeff_dim if module else 1)
    return lx.GroupLaw(group, cocycle, module, lattice)


def random_element(group, rng):
    return group.exp(group.realize(rng.normal(size=group.algebra.dim)))


def heisenberg_coboundary(g, h):
    """delta of g -> g[0, 1] g[1, 2] + g[0, 2]^2: a cocycle on the Heisenberg
    group that, through the central entry (gh)[0, 2] = g[0, 2] + h[0, 2] +
    g[0, 1] h[1, 2], sees the order of a product."""
    c = lx.GroupCochain(degree=1, eval=lambda g: np.array([g[0, 1] * g[1, 2] + g[0, 2] ** 2]))
    return lx.apply_delta(None, c, [g, h])


# (group, associative cocycle, non-associative cocycle)
LAWS = {
    "R": (R1, lambda g, h: np.array([g[0, 1] * h[0, 1]]),
          lambda g, h: np.array([g[0, 1] * h[0, 1] ** 2])),
    "heisenberg": (lx.heisenberg_group(), heisenberg_coboundary,
                   lambda g, h: np.array([g[0, 1] * h[0, 1] ** 2])),
}


class TestGroupLaw:
    def test_direct_product_when_cocycle_vanishes(self):
        law = law_on(R1, lambda g, h: np.zeros(1))
        g, a = lx.group_multiply(law, (real(1.0), np.array([0.0])), (real(2.0), np.array([3.0])))
        assert g[0, 1] == pytest.approx(3.0) and a[0] == pytest.approx(3.0)

    def test_product_cocycle_twists_fiber(self):
        law = law_on(R1, LAWS["R"][1])
        g, a = lx.group_multiply(law, (real(1.0), np.array([0.0])), (real(2.0), np.array([3.0])))
        assert g[0, 1] == pytest.approx(3.0) and a[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("name", LAWS)
    def test_inverse_formula(self, name, rng):
        group, cocycle, _ = LAWS[name]
        law = law_on(group, cocycle)
        for _ in range(20):
            p = (random_element(group, rng), rng.normal(size=1))
            g, a = lx.group_multiply(law, p, lx.group_inverse(law, p))
            assert np.allclose(g, group.identity, rtol=0.0, atol=1e-12)
            assert a[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", LAWS)
    def test_associativity_iff_delta_vanishes(self, name, rng):
        group, good_fn, bad_fn = LAWS[name]
        for law, expect in ((law_on(group, good_fn), True), (law_on(group, bad_fn), False)):
            ok = True
            for _ in range(10):
                trip = [(random_element(group, rng), rng.normal(size=1)) for _ in range(3)]
                left = lx.group_multiply(law, lx.group_multiply(law, trip[0], trip[1]), trip[2])
                right = lx.group_multiply(law, trip[0], lx.group_multiply(law, trip[1], trip[2]))
                product = trip[0][0] @ trip[1][0] @ trip[2][0]
                assert np.allclose(left[0], product) and np.allclose(right[0], product)
                delta = lx.apply_delta(None, law.cocycle, [t[0] for t in trip])
                agree = abs(left[1][0] - right[1][0]) < 1e-9
                assert agree == (abs(delta[0]) < 1e-9)
                ok = ok and agree
            assert ok == expect

    def test_fiber_reduced_mod_lattice(self):
        lat = lx.Lattice(generators=[[1.0]])
        law = law_on(R1, LAWS["R"][1], lattice=lat)
        _, a = lx.group_multiply(law, (real(1.5), np.array([0.2])), (real(2.0), np.array([0.2])))
        # 0.2 + 0.2 + 3.0 = 3.4 -> 0.4 mod Z
        assert a[0] == pytest.approx(0.4)

    def test_conjugation_realizes_group_action(self, rng):
        mod = rotation_action_module()
        law = law_on(R1, lambda g, h: np.zeros(2), module=mod)
        for _ in range(10):
            g = real(rng.normal())
            v = rng.normal(size=2)
            assert np.allclose(lx.conjugate_coeff(law, g, v), mod.act(g, v), atol=1e-12)

    def test_unit_element(self):
        law = law_on(R1, LAWS["R"][1])
        g, a = lx.group_unit(law)
        assert np.array_equal(g, np.eye(2)) and np.all(a == 0.0)

    def test_cocycle_value_of_the_wrong_length_is_refused(self):
        # coeff_dim is left at 1, but the values are 2-vectors
        cocycle = lx.GroupCochain(degree=2, eval=lambda g, h: np.array([1.0, 2.0]))
        law = lx.GroupLaw(R1, cocycle)
        one = (real(0.0), np.zeros(1))
        with pytest.raises(UserFunctionError, match=r"must lie in R\^1, got shape \(2,\)"):
            lx.group_multiply(law, one, one)

    def test_module_of_another_dimension_is_refused(self):
        cocycle = lx.GroupCochain(degree=2, eval=lambda g, h: np.zeros(1))
        with pytest.raises(MalformedInputError, match="acts on R\\^2 but the cocycle takes values in R\\^1"):
            lx.GroupLaw(R1, cocycle, rotation_action_module())
