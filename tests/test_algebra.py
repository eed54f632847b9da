import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieext as lx
from lieext.errors import InvalidLatticeError, MalformedInputError

from conftest import change_of_basis, direct_sum


def brute_force_jacobi_residual(c):
    """Independent oracle: max Jacobi residual by explicit quadruple loops."""
    n = c.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = 0.0
                    for m in range(n):
                        total += (
                            c[i, j, m] * c[m, k, l]
                            + c[j, k, m] * c[m, i, l]
                            + c[k, i, m] * c[m, j, l]
                        )
                    worst = max(worst, abs(total))
    return worst


class TestValidateAlgebra:
    def test_heis3_clean(self, heis3):
        assert lx.validate_algebra(heis3) == []

    def test_sl2_clean_against_brute_force(self, sl2):
        assert brute_force_jacobi_residual(sl2.structure_constants) == 0.0
        assert lx.validate_algebra(sl2) == []

    def test_antisymmetry_violation_located(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = 1.0  # wrong sign
        issues = lx.validate_algebra(lx.LieAlgebra(c))
        anti = [i for i in issues if i["identity"] == "antisymmetry"]
        assert any(tuple(i["indices"]) == (0, 1, 2) for i in anti)

    def test_jacobi_violation_reported(self):
        # [e0,e1]=e2, [e0,e2]=e1 with [e1,e2]=0 breaks Jacobi on (0,1,2)
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
        c[0, 2, 1], c[2, 0, 1] = 1.0, -1.0
        alg = lx.LieAlgebra(c)
        oracle = brute_force_jacobi_residual(c)
        issues = [i for i in lx.validate_algebra(alg) if i["identity"] == "jacobi"]
        assert oracle > 0.0 or issues == []
        if oracle > 0.0:
            assert issues
            assert max(i["residual"] for i in issues) == pytest.approx(oracle)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MalformedInputError):
            lx.LieAlgebra(np.zeros((2, 2, 3)))

    def test_zero_dimensional_algebra_legal(self):
        alg = lx.abelian_algebra(0)
        assert lx.validate_algebra(alg) == []
        assert lx.bracket(alg, np.zeros(0), np.zeros(0)).shape == (0,)


class TestValidateModule:
    def test_trivial_action_clean(self, sl2):
        assert lx.validate_module(sl2, lx.trivial_module(3, 2)) == []

    def test_adjoint_action_clean(self, sl2, heis3):
        # ad is a homomorphism whenever Jacobi holds; checked numerically
        for alg in (sl2, heis3):
            assert lx.validate_module(alg, lx.adjoint_module(alg)) == []

    def test_violation_located_on_heis3(self, heis3):
        j = np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = np.stack([j, j, np.eye(2)])
        issues = lx.validate_module(heis3, lx.ModuleAction(rho=rho))
        assert any(tuple(i["indices"]) == (0, 1) for i in issues)

    def test_dimension_mismatch_rejected(self, heis3):
        with pytest.raises(MalformedInputError):
            lx.validate_module(heis3, lx.trivial_module(2, 1))

    def test_two_bad_pairs_match_the_per_pair_reference(self, rng):
        # on abelian R^3, rho_0 and rho_1 commute and neither commutes with rho_2
        rho = np.stack([np.diag(rng.normal(size=2)), np.diag(rng.normal(size=2)),
                        rng.normal(size=(2, 2))])
        alg, tol = lx.abelian_algebra(3), lx.algebra.DEFAULT_TOL_ALG
        reference = []
        for i in range(3):
            for j in range(i + 1, 3):
                lhs = np.einsum("k,kab->ab", alg.structure_constants[i, j], rho)
                res = float(np.max(np.abs(lhs - (rho[i] @ rho[j] - rho[j] @ rho[i]))))
                if res > tol:
                    reference.append(("homomorphism", (i, j), res))
        issues = lx.validate_module(alg, lx.ModuleAction(rho=rho), tol)
        assert [(i["identity"], tuple(i["indices"])) for i in issues] == [r[:2] for r in reference]
        assert [tuple(i["indices"]) for i in issues] == [(0, 2), (1, 2)]
        assert np.allclose([i["residual"] for i in issues], [r[2] for r in reference],
                           rtol=0, atol=1e-15)


class TestBracket:
    def test_heis3_generators(self, heis3):
        e = np.eye(3)
        assert np.allclose(lx.bracket(heis3, e[0], e[1]), e[2])

    def test_sl2_e_f_equals_h(self, sl2):
        e = np.eye(3)
        assert np.allclose(lx.bracket(sl2, e[1], e[2]), e[0])

    @given(x=st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_bracket_with_self_vanishes(self, x):
        sl2 = lx.sl2_algebra()
        v = np.array(x)
        assert np.allclose(lx.bracket(sl2, v, v), 0.0)

    @given(
        data=st.lists(st.floats(-5, 5), min_size=9, max_size=9),
        alpha=st.floats(-3, 3),
        beta=st.floats(-3, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, data, alpha, beta):
        alg = lx.heisenberg3_algebra()
        x, xp, y = (np.array(data[i : i + 3]) for i in (0, 3, 6))
        lhs = lx.bracket(alg, alpha * x + beta * xp, y)
        rhs = alpha * lx.bracket(alg, x, y) + beta * lx.bracket(alg, xp, y)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_jacobi_property_random_vectors(self, sl2, rng):
        n = sl2.dim
        for _ in range(50):
            x, y, z = rng.normal(size=(3, n))
            total = (
                lx.bracket(sl2, x, lx.bracket(sl2, y, z))
                + lx.bracket(sl2, y, lx.bracket(sl2, z, x))
                + lx.bracket(sl2, z, lx.bracket(sl2, x, y))
            )
            scale = max(1.0, np.max(np.abs([x, y, z])) ** 3)
            assert np.max(np.abs(total)) < n**3 * 1e-9 * scale

    def test_length_mismatch_rejected(self, heis3):
        with pytest.raises(MalformedInputError):
            lx.bracket(heis3, np.zeros(2), np.zeros(3))


class TestLattice:
    def test_integer_point(self):
        lat = lx.Lattice(generators=[[1.0]])
        res = lx.lattice_member(lat, np.array([3.0]))
        assert (res["verdict"], res["reason"]) == ("member", None)
        assert list(res["coefficients"]) == [3]

    def test_half_integer_rejected(self):
        lat = lx.Lattice(generators=[[1.0]])
        assert lx.lattice_member(lat, np.array([0.5]))["verdict"] == "not_member"

    def test_two_generator_example(self):
        # residual 1e-9 < tol 1e-6 for v = (2, 4.000000001) in <(1,0),(0,2)>
        lat = lx.Lattice(generators=[[1.0, 0.0], [0.0, 2.0]])
        res = lx.lattice_member(lat, np.array([2.0, 4.000000001]), 1e-6)
        assert res["verdict"] == "member"
        assert list(res["coefficients"]) == [2, 2]
        assert res["residual"] < 1e-6

    def test_ambiguity_band_is_indeterminate(self):
        lat = lx.Lattice(generators=[[1.0]])
        for tol_lat, err in ((1e-6, 0.0), (1e-7, 9e-7)):  # the band of tol_lat + err
            res = lx.lattice_member(lat, np.array([1.0 + 5e-6]), tol_lat, err)
            assert (res["verdict"], res["reason"]) == ("indeterminate", "band")

    def test_a_tolerance_reaching_half_the_spacing_decides_nothing(self):
        # a ball of radius 0.5 around 0.49 holds 0 and 1: no verdict is vacuous
        lat = lx.Lattice(generators=[[1.0]])
        for tol in (0.5, 0.6):
            for v in (0.49, 3.0):
                res = lx.lattice_member(lat, np.array([v]), tol)
                assert (res["verdict"], res["reason"]) == ("indeterminate", "tolerance")
        stack = np.array([[0.0], [0.25]])
        res = lx.algebra.lattice_verdict(lat, stack, lx.reduce_mod_lattice(lat, stack), 0.5)
        assert (res["verdict"], res["reason"]) == (["indeterminate"] * 2, ["tolerance"] * 2)
        assert lx.lattice_member(lat, np.array([0.49]), 0.499)["verdict"] == "member"
        # tol_lat + err is what reaches half the spacing; the reason is the
        # estimate when err alone reaches it
        for tol_lat, err, expected in ((0.249, 0.25, ("member", None)), (0.25, 0.25, ("indeterminate", "tolerance")),
                                       (1e-6, 0.5, ("indeterminate", "estimate"))):
            res = lx.lattice_member(lat, np.array([0.49]), tol_lat, err)
            assert (res["verdict"], res["reason"]) == expected

    def test_a_tolerance_reaching_half_the_spacing_keeps_not_member(self):
        # the residual is the distance to the nearest lattice point, so 50 is
        # far from every point of the lattice at tol 0.6, however wide the ball
        lat = lx.Lattice([[1, 0], [0, 100]])
        res = lx.lattice_member(lat, (0, 50), 0.6)
        assert (res["verdict"], res["residual"]) == ("not_member", 50.0)
        assert lx.lattice_member(lat, (0, 5), 0.6)["verdict"] == "indeterminate"  # the band
        assert lx.lattice_member(lat, (0, 0.1), 0.6)["verdict"] == "indeterminate"  # not member

    @pytest.mark.parametrize("value", [0.25, 0.3, 0.7, 1.25])
    def test_far_from_integer_is_not_member(self, value):
        lat = lx.Lattice(generators=[[1.0]])
        assert lx.lattice_member(lat, np.array([value]))["verdict"] == "not_member"

    def test_band_ends_at_band_factor(self):
        lat = lx.Lattice(generators=[[1.0]])
        edge = lx.algebra.LATTICE_BAND_FACTOR * 1e-6
        assert lx.lattice_member(lat, np.array([2.0 + 0.5 * edge]), 1e-6)["verdict"] == (
            "indeterminate"
        )
        assert lx.lattice_member(lat, np.array([2.0 + 2.0 * edge]), 1e-6)["verdict"] == (
            "not_member"
        )

    def test_two_dimensional_band(self):
        gens = np.array([[1.0, 0.0], [0.5, 2.0]])
        lat = lx.Lattice(generators=gens)

        def verdict(coeffs):
            return lx.lattice_member(lat, gens.T @ np.asarray(coeffs), 1e-6)["verdict"]

        assert verdict([2.0, -1.0]) == "member"
        assert verdict([2.0 + 5e-6, -1.0]) == "indeterminate"
        assert verdict([2.0, -1.3]) == "not_member"
        assert verdict([2.0 + 5e-6, -0.7]) == "not_member"  # one coefficient far off

    @pytest.mark.parametrize(
        "spacing, offset, expected",
        [
            (1e-3, 5e-7, "member"),
            (1e-3, 5e-6, "indeterminate"),
            (1e-3, 2e-4, "not_member"),
            (1e3, 5e-7, "member"),
            (1e3, 5e-6, "indeterminate"),
            (1e3, 5e-5, "not_member"),
        ],
    )
    def test_band_is_in_the_units_of_the_value(self, spacing, offset, expected):
        lat = lx.Lattice(generators=[[spacing]])
        res = lx.lattice_member(lat, np.array([7 * spacing + offset]), 1e-6)
        assert res["verdict"] == expected
        assert list(res["coefficients"]) == [7]
        assert res["residual"] == pytest.approx(offset, rel=1e-6)

    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.1, 2.5])
    def test_reduction_is_nearest_point(self, angle, rng):
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        gens = np.array([[1.0, 0.0], [0.95, 0.05]]) @ rotation.T
        lat = lx.Lattice(generators=gens)
        box = np.array(list(itertools.product(range(-80, 81), repeat=2)), dtype=float)
        for v in rng.uniform(-2.0, 2.0, size=(40, 2)):
            got = lx.reduce_mod_lattice(lat, v)
            nearest = np.min(np.linalg.norm(v - box @ gens, axis=1))
            assert np.linalg.norm(got) <= nearest + 1e-12
            assert lx.lattice_member(lat, v - got)["verdict"] == "member"

    def test_generators_are_members(self, rng):
        gens = rng.normal(size=(3, 5))
        lat = lx.Lattice(generators=gens)
        for i, g in enumerate(gens):
            res = lx.lattice_member(lat, g)
            assert res["verdict"] == "member"
            expected = np.zeros(3, dtype=int)
            expected[i] = 1
            assert np.array_equal(res["coefficients"], expected)

    def test_membership_additive(self, rng):
        gens = rng.normal(size=(2, 4))
        lat = lx.Lattice(generators=gens)
        v = gens.T @ np.array([2.0, -1.0])
        w = gens.T @ np.array([0.0, 3.0])
        assert lx.lattice_member(lat, v)["verdict"] == "member"
        assert lx.lattice_member(lat, w)["verdict"] == "member"
        assert lx.lattice_member(lat, v + w)["verdict"] == "member"

    def test_off_span_rejected(self):
        lat = lx.Lattice(generators=[[1.0, 0.0]])
        assert lx.lattice_member(lat, np.array([1.0, 0.5]))["verdict"] == "not_member"

    def test_rank_deficient_generators_error(self):
        with pytest.raises(InvalidLatticeError):
            lx.Lattice(generators=[[1.0, 0.0], [2.0, 0.0]])

    def test_rank_check_is_relative_to_scale(self):
        lat = lx.Lattice(generators=[[1e-7]])
        assert lx.lattice_member(lat, np.array([3e-7]), 1e-9)["verdict"] == "member"
        with pytest.raises(InvalidLatticeError):
            lx.Lattice(generators=[[1.0, 0.0], [1.0, 1e-9]])

    def test_more_generators_than_dimensions_rejected(self):
        with pytest.raises(InvalidLatticeError):
            lx.Lattice(generators=[[1.0], [2.5]])

    def test_coefficients_beyond_double_resolution_rejected(self):
        lat = lx.Lattice(generators=[[1.0]])
        with pytest.raises(lx.LieExtError):
            lx.lattice_member(lat, np.array([1e300]))
        with pytest.raises(lx.LieExtError):
            lx.lattice_member(lat, np.array([np.nan]))

    def test_rank_zero_lattice(self):
        lat = lx.Lattice(generators=np.zeros((0, 2)))
        assert lx.lattice_member(lat, np.zeros(2))["verdict"] == "member"
        assert lx.lattice_member(lat, np.array([0.1, 0.0]))["verdict"] == "not_member"

    @pytest.mark.parametrize(
        "offset, expected", [(5e-7, "member"), (5e-6, "indeterminate"), (2e-4, "not_member")]
    )
    def test_band_at_rank_zero(self, offset, expected):
        lat = lx.Lattice(generators=np.zeros((0, 1)))
        res = lx.lattice_member(lat, np.array([offset]), 1e-6)
        assert res["verdict"] == expected
        assert len(res["coefficients"]) == 0 and res["residual"] == offset

    def test_rank_zero_rejects_non_finite_values(self):
        with pytest.raises(lx.LieExtError):
            lx.lattice_member(lx.Lattice(generators=np.zeros((0, 1))), np.array([np.nan]))

    def test_reduce_mod_lattice(self):
        lat = lx.Lattice(generators=[[1.0]])
        assert lx.reduce_mod_lattice(lat, np.array([2.25]))[0] == pytest.approx(0.25)
        assert lx.reduce_mod_lattice(lat, np.array([-0.75]))[0] == pytest.approx(0.25)

    def test_reduce_mod_lattice_on_a_stack(self, rng):
        lat = lx.Lattice(generators=[[1.0, 0.3], [0.2, 2.0]])
        stack = 5.0 * rng.normal(size=(3, 4, 2))
        each = [[lx.reduce_mod_lattice(lat, v) for v in row] for row in stack]
        assert np.array_equal(lx.reduce_mod_lattice(lat, stack), np.array(each))
        with pytest.raises(MalformedInputError):
            lx.reduce_mod_lattice(lat, np.zeros(3))


class TestHelpers:
    def test_adjoint_matches_bracket(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        for _ in range(10):
            x = rng.normal(size=3)
            i = rng.integers(0, 3)
            e = np.eye(3)[i]
            assert np.allclose(adj.rho[i] @ x, lx.bracket(sl2, e, x))

    def test_change_of_basis_preserves_validity(self, sl2, rng):
        p = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        moved = change_of_basis(sl2, p)
        assert lx.validate_algebra(moved, 1e-8) == []

    def test_direct_sum_validates(self, sl2, heis3):
        both = direct_sum(sl2, heis3)
        assert both.dim == 6
        assert lx.validate_algebra(both) == []
