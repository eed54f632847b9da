import math
import operator

import numpy as np
import pytest

import lieext as lx
import lieext.cohomology
from lieext.errors import MalformedInputError


def oracle_d_matrix(alg, mod, n):
    """Independent coboundary-matrix assembly.

    Evaluates the coboundary on every increasing multi-index through the
    cochain's general multilinear evaluator (minor expansion) rather than
    the basis-lookup route used by the library, summing the formula
    term by term with explicit index lists.
    """
    m = mod.coeff_dim
    dim = alg.dim
    sources = lx.increasing_tuples(dim, n)
    targets = lx.increasing_tuples(dim, n + 1)
    mat = np.zeros((len(targets) * m, len(sources) * m))
    eye = np.eye(dim)
    for col_pos, src in enumerate(sources):
        for col_a in range(m):
            vec = np.zeros(len(sources) * m)
            vec[col_pos * m + col_a] = 1.0
            omega = lx.Cochain.from_vector(n, dim, m, vec)
            for row_pos, tgt in enumerate(targets):
                args = [eye[i] for i in tgt]
                val = np.zeros(m)
                for i in range(n + 1):
                    rest = args[:i] + args[i + 1 :]
                    val += (-1.0) ** i * (mod.rho[tgt[i]] @ omega(*rest))
                for i in range(n + 1):
                    for j in range(i + 1, n + 1):
                        rest = [
                            args[p] for p in range(n + 1) if p not in (i, j)
                        ]
                        br = lx.bracket(alg, args[i], args[j])
                        val += (-1.0) ** (i + j) * omega(br, *rest)
                mat[row_pos * m : (row_pos + 1) * m, col_pos * m + col_a] = val
    return mat


def heisenberg_algebra(k):
    """h_{2k+1}: [e_i, e_{k+i}] = e_{2k} for i < k, every other bracket zero."""
    n = 2 * k + 1
    c = np.zeros((n, n, n))
    for i in range(k):
        c[i, k + i, n - 1] = 1.0
        c[k + i, i, n - 1] = -1.0
    return lx.LieAlgebra(c)


def oracle_betti(alg, mod, n):
    """Brute-force betti via ranks of independently assembled matrices."""
    d_n = oracle_d_matrix(alg, mod, n)
    dim_cn = d_n.shape[1]
    rank_n = np.linalg.matrix_rank(d_n) if d_n.size else 0
    if n == 0:
        rank_prev = 0
    else:
        d_prev = oracle_d_matrix(alg, mod, n - 1)
        rank_prev = np.linalg.matrix_rank(d_prev) if d_prev.size else 0
    return (dim_cn - rank_n) - rank_prev


class TestCochain:
    def test_component_count(self, sl2):
        om = lx.zero_cochain(2, 3, 2)
        assert len(om.components) == 3  # C(3, 2)

    def test_alternation_exact(self, rng):
        om = lx.random_cochain(3, 4, 2, rng)
        x, y, z = rng.normal(size=(3, 4))
        assert np.allclose(om(x, y, z), -om(y, x, z))
        assert np.all(om(x, x, z) == 0.0)

    def test_multilinear_evaluation_matches_components(self, rng):
        om = lx.random_cochain(2, 4, 3, rng)
        eye = np.eye(4)
        for key, val in om.components.items():
            assert np.allclose(om(eye[key[0]], eye[key[1]]), val)

    def test_vector_round_trip(self, rng):
        om = lx.random_cochain(2, 5, 2, rng)
        back = lx.Cochain.from_vector(2, 5, 2, om.to_vector())
        assert all(
            np.array_equal(back.components[k], om.components[k])
            for k in om.components
        )

    def test_bad_component_indices_rejected(self):
        with pytest.raises(MalformedInputError):
            lx.Cochain(2, 3, 1, {(1, 0): np.array([1.0])})

    def test_dict_and_vector_input_agree(self, rng):
        vec = rng.normal(size=10 * 2)
        pairs = {key: vec[2 * p : 2 * p + 2] for p, key in enumerate(lx.increasing_tuples(5, 3))}
        from_dict = lx.Cochain(3, 5, 2, pairs)
        from_vec = lx.Cochain.from_vector(3, 5, 2, vec)
        assert from_dict.values.shape == from_vec.values.shape == (10, 2)
        assert np.array_equal(from_dict.values, from_vec.values)
        assert np.array_equal(from_dict.to_vector(), vec)
        assert all(np.array_equal(pairs[k], v) for k, v in from_vec.components.items())

    def test_storage_is_one_read_only_array(self, rng):
        vec = rng.normal(size=3)
        om = lx.Cochain.from_vector(2, 3, 1, vec)
        assert np.shares_memory(om.to_vector(), vec)
        with pytest.raises(ValueError):
            om.to_vector()[0] = 1.0
        with pytest.raises(TypeError):
            om.components[(0, 1)] = np.ones(1)


class TestApplyD:
    def test_zero_maps_to_zero(self, heis3):
        mod = lx.trivial_module(3, 1)
        assert lx.apply_d(heis3, mod, lx.zero_cochain(2, 3, 1)).max_norm() == 0.0

    def test_heis3_dual_basis_functional(self, heis3):
        # d(lambda)(X, Y) = -lambda([X, Y]) for trivial coefficients
        mod = lx.trivial_module(3, 1)
        lam = lx.Cochain(1, 3, 1, {(2,): [1.0]})
        d = lx.apply_d(heis3, mod, lam)
        eye = np.eye(3)
        for i, j in lx.increasing_tuples(3, 2):
            expected = -lx.bracket(heis3, eye[i], eye[j])[2]
            assert d.components[(i, j)][0] == pytest.approx(expected)
        assert d.components[(0, 1)][0] == pytest.approx(-1.0)

    def test_degree_zero_is_module_action(self, sl2, rng):
        mod = lx.adjoint_module(sl2)
        v = rng.normal(size=3)
        d = lx.apply_d(sl2, mod, lx.Cochain(0, 3, 3, {(): v}))
        for (i,), val in d.components.items():
            assert np.allclose(val, mod.rho[i] @ v)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_d_squared_zero(self, degree, rng):
        algs = [
            (lx.sl2_algebra(), lx.adjoint_module(lx.sl2_algebra())),
            (lx.heisenberg3_algebra(), lx.trivial_module(3, 1)),
            (
                lx.direct_sum(lx.sl2_algebra(), lx.heisenberg3_algebra()),
                lx.trivial_module(6, 2),
            ),
        ]
        for alg, mod in algs:
            if degree > alg.dim:
                continue
            om = lx.random_cochain(degree, alg.dim, mod.coeff_dim, rng)
            dd = lx.apply_d(alg, mod, lx.apply_d(alg, mod, om))
            assert dd.max_norm() < 1e-8 * alg.dim**3

    def test_matches_oracle_matrix(self, sl2, rng):
        h5 = lx.change_of_basis(
            heisenberg_algebra(2), rng.normal(size=(5, 5)) + 3 * np.eye(5)
        )
        sl2_r1 = lx.direct_sum(sl2, lx.abelian_algebra(1))
        # commuting matrices: a representation of the abelian R^3
        a = rng.normal(size=(2, 2))
        x, y = rng.normal(size=(2, 3))
        rho = np.stack([x[i] * a + y[i] * a @ a for i in range(3)])
        cases = [
            (sl2, lx.adjoint_module(sl2)),
            (h5, lx.adjoint_module(h5)),
            (sl2_r1, lx.adjoint_module(sl2_r1)),
            (lx.abelian_algebra(3), lx.ModuleAction(rho=rho)),
        ]
        for alg, mod in cases:
            for n in range(alg.dim + 1):
                assert np.allclose(
                    lx.coboundary_matrix(alg, mod, n),
                    oracle_d_matrix(alg, mod, n),
                    rtol=0.0,
                    atol=1e-12,
                ), (alg.dim, n)


class TestComplexSlice:
    def test_abelian_r2_degree1_matrix_is_zero(self, r2):
        sl = lx.build_complex_slice(r2, lx.trivial_module(2, 1), 1)
        assert sl.d_matrix.shape == (1, 2)
        assert not np.any(sl.d_matrix)

    def test_sl2_degree1_rank_three(self, sl2):
        sl = lx.build_complex_slice(sl2, lx.trivial_module(3, 1), 1)
        assert np.linalg.matrix_rank(sl.d_matrix) == 3

    def test_heis3_degree2_kernel_and_image(self, heis3):
        sl = lx.build_complex_slice(heis3, lx.trivial_module(3, 1), 2)
        assert sl.cocycle_dim == 3
        assert sl.coboundary_dim == 1

    def test_d_compose_zero_at_matrix_level(self, sl2):
        mod = lx.adjoint_module(sl2)
        d1 = lx.coboundary_matrix(sl2, mod, 1)
        d2 = lx.coboundary_matrix(sl2, mod, 2)
        assert np.max(np.abs(d2 @ d1)) < 1e-9 * d1.size

    def test_rank_nullity(self, heis3, sl2):
        for alg in (heis3, sl2):
            mod = lx.adjoint_module(alg)
            for n in range(alg.dim + 1):
                sl = lx.build_complex_slice(alg, mod, n)
                rank = sl.d_matrix.shape[1] - sl.cocycle_dim
                assert sl.cocycle_dim + rank == len(
                    lx.increasing_tuples(alg.dim, n)
                ) * mod.coeff_dim

    def test_top_degree_kernel_is_everything(self, heis3):
        sl = lx.build_complex_slice(heis3, lx.trivial_module(3, 1), 3)
        assert sl.cocycle_dim == sl.cochain_dim == 1


class TestCohomologyTable:
    def _cases(self, rng):
        sl2_h3 = lx.direct_sum(lx.sl2_algebra(), lx.heisenberg3_algebra())
        h5 = lx.change_of_basis(
            heisenberg_algebra(2), rng.normal(size=(5, 5)) + 3 * np.eye(5)
        )
        return [
            (sl2_h3, lx.trivial_module(6, 2)),
            (h5, lx.adjoint_module(h5)),
            (lx.abelian_algebra(0), lx.trivial_module(0, 1)),
        ]

    def test_each_d_n_assembled_once(self, monkeypatch, rng):
        calls = []
        original = lieext.cohomology.coboundary_matrix

        def counting(alg, mod, n):
            calls.append(n)
            return original(alg, mod, n)

        monkeypatch.setattr(lieext.cohomology, "coboundary_matrix", counting)
        for alg, mod in self._cases(rng):
            calls.clear()
            lx.cohomology_table(alg, mod, range(alg.dim + 1))
            assert sorted(calls) == list(range(alg.dim + 1))  # not 2 dim + 1

    def test_degrees_checked_before_any_assembly(self, monkeypatch, sl2):
        monkeypatch.setattr(lieext.cohomology, "coboundary_matrix", None)
        with pytest.raises(MalformedInputError, match="degree 4 outside 0..3"):
            lx.cohomology_table(sl2, lx.trivial_module(3, 1), [0, 1, 4])

    def test_matches_complex_slices(self, rng):
        for alg, mod in self._cases(rng):
            table = lx.cohomology_table(alg, mod, range(alg.dim + 1))
            for n, row in enumerate(table):
                sl = lx.build_complex_slice(alg, mod, n)
                assert (
                    row["degree"],
                    row["cochain_dim"],
                    row["cocycle_dim"],
                    row["coboundary_dim"],
                    row["betti"],
                ) == (n, sl.cochain_dim, sl.cocycle_dim, sl.coboundary_dim, sl.betti)

    @pytest.mark.parametrize("eps, rank", [(1e-13, 1), (1e-15, 0)])
    def test_rank_margin_near_the_cutoff(self, eps, rank):
        mod = lx.ModuleAction(rho=np.array([[[eps]]]))
        (row,) = lx.cohomology_table(lx.abelian_algebra(1), mod, [0])
        assert row["cocycle_dim"] == 1 - rank
        assert 1.0 < row["rank_margin"] < 100.0

    def test_rank_margin_of_sl2_adjoint(self, sl2):
        table = lx.cohomology_table(sl2, lx.adjoint_module(sl2), range(4))
        assert [row["betti"] for row in table] == [0, 0, 0, 0]
        assert all(row["rank_margin"] > 1e6 for row in table[:3])
        assert table[3]["rank_margin"] is None  # d_3 maps into C^4 = 0


class TestBetti:
    def test_desk_values_match_oracle(self, r2, sl2, heis3):
        cases = [(r2, 1), (sl2, 0), (heis3, 2)]
        for alg, expected in cases:
            mod = lx.trivial_module(alg.dim, 1)
            assert lx.betti(alg, mod, 2) == expected
            assert oracle_betti(alg, mod, 2) == expected

    def test_whitehead_for_sl2_adjoint(self, sl2):
        adj = lx.adjoint_module(sl2)
        assert [lx.betti(sl2, adj, p) for p in range(4)] == [0, 0, 0, 0]

    def test_whitehead_for_sl2_standard(self, sl2):
        # h, e, f acting on R^2: nontrivial and irreducible, so the Casimir
        # acts invertibly on cochains and H^p vanishes in every degree
        h, e, f = [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
        rho = np.array([h, e, f])
        std = lx.ModuleAction(rho=rho)
        assert lx.validate_module(sl2, std) == []
        assert [lx.betti(sl2, std, p) for p in range(4)] == [0, 0, 0, 0]

    def test_basis_independence(self, heis3, rng):
        mod = lx.trivial_module(3, 1)
        p = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        moved = lx.change_of_basis(heis3, p)
        for n in range(4):
            assert lx.betti(moved, mod, n) == lx.betti(heis3, mod, n)

    def test_abelian_r10_binomial(self):
        alg = lx.abelian_algebra(10)
        mod = lx.trivial_module(10, 1)
        assert [lx.betti(alg, mod, p) for p in range(11)] == [
            math.comb(10, p) for p in range(11)
        ]

    def test_heisenberg_h9_santharoubane(self):
        # dim H^p(h_{2k+1}) = C(2k, p) - C(2k, p - 2) for p <= k, and
        # Poincare duality b_p = b_{2k+1-p} above
        alg = heisenberg_algebra(4)
        mod = lx.trivial_module(9, 1)
        low = [math.comb(8, p) - (math.comb(8, p - 2) if p >= 2 else 0) for p in range(5)]
        assert [lx.betti(alg, mod, p) for p in range(10)] == low + low[::-1]

    def test_zero_dimensional_algebra(self):
        alg = lx.abelian_algebra(0)
        mod = lx.trivial_module(0, 1)
        assert lx.betti(alg, mod, 0) == 1  # invariants of the trivial module

    def test_representatives_are_independent_cocycles(self, heis3):
        mod = lx.trivial_module(3, 1)
        sl = lx.build_complex_slice(heis3, mod, 2)
        reps = lx.cohomology_representatives(sl)
        assert len(reps) == sl.betti == 2
        for rep in reps:
            assert lx.is_cocycle(heis3, mod, rep)
        stack = np.stack([r.to_vector() for r in reps])
        assert np.linalg.matrix_rank(stack) == 2


class TestIsCocycle:
    def test_abelian_area_form(self, r2):
        mod = lx.trivial_module(2, 1)
        om = lx.cochain_from_pairs(2, 1, {(0, 1): 1.0})
        assert lx.is_cocycle(r2, mod, om)

    def test_sl2_trivial_coefficients_everything_closed(self, sl2):
        # C^3 is one-dimensional and the coboundary cancels identically, so
        # every 2-cochain on sl2 with trivial coefficients is a cocycle.
        mod = lx.trivial_module(3, 1)
        om = lx.cochain_from_pairs(3, 1, {(0, 1): 1.0})
        assert lx.is_cocycle(sl2, mod, om)
        d2 = lx.coboundary_matrix(sl2, mod, 2)
        assert not np.any(d2)

    def test_adjoint_coefficients_have_non_cocycles(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        om = lx.random_cochain(2, 3, 3, rng)
        assert not lx.is_cocycle(sl2, adj, om)

    def test_coboundaries_are_cocycles(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        lam = lx.random_cochain(1, 3, 3, rng)
        assert lx.is_cocycle(sl2, adj, lx.apply_d(sl2, adj, lam))


class TestGroupDelta:
    def test_zero_cochain(self):
        f = lx.GroupCochain(degree=2, eval=lambda g, h: np.zeros(1))
        v = lx.apply_delta(None, f, [1.0, 2.0, 3.0], compose=operator.add)
        assert np.all(v == 0.0)

    def test_product_cochain_on_reals_is_cocycle(self, rng):
        # x.f(y,z) - f(x+y,z) + f(x,y+z) - f(x,y) = yz - (x+y)z + x(y+z) - xy = 0
        f = lx.GroupCochain(degree=2, eval=lambda x, y: np.array([x * y]))
        for _ in range(20):
            triple = rng.normal(size=3)
            v = lx.apply_delta(None, f, list(triple), compose=operator.add)
            assert abs(v[0]) < 1e-12

    def test_normalization_identity_slot(self, trans2, rng):
        chart = trans2.chart
        f = lx.GroupCochain(
            degree=1, eval=lambda g: np.array([chart.to_coords(g)[0] ** 2])
        )
        g = trans2.chart.from_coords(rng.normal(size=2))
        v = lx.apply_delta(None, f, [g, trans2.identity])
        assert np.allclose(v, 0.0)

    def test_delta_squared_vanishes_on_matrix_groups(self, rng):
        group = lx.heisenberg_group()

        def f_eval(g, h):
            return np.array([g[0, 1] * h[1, 2] + 0.5 * g[0, 2] * h[0, 1]])

        f = lx.GroupCochain(degree=2, eval=f_eval)
        df = lx.delta_cochain(None, f)
        for _ in range(25):
            els = [group.exp(group.realize(rng.normal(size=3))) for _ in range(4)]
            v = lx.apply_delta(None, df, els)
            assert np.max(np.abs(v)) < 1e-8

    def test_delta_squared_degree1(self, rng):
        group = lx.heisenberg_group()
        f = lx.GroupCochain(degree=1, eval=lambda g: np.array([g[0, 1] * g[0, 2]]))
        df = lx.delta_cochain(None, f)
        for _ in range(25):
            els = [group.exp(group.realize(rng.normal(size=3))) for _ in range(3)]
            assert np.max(np.abs(lx.apply_delta(None, df, els))) < 1e-9

    def test_wrong_tuple_length_rejected(self):
        f = lx.GroupCochain(degree=2, eval=lambda g, h: np.zeros(1))
        with pytest.raises(MalformedInputError):
            lx.apply_delta(None, f, [1.0, 2.0], compose=operator.add)
