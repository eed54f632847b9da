import itertools
import math
import types

import numpy as np
import pytest

import lieext as lx
import lieext.cohomology
from lieext.errors import LieExtError, MalformedInputError

from conftest import change_of_basis, direct_sum, random_cochain


def oracle_d_matrix(alg, mod, n):
    """Independent coboundary-matrix assembly.

    Evaluates the coboundary on every increasing multi-index through the
    cochain's general multilinear evaluator (minor expansion) rather than
    the basis-lookup route used by the library, summing the formula
    term by term with explicit index lists.
    """
    m = mod.coeff_dim
    dim = alg.dim
    sources = list(itertools.combinations(range(dim), n))
    targets = list(itertools.combinations(range(dim), n + 1))
    mat = np.zeros((len(targets) * m, len(sources) * m))
    eye = np.eye(dim)
    for col_pos, src in enumerate(sources):
        for col_a in range(m):
            vec = np.zeros(len(sources) * m)
            vec[col_pos * m + col_a] = 1.0
            omega = lx.Cochain(n, dim, m, vec)
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


# (degree, alg_dim, coeff_dim, pairs, vec): keyed input and the flat vector it reads as
FULL = np.linspace(-1.0, 1.0, 20)
KEYED_INPUTS = [
    (3, 5, 2, dict(zip(itertools.combinations(range(5), 3), FULL.reshape(10, 2))), FULL),
    (2, 3, 1, {(1, 2): 4.0}, [0.0, 0.0, 4.0]),  # missing keys are zero; a scalar when m = 1
    (1, 3, 2, {(2,): [1.0, 2.0]}, [0.0, 0.0, 0.0, 0.0, 1.0, 2.0]),
    (0, 3, 2, {(): [1.0, 2.0]}, [1.0, 2.0]),
    (2, 4, 2, {}, np.zeros(12)),
]


class TestCochain:
    def test_component_count(self, sl2):
        om = lx.Cochain(2, 3, 2)
        assert om.values.shape == (3, 2)  # C(3, 2)

    def test_alternation_exact(self, rng):
        om = random_cochain(3, 4, 2, rng)
        x, y, z = rng.normal(size=(3, 4))
        assert np.allclose(om(x, y, z), -om(y, x, z))
        assert np.all(om(x, x, z) == 0.0)
        # on stacks the zero is exact at each point with two equal arguments
        xs, ys, zs = rng.normal(size=(3, 6, 4))
        ys[::2] = xs[::2]
        values = om(xs, ys, zs)
        assert values.shape == (6, 2)
        assert np.all(values[::2] == 0.0) and np.all(values[1::2] != 0.0)
        broadcast = om(zs[0], xs, zs)  # one vector against stacks: equal at point 0
        assert np.all(broadcast[0] == 0.0) and np.all(broadcast[1:] != 0.0)

    def test_multilinear_evaluation_matches_components(self, rng):
        om = random_cochain(2, 4, 3, rng)
        eye = np.eye(4)
        for key, val in zip(itertools.combinations(range(4), 2), om.values):
            assert np.allclose(om(eye[key[0]], eye[key[1]]), val)
        for dtype in (int, np.uint8):  # integers are evaluated as floats: no wrap-around
            assert np.array_equal(om(eye[1].astype(dtype), eye[0].astype(dtype)), -om.values[0])

    def test_stacked_call_is_the_per_point_calls(self, rng):
        # With identity values a cochain's value is its minors, bit for bit
        # at every point of a stack.  A stacked value is those minors times
        # the values; that product is not compared with the per-point one,
        # since a BLAS product of one row can round apart from one of a stack.
        for degree, dim in [(n, d) for n in range(4) for d in range(n, 6)]:
            rows = math.comb(dim, degree)
            minors = lx.Cochain(degree, dim, rows, np.eye(rows))
            args = list(rng.normal(size=(degree, 5, 4, dim)))
            if degree > 1:
                args[0] = args[0][0, 0]  # one vector against the stacks
            stacked = minors(*args)
            assert stacked.shape == ((5, 4) if degree else ()) + (rows,)
            for point in np.ndindex(5, 4):
                single = minors(*(a if a.ndim == 1 else a[point] for a in args))
                assert np.array_equal(single, stacked[point] if degree else stacked)
            om = random_cochain(degree, dim, 2, rng)
            assert np.array_equal(om(*args), stacked @ om.values)

    def test_malformed_arguments_rejected(self):
        om = lx.Cochain(2, 3, 1, [1, 2, 3])
        vectors = ("arguments must be real vectors of length 3, or stacks of them that "
                   "broadcast together")
        cases = [
            ((np.ones(3),), "degree-2 cochain called with 1 arguments"),
            ((np.ones(3), np.ones(3), np.ones(3)), "degree-2 cochain called with 3 arguments"),
            ((np.ones(3), np.ones(2)), vectors),  # lengths differ
            ((np.ones(1), np.ones(3)), vectors),  # a length-1 vector does not broadcast in
            ((np.ones((2, 4)), np.ones((2, 4))), vectors),  # wrong last axis
            ((np.ones((2, 3)), np.ones((3, 3))), vectors),  # stacks that do not broadcast
            (([[1, 2, 3], [1, 2]], np.ones(3)), vectors),  # ragged
            (("x", np.ones(3)), vectors),
            (("123", np.ones(3)), vectors),  # a string, also where it reads as numbers
            ((np.ones(3, dtype=complex), np.ones(3)), vectors),
            ((np.ones(3, dtype=bool), np.ones(3)), vectors),
            ((2.0, np.ones(3)), vectors),
        ]
        for args, message in cases:
            with pytest.raises(MalformedInputError) as err:
                om(*args)
            assert str(err.value) == message

    def test_vector_round_trip(self, rng):
        om = random_cochain(2, 5, 2, rng)
        back = lx.Cochain(2, 5, 2, om.to_vector())
        assert np.array_equal(back.values, om.values)

    def test_bad_component_indices_rejected(self):
        def unknown(key, degree=2):
            return (f"component indices {[key]} are not strictly increasing "
                    f"degree-{degree} tuples in range(3)")

        # decreasing, out of range, too short, too long keys; a non-tuple
        # key; a value of the wrong length; a value that is not a number,
        # also where it reads as one; a value that is not finite
        cases = [((3, 1, {key: [1.0], (0, 1): [1.0]}), unknown(key))
                 for key in [(1, 0), (0, 3), (0,), (0, 1, 2)]]
        cases += [
            ((3, 1, {0: 1.0}, 1), unknown(0, degree=1)),
            ((3, 2, {(0, 1): [1.0]}), "value for (0, 1) must be 2 numbers, got [1.0]"),
            ((3, 1, {(0, 1): "x"}), "value for (0, 1) must be 1 number, got 'x'"),
            ((3, 1, {(0, 1): "12"}), "value for (0, 1) must be 1 number, got '12'"),
            ((3, 2, {(1, 2): [1.0, "2"]}), "value for (1, 2) must be 2 numbers, got [1.0, '2']"),
        ]
        cases += [((3, 1, {(0, 2): value}), f"value for (0, 2) must be finite, got {value!r}")
                  for value in [float("nan"), float("inf"), -float("inf")]]
        for args, message in cases:
            with pytest.raises(MalformedInputError) as err:
                lx.cochain_from_pairs(*args)
            assert str(err.value) == message
        # nor does an array of strings or booleans read as numbers
        for values in (["12", float("nan"), 0], [True, False, True]):
            with pytest.raises(MalformedInputError) as err:
                lx.Cochain(2, 3, 1, values)
            assert str(err.value) == (
                f"cochain values must be real numbers, not dtype {np.asarray(values).dtype}")

    def test_dict_and_vector_input_agree(self):
        for degree, alg_dim, coeff_dim, pairs, vec in KEYED_INPUTS:
            from_dict = lx.cochain_from_pairs(alg_dim, coeff_dim, pairs, degree)
            from_vec = lx.Cochain(degree, alg_dim, coeff_dim, vec)
            shape = (math.comb(alg_dim, degree), coeff_dim)
            assert from_dict.values.shape == from_vec.values.shape == shape
            assert np.array_equal(from_dict.values, from_vec.values)
            assert np.array_equal(from_dict.to_vector(), vec)
            rows = dict(zip(itertools.combinations(range(alg_dim), degree), from_vec.values))
            assert all(np.array_equal(rows[k], np.reshape(v, coeff_dim)) for k, v in pairs.items())
        assert np.array_equal(lx.Cochain(2, 4, 2).values, np.zeros((6, 2)))  # no values: zero

    def test_storage_is_one_read_only_array(self, rng):
        vec = rng.normal(size=3)
        om = lx.Cochain(2, 3, 1, vec)
        assert np.shares_memory(om.to_vector(), vec)
        with pytest.raises(ValueError):
            om.to_vector()[0] = 1.0


class TestApplyD:
    def test_zero_maps_to_zero(self, heis3):
        mod = lx.trivial_module(3, 1)
        assert lx.apply_d(heis3, mod, lx.Cochain(2, 3, 1)).max_norm() == 0.0

    def test_heis3_dual_basis_functional(self, heis3):
        # d(lambda)(X, Y) = -lambda([X, Y]) for trivial coefficients
        mod = lx.trivial_module(3, 1)
        lam = lx.cochain_from_pairs(3, 1, {(2,): [1.0]}, degree=1)
        d = lx.apply_d(heis3, mod, lam)
        eye = np.eye(3)
        for (i, j), val in zip(itertools.combinations(range(3), 2), d.values):
            expected = -lx.bracket(heis3, eye[i], eye[j])[2]
            assert val[0] == pytest.approx(expected)
        assert d.values[0, 0] == pytest.approx(-1.0)  # the row of (0, 1)

    def test_degree_zero_is_module_action(self, sl2, rng):
        mod = lx.adjoint_module(sl2)
        v = rng.normal(size=3)
        d = lx.apply_d(sl2, mod, lx.cochain_from_pairs(3, 3, {(): v}, degree=0))
        for i, val in enumerate(d.values):
            assert np.allclose(val, mod.rho[i] @ v)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_d_squared_zero(self, degree, rng):
        algs = [
            (lx.sl2_algebra(), lx.adjoint_module(lx.sl2_algebra())),
            (lx.heisenberg3_algebra(), lx.trivial_module(3, 1)),
            (
                direct_sum(lx.sl2_algebra(), lx.heisenberg3_algebra()),
                lx.trivial_module(6, 2),
            ),
        ]
        for alg, mod in algs:
            if degree > alg.dim:
                continue
            om = random_cochain(degree, alg.dim, mod.coeff_dim, rng)
            dd = lx.apply_d(alg, mod, lx.apply_d(alg, mod, om))
            assert dd.max_norm() < 1e-8 * alg.dim**3

    def test_matches_oracle_matrix(self, sl2, rng):
        h5 = change_of_basis(
            heisenberg_algebra(2), rng.normal(size=(5, 5)) + 3 * np.eye(5)
        )
        sl2_r1 = direct_sum(sl2, lx.abelian_algebra(1))
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


def term_by_term_d_matrix(alg, mod, n):
    """d_n summed one term at a time in the plan's order: per row block the
    action terms, then the slot pairs ascending, each pair's k ascending."""
    dim, m = alg.dim, mod.coeff_dim
    cols = {key: p for p, key in enumerate(itertools.combinations(range(dim), n))}
    mat = np.zeros((math.comb(dim, n + 1) * m, len(cols) * m))
    for r, row in enumerate(itertools.combinations(range(dim), n + 1)):
        for p in range(n + 1):
            col = cols[row[:p] + row[p + 1 :]]
            term = (-1.0) ** p * mod.rho[row[p]]
            for a, b in itertools.product(range(m), repeat=2):
                mat[r * m + a, col * m + b] += term[a, b]
        for p, q in itertools.combinations(range(n + 1), 2):
            rest = row[:p] + row[p + 1 : q] + row[q + 1 :]
            for k in sorted(set(range(dim)) - set(rest)):
                key = tuple(sorted(rest + (k,)))
                term = (-1.0) ** (p + q + key.index(k)) * alg.structure_constants[row[p], row[q], k]
                for a in range(m):
                    mat[r * m + a, cols[key] * m + a] += term
    return mat


class TestTermTable:
    """coboundary_matrix sums the terms of a plan cached by (dim, n, m)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("dim", range(6))
    def test_entries_keep_the_bits_of_a_term_by_term_sum(self, dim, m, rng):
        # about half of c and rho exactly zero, so signed zeros meet every sum
        c = rng.normal(size=(dim,) * 3) * (rng.random((dim,) * 3) < 0.5)
        alg = lx.LieAlgebra(c - c.transpose(1, 0, 2))
        mod = lx.ModuleAction(rho=rng.normal(size=(dim, m, m)) * (rng.random((dim, m, m)) < 0.5))
        for n in range(dim + 1):
            got, want = lx.coboundary_matrix(alg, mod, n), term_by_term_d_matrix(alg, mod, n)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_same_shape_algebras_share_terms_not_values(self, rng):
        plan = lieext.cohomology._plan
        algs = [
            change_of_basis(
                direct_sum(lx.sl2_algebra(), lx.abelian_algebra(1)),
                rng.normal(size=(4, 4)) + 3 * np.eye(4),
            ),
            change_of_basis(
                direct_sum(lx.heisenberg3_algebra(), lx.abelian_algebra(1)),
                rng.normal(size=(4, 4)) + 3 * np.eye(4),
            ),
        ]
        before = plan.cache_info()
        for m in (1, 3):
            for alg in algs:
                mod = lx.ModuleAction(rho=rng.normal(size=(4, m, m)))
                for n in range(alg.dim + 1):
                    assert np.allclose(
                        lx.coboundary_matrix(alg, mod, n),
                        oracle_d_matrix(alg, mod, n),
                        rtol=0.0,
                        atol=1e-12,
                    ), (m, n)
        after = plan.cache_info()
        # 20 calls on 10 keys (4, n, m): at most one build per key
        assert after.misses - before.misses <= 10 and after.hits - before.hits >= 10

    def test_cached_arrays_are_read_only(self):
        index, source = lieext.cohomology._plan(4, 2, 2)
        assert index.size == source.size == lieext.cohomology._term_count(4, 2, 2) == 4 * (12 + 18)
        for a in (index, source):
            assert a.dtype == np.int32 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_cache_is_bounded(self):
        # the cohomology benchmark stream needs 50 (dim, n, m) keys
        maxsize = lieext.cohomology._plan.cache_info().maxsize
        assert maxsize is not None and maxsize >= 50

    def test_oversized_table_is_built_but_not_kept(self):
        plan = lieext.cohomology._plan
        assert lieext.cohomology._term_count(13, 6) > lieext.cohomology.MAX_CACHED_TERMS
        before = plan.cache_info()
        d6 = lx.coboundary_matrix(lx.abelian_algebra(13), lx.trivial_module(13, 1), 6)
        assert d6.shape == (math.comb(13, 7), math.comb(13, 6)) and not np.any(d6)
        after = plan.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_binomials_beyond_int64_are_never_read(self):
        # C(68, 34) > 2^63: the rank table of d_66 used to overflow
        d = lx.coboundary_matrix(lx.abelian_algebra(68), lx.trivial_module(68, 1), 66)
        assert d.shape == (68, math.comb(68, 66)) and not np.any(d)

    @pytest.mark.parametrize("dim, n, message", [
        (30, 5, "entries, more than"),
        (225, 223, "terms, more than"),
    ])
    def test_oversized_d_n_refused_before_the_table(self, monkeypatch, dim, n, message):
        monkeypatch.setattr(lieext.cohomology, "_plan", None)
        # the size check reads the algebra's dimension only
        alg = types.SimpleNamespace(dim=dim)
        with pytest.raises(MalformedInputError, match=message):
            lx.coboundary_matrix(alg, lx.trivial_module(dim, 1), n)


class TestComplexSlice:
    def test_abelian_r2_degree1_matrix_is_zero(self, r2):
        sl = lx.build_complex_slice(r2, lx.trivial_module(2, 1), 1)
        assert sl["d_matrix"].shape == (1, 2)
        assert not np.any(sl["d_matrix"])

    def test_sl2_degree1_rank_three(self, sl2):
        sl = lx.build_complex_slice(sl2, lx.trivial_module(3, 1), 1)
        assert np.linalg.matrix_rank(sl["d_matrix"]) == 3

    def test_heis3_degree2_kernel_and_image(self, heis3):
        sl = lx.build_complex_slice(heis3, lx.trivial_module(3, 1), 2)
        assert sl["cocycle_dim"] == 3
        assert sl["coboundary_dim"] == 1

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
                rank = sl["d_matrix"].shape[1] - sl["cocycle_dim"]
                assert sl["cocycle_dim"] + rank == math.comb(alg.dim, n) * mod.coeff_dim

    def test_top_degree_kernel_is_everything(self, heis3):
        sl = lx.build_complex_slice(heis3, lx.trivial_module(3, 1), 3)
        assert sl["cocycle_dim"] == sl["cochain_dim"] == 1

    def test_non_complex_is_refused_as_betti_refuses_it(self):
        # [e0, e1] = e1 and [e1, e2] = e0 break Jacobi, so d_2 d_1 != 0
        c = np.zeros((3, 3, 3))
        c[0, 1, 1], c[1, 0, 1], c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0, 1.0, -1.0
        alg, mod = lx.LieAlgebra(c), lx.trivial_module(3, 1)
        with pytest.raises(LieExtError, match=r"^d_2 d_1 is not zero") as refused:
            lx.build_complex_slice(alg, mod, 2)
        with pytest.raises(LieExtError) as betti_refused:
            lx.betti(alg, mod, 2)
        assert str(refused.value) == str(betti_refused.value)


class TestCohomologyTable:
    def _cases(self, rng):
        sl2_h3 = direct_sum(lx.sl2_algebra(), lx.heisenberg3_algebra())
        h5 = change_of_basis(
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

    def test_sizes_checked_before_any_assembly(self, monkeypatch):
        # d_3 of R^30 is refused before anything of that size, or any d_k,
        # is built, and after the range of every degree is checked
        monkeypatch.setattr(lieext.cohomology, "coboundary_matrix", None)
        alg, mod = lx.abelian_algebra(30), lx.trivial_module(30, 1)
        with pytest.raises(MalformedInputError, match=r"^d_3 would hold \d+ entries"):
            lx.cohomology_table(alg, mod, [0, 1, 3])
        with pytest.raises(MalformedInputError, match="degree 31 outside 0..30"):
            lx.cohomology_table(alg, mod, [3, 31])
        with pytest.raises(MalformedInputError, match=r"^d_3 would hold \d+ entries"):
            lx.build_complex_slice(alg, mod, 3)

    def test_matches_complex_slices(self, rng):
        # one rank decision: a slice's row is the table's in every key, rank_margin included
        for alg, mod in self._cases(rng):
            table = lx.cohomology_table(alg, mod, range(alg.dim + 1))
            for n, row in enumerate(table):
                sl = lx.build_complex_slice(alg, mod, n)
                assert row["degree"] == n
                assert {key: sl[key] for key in row} == row
                assert len(lx.cohomology_representatives(alg, mod, n)) == row["betti"]

    @pytest.mark.parametrize("rho, margin", [
        # d_0 = (eps): rho is divided by the power of two at eps, so d_0 has rank 1 far from its cutoff
        pytest.param([[[1e-13]]], 1e10, id="1e-13"),
        pytest.param([[[1e-15]]], 1e10, id="1e-15"),
        # d_0 = diag(1, 1.5e-10) on R^2: e_0 -> 2^x e_0 scales both entries alike, so no
        # power-of-two basis separates them, and sigma_2 = 1.5e-10 sits 1.5 times above the cut 1e-10
        pytest.param([np.diag([1.0, 1.5e-10])], pytest.approx(1.5), id="diag-1.5e-10"),
    ])
    def test_rank_margin_near_the_cutoff(self, rho, margin):
        mod = lx.ModuleAction(rho=np.array(rho))
        row = lx.build_complex_slice(lx.abelian_algebra(1), mod, 0)
        (table_row,) = lx.cohomology_table(lx.abelian_algebra(1), mod, [0])
        assert row["cocycle_dim"] == table_row["cocycle_dim"] == 0
        assert row["rank_margin"] == table_row["rank_margin"] == margin
        assert row["z_basis"].shape == (mod.coeff_dim, 0)

    def test_rank_margin_of_sl2_adjoint(self, sl2):
        table = lx.cohomology_table(sl2, lx.adjoint_module(sl2), range(4))
        assert [row["betti"] for row in table] == [0, 0, 0, 0]
        assert all(row["rank_margin"] > 1e6 for row in table[:3])
        assert table[3]["rank_margin"] is None  # d_3 maps into C^4 = 0

    def test_ranks_near_the_top_of_the_double_range(self):
        # ||d_0|| = 1.7e308 * sqrt(2) is beyond the double range
        r2 = lx.abelian_algebra(2)
        big = lx.cohomology_table(r2, lx.ModuleAction(rho=np.full((2, 1, 1), 1.7e308)), range(3))
        unit = lx.cohomology_table(r2, lx.ModuleAction(rho=np.ones((2, 1, 1))), range(3))
        margins = [(b.pop("rank_margin"), u.pop("rank_margin")) for b, u in zip(big, unit)]
        assert big == unit and big[0]["cocycle_dim"] == 0  # rank d_0 = 1, betti 0
        assert all(b == pytest.approx(u) for b, u in margins[:2]) and margins[2] == (None, None)

    @pytest.mark.parametrize("power", [600, 1000])
    def test_table_is_unchanged_by_a_power_of_two(self, sl2, rng, power):
        h5 = change_of_basis(
            heisenberg_algebra(2), rng.normal(size=(5, 5)) + 3 * np.eye(5)
        )
        for alg in (sl2, h5):
            scaled = lx.LieAlgebra(structure_constants=alg.structure_constants * 2.0**power)
            table = lx.cohomology_table(alg, lx.adjoint_module(alg), range(alg.dim + 1))
            assert lx.cohomology_table(
                scaled, lx.adjoint_module(scaled), range(alg.dim + 1)
            ) == table

    @pytest.mark.parametrize("scale", [2.0**37, 2.0**-37, 1e11, 1e-11, 2.0**20, 2.0**-20])
    @pytest.mark.parametrize("module", ["trivial", "adjoint"])
    def test_a_rescaled_summand_keeps_the_betti_numbers(self, scale, module):
        # e_i -> scale e_i on the heis3 summand of sl2 + heis3 is a change of basis; 2^20 is
        # within BALANCE_SPREAD, taken in the input basis, and the others are balanced first
        sl2, heis3 = lx.sl2_algebra(), lx.heisenberg3_algebra()
        scaled = direct_sum(sl2, lx.LieAlgebra(heis3.structure_constants * scale))
        betti = {}
        for alg in (direct_sum(sl2, heis3), scaled):
            mod = lx.adjoint_module(alg) if module == "adjoint" else lx.trivial_module(6, 1)
            table = lx.cohomology_table(alg, mod, range(7))
            betti[alg is scaled] = [row["betti"] for row in table]
            for n, row in enumerate(table):
                sl = lx.build_complex_slice(alg, mod, n)
                assert {key: sl[key] for key in row} == row
                assert len(lx.cohomology_representatives(alg, mod, n)) == row["betti"]
        assert betti[True] == betti[False]

    @pytest.mark.parametrize("power, module", [
        (37, "trivial"), (-37, "trivial"), (37, "adjoint"),
        pytest.param(-37, "adjoint", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "the balanced basis differs from the unscaled one by automorphism scalings of up to "
            "2^52 on heis3, which amplify the rounding of its small components"))),
    ])
    def test_representatives_map_to_the_unscaled_basis(self, power, module):
        # the coordinates of a cochain of sl2 + 2^power heis3 in the basis of sl2 + heis3 are
        # its own times 2^(power (k_a - |I ∩ heis3|)), k_a = 1 on a heis3 coefficient of the
        # adjoint module: exact, so there the representatives are cocycles independent of B^n
        sl2, heis3 = lx.sl2_algebra(), lx.heisenberg3_algebra()
        plain = direct_sum(sl2, heis3)
        scaled = direct_sum(sl2, lx.LieAlgebra(heis3.structure_constants * 2.0**power))
        plain_mod, scaled_mod = (lx.adjoint_module(alg) if module == "adjoint"
                                 else lx.trivial_module(6, 1) for alg in (plain, scaled))
        in_heis = np.arange(6) >= 3 if module == "adjoint" else np.zeros(1)
        for n in range(7):
            reps = lx.cohomology_representatives(scaled, scaled_mod, n)
            shift = power * (in_heis - (lx.index_table(6, n) >= 3).sum(axis=1)[:, None])
            moved = [lx.Cochain(n, 6, len(in_heis), np.ldexp(r.values, shift.astype(int)))
                     for r in reps]
            assert all(lx.is_cocycle(plain, plain_mod, w) for w in moved), n
            cols = [w.to_vector() / np.linalg.norm(w.to_vector()) for w in moved]
            b = lx.build_complex_slice(plain, plain_mod, n)["b_basis"]
            assert np.linalg.matrix_rank(np.column_stack([b, *cols])) == b.shape[1] + len(reps)

    @pytest.mark.parametrize("factor", [1.0, 1e-15, 2.0**60, 2.0**-60])
    def test_invariants_of_a_rotation_module(self, factor):
        # T^2 on R^3 by rho(e_0) = 2 pi J (+) 0: the invariants a^g = ker d_0 are the e_3 axis at
        # every scale of rho, in the slice as in the table
        rho = np.zeros((2, 3, 3))
        rho[0, 1, 0], rho[0, 0, 1] = 2.0 * np.pi * factor, -2.0 * np.pi * factor
        alg, mod = lx.abelian_algebra(2), lx.ModuleAction(rho=rho)
        sl = lx.build_complex_slice(alg, mod, 0)
        assert sl["cocycle_dim"] == lx.cohomology_table(alg, mod, [0])[0]["cocycle_dim"] == 1
        assert np.array_equal(np.abs(sl["z_basis"]), [[0.0], [0.0], [1.0]])


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
        moved = change_of_basis(heis3, p)
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
        reps = lx.cohomology_representatives(heis3, mod, 2)
        assert len(reps) == lx.betti(heis3, mod, 2) == 2
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
        om = random_cochain(2, 3, 3, rng)
        assert not lx.is_cocycle(sl2, adj, om)

    def test_coboundaries_are_cocycles(self, sl2, rng):
        adj = lx.adjoint_module(sl2)
        lam = random_cochain(1, 3, 3, rng)
        assert lx.is_cocycle(sl2, adj, lx.apply_d(sl2, adj, lam))


class TestGroupDelta:
    def test_zero_cochain(self):
        f = lx.GroupCochain(degree=2, eval=lambda g, h: np.zeros(1))
        r1 = lx.translation_group(1)
        v = lx.apply_delta(None, f, [r1.chart.from_coords([x]) for x in (1.0, 2.0, 3.0)])
        assert np.all(v == 0.0)

    def test_product_cochain_on_reals_is_cocycle(self, rng):
        # x.f(y,z) - f(x+y,z) + f(x,y+z) - f(x,y) = yz - (x+y)z + x(y+z) - xy = 0
        f = lx.GroupCochain(degree=2, eval=lambda g, h: np.array([g[0, 1] * h[0, 1]]))
        r1 = lx.translation_group(1)
        for _ in range(20):
            triple = [r1.chart.from_coords([x]) for x in rng.normal(size=3)]
            v = lx.apply_delta(None, f, triple)
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
            lx.apply_delta(None, f, [lx.translation_group(1).identity] * 2)
