import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import lieext as lx
from lieext.documents import parse_document
from lieext.errors import (
    MalformedInputError,
    MembershipError,
    NotALoopError,
    TangentDecompositionError,
)
from lieext.batch import vectorized
from lieext.geometry import _along, cancel_boundary_edges, smooth_step
from lieext.groups import MEMBERSHIP_TOL

from conftest import (
    BoundaryMismatchError, area_cochain, distances_to_curve, empty_chain, holonomy,
    identity_path, left_translate_chain, log_derivative, product_triangle_chain,
    quaternion_element, random_torus_path, shoelace_area, torus_path,
)

# quadrature floor: central-difference patch partials at h_geo = 1e-5 leave
# a ~3e-9 derivative error, so converged integrals sit near that level
QUAD_FLOOR = 1e-8


def torus_form(torus2, c=1.0):
    return lx.EquivariantForm(area_cochain(c), torus2)


def square_patch_chain(group, coord_fn):
    patch = lx.SurfacePatch(
        eval=lambda t, s: group.chart.from_coords(coord_fn(t, s)), domain="square"
    )
    return lx.Surface2Chain(patches=(patch,))


class TestGroups:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: lx.torus_group(1),
            lambda: lx.torus_group(2),
            lambda: lx.translation_group(3),
            lambda: lx.su2_group(),
            lambda: lx.heisenberg_group(),
            lx.sl2_group,
        ],
    )
    def test_builtin_groups_validate(self, factory):
        group = factory()
        assert lx.validate_group(group) == []

    @pytest.mark.parametrize(
        "factory", [lambda: lx.torus_group(2), lambda: lx.translation_group(3), lx.su2_group,
                    lx.heisenberg_group, lx.sl2_group],
    )
    def test_builtin_groups_are_built_once_and_read_only(self, factory):
        group = factory()
        assert factory() is group
        for array in (group.basis, group.algebra.structure_constants):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1.0

    def test_bad_basis_matches_the_per_pair_reference(self, su2):
        group = replace(su2, basis=su2.basis * np.array([1.0, 1.0, 1.1])[:, None, None])
        c, basis = group.algebra.structure_constants, group.basis
        # in units of the powers of two at max(|c|, |basis|) = 2 and at max |basis| = 1.1
        unit = 2.0 * 1.0
        reference = []
        for i in range(3):
            for j in range(i + 1, 3):
                comm = basis[i] @ basis[j] - basis[j] @ basis[i]
                res = float(np.max(np.abs(comm - np.einsum("k,kab->ab", c[i, j], basis)))) / unit
                if res > 1e-9:
                    reference.append(("basis_commutator", (i, j), res))
        rng = np.random.default_rng(7)
        for trial in range(3):
            g = group.exp(group.realize(0.05 * rng.normal(size=3)))
            res = float(np.max(np.abs(group.exp(group.log(g)) - g)))
            if res > 1e-8:
                reference.append(("exp_log_roundtrip", (trial,), res))
        issues = lx.validate_group(group)
        assert [(i["identity"], tuple(i["indices"])) for i in issues] == [r[:2] for r in reference]
        assert [tuple(i["indices"]) for i in issues] == [(0, 1), (0, 2), (1, 2)]
        assert np.allclose([i["residual"] for i in issues], [r[2] for r in reference],
                           rtol=0, atol=1e-15)

    def test_commutators_match_structure_constants_oracle(self, su2):
        c = su2.algebra.structure_constants
        for i in range(3):
            for j in range(3):
                comm = su2.basis[i] @ su2.basis[j] - su2.basis[j] @ su2.basis[i]
                assert np.allclose(comm, np.einsum("k,kab->ab", c[i, j], su2.basis))

    def test_exp_log_round_trip(self, rng, torus2, su2):
        translations = [lx.translation_group(k) for k in (1, 3, 24)]
        for group in (torus2, su2, lx.heisenberg_group(), *translations):
            for _ in range(5):
                x = 0.2 * rng.normal(size=group.algebra.dim)
                g = group.exp(group.realize(x))
                assert np.allclose(group.exp(group.log(g)), g, atol=1e-12)
                assert group.membership(g) < 1e-12

    def test_tangent_decomposition_recovers_coefficients(self, su2, rng):
        x = rng.normal(size=3)
        g = su2.exp(su2.realize(0.3 * rng.normal(size=3)))
        u = g @ su2.realize(x)  # left-translated tangent
        assert np.allclose(su2.tangent_coefficients(g, u), x, atol=1e-10)

    def test_off_span_matrix_rejected(self, su2):
        bad = np.zeros((4, 4))
        bad[0, 0] = 1.0  # not in span(i, j, k)
        with pytest.raises(TangentDecompositionError):
            su2.decompose(bad)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_torus_membership_matches_the_matrix_formula(self, k, rng):
        def reference(g):
            """max |B^T B - I|, |det B - 1| over the 2x2 blocks B, and the
            largest entry off the blocks."""
            res = 0.0
            for i in range(k):
                block = g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
                res = max(res, np.max(np.abs(block.T @ block - np.eye(2))),
                          abs(np.linalg.det(block) - 1.0))
            off = g.copy()
            for i in range(k):
                off[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
            return max(res, np.max(np.abs(off)))

        torus = lx.torus_group(k)
        rotations = torus.chart.from_coords(rng.normal(size=(20, k)))
        for scale in (0.0, 1e-12, 1e-9, 1e-6, 0.1):
            g = rotations + scale * rng.normal(size=rotations.shape)
            want = np.array([reference(m) for m in g])
            assert np.max(np.abs(torus.membership(g) - want)) <= 1e-15

    def test_outside_takes_its_scale_from_the_matrix(self):
        # MEMBERSHIP_TOL times max(1, the largest |entry|) of each matrix
        heis = lx.heisenberg_group()
        big, unit = heis.chart.from_coords(np.array([[1e8, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        off = np.zeros((3, 3))
        off[1, 0] = 1.0  # off the chart's image of strictly upper triangular entries
        g = np.stack([big + 1e-3 * off, big + off, unit + 1e-3 * off, np.full((3, 3), np.nan)])
        at, res = heis.outside(g)
        assert at.tolist() == [1, 2, 3]  # 1e-3 <= 1e-9 * 1e8 is inside
        assert res[:2].tolist() == [1.0, 1e-3] and np.isnan(res[2])
        heis.check_membership(g[0])
        with pytest.raises(MembershipError):
            heis.check_membership(g[1])

    def test_torus_membership_fails_a_nan_matrix(self, torus2):
        g = torus2.chart.from_coords([0.1, 0.2])
        g[1, 0] = np.nan
        with pytest.raises(MembershipError):
            torus2.check_membership(g)

    @pytest.mark.parametrize(
        "factory",
        [lx.heisenberg_group, *(lambda k=k: lx.translation_group(k) for k in (1, 3, 24))],
        ids=["heisenberg", "R1", "R3", "R24"],
    )
    def test_heisenberg_inverse(self, factory, rng):
        group = factory()
        g = group.chart.from_coords(rng.normal(scale=3.0, size=(50, group.algebra.dim)))
        eye = np.broadcast_to(group.identity, g.shape)
        assert np.max(np.abs(g @ group.inverse(g) - eye)) <= 1e-13
        assert np.max(np.abs(group.inverse(g) @ g - eye)) <= 1e-13


def outside_formula(group, g):
    """MatrixGroup.outside as one formula: every residual against
    MEMBERSHIP_TOL times max(1, the matrix's largest |entry|)."""
    with np.errstate(invalid="ignore"):
        res = np.asarray(group.membership(g), dtype=float)
    at = np.flatnonzero(~(res <= MEMBERSHIP_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))))
    return at, res.ravel()[at]


class TestScreenedGuards:
    """Membership and decomposition test residual <= tol first and take
    their scale only where that fails; the chart tangent of R^k and the
    Heisenberg group is a closed form in the coordinates."""

    @pytest.mark.parametrize("factory, spread", [
        (lambda: lx.torus_group(2), 1.0), (lx.su2_group, 1.0), (lx.sl2_group, 2.0),
        (lx.heisenberg_group, 1e4), (lambda: lx.translation_group(3), 1e6)],
        ids=["T2", "SU2", "SL2", "heisenberg", "R3"])
    @pytest.mark.parametrize("largest", [-2.0, -7.0])
    def test_outside_matches_the_formula_with_injected_failures(self, factory, spread, largest, rng):
        # failures up to 10^largest; at 1e-7 every residual may pass a looser screen
        group = factory()
        for _ in range(5):
            x = spread * rng.normal(size=(4, 6, group.algebra.dim))
            g = group.exp(np.einsum("...i,ijk->...jk", x, group.basis))
            hit = rng.random((4, 6)) < 0.4
            size = 10.0 ** rng.uniform(-13.0, largest, size=(4, 6))
            g = g + (hit * size)[..., None, None] * rng.normal(size=g.shape)
            if rng.random() < 0.5:
                g[tuple(rng.integers(0, 4, size=1)) + (1, 0, 1)] = np.nan
            at, res = group.outside(g)
            want_at, want_res = outside_formula(group, g)
            assert at.dtype == want_at.dtype and np.array_equal(at, want_at)
            assert np.array_equal(res, want_res, equal_nan=True)

    def test_a_nan_matrix_is_outside_whatever_its_residual(self, torus2):
        # a user membership reading only the first column misses the NaN
        group = replace(torus2, membership=lambda g: abs(g[0, 0] ** 2 + g[1, 0] ** 2 - 1.0))
        g = torus2.chart.from_coords(np.array([[0.1, 0.2], [0.3, 0.4]]))
        g[1, 0, 1] = np.nan
        at, res = group.outside(g)
        assert at.tolist() == [1] and res[0] <= MEMBERSHIP_TOL
        with pytest.raises(MembershipError):
            group.check_membership(g)

    def test_decompose_passes_a_residual_below_the_scaled_tolerance(self, su2):
        mat = su2.realize(np.array([1e4, -2e4, 3e3]))
        mat[0, 0] = 1e-4  # off the span: residual 1e-4, between 1e-6 and 1e-6 * |mat|
        vec = mat.reshape(-1)
        residual = np.linalg.norm(vec @ su2._flat_pinv.T @ su2._flat_basis.T - vec)
        assert 1e-6 < residual <= 1e-6 * np.linalg.norm(vec)
        assert np.array_equal(su2.decompose(mat), vec @ su2._flat_pinv.T)

    def test_decompose_refuses_a_residual_above_the_tolerance_at_scale_one(self, su2):
        mat = su2.realize(np.array([0.1, 0.0, 0.2]))
        mat[0, 0] = 1e-5  # residual 1e-5, |mat| below 1
        with pytest.raises(TangentDecompositionError,
                           match=r"^matrix is 1\.000e-05 away from the algebra span \(tolerance 1\.0e-06 x 1\)$"):
            su2.decompose(np.stack([su2.basis[1], mat]))

    def test_decompose_refuses_nan_with_its_message(self, su2):
        mat = su2.realize(np.array([1.0, 2.0, 3.0]))
        mat[2, 1] = np.nan
        with pytest.raises(TangentDecompositionError,
                           match=r"^matrix is nan away from the algebra span \(tolerance 1\.0e-06 x nan\)$"):
            su2.decompose(np.stack([su2.basis[0], mat]))

    @pytest.mark.parametrize("factory", [lx.heisenberg_group, lambda: lx.translation_group(3)],
                             ids=["heisenberg", "R3"])
    def test_chart_tangent_agrees_with_the_decomposition(self, factory, rng):
        # the closed form E(dx) - N(x) E(dx) against g^-1 E(dx) as matrices,
        # whose product may fuse a multiply-add: a few ulps of x dx apart
        group = factory()
        chart, eye = group.chart, np.eye(group.embed_dim)
        for lead in [(), (7,), (2, 300)]:
            x = rng.normal(scale=3.0, size=lead[-1:] + (group.algebra.dim,))
            dx = rng.normal(size=lead + (group.algebra.dim,))
            dx[rng.random(dx.shape) < 0.3] = 0.0
            got = chart.tangent(x, dx)
            want = group.tangent_coefficients(chart.from_coords(x), chart.from_coords(dx) - eye)
            scale = np.max(np.abs(dx), axis=-1, keepdims=True) * (1.0 + np.max(np.abs(x), axis=-1, keepdims=True))
            assert got.shape == want.shape and np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("factory", [lx.heisenberg_group, lambda: lx.translation_group(3)],
                             ids=["heisenberg", "R3"])
    def test_chart_tangent_refuses_an_infinite_velocity(self, factory):
        group = factory()
        x = np.array([[0.3, -0.2, 0.5], [0.1, 0.2, 0.3]])
        for bad in (np.inf, -np.inf, np.nan):
            dx = np.array([[1.0, 0.5, 0.0], [0.0, bad, 1.0]])
            with pytest.raises(TangentDecompositionError, match="^chart tangent is not finite$"):
                group.chart.tangent(x, dx)

    def test_chart_tangent_refuses_an_overflowing_product(self):
        # the Heisenberg z coefficient is dz - x dy; R^3 has no product to overflow
        x, dx = np.array([1e300, 0.0, 0.0]), np.array([0.0, 1e10, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TangentDecompositionError, match="^chart tangent is not finite$"):
                lx.heisenberg_group().chart.tangent(x, dx)
            assert lx.translation_group(3).chart.tangent(x, dx).tolist() == dx.tolist()
            assert lx.heisenberg_group().chart.tangent(x, 1e-10 * dx).tolist() == [0.0, 1.0, -1e300]

    def test_refusals_of_an_infinite_entry_warn_nothing(self):
        heisenberg, su2 = lx.heisenberg_group(), lx.su2_group()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TangentDecompositionError, match="chart tangent is not finite"):
                heisenberg.chart.tangent(np.zeros((1, 3)), np.array([[1.0, np.inf, 0.0]]))
            with pytest.raises(TangentDecompositionError, match="nan away from the algebra span"):
                su2.decompose(np.full((4, 4), np.inf))

    @pytest.mark.parametrize("factory", [partial(lx.torus_group, k) for k in (1, 2, 3)]
                             + [partial(lx.translation_group, k) for k in (1, 2, 3)],
                             ids=["T1", "T2", "T3", "R1", "R2", "R3"])
    def test_additive_charts_keep_their_contract(self, factory, rng):
        # phi(x + y) = phi(x) phi(y), phi(x) = exp(x . basis), tangent(x, dx) = dx,
        # and to_coords(phi(d)) are the coefficients of the group log of phi(d),
        # on d of several turns, so that the torus log wraps
        group = factory()
        chart = group.chart
        assert chart.additive
        x, y, d = rng.normal(scale=2.0, size=(3, 40, chart.dim))
        assert np.allclose(chart.from_coords(x + y), chart.from_coords(x) @ chart.from_coords(y), rtol=0, atol=1e-12)
        exp = group.exp(np.einsum("ti,ijk->tjk", x, group.basis))
        assert np.allclose(chart.from_coords(x), exp, rtol=0, atol=1e-12)
        assert np.array_equal(chart.tangent(x, d), d)
        logs = group.decompose(group.log(chart.from_coords(d)))
        assert np.allclose(chart.to_coords(chart.from_coords(d)), logs, rtol=0, atol=1e-12)

    def test_the_heisenberg_chart_is_not_additive(self):
        # its x dy table is not empty: phi(x) phi(y) = phi(x + y) + x_1 y_2 in z
        assert not lx.heisenberg_group().chart.additive


CHART_GROUPS = {**{f"T{k}": partial(lx.torus_group, k) for k in (1, 2, 3)},
                **{f"R{k}": partial(lx.translation_group, k) for k in (1, 2, 3)}, "heisenberg": lx.heisenberg_group}


class TestChartScreen:
    """A chart route checks its nodes by the finiteness of their coordinates:
    each built-in chart maps every finite coordinate vector into its group,
    and the membership test names every node that is not finite."""

    @pytest.mark.parametrize("name", CHART_GROUPS)
    def test_every_finite_coordinate_is_in_the_group(self, name, rng):
        group = CHART_GROUPS[name]()
        k = group.chart.dim
        x = rng.choice([-1.0, 1.0], size=(400, k)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(400, k))
        x[:20] = rng.choice([-0.0, 0.0, 1e-300, -1e300, 1e300, -np.finfo(float).max, 2.0**52 + 1.0], size=(20, k))
        assert group.outside(group.chart.from_coords(x))[0].size == 0
        bad = rng.choice(400, size=30, replace=False)
        x[bad, rng.integers(0, k, size=30)] = rng.choice([np.nan, np.inf, -np.inf], size=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # cos(inf) warns on the torus
            at, res = group.outside(group.chart.from_coords(x))
        assert at.tolist() == sorted(bad.tolist()) and np.all(np.isnan(res))

    def test_a_nan_patch_node_is_named_as_by_the_matrix_test(self, torus2):
        t0 = 0.5 * (np.polynomial.legendre.leggauss(6)[0][2] + 1.0)
        patch = lx.SurfacePatch(chart=torus2.chart, eval=vectorized(
            lambda t, s: np.stack([np.where((t == t0) & (s == t0), np.nan, t), s], -1)))
        with pytest.raises(MembershipError) as info:
            lx.surface_integral(torus_form(torus2), lx.Surface2Chain(patches=(patch,)), 6)
        assert str(info.value) == (f"patches[0] leaves the group at (t, s) = ({t0:.6g}, {t0:.6g}): "
                                   "matrix is not in T^2 (residual nan)")

    def test_a_nan_path_node_is_named_as_by_the_matrix_test(self, torus2):
        t0 = 0.5 * (np.polynomial.legendre.leggauss(6)[0][2] + 1.0)
        path = lx.coordinate_path(torus2, vectorized(lambda t: np.stack([np.where(t == t0, np.nan, t), 0.5 * t], -1)))
        with pytest.raises(MembershipError) as info:
            lx.path_cocycle(torus_form(torus2), path, lx.coordinate_path(torus2, lambda t: np.array([0.0, t])), 6)
        assert str(info.value) == f"g1 leaves the group at t = {t0:.6g}: matrix is not in T^2 (residual nan)"


class TestSL2ClosedForm:
    """sl2_group's exp, log and inverse in closed form, against scipy."""

    @staticmethod
    def algebra_elements(rng):
        """Coefficients (h, e, f): generic, near the identity, and nilpotent
        (pure e or f, and a h + b e - a^2/b f, with a^2 + bc = 0)."""
        a, b = rng.normal(size=(2, 10))
        return np.concatenate([
            0.4 * rng.normal(size=(40, 3)), 1e-7 * rng.normal(size=(10, 3)),
            rng.normal(size=(10, 1)) * [0.0, 1.0, 0.0], rng.normal(size=(10, 1)) * [0.0, 0.0, 1.0],
            0.3 * np.stack([a, b, -a * a / b], axis=1),
        ])

    def test_agrees_with_scipy(self, rng):
        import scipy.linalg

        group = lx.sl2_group()
        mats = np.einsum("ti,ijk->tjk", self.algebra_elements(rng), group.basis)
        g = np.array([scipy.linalg.expm(m) for m in mats])
        for mine, want in ((group.exp(mats), g), (group.log(g), [np.real(scipy.linalg.logm(m)) for m in g]),
                           (group.inverse(g), np.linalg.inv(g))):
            scale = np.maximum(1.0, np.max(np.abs(want), axis=(1, 2)))
            assert np.max(np.max(np.abs(mine - want), axis=(1, 2)) / scale) <= 1e-12

    def test_round_trip(self, rng):
        group = lx.sl2_group()
        mats = np.einsum("ti,ijk->tjk", self.algebra_elements(rng), group.basis)
        g = group.exp(mats)
        assert np.max(np.abs(group.log(g) - mats)) <= 1e-12
        assert np.max(np.abs(group.exp(group.log(g)) - g)) <= 1e-12
        assert np.max(np.abs(group.inverse(g) @ g - np.eye(2))) <= 1e-12
        assert group.membership(g).max() <= 1e-12

    @pytest.mark.parametrize("diagonal, trace", [([-2.0, -0.5], "-2.5"), ([-1.0, -1.0], "-2")])
    def test_log_refuses_trace_at_most_minus_two(self, diagonal, trace):
        # diag(-2, -0.5) has no real logarithm; the real part of its complex
        # one, diag(ln 2, -ln 2), exponentiates to diag(2, 0.5)
        with pytest.raises(TangentDecompositionError, match=rf"trace {trace} has no real logarithm"):
            lx.sl2_group().log(np.diag(diagonal))

    def test_matrix_group_log_refuses_a_complex_logarithm(self):
        algebra = {"dim": 3, "structure_constants": [[0, 1, 1, 2.0], [0, 2, 2, -2.0], [1, 2, 0, 1.0]]}
        group = parse_document({"task": "validate", "group": {
            "kind": "matrix", "basis": lx.sl2_group().basis.tolist(), "algebra": algebra}}).group
        with pytest.raises(TangentDecompositionError, match="no real logarithm in matrix-group"):
            group.log(np.diag([-2.0, -0.5]))
        g = lx.sl2_group().exp(lx.sl2_group().realize(np.array([0.3, -0.2, 0.5])))
        assert np.max(np.abs(group.log(g) - lx.sl2_group().log(g))) <= 1e-12


class TestPaths:
    def test_good_path_validates(self, torus2):
        path, _ = torus_path(torus2, [1, 0], [[0.1, 0.0]] * 2, [[0.05, 0.0]] * 2)
        assert lx.validate_path(torus2, path) == []

    def test_nonperiodic_derivative_caught(self, torus2):
        path = lx.coordinate_path(torus2, lambda t: np.array([t * t, 0.0]))
        issues = lx.validate_path(torus2, path)
        assert any(i["identity"] == "periodic_log_derivative" for i in issues)

    def test_unbased_path_caught(self, torus2):
        path = lx.coordinate_path(torus2, lambda t: np.array([t + 0.25, 0.0]))
        issues = lx.validate_path(torus2, path)
        assert any(i["identity"] == "based_at_identity" for i in issues)

    @pytest.mark.parametrize("start, based", [(1e-10, True), (1e-9, False)])
    def test_the_base_is_read_at_the_closeness_rule(self, torus2, start, based):
        # a start `start` turns off the identity is 2 pi start away in the
        # rotation's entries, against 1e-9 x max(1, |entry|) = 1e-9
        path = lx.coordinate_path(torus2, lambda t: np.array([t + start, 0.0]))
        issues = lx.validate_path(torus2, path)
        assert [i["identity"] for i in issues] == ([] if based else ["based_at_identity"])

    def test_spanning_paths_must_end_within_the_closeness_rule(self, torus2):
        g1 = lx.coordinate_path(torus2, lambda t: np.array([t, 0.0]))
        g2 = lx.coordinate_path(torus2, lambda t: np.array([(1.0 + 1e-9) * t, 0.0]))
        with pytest.raises(NotALoopError, match=r"^paths end 6\.283e-09 apart; a spanning surface needs"):
            lx.spanning_chain(torus2, g1, g2)

    def test_path_leaving_the_group_is_reported_alone(self, torus2):
        # based and in the torus at both ends, but not in between
        def off(t):
            return torus2.chart.from_coords([t, 0.0]) * (1.0 + 0.1 * np.sin(np.pi * t))

        issues = lx.validate_path(torus2, lx.GroupPath(eval=off))
        assert [(i["identity"], tuple(i["indices"])) for i in issues] == [("in_group", ())]
        assert issues[0]["residual"] == pytest.approx(0.21, abs=1e-3)  # |1.1^2 - 1| at t = 1/2

    @pytest.mark.parametrize("kind", ["torus", "heisenberg"])
    def test_coordinate_paths_carry_the_chart(self, kind):
        # a coordinate_path and a document coords path keep their coordinates
        # and map them through the group's chart: the same bits as composing
        # chart.from_coords after the coordinate map
        doc = parse_document({"task": "validate", "group": {"kind": kind, "dim": 2}, "paths": {
            "p": {"coords": ["sin(3*t)", "t*t", "cos(t) - 1"][: 2 if kind == "torus" else 3]}}})
        group, t = doc.group, np.linspace(-0.1, 1.1, 23)
        coords = lambda t: np.array([np.sin(3 * t), t * t, np.cos(t) - 1.0])[: group.chart.dim]
        for path in (doc.paths["p"], lx.coordinate_path(group, coords)):
            assert path.chart is group.chart
            for at in (t, 0.4):
                want = group.chart.from_coords(np.asarray(path.eval(at)).reshape(np.shape(at) + (-1,)))
                assert path(at).tobytes() == want.tobytes()
            assert np.allclose(path.eval(t), np.moveaxis(coords(t), 0, -1), rtol=0.0, atol=1e-15)

    def test_a_copy_keeps_the_chart_and_no_values(self, torus2):
        calls = []
        path = lx.GroupPath(eval=counted(lambda t: np.multiply.outer(t, [1.0, 0.5]), calls),
                            chart=torus2.chart)
        kept = path.values_at(lx.groups.PATH_SAMPLES)
        copy = replace(path)
        assert copy.chart is torus2.chart and len(calls) == 1
        path.values_at(lx.groups.PATH_SAMPLES)  # kept: no call
        assert len(calls) == 1
        assert copy.values_at(lx.groups.PATH_SAMPLES).tobytes() == kept.tobytes() and len(calls) == 2

    def test_pointwise_product(self, torus2, rng):
        p1, c1 = random_torus_path(torus2, rng)
        p2, c2 = random_torus_path(torus2, rng)
        prod = lx.pointwise_product(p1, p2)
        assert np.allclose(prod(0.0), torus2.identity, atol=1e-12)
        assert np.allclose(prod(1.0), p1(1.0) @ p2(1.0))
        # abelian: product path is the coordinate sum
        for t in (0.3, 0.77):
            expected = torus2.chart.from_coords(c1(t) + c2(t))
            assert np.allclose(prod(t), expected, atol=1e-12)

    def test_log_derivative_matches_analytic(self, torus2):
        path = lx.coordinate_path(torus2, lambda t: np.array([t, 0.5 * t]))
        d = log_derivative(torus2, path, 0.4)
        assert np.allclose(d, [1.0, 0.5], atol=1e-9)


class TestActionCompatibility:
    @staticmethod
    def rotation_module(group, rate=2.0 * np.pi):
        j = np.array([[0.0, -1.0], [1.0, 0.0]])

        def act(g, v):
            th = rate * group.chart.to_coords(g)[0]
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            return rot @ v

        return lx.ModuleAction(rho=(rate * j)[None, :, :], group_action=act)

    def test_matching_action_passes(self):
        group = lx.translation_group(1)
        mod = self.rotation_module(group)
        assert lx.validate_action_compatibility(group, mod) == []

    def test_rate_mismatch_caught(self):
        group = lx.translation_group(1)
        mod = self.rotation_module(group)
        wrong = lx.ModuleAction(rho=0.5 * mod.rho, group_action=mod.group_action)
        issues = lx.validate_action_compatibility(group, wrong)
        assert issues and all(i["identity"] == "action_compatibility" for i in issues)

    def test_wrong_column_matches_the_per_pair_reference(self, trans2):
        # R^2 acting on R^2 by rotation through 2 pi g1; rho[1][:, 0] is wrong
        good = self.rotation_module(trans2)
        rho = np.stack([good.rho[0], [[0.3, 0.0], [0.0, 0.0]]])
        mod = lx.ModuleAction(rho=rho, group_action=good.group_action)
        h, reference = lx.groups.DEFAULT_FD_STEP, []
        for i in range(2):
            for b in range(2):
                fb = np.eye(2)[b]
                plus = mod.act(trans2.exp(h * trans2.basis[i]), fb)
                minus = mod.act(trans2.exp(-h * trans2.basis[i]), fb)
                res = float(np.max(np.abs((plus - minus) / (2.0 * h) - rho[i][:, b])))
                if res > lx.groups.DEFAULT_DERIV_TOL:
                    reference.append(("action_compatibility", (i, b), res))
        issues = lx.validate_action_compatibility(trans2, mod)
        assert [(i["identity"], tuple(i["indices"])) for i in issues] == [r[:2] for r in reference]
        assert [tuple(i["indices"]) for i in issues] == [(1, 0)]
        assert np.allclose([i["residual"] for i in issues], [r[2] for r in reference],
                           rtol=0, atol=1e-15)

    def test_identity_must_act_as_the_identity(self, trans2):
        # 2 v has the derivative rho = 0 at the identity, but moves every vector there
        mod = lx.ModuleAction(rho=np.zeros((2, 2, 2)), group_action=lambda g, v: 2.0 * v)
        issues = lx.validate_action_compatibility(trans2, mod)
        assert [(i["identity"], tuple(i["indices"]), i["residual"]) for i in issues] == [
            ("action_identity", (0,), 1.0), ("action_identity", (1,), 1.0)
        ]
        with pytest.raises(MalformedInputError, match=r"action_identity at \(0,\): residual 1.000e\+00"):
            lx.EquivariantForm(lx.cochain_from_pairs(2, 2, {(0, 1): [1.0, 0.0]}), trans2, mod)

    def test_lattice_fixed_is_relative_to_each_generator(self):
        # rho[1] kills gamma_0 = (2, 0) and moves gamma_1 = (0, 1e-3) by 1e-6, 1e-3 |gamma_1|,
        # and the residual is in units of scale_of(rho_1) = 2^-10
        mod = lx.ModuleAction(rho=np.stack([np.zeros((2, 2)), [[0.0, 1e-3], [0.0, 0.0]]]))
        issues = lx.validate_lattice_fixed(mod, lx.Lattice(np.array([[2.0, 0.0], [0.0, 1e-3]])))
        assert [(i["identity"], tuple(i["indices"])) for i in issues] == [("lattice_fixed", (1, 1))]
        assert issues[0]["residual"] == pytest.approx(1e-3 * 2**10, rel=1e-12)
        with pytest.raises(MalformedInputError, match="lattice lives in R\\^1, the module in R\\^2"):
            lx.validate_lattice_fixed(mod, lx.Lattice(np.array([[1.0]])))

    def test_rho_count_must_match_the_group(self, trans2):
        with pytest.raises(MalformedInputError):
            lx.validate_action_compatibility(trans2, self.rotation_module(trans2))

    def test_normalization_residual(self, trans2, rng):
        chart = trans2.chart
        good = lx.GroupCochain(
            degree=2,
            eval=lambda g, h: np.array([chart.to_coords(g)[0] * chart.to_coords(h)[1]]),
        )
        bad = lx.GroupCochain(
            degree=2,
            eval=lambda g, h: np.array([chart.to_coords(g)[0] + chart.to_coords(h)[1]]),
        )
        samples = [chart.from_coords(rng.normal(size=2)) for _ in range(6)]
        assert lx.normalization_residual(good, trans2.identity, samples) < 1e-12
        assert lx.normalization_residual(bad, trans2.identity, samples) > 0.1


class TestEquivariantForm:
    def test_identity_evaluation_returns_components(self, torus2):
        form = torus_form(torus2, 0.7)
        val = lx.eval_equivariant(
            form, torus2.identity, torus2.basis[0], torus2.basis[1]
        )
        assert val[0] == pytest.approx(0.7)

    def test_trivial_action_value_independent_of_basepoint(self, torus2, rng):
        form = torus_form(torus2)
        for _ in range(5):
            g = torus2.chart.from_coords(rng.normal(size=2))
            u = g @ torus2.basis[0]
            v = g @ torus2.basis[1]
            assert lx.eval_equivariant(form, g, u, v)[0] == pytest.approx(1.0)

    def test_equivariance_property(self, su2, rng):
        om = lx.Cochain(2, 3, 1, rng.normal(size=3))
        form = lx.EquivariantForm(om, su2)
        for _ in range(5):
            g = su2.exp(su2.realize(rng.normal(size=3)))
            x, y = rng.normal(size=(2, 3))
            xm, ym = su2.realize(x), su2.realize(y)
            lhs = lx.eval_equivariant(form, g, g @ xm, g @ ym)
            rhs = form.module.act(g, lx.eval_equivariant(form, su2.identity, xm, ym))
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_antisymmetry_exact(self, torus2, rng):
        form = torus_form(torus2)
        g = torus2.chart.from_coords(rng.normal(size=2))
        u = g @ torus2.realize(rng.normal(size=2))
        v = g @ torus2.realize(rng.normal(size=2))
        assert np.array_equal(
            lx.eval_equivariant(form, g, u, v), -lx.eval_equivariant(form, g, v, u)
        )


    def test_value_is_the_cochain_on_decomposed_tangents(self, su2, rng):
        om = lx.Cochain(2, 3, 2, rng.normal(size=6))
        form = lx.EquivariantForm(om, su2)
        gs = np.stack([su2.exp(su2.realize(rng.normal(size=3))) for _ in range(4)])
        us = gs @ su2.realize(rng.normal(size=3))
        vs = gs @ su2.realize(rng.normal(size=3))
        # u and v are decomposed as one stack, as the form does: decomposing
        # them one by one can round apart in the last bit
        stacked = lx.eval_equivariant(form, gs, us, vs)
        assert np.array_equal(stacked, om(*su2.tangent_coefficients(gs, np.stack([us, vs]))))
        for g, u, v, value in zip(gs, us, vs, stacked):
            x, y = su2.tangent_coefficients(g, np.stack([u, v]))
            assert np.array_equal(lx.eval_equivariant(form, g, u, v), om(x, y))
            assert np.allclose(value, om(x, y), rtol=0, atol=1e-13)


class TestProductTriangle:
    def test_vertices(self, torus2, rng):
        g1, _ = random_torus_path(torus2, rng)
        g2, _ = random_torus_path(torus2, rng)
        sigma = product_triangle_chain(g1, g2).patches[0]
        assert np.allclose(sigma(0.0, 0.0), torus2.identity, atol=1e-12)
        assert np.allclose(sigma(1.0, 0.0), g1(1.0))
        assert np.allclose(sigma(1.0, 1.0), g1(1.0) @ g2(1.0))

    def test_degenerate_second_path_gives_zero(self, torus2, rng):
        form = torus_form(torus2)
        g1, _ = random_torus_path(torus2, rng)
        val = lx.path_cocycle(form, g1, identity_path(torus2), 8)
        assert abs(val[0]) < QUAD_FLOOR

    def test_r2_straight_paths_give_triangle_area(self, trans2):
        form = lx.EquivariantForm(area_cochain(), trans2)
        p1 = lx.coordinate_path(trans2, lambda t: np.array([t, 0.0]))
        p2 = lx.coordinate_path(trans2, lambda t: np.array([0.0, t]))
        val = lx.path_cocycle(form, p1, p2, 16)
        assert val[0] == pytest.approx(0.5, abs=1e-9)


class TestSurfaceIntegral:
    def test_empty_chain(self, torus2):
        assert np.all(lx.surface_integral(torus_form(torus2), empty_chain()) == 0.0)

    def test_torus_fundamental_square(self, torus2):
        for c in (1.0, 0.5, 2.0):
            chain = square_patch_chain(torus2, lambda t, s: np.array([t, s]))
            val = lx.surface_integral(torus_form(torus2, c), chain, 16)
            assert val[0] == pytest.approx(c, abs=QUAD_FLOOR)

    def test_quadrature_convergence_rate(self, torus2):
        # smooth reparameterization keeps the integral at 1 but makes the
        # integrand non-trivial; expect >= 100x decay per order doubling
        # until the finite-difference floor
        chain = square_patch_chain(
            torus2, lambda t, s: np.array([smooth_step(t), smooth_step(s)])
        )
        form = torus_form(torus2)
        errors = [
            abs(lx.surface_integral(form, chain, order)[0] - 1.0)
            for order in (2, 4, 8, 16)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < max(coarse / 100.0, QUAD_FLOOR)
        assert errors[-1] < QUAD_FLOOR

    def test_triangle_domain_on_the_square_grid(self, trans2):
        form = lx.EquivariantForm(area_cochain(), trans2)
        patch = lx.SurfacePatch(
            eval=lambda t, s: trans2.chart.from_coords([t, s]), domain="simplex"
        )
        val = lx.surface_integral(form, lx.Surface2Chain(patches=(patch,)), 16)
        assert val[0] == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("order", [2, 8, 64, 256])
    def test_triangle_weights_integrate_monomials(self, order):
        ts, ss, weight = lx.geometry._stencil(order, "simplex", 1e-5)
        t, s = ts[0], ss[0]
        assert weight.sum() == pytest.approx(0.5, abs=1e-15)
        assert np.sum(np.abs(weight)) < 0.55  # no cancellation between weights
        powers = range(min(order, 20))
        got = np.array([[weight @ (t ** a * s ** b) for b in powers] for a in powers])
        # int_0^1 t^a int_0^t s^b ds dt = 1 / ((b + 1) (a + b + 2))
        a, b = np.meshgrid(powers, powers, indexing="ij")
        assert np.max(np.abs(got - 1.0 / ((b + 1) * (a + b + 2)))) <= 1e-15

    def test_product_triangle_hands_the_second_path_3n_parameters(self, trans2):
        calls = []

        def coords(t):
            calls.append(t)
            return np.array([t * t, np.sin(t)])

        p = lx.coordinate_path(trans2, lambda t: np.array([t, 0.5 * t]))
        q = lx.coordinate_path(trans2, coords)
        lx.path_cocycle(lx.EquivariantForm(area_cochain(), trans2), p, q, 16)
        # the nodes and their two difference neighbours, each called once
        assert len(set(calls)) <= 3 * 16

    @pytest.mark.parametrize("outside", [2.0, np.nan])
    def test_simplex_patch_must_be_defined_on_the_square(self, torus2, outside):
        def patch(t, s):
            g = torus2.chart.from_coords([t, s])
            return g if s <= t else outside * g

        chain = lx.Surface2Chain(patches=(lx.SurfacePatch(eval=patch, domain="simplex"),))
        with pytest.raises(MalformedInputError, match="defined there") as info:
            lx.surface_integral(torus_form(torus2), chain, 8)
        assert info.value.exit_code == 2
        assert "simplex patch" in str(info.value) and "whole unit square" in str(info.value)

    def test_simplex_patch_that_leaves_the_group_on_the_triangle(self, torus2):
        def patch(t, s):
            g = torus2.chart.from_coords([t, s])
            return 2.0 * g if s > t or t > 0.5 else g  # outside on both sides

        chain = lx.Surface2Chain(patches=(lx.SurfacePatch(eval=patch, domain="simplex"),))
        with pytest.raises(MembershipError, match=r"patches\[0\] leaves the group at") as info:
            lx.surface_integral(torus_form(torus2), chain, 8)
        t, s = map(float, str(info.value).split("(t, s) = (")[1].split(")")[0].split(", "))
        assert info.value.exit_code == 3 and s <= t and t > 0.5

    def test_stokes_boundary_of_3_patch(self, torus2, rng):
        form = torus_form(torus2)
        a = rng.normal(0, 0.3, size=(2, 3))
        b = rng.normal(0, 0.3, size=(2, 3))

        def block(u1, u2, u3):
            v = np.array([u1, u2, u3])
            return torus2.chart.from_coords(a @ np.sin(v) + b @ (np.cos(v) - 1.0))

        val = lx.surface_integral(form, lx.cube_boundary_chain(block), 12)
        assert abs(val[0]) < QUAD_FLOOR

    def test_membership_enforced_at_nodes(self, torus2):
        form = torus_form(torus2)
        patch = lx.SurfacePatch(
            eval=lambda t, s: (1.0 + 0.1 * t) * torus2.chart.from_coords([t, s]),
            domain="square",
        )
        with pytest.raises(MembershipError):
            lx.surface_integral(form, lx.Surface2Chain(patches=(patch,)), 4)

    def test_off_algebra_tangents_rejected(self, su2, rng):
        # a group without a membership oracle still catches patches whose
        # tangents leave the algebra span
        group = lx.MatrixGroup(
            algebra=su2.algebra,
            basis=su2.basis,
            exp=su2.exp,
            log=su2.log,
        )
        om = lx.Cochain(2, 3, 1, rng.normal(size=3))
        form = lx.EquivariantForm(om, group)
        drift = np.zeros((4, 4))
        drift[0, 0] = 1.0
        patch = lx.SurfacePatch(
            eval=lambda t, s: quaternion_element([1.0, t, s, 0.0]) + t * s * drift,
            domain="square",
        )
        with pytest.raises(TangentDecompositionError):
            lx.surface_integral(form, lx.Surface2Chain(patches=(patch,)), 6)


class TestSpanningChain:
    def test_smooth_step_endpoint_conditions(self):
        assert smooth_step(0.0) == pytest.approx(0.0)
        assert smooth_step(1.0) == pytest.approx(1.0)
        h = 1e-6
        assert (smooth_step(h) - smooth_step(-h)) / (2 * h) == pytest.approx(0.0, abs=1e-9)
        assert (smooth_step(1 + h) - smooth_step(1 - h)) / (2 * h) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_identical_paths_zero_flux(self, torus2, rng):
        form = torus_form(torus2)
        g1, _ = random_torus_path(torus2, rng)
        chain = lx.spanning_chain(torus2, g1, g1)
        assert abs(lx.surface_integral(form, chain, 8)[0]) < QUAD_FLOOR

    def test_flux_equals_enclosed_area(self, torus2):
        # oracle: shoelace area of the coordinate loop (path1 then reversed path2)
        form = torus_form(torus2)
        g1, c1 = torus_path(torus2, [1, 0], [[0.10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.02, 0.0]])
        g2, c2 = torus_path(torus2, [1, 0], [[0.0, 0.0], [0.12, 0.05]], [[0.03, 0.0], [0.0, 0.0]])
        val = lx.surface_integral(form, lx.spanning_chain(torus2, g1, g2), 16)
        oracle = shoelace_area(c1, c2)
        assert abs(oracle) > 1e-3  # the loop actually encloses area
        assert val[0] == pytest.approx(oracle, abs=1e-7)

    def test_flux_scales_with_cocycle(self, torus2):
        g1, c1 = torus_path(torus2, [0, 1], [[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        g2, c2 = torus_path(torus2, [0, 1], [[0.0, 0.0], [0.08, 0.0]], [[0.02, 0.0], [0.0, 0.0]])
        chain = lx.spanning_chain(torus2, g1, g2)
        v1 = lx.surface_integral(torus_form(torus2, 1.0), chain, 16)[0]
        v2 = lx.surface_integral(torus_form(torus2, 2.0), chain, 16)[0]
        assert v2 == pytest.approx(2.0 * v1, abs=1e-9)

    def test_endpoint_mismatch_rejected(self, torus2, rng):
        g1, _ = random_torus_path(torus2, rng, winding=[1, 0])
        g2, _ = random_torus_path(torus2, rng, winding=[0, 1])
        with pytest.raises(NotALoopError):
            lx.spanning_chain(torus2, g1, g2)

    @pytest.mark.parametrize("order", [4, 16])
    def test_t_only_factors_once_per_distinct_t(self, torus2, rng, order):
        g1_calls, g2_calls = [], []
        g1, g2 = (random_torus_path(torus2, rng, [1, 0])[0] for _ in range(2))
        chain = lx.spanning_chain(
            torus2, lx.GroupPath(eval=counted(g1, g1_calls)), lx.GroupPath(eval=counted(g2, g2_calls))
        )
        # one call each, on the branch samples, whose last is the common end
        assert [len(g1_calls), len(g2_calls)] == [1, 1]
        for calls in (g1_calls, g2_calls):
            calls.clear()
        lx.surface_integral(torus_form(torus2), chain, order)
        # one call each per array pass, at the stencil's 3n distinct t
        for calls in (g1_calls, g2_calls):
            [(t,)] = calls
            assert np.unique(t).size == 3 * order

    def test_schedule_choice_does_not_change_flux(self, torus2):
        # the flux depends only on the boundary: a linear schedule in place of
        # smooth_step integrates a different surface with the same value
        form = torus_form(torus2)
        g1, _ = torus_path(torus2, [1, 1], [[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        g2, _ = torus_path(torus2, [1, 1], [[0.0, 0.05], [0.06, 0.0]], [[0.0, 0.0], [0.02, 0.0]])

        @vectorized
        def linear(t, s):
            gt = g1(t)
            return gt @ torus2.exp(np.asarray(s)[..., None, None] * torus2.log(torus2.inverse(gt) @ g2(t)))

        v_flat = lx.surface_integral(form, lx.spanning_chain(torus2, g1, g2), 16)
        v_lin = lx.surface_integral(form, lx.Surface2Chain(patches=(lx.SurfacePatch(eval=linear),)), 16)
        assert v_flat[0] == pytest.approx(v_lin[0], abs=1e-8)


class TestPathCocycleIdentities:
    def test_coboundary_lands_in_lattice(self, torus2, unit_lattice, rng):
        form = torus_form(torus2)  # c = 1 and Gamma = Z: integrable setup
        for _ in range(4):
            g1, _ = random_torus_path(torus2, rng)
            g2, _ = random_torus_path(torus2, rng)
            g3, _ = random_torus_path(torus2, rng)
            v16 = lx.path_cocycle_coboundary(form, g1, g2, g3, 16)
            v8 = lx.path_cocycle_coboundary(form, g1, g2, g3, 8)
            tol = 1e-6 + float(np.max(np.abs(v16 - v8)))
            assert lx.lattice_member(unit_lattice, v16, tol)["verdict"] == "member"

    @pytest.mark.parametrize("order", [8, 16])
    def test_torus_coboundary_vanishes(self, torus2, rng, order):
        # on the torus with a trivial action g^-1 (g1 g2)' is the sum of the
        # factors' log-derivatives, so the four terms cancel by bilinearity, as
        # in the exact identity; differencing the products left ~7e-9
        form = torus_form(torus2)
        for _ in range(3):
            paths = [random_torus_path(torus2, rng)[0] for _ in range(3)]
            assert np.max(np.abs(lx.path_cocycle_coboundary(form, *paths, order))) <= 1e-14

    @pytest.mark.parametrize("group", [lx.su2_group(), lx.heisenberg_group(), lx.sl2_group()],
                             ids=["su2", "heisenberg", "sl2"])
    def test_a_product_step_composes_its_factors_steps(self, group, rng):
        # against the differenced step of the pointwise product: the same
        # nodes, log-derivatives to the difference floor, Ad((g1 g2)^-1) to rounding
        n = group.algebra.dim

        def path():
            x, y = (group.realize(0.7 * rng.normal(size=n)) for _ in range(2))
            return lx.GroupPath(eval=vectorized(
                lambda t: group.exp(np.multiply.outer(t, x) + np.multiply.outer(t * t, y))))

        g1, g2 = path(), path()
        nodes, compose = lx.geometry._path_nodes, lx.geometry._product_nodes
        got = compose(group, "g1 g2", nodes(group, "g1", g1, 16), nodes(group, "g2", g2, 16))
        want = nodes(group, "g1 g2", lx.pointwise_product(g1, g2), 16)
        assert np.array_equal(got[0], want[0])
        assert np.max(np.abs(got[1] - want[1])) <= 1e-7
        assert np.max(np.abs(got[2]() - want[2]())) <= 1e-12

    def test_representative_independence(self, torus2, unit_lattice, rng):
        form = torus_form(torus2)
        for _ in range(3):
            g1, _ = random_torus_path(torus2, rng, winding=[1, 0])
            g1p, _ = random_torus_path(torus2, rng, winding=[1, 0])
            g2, _ = random_torus_path(torus2, rng, winding=[0, 1])
            g2p, _ = random_torus_path(torus2, rng, winding=[0, 1])
            vals = lx.representative_independence_residuals(
                form, g1, g1p, g2, g2p, 16
            )
            for v in vals:
                assert (
                    lx.lattice_member(unit_lattice, v, 2e-6)["verdict"] == "member"
                ), f"identity value {v} escaped the lattice"

    def test_translation_invariance_trivial_action(self, torus2, rng):
        form = torus_form(torus2)
        g1, _ = random_torus_path(torus2, rng)
        g2, _ = random_torus_path(torus2, rng)
        chain = product_triangle_chain(g1, g2)
        g = torus2.chart.from_coords(rng.normal(size=2))
        moved = left_translate_chain(g, chain)
        assert lx.surface_integral(form, moved, 12)[0] == pytest.approx(
            lx.surface_integral(form, chain, 12)[0], abs=1e-9
        )

    @staticmethod
    def family(torus2, rng):
        """g1, g1p, g2, g2p homotopic in pairs, and a free g3."""
        paths = [random_torus_path(torus2, rng, w)[0] for w in ([1, 0], [1, 0], [0, 1], [0, 1])]
        return paths + [random_torus_path(torus2, rng)[0]]

    def test_each_path_sees_each_parameter_in_one_call(self, torus2, rng):
        form = torus_form(torus2)
        g1, g1p, g2, g2p, g3 = self.family(torus2, rng)
        for identity, paths in (
            (lx.path_cocycle_coboundary, (g1, g2, g3)),
            (lx.representative_independence_residuals, (g1, g1p, g2, g2p)),
        ):
            calls = [[] for _ in paths]
            identity(form, *(lx.GroupPath(eval=counted(p, c)) for p, c in zip(paths, calls)), 16)
            assert [len(c) for c in calls] == [1] * len(paths)
            # the rule's 3n parameters, then t = 1 or the 64 guard samples ending at t = 1
            size = 3 * 16 + (1 if len(paths) == 3 else 64)
            assert all(np.shape(c[0][0]) == (size,) and c[0][0][-1] == 1.0 for c in calls)

    @pytest.mark.parametrize("order", [8, 16])
    def test_shared_evaluation_keeps_every_bit(self, torus2, rng, order):
        # each term below evaluates its own paths; the identities call each
        # path once, form products from its values and must not change one bit:
        # chart paths as coordinates with products by addition, their
        # chartless copies as matrices with products by matrix products
        form = torus_form(torus2)
        gamma = lambda a, b: lx.path_cocycle(form, a, b, order)
        params = np.concatenate([lx.geometry._path_rule(order)[0].ravel(), lx.geometry._GUARD])
        span = lambda x, y: lx.geometry._spanning_integral(form, x, y, order, ("a", "b"))
        # the coboundary's products compose their factors' steps on fresh copies
        nodes = lambda name, p: lx.geometry._path_nodes(torus2, name, replace(p), order)
        compose = partial(lx.geometry._product_nodes, torus2)
        pair = partial(lx.geometry._triangle_integral, form)
        for _ in range(3):
            family = self.family(torus2, rng)
            for paths, product in ((family, np.add), ([chartless(p) for p in family], np.matmul)):
                g1, g1p, g2, g2p, g3 = paths
                a, b, c = nodes("g1", g1), nodes("g2", g2), nodes("g3", g3)
                want = (
                    form.module.act(g1(1.0), pair(b, c))
                    - pair(compose("g1 g2", a, b), c)
                    + pair(a, compose("g2 g3", b, c))
                    - pair(a, b)
                )
                assert np.array_equal(lx.path_cocycle_coboundary(form, g1, g2, g3, order), want)

                x1, x1p, x2, x2p = (np.asarray(p.eval(params), dtype=float) for p in (g1, g1p, g2, g2p))
                base = gamma(g1, g2)
                flux1 = span(x1, x1p)
                flux2 = form.module.act(g1(1.0), span(x2, x2p))
                want = [
                    span(product(x1, x2), product(x1p, x2)) - flux1 - gamma(g1p, g2) + base,
                    span(product(x1, x2), product(x1, x2p)) - flux2 - gamma(g1, g2p) + base,
                    span(product(x1, x2), product(x1p, x2p)) - flux1 - flux2 - gamma(g1p, g2p) + base,
                ]
                got = lx.representative_independence_residuals(form, g1, g1p, g2, g2p, order)
                assert len(got) == 3
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_a_reused_path_is_called_only_on_parameter_sets_it_has_not_seen(self, torus2, rng):
        form = torus_form(torus2)
        calls = [[] for _ in range(5)]
        paths = [lx.GroupPath(eval=counted(p, c)) for p, c in zip(self.family(torus2, rng), calls)]
        g1, g1p, g2, g2p, g3 = paths
        lx.path_cocycle_coboundary(form, g1, g2, g3, 16)
        for c in calls:
            c.clear()
        lx.representative_independence_residuals(form, g1, g1p, g2, g2p, 16)
        # g1 and g2 kept the rule's parameters from the coboundary
        guard = lx.geometry._GUARD
        fresh = np.concatenate([lx.geometry._path_rule(16)[0].ravel(), guard])
        want = [guard, fresh, guard, fresh, None]
        for c, params in zip(calls, want):
            assert len(c) == (params is not None)
            assert params is None or np.array_equal(c[0][0], params)
        for c in calls:
            c.clear()
        lx.path_cocycle_coboundary(form, g1, g2, g3, 16)
        lx.representative_independence_residuals(form, g1, g1p, g2, g2p, 16)
        assert calls == [[]] * 5
        # what a path keeps is read-only
        for path in paths:
            for values in path._memo.values():
                with pytest.raises(ValueError):
                    values[0, 0, 0] = 0.0

    def test_reused_paths_keep_every_bit(self, torus2, rng):
        # criterion 6's order on one family: each result equals the same call
        # on fresh copies of the paths, which keep no values yet
        form = torus_form(torus2)
        paths = self.family(torus2, rng)
        for identity, which in ((lx.path_cocycle_coboundary, (0, 2, 4)),
                                (lx.representative_independence_residuals, (0, 1, 2, 3))):
            for order in (16, 8):
                got = identity(form, *(paths[i] for i in which), order)
                want = identity(form, *(replace(paths[i]) for i in which), order)
                assert np.array_equal(got, want)


class TestDerivation:
    def test_zero_cochain(self, trans2, rng):
        f = lx.GroupCochain(degree=2, eval=lambda g, h: np.zeros(1))
        x, y = rng.normal(size=(2, 2))
        assert np.all(lx.differentiate_group_cocycle(trans2, f, x, y) == 0.0)

    def test_symmetric_cochain_killed(self):
        r1 = lx.translation_group(1)
        f = lx.GroupCochain(
            degree=2, eval=lambda g, h: np.array([g[0, 1] * h[0, 1]])
        )
        val = lx.differentiate_group_cocycle(r1, f, np.ones(1), np.ones(1))
        assert abs(val[0]) < 1e-10

    def test_coordinate_product_oracle(self, trans2, rng):
        chart = trans2.chart
        f = lx.GroupCochain(
            degree=2,
            eval=lambda g, h: np.array([chart.to_coords(g)[0] * chart.to_coords(h)[1]]),
        )
        for _ in range(20):
            x, y = rng.normal(size=(2, 2))
            got = lx.differentiate_group_cocycle(trans2, f, x, y)[0]
            want = x[0] * y[1] - y[0] * x[1]  # analytic mixed partial
            assert got == pytest.approx(want, abs=1e-6)

    def test_antisymmetry_and_linearity(self, trans2, rng):
        chart = trans2.chart
        f = lx.GroupCochain(
            degree=2,
            eval=lambda g, h: np.array(
                [np.sin(chart.to_coords(g)[0]) * chart.to_coords(h)[1]]
            ),
        )
        x, y, z = rng.normal(size=(3, 2))
        d = lambda a, b: lx.differentiate_group_cocycle(trans2, f, a, b)[0]
        assert d(x, y) == pytest.approx(-d(y, x), abs=1e-5)
        assert d(x + z, y) == pytest.approx(d(x, y) + d(z, y), abs=1e-5)

    def test_derived_cochain_components(self, trans2):
        chart = trans2.chart
        f = lx.GroupCochain(
            degree=2,
            eval=lambda g, h: np.array([chart.to_coords(g)[0] * chart.to_coords(h)[1]]),
        )
        derived = lx.derived_cochain(trans2, f)
        assert derived.values[0, 0] == pytest.approx(1.0, abs=1e-8)


class TestCocycleRecovery:
    def test_r2_and_torus_basis_pairs(self, trans2, torus2):
        e = np.eye(2)
        for group in (trans2, torus2):
            for c in (1.0, 0.5, 2.0):
                form = lx.EquivariantForm(area_cochain(c), group)
                res = lx.cocycle_recovery_residual(form, e[0], e[1], 1e-3, 16)
                assert res < 1e-5

    def test_equal_arguments_trivial(self, torus2):
        form = torus_form(torus2)
        e = np.eye(2)
        assert lx.cocycle_recovery_residual(form, e[0], e[0], 1e-3, 8) < 1e-9

    def test_shared_path_values_keep_every_bit(self, su2, rng):
        # gamma(p, q) and gamma(q, p) share p's and q's values; fresh copies
        # of the paths in the second term must give the same bits
        form = random_form(su2, rng)
        x, y = rng.normal(size=(2, 3))

        def fn(tau, sigma):
            p, q = lx.exp_path(su2, x, scale=tau), lx.exp_path(su2, y, scale=sigma)
            fresh = lambda path: lx.GroupPath(eval=path.eval)
            return lx.path_cocycle(form, p, q, 16) - lx.path_cocycle(form, fresh(q), fresh(p), 16)

        want = float(np.max(np.abs(lx.geometry._mixed_partial(fn, 1e-3) - form.cochain(x, y))))
        assert lx.cocycle_recovery_residual(form, x, y, 1e-3, 16) == want


class TestCurvature:
    def test_flat_extension(self, trans2):
        form = lx.EquivariantForm(lx.Cochain(2, 2, 1), trans2)
        assert lx.curvature_defect(form, np.eye(2)[0], np.eye(2)[1]) == 0.0

    def test_heis3_as_extension(self, trans2):
        form = lx.EquivariantForm(area_cochain(), trans2)
        assert lx.curvature_defect(form, np.eye(2)[0], np.eye(2)[1]) < 1e-15

    def test_random_cocycles_su2(self, su2, rng):
        for _ in range(10):
            om = lx.Cochain(2, 3, 1, rng.normal(size=3))
            form = lx.EquivariantForm(om, su2)
            x, y = rng.normal(size=(2, 3))
            assert lx.curvature_defect(form, x, y) < 1e-12


def chartless(path):
    """A copy of the path that gives matrices, with no chart."""
    return lx.GroupPath(eval=vectorized(lambda t: path(t)))


def counted(fn, calls):
    """fn as a vectorized map that records each call in calls."""
    def counting(*args):
        calls.append(args)
        return fn(*args)

    return vectorized(counting)


class TestHolonomy:
    @staticmethod
    def square_loop(group, side=0.5):
        def ev(u):
            u = float(u) % 1.0
            if u < 0.25:
                c = np.array([4 * u * side, 0.0])
            elif u < 0.5:
                c = np.array([side, 4 * (u - 0.25) * side])
            elif u < 0.75:
                c = np.array([side - 4 * (u - 0.5) * side, side])
            else:
                c = np.array([0.0, side - 4 * (u - 0.75) * side])
            return group.chart.from_coords(c)

        return lx.GroupPath(eval=ev)

    def test_constant_loop_empty_chain(self, torus2, unit_lattice):
        form = torus_form(torus2)
        val = holonomy(
            form, identity_path(torus2), empty_chain(), unit_lattice
        )
        assert np.all(val == 0.0)

    def test_quarter_area_square(self, torus2, unit_lattice):
        form = torus_form(torus2)
        loop = self.square_loop(torus2)
        bound = square_patch_chain(torus2, lambda t, s: np.array([t / 2, s / 2]))
        val = holonomy(form, loop, bound, unit_lattice, 16)
        assert val[0] == pytest.approx(0.25, abs=1e-8)

    def test_two_bounding_surfaces_agree_iff_integrable(self, torus2, unit_lattice):
        loop = self.square_loop(torus2)
        small = square_patch_chain(torus2, lambda t, s: np.array([t / 2, s / 2]))
        # same boundary, other side of the torus: small minus the full cycle
        full = lx.SurfacePatch(
            eval=lambda t, s: torus2.chart.from_coords([t, s]),
            domain="square",
            coefficient=-1,
        )
        other = lx.Surface2Chain(patches=small.patches + (full,))
        for c, should_agree in ((1.0, True), (0.5, False)):
            form = torus_form(torus2, c)
            v1 = holonomy(form, loop, small, unit_lattice, 16)
            v2 = holonomy(form, loop, other, unit_lattice, 16)
            agree = abs(v1[0] - v2[0]) < 1e-6
            assert agree == should_agree

    def test_loop_is_sampled_once(self, torus2, unit_lattice):
        calls = []
        loop = lx.GroupPath(eval=counted(self.square_loop(torus2), calls))
        bound = square_patch_chain(torus2, lambda t, s: np.array([t / 2, s / 2]))
        holonomy(torus_form(torus2), loop, bound, unit_lattice, 4)
        assert len(calls) == 1

    def test_distances_match_the_per_point_search(self, torus2):
        def reference(point, curve, coarse=65):
            us = np.linspace(0.0, 1.0, coarse)
            k = int(np.argmin(np.max(np.abs(curve(us) - point), axis=(-2, -1))))
            lo, hi = us[max(0, k - 1)], us[min(coarse - 1, k + 1)]
            for _ in range(80):
                m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
                if np.max(np.abs(curve(m1) - point)) < np.max(np.abs(curve(m2) - point)):
                    hi = m2
                else:
                    lo = m1
            return float(np.max(np.abs(curve(0.5 * (lo + hi)) - point)))

        points = self.square_loop(torus2, side=0.4)(np.linspace(0.0, 1.0, 8))
        patch = vectorized(lambda t, s: torus2.chart.from_coords(np.stack([t, s], -1) / 2))
        bound = lx.Surface2Chain(patches=(lx.SurfacePatch(eval=patch),))
        for patch, start, end, _ in cancel_boundary_edges(bound):
            curve = partial(_along, patch, start, end)
            got = distances_to_curve(points, curve)
            want = [reference(point, curve) for point in points]
            assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_open_loop_rejected(self, torus2, unit_lattice):
        form = torus_form(torus2)
        arc = lx.coordinate_path(torus2, lambda t: np.array([0.25 * t, 0.0]))
        with pytest.raises(NotALoopError):
            holonomy(form, arc, empty_chain(), unit_lattice)

    def test_boundary_mismatch_rejected(self, torus2, unit_lattice):
        form = torus_form(torus2)
        loop = self.square_loop(torus2)
        # full fundamental cycle has no net boundary at all
        cycle = square_patch_chain(torus2, lambda t, s: np.array([t, s]))
        with pytest.raises(BoundaryMismatchError):
            holonomy(form, loop, cycle, unit_lattice)
        # and a chain whose boundary is a different square also fails
        wrong = square_patch_chain(torus2, lambda t, s: np.array([0.3 * t, 0.3 * s]))
        with pytest.raises(BoundaryMismatchError):
            holonomy(form, loop, wrong, unit_lattice)


class TestBoundaryBookkeeping:
    def test_two_triangles_tile_the_torus_square(self, torus2):
        chart = torus2.chart
        lower = lx.SurfacePatch(eval=lambda t, s: chart.from_coords([t, s]), domain="simplex")
        upper = lx.SurfacePatch(
            eval=lambda t, s: chart.from_coords([s, t]), domain="simplex", coefficient=-1
        )
        assert cancel_boundary_edges(lx.Surface2Chain(patches=(lower, upper))) == []

    def test_one_triangle_leaves_three_edges(self, torus2):
        chart = torus2.chart
        patch = lx.SurfacePatch(eval=lambda t, s: chart.from_coords([t, s]), domain="simplex")
        leftovers = cancel_boundary_edges(lx.Surface2Chain(patches=(patch,)))
        assert [w for *_, w in leftovers] == [1, 1, -1]
        u = np.array([0.2, 0.7])
        for (patch, start, end, _), coords in zip(leftovers, ([u, 0 * u], [1 + 0 * u, u], [u, u])):
            assert np.allclose(_along(patch, start, end, u), chart.from_coords(np.stack(coords, axis=-1)))

    def test_closure_evaluates_each_patch_once(self, torus2):
        calls = [[] for _ in range(5)]
        patches = [
            lx.SurfacePatch(
                eval=counted(
                    lambda t, s, di=k // 2, dj=k % 2: torus2.chart.from_coords(
                        np.stack([(di + t) / 2.0, (dj + s) / 2.0], axis=-1)
                    ),
                    calls[k],
                ),
                coefficient=1 if k < 4 else 0,
            )
            for k in range(5)
        ]
        lx.assert_cycle_closed(lx.Surface2Chain(patches=tuple(patches)))
        assert [len(c) for c in calls] == [1, 1, 1, 1, 0]

    def test_fundamental_square_cancels(self, torus2):
        chain = square_patch_chain(torus2, lambda t, s: np.array([t, s]))
        assert cancel_boundary_edges(chain) == []

    def test_half_square_leaves_boundary(self, torus2):
        chain = square_patch_chain(torus2, lambda t, s: np.array([t / 2, s]))
        leftovers = cancel_boundary_edges(chain)
        assert leftovers  # vertical seams at coordinates 0 and 1/2 do not match

    def test_quarter_patches_cancel_internal_seams(self, torus2):
        patches = []
        for di in range(2):
            for dj in range(2):
                patches.append(
                    lx.SurfacePatch(
                        eval=(
                            lambda di, dj: lambda t, s: torus2.chart.from_coords(
                                [(di + t) / 2.0, (dj + s) / 2.0]
                            )
                        )(di, dj),
                        domain="square",
                    )
                )
        chain = lx.Surface2Chain(patches=tuple(patches))
        assert cancel_boundary_edges(chain) == []


def closure_reference(chain):
    """cancel_boundary_edges by brute force: each edge against every class
    opener on all 33 samples, forward then reversed, within MEMBERSHIP_TOL
    times max(1, the largest |entry| over every edge of the chain); the
    leftovers as (patch, start, end, net weight)."""
    u = np.linspace(0.0, 1.0, 33)
    edges = []  # [samples, weight, segment]
    for p in chain.patches:
        if p.coefficient == 0:
            continue
        starts, ends, signs = (np.array(x) for x in zip(*lx.geometry._EDGES[p.domain]))
        for start, end, sign, arr in zip(starts, ends, signs, _along(p, starts[:, None], ends[:, None], u)):
            edges.append((arr, int(sign) * p.coefficient, (p, start, end)))
    tol = MEMBERSHIP_TOL * max([1.0] + [float(np.max(np.abs(arr))) for arr, _, _ in edges])
    classes = []  # [opener's samples, net weight, opener's segment]
    for arr, w, segment in edges:
        if np.max(np.abs(arr - arr[0])) <= tol:
            continue
        for c in classes:
            if np.max(np.abs(arr - c[0])) <= tol:
                c[1] += w
                break
            if np.max(np.abs(arr[::-1] - c[0])) <= tol:
                c[1] -= w
                break
        else:
            classes.append([arr, w, segment])
    return [(*segment, w) for _, w, segment in classes if w != 0]


class TestClosureAgainstBruteForce:
    """cancel_boundary_edges picks candidate pairs from four tip entries;
    its classes and net weights are those of comparing every pair."""

    @staticmethod
    def assert_same(chain):
        got, want = cancel_boundary_edges(chain), closure_reference(chain)
        assert len(got) == len(want)
        for (p, a, b, w), (q, c, d, v) in zip(got, want):
            assert p is q and np.array_equal(a, c) and np.array_equal(b, d) and w == v
        return got

    @staticmethod
    def block(rng, chart):
        """A smooth 3-patch in chart coordinates, like the benchmark's cubes."""
        coef = rng.uniform(-0.6, 0.6, size=(chart.dim, 5))

        @vectorized
        def block(u, v, w):
            u, v, w = np.broadcast_arrays(u, v, w)
            x = [a[0] + a[1] * u + a[2] * v * w + a[3] * np.sin(np.pi * w) * u + a[4] * np.cos(np.pi * v)
                 for a in coef]
            return chart.from_coords(np.stack(x, axis=-1))

        return block

    @pytest.mark.parametrize("factory", [lambda: lx.torus_group(2), lx.heisenberg_group],
                             ids=["T2", "heisenberg"])
    def test_cube_boundaries(self, factory, rng):
        group = factory()
        for _ in range(3):
            chain = lx.cube_boundary_chain(self.block(rng, group.chart))
            assert self.assert_same(chain) == []
            assert self.assert_same(lx.Surface2Chain(patches=chain.patches[1:]))  # one face gone

    @staticmethod
    def quarters(torus, flips=(False,) * 4):
        """The quarter tiling of the fundamental square; a flipped quarter
        swaps t and s and has coefficient -1, the same 2-chain."""
        patches = []
        for (a, b), flip in zip([(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)], flips):
            def coords(t, s, a=a, b=b, flip=flip):
                t, s = (s, t) if flip else (t, s)
                return torus.chart.from_coords(np.stack(np.broadcast_arrays(0.5 * t + a, 0.5 * s + b), -1))
            patches.append(lx.SurfacePatch(eval=vectorized(coords), coefficient=-1 if flip else 1))
        return patches

    def test_quarter_tilings_with_reversed_patches(self, torus2):
        for flips in [(False,) * 4, (True, False, False, True), (True,) * 4, (False, True, True, False)]:
            patches = self.quarters(torus2, flips)
            assert self.assert_same(lx.Surface2Chain(patches=tuple(patches))) == []
            assert len(self.assert_same(lx.Surface2Chain(patches=tuple(patches[:3])))) == 4

    def test_triangles_and_negated_patches(self, torus2):
        chart = torus2.chart
        lower = lx.SurfacePatch(eval=lambda t, s: chart.from_coords([0.5 * t, 0.5 * s]), domain="simplex")
        upper = lx.SurfacePatch(eval=lambda t, s: chart.from_coords([0.5 * s, 0.5 * t]), domain="simplex",
                                coefficient=-1)
        negated = replace(lower, coefficient=-1)
        for patches in [(lower, upper), (lower, negated), (lower, upper, negated), (upper, upper, lower)]:
            self.assert_same(lx.Surface2Chain(patches=patches))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("entry", [(2, 0), (0, 1)], ids=["other-entry", "candidate-entry"])
    def test_edges_apart_by_exactly_tol_cancel(self, reverse, entry):
        # A's edge at t = 1 against B's at t = 0, apart by delta at one entry,
        # 0 on A's edge: (2, 0) varies least over the tips and is not among
        # the four candidate entries, (0, 1) is.  The chain's largest |entry|
        # is 3 (t + s on B's edge at t = 1, s = 1), so the rule's tolerance is
        # 3 MEMBERSHIP_TOL, and edges that far apart still cancel
        tol = 3.0 * MEMBERSHIP_TOL

        def a_map(t, s):
            t, s = np.broadcast_arrays(t, s)
            g = np.zeros(t.shape + (3, 3)) + np.eye(3)
            g[..., 0, 1], g[..., 0, 2], g[..., 1, 2], g[..., 1, 0] = t - 1.0, s, t * s, t + s
            return g

        def chain(delta):
            def b_map(t, s):
                g = a_map(1.0 + t, 1.0 - s if reverse else s)
                g[(..., *entry)] += delta
                return g
            return lx.Surface2Chain(patches=(
                lx.SurfacePatch(eval=vectorized(a_map)),
                lx.SurfacePatch(eval=vectorized(b_map), coefficient=-1 if reverse else 1)))

        assert len(self.assert_same(chain(tol))) == 6
        assert len(self.assert_same(chain(np.nextafter(tol, np.inf)))) == 8

    def test_ends_that_match_with_middles_that_do_not(self, torus2):
        # B's edge at t = 0 matches A's at t = 1 at both ends but not between
        a = lambda t, s: torus2.chart.from_coords(np.stack(np.broadcast_arrays(0.5 * t, 0.5 * s), -1))
        b = lambda t, s: torus2.chart.from_coords(
            np.stack(np.broadcast_arrays(0.5 + 0.5 * t + 1e-3 * np.sin(np.pi * s) ** 2, 0.5 * s), -1))
        chain = lx.Surface2Chain(patches=(lx.SurfacePatch(eval=vectorized(a)), lx.SurfacePatch(eval=vectorized(b))))
        assert len(self.assert_same(chain)) == 8


def per_node_integral(form, chain, order, step=lx.groups.DEFAULT_FD_STEP):
    """Reference quadrature: one node at a time, scalar patch calls and the
    public eval_equivariant, in the order the rule defines.  A triangle node
    (i, j) weighs w_i times the integral from 0 to u_i of the j-th Lagrange
    polynomial of the nodes, here built by a Legendre fit."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    lagrange_integrals = [
        np.polynomial.Legendre.fit(nodes, e_j, order - 1, domain=[0, 1]).integ(lbnd=0)
        for e_j in np.eye(order)
    ]
    total = np.zeros(form.cochain.coeff_dim)
    for patch in chain.patches:
        for i, t in enumerate(nodes):
            for j, s in enumerate(nodes):
                inner = lagrange_integrals[j](t) if patch.domain == "simplex" else weights[j]
                g = patch(t, s)
                du = (patch(t + step, s) - patch(t - step, s)) / (2.0 * step)
                dv = (patch(t, s + step) - patch(t, s - step)) / (2.0 * step)
                value = lx.eval_equivariant(form, g, du, dv)
                total = total + patch.coefficient * weights[i] * inner * value
    return total


def random_form(group, rng, coeff_dim=1):
    n = group.algebra.dim
    values = rng.normal(size=n * (n - 1) // 2 * coeff_dim)
    return lx.EquivariantForm(lx.Cochain(2, n, coeff_dim, values), group)


def affine_document(patch_matrix):
    """The ax + b group as a document 'matrix' group, with one matrix patch."""
    return {
        "task": "check-integrability",
        "group": {
            "kind": "matrix",
            "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
            "algebra": {"dim": 2, "structure_constants": [[0, 1, 1, 1.0]]},
        },
        "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [0.7]}]},
        "lattice": {"generators": [[1.0]]},
        "cycles": [{"name": "patch", "patches": [{"domain": "square", "matrix": patch_matrix}]}],
    }


class TestBatchedQuadrature:
    """The array pass against the per-node reference, and its error checks."""

    @staticmethod
    def assert_matches(form, chain, order=6):
        ref = per_node_integral(form, chain, order)
        got = lx.surface_integral(form, chain, order)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))

    def test_opaque_scalar_patch_on_torus(self, torus2, rng):
        chain = square_patch_chain(torus2, lambda t, s: np.array([t + 0.2 * s * s, s - 0.1 * t]))
        self.assert_matches(random_form(torus2, rng), chain)

    def test_product_triangle_on_translation_group(self, trans2, rng):
        p = lx.coordinate_path(trans2, lambda t: np.array([t, np.sin(t)]))
        q = lx.coordinate_path(trans2, lambda t: np.array([t * t, -t]))
        self.assert_matches(random_form(trans2, rng), product_triangle_chain(p, q))

    @pytest.mark.parametrize("factory", [lx.su2_group, lx.sl2_group, lx.heisenberg_group])
    def test_product_triangle_of_exp_paths(self, factory, rng):
        group = factory()
        p = lx.exp_path(group, 0.4 * rng.normal(size=3))
        q = lx.exp_path(group, 0.4 * rng.normal(size=3))
        self.assert_matches(random_form(group, rng, 2), product_triangle_chain(p, q))

    def test_spanning_chain(self, torus2, rng):
        g1, _ = random_torus_path(torus2, rng, winding=[1, 0])
        g2, _ = random_torus_path(torus2, rng, winding=[1, 0])
        self.assert_matches(random_form(torus2, rng), lx.spanning_chain(torus2, g1, g2))

    def test_left_translated_chain(self, rng):
        group = lx.heisenberg_group()
        p = lx.exp_path(group, rng.normal(size=3))
        q = lx.exp_path(group, rng.normal(size=3))
        shift = group.chart.from_coords(rng.normal(size=3))
        chain = left_translate_chain(shift, product_triangle_chain(p, q))
        self.assert_matches(random_form(group, rng), chain)

    def test_document_matrix_group(self):
        doc = parse_document(affine_document([["exp(t - s)", "s * t + 1"], ["0", "1"]]))
        form, chain = lx.EquivariantForm(doc.cocycle, doc.group), doc.cycles[0][1]
        self.assert_matches(form, chain)

    def test_document_group_action(self):
        rate = 2.0 * np.pi
        doc = parse_document({
            "task": "gamma",
            "group": {"kind": "translation", "dim": 2},
            "module": {
                "coeff_dim": 2,
                "rho": [[[0.0, -rate], [rate, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "group_action": {"exprs": ["cos(2*pi*g1)*a1 - sin(2*pi*g1)*a2",
                                           "sin(2*pi*g1)*a1 + cos(2*pi*g1)*a2"]},
            },
            "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [1.0, 0.5]}]},
            "paths": {"p": {"coords": ["0.3*t", "t"]}, "q": {"coords": ["t", "sin(t)"]}},
            "pair": ["p", "q"],
        })
        form = lx.EquivariantForm(doc.cocycle, doc.group, doc.module)
        chain = product_triangle_chain(doc.paths["p"], doc.paths["q"])
        self.assert_matches(form, chain)

    def test_leaving_the_group_at_one_interior_node(self, torus2):
        nodes = 0.5 * (np.polynomial.legendre.leggauss(6)[0] + 1.0)

        def patch(t, s):
            g = torus2.chart.from_coords([t, s])
            return 1.001 * g if (t, s) == (nodes[2], nodes[3]) else g

        chain = lx.Surface2Chain(patches=(lx.SurfacePatch(eval=patch),))
        with pytest.raises(MembershipError):
            lx.surface_integral(torus_form(torus2), chain, 6)
        lx.surface_integral(torus_form(torus2), chain, 5)  # no node there

    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_path_leaving_the_group_at_one_node_is_named(self, torus2, name):
        nodes = 0.5 * (np.polynomial.legendre.leggauss(6)[0] + 1.0)
        inside = lx.coordinate_path(torus2, lambda t: np.array([t, 0.5 * t]))
        outside = lx.GroupPath(eval=lambda t: (1.001 if t == nodes[2] else 1.0) * inside(t))
        paths = (outside, inside) if name == "g1" else (inside, outside)
        with pytest.raises(MembershipError) as info:
            lx.path_cocycle(torus_form(torus2), *paths, 6)
        # 1.001 times a rotation: a^2 + c^2 - 1 = 1.001^2 - 1
        assert str(info.value) == (f"{name} leaves the group at t = {nodes[2]:.6g}: "
                                   "matrix is not in T^2 (residual 2.001e-03)")
        lx.path_cocycle(torus_form(torus2), *paths, 5)  # no node there

    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_off_span_path_tangent_is_named(self, name):
        # the ax + b group has no membership test; (1 + t) E_22 leaves its span
        group = parse_document(affine_document([["exp(t)", "s"], ["0", "1"]])).group
        inside = lx.exp_path(group, np.array([0.5, 1.0]))
        outside = lx.GroupPath(eval=lambda t: np.array([[np.exp(t), t], [0.0, 1.0 + t]]))
        paths = (outside, inside) if name == "g1" else (inside, outside)
        with pytest.raises(TangentDecompositionError, match=rf"^{name}: matrix is .* away from the algebra span"):
            lx.path_cocycle(lx.EquivariantForm(lx.Cochain(2, 2, 1, [0.7]), group), *paths, 4)

    def test_off_span_tangent_in_a_document_patch(self):
        doc = parse_document(affine_document([["exp(t)", "s"], ["0", "1 + t * s"]]))
        form, chain = lx.EquivariantForm(doc.cocycle, doc.group), doc.cycles[0][1]
        with pytest.raises(TangentDecompositionError):
            lx.surface_integral(form, chain, 4)

    def test_singular_matrix_in_a_document_patch(self):
        # order 5 has a node at t = 1/2, where the patch is singular
        doc = parse_document(affine_document([["t - 0.5", "s"], ["0", "1"]]))
        form, chain = lx.EquivariantForm(doc.cocycle, doc.group), doc.cycles[0][1]
        with pytest.raises(MembershipError):
            lx.surface_integral(form, chain, 5)

    def test_user_callable_runs_once_per_point(self, torus2):
        calls = []

        def coords(t):
            calls.append(t)
            return np.array([t, 0.0])

        path = lx.coordinate_path(torus2, coords)
        values = path(np.array([0.25, 0.5, 0.25]))
        assert calls == [0.25, 0.5, 0.25]
        assert np.array_equal(values[0], path(0.25)) and np.array_equal(values[1], path(0.5))


# The R^2 document of TestBatchedQuadrature.test_document_group_action: a
# rotating group action on R^2-valued coefficients.
R2_GROUP_ACTION_DOCUMENT = {
    "task": "gamma",
    "group": {"kind": "translation", "dim": 2},
    "module": {
        "coeff_dim": 2,
        "rho": [[[0.0, -2.0 * np.pi], [2.0 * np.pi, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "group_action": {"exprs": ["cos(2*pi*g1)*a1 - sin(2*pi*g1)*a2",
                                   "sin(2*pi*g1)*a1 + cos(2*pi*g1)*a2"]},
    },
    "cocycle": {"degree": 2, "components": [{"indices": [0, 1], "value": [1.0, 0.5]}]},
    "paths": {"p": {"coords": ["0.3*t", "t"]}, "q": {"coords": ["t", "sin(t)"]}},
    "pair": ["p", "q"],
}


class TestPathCocycleFromPaths:
    """path_cocycle integrates the product triangle from the two paths'
    log-derivatives; product_triangle_chain through surface_integral is the
    generic route to the same integral."""

    @staticmethod
    def assert_agrees(form, p, q, order):
        ref = lx.surface_integral(form, product_triangle_chain(p, q), order)
        got = lx.path_cocycle(form, p, q, order)
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize("factory", [lambda: lx.torus_group(2), lambda: lx.torus_group(3),
                                         lx.su2_group, lx.heisenberg_group, lx.sl2_group],
                             ids=["T2", "T3", "SU2", "Heisenberg", "SL2R"])
    def test_agrees_with_the_chain_route(self, factory, order, rng):
        group = factory()
        n = group.algebra.dim
        p, q = (lx.exp_path(group, 0.4 * rng.normal(size=n)) for _ in range(2))
        self.assert_agrees(random_form(group, rng, 2), p, q, order)

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 64, 96])  # 96: row-sliced passes
    def test_agrees_with_the_chain_route_under_a_group_action(self, order):
        doc = parse_document(R2_GROUP_ACTION_DOCUMENT)
        form = lx.EquivariantForm(doc.cocycle, doc.group, doc.module)
        self.assert_agrees(form, doc.paths["p"], doc.paths["q"], order)

    def test_each_path_is_called_once(self, su2, rng):
        paths = [lx.exp_path(su2, rng.normal(size=3)) for _ in range(2)]
        calls = [[], []]
        counted_paths = [lx.GroupPath(eval=counted(p, c)) for p, c in zip(paths, calls)]
        lx.path_cocycle(random_form(su2, rng), *counted_paths, 16)
        assert [len(c) for c in calls] == [1, 1]
        assert all(np.shape(c[0][0]) == (3, 16) for c in calls)  # nodes, then t + h and t - h


class TestSpanningFromNodes:
    """representative_independence_residuals integrates each spanning surface
    from its paths' values at the rule's parameters and the 64 guard samples
    (_spanning_integral); spanning_chain through surface_integral is the
    generic route to the same integral."""

    @staticmethod
    def from_nodes(form, p, q, order, names=("p", "q")):
        params = np.concatenate([lx.geometry._path_rule(order)[0].ravel(), lx.geometry._GUARD])
        return lx.geometry._spanning_integral(form, p(params), q(params), order, names)

    @classmethod
    def assert_agrees(cls, form, p, q, order):
        ref = lx.surface_integral(form, lx.spanning_chain(form.group, p, q), order)
        got = cls.from_nodes(form, p, q, order)
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))

    @staticmethod
    def detour(group, p, y):
        """t -> p(t) exp(sin(pi t) (1 + t) Y): a path with the ends of p."""
        mat = group.realize(y)
        return lx.GroupPath(eval=vectorized(
            lambda t: p(t) @ group.exp(np.multiply.outer(np.sin(np.pi * t) * (1.0 + t), mat))))

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 64, 96])  # 96: row-sliced passes
    @pytest.mark.parametrize("factory", [lambda: lx.torus_group(2), lambda: lx.torus_group(3),
                                         lx.su2_group, lx.heisenberg_group, lx.sl2_group],
                             ids=["T2", "T3", "SU2", "Heisenberg", "SL2R"])
    def test_agrees_with_the_chain_route(self, factory, order, rng):
        group = factory()
        n = group.algebra.dim
        p = lx.exp_path(group, 0.4 * rng.normal(size=n))
        q = self.detour(group, p, 0.1 * rng.normal(size=n))
        self.assert_agrees(random_form(group, rng, 2), p, q, order)

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 64, 96])  # 96: row-sliced passes
    def test_agrees_with_the_chain_route_under_a_group_action(self, order):
        doc = parse_document(R2_GROUP_ACTION_DOCUMENT)
        form = lx.EquivariantForm(doc.cocycle, doc.group, doc.module)
        p = doc.paths["p"]
        self.assert_agrees(form, p, self.detour(doc.group, p, np.array([0.2, -0.3])), order)

    def test_flux_equals_enclosed_area(self, torus2):
        # the oracle of TestSpanningChain.test_flux_equals_enclosed_area
        form = torus_form(torus2)
        g1, c1 = torus_path(torus2, [1, 0], [[0.10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.02, 0.0]])
        g2, c2 = torus_path(torus2, [1, 0], [[0.0, 0.0], [0.12, 0.05]], [[0.03, 0.0], [0.0, 0.0]])
        assert self.from_nodes(form, g1, g2, 16)[0] == pytest.approx(shoelace_area(c1, c2), abs=1e-7)

    @pytest.mark.parametrize("broken, error", [
        # exp leaves the group, so H does at its first node
        ("exp", MembershipError),
        # log adds the identity, which exp ignores: L leaves the algebra span
        ("log", TangentDecompositionError),
    ])
    def test_errors_name_the_surface_by_its_paths(self, torus2, rng, broken, error):
        # chartless copies take the matrix route, which calls exp and log;
        # the chart route forms the surface in coordinates and calls neither
        maps = {"exp": lambda x: 1.01 * torus2.exp(x), "log": lambda g: torus2.log(g) + np.eye(4)}
        group = replace(torus2, **{broken: vectorized(maps[broken])})
        family = TestPathCocycleIdentities.family(torus2, rng)
        g1, g1p, g2, g2p, _ = map(chartless, family)
        with pytest.raises(error, match="the surface spanning g1 and g1p"):
            lx.representative_independence_residuals(
                lx.EquivariantForm(area_cochain(), group), g1, g1p, g2, g2p, 8)

    @pytest.mark.parametrize("order", [1, 5, 16, 96])  # 96: row-sliced passes
    @pytest.mark.parametrize("kind", ["T2", "T3", "R2", "R2-action"])
    def test_the_chart_route_agrees_with_the_matrix_route(self, kind, order, rng):
        # chart paths of an additive chart span in coordinates, their chartless
        # copies as matrices, whose t-difference on the torus has the truncation
        # h^2 (2 pi)^2 / 6 ~ 6.6e-10 per partial that coordinates do not; with
        # unit windings the largest move, over 20 families per group and over
        # max(1, |omega|), measured 3.2e-9 at order 1 and 6.5e-10 at orders 5
        # to 96; R^2, affine in its coordinates, agreed to the bit
        if kind == "R2-action":
            doc = parse_document(R2_GROUP_ACTION_DOCUMENT)
            form = lx.EquivariantForm(doc.cocycle, doc.group, doc.module)
        else:
            form = random_form({"T2": lx.torus_group(2), "T3": lx.torus_group(3)}.get(kind, lx.translation_group(2)),
                               rng, 2)
        e = np.eye(form.group.chart.dim, dtype=int)
        paths = [random_torus_path(form.group, rng, w)[0] for w in (e[0], e[0], e[1], e[1])]
        got = lx.representative_independence_residuals(form, *paths, order)
        want = lx.representative_independence_residuals(form, *map(chartless, paths), order)
        bound = (5e-9 if order == 1 else 1e-9) * max(1.0, float(np.max(np.abs(form.cochain.values))))
        assert np.max(np.abs(np.array(got) - np.array(want))) <= bound

    def test_coordinates_whole_turns_apart_span_what_their_matrices_span(self, torus2, rng):
        # g1p and g2p have the matrices of g1 and g2, a whole number of turns
        # away in each coordinate: l(t) takes the difference to the log's branch
        form = random_form(torus2, rng)
        g1, _, g2, _, _ = TestPathCocycleIdentities.family(torus2, rng)
        g1p, g2p = (lx.coordinate_path(torus2, lambda t, p=p, turns=turns: p.eval(t) + turns)
                    for p, turns in ((g1, [1.0, -2.0]), (g2, [3.0, 1.0])))
        got = lx.representative_independence_residuals(form, g1, g1p, g2, g2p, 16)
        want = lx.representative_independence_residuals(form, *map(chartless, (g1, g1p, g2, g2p)), 16)
        bound = 1e-9 * max(1.0, float(np.max(np.abs(form.cochain.values))))
        assert np.max(np.abs(np.array(got) - np.array(want))) <= bound

    def test_a_non_finite_coordinate_is_named_on_the_surface(self, torus2, rng):
        # g1's coordinates are NaN at the middle node t = 1/2 of order 5
        g1, g1p = TestPathCocycleIdentities.family(torus2, rng)[:2]
        broken = lx.coordinate_path(torus2, lambda t: np.full(2, np.nan) if t == 0.5 else g1.eval(t))
        params = np.concatenate([lx.geometry._path_rule(5)[0].ravel(), lx.geometry._GUARD])
        with pytest.raises(MembershipError, match=r"^the surface spanning g1 and g1p leaves the group "
                                                  r"at \(t, s\) = \(0\.5, 0\.0469101\): matrix is not in T\^2"):
            lx.geometry._spanning_integral(torus_form(torus2), broken._kept(params), g1p._kept(params), 5,
                                           ("g1", "g1p"))

    @pytest.mark.parametrize("windings, message", [
        (([0.5, 0], [0, 0]), "paths end .* apart"),
        (([1, 0], [0, 1]), "fiberwise logarithm jumps"),  # the same end on T^2
    ])
    def test_guard_checks_stay(self, torus2, rng, windings, message):
        g1, g2 = (random_torus_path(torus2, rng, winding=w)[0] for w in windings)
        for route in (lambda: lx.spanning_chain(torus2, g1, g2),
                      lambda: self.from_nodes(torus_form(torus2), g1, g2, 8)):
            with pytest.raises(NotALoopError, match=message):
                route()


def test_a_refused_fiberwise_logarithm_is_a_branch_error():
    # p(t), a rotation by 2 pi t times diag(e^sin(pi t), e^-sin(pi t)), has
    # trace below -2 around t = 1/2 (-diag(e, 1/e) there) and no real logarithm
    group = lx.sl2_group()
    p = lx.GroupPath(eval=vectorized(lambda t: group.exp(
        np.multiply.outer(2.0 * np.pi * t, group.basis[1] - group.basis[2])) @ group.exp(
        np.multiply.outer(np.sin(np.pi * t), group.basis[0]))))
    e = lx.exp_path(group, np.zeros(3))
    form = lx.EquivariantForm(lx.Cochain(2, 3, 1, [1.0, 0.5, -0.3]), group)
    for route in (lambda: lx.spanning_chain(group, e, p),
                  lambda: lx.representative_independence_residuals(form, e, p, e, e, 8)):
        with pytest.raises(NotALoopError, match=r"^no fiberwise logarithm \(a matrix of trace -2\.14853 has"):
            route()


class TestRulesInOnePass:
    """surface_integrals evaluates each patch once for all its rules; each
    rule's row is what it gives for that rule alone."""

    @staticmethod
    def chain(kind, torus2, rng):
        if kind == "square":
            patch = vectorized(lambda t, s: torus2.chart.from_coords(
                np.stack([t + 0.2 * s * s, s - 0.1 * t], axis=-1)))
            return lx.Surface2Chain(patches=(lx.SurfacePatch(eval=patch),))
        if kind == "simplex":
            g1, g2 = (random_torus_path(torus2, rng)[0] for _ in range(2))
            return product_triangle_chain(g1, g2)
        if kind == "tiled":  # four quarters and a patch of coefficient 0
            patches = [
                lx.SurfacePatch(eval=vectorized(lambda t, s, di=k // 2, dj=k % 2:
                    torus2.chart.from_coords(np.stack([(di + t) / 2.0, (dj + s + 0.1 * t * s) / 2.0], axis=-1))),
                    coefficient=1 if k < 4 else 0)
                for k in range(5)
            ]
            return lx.Surface2Chain(patches=tuple(patches))
        if kind == "chart":  # the square's coordinates, differenced in the chart
            return lx.Surface2Chain(patches=(lx.SurfacePatch(chart=torus2.chart, eval=vectorized(
                lambda t, s: np.stack([t + 0.2 * s * s, s - 0.1 * t], axis=-1))),))
        heis = lx.heisenberg_group()
        return lx.cube_boundary_chain(vectorized(lambda a, b, c: heis.chart.from_coords(
            np.stack(np.broadcast_arrays(a + 0.3 * b * c, b - 0.2 * a * a, c + a * b), axis=-1))))

    @pytest.mark.parametrize("kind", ["square", "simplex", "tiled", "cube", "chart"])
    @pytest.mark.parametrize("orders", [(16, 8), (5, 2), (60, 30), (72, 36)])
    def test_rows_equal_one_rule_calls_bit_for_bit(self, kind, orders, torus2, rng):
        chain = self.chain(kind, torus2, rng)
        group = lx.heisenberg_group() if kind == "cube" else torus2
        form = random_form(group, rng, coeff_dim=2)
        rules = [(orders[0], 1e-5), (orders[1], 2e-5)]
        rows = lx.geometry.surface_integrals(form, chain, rules)
        for row, (order, step) in zip(rows, rules):
            alone = lx.geometry.surface_integrals(form, chain, [(order, step)])[0]
            assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("orders, slices", [
        # order 72 is a full pass and a 1088-node slice, which the 1296
        # nodes of order 36 join
        ((72, 36), [[(0, 4096)], [(0, 1088), (1, 1296)]]),
        # 3600 + 900 nodes exceed a pass, so order 30 takes the next one whole
        ((60, 30), [[(0, 3600)], [(1, 900)]]),
    ])
    def test_passes_hold_whole_slices(self, orders, slices):
        passes = lx.geometry._passes(((orders[0], 1e-5), (orders[1], 2e-5)), "square")
        assert [[(r, int(hi - lo)) for r, lo, hi in p[-1]] for p in passes] == slices
        assert all(p[3].size <= lx.geometry._PASS_NODES for p in passes)


class TestChartPatches:
    """A patch with a chart is differenced in its coordinates, and only its
    nodes, and only for a group action, are mapped to the group."""

    RULES = [(8, 1e-5), (5, 2e-5)]

    @staticmethod
    def routes(chart, coords, domain="square"):
        """The coordinate map as a chart patch and as a chartless patch."""
        coords = vectorized(coords)
        return (lx.SurfacePatch(eval=coords, chart=chart, domain=domain),
                lx.SurfacePatch(eval=vectorized(lambda t, s: chart.from_coords(coords(t, s))), domain=domain))

    @staticmethod
    def affine_rows(group, domain, rng):
        coords = lambda t, s: np.stack(np.broadcast_arrays(t + 0.3 * s * s, s - 0.2 * t * t, t * s), axis=-1)
        form = random_form(group, rng, coeff_dim=2)
        return [lx.geometry.surface_integrals(form, lx.Surface2Chain(patches=(patch,)), TestChartPatches.RULES)
                for patch in TestChartPatches.routes(group.chart, coords, domain)]

    @pytest.mark.parametrize("factory", [lambda: lx.translation_group(3)], ids=["R3"])
    @pytest.mark.parametrize("domain", ["square", "simplex"])
    def test_affine_charts_give_the_matrix_route_bit_for_bit(self, factory, domain, rng):
        assert np.array_equal(*self.affine_rows(factory(), domain, rng))

    @pytest.mark.parametrize("domain", ["square", "simplex"])
    def test_heisenberg_chart_agrees_with_the_matrix_route(self, domain, rng):
        # its tangent's z coefficient dz - x dy rounds x dy, which the matrix
        # route's product may fuse into the subtraction
        for _ in range(5):
            chart, matrix = self.affine_rows(lx.heisenberg_group(), domain, rng)
            assert np.max(np.abs(chart - matrix)) <= 1e-15 * max(1.0, np.max(np.abs(matrix)))

    def test_torus_chart_agrees_with_the_matrix_route(self, torus2, rng):
        coords = lambda t, s: np.stack([t + 0.1 * np.sin(2 * np.pi * s), s + 0.05 * np.sin(2 * np.pi * t)], -1)
        form = random_form(torus2, rng)
        rows = [lx.geometry.surface_integrals(form, lx.Surface2Chain(patches=(patch,)), [(16, 1e-5)])
                for patch in self.routes(torus2.chart, coords)]
        assert np.max(np.abs(rows[0] - rows[1])) <= 1e-8

    def test_the_call_maps_the_coordinates_to_the_group(self, torus2):
        chart_patch, matrix_patch = self.routes(torus2.chart, lambda t, s: np.stack([t, s * t], -1))
        t, s = np.array([0.1, 0.7]), np.array([0.4, 0.2])
        assert np.array_equal(chart_patch(t, s), matrix_patch(t, s))
        assert chart_patch.eval(t, s).shape == (2, 2)

    @pytest.mark.parametrize("factory", [lambda: lx.torus_group(2), lambda: lx.translation_group(2)],
                             ids=["T2", "R2"])
    def test_non_finite_coordinates_at_a_neighbour_name_the_patch(self, factory):
        # NaN beyond the last node in s: only that row's s + h neighbours
        group = factory()
        last = 0.5 * (np.polynomial.legendre.leggauss(4)[0][-1] + 1.0)
        good = lx.SurfacePatch(chart=group.chart, eval=vectorized(lambda t, s: np.stack([t, s], -1)))
        bad = lx.SurfacePatch(chart=group.chart, eval=vectorized(
            lambda t, s: np.stack([t, np.where(s > last, np.nan, s)], -1)))
        form = lx.EquivariantForm(area_cochain(), group)
        with pytest.raises(TangentDecompositionError, match=r"^patches\[1\]: "):
            lx.surface_integral(form, lx.Surface2Chain(patches=(good, bad)), 4)

    def test_only_the_nodes_are_mapped_to_the_group(self, torus2):
        seen = []

        @vectorized
        def from_coords(x):
            seen.append(int(np.prod(np.shape(x)[:-1])))
            return torus2.chart.from_coords(x)

        chart = replace(torus2.chart, from_coords=from_coords)
        patch = lx.SurfacePatch(chart=chart, eval=vectorized(lambda t, s: np.stack([t, s], -1)))
        chain, rules, n = lx.Surface2Chain(patches=(patch,)), [(16, 1e-5), (8, 2e-5)], 16
        lx.geometry.surface_integrals(torus_form(torus2), chain, rules)
        assert seen == []  # finite coordinates need no matrix
        acting = lx.ModuleAction(rho=np.zeros((2, 1, 1)), group_action=lambda g, v: v)
        lx.geometry.surface_integrals(lx.EquivariantForm(area_cochain(), torus2, acting), chain, rules)
        assert sum(seen) == n * n + (n // 2) ** 2  # the nodes, for the action


class TestFormModule:
    """The coefficient module is the form's third argument, trivial by default."""

    @staticmethod
    def r2_gamma(module):
        # p = (t, 0), q = (0, t) on R^2 with omega01 = 1: 0.5 untwisted
        group = lx.translation_group(2)
        p = lx.coordinate_path(group, lambda t: np.array([t, 0.0]))
        q = lx.coordinate_path(group, lambda t: np.array([0.0, t]))
        form = lx.EquivariantForm(area_cochain(), group, module)
        return lx.path_cocycle(form, p, q)

    def test_rho_without_group_action_is_refused(self):
        with pytest.raises(MalformedInputError, match="module.group_action"):
            self.r2_gamma(lx.ModuleAction(rho=[[[1.0]], [[0.0]]]))

    @pytest.mark.parametrize("alg_dim, coeff_dim", [(2, 2), (3, 1)])
    def test_module_dimensions_must_match_the_cochain(self, alg_dim, coeff_dim):
        with pytest.raises(MalformedInputError, match="module"):
            self.r2_gamma(lx.trivial_module(alg_dim, coeff_dim))

    def test_group_action_twists_the_path_cocycle(self):
        chart = lx.translation_group(2).chart
        module = lx.ModuleAction(
            rho=[[[1.0]], [[0.0]]],
            group_action=lambda g, v: np.exp(chart.to_coords(g)[0]) * v,
        )
        assert self.r2_gamma(module)[0] == pytest.approx(1.0, abs=1e-8)
        assert self.r2_gamma(None)[0] == pytest.approx(0.5, abs=1e-8)
