import numpy as np
import pytest

import lieext as lx
import lieext.geometry as geometry
from lieext.batch import per_point, vectorized

from conftest import area_cochain, random_torus_path


def recording(fn):
    """fn, recording the arguments of every call."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return fn(*args)

    return wrapped, calls


class TestPerPoint:
    def test_vectorized_maps_pass_through(self):
        fn = vectorized(lambda t: t)
        assert per_point(fn) is fn

    def test_parameters_arrive_as_float64_scalars(self):
        fn, calls = recording(lambda t, s: t * s)
        per_point(fn)(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert calls and all(type(a) is np.float64 for args in calls for a in args)

    @pytest.mark.parametrize("point_shape", [(1,), (3,), (2, 2)])
    def test_points_arrive_as_arrays_of_their_shape(self, point_shape):
        fn, calls = recording(lambda x: 2.0 * x)
        stack = np.arange(4 * np.prod(point_shape), dtype=float).reshape((4,) + point_shape)
        values = per_point(fn, len(point_shape))(stack)
        assert len(calls) == 4
        for (x,) in calls:
            assert isinstance(x, np.ndarray) and x.shape == point_shape and x.dtype == float
        assert np.array_equal(values, 2.0 * stack)

    def test_call_without_leading_axes_passes_arguments_unchanged(self):
        fn, calls = recording(lambda t: [t, 1.0])
        assert np.array_equal(per_point(fn)(0.5), [0.5, 1.0])
        assert calls == [(0.5,)] and type(calls[0][0]) is float

    def test_one_call_per_parameter_in_row_major_order(self):
        # repeated points, 0.0 and -0.0 included, are called again
        fn, calls = recording(lambda t: np.eye(2) * t)
        ts = np.array([[0.25, 0.5, 0.25], [0.0, -0.0, 0.25]])
        values = per_point(fn)(ts)
        assert [t for (t,) in calls] == list(ts.ravel())
        assert [np.signbit(t) for (t,) in calls] == list(np.signbit(ts.ravel()))
        assert all(type(t) is np.float64 for (t,) in calls)
        assert values.shape == (2, 3, 2, 2)
        assert np.array_equal(values, ts[..., None, None] * np.eye(2))

    def test_one_call_per_pair_in_row_major_order(self):
        # parameters are broadcast together, then read in row-major order
        fn, calls = recording(lambda t, s: [t - s, t + s])
        per_point(fn)(np.array([[0.1], [0.2]]), np.array([0.2, 0.1]))
        assert calls == [(0.1, 0.2), (0.1, 0.1), (0.2, 0.2), (0.2, 0.1)]
        assert all(type(a) is np.float64 for args in calls for a in args)

    def test_one_call_per_matrix_in_row_major_order(self):
        # a point of several axes arrives as an array of its own shape
        fn, calls = recording(lambda g: g @ g)
        mats = np.array([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
        per_point(fn, 2)(mats)
        assert len(calls) == 3
        assert all(g.shape == (2, 2) and np.array_equal(g, m) for (g,), m in zip(calls, mats))

    @pytest.mark.parametrize(
        "fn, point_ndim, args",
        [
            (lambda t: np.array([np.sin(t), t * t]), 0, ((5, 7),)),
            (lambda t, s: np.sin(t) * np.cos(s) + t / (1.0 + s), 0, ((6, 4), (6, 4))),
            (lambda t, s: np.outer([t, s], [s, 1.0]), 0, ((9,), ())),
            (lambda x: np.array([[x[0], -x[1]], [x[1], x[0]]]) / 3.0, 1, ((3, 5, 2),)),
            (lambda g: g @ g.T - np.trace(g), 2, ((8, 3, 3),)),
        ],
    )
    def test_matches_a_plain_loop_bit_for_bit(self, fn, point_ndim, args):
        rng = np.random.default_rng(7)
        # values from a small set, so that points repeat
        arrays = [rng.choice([-0.5, 0.125, 0.3, 1.0], size=shape) for shape in args]
        got = per_point(fn, point_ndim)(*arrays)
        arrays = [np.asarray(a) for a in np.broadcast_arrays(*arrays)] if point_ndim == 0 else arrays
        lead = arrays[0].shape[: arrays[0].ndim - point_ndim]
        want = np.empty(got.shape)
        for index in np.ndindex(lead):
            want[index] = fn(*(a[index] for a in arrays))
        assert np.array_equal(got, want)

    def test_exception_in_fn_propagates_unchanged(self):
        error = ValueError("bad point")

        def fn(t):
            if t > 0.5:
                raise error
            return t

        with pytest.raises(ValueError) as info:
            per_point(fn)(np.linspace(0.0, 1.0, 5))
        assert info.value is error


def test_representatives_integrate_each_distinct_surface_once(monkeypatch):
    torus = lx.torus_group(2)
    form = lx.EquivariantForm(area_cochain(1.0), torus)
    rng = np.random.default_rng(3)
    g1, g1p, g2, g2p = (random_torus_path(torus, rng, w)[0] for w in ([1, 0], [1, 0], [0, 1], [0, 1]))
    calls = {"_path_nodes": [], "_triangle_integral": [], "_spanning_integral": []}
    for name, found in calls.items():
        def counted(*args, found=found, integrate=getattr(geometry, name), **kwargs):
            found.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(geometry, name, counted)
    values = lx.representative_independence_residuals(form, g1, g1p, g2, g2p, 8)
    # the path cocycle's per-path step once per path, its pair step for the
    # four product triangles, and as surfaces the three spanning surfaces of
    # the products and the two fluxes of the replaced factors
    assert [len(found) for found in calls.values()] == [4, 4, 5]
    assert [args[1] for args in calls["_path_nodes"]] == ["g1", "g1p", "g2", "g2p"]
    assert [args[4] for args in calls["_spanning_integral"]] == [
        ("g1", "g1p"), ("g2", "g2p"), ("g1 g2", "g1p g2"), ("g1 g2", "g1 g2p"), ("g1 g2", "g1p g2p")]
    # the order-8 identities land near the lattice Z
    assert all(np.max(np.abs(v - np.round(v))) < 1e-2 for v in values)
