"""Stacked evaluation: the library's maps take arrays of points.

Every map the library builds (group exp/log/inverse/membership, charts,
document patches and paths, translated and product surfaces) broadcasts
over leading axes: a stack of N points in, a stack of N values out, and a
single point is the case without leading axes.  Such maps carry the
`vectorized` mark.  A callable written by the user carries no mark and is
evaluated through `per_point`, called once per point, in row-major order.
"""

from typing import Callable

import numpy as np


def vectorized(fn: Callable) -> Callable:
    """Mark fn as broadcasting over leading axes of its arguments."""
    fn.vectorized = True
    return fn


def per_point(fn: Callable, point_ndim: int = 0) -> Callable:
    """fn when it is vectorized; else a vectorized map calling fn per point.

    point_ndim is the number of trailing axes of one point of the first
    argument (0 for curve and surface parameters, which are broadcast
    together; 1 for a coordinate vector; 2 for a matrix).  A call without
    leading axes passes its arguments to fn unchanged.  Otherwise fn is
    called once per point, in row-major order over the leading axes, with
    np.float64 parameters or arrays of one point's shape.
    """
    if getattr(fn, "vectorized", False):
        return fn

    @vectorized
    def stacked(*args):
        arrays = [np.asarray(a, dtype=float) for a in args]
        if point_ndim == 0:
            arrays = np.broadcast_arrays(*arrays)
        lead = arrays[0].shape[: arrays[0].ndim - point_ndim]
        if not lead:
            return np.asarray(fn(*args), dtype=float)
        points = [a.reshape((-1,) + a.shape[len(lead):]) for a in arrays]
        values = np.array([fn(*point) for point in zip(*points)], dtype=float)
        return values.reshape(lead + values.shape[1:])

    return stacked
