"""Stacked evaluation: the library's maps take arrays of points.

Every map the library builds (group exp/log/inverse/membership, charts,
document patches and paths, translated and product surfaces) broadcasts
over leading axes: a stack of N points in, a stack of N values out, and a
single point is the case without leading axes.  Such maps carry the
`vectorized` mark.  A callable written by the user carries no mark and is
evaluated point by point through `per_point`, once per distinct point.
"""

import math
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
    leading axes passes its arguments to fn unchanged.  fn is called once
    per distinct point: the points are found by one unique over rows of all
    arguments, or, for one argument of one number such as a curve f(t), by
    one 1-D unique whose np.float64 values fn gets in turn.
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
        shapes = [a.shape[len(lead):] for a in arrays]
        sizes = [math.prod(shape) for shape in shapes]
        # one array per argument, its first axis running over the distinct points
        if sizes == [1]:  # one argument of one number, as a curve f(t): a 1-D unique
            points, where = np.unique(arrays[0], return_inverse=True)
            parts = [points.reshape((-1,) + shapes[0])]
        else:
            rows = np.concatenate([a.reshape(-1, n) for a, n in zip(arrays, sizes)], axis=1)
            points, where = np.unique(rows, axis=0, return_inverse=True)
            columns = np.split(points, np.cumsum(sizes)[:-1], axis=1)
            parts = [c.reshape((-1,) + shape) for c, shape in zip(columns, shapes)]
        values = np.array([fn(*point) for point in zip(*parts)], dtype=float)
        return values[where.reshape(-1)].reshape(lead + values.shape[1:])

    return stacked
