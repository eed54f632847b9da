import math
from functools import partial

import numpy as np
import pytest

import lieext as lx
from lieext.batch import vectorized
from lieext.geometry import DEFAULT_QUAD_ORDER, _along, cancel_boundary_edges
from lieext.groups import DEFAULT_FD_STEP, MEMBERSHIP_TOL, _quaternion_left_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def heis3():
    return lx.heisenberg3_algebra()


@pytest.fixture
def sl2():
    return lx.sl2_algebra()


@pytest.fixture
def r2():
    return lx.abelian_algebra(2)


@pytest.fixture
def torus2():
    return lx.torus_group(2)


@pytest.fixture
def trans2():
    return lx.translation_group(2)


@pytest.fixture
def su2():
    return lx.su2_group()


@pytest.fixture
def unit_lattice():
    return lx.Lattice(generators=[[1.0]])


def random_cochain(degree, alg_dim, coeff_dim, rng):
    size = math.comb(alg_dim, degree) * coeff_dim
    return lx.Cochain(degree, alg_dim, coeff_dim, rng.normal(size=size))


def direct_sum(a, b):
    n, p = a.dim, b.dim
    c = np.zeros((n + p, n + p, n + p))
    c[:n, :n, :n] = a.structure_constants
    c[n:, n:, n:] = b.structure_constants
    return lx.LieAlgebra(structure_constants=c)


def change_of_basis(alg, p):
    """Structure constants in the basis e'_a = sum_i p[i, a] e_i."""
    p = np.asarray(p, dtype=float)
    if p.shape != (alg.dim, alg.dim):
        raise lx.MalformedInputError("change of basis must be n x n")
    cprime = np.einsum("ia,jb,ijk,kc->abc", p, p, alg.structure_constants, np.linalg.inv(p).T)
    return lx.LieAlgebra(structure_constants=cprime)


def empty_chain():
    return lx.Surface2Chain(patches=())


def identity_path(group):
    eye = group.identity
    return lx.GroupPath(eval=vectorized(lambda t: np.zeros(np.shape(t) + eye.shape) + eye))


def quaternion_element(q):
    """Unit quaternions (..., 4) (w, x, y, z) -> SU(2) group elements."""
    q = np.asarray(q, dtype=float)
    return _quaternion_left_matrix(q / np.linalg.norm(q, axis=-1, keepdims=True))


def area_cochain(c=1.0):
    """omega(e0, e1) = c on a 2-dimensional algebra, values in R."""
    return lx.cochain_from_pairs(2, 1, {(0, 1): c})


def torus_path(group, winding, sin_coeffs, cos_coeffs, amp=0.12):
    """Smooth based torus path with integer winding and bounded wiggle.

    Coordinates w*t + sum_k a_k sin(2 pi k t) + b_k (cos(2 pi k t) - 1):
    based, endpoint = winding, periodic derivative.  The non-winding part
    is clamped below amp per coordinate so homotopic pairs stay within the
    principal branch of the fiberwise logarithm.
    """
    w = np.asarray(winding, dtype=float)
    a = np.array(sin_coeffs, dtype=float)
    b = np.array(cos_coeffs, dtype=float)
    for row in range(a.shape[0]):
        total = np.sum(np.abs(a[row])) + 2.0 * np.sum(np.abs(b[row]))
        if total > amp:
            a[row] *= amp / total
            b[row] *= amp / total
    ks = np.arange(1, a.shape[1] + 1)

    def coords(t):
        return (
            w * t
            + a @ np.sin(2.0 * np.pi * ks * t)
            + b @ (np.cos(2.0 * np.pi * ks * t) - 1.0)
        )

    return lx.coordinate_path(group, coords), coords


def random_torus_path(group, rng, winding=None, amp=0.12, harmonics=2):
    k = group.chart.dim
    if winding is None:
        winding = rng.integers(-2, 3, size=k)
    sin_c = rng.normal(0.0, 0.06, size=(k, harmonics))
    cos_c = rng.normal(0.0, 0.06, size=(k, harmonics))
    return torus_path(group, winding, sin_c, cos_c, amp)


def shoelace_area(coords1, coords2, n=20001):
    """Signed area of the loop (path1 then reversed path2), in coordinates.

    Independent oracle for spanning-surface fluxes on T^2 and R^2.
    """
    ts = np.linspace(0.0, 1.0, n)
    pts = np.array([coords1(t) for t in ts] + [coords2(t) for t in ts[::-1]])
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def log_derivative(group, path, t):
    """Left logarithmic derivative g^-1 g' in the algebra basis, at one
    parameter or a stack of them; g' is a central difference."""
    h = DEFAULT_FD_STEP
    tangent = (path(np.add(t, h)) - path(np.subtract(t, h))) / (2.0 * h)
    return group.decompose(group.inverse(path(t)) @ tangent)


def product_triangle_chain(g1, g2):
    """The triangle (t, s) -> g1(t) g2(s) on {0 <= s <= t <= 1}: the chain
    form of what path_cocycle integrates, its generic-route oracle.

    Its boundary is g1 + (g1(1) . g2) - (g1 g2): the first path, the left
    translate of the second, minus their pointwise product."""
    patch = lx.SurfacePatch(eval=vectorized(lambda t, s: g1(t) @ g2(s)), domain="simplex")
    return lx.Surface2Chain(patches=(patch,))


def left_translate_chain(g, chain):
    """Each patch of the chain multiplied on the left by the matrix g."""
    g = np.asarray(g, dtype=float)
    return lx.Surface2Chain(patches=tuple(
        lx.SurfacePatch(eval=(lambda p: vectorized(lambda t, s: g @ p(t, s)))(p),
                        domain=p.domain, coefficient=p.coefficient)
        for p in chain.patches
    ))


class BoundaryMismatchError(lx.LieExtError):
    """A bounding surface's boundary does not match the given loop."""


def distances_to_curve(points, curve):
    """Distance from each matrix of a stack to a sampled-then-refined point
    on a curve: a grid of 65 parameters brackets each nearest parameter,
    then 80 ternary steps refine all brackets at once."""
    def dist(us):
        return np.max(np.abs(curve(us) - points), axis=(-2, -1))

    us = np.linspace(0.0, 1.0, 65)
    k = np.argmin(np.max(np.abs(curve(us)[:, None] - points), axis=(-2, -1)), axis=0)
    lo, hi = us[np.maximum(0, k - 1)], us[np.minimum(64, k + 1)]
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        d1, d2 = dist(np.stack([m1, m2]))
        lo, hi = np.where(d1 < d2, lo, m1), np.where(d1 < d2, m2, hi)
    return dist(0.5 * (lo + hi))


def holonomy(form, loop, bounding, lattice=None, quad_order=DEFAULT_QUAD_ORDER):
    """Holonomy defect around a loop: the bounding-surface integral mod Gamma.

    The loop must close at the identity, and every sampled loop point must
    lie on the uncancelled boundary of the bounding chain."""
    params = np.linspace(0.0, 1.0, 24)
    points = loop(params)  # points[0] and points[-1] are the loop's ends
    scale = max(1.0, float(np.max(np.abs(points[0]))))
    tol = 100 * MEMBERSHIP_TOL * scale
    if float(np.max(np.abs(points[-1] - points[0]))) > tol:
        raise lx.NotALoopError("loop endpoints do not match")
    curves = [partial(_along, patch, start, end) for patch, start, end, _ in cancel_boundary_edges(bounding)]
    if float(np.max(np.abs(points - points[0]))) <= tol:  # constant loop
        if curves:
            raise BoundaryMismatchError("bounding chain has net boundary but the loop is constant")
    else:
        if not curves:
            raise BoundaryMismatchError(
                "bounding chain has no net boundary but the loop is not constant"
            )
        best = np.min([distances_to_curve(points, c) for c in curves], axis=0)
        far = np.flatnonzero(best > tol)
        if far.size:
            raise BoundaryMismatchError(
                f"loop point at parameter {params[far[0]]:.3f} is {best[far[0]]:.3e} "
                "away from the chain boundary"
            )
    return lx.reduce_mod_lattice(lattice, lx.surface_integral(form, bounding, quad_order))
