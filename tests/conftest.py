import math

import numpy as np
import pytest

import lieext as lx
from lieext.batch import vectorized
from lieext.groups import _quaternion_left_matrix


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
