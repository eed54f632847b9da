"""Reference answers the benchmark checks the program against.

Nothing here calls into lieext: the closed forms come from the literature
and the cochain-complex code is a separate row-wise assembly, so a defect
in the program cannot hide in its own reference.

* dim H^p(R^n) = C(n, p), times m for an m-dimensional trivial module;
* Santharoubane: dim H^p(h_{2k+1}) = C(2k, p) - C(2k, p - 2) for p <= k,
  and Poincare duality b_p = b_{2k+1-p} above that;
* Kunneth for sl2 (+) g: b_p = sum_q b_q(sl2) b_{p-q}(g) with
  H(sl2) = [1, 0, 0, 1], so C(k, p) + C(k, p - 3) for sl2 (+) R^k;
* Whitehead: sl2 with its adjoint module has no cohomology at all;
* for any other algebra, Betti numbers do not depend on the basis, so the
  standard-basis numbers from this module's own complex are the reference.
"""

import itertools
from math import comb

import numpy as np


def betti_abelian(n, m=1):
    return [m * comb(n, p) for p in range(n + 1)]


def betti_heisenberg(k):
    """Santharoubane for p <= k, Poincare duality above."""
    n = 2 * k + 1
    low = [comb(2 * k, p) - (comb(2 * k, p - 2) if p >= 2 else 0) for p in range(k + 1)]
    return [low[p] if p <= k else low[n - p] for p in range(n + 1)]


def betti_sl2_sum(other):
    """Kunneth for sl2 (+) g with trivial coefficients, given b(g)."""
    sl2 = [1, 0, 0, 1]
    out = [0] * (len(other) + 3)
    for q, a in enumerate(sl2):
        for r, b in enumerate(other):
            out[q + r] += a * b
    return out


def betti_whitehead(n):
    return [0] * (n + 1)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex, assembled row by row


def d_matrix(c, rho, p):
    """Matrix of d_p : C^p -> C^{p+1} on increasing multi-indices.

    Row (I, a), I = (i_0 < ... < i_p):
      sum_r (-1)^r rho[i_r] omega(I without i_r)
      + sum_{r<s} (-1)^{r+s} sum_k c[i_r, i_s, k] omega(e_k, I without i_r, i_s)
    with coefficient index fastest, as in the program's documented order.
    """
    n = c.shape[0]
    m = rho.shape[1]
    cols = {key: pos for pos, key in enumerate(itertools.combinations(range(n), p))}
    rows = list(itertools.combinations(range(n), p + 1))
    mat = np.zeros((len(rows) * m, len(cols) * m))
    for r_pos, big in enumerate(rows):
        rsl = slice(r_pos * m, (r_pos + 1) * m)
        for r in range(p + 1):
            rest = big[:r] + big[r + 1:]
            c_pos = cols[rest]
            mat[rsl, c_pos * m:(c_pos + 1) * m] += (-1) ** r * rho[big[r]]
        for r in range(p + 1):
            for s in range(r + 1, p + 1):
                rest = tuple(big[q] for q in range(p + 1) if q not in (r, s))
                sign = (-1) ** (r + s)
                for k in np.nonzero(c[big[r], big[s]])[0]:
                    if k in rest:
                        continue
                    key = tuple(sorted((int(k),) + rest))
                    # moving e_k from the front to its sorted slot
                    perm = (-1) ** key.index(int(k))
                    c_pos = cols[key]
                    block = mat[rsl, c_pos * m:(c_pos + 1) * m]
                    block += sign * perm * c[big[r], big[s], k] * np.eye(m)
    return mat


def rank(mat):
    if mat.size == 0:
        return 0
    return int(np.linalg.matrix_rank(mat))


def betti_numbers(c, rho):
    n = c.shape[0]
    ranks = [rank(d_matrix(c, rho, p)) for p in range(n + 1)]
    m = rho.shape[1]
    return [
        comb(n, p) * m - ranks[p] - (ranks[p - 1] if p else 0) for p in range(n + 1)
    ]


def null_space(mat, tol=1e-9):
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    _, s, vt = np.linalg.svd(mat)
    cut = tol * max(1.0, s[0] if s.size else 0.0)
    return vt[int(np.sum(s > cut)):].T


def orth_complement_in(z_basis, b_span):
    """Columns of Z orthogonal to the column span of b_span: representatives
    of nonzero classes."""
    u, s, _ = np.linalg.svd(b_span, full_matrices=False)
    q = u[:, : int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 0.0)))]
    proj = z_basis - q @ (q.T @ z_basis)
    u, s, _ = np.linalg.svd(proj, full_matrices=False)
    return u[:, : int(np.sum(s > 1e-8))]


# ---------------------------------------------------------------------------
# Lattices


def _gauss_reduce(gens):
    """Lagrange-Gauss reduction of a rank-2 basis (rows); rank 1 unchanged."""
    if gens.shape[0] != 2:
        return gens
    a, b = gens[0].copy(), gens[1].copy()
    if a @ a > b @ b:
        a, b = b, a
    while True:
        b = b - np.round((a @ b) / (a @ a)) * a
        if b @ b >= a @ a:
            return np.array([a, b])
        a, b = b, a


def nearest_lattice_point(gens, v, radius=2):
    """Nearest lattice point to v (rank 1 or 2 lattices).

    gens holds the generators as rows.  The basis is Gauss-reduced, then a
    box of integer offsets around the real solution is searched; on a
    reduced basis the nearest point lies inside that box.
    """
    gens = _gauss_reduce(np.asarray(gens, dtype=float))
    v = np.asarray(v, dtype=float)
    coeffs, *_ = np.linalg.lstsq(gens.T, v, rcond=None)
    base = np.floor(coeffs)
    best, best_dist = None, np.inf
    for offs in itertools.product(range(-radius, radius + 2), repeat=gens.shape[0]):
        point = gens.T @ (base + np.array(offs))
        dist = float(np.linalg.norm(v - point))
        if dist < best_dist:
            best, best_dist = point, dist
    return best, best_dist

