"""Cochain complexes of a Lie algebra and of a Lie group.

The algebra side is concrete linear algebra: an alternating n-cochain with
values in R^m is one (C(dim, n), m) array whose rows follow the shared
index table of strictly increasing basis multi-indices, the coboundary d is
assembled as a matrix in that basis, and ranks and bases come from singular
values.  The group side is an evaluator only: group cochains are
user-supplied smooth maps and the coboundary delta is applied pointwise to
tuples of group elements.

Component order convention, fixed for every matrix in the package and
owned by index_table alone: strictly increasing multi-indices in
lexicographic order, coefficient index varying fastest (flat position =
index_position * m + coefficient).
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import DEFAULT_TOL_ALG, LieAlgebra, ModuleAction, scale_of
from .errors import LieExtError, MalformedInputError, NotACocycleError, UserFunctionError, _quoted

RANK_TOL_FACTOR = 1e-10
# cohomology_table balances a basis whose non-zero constants spread over more
# binary orders than this (about 1e-8 of the largest): a part of the algebra at
# that scale comes within a factor 100 of the rank cutoff (see _balanced).
BALANCE_SPREAD = 26
# d_n is assembled dense and its SVD takes a few copies of it; a d_n with
# more entries than this (128 MiB of doubles) is refused.
MAX_D_ENTRIES = 2**24
# The plans of d_n (see _plan) kept in memory, and the size of the largest
# one kept: 2 MiB of int32 (index, source) pairs, 128 MiB for a full cache.
TERM_CACHE_SIZE = 64
MAX_CACHED_TERMS = 2**18


@functools.lru_cache(maxsize=256)
def index_table(n_g: int, degree: int) -> np.ndarray:
    """The strictly increasing degree-tuples in range(n_g), in lex order, as a
    shared read-only (C(n_g, degree), degree) array; degree 0 is one empty row."""
    combos = list(itertools.combinations(range(n_g), degree))
    table = np.array(combos, dtype=np.intp).reshape(len(combos), degree)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Cochain:
    """Alternating multilinear map g^n -> R^m on a fixed algebra basis.

    values is a read-only (C(alg_dim, degree), coeff_dim) array: row p is
    the value on the p-th row of index_table(alg_dim, degree).  It is given
    as any array of that size (kept as a view when it already holds floats),
    or left out for the zero cochain; cochain_from_pairs reads keyed input.
    Its call, on vectors or stacks of them, is the package's one evaluator.
    """

    degree: int
    alg_dim: int
    coeff_dim: int
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        shape = (math.comb(self.alg_dim, self.degree), self.coeff_dim)
        values = np.zeros(shape) if self.values is None else np.asarray(self.values)
        if values.dtype.kind not in "iuf":
            raise MalformedInputError(
                f"cochain values must be real numbers, not dtype {values.dtype}")
        values = values.astype(float, copy=False).reshape(shape)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __call__(self, *vectors: np.ndarray) -> np.ndarray:
        """Alternating multilinear evaluation on vectors (..., alg_dim) that broadcast together,
        valued (..., coeff_dim).  Minor p of the index table is x_i y_j - x_j y_i in degree 2,
        else a batched det, set to exact zero where two arguments are equal."""
        if len(vectors) != self.degree:
            raise MalformedInputError(
                f"degree-{self.degree} cochain called with {len(vectors)} arguments"
            )
        if self.degree == 0:
            return self.values[0].copy()
        try:
            lengths = {np.shape(v)[-1:] for v in vectors}
            vecs = np.broadcast_arrays(*map(np.asarray, vectors))
        except ValueError:  # a ragged list, or shapes that do not broadcast
            lengths = None
        if lengths != {(self.alg_dim,)} or any(v.dtype.kind not in "iuf" for v in vecs):
            raise MalformedInputError(f"arguments must be real vectors of length {self.alg_dim}, "
                                      "or stacks of them that broadcast together")
        keys = index_table(self.alg_dim, self.degree)
        if self.degree == 2:
            (x, y), (i, j) = (v.astype(float, copy=False) for v in vecs), keys.T
            return (x[..., i] * y[..., j] - x[..., j] * y[..., i]) @ self.values
        mat = np.stack(vecs, axis=-2)  # (..., degree, alg_dim)
        a, b = np.triu_indices(self.degree, 1)
        same = np.all(mat[..., a, :] == mat[..., b, :], axis=-1).any(axis=-1, keepdims=True)
        # minor p is det(mat[..., :, key_p]): one batched det over the index table
        return np.where(same, 0.0, np.linalg.det(np.moveaxis(mat[..., keys], -2, -3)) @ self.values)

    def to_vector(self) -> np.ndarray:
        """Read-only flat view in the package component order."""
        return self.values.reshape(-1)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def __add__(self, other: "Cochain") -> "Cochain":
        return replace(self, values=self.values + self._values_of(other))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return replace(self, values=self.values - self._values_of(other))

    def __mul__(self, scalar: float) -> "Cochain":
        return replace(self, values=float(scalar) * self.values)

    __rmul__ = __mul__

    def _values_of(self, other: "Cochain") -> np.ndarray:
        if (other.degree, other.alg_dim, other.coeff_dim) != (
            self.degree, self.alg_dim, self.coeff_dim
        ):
            raise MalformedInputError("cochains have different degree or dimensions")
        return other.values


def cochain_from_pairs(alg_dim, coeff_dim, pairs, degree=2) -> Cochain:
    """Cochain from {(i, j): value} input, the one reader of keyed components.

    Each key is looked up in index_table(alg_dim, degree); a key that is not
    a strictly increasing degree-tuple in range(alg_dim), or a value that is
    not coeff_dim finite numbers (a string or a boolean is none), raises
    MalformedInputError.  Missing keys are zero, and a value may be a
    scalar when coeff_dim is 1.
    """
    position = {key: p for p, key in enumerate(map(tuple, index_table(alg_dim, degree).tolist()))}
    unknown = [key for key in pairs if key not in position]
    if unknown:
        raise MalformedInputError(
            f"component indices {_quoted(unknown)} are not strictly "
            f"increasing degree-{degree} tuples in range({alg_dim})"
        )
    rows = np.zeros((len(position), coeff_dim))
    count = "1 number" if coeff_dim == 1 else f"{coeff_dim} numbers"
    for key, val in pairs.items():
        try:
            row = np.asarray(val)
        except ValueError:  # a ragged list
            row = None
        if row is None or row.dtype.kind not in "iuf" or row.size != coeff_dim:
            raise MalformedInputError(f"value for {key} must be {count}, got {_quoted(val)}")
        if not np.all(np.isfinite(row)):
            raise MalformedInputError(f"value for {key} must be finite, got {_quoted(val)}")
        rows[position[key]] = row.reshape(coeff_dim)
    return Cochain(degree, alg_dim, coeff_dim, rows)


def _lex_rank(tuples: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Position of each sorted row of `tuples` in index_table(n_g, k).

    Combinatorial number system for lex order:
    rank(a_0 < .. < a_{k-1}) = C(n_g, k) - 1 - sum_i C(n_g - 1 - a_i, k - i),
    with binom[x, j] = C(x, j) for x <= n_g, j <= k.
    """
    n_g, k = binom.shape[0] - 1, tuples.shape[1]
    return binom[n_g, k] - 1 - binom[n_g - 1 - tuples, k - np.arange(k)].sum(axis=1)


def _term_count(dim: int, n: int, m: int = 1) -> int:
    """Scalar terms of d_n: per row, n + 1 action slots of m^2 entries and
    C(n + 1, 2) slot pairs of m, each with the dim - n + 1 k not in the rest."""
    return math.comb(dim, n + 1) * ((n + 1) * m * m + math.comb(n + 1, 2) * (dim - n + 1) * m)


@functools.lru_cache(maxsize=TERM_CACHE_SIZE)
def _plan(dim: int, n: int, m: int) -> tuple:
    """(index, source), read-only int32: term t of d_n adds signed[source[t]]
    to the flat entry index[t], signed = [rho, -rho, c, -c] flattened, in an
    order that sums each entry as the formula does: the action term first,
    then slot pairs ascending.

    Row block I = (i_0 < .. < i_n) gets the m x m action term (-1)^p rho[i_p]
    in the column block of I without i_p, and for each slot pair p < q and
    each k not in the rest of I the bracket term (-1)^(p+q+s) c[i_p, i_q, k]
    I_m in the column block J of the rest with k sorted in, s the slot of k
    in J.  Every such k is listed, zero c or not, so the plan depends on
    (dim, n, m) alone.

    Only k = i_p or i_q lands on a column of I without one slot, where the
    action terms are; those bracket terms follow the action terms, pair by
    pair.  A k outside I gives a J that no other term reaches, found as
    (I without i_q, plus k) without i_p.  Indices fit int32: index is below
    MAX_D_ENTRIES, and a d_n with bracket terms has n >= 1 and so dim <= 322.

    Cached by (dim, n, m): at most TERM_CACHE_SIZE plans of at most
    MAX_CACHED_TERMS terms, 8 bytes each, 128 MiB at worst; a larger plan
    (d_6 at dim 13, d_1 from dim 81 on, m = 1) is built per call, not kept.
    """
    # the ranks read C(x, j) <= C(dim, n) only: larger ones are clipped
    binom = np.array(
        [[min(math.comb(x, j), 2**62) for j in range(n + 1)] for x in range(dim + 1)],
        dtype=np.intp,
    )
    rows = index_table(dim, n + 1)
    slots = np.arange(n + 1, dtype=np.int32)
    others = np.array([np.delete(slots, p) for p in slots], dtype=np.intp).reshape(n + 1, n)
    # drop[r, p]: the column of row r without its slot p
    drop = _lex_rank(rows[:, others].reshape(len(rows) * (n + 1), n), binom)
    drop = drop.reshape(len(rows), n + 1).astype(np.int32)
    rows = rows.astype(np.int32)
    every = np.arange(len(rows), dtype=np.int32)
    # src: i_p in [rho, -rho] per action term, (i_p, i_q, k) in [c, -c] per bracket
    row, col = [np.tile(every, n + 1)], [drop.T]
    src = [(rows + dim * (slots % 2)).T]
    if n:
        p, q = np.array(list(itertools.combinations(slots, 2))).T
        i, j = rows[:, p].T, rows[:, q].T  # (pair, row)
        row.append(np.tile(every, 2 * len(p)))
        col.append(np.stack([drop[:, q].T, drop[:, p].T], axis=1))
        src.append(np.stack([
            (i * dim + j) * dim + i + dim**3 * (q % 2)[:, None],
            (i * dim + j) * dim + j + dim**3 * ((p + 1) % 2)[:, None],
        ], axis=1))
        # k outside I, ascending, and t = the number of entries of I below k
        outside = np.ones((len(rows), dim), dtype=bool)
        outside[every[:, None], rows] = False
        k = np.nonzero(outside)[1].astype(np.int32).reshape(len(rows), max(dim - n - 1, 0))
        t = k - np.arange(k.shape[1], dtype=np.int32)
        # insert[A, k]: the row A + {k}, for a column A, by one scatter
        insert = np.full((math.comb(dim, n), dim), -1, dtype=np.int32)
        insert[drop, rows] = every[:, None]
        i, j, p = i[..., None], j[..., None], p[:, None, None]
        with_k = insert[drop[:, q].T[..., None], k]
        row.append(np.broadcast_to(every[:, None], with_k.shape))
        col.append(drop[with_k, p + (k < i)])
        parity = (p + q[:, None, None] + t - (i < k) - (j < k)) % 2
        src.append((i * dim + j) * dim + k + dim**3 * parity)
    row, col, src = (np.concatenate([a.ravel() for a in arrays]) for arrays in (row, col, src))
    n_action, n_cols = len(rows) * (n + 1), math.comb(dim, n) * m
    # entry (row * m + a, col * m + b) is flat (row * m + a) * n_cols + col * m + b
    start = m * (row * n_cols + col)
    block = np.arange(m)[:, None] * n_cols + np.arange(m)
    index = np.concatenate([(start[:n_action, None] + block.ravel()).ravel(),
                            (start[n_action:, None] + block.diagonal()).ravel()])
    source = np.concatenate([(src[:n_action, None] * m * m + np.arange(m * m)).ravel(),
                             np.repeat(src[n_action:] + 2 * dim * m * m, m)])
    plan = index.astype(np.int32), source.astype(np.int32)
    for a in plan:
        a.flags.writeable = False
    return plan


def coboundary_matrix(alg: LieAlgebra, mod: ModuleAction, n: int) -> np.ndarray:
    """Matrix of d_n in the package component bases.

    (d omega)(X_1..X_{n+1}) =
        sum_i (-1)^{i+1} X_i . omega(.., X^_i, ..)
      + sum_{i<j} (-1)^{i+j} omega([X_i, X_j], .., X^_i, .., X^_j, ..)

    Where each term lands, and with which sign, depends on (dim, n, m) alone,
    so the terms come from the cached _plan; a call gathers their values from
    [rho, -rho, c, -c] and sums them with one np.bincount in the plan's
    order, so every entry gets the same bits as a term-by-term sum.
    """
    _check_size(alg, mod, n)
    dim, m = alg.dim, mod.coeff_dim
    plan = _plan if _term_count(dim, n, m) <= MAX_CACHED_TERMS else _plan.__wrapped__
    index, source = plan(dim, n, m)
    rho, c = mod.rho.ravel(), alg.structure_constants.ravel()
    signed = np.concatenate([rho, -rho, c, -c])
    shape = math.comb(dim, n + 1) * m, math.comb(dim, n) * m
    mat = np.bincount(index, signed[source], minlength=shape[0] * shape[1])
    return mat.astype(float, copy=False).reshape(shape)  # no terms: ints


def apply_d(alg: LieAlgebra, mod: ModuleAction, omega: Cochain) -> Cochain:
    """Lie algebra coboundary of omega, one degree up: d_n times omega."""
    if omega.alg_dim != alg.dim or omega.coeff_dim != mod.coeff_dim:
        raise MalformedInputError("cochain dimensions do not match the algebra/module")
    n = omega.degree
    d_n = coboundary_matrix(alg, mod, n)
    return Cochain(n + 1, alg.dim, mod.coeff_dim, d_n @ omega.to_vector())


def _svd_rank(mat: np.ndarray, compute_uv: bool = False) -> tuple:
    """(rank, margin, u, vt) of mat, with u and vt only when compute_uv.

    The one rank cutoff of the package, on mat in units of scale_of(mat)
    above 1, so singular values stay finite: relative to the largest singular
    value, with an absolute floor so that round-off noise counts as zero.
    margin = min(s_r / cut, cut / s_{r+1}) over the terms that exist (a zero
    s_{r+1} bounds nothing) says how far the rank is from changing.  An empty
    or all-zero matrix has rank 0, margin None and identity factors.
    """
    rows, cols = mat.shape
    if not np.any(mat):
        return 0, None, *((np.eye(rows), np.eye(cols)) if compute_uv else (None, None))
    scale = max(1.0, scale_of(mat))
    if scale != 1.0:
        mat = mat / scale
    # rank and margin always come from the values-only SVD: the one with
    # vectors can round the singular values below the cutoff differently
    s = np.linalg.svd(mat, compute_uv=False)
    u, _, vt = np.linalg.svd(mat) if compute_uv else (None, None, None)
    cut = max(RANK_TOL_FACTOR * s[0], 64 * np.finfo(float).eps * max(1.0 / scale, s[0]))
    rank = int(np.sum(s > cut))
    terms = [s[rank - 1] / cut] if rank else []
    if rank < s.size and s[rank] > 0.0:
        terms.append(cut / s[rank])
    return rank, float(min(terms)), u, vt


def _check_size(alg: LieAlgebra, mod: ModuleAction, n: int):
    """Refuse a d_n with more than MAX_D_ENTRIES entries or terms, from its
    binomial shape alone, before any index table or plan is built."""
    entries = math.comb(alg.dim, n + 1) * math.comb(alg.dim, n) * mod.coeff_dim**2
    if entries > MAX_D_ENTRIES:
        raise MalformedInputError(
            f"d_{n} would hold {entries} entries, more than {MAX_D_ENTRIES}"
        )
    terms = _term_count(alg.dim, n)
    if terms > MAX_D_ENTRIES:
        raise MalformedInputError(
            f"d_{n} would sum {terms} terms, more than {MAX_D_ENTRIES}"
        )


def _complex(alg: LieAlgebra, mod: ModuleAction, degrees: Sequence[int]):
    """Yield (k, d_k) for the ascending degrees, each d_k assembled once and
    none before the size of every d_k is checked.

    Ranks mean nothing unless d_k d_{k-1} = 0 (a failed Jacobi or
    representation identity breaks it), so each d_k that follows d_{k-1} is
    checked on the probe r_i = cos(i), both factors divided by s =
    scale_of(c, rho), so nothing overflows.
    """
    s = scale_of(alg.structure_constants, mod.rho)
    for k in degrees:
        _check_size(alg, mod, k)
    prev = {}
    for k in degrees:
        d_k = coboundary_matrix(alg, mod, k)
        if k - 1 in prev:
            probe = np.cos(np.arange(prev[k - 1].shape[1])) / s
            residual = float(np.abs(d_k @ (prev[k - 1] @ probe / s)).max(initial=0.0))
            if residual > RANK_TOL_FACTOR:
                raise LieExtError(
                    f"d_{k} d_{k - 1} is not zero (relative residual {residual:.3e} on a probe "
                    "vector): the structure constants and rho do not form a cochain complex; "
                    "the validate task names the identity that fails"
                )
        yield k, d_k
        prev = {k: d_k}


def _row(n: int, dim_c: int, rank: int, rank_prev: int, margin) -> dict:
    """Degree n of the complex from dim C^n, rank d_n, rank d_{n-1} and the margin of d_n."""
    return dict(degree=n, cochain_dim=dim_c, cocycle_dim=dim_c - rank, coboundary_dim=rank_prev,
                betti=dim_c - rank - rank_prev, rank_margin=margin)


def _balanced(alg: LieAlgebra, mod: ModuleAction) -> tuple:
    """(alg, mod, z): alg and mod divided by scale_of(c, rho), so their largest |entry| is in [1, 2),
    then, if another non-zero one is below 2^-BALANCE_SPREAD, in the basis e_i -> 2^x_i e_i, f_a ->
    2^y_a f_a, z = (x, y) integers (all 0 when nothing was balanced): exact changes of basis, which
    keep every Betti number.  c and rho are the structure constants t of g (+) a with [e_i, f_b] =
    rho_i f_b; the basis maps t_uv^w to 2^(z_u + z_v - z_w) t_uv^w, and z rounds the least-squares
    solution that brings the frexp exponent of each non-zero t_uv^w, u < v, to 0 (matrix balancing,
    Parlett and Reinsch 1969, of the whole complex); the result is divided by its own scale_of.  A
    narrower spread keeps its basis: the small constants of a float basis carry rounding at the
    scale of its largest one, which balancing would amplify up to the rank floor."""
    s, n, size = scale_of(alg.structure_constants, mod.rho), alg.dim, alg.dim + mod.coeff_dim
    t = np.zeros((size, size, size))
    t[:n, :n, :n] = alg.structure_constants / s
    t[:n, n:, n:] = mod.rho.transpose(0, 2, 1) / s
    z = np.zeros(size)
    if np.abs(t).min(where=t != 0, initial=np.inf) < 2.0**-BALANCE_SPREAD:
        u, v, w = np.nonzero(t * (np.arange(size)[:, None, None] < np.arange(size)[:, None]))
        unit = np.eye(size)
        rows = unit[u] + unit[v] - unit[w]
        z = np.round(np.linalg.lstsq(rows.T @ rows, rows.T @ -np.frexp(t[u, v, w])[1], rcond=None)[0])
        t = np.ldexp(t, (z[:, None, None] + z[:, None] - z).astype(int))
        t = t / scale_of(t)
    return LieAlgebra(t[:n, :n, :n]), ModuleAction(t[:n, n:, n:].transpose(0, 2, 1)), z.astype(int)


def _ranks(alg: LieAlgebra, mod: ModuleAction, degrees: Sequence[int], compute_uv=False) -> tuple:
    """({k: _svd_rank(d_k, compute_uv)} for d_n and d_{n-1} of each degree n, z): the cohomology
    side's one rank decision, on _balanced(alg, mod), each d_k assembled once.  A degree outside
    0..dim is refused before anything is built."""
    for n in degrees:
        if n < 0 or n > alg.dim:
            raise MalformedInputError(f"degree {n} outside 0..{alg.dim}")
    needed = sorted({k for n in degrees for k in (n - 1, n) if k >= 0})
    *balanced, z = _balanced(alg, mod)
    return {k: _svd_rank(d_k, compute_uv) for k, d_k in _complex(*balanced, needed)}, z


def _bases(alg: LieAlgebra, mod: ModuleAction, n: int) -> tuple:
    """(row, z, b, p) of degree n from _ranks: the cohomology_table row, orthonormal columns z
    spanning ker d_n and b spanning im d_{n-1} in _balanced's basis, and the exponents p that map
    such columns into the input basis exactly, np.ldexp(z, p): p_(I, a) = y_a - sum_{i in I} x_i."""
    ranks, z = _ranks(alg, mod, [n], compute_uv=True)
    rank, margin, _, vt = ranks[n]
    rank_prev, _, u, _ = ranks.get(n - 1, (0, None, vt, None))  # d_{-1} = 0 into C^0
    p = (z[alg.dim:] - z[index_table(alg.dim, n)].sum(axis=1)[:, None]).reshape(-1, 1)
    return _row(n, len(vt), rank, rank_prev, margin), vt[rank:].T, u[:, :rank_prev], p


def build_complex_slice(alg: LieAlgebra, mod: ModuleAction, n: int) -> dict:
    """The cohomology_table row of degree n plus d_matrix (d_n), z_basis (its columns span ker d_n)
    and b_basis (its columns span im d_{n-1}), all in the input basis: the bases are the table's,
    orthonormal in _balanced's basis, mapped back exactly, so not orthonormal once it balanced."""
    row, z, b, p = _bases(alg, mod, n)
    return {**row, "d_matrix": coboundary_matrix(alg, mod, n),
            "z_basis": np.ldexp(z, p), "b_basis": np.ldexp(b, p)}


def cohomology_table(alg: LieAlgebra, mod: ModuleAction, degrees: Sequence[int]) -> list:
    """One row per degree n: dim C^n, dim Z^n, dim B^n, betti and the rank
    margin of d_n, computed on _balanced(alg, mod): a power of two times c and
    rho changes no bit of it, and a badly scaled basis is balanced first.

    Only ranks are needed, b_n = dim C^n - rank d_n - rank d_{n-1}, so each
    d_n the degrees need is assembled once and only its singular values
    are taken.
    """
    ranks, _ = _ranks(alg, mod, degrees)
    return [_row(n, math.comb(alg.dim, n) * mod.coeff_dim, ranks[n][0],
                 ranks.get(n - 1, (0,))[0], ranks[n][1]) for n in degrees]


def betti(alg: LieAlgebra, mod: ModuleAction, n: int) -> int:
    """dim H^n(g, a) = dim ker d_n - rank d_{n-1}."""
    return cohomology_table(alg, mod, [n])[0]["betti"]


def cohomology_representatives(alg: LieAlgebra, mod: ModuleAction, n: int) -> list:
    """Degree-n cocycle representatives spanning a complement of the coboundaries, betti of them:
    the first betti left singular vectors of z - b b^T z for _bases' z and b, mapped back."""
    row, z, b, p = _bases(alg, mod, n)
    u = np.linalg.svd(z - b @ (b.T @ z), full_matrices=False)[0][:, :row["betti"]]
    return [Cochain(n, alg.dim, mod.coeff_dim, col) for col in np.ldexp(u, p).T]


def _cocycle_residual(alg: LieAlgebra, mod: ModuleAction, omega: Cochain, d_n=None) -> float:
    """max |d omega| in units of scale_of(c, rho) scale_of(omega), by d_n or apply_d: the one residual
    of the cocycle test, is_cocycle's and _require_cocycles's."""
    unit = omega.to_vector() / scale_of(omega.values)
    image = d_n @ unit if d_n is not None else apply_d(alg, mod, replace(omega, values=unit)).values
    return float(abs(image).max(initial=0.0)) / scale_of(alg.structure_constants, mod.rho)


def is_cocycle(alg: LieAlgebra, mod: ModuleAction, omega: Cochain, tol: float = DEFAULT_TOL_ALG) -> bool:
    """True when omega, of any degree, has _cocycle_residual below tol."""
    return _cocycle_residual(alg, mod, omega) < tol


def _require_cocycles(alg: LieAlgebra, mod: ModuleAction, omegas: dict, tol=DEFAULT_TOL_ALG):
    """d_1, once each named 2-cochain of omegas has _cocycle_residual below tol: the package's one
    refusal of a non-cocycle, NotACocycleError with the residual of the first that has not (NaN
    included).  d_1 and d_2 come from _complex, which refuses a d_2 d_1 that is not zero."""
    shapes = {(w.degree, w.alg_dim, w.coeff_dim) for w in omegas.values()}
    if shapes != {(2, alg.dim, mod.coeff_dim)}:
        raise MalformedInputError("cocycles must be 2-cochains on the algebra/module")
    (_, d1), (_, d2) = _complex(alg, mod, (1, 2))
    for name, omega in omegas.items():
        residual = _cocycle_residual(alg, mod, omega, d2)
        if not residual < tol:
            raise NotACocycleError(f"{name} is not a cocycle: relative residual max |d({name})| = "
                                   f"{residual:.3e}, not below tol {tol:.3e}", residual=residual)
    return d1


@dataclass(frozen=True)
class GroupCochain:
    """Smooth n-cochain on a group: an evaluator, not a stored object.

    eval maps an n-tuple of group elements to an R^m vector (values in the
    coefficient space; reduction modulo a lattice is the caller's business).
    Normalized cochains vanish whenever some argument is the identity.
    """

    degree: int
    eval: Callable
    coeff_dim: int = 1

    def __call__(self, *elements):
        try:
            val = np.atleast_1d(np.asarray(self.eval(*elements), dtype=float))
        except LieExtError:  # already says what is wrong, with its exit code
            raise
        except Exception as exc:  # surface user-code failures uniformly
            raise UserFunctionError(f"group cochain evaluation failed: {exc}") from exc
        if val.shape != (self.coeff_dim,):
            raise UserFunctionError(
                f"group cochain values must lie in R^{self.coeff_dim}, got shape {val.shape}"
            )
        return val


def normalization_residual(f: GroupCochain, identity, elements: Sequence) -> float:
    """Largest |f(..)| over tuples with the identity in one slot.

    Normalized group cochains vanish whenever an argument is the identity;
    this samples that condition over the supplied group elements.
    """
    worst = 0.0
    elements = list(elements)
    for slot in range(f.degree):
        for el in elements:
            args = [el] * f.degree
            args[slot] = identity
            worst = max(worst, float(np.max(np.abs(f(*args)))))
    return worst


def apply_delta(
    module: Optional[ModuleAction], f: GroupCochain, elements: Sequence
) -> np.ndarray:
    """Group coboundary of f evaluated at an (n+1)-tuple of group matrices.

    (delta f)(g_1..g_{n+1}) = g_1 . f(g_2..g_{n+1})
        + sum_i (-1)^i f(.., g_i g_{i+1}, ..) + (-1)^{n+1} f(g_1..g_n),
    computed in the coefficient space.  g_1 acts through the module's
    group action (None = trivial).
    """
    elements = list(elements)
    n = f.degree
    if len(elements) != n + 1:
        raise MalformedInputError(
            f"delta of a degree-{n} cochain needs {n + 1} elements, got {len(elements)}"
        )
    head = f(*elements[1:])
    out = np.array(module.act(elements[0], head) if module else head)  # f's value may be shared
    for i in range(1, n + 1):
        merged = (
            elements[: i - 1]
            + [elements[i - 1] @ elements[i]]
            + elements[i + 1 :]
        )
        out += (-1.0) ** i * f(*merged)
    out += (-1.0) ** (n + 1) * f(*elements[:n])
    return out


def delta_cochain(module: Optional[ModuleAction], f: GroupCochain) -> GroupCochain:
    """The coboundary of f as a new evaluable group cochain."""
    return GroupCochain(
        degree=f.degree + 1,
        coeff_dim=f.coeff_dim,
        eval=lambda *els: apply_delta(module, f, els),
    )
