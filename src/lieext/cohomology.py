"""Cochain complexes of a Lie algebra and of a Lie group.

The algebra side is concrete linear algebra: an alternating n-cochain with
values in R^m is one (C(dim, n), m) array whose rows follow the shared
index table of strictly increasing basis multi-indices, the coboundary d is
assembled as a matrix in that basis, and ranks and bases come from singular
values.  The group side is an evaluator only: group cochains are
user-supplied smooth maps and the coboundary delta is applied pointwise to
tuples of group elements.

Component order convention, fixed for every matrix in the package:
strictly increasing multi-indices in lexicographic order, coefficient index
varying fastest (flat position = index_position * m + coefficient).
"""

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .algebra import DEFAULT_TOL_ALG, LieAlgebra, ModuleAction
from .errors import LieExtError, MalformedInputError, UserFunctionError

RANK_TOL_FACTOR = 1e-10
# d_n is assembled dense and its SVD takes a few copies of it; a d_n with
# more entries than this (128 MiB of doubles) is refused.
MAX_D_ENTRIES = 2**24


def increasing_tuples(n_g: int, degree: int):
    """All strictly increasing multi-indices of the given degree, lex order."""
    return list(itertools.combinations(range(n_g), degree))


@functools.lru_cache(maxsize=256)
def index_table(n_g: int, degree: int) -> np.ndarray:
    """increasing_tuples as a shared read-only (C(n_g, degree), degree) array."""
    table = np.array(increasing_tuples(n_g, degree), dtype=np.intp).reshape(-1, degree)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Cochain:
    """Alternating multilinear map g^n -> R^m on a fixed algebra basis.

    values is a read-only (C(alg_dim, degree), coeff_dim) array: row p is
    the value on the p-th row of index_table(alg_dim, degree).  It is given
    as any array of that size (kept as a view when it already holds floats)
    or as a {tuple: value} dict whose missing tuples are zero.
    """

    degree: int
    alg_dim: int
    coeff_dim: int
    values: np.ndarray = field(default_factory=dict)

    def __post_init__(self):
        values = self.values
        if isinstance(values, Mapping):
            index = {k: p for p, k in enumerate(increasing_tuples(self.alg_dim, self.degree))}
            unknown = values.keys() - index.keys()
            if unknown:
                raise MalformedInputError(
                    f"component indices {sorted(unknown)} are not strictly "
                    f"increasing degree-{self.degree} tuples in range({self.alg_dim})"
                )
            rows = np.zeros((len(index), self.coeff_dim))
            for key, val in values.items():
                rows[index[key]] = np.asarray(val, dtype=float).reshape(self.coeff_dim)
            values = rows
        values = np.asarray(values, dtype=float).reshape(
            math.comb(self.alg_dim, self.degree), self.coeff_dim
        )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def components(self) -> Mapping:
        """Read-only {tuple: value} view of the rows, for serialisers."""
        keys = increasing_tuples(self.alg_dim, self.degree)
        return MappingProxyType(dict(zip(keys, self.values)))

    def __call__(self, *vectors: np.ndarray) -> np.ndarray:
        """Alternating multilinear evaluation on arbitrary vectors."""
        if len(vectors) != self.degree:
            raise MalformedInputError(
                f"degree-{self.degree} cochain called with {len(vectors)} arguments"
            )
        if self.degree == 0:
            return self.values[0].copy()
        mat = np.asarray(vectors, dtype=float)
        if mat.shape != (self.degree, self.alg_dim):
            raise MalformedInputError(f"arguments must be vectors of length {self.alg_dim}")
        for a, b in itertools.combinations(range(self.degree), 2):
            if np.array_equal(mat[a], mat[b]):
                return np.zeros(self.coeff_dim)  # alternation, exactly
        # minor p is det(mat[:, key_p]): one batched det over the index table
        cols = mat[:, index_table(self.alg_dim, self.degree)]
        return np.linalg.det(np.moveaxis(cols, 1, 0)) @ self.values

    def to_vector(self) -> np.ndarray:
        """Read-only flat view in the package component order."""
        return self.values.reshape(-1)

    @staticmethod
    def from_vector(degree: int, alg_dim: int, coeff_dim: int, vec: np.ndarray) -> "Cochain":
        return Cochain(degree, alg_dim, coeff_dim, vec)

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


def zero_cochain(degree: int, alg_dim: int, coeff_dim: int) -> Cochain:
    return Cochain(degree, alg_dim, coeff_dim)


def cochain_from_pairs(alg_dim, coeff_dim, pairs, degree=2) -> Cochain:
    """Cochain from {(i, j): value} style input; scalar values allowed for m=1."""
    return Cochain(degree, alg_dim, coeff_dim, {tuple(k): v for k, v in pairs.items()})


def random_cochain(degree, alg_dim, coeff_dim, rng) -> Cochain:
    size = math.comb(alg_dim, degree) * coeff_dim
    return Cochain.from_vector(degree, alg_dim, coeff_dim, rng.normal(size=size))


def _lex_rank(tuples: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Position of each sorted row of `tuples` in increasing_tuples(n_g, k).

    Combinatorial number system for lex order:
    rank(a_0 < .. < a_{k-1}) = C(n_g, k) - 1 - sum_i C(n_g - 1 - a_i, k - i),
    with binom[x, j] = C(x, j) for x <= n_g, j <= k.
    """
    n_g, k = binom.shape[0] - 1, tuples.shape[1]
    return binom[n_g, k] - 1 - binom[n_g - 1 - tuples, k - np.arange(k)].sum(axis=1)


def coboundary_matrix(alg: LieAlgebra, mod: ModuleAction, n: int) -> np.ndarray:
    """Matrix of d_n in the package component bases.

    (d omega)(X_1..X_{n+1}) =
        sum_i (-1)^{i+1} X_i . omega(.., X^_i, ..)
      + sum_{i<j} (-1)^{i+j} omega([X_i, X_j], .., X^_i, .., X^_j, ..)

    Filled from index combinatorics, one pass per slot (or pair of slots)
    over all rows at once.  Row block I = (i_0 < .. < i_n) gets
    (-1)^p rho[i_p] in the column block of I without i_p, and
    (-1)^(p+q+r) c[i_p, i_q, k] times the identity in the column block of
    the rest with k sorted in, where r counts the rest entries below k;
    a k already in the rest contributes nothing (alternation).
    """
    _check_size(alg, mod, n)
    dim, m = alg.dim, mod.coeff_dim
    rows = index_table(dim, n + 1)
    binom = np.array(
        [[math.comb(x, j) for j in range(n + 1)] for x in range(dim + 1)],
        dtype=np.intp,
    )
    n_cols = binom[dim, n]
    mat = np.zeros((len(rows), m, n_cols, m))
    for p in range(n + 1):
        cols = _lex_rank(np.delete(rows, p, axis=1), binom)
        np.add.at(
            mat,
            (np.arange(len(rows)), slice(None), cols, slice(None)),
            (-1.0) ** p * mod.rho[rows[:, p]],
        )
    c = alg.structure_constants
    diag = np.arange(m)
    for p, q in itertools.combinations(range(n + 1), 2):
        r, k = np.nonzero(c[rows[:, p], rows[:, q]])
        rest = np.delete(rows, [p, q], axis=1)[r]
        keep = ~np.any(rest == k[:, None], axis=1)
        r, k, rest = r[keep], k[keep], rest[keep]
        below = np.sum(rest < k[:, None], axis=1)
        cols = _lex_rank(np.sort(np.column_stack([rest, k]), axis=1), binom)
        vals = (-1.0) ** (p + q + below) * c[rows[r, p], rows[r, q], k]
        np.add.at(mat, (r[:, None], diag, cols[:, None], diag), vals[:, None])
    return mat.reshape(len(rows) * m, n_cols * m)


def apply_d(alg: LieAlgebra, mod: ModuleAction, omega: Cochain) -> Cochain:
    """Lie algebra coboundary of omega, one degree up: d_n times omega."""
    if omega.alg_dim != alg.dim or omega.coeff_dim != mod.coeff_dim:
        raise MalformedInputError("cochain dimensions do not match the algebra/module")
    n = omega.degree
    d_n = coboundary_matrix(alg, mod, n)
    return Cochain(n + 1, alg.dim, mod.coeff_dim, d_n @ omega.to_vector())


@dataclass(frozen=True)
class ComplexSlice:
    """Degree-n slice of the algebra cochain complex: d_n, kernel, image."""

    n: int
    alg_dim: int
    coeff_dim: int
    d_matrix: np.ndarray
    z_basis: np.ndarray  # columns span ker d_n
    b_basis: np.ndarray  # columns span im d_{n-1}

    @property
    def cochain_dim(self) -> int:
        return self.d_matrix.shape[1]

    @property
    def cocycle_dim(self) -> int:
        return self.z_basis.shape[1]

    @property
    def coboundary_dim(self) -> int:
        return self.b_basis.shape[1]

    @property
    def betti(self) -> int:
        return self.cocycle_dim - self.coboundary_dim


def _svd_rank(mat: np.ndarray, compute_uv: bool = False) -> tuple:
    """(rank, margin, u, vt) of mat, with u and vt only when compute_uv.

    The one rank cutoff of the package: relative to the largest singular
    value, with an absolute floor so that a matrix of round-off noise counts
    as zero.  margin = min(s_r / cut, cut / s_{r+1}) over the terms that
    exist (a zero s_{r+1} bounds nothing) says how far the rank is from
    changing.  An empty or all-zero matrix has rank 0, margin None and
    identity factors.
    """
    rows, cols = mat.shape
    if rows == 0 or cols == 0 or not np.any(mat):
        return 0, None, *((np.eye(rows), np.eye(cols)) if compute_uv else (None, None))
    # Work on mat divided by the power of two at its largest entry, with the
    # cutoff in the same units, so that the singular values of a matrix near
    # the top of the double range stay finite; dividing by a power of two is
    # exact.  Entries below 1 are left as they are: their cutoff is the floor.
    scale = max(1.0, float(np.ldexp(1.0, np.frexp(np.max(np.abs(mat)))[1] - 1)))
    mat = mat / scale
    if compute_uv:
        u, s, vt = np.linalg.svd(mat)
    else:
        u, s, vt = None, np.linalg.svd(mat, compute_uv=False), None
    cut = max(RANK_TOL_FACTOR * s[0], 64 * np.finfo(float).eps * max(1.0 / scale, s[0]))
    rank = int(np.sum(s > cut))
    terms = [s[rank - 1] / cut] if rank else []
    if rank < s.size and s[rank] > 0.0:
        terms.append(cut / s[rank])
    return rank, float(min(terms)), u, vt


def _check_size(alg: LieAlgebra, mod: ModuleAction, n: int):
    """Refuse a d_n with more than MAX_D_ENTRIES entries, from its binomial
    shape alone, before any index table is built."""
    entries = math.comb(alg.dim, n + 1) * math.comb(alg.dim, n) * mod.coeff_dim**2
    if entries > MAX_D_ENTRIES:
        raise MalformedInputError(
            f"d_{n} would hold {entries} entries, more than {MAX_D_ENTRIES}"
        )


def _check_degree(alg: LieAlgebra, mod: ModuleAction, n: int):
    """Refuse a degree outside 0..dim or one whose d_n or d_{n-1} is too large."""
    if n < 0 or n > alg.dim:
        raise MalformedInputError(f"degree {n} outside 0..{alg.dim}")
    for k in range(max(n - 1, 0), n + 1):
        _check_size(alg, mod, k)


def build_complex_slice(alg: LieAlgebra, mod: ModuleAction, n: int) -> ComplexSlice:
    """Assemble d_n and d_{n-1} and extract cocycle/coboundary bases."""
    _check_degree(alg, mod, n)
    d_n = coboundary_matrix(alg, mod, n)
    d_prev = coboundary_matrix(alg, mod, n - 1) if n else np.zeros((d_n.shape[1], 0))
    rank, _, _, vt = _svd_rank(d_n, compute_uv=True)
    rank_prev, _, u, _ = _svd_rank(d_prev, compute_uv=True)
    return ComplexSlice(n, alg.dim, mod.coeff_dim, d_n, vt[rank:].T, u[:, :rank_prev])


def cohomology_table(alg: LieAlgebra, mod: ModuleAction, degrees: Sequence[int]) -> list:
    """One row per degree n: dim C^n, dim Z^n, dim B^n, betti and the rank
    margin of d_n.

    Only ranks are needed, b_n = dim C^n - rank d_n - rank d_{n-1}, so each
    d_n the degrees need is assembled once and only its singular values
    are taken.
    """
    for n in degrees:
        _check_degree(alg, mod, n)
    needed = sorted({k for n in degrees for k in (n - 1, n) if k >= 0})
    ranks = {k: _svd_rank(coboundary_matrix(alg, mod, k))[:2] for k in needed}
    table = []
    for n in degrees:
        rank, margin = ranks[n]
        rank_prev = ranks.get(n - 1, (0,))[0]
        dim_c = math.comb(alg.dim, n) * mod.coeff_dim
        table.append(dict(
            degree=n, cochain_dim=dim_c, cocycle_dim=dim_c - rank, coboundary_dim=rank_prev,
            betti=dim_c - rank - rank_prev, rank_margin=margin,
        ))
    return table


def betti(alg: LieAlgebra, mod: ModuleAction, n: int) -> int:
    """dim H^n(g, a) = dim ker d_n - rank d_{n-1}."""
    return cohomology_table(alg, mod, [n])[0]["betti"]


def cohomology_representatives(slice_: ComplexSlice) -> list:
    """Cocycle representatives spanning a complement of the coboundaries.

    Each kernel basis vector is projected against the coboundary space by
    least squares; an independent subset of the projections is returned as
    Cochain objects (betti of them).
    """
    z, b = slice_.z_basis, slice_.b_basis
    coeffs, *_ = np.linalg.lstsq(b, z, rcond=None)
    rank, _, u, _ = _svd_rank(z - b @ coeffs, compute_uv=True)
    return [
        Cochain.from_vector(slice_.n, slice_.alg_dim, slice_.coeff_dim, u[:, i])
        for i in range(rank)
    ]


def is_cocycle(
    alg: LieAlgebra, mod: ModuleAction, omega: Cochain, tol: float = DEFAULT_TOL_ALG
) -> bool:
    """True when d(omega) vanishes within tol in the max norm."""
    return apply_d(alg, mod, omega).max_norm() < tol


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
            val = self.eval(*elements)
        except LieExtError:  # already says what is wrong, with its exit code
            raise
        except Exception as exc:  # surface user-code failures uniformly
            raise UserFunctionError(f"group cochain evaluation failed: {exc}") from exc
        return np.atleast_1d(np.asarray(val, dtype=float))


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
    action: Optional[Callable],
    f: GroupCochain,
    elements: Sequence,
    compose: Callable = None,
) -> np.ndarray:
    """Group coboundary of f evaluated at an (n+1)-tuple.

    (delta f)(g_1..g_{n+1}) = g_1 . f(g_2..g_{n+1})
        + sum_i (-1)^i f(.., g_i g_{i+1}, ..) + (-1)^{n+1} f(g_1..g_n),
    computed in the coefficient space.  `action` maps (g, vector) to a
    vector (None = trivial); `compose` is the group operation (default
    matrix product).
    """
    if compose is None:
        compose = lambda a, b: a @ b
    elements = list(elements)
    n = f.degree
    if len(elements) != n + 1:
        raise MalformedInputError(
            f"delta of a degree-{n} cochain needs {n + 1} elements, got {len(elements)}"
        )
    head = f(*elements[1:])
    out = np.asarray(action(elements[0], head), dtype=float) if action else head.copy()
    for i in range(1, n + 1):
        merged = (
            elements[: i - 1]
            + [compose(elements[i - 1], elements[i])]
            + elements[i + 1 :]
        )
        out += (-1.0) ** i * f(*merged)
    out += (-1.0) ** (n + 1) * f(*elements[:n])
    return out


def delta_cochain(
    action: Optional[Callable], f: GroupCochain, compose: Callable = None
) -> GroupCochain:
    """The coboundary of f as a new evaluable group cochain."""
    return GroupCochain(
        degree=f.degree + 1,
        coeff_dim=f.coeff_dim,
        eval=lambda *els: apply_delta(action, f, els, compose=compose),
    )
