"""Cochain complexes of a Lie algebra and of a Lie group.

The algebra side is concrete linear algebra: an alternating n-cochain with
values in R^m is stored by its components on strictly increasing basis
multi-indices, the coboundary d is assembled as a matrix in that basis, and
kernels/images come from singular values.  The group side is an evaluator
only: group cochains are user-supplied smooth maps and the coboundary delta
is applied pointwise to tuples of group elements.

Component order convention, fixed for every matrix in the package:
strictly increasing multi-indices in lexicographic order, coefficient index
varying fastest (flat position = index_position * m + coefficient).
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .algebra import DEFAULT_TOL_ALG, LieAlgebra, ModuleAction
from .errors import MalformedInputError, UserFunctionError

RANK_TOL_FACTOR = 1e-10


def increasing_tuples(n_g: int, degree: int):
    """All strictly increasing multi-indices of the given degree, lex order."""
    return list(itertools.combinations(range(n_g), degree))


@dataclass(frozen=True)
class Cochain:
    """Alternating multilinear map g^n -> R^m on a fixed algebra basis."""

    degree: int
    alg_dim: int
    coeff_dim: int
    components: Dict[tuple, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        expected = increasing_tuples(self.alg_dim, self.degree)
        comps = {}
        for key in expected:
            val = self.components.get(key)
            if val is None:
                val = np.zeros(self.coeff_dim)
            val = np.asarray(val, dtype=float).reshape(self.coeff_dim)
            comps[key] = val
        unknown = set(self.components) - set(expected)
        if unknown:
            raise MalformedInputError(
                f"component indices {sorted(unknown)} are not strictly "
                f"increasing degree-{self.degree} tuples in range({self.alg_dim})"
            )
        object.__setattr__(self, "components", comps)

    def __call__(self, *vectors: np.ndarray) -> np.ndarray:
        """Alternating multilinear evaluation on arbitrary vectors."""
        if len(vectors) != self.degree:
            raise MalformedInputError(
                f"degree-{self.degree} cochain called with {len(vectors)} arguments"
            )
        if self.degree == 0:
            return self.components[()].copy()
        mat = np.asarray(vectors, dtype=float)
        if mat.shape != (self.degree, self.alg_dim):
            raise MalformedInputError(
                f"arguments must be vectors of length {self.alg_dim}"
            )
        for a in range(self.degree):
            for b in range(a + 1, self.degree):
                if np.array_equal(mat[a], mat[b]):
                    return np.zeros(self.coeff_dim)  # alternation, exactly
        out = np.zeros(self.coeff_dim)
        for key, val in self.components.items():
            minor = np.linalg.det(mat[:, key]) if self.degree > 1 else mat[0, key[0]]
            out += minor * val
        return out

    def to_vector(self) -> np.ndarray:
        """Flatten in the package component order."""
        keys = increasing_tuples(self.alg_dim, self.degree)
        if not keys:
            return np.zeros(0)
        return np.concatenate([self.components[k] for k in keys])

    @staticmethod
    def from_vector(degree: int, alg_dim: int, coeff_dim: int, vec: np.ndarray) -> "Cochain":
        keys = increasing_tuples(alg_dim, degree)
        vec = np.asarray(vec, dtype=float).reshape(len(keys) * coeff_dim)
        comps = {
            k: vec[p * coeff_dim : (p + 1) * coeff_dim] for p, k in enumerate(keys)
        }
        return Cochain(degree, alg_dim, coeff_dim, comps)

    def max_norm(self) -> float:
        vec = self.to_vector()
        return float(np.max(np.abs(vec))) if vec.size else 0.0

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(
            self.degree,
            self.alg_dim,
            self.coeff_dim,
            {k: v + other.components[k] for k, v in self.components.items()},
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(
            self.degree,
            self.alg_dim,
            self.coeff_dim,
            {k: v - other.components[k] for k, v in self.components.items()},
        )

    def __mul__(self, scalar: float) -> "Cochain":
        return Cochain(
            self.degree,
            self.alg_dim,
            self.coeff_dim,
            {k: float(scalar) * v for k, v in self.components.items()},
        )

    __rmul__ = __mul__

    def _check_compatible(self, other: "Cochain"):
        if (self.degree, self.alg_dim, self.coeff_dim) != (
            other.degree,
            other.alg_dim,
            other.coeff_dim,
        ):
            raise MalformedInputError("cochains have different degree or dimensions")


def zero_cochain(degree: int, alg_dim: int, coeff_dim: int) -> Cochain:
    return Cochain(degree, alg_dim, coeff_dim, {})


def cochain_from_pairs(alg_dim, coeff_dim, pairs, degree=2) -> Cochain:
    """Cochain from {(i, j): value} style input; scalar values allowed for m=1."""
    comps = {}
    for key, val in pairs.items():
        val = np.atleast_1d(np.asarray(val, dtype=float))
        comps[tuple(key)] = val
    return Cochain(degree, alg_dim, coeff_dim, comps)


def random_cochain(degree, alg_dim, coeff_dim, rng) -> Cochain:
    size = len(increasing_tuples(alg_dim, degree)) * coeff_dim
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
    dim, m = alg.dim, mod.coeff_dim
    rows = np.array(increasing_tuples(dim, n + 1), dtype=np.intp).reshape(-1, n + 1)
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
        raise MalformedInputError(
            "cochain dimensions do not match the algebra/module"
        )
    n = omega.degree
    return Cochain.from_vector(
        n + 1,
        alg.dim,
        omega.coeff_dim,
        coboundary_matrix(alg, mod, n) @ omega.to_vector(),
    )


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


def _rank_cutoff(s: np.ndarray) -> float:
    # relative cutoff per the fixed design, plus an absolute floor so a
    # matrix that is entirely round-off noise counts as zero
    return max(RANK_TOL_FACTOR * s[0], 64 * np.finfo(float).eps * max(1.0, s[0]))


def _kernel_basis(mat: np.ndarray) -> np.ndarray:
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or not np.any(mat):
        return np.eye(cols)
    u, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > _rank_cutoff(s)))
    return vt[rank:].T


def _image_basis(mat: np.ndarray) -> np.ndarray:
    rows, cols = mat.shape
    if rows == 0 or cols == 0 or not np.any(mat):
        return np.zeros((rows, 0))
    u, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > _rank_cutoff(s)))
    return u[:, :rank]


def build_complex_slice(alg: LieAlgebra, mod: ModuleAction, n: int) -> ComplexSlice:
    """Assemble d_n and d_{n-1} and extract cocycle/coboundary bases."""
    if n < 0 or n > alg.dim:
        raise MalformedInputError(f"degree {n} outside 0..{alg.dim}")
    d_n = coboundary_matrix(alg, mod, n)
    if n == 0:
        b_basis = np.zeros((d_n.shape[1], 0))
    else:
        b_basis = _image_basis(coboundary_matrix(alg, mod, n - 1))
    return ComplexSlice(
        n=n,
        alg_dim=alg.dim,
        coeff_dim=mod.coeff_dim,
        d_matrix=d_n,
        z_basis=_kernel_basis(d_n),
        b_basis=b_basis,
    )


def betti(alg: LieAlgebra, mod: ModuleAction, n: int) -> int:
    """dim H^n(g, a) = dim ker d_n - rank d_{n-1}."""
    return build_complex_slice(alg, mod, n).betti


def cohomology_representatives(slice_: ComplexSlice) -> list:
    """Cocycle representatives spanning a complement of the coboundaries.

    Each kernel basis vector is projected against the coboundary space by
    least squares; an independent subset of the projections is returned as
    Cochain objects (betti of them).
    """
    z, b = slice_.z_basis, slice_.b_basis
    if z.shape[1] == 0:
        return []
    if b.shape[1] == 0:
        proj = z
    else:
        coeffs, *_ = np.linalg.lstsq(b, z, rcond=None)
        proj = z - b @ coeffs
    u, s, vt = np.linalg.svd(proj, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    rank = int(np.sum(s > RANK_TOL_FACTOR * s[0]))
    reps = u[:, :rank]
    return [
        Cochain.from_vector(slice_.n, slice_.alg_dim, slice_.coeff_dim, reps[:, i])
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
