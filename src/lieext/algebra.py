"""Finite-dimensional Lie algebras, coefficient modules, and lattices.

A Lie algebra is described by its structure-constant tensor c[i, j, k],
meaning [e_i, e_j] = sum_k c[i, j, k] e_k.  A coefficient module is a list
of representation matrices rho[i] acting on R^m, optionally together with
the group-level action.  A lattice is a discrete subgroup of R^m given by
independent generators.  Everything is a plain immutable descriptor plus
pure functions; scalars are float64 throughout.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidLatticeError, MalformedInputError

DEFAULT_TOL_ALG = 1e-9
DEFAULT_TOL_LAT = 1e-6
# A coefficient whose distance to the nearest integer lies in
# [tol_lat, LATTICE_BAND_FACTOR * tol_lat) is too close to call.
LATTICE_BAND_FACTOR = 10.0


@dataclass(frozen=True)
class ValidationIssue:
    """One violated identity: which law, at which indices, how badly."""

    identity: str
    indices: tuple
    residual: float

    def as_dict(self):
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant description of a finite-dimensional Lie algebra."""

    structure_constants: np.ndarray
    basis_labels: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.ndim != 3 or not (c.shape[0] == c.shape[1] == c.shape[2]):
            raise MalformedInputError(
                f"structure constants must be n x n x n, got shape {c.shape}"
            )
        object.__setattr__(self, "structure_constants", c)
        n = c.shape[0]
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"e{i}" for i in range(n))
            )
        elif len(self.basis_labels) != n:
            raise MalformedInputError(
                f"{len(self.basis_labels)} labels for dimension {n}"
            )

    @property
    def dim(self) -> int:
        return self.structure_constants.shape[0]


@dataclass(frozen=True)
class ModuleAction:
    """g-action on the coefficient space R^m, with optional group action.

    rho[i] is the matrix of the action of e_i.  group_action maps a group
    element (whatever object the caller's group uses) and an m-vector to an
    m-vector; None means the trivial action.
    """

    rho: np.ndarray
    group_action: Optional[Callable] = None

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim != 3 or rho.shape[1] != rho.shape[2]:
            raise MalformedInputError(
                f"rho must be n x m x m, got shape {rho.shape}"
            )
        object.__setattr__(self, "rho", rho)

    @property
    def alg_dim(self) -> int:
        return self.rho.shape[0]

    @property
    def coeff_dim(self) -> int:
        return self.rho.shape[1]

    @property
    def is_trivial(self) -> bool:
        return not np.any(self.rho) and self.group_action is None

    def act(self, g, v: np.ndarray) -> np.ndarray:
        """Apply the group action of g to v (identity when trivial)."""
        if self.group_action is None:
            return np.asarray(v, dtype=float)
        return np.asarray(self.group_action(g, np.asarray(v, dtype=float)), dtype=float)


@dataclass(frozen=True)
class Lattice:
    """Discrete subgroup of R^m spanned over Z by independent generators."""

    generators: np.ndarray
    tol: float = DEFAULT_TOL_LAT

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=float)
        if gens.size == 0:
            gens = gens.reshape(0, max(1, gens.shape[-1] if gens.ndim == 2 else 1))
        if gens.ndim != 2:
            raise MalformedInputError(
                f"generators must be an r x m array, got shape {gens.shape}"
            )
        object.__setattr__(self, "generators", gens)
        if self.rank > 0:
            svals = np.linalg.svd(gens, compute_uv=False)
            if svals.min() <= self.tol:
                raise InvalidLatticeError(
                    f"generators are rank deficient (smallest singular value "
                    f"{svals.min():.3e})"
                )

    @property
    def rank(self) -> int:
        return self.generators.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]


@dataclass(frozen=True)
class LatticeMembership:
    """Outcome of a lattice membership test.

    verdict is "member", "not_member", or "indeterminate"; coefficients are
    the rounded integer combination, residual the distance to it.
    """

    verdict: str
    coefficients: np.ndarray
    residual: float
    max_fractional_distance: float

    def __bool__(self):
        return self.verdict == "member"


def validate_algebra(alg: LieAlgebra, tol_alg: float = DEFAULT_TOL_ALG):
    """Check antisymmetry and Jacobi; return the list of violations."""
    c = alg.structure_constants
    n = alg.dim
    issues = []
    anti = c + np.transpose(c, (1, 0, 2))
    for i, j, k in zip(*np.nonzero(np.abs(anti) > tol_alg)):
        if i <= j:
            issues.append(
                ValidationIssue("antisymmetry", (int(i), int(j), int(k)), float(abs(anti[i, j, k])))
            )
    # jac[i,j,k,l] = sum_m c[i,j,m] c[m,k,l] + cyclic in (i,j,k)
    comp = np.einsum("ijm,mkl->ijkl", c, c)
    jac = comp + np.transpose(comp, (1, 2, 0, 3)) + np.transpose(comp, (2, 0, 1, 3))
    for i, j, k, l in zip(*np.nonzero(np.abs(jac) > tol_alg)):
        if i < j < k:
            issues.append(
                ValidationIssue(
                    "jacobi", (int(i), int(j), int(k), int(l)), float(abs(jac[i, j, k, l]))
                )
            )
    return issues


def validate_module(alg: LieAlgebra, mod: ModuleAction, tol_alg: float = DEFAULT_TOL_ALG):
    """Check rho([e_i, e_j]) = [rho_i, rho_j]; return the list of violations."""
    if mod.alg_dim != alg.dim:
        raise MalformedInputError(
            f"module has {mod.alg_dim} representation matrices for algebra "
            f"dimension {alg.dim}"
        )
    c = alg.structure_constants
    rho = mod.rho
    issues = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = np.einsum("k,kab->ab", c[i, j], rho)
            rhs = rho[i] @ rho[j] - rho[j] @ rho[i]
            res = float(np.max(np.abs(lhs - rhs))) if rho.shape[1] else 0.0
            if res > tol_alg:
                issues.append(ValidationIssue("homomorphism", (i, j), res))
    return issues


def bracket(alg: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lie bracket [x, y] of coefficient vectors in the chosen basis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (alg.dim,) or y.shape != (alg.dim,):
        raise MalformedInputError(
            f"expected vectors of length {alg.dim}, got {x.shape} and {y.shape}"
        )
    return np.einsum("i,j,ijk->k", x, y, alg.structure_constants)


def adjoint_module(alg: LieAlgebra) -> ModuleAction:
    """Adjoint action of the algebra on itself: rho[i] = ad(e_i)."""
    # ad(e_i)_{k j} = c[i, j, k]
    rho = np.transpose(alg.structure_constants, (0, 2, 1))
    return ModuleAction(rho=rho)


def trivial_module(alg_dim: int, coeff_dim: int) -> ModuleAction:
    return ModuleAction(rho=np.zeros((alg_dim, coeff_dim, coeff_dim)))


def change_of_basis(alg: LieAlgebra, p: np.ndarray) -> LieAlgebra:
    """Structure constants in the basis e'_a = sum_i p[i, a] e_i."""
    p = np.asarray(p, dtype=float)
    if p.shape != (alg.dim, alg.dim):
        raise MalformedInputError("change of basis must be n x n")
    pinv = np.linalg.inv(p)
    c = alg.structure_constants
    cprime = np.einsum("ia,jb,ijk,kc->abc", p, p, c, pinv.T)
    return LieAlgebra(structure_constants=cprime)


def lattice_member(
    lat: Lattice, v: np.ndarray, tol_lat: float = DEFAULT_TOL_LAT
) -> LatticeMembership:
    """Decide whether v lies in the lattice, within tol_lat.

    Least squares against the generators, then integer rounding.  The
    verdict is "member" when the rounded combination reproduces v within
    tol_lat, "indeterminate" when the largest coefficient distance to the
    nearest integer falls in the ambiguity band
    [tol_lat, LATTICE_BAND_FACTOR * tol_lat), and "not_member" otherwise.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (lat.ambient_dim,) and lat.rank > 0:
        raise MalformedInputError(
            f"vector length {v.shape} does not match lattice ambient dimension "
            f"{lat.ambient_dim}"
        )
    if lat.rank == 0:
        res = float(np.linalg.norm(v))
        verdict = "member" if res < tol_lat else "not_member"
        return LatticeMembership(verdict, np.zeros(0, dtype=int), res, 0.0)
    coeffs, *_ = np.linalg.lstsq(lat.generators.T, v, rcond=None)
    span_residual = float(np.linalg.norm(lat.generators.T @ coeffs - v))
    rounded = np.round(coeffs)
    max_frac = float(np.abs(coeffs - rounded).max())
    residual = float(np.linalg.norm(lat.generators.T @ rounded - v))
    if span_residual >= tol_lat:
        verdict = "not_member"
    elif max_frac < tol_lat:
        verdict = "member" if residual < tol_lat else "not_member"
    elif max_frac < LATTICE_BAND_FACTOR * tol_lat:
        verdict = "indeterminate"
    else:
        verdict = "not_member"
    return LatticeMembership(verdict, rounded.astype(int), residual, max_frac)


def reduce_mod_lattice(lat: Optional[Lattice], v: np.ndarray) -> np.ndarray:
    """Canonical representative of v modulo the lattice (nearest-point)."""
    v = np.asarray(v, dtype=float)
    if lat is None or lat.rank == 0:
        return v
    coeffs, *_ = np.linalg.lstsq(lat.generators.T, v, rcond=None)
    return v - lat.generators.T @ np.round(coeffs)


# Small catalogue of standard algebras used by tests, fixtures and docs.

def abelian_algebra(n: int) -> LieAlgebra:
    return LieAlgebra(structure_constants=np.zeros((n, n, n)))


def heisenberg3_algebra() -> LieAlgebra:
    """[e0, e1] = e2, e2 central."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return LieAlgebra(structure_constants=c, basis_labels=("x", "y", "z"))


def sl2_algebra() -> LieAlgebra:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    return LieAlgebra(structure_constants=c, basis_labels=("h", "e", "f"))


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    n, p = a.dim, b.dim
    c = np.zeros((n + p, n + p, n + p))
    c[:n, :n, :n] = a.structure_constants
    c[n:, n:, n:] = b.structure_constants
    return LieAlgebra(structure_constants=c)
