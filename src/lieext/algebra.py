"""Finite-dimensional Lie algebras, coefficient modules, and lattices.

A Lie algebra is described by its structure-constant tensor c[i, j, k],
meaning [e_i, e_j] = sum_k c[i, j, k] e_k.  A coefficient module is a list
of representation matrices rho[i] acting on R^m, optionally together with
the group-level action.  A lattice is a discrete subgroup of R^m given by
independent generators.  Everything is a plain immutable descriptor plus
pure functions; scalars are float64 throughout.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .batch import per_point
from .errors import InvalidLatticeError, LieExtError, MalformedInputError

DEFAULT_TOL_ALG = 1e-9
DEFAULT_TOL_LAT = 1e-6
# A coefficient whose distance to the nearest integer lies in
# [tol_lat, LATTICE_BAND_FACTOR * tol_lat) is too close to call.
LATTICE_BAND_FACTOR = 10.0


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant description of a finite-dimensional Lie algebra."""

    structure_constants: np.ndarray
    basis_labels: tuple = ()

    def __post_init__(self):
        c = np.array(self.structure_constants, dtype=float)
        c.flags.writeable = False
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
    element (a d x d matrix) and an m-vector to an m-vector; None means the
    trivial action.  act takes stacks of both; a group_action that is not
    vectorized is called once per matrix.
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
        if self.group_action is not None:
            object.__setattr__(self, "group_action", per_point(self.group_action, 2))

    @property
    def alg_dim(self) -> int:
        return self.rho.shape[0]

    @property
    def coeff_dim(self) -> int:
        return self.rho.shape[1]

    def act(self, g, v: np.ndarray) -> np.ndarray:
        """Apply the group action of g to v (identity when trivial)."""
        if self.group_action is None:
            return np.asarray(v, dtype=float)
        return np.asarray(self.group_action(g, np.asarray(v, dtype=float)), dtype=float)


def _lll_reduce(basis: np.ndarray) -> np.ndarray:
    """Lenstra-Lenstra-Lovasz reduction (delta = 3/4) of independent rows.

    Gram-Schmidt data is the R factor of a QR decomposition: b_k has
    coefficient R[j, k] along the j-th orthonormal direction.
    """
    b = basis.copy()
    k = 1
    while k < len(b):
        r = np.linalg.qr(b[: k + 1].T, mode="r")
        for j in range(k - 1, -1, -1):
            q = np.round(r[j, k] / r[j, j])
            b[k] -= q * b[j]
            r[:, k] -= q * r[:, j]
        if r[k, k] ** 2 + r[k - 1, k] ** 2 >= 0.75 * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            k = max(k - 1, 1)
    return b


def _require_independent(basis: np.ndarray, rel_tol: float):
    """Raise InvalidLatticeError unless the smallest singular value of the
    rows exceeds rel_tol times the largest."""
    svals = np.linalg.svd(basis, compute_uv=False)
    if svals.size and svals.min() <= rel_tol * svals.max():
        raise InvalidLatticeError(
            f"generators are rank deficient (smallest singular value "
            f"{svals.min():.3e}, largest {svals.max():.3e})"
        )


@dataclass(frozen=True)
class Lattice:
    """Discrete subgroup of R^m spanned over Z by independent generators
    (membership coefficients refer to them), plus an LLL-reduced basis.
    Independence is relative to scale and read on the reduced basis: its
    smallest singular value must exceed DEFAULT_TOL_LAT times the largest,
    so a unimodular change of generators changes nothing.  Generators whose
    own ratio is at most 1e-14 are refused before the reduction, which
    needs a numerically non-singular basis."""

    generators: np.ndarray

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=float)
        if gens.size == 0:
            gens = gens.reshape(0, gens.shape[-1] if gens.ndim == 2 else 1)
        if gens.ndim != 2:
            raise MalformedInputError(
                f"generators must be an r x m array, got shape {gens.shape}"
            )
        object.__setattr__(self, "generators", gens)
        if not np.all(np.isfinite(gens)):
            raise InvalidLatticeError("generators must be finite")
        if self.rank > self.ambient_dim:
            raise InvalidLatticeError(
                f"{self.rank} generators in R^{self.ambient_dim} cannot be independent"
            )
        _require_independent(gens, 1e-14)
        object.__setattr__(self, "_reduced", _lll_reduce(gens))
        _require_independent(self._reduced, DEFAULT_TOL_LAT)

    @property
    def rank(self) -> int:
        return self.generators.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]

    @property
    def half_spacing(self) -> float:
        """Half the length of the shortest LLL-reduced basis vector (infinite
        for rank 0): a tolerance that reaches it could take in the next
        lattice point, so lattice_verdict decides nothing there."""
        return 0.5 * float(np.min(np.linalg.norm(self._reduced, axis=1), initial=np.inf))


def _issues_above(identity: str, residuals, tol: float, indices=None) -> list:
    """One issue {"identity", "indices", "residual"} per residual above tol,
    in row-major order; an issue's indices are its position, or the entries
    there of the index arrays."""
    residuals = np.asarray(residuals)
    indices = np.indices(residuals.shape) if indices is None else indices
    return [
        {"identity": identity, "indices": [int(i.flat[k]) for i in indices],
         "residual": float(residuals.flat[k])}
        for k in np.flatnonzero(residuals > tol)
    ]


def scale_of(*arrays) -> float:
    """The power of two at the largest |entry| of the arrays (0.5 if all are 0), the algebra side's
    one tolerance scale: dividing by it is exact, so in its units a power of two changes nothing."""
    top = max([abs(a).max(initial=0.0) for a in arrays])
    return math.ldexp(1.0, math.frexp(top)[1] - 1)


def algebra_residuals(alg: LieAlgebra) -> tuple:
    """(antisymmetry, jacobi) residuals of c / scale_of(c), zero outside i <= j and i < j < k."""
    c = alg.structure_constants / scale_of(alg.structure_constants)
    n = alg.dim
    i, j, k = np.ogrid[:n, :n, :n]
    anti = np.abs(c + np.transpose(c, (1, 0, 2)))
    # jac[i,j,k,l] = sum_m c[i,j,m] c[m,k,l] + cyclic in (i,j,k)
    comp = np.einsum("ijm,mkl->ijkl", c, c)
    jac = np.abs(comp + np.transpose(comp, (1, 2, 0, 3)) + np.transpose(comp, (2, 0, 1, 3)))
    return np.where(i <= j, anti, 0.0), np.where(((i < j) & (j < k))[..., None], jac, 0.0)


def validate_algebra(alg: LieAlgebra, tol_alg: float = DEFAULT_TOL_ALG):
    """Check antisymmetry and Jacobi (algebra_residuals); return the list of violations."""
    anti, jac = algebra_residuals(alg)
    return _issues_above("antisymmetry", anti, tol_alg) + _issues_above("jacobi", jac, tol_alg)


def homomorphism_issues(identity: str, c: np.ndarray, rho: np.ndarray, tol: float) -> list:
    """The pairs i < j where max |rho([e_i, e_j]) - [rho_i, rho_j]| exceeds tol in units of
    scale_of(c, rho) scale_of(rho), each factor divided before any product."""
    i, j = np.triu_indices(len(c), 1)
    s, r = scale_of(c, rho), rho / scale_of(rho)
    diff = np.einsum("pk,kab->pab", c[i, j] / s, r) - (rho[i] / s @ r[j] - rho[j] / s @ r[i])
    return _issues_above(identity, np.max(np.abs(diff), axis=(1, 2), initial=0.0), tol, (i, j))


def validate_module(alg: LieAlgebra, mod: ModuleAction, tol_alg: float = DEFAULT_TOL_ALG):
    """Check rho([e_i, e_j]) = [rho_i, rho_j] (homomorphism_issues); return the list of violations."""
    if mod.alg_dim != alg.dim:
        raise MalformedInputError(
            f"module has {mod.alg_dim} representation matrices for algebra "
            f"dimension {alg.dim}"
        )
    return homomorphism_issues("homomorphism", alg.structure_constants, mod.rho, tol_alg)


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


def lattice_member(lat: Lattice, v: np.ndarray, tol_lat: float = DEFAULT_TOL_LAT, err: float = 0.0) -> dict:
    """Decide whether v, with error estimate err, lies in the lattice.

    The verdict (lattice_verdict) rests on the distance from v to the
    nearest lattice point (reduce_mod_lattice), in the units of v.  Returns
    {"verdict", "coefficients", "residual", "reason"}: the verdict, the
    coefficients of the nearest point in the basis of the generators, the
    distance to it, and why an "indeterminate" verdict is undecided.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (lat.ambient_dim,):
        raise MalformedInputError(
            f"vector length {v.shape} does not match lattice ambient dimension "
            f"{lat.ambient_dim}"
        )
    return lattice_verdict(lat, v, reduce_mod_lattice(lat, v), tol_lat, err)


def lattice_verdict(
    lat: Lattice, v: np.ndarray, offset: np.ndarray, tol_lat: float = DEFAULT_TOL_LAT, err: float = 0.0
) -> dict:
    """lattice_member's verdict on v, given its representative offset =
    reduce_mod_lattice(lat, v), so a stack reduced in one call needs no
    second reduction; on a stack (..., m) each field is the nested list
    over the stack.

    This is the one rule that maps a tolerance tol = tol_lat + err to a
    verdict: "member" for a residual below tol, "indeterminate" in the band
    [tol, LATTICE_BAND_FACTOR * tol), "not_member" beyond it.  Once tol
    reaches lat.half_spacing, "member" turns "indeterminate" too, as a ball
    that wide can hold the next lattice point; "not_member" stands, as the
    residual is the distance to the nearest lattice point.  The reason of
    an "indeterminate" verdict is "band" below half the spacing, else
    "estimate" if err alone reaches it, else "tolerance"."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise LieExtError(f"cannot test {v.tolist()} for lattice membership: not finite")
    stack, m = v.shape[:-1], lat.ambient_dim
    flat = (math.prod(stack), m)  # not (-1, m): m may be 0
    nearest, *_ = np.linalg.lstsq(lat.generators.T, (v - offset).reshape(flat).T, rcond=None)
    nearest = nearest.T.reshape(stack + (lat.rank,))
    if not np.all(np.abs(nearest) < 2.0 ** 53):
        raise LieExtError(
            f"lattice coefficients {nearest.tolist()} are beyond the integer "
            "resolution of double precision"
        )
    residual = np.reshape([np.linalg.norm(o) for o in np.reshape(offset, flat)], stack)
    tol, half = tol_lat + err, lat.half_spacing
    verdict = np.where((residual < tol) & (tol < half), "member", np.where(
        residual < LATTICE_BAND_FACTOR * tol, "indeterminate", "not_member"))
    reason = "band" if tol < half else "estimate" if err >= half else "tolerance"
    return {"verdict": verdict.tolist(), "coefficients": np.round(nearest).astype(int).tolist(),
            "residual": residual.tolist(), "reason": np.where(verdict == "indeterminate", reason, None).tolist()}


def reduce_mod_lattice(lat: Optional[Lattice], v: np.ndarray) -> np.ndarray:
    """Representative of v modulo the lattice nearest to the origin; on a
    stack of vectors (..., m) the stack of representatives.

    Rounds v's coefficients in the LLL-reduced basis and keeps the shortest
    of the 3^r candidates that move each by at most one (plain rounding wins
    ties): exact on rank 1 and 2, the best of those candidates above.
    """
    v = np.asarray(v, dtype=float)
    if lat is None or lat.rank == 0:
        return v
    if v.shape[-1:] != (lat.ambient_dim,):
        raise MalformedInputError(f"vectors of shape {v.shape} are not in R^{lat.ambient_dim}")
    basis = lat._reduced
    coeffs, *_ = np.linalg.lstsq(basis.T, v.reshape(-1, lat.ambient_dim).T, rcond=None)
    rest = v - (basis.T @ np.round(coeffs)).T.reshape(v.shape)
    offsets = np.array(list(itertools.product((0.0, -1.0, 1.0), repeat=lat.rank)))
    candidates = rest[..., None, :] - offsets @ basis
    best = np.argmin(np.linalg.norm(candidates, axis=-1), axis=-1)
    return np.take_along_axis(candidates, best[..., None, None], axis=-2)[..., 0, :]


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
