"""Concrete matrix groups: the geometric home of paths, forms and periods.

A group is described by the d x d realization of its Lie algebra basis plus
exp/log maps (closed forms for the built-in groups, scipy fallbacks
otherwise, whose log refuses a matrix with no real logarithm).  The built-in
groups also invert and check membership in closed form, from the entries of
each matrix and with no factorization: the torus and SU(2) invert by
transposes, SL(2,R) by the adjugate, and the torus residual is the largest
entry of B^T B - I and det B - 1 over its 2x2 blocks B, and off the blocks.
R^k and the Heisenberg group are built as one unipotent group g = I + n,
n^3 = 0, charted by the entries of n (see `_unipotent_group`).  A group
given no inverse inverts with numpy.  Tangent matrices are decomposed in the
realized basis by least squares against a precomputed pseudoinverse; the
residual of that solve is the "did we leave the group?" guard used
throughout the quadrature code.  Every map takes a stack of matrices
(leading axes) as well as a single one; maps supplied by the caller, and the
scipy fallbacks, are evaluated per matrix through `batch.per_point`.

Built-ins: tori (block rotations, coordinates in winding units, so the
basis matrix of each circle factor is 2*pi*J and exp(1 * e_i) = 1), additive
translation groups, SU(2) as unit quaternions acting on R^4, SL(2,R) in its
defining representation, and the 3x3 unipotent Heisenberg group, each built
once per process, with read-only arrays.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .algebra import (
    DEFAULT_TOL_ALG,
    Lattice,
    LieAlgebra,
    ModuleAction,
    abelian_algebra,
    heisenberg3_algebra,
    homomorphism_issues,
    scale_of,
    validate_algebra,
    _issues_above,
)
from .batch import per_point, vectorized
from .errors import MalformedInputError, MembershipError, TangentDecompositionError

MEMBERSHIP_TOL = 1e-9
DEFAULT_DERIV_TOL = 1e-6
DEFAULT_FD_STEP = 1e-5
TANGENT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class CoordinateChart:
    """Global-ish coordinates x -> phi(x) for a group.  phi maps every finite
    coordinate vector into the group (within MEMBERSHIP_TOL), so a chart
    route screens its nodes by finiteness alone and maps only a node that is
    not finite, whose matrix the membership test then names.  tangent(x,
    dx), on stacks, gives the algebra coefficients of phi(x)^-1 dphi_x(dx),
    or raises TangentDecompositionError where one is not finite.  additive
    declares that the group law is addition of coordinates, phi(x) = exp(x .
    basis): phi(x + y) = phi(x) phi(y), tangent(x, dx) = dx, and
    to_coords(phi(d)) are the coefficients of the group's log of phi(d)."""

    dim: int
    to_coords: Callable
    from_coords: Callable
    tangent: Callable
    additive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "to_coords", per_point(self.to_coords, 2))
        object.__setattr__(self, "from_coords", per_point(self.from_coords, 1))


@dataclass(frozen=True)
class MatrixGroup:
    """Matrix realization of a Lie group with its algebra."""

    algebra: LieAlgebra
    basis: np.ndarray  # shape (n, d, d)
    exp: Callable = None
    log: Callable = None
    inverse: Callable = None
    membership: Optional[Callable] = None  # matrix -> residual
    chart: Optional[CoordinateChart] = None
    name: str = "matrix-group"

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        basis.flags.writeable = False
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise MalformedInputError(f"basis must be n x d x d, got {basis.shape}")
        if basis.shape[0] != self.algebra.dim:
            raise MalformedInputError(
                f"{basis.shape[0]} basis matrices for algebra dimension "
                f"{self.algebra.dim}"
            )
        object.__setattr__(self, "basis", basis)
        if self.exp is None or self.log is None:
            import scipy.linalg  # imported here: it is most of the package's import time
        if self.exp is None:
            object.__setattr__(self, "exp", scipy.linalg.expm)
        if self.log is None:

            def log(g):
                out = scipy.linalg.logm(g)
                imag = float(np.max(np.abs(np.imag(out))))
                if imag > TANGENT_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(np.real(out))))):
                    raise TangentDecompositionError(
                        f"a matrix has no real logarithm in {self.name}: the principal "
                        f"logarithm has an imaginary part of {imag:.3e}")
                return np.real(out)

            object.__setattr__(self, "log", log)
        if self.inverse is None:

            @vectorized
            def inverse(g):
                try:
                    return np.linalg.inv(g)
                except np.linalg.LinAlgError:
                    raise MembershipError(f"a singular matrix is not in {self.name}") from None

            object.__setattr__(self, "inverse", inverse)
        for name in ("exp", "log", "inverse", "membership"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, per_point(getattr(self, name), 2))
        flat = basis.reshape(self.algebra.dim, -1).T if self.algebra.dim else np.zeros((basis.shape[1] ** 2, 0))
        object.__setattr__(self, "_flat_basis", flat)
        object.__setattr__(self, "_flat_pinv", np.linalg.pinv(flat) if flat.size else flat.T)
        self._flat_pinv.flags.writeable = False

    @property
    def embed_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.embed_dim)

    def realize(self, x: np.ndarray) -> np.ndarray:
        """Algebra coefficient vector -> d x d matrix."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.algebra.dim,):
            raise MalformedInputError(
                f"expected coefficient vector of length {self.algebra.dim}"
            )
        return np.einsum("i,ijk->jk", x, self.basis)

    def decompose(self, mat: np.ndarray) -> np.ndarray:
        """d x d matrices (any leading axes) -> coefficients in the realized
        basis, each checked against its residual: at most TANGENT_RESIDUAL_TOL
        times max(1, |mat|), the scale taken only where the residual exceeds
        the tolerance itself."""
        mat = np.asarray(mat, dtype=float)
        vec = mat.reshape(mat.shape[:-2] + (mat.shape[-2] * mat.shape[-1],))
        with np.errstate(invalid="ignore"):  # a non-finite entry is refused below, with no warning
            coeffs = vec @ self._flat_pinv.T
            residual = np.linalg.norm(coeffs @ self._flat_basis.T - vec, axis=-1)
        if np.all(residual <= TANGENT_RESIDUAL_TOL):  # the scale is at least 1
            return coeffs
        scale = np.maximum(1.0, np.linalg.norm(vec, axis=-1))
        bad = np.flatnonzero(~(residual <= TANGENT_RESIDUAL_TOL * scale))  # NaN fails too
        if bad.size:
            at = bad[0]
            raise TangentDecompositionError(
                f"matrix is {residual.flat[at]:.3e} away from the algebra span "
                f"(tolerance {TANGENT_RESIDUAL_TOL:.1e} x {scale.flat[at]:.3g})"
            )
        return coeffs

    def tangent_coefficients(self, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Left-translate a tangent u at g back to the algebra: g^-1 u."""
        return self.decompose(self.inverse(g) @ u)

    def outside(self, g: np.ndarray):
        """Row-major indices and membership residuals of the matrices of the
        stack g that are not in the group within MEMBERSHIP_TOL times max(1,
        their largest |entry|), the scale taken only where some residual
        exceeds MEMBERSHIP_TOL itself or g holds a NaN; a NaN matrix is
        outside quietly, whatever its residual.  Empty for a group with no
        membership test."""
        if self.membership is None:
            return np.empty(0, dtype=int), np.empty(0)
        g = np.asarray(g, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):  # a sum of large entries may overflow
            res = np.asarray(self.membership(g), dtype=float)
            if np.all(res <= MEMBERSHIP_TOL) and not np.isnan(np.sum(g)):
                return np.empty(0, dtype=int), np.empty(0)
        at = np.flatnonzero(~(res <= MEMBERSHIP_TOL * np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))))
        return at, res.ravel()[at]

    def check_membership(self, g: np.ndarray):
        """Raise MembershipError unless every matrix of the stack g is in the
        group (see outside)."""
        _, bad = self.outside(g)
        if bad.size:
            raise MembershipError(f"matrix is not in {self.name} (residual {bad[0]:.3e})")


def _coincidence_tol(*stacks) -> float:
    """The closeness rule, in outside's units: a and b coincide when max|a - b| <= _coincidence_tol(a, b)."""
    return MEMBERSHIP_TOL * max(1.0, *(float(np.abs(s).max()) for s in stacks))


def validate_group(group: MatrixGroup, tol_alg: float = 1e-9):
    """validate_algebra's issues, then basis commutators and exp/log round trips."""
    return validate_algebra(group.algebra, tol_alg) + _group_identities(group, tol_alg)


def _group_identities(group: MatrixGroup, tol_alg: float):
    """Basis commutators must reproduce the structure constants (homomorphism_issues, the basis
    as rho); exp/log must round-trip near the identity."""
    issues = homomorphism_issues("basis_commutator", group.algebra.structure_constants, group.basis, tol_alg)
    x = 0.05 * np.random.default_rng(7).normal(size=(3, group.algebra.dim))
    g = group.exp(np.einsum("ti,ijk->tjk", x, group.basis))
    res = np.max(np.abs(group.exp(group.log(g)) - g), axis=(1, 2))
    return issues + _issues_above("exp_log_roundtrip", res, 1e-8)


def validate_action_compatibility(group: MatrixGroup, mod: ModuleAction):
    """Check that the group action fixes each vector at the identity and
    differentiates to rho there.

    group_action(e, f_b) must be f_b within MEMBERSHIP_TOL for every b, one
    action call; the central difference of t -> group_action(exp(t e_i), f_b)
    at t = 0 must match rho[i][:, b] for every basis pair (i, b), one exp
    and one more action call.
    """
    n, m, d = group.algebra.dim, mod.coeff_dim, group.embed_dim
    if mod.group_action is not None and mod.alg_dim != n:
        raise MalformedInputError(f"module has {mod.alg_dim} rho matrices for algebra dim {n}")
    if mod.group_action is None or not m:
        return []
    fixed = mod.act(np.broadcast_to(group.identity, (m, d, d)), np.eye(m))  # row b acts on f_b
    issues = _issues_above("action_identity", np.max(np.abs(fixed - np.eye(m)), axis=1), MEMBERSHIP_TOL)
    if not n:
        return issues
    steps = np.array([DEFAULT_FD_STEP, -DEFAULT_FD_STEP])
    g = group.exp(np.multiply.outer(steps, group.basis))  # (2, n, d, d)
    moved = mod.act(
        np.broadcast_to(g[:, :, None], (2, n, m, d, d)), np.broadcast_to(np.eye(m), (2, n, m, m))
    )  # moved[., i, b] is the action on f_b
    derivative = (moved[0] - moved[1]) / (2.0 * DEFAULT_FD_STEP)
    res = np.max(np.abs(derivative - np.swapaxes(mod.rho, 1, 2)), axis=2)
    return issues + _issues_above("action_compatibility", res, DEFAULT_DERIV_TOL)


def validate_lattice_fixed(mod: ModuleAction, lattice: Lattice, tol_alg: float = DEFAULT_TOL_ALG):
    """Check that rho(x_i) gamma_j = 0 within tol_alg |gamma_j| in units of scale_of(rho_i) for
    every basis vector x_i and lattice generator gamma_j; the residual is |rho_i gamma_j| / |gamma_j|
    in those units, each rho_i and gamma_j divided by its own scale_of before any product, since
    rho_i alone sets the rounding of rho_i gamma_j.  R^m / lattice is a G-module only if G preserves
    the lattice, and a connected G preserving a discrete subgroup fixes it pointwise."""
    gens = lattice.generators
    if not gens.size or not np.any(mod.rho):  # rho = 0 fixes every vector
        return []
    if gens.shape[1] != mod.coeff_dim:
        raise MalformedInputError(f"lattice lives in R^{gens.shape[1]}, the module in R^{mod.coeff_dim}")
    gens = np.array([g / scale_of(g) for g in gens])
    rho = np.array([r / scale_of(r) for r in mod.rho])
    moved = np.linalg.norm(np.einsum("iab,jb->ija", rho, gens), axis=2)
    return _issues_above("lattice_fixed", moved / np.linalg.norm(gens, axis=1), tol_alg)


@dataclass(frozen=True)
class GroupPath:
    """Evaluable based path [0, 1] -> G; called on an array of parameters it
    returns the stack of matrices.  With a chart, as for a SurfacePatch, eval
    gives chart coordinates, shape(t) + (chart.dim,), mapped through
    chart.from_coords.  eval must be pure: the path keeps its values (values_at)."""

    eval: Callable
    chart: Optional[CoordinateChart] = None
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eval", per_point(self.eval))

    def __call__(self, t) -> np.ndarray:
        values = np.asarray(self.eval(t), dtype=float)
        return values if self.chart is None else self.chart.from_coords(
            values.reshape(np.shape(t) + (self.chart.dim,)))

    def values_at(self, *sets: np.ndarray) -> np.ndarray:
        """The path's matrices (total size, d, d): _kept(*sets) through the chart."""
        values = self._kept(*sets)
        return values if self.chart is None else self.chart.from_coords(values)

    def _kept(self, *sets: np.ndarray) -> np.ndarray:
        """What eval returns on the parameter sets, concatenated in order:
        chart coordinates (total size, chart.dim) with a chart, else
        matrices.  The path keeps them at each set for its lifetime,
        read-only and keyed by the set's content, and is called once, on the
        concatenated parameters of the sets it has not kept (a lone set keeps
        its shape).  The path cocycle, its identities, validate_path and the
        pi_1 table read paths here, at a rule's 3n parameters, the 64
        spanning-guard samples, t = 1, PATH_SAMPLES and a loop's 33 samples;
        dataclasses.replace(path) copies none of them."""
        keys = [s.tobytes() for s in sets]
        fresh = [(k, s) for k, s in zip(keys, sets) if k not in self._memo]
        if fresh:
            params = fresh[0][1] if len(fresh) == 1 else np.concatenate([s.ravel() for _, s in fresh])
            values = np.asarray(self.eval(params), dtype=float)
            values = values.reshape((-1,) + ((self.chart.dim,) if self.chart else values.shape[-2:]))
            values.flags.writeable = False
            lo = 0
            for k, s in fresh:
                self._memo[k], lo = values[lo : lo + s.size], lo + s.size
        return np.concatenate([self._memo[k] for k in keys])


# validate_path's samples: 33 of [0, 1], then the difference neighbours of both ends
PATH_SAMPLES = np.concatenate([np.linspace(0.0, 1.0, 33), [DEFAULT_FD_STEP, 1.0 + DEFAULT_FD_STEP,
                                                         -DEFAULT_FD_STEP, 1.0 - DEFAULT_FD_STEP]])
PATH_SAMPLES.flags.writeable = False


def validate_path(group: MatrixGroup, path: GroupPath):
    """Check that the path stays in the group, then its basedness and the
    periodicity of its left logarithmic derivative, on its values at
    PATH_SAMPLES.  Membership of all of them is checked first: a path that
    leaves the group gets the one issue "in_group" with the largest
    residual, since its tangents need not lie in the algebra."""
    g = path.values_at(PATH_SAMPLES)
    _, outside = group.outside(g)
    if outside.size:
        return [{"identity": "in_group", "indices": [], "residual": float(np.max(outside))}]
    issues = []
    base_res = float(np.max(np.abs(g[0] - group.identity)))
    if base_res > _coincidence_tol(g[0], group.identity):
        issues.append({"identity": "based_at_identity", "indices": [0], "residual": base_res})
    # the left log-derivative g^-1 g' at t = 0 and 1
    d0, d1 = group.decompose(group.inverse(g[[0, 32]]) @ ((g[33:35] - g[35:]) / (2.0 * DEFAULT_FD_STEP)))
    res = float(np.max(np.abs(d0 - d1), initial=0.0))
    if res > DEFAULT_DERIV_TOL:
        issues.append({"identity": "periodic_log_derivative", "indices": [], "residual": res})
    return issues


def exp_path(group: MatrixGroup, x: np.ndarray, scale: float = 1.0) -> GroupPath:
    """t -> exp(t * scale * X) for an algebra coefficient vector X."""
    mat = group.realize(np.asarray(x, dtype=float))
    return GroupPath(eval=vectorized(lambda t: group.exp(np.multiply.outer(t * scale, mat))))


def coordinate_path(group: MatrixGroup, fn: Callable) -> GroupPath:
    """The path of a coordinate function t -> chart coordinates, carrying the
    group's chart."""
    if group.chart is None:
        raise MalformedInputError(f"{group.name} has no coordinate chart")
    return GroupPath(eval=fn, chart=group.chart)


def pointwise_product(g1: GroupPath, g2: GroupPath) -> GroupPath:
    """t -> g1(t) g2(t); stays based, preserves log-derivative periodicity."""
    return GroupPath(eval=vectorized(lambda t: g1(t) @ g2(t)))


# ---------------------------------------------------------------------------
# Built-in groups: every map takes a stack (..., d, d) or coordinates (..., k)


def _transpose(g):
    return np.swapaxes(np.asarray(g, dtype=float), -1, -2)


@lru_cache(maxsize=32)
def torus_group(k: int) -> MatrixGroup:
    """T^k as block-diagonal 2x2 rotations, coordinates in winding units."""
    alg = abelian_algebra(k)
    d = 2 * k
    basis = np.zeros((k, d, d))
    j_block = np.array([[0.0, -1.0], [1.0, 0.0]])
    for i in range(k):
        basis[i, 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 2.0 * np.pi * j_block
    cos_at, sin_at = np.arange(0, d, 2), np.arange(1, d, 2)  # rows/columns of each block
    off_rows, off_cols = np.nonzero(np.kron(1.0 - np.eye(k), np.ones((2, 2))))  # off the blocks

    def rotations(theta):
        """Block-diagonal rotations by the angles theta (..., k)."""
        c, s = np.cos(theta), np.sin(theta)
        g = np.zeros(theta.shape[:-1] + (d, d))
        g[..., cos_at, cos_at], g[..., cos_at, sin_at] = c, -s
        g[..., sin_at, cos_at], g[..., sin_at, sin_at] = s, c
        return g

    def angles_of(g):
        g = np.asarray(g, dtype=float)
        return np.arctan2(g[..., sin_at, cos_at], g[..., cos_at, cos_at])

    @vectorized
    def from_coords(x):
        # |x| >= 2^52 is a whole number of turns, which fmod takes off, so
        # 2 pi x stays finite; smaller x are kept bit for bit
        return rotations(2.0 * np.pi * np.fmod(np.atleast_1d(np.asarray(x, dtype=float)), 2.0**52))

    @vectorized
    def exp_map(mat):
        return rotations(np.asarray(mat, dtype=float)[..., sin_at, cos_at])

    @vectorized
    def log_map(g):
        th = angles_of(g)
        out = np.zeros(th.shape[:-1] + (d, d))
        out[..., cos_at, sin_at], out[..., sin_at, cos_at] = -th, th
        return out

    @vectorized
    def membership(g):
        """Largest entry of B^T B - I and det B - 1 over the 2x2 blocks
        B = [[a, b], [c, e]], and of the entries off the blocks."""
        g = np.asarray(g, dtype=float)
        a, b = g[..., cos_at, cos_at], g[..., cos_at, sin_at]
        c, e = g[..., sin_at, cos_at], g[..., sin_at, sin_at]
        res = np.concatenate(
            [a * a + c * c - 1.0, a * b + c * e, b * b + e * e - 1.0, a * e - b * c - 1.0,
             g[..., off_rows, off_cols]],
            axis=-1,
        )
        return np.max(np.abs(res), axis=-1, initial=0.0)

    def tangent(x, dx):
        """dx itself: coordinates in winding units and the basis 2 pi J."""
        if not np.all(np.isfinite(dx)):
            raise TangentDecompositionError("coordinate velocity is not finite")
        return dx

    chart = CoordinateChart(
        dim=k,
        to_coords=vectorized(lambda g: angles_of(g) / (2.0 * np.pi)),
        from_coords=from_coords,
        tangent=tangent,
        additive=True,
    )
    return MatrixGroup(
        algebra=alg,
        basis=basis,
        exp=exp_map,
        log=log_map,
        inverse=vectorized(_transpose),
        membership=membership,
        chart=chart,
        name=f"T^{k}",
    )


def _unipotent_group(algebra: LieAlgebra, rows, cols, name: str) -> MatrixGroup:
    """Unipotent group g = I + n, n^3 = 0, whose basis matrix i is the unit
    matrix E[rows[i], cols[i]] (rows[i] < cols[i]), charted by those entries;
    the membership residual is the largest entry of g off the chart's image.
    exp, log and inverse are I + n + n^2/2, n - n^2/2 and I - n + n^2 (on
    R^k, where n^2 = 0 on the span, the n^2 terms are zeros)."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    d = int(np.max(cols, initial=0)) + 1
    eye = np.eye(d)
    basis = np.zeros((len(rows), d, d))
    basis[np.arange(len(rows)), rows, cols] = 1.0

    @vectorized
    def exp_map(mat):
        return eye + mat + 0.5 * (mat @ mat)

    @vectorized
    def log_map(g):
        n = np.asarray(g, dtype=float) - eye
        return n - 0.5 * (n @ n)

    @vectorized
    def inverse(g):
        n = np.asarray(g, dtype=float) - eye  # n^3 = 0 for a member
        return eye - n + n @ n

    @vectorized
    def from_coords(v):
        v = np.asarray(v, dtype=float)
        g = np.zeros(v.shape[:-1] + (d, d)) + eye
        g[..., rows, cols] = v
        return g

    @vectorized
    def to_coords(g):
        return np.asarray(g, dtype=float)[..., rows, cols]

    @vectorized
    def membership(g):
        g = np.asarray(g, dtype=float)
        return np.max(np.abs(g - from_coords(to_coords(g))), axis=(-2, -1))

    # the (k, k, k) table of (E_j E_l)[rows[i], cols[i]] holds 0 or 1; its ones
    # (j, l, i): on the Heisenberg group one, x dy in z, and none on R^k
    j, l, i = np.nonzero((basis[:, None] @ basis)[..., rows, cols])
    gather = np.eye(len(rows))[i]

    def tangent(x, dx):
        """The coefficients of g^-1 E(dx) at g = I + N(x), E(dx) and N(x)
        holding dx and x at the chart's entries: a product of three matrices
        of the span vanishes, so g^-1 E(dx) = (I - N + N^2) E(dx) = E(dx) -
        N(x) E(dx), whose entry i is dx_i less the x_j dx_l of the table.  A
        coefficient that is not finite, from dx or an x_j dx_l that
        overflows, is refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = dx - (x[..., j] * dx[..., l]) @ gather
        if not np.all(np.isfinite(coeffs)):
            raise TangentDecompositionError("chart tangent is not finite")
        return coeffs

    chart = CoordinateChart(dim=len(rows), to_coords=to_coords, from_coords=from_coords, tangent=tangent,
                            additive=not i.size)  # R^k: an empty table, n^2 = 0
    return MatrixGroup(algebra=algebra, basis=basis, exp=exp_map, log=log_map, inverse=inverse,
                       membership=membership, chart=chart, name=name)


@lru_cache(maxsize=32)
def translation_group(k: int) -> MatrixGroup:
    """R^k additive, embedded as (k+1) x (k+1) unitriangular matrices."""
    return _unipotent_group(abelian_algebra(k), range(k), [k] * k, f"R^{k}")


# Left multiplication by q = (w, x, y, z): entry (r, c) is sign * q[index].
_QUAT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_QUAT_SIGN = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]], dtype=float)


def _quaternion_left_matrix(q: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication by q on R^4 with basis (1, i, j, k);
    q has shape (..., 4)."""
    return np.asarray(q, dtype=float)[..., _QUAT_INDEX] * _QUAT_SIGN


@lru_cache(maxsize=None)
def su2_group() -> MatrixGroup:
    """SU(2) as unit quaternions acting on R^4 by left multiplication.

    Basis (i, j, k) with [i, j] = 2k and cyclic.
    """
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 2.0
        c[j, i, k] = -2.0
    alg = LieAlgebra(structure_constants=c, basis_labels=("i", "j", "k"))
    basis = _quaternion_left_matrix(np.eye(4)[1:])

    @vectorized
    def exp_map(mat):
        mat = np.asarray(mat, dtype=float)
        theta = np.linalg.norm(mat[..., 1:, 0], axis=-1)
        small = theta < 1e-30  # exp is 1 + mat to double precision
        cos = np.where(small, 1.0, np.cos(theta))
        sinc = np.where(small, 1.0, np.sin(theta) / np.where(small, 1.0, theta))
        return cos[..., None, None] * np.eye(4) + sinc[..., None, None] * mat

    @vectorized
    def log_map(g):
        q = np.asarray(g, dtype=float)[..., :, 0]
        nv = np.linalg.norm(q[..., 1:], axis=-1)
        small = nv < 1e-30
        ratio = np.where(small, 0.0, np.arctan2(nv, q[..., 0]) / np.where(small, 1.0, nv))
        pure = ratio[..., None] * q
        pure[..., 0] = 0.0
        return _quaternion_left_matrix(pure)

    @vectorized
    def membership(g):
        g = np.asarray(g, dtype=float)
        q = g[..., :, 0]
        res = np.abs(np.sum(q * q, axis=-1) - 1.0)
        return np.maximum(res, np.max(np.abs(g - _quaternion_left_matrix(q)), axis=(-2, -1)))

    return MatrixGroup(
        algebra=alg,
        basis=basis,
        exp=exp_map,
        log=log_map,
        inverse=vectorized(_transpose),
        membership=membership,
        name="SU(2)",
    )


@lru_cache(maxsize=None)
def sl2_group() -> MatrixGroup:
    """SL(2, R) with the defining 2x2 realization of basis (h, e, f), in
    closed form: X^2 = r^2 I with r^2 = -det X on the traceless matrices, so
    exp X = cosh(r) I + sinh(r)/r X (cos and sin of |r| when r^2 < 0); log
    inverts that from cosh(r) = tr(g)/2 and refuses tr g <= -2, where of all
    elements only -I has a real logarithm; the inverse is the adjugate."""
    from .algebra import sl2_algebra

    basis = np.array(
        [
            [[1.0, 0.0], [0.0, -1.0]],
            [[0.0, 1.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
        ]
    )

    def det(g):
        return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]

    @vectorized
    def exp_map(mat):
        mat = np.asarray(mat, dtype=float)
        q = -det(mat)  # r^2
        r = np.sqrt(np.abs(q))
        cosh = np.where(q >= 0.0, np.cosh(r), np.cos(r))
        sinhc = np.where(r > 0.0, np.where(q >= 0.0, np.sinh(r), np.sin(r)) / np.where(r > 0.0, r, 1.0), 1.0)
        return cosh[..., None, None] * np.eye(2) + sinhc[..., None, None] * mat

    @vectorized
    def log_map(g):
        g = np.asarray(g, dtype=float)
        c = 0.5 * (g[..., 0, 0] + g[..., 1, 1])  # cosh(r)
        bad = np.flatnonzero(~(c > -1.0))  # NaN fails too
        if bad.size:
            raise TangentDecompositionError(
                f"a matrix of trace {2.0 * c.flat[bad[0]]:.6g} has no real logarithm in SL(2,R): "
                "the logarithm needs trace > -2")
        s2 = np.abs((c - 1.0) * (c + 1.0))  # sinh(r)^2, or sin^2 when c < 1
        r = np.where(c > 1.0, np.arccosh(np.maximum(c, 1.0)), np.arccos(np.minimum(c, 1.0)))
        ratio = np.where(s2 > 0.0, r / np.sqrt(np.where(s2 > 0.0, s2, 1.0)), 1.0)  # r / sinh(r)
        return ratio[..., None, None] * (g - c[..., None, None] * np.eye(2))

    @vectorized
    def inverse(g):
        """[[d, -b], [-c, a]], from g^T = [[a, c], [b, d]] read backwards."""
        return _transpose(g)[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])

    return MatrixGroup(
        algebra=sl2_algebra(),
        basis=basis,
        exp=exp_map,
        log=log_map,
        inverse=inverse,
        membership=vectorized(lambda g: np.abs(det(np.asarray(g, dtype=float)) - 1.0)),
        name="SL(2,R)",
    )


@lru_cache(maxsize=None)
def heisenberg_group() -> MatrixGroup:
    """3x3 upper unitriangular matrices; basis x, y, z = [x, y] of heis3."""
    return _unipotent_group(heisenberg3_algebra(), (0, 1, 0), (1, 2, 2), "Heisenberg(3)")
