"""Concrete matrix groups: the geometric home of paths, forms and periods.

A group is described by the d x d realization of its Lie algebra basis plus
exp/log maps (closed forms for the built-in groups, scipy fallbacks
otherwise).  Tangent matrices are decomposed in the realized basis by least
squares against a precomputed pseudoinverse; the residual of that solve is
the "did we leave the group?" guard used throughout the quadrature code.

Built-ins: tori (block rotations, coordinates in winding units, so the
basis matrix of each circle factor is 2*pi*J and exp(1 * e_i) = 1), additive
translation groups, SU(2) as unit quaternions acting on R^4, and the 3x3
unipotent Heisenberg group.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (
    LieAlgebra,
    ModuleAction,
    abelian_algebra,
    heisenberg3_algebra,
    trivial_module,
    validate_algebra,
    ValidationIssue,
)
from .errors import MalformedInputError, MembershipError, TangentDecompositionError

DEFAULT_MEMBERSHIP_TOL = 1e-9
DEFAULT_DERIV_TOL = 1e-6
DEFAULT_FD_STEP = 1e-5
TANGENT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class CoordinateChart:
    """Global-ish coordinates for a group (used by the CLI and D2 curves)."""

    dim: int
    to_coords: Callable
    from_coords: Callable


@dataclass(frozen=True)
class MatrixGroup:
    """Matrix realization of a Lie group with its algebra and module."""

    algebra: LieAlgebra
    basis: np.ndarray  # shape (n, d, d)
    mod_action: ModuleAction
    exp: Callable = None
    log: Callable = None
    inverse: Callable = None
    membership: Optional[Callable] = None  # matrix -> residual
    chart: Optional[CoordinateChart] = None
    membership_tol: float = DEFAULT_MEMBERSHIP_TOL
    name: str = "matrix-group"

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
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
            object.__setattr__(self, "log", lambda g: np.real(scipy.linalg.logm(g)))
        if self.inverse is None:
            object.__setattr__(self, "inverse", np.linalg.inv)
        flat = basis.reshape(self.algebra.dim, -1).T if self.algebra.dim else np.zeros((basis.shape[1] ** 2, 0))
        object.__setattr__(self, "_flat_basis", flat)
        object.__setattr__(self, "_flat_pinv", np.linalg.pinv(flat) if flat.size else flat.T)

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

    def decompose(self, mat: np.ndarray, tol: float = TANGENT_RESIDUAL_TOL) -> np.ndarray:
        """d x d matrix -> coefficients in the realized basis (checked)."""
        vec = np.asarray(mat, dtype=float).reshape(-1)
        coeffs = self._flat_pinv @ vec
        residual = np.linalg.norm(self._flat_basis @ coeffs - vec)
        scale = max(1.0, np.linalg.norm(vec))
        if residual > tol * scale:
            raise TangentDecompositionError(
                f"matrix is {residual:.3e} away from the algebra span "
                f"(tolerance {tol:.1e} x {scale:.3g})"
            )
        return coeffs

    def tangent_coefficients(self, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Left-translate a tangent u at g back to the algebra: g^-1 u."""
        return self.decompose(self.inverse(g) @ u)

    def check_membership(self, g: np.ndarray, scale: float = 1.0):
        if self.membership is None:
            return
        res = float(self.membership(np.asarray(g, dtype=float)))
        if res > self.membership_tol * max(1.0, scale):
            raise MembershipError(
                f"matrix is not in {self.name} (residual {res:.3e})"
            )


def validate_group(group: MatrixGroup, tol_alg: float = 1e-9):
    """Basis commutators must reproduce the structure constants; exp/log must
    round-trip near the identity."""
    issues = list(validate_algebra(group.algebra, tol_alg))
    c = group.algebra.structure_constants
    n = group.algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            comm = group.basis[i] @ group.basis[j] - group.basis[j] @ group.basis[i]
            expected = np.einsum("k,kab->ab", c[i, j], group.basis)
            res = float(np.max(np.abs(comm - expected)))
            if res > tol_alg * max(1.0, float(np.max(np.abs(group.basis))) ** 2):
                issues.append(ValidationIssue("basis_commutator", (i, j), res))
    rng = np.random.default_rng(7)
    for trial in range(3):
        x = 0.05 * rng.normal(size=n) if n else np.zeros(0)
        g = group.exp(group.realize(x))
        back = group.exp(group.log(g))
        res = float(np.max(np.abs(back - g)))
        if res > 1e-8:
            issues.append(ValidationIssue("exp_log_roundtrip", (trial,), res))
    return issues


def validate_action_compatibility(group: MatrixGroup, mod: ModuleAction):
    """Check that the group action differentiates to rho at the identity.

    Central difference of t -> group_action(exp(t e_i), f_b) at t = 0 must
    match rho[i][:, b] for every basis pair.
    """
    if mod.group_action is None:
        return []
    issues = []
    m = mod.coeff_dim
    for i in range(group.algebra.dim):
        xm = group.basis[i]
        for b in range(m):
            fb = np.zeros(m)
            fb[b] = 1.0
            plus = mod.act(group.exp(DEFAULT_FD_STEP * xm), fb)
            minus = mod.act(group.exp(-DEFAULT_FD_STEP * xm), fb)
            derivative = (plus - minus) / (2.0 * DEFAULT_FD_STEP)
            res = float(np.max(np.abs(derivative - mod.rho[i][:, b])))
            if res > DEFAULT_DERIV_TOL:
                issues.append(ValidationIssue("action_compatibility", (i, b), res))
    return issues


@dataclass(frozen=True)
class GroupPath:
    """Evaluable based path [0, 1] -> G."""

    eval: Callable

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.eval(t), dtype=float)


def log_derivative(group: MatrixGroup, path: GroupPath, t: float) -> np.ndarray:
    """Left logarithmic derivative g^-1 g' expressed in the algebra basis.

    g' is a central difference; paths are closed forms, so evaluating
    slightly outside [0, 1] is fine."""
    h = DEFAULT_FD_STEP
    tangent = (path(t + h) - path(t - h)) / (2.0 * h)
    return group.decompose(group.inverse(path(t)) @ tangent)


def validate_path(group: MatrixGroup, path: GroupPath):
    """Check basedness and periodicity of the left logarithmic derivative."""
    issues = []
    base_res = float(np.max(np.abs(path(0.0) - group.identity)))
    if base_res > group.membership_tol * 10:
        issues.append(ValidationIssue("based_at_identity", (0,), base_res))
    d0 = log_derivative(group, path, 0.0)
    d1 = log_derivative(group, path, 1.0)
    res = float(np.max(np.abs(d0 - d1))) if d0.size else 0.0
    if res > DEFAULT_DERIV_TOL:
        issues.append(ValidationIssue("periodic_log_derivative", (), res))
    return issues


def identity_path(group: MatrixGroup) -> GroupPath:
    eye = group.identity
    return GroupPath(eval=lambda t: eye)


def exp_path(group: MatrixGroup, x: np.ndarray, scale: float = 1.0) -> GroupPath:
    """t -> exp(t * scale * X) for an algebra coefficient vector X."""
    mat = group.realize(np.asarray(x, dtype=float))
    return GroupPath(eval=lambda t: group.exp((t * scale) * mat))


def coordinate_path(group: MatrixGroup, fn: Callable) -> GroupPath:
    """Path from a coordinate function t -> chart coordinates."""
    if group.chart is None:
        raise MalformedInputError(f"{group.name} has no coordinate chart")
    chart = group.chart
    return GroupPath(eval=lambda t: chart.from_coords(np.asarray(fn(t), dtype=float)))


def pointwise_product(g1: GroupPath, g2: GroupPath) -> GroupPath:
    """t -> g1(t) g2(t); stays based, preserves log-derivative periodicity."""
    return GroupPath(eval=lambda t: g1(t) @ g2(t))


# ---------------------------------------------------------------------------
# Built-in groups


def _rotation_block(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def torus_group(k: int, module: Optional[ModuleAction] = None) -> MatrixGroup:
    """T^k as block-diagonal 2x2 rotations, coordinates in winding units."""
    alg = abelian_algebra(k)
    d = 2 * k
    basis = np.zeros((k, d, d))
    j_block = np.array([[0.0, -1.0], [1.0, 0.0]])
    for i in range(k):
        basis[i, 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 2.0 * np.pi * j_block

    def angles_of(g):
        g = np.asarray(g, dtype=float)
        return np.array(
            [np.arctan2(g[2 * i + 1, 2 * i], g[2 * i, 2 * i]) for i in range(k)]
        )

    def from_coords(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        g = np.zeros((d, d))
        for i in range(k):
            g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = _rotation_block(2.0 * np.pi * x[i])
        return g

    def exp_map(mat):
        thetas = [mat[2 * i + 1, 2 * i] for i in range(k)]
        g = np.zeros((d, d))
        for i, th in enumerate(thetas):
            g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = _rotation_block(th)
        return g

    def log_map(g):
        out = np.zeros((d, d))
        for i, th in enumerate(angles_of(g)):
            out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = th * j_block
        return out

    def membership(g):
        res = 0.0
        g = np.asarray(g, dtype=float)
        mask = np.ones((d, d), dtype=bool)
        for i in range(k):
            block = g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
            res = max(res, float(np.max(np.abs(block.T @ block - np.eye(2)))))
            res = max(res, abs(float(np.linalg.det(block)) - 1.0))
            mask[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = False
        res = max(res, float(np.max(np.abs(g[mask]))) if mask.any() else 0.0)
        return res

    chart = CoordinateChart(
        dim=k,
        to_coords=lambda g: angles_of(g) / (2.0 * np.pi),
        from_coords=from_coords,
    )
    return MatrixGroup(
        algebra=alg,
        basis=basis,
        mod_action=module or trivial_module(k, 1),
        exp=exp_map,
        log=log_map,
        inverse=lambda g: np.asarray(g).T,
        membership=membership,
        chart=chart,
        name=f"T^{k}",
    )


def translation_group(k: int, module: Optional[ModuleAction] = None) -> MatrixGroup:
    """R^k additive, embedded as (k+1) x (k+1) unitriangular matrices."""
    alg = abelian_algebra(k)
    d = k + 1
    basis = np.zeros((k, d, d))
    for i in range(k):
        basis[i, i, k] = 1.0

    def from_coords(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        g = np.eye(d)
        g[:k, k] = x
        return g

    def membership(g):
        g = np.asarray(g, dtype=float)
        ref = from_coords(g[:k, k])
        return float(np.max(np.abs(g - ref)))

    chart = CoordinateChart(dim=k, to_coords=lambda g: np.asarray(g)[:k, k].copy(), from_coords=from_coords)
    return MatrixGroup(
        algebra=alg,
        basis=basis,
        mod_action=module or trivial_module(k, 1),
        exp=lambda mat: np.eye(d) + mat,
        log=lambda g: np.asarray(g, dtype=float) - np.eye(d),
        inverse=lambda g: from_coords(-np.asarray(g)[:k, k]),
        membership=membership,
        chart=chart,
        name=f"R^{k}",
    )


def _quaternion_left_matrix(q: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication by q on R^4 with basis (1, i, j, k)."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def su2_group(module: Optional[ModuleAction] = None) -> MatrixGroup:
    """SU(2) as unit quaternions acting on R^4 by left multiplication.

    Basis (i, j, k) with [i, j] = 2k and cyclic.
    """
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 2.0
        c[j, i, k] = -2.0
    alg = LieAlgebra(structure_constants=c, basis_labels=("i", "j", "k"))
    basis = np.stack(
        [
            _quaternion_left_matrix(np.array([0.0, 1.0, 0.0, 0.0])),
            _quaternion_left_matrix(np.array([0.0, 0.0, 1.0, 0.0])),
            _quaternion_left_matrix(np.array([0.0, 0.0, 0.0, 1.0])),
        ]
    )

    def exp_map(mat):
        vec = np.array([mat[1, 0], mat[2, 0], mat[3, 0]])
        theta = np.linalg.norm(vec)
        if theta < 1e-30:
            return np.eye(4) + mat
        return np.cos(theta) * np.eye(4) + (np.sin(theta) / theta) * mat

    def log_map(g):
        q = np.asarray(g, dtype=float)[:, 0]
        vec = q[1:]
        nv = np.linalg.norm(vec)
        theta = np.arctan2(nv, q[0])
        if nv < 1e-30:
            return np.zeros((4, 4))
        pure = np.concatenate([[0.0], (theta / nv) * vec])
        return _quaternion_left_matrix(pure)

    def membership(g):
        q = np.asarray(g, dtype=float)[:, 0]
        res = abs(float(q @ q) - 1.0)
        res = max(res, float(np.max(np.abs(g - _quaternion_left_matrix(q)))))
        return res

    return MatrixGroup(
        algebra=alg,
        basis=basis,
        mod_action=module or trivial_module(3, 1),
        exp=exp_map,
        log=log_map,
        inverse=lambda g: np.asarray(g).T,
        membership=membership,
        name="SU(2)",
    )


def quaternion_element(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) -> SU(2) group element."""
    q = np.asarray(q, dtype=float)
    return _quaternion_left_matrix(q / np.linalg.norm(q))


def sl2_group(module: Optional[ModuleAction] = None) -> MatrixGroup:
    """SL(2, R) with the defining 2x2 realization of basis (h, e, f)."""
    from .algebra import sl2_algebra

    basis = np.array(
        [
            [[1.0, 0.0], [0.0, -1.0]],
            [[0.0, 1.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
        ]
    )
    return MatrixGroup(
        algebra=sl2_algebra(),
        basis=basis,
        mod_action=module or trivial_module(3, 1),
        membership=lambda g: abs(float(np.linalg.det(g)) - 1.0),
        name="SL(2,R)",
    )


def heisenberg_group(module: Optional[ModuleAction] = None) -> MatrixGroup:
    """3x3 upper unitriangular matrices; algebra is heis3."""
    alg = heisenberg3_algebra()
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = 1.0  # x
    basis[1, 1, 2] = 1.0  # y
    basis[2, 0, 2] = 1.0  # z = [x, y]

    def exp_map(mat):
        return np.eye(3) + mat + 0.5 * (mat @ mat)

    def log_map(g):
        n = np.asarray(g, dtype=float) - np.eye(3)
        return n - 0.5 * (n @ n)

    def from_coords(v):
        a, b, c_ = np.atleast_1d(np.asarray(v, dtype=float))
        g = np.eye(3)
        g[0, 1], g[1, 2], g[0, 2] = a, b, c_
        return g

    def membership(g):
        g = np.asarray(g, dtype=float)
        ref = from_coords([g[0, 1], g[1, 2], g[0, 2]])
        return float(np.max(np.abs(g - ref)))

    chart = CoordinateChart(
        dim=3,
        to_coords=lambda g: np.array([g[0, 1], g[1, 2], g[0, 2]]),
        from_coords=from_coords,
    )
    return MatrixGroup(
        algebra=alg,
        basis=basis,
        mod_action=module or trivial_module(3, 1),
        exp=exp_map,
        log=log_map,
        membership=membership,
        chart=chart,
        name="Heisenberg(3)",
    )
