"""Surfaces in a matrix group and integrals of the equivariant 2-form.

A degree-2 algebra cochain omega extends to a 2-form on the whole group by
left translation twisted with the coefficient action:

    form(g)(u, v) = g . omega(g^-1 u, g^-1 v),

with tangents decomposed in the realized algebra basis.  Everything else
here is built on integrating that form over parameterized 2-chains with a
tensor Gauss-Legendre rule (Duffy-mapped on triangles) and patch partials
by central differences, in one array pass over all nodes of a patch:

* the product triangle sigma(t, s) = g1(t) g2(s), whose integral is the
  path-pair cocycle;
* spanning surfaces between two paths with the same endpoint, built by
  fiberwise interpolation g1(t) exp(alpha(s) log(g1(t)^-1 g2(t)));
* boundaries of 3-patches (for Stokes checks), translated chains, and the
  edge bookkeeping used by cycle-closure and holonomy boundary tests;
* the finite-difference derivation taking a smooth group 2-cochain to an
  algebra 2-cochain, and the consistency checks tying the path cocycle and
  the extension's curvature back to omega.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .algebra import (
    Lattice,
    bracket as algebra_bracket,
    reduce_mod_lattice,
    trivial_module,
)
from .batch import per_point, vectorized
from .cohomology import Cochain, GroupCochain, index_table
from .errors import (
    BoundaryMismatchError,
    LieExtError,
    MalformedInputError,
    NotALoopError,
)
from .extensions import build_algebra_extension
from .groups import (
    DEFAULT_FD_STEP,
    GroupPath,
    MatrixGroup,
    exp_path,
    pointwise_product,
)

DEFAULT_QUAD_ORDER = 16
DEFAULT_D2_STEP = 1e-3


@vectorized
def smooth_step(u):
    """Monotone [0,1] -> [0,1] map with flat first derivative at both ends."""
    return u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)


@dataclass(frozen=True)
class EquivariantForm:
    """Left-equivariant extension of a degree-2 cochain over a matrix group."""

    cochain: Cochain
    group: MatrixGroup

    def __post_init__(self):
        if self.cochain.degree != 2:
            raise MalformedInputError("equivariant form needs a degree-2 cochain")
        if self.cochain.alg_dim != self.group.algebra.dim:
            raise MalformedInputError(
                "cochain algebra dimension does not match the group"
            )
        mod = self.group.mod_action
        if mod.group_action is not None and mod.coeff_dim != self.cochain.coeff_dim:
            raise MalformedInputError(
                "cochain coefficient dimension does not match the group action"
            )

    def module(self):
        """The coefficient module, resized when the group's is a placeholder."""
        mod = self.group.mod_action
        if mod.coeff_dim != self.cochain.coeff_dim:
            return trivial_module(self.group.algebra.dim, self.cochain.coeff_dim)
        return mod

    def __call__(self, g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return eval_equivariant(self, g, u, v)


def eval_equivariant(
    form: EquivariantForm, g: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Value of the form at g on tangent matrices u, v at g; on stacks of
    matrices (..., d, d) a stack of values (..., m).

    The cochain is the minors x_i y_j - x_j y_i (i < j) of the two
    coefficient vectors contracted with its components."""
    group = form.group
    x = group.tangent_coefficients(g, u)
    y = group.tangent_coefficients(g, v)
    i, j = index_table(form.cochain.alg_dim, 2).T
    minors = x[..., i] * y[..., j] - x[..., j] * y[..., i]
    return group.mod_action.act(g, minors @ form.cochain.values)


@dataclass(frozen=True)
class SurfacePatch:
    """One parameterized 2-patch: map from the unit square or the triangle
    {0 <= s <= t <= 1} into the group, with an integer multiplicity.
    Called on arrays of parameters it returns the stack of matrices."""

    eval: Callable
    domain: str = "square"  # "square" | "simplex"
    coefficient: int = 1

    def __post_init__(self):
        if self.domain not in ("square", "simplex"):
            raise MalformedInputError(f"unknown patch domain {self.domain!r}")
        object.__setattr__(self, "eval", per_point(self.eval))

    def __call__(self, t, s) -> np.ndarray:
        return np.asarray(self.eval(t, s), dtype=float)


@dataclass(frozen=True)
class Surface2Chain:
    """Formal integer combination of surface patches."""

    patches: Tuple[SurfacePatch, ...]

    def __post_init__(self):
        object.__setattr__(self, "patches", tuple(self.patches))


def empty_chain() -> Surface2Chain:
    return Surface2Chain(patches=())


def left_translate_chain(g: np.ndarray, chain: Surface2Chain) -> Surface2Chain:
    g = np.asarray(g, dtype=float)
    return Surface2Chain(
        patches=tuple(
            SurfacePatch(
                eval=(lambda p: vectorized(lambda t, s: g @ p(t, s)))(p),
                domain=p.domain,
                coefficient=p.coefficient,
            )
            for p in chain.patches
        )
    )


# Nodes per array pass; larger grids are integrated in slices of this many
# nodes so the stacked patch values stay a few megabytes.
_PASS_NODES = 4096


@lru_cache(maxsize=32)
def _stencil(order: int, domain: str, step: float):
    """Parameters and weights of the tensor Gauss-Legendre grid on a domain.

    Node (i, j) sits at (u_i, u_j) on the square and at the Duffy image
    (u_i, u_i u_j), with Jacobian u_i, on the triangle.  Returns ts and ss
    of shape (5, N), the nodes followed by their central-difference
    neighbours t + h, t - h, s + h, s - h, and the N node weights.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    u, v = np.repeat(nodes, order), np.tile(nodes, order)
    t, s, jac = (u, u * v, u) if domain == "simplex" else (u, v, 1.0)
    ts = np.stack([t, t + step, t - step, t, t])
    ss = np.stack([s, s, s, s + step, s - step])
    weight = np.repeat(weights, order) * np.tile(weights, order) * jac
    for arr in (ts, ss, weight):
        arr.flags.writeable = False
    return ts, ss, weight


def surface_integral(
    form: EquivariantForm,
    chain: Surface2Chain,
    quad_order: int = DEFAULT_QUAD_ORDER,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Integral of the form over the chain.

    Tensor Gauss-Legendre of the given order per axis; the triangle domain
    is reached through the Duffy map (t, s) = (u, u v) with Jacobian u,
    which keeps the rule robust at the collapsed vertex.  Patch partial
    derivatives are central differences with the given step.  Each patch
    is one array pass: the patch is evaluated once on all nodes and their
    four neighbours, and membership, the tangent decomposition, the
    cochain, the action and the weights are applied to the whole stack
    (orders above 64 pass over slices of _PASS_NODES nodes).
    """
    group = form.group
    total = np.zeros(form.cochain.coeff_dim)
    for patch in chain.patches:
        if patch.coefficient == 0:
            continue
        ts, ss, weight = _stencil(quad_order, patch.domain, step)
        for lo in range(0, weight.size, _PASS_NODES):
            part = slice(lo, lo + _PASS_NODES)
            mats = patch(ts[:, part].ravel(), ss[:, part].ravel())
            g, t_plus, t_minus, s_plus, s_minus = np.split(mats, 5)
            group.check_membership(g, scale=np.max(np.abs(g), axis=(-2, -1), initial=0.0))
            du = (t_plus - t_minus) / (2.0 * step)
            dv = (s_plus - s_minus) / (2.0 * step)
            vals = weight[part, None] * eval_equivariant(form, g, du, dv)
            total = total + patch.coefficient * np.sum(vals, axis=0)
    return total


# ---------------------------------------------------------------------------
# Chains built from paths


def product_triangle_chain(g1: GroupPath, g2: GroupPath) -> Surface2Chain:
    """The triangle (t, s) -> g1(t) g2(s) on {0 <= s <= t <= 1}.

    Its boundary is g1 + (g1(1) . g2) - (g1 g2): the first path, the left
    translate of the second, minus their pointwise product.
    """
    return Surface2Chain(
        patches=(
            SurfacePatch(eval=vectorized(lambda t, s: g1(t) @ g2(s)), domain="simplex"),
        )
    )


def path_cocycle(
    form: EquivariantForm,
    g1: GroupPath,
    g2: GroupPath,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Integral of the form over the product triangle of the two paths."""
    return surface_integral(form, product_triangle_chain(g1, g2), quad_order)


def spanning_chain(
    group: MatrixGroup,
    g1: GroupPath,
    g2: GroupPath,
    schedule: Callable = smooth_step,
) -> Surface2Chain:
    """Surface bounded by exactly g1 - g2, for paths sharing an endpoint.

    Fiberwise interpolation H(t, s) = g1(t) exp(schedule(s) L(t)) with
    L(t) = log(g1(t)^-1 g2(t)).  The two s-edges are the paths, the two
    t-edges are constant (identity and the common endpoint), so the chain
    is a genuine spanning surface.  Requires the two paths to stay within
    the principal branch of the group logarithm of each other; a sampled
    continuity check guards against branch jumps.
    """
    end_gap = float(np.max(np.abs(g1(1.0) - g2(1.0))))
    scale = max(1.0, float(np.max(np.abs(g1(1.0)))))
    if end_gap > 100 * group.membership_tol * scale:
        raise NotALoopError(
            f"paths end {end_gap:.3e} apart; a spanning surface needs a "
            "common endpoint"
        )
    ts = np.linspace(0.0, 1.0, 64)
    logs = group.log(group.inverse(g1(ts)) @ g2(ts))
    if np.max(np.abs(np.diff(logs, axis=0)), initial=0.0) > 3.0:
        raise NotALoopError(
            "fiberwise logarithm jumps between samples; the paths are too "
            "far apart for a single-branch spanning surface"
        )
    schedule = per_point(schedule)

    @vectorized
    def patch(t, s):
        gt = g1(t)
        ell = group.log(group.inverse(gt) @ g2(t))
        return gt @ group.exp(np.asarray(schedule(s))[..., None, None] * ell)

    return Surface2Chain(patches=(SurfacePatch(eval=patch, domain="square"),))


def cube_boundary_chain(block: Callable) -> Surface2Chain:
    """Oriented boundary of a smooth 3-patch [0,1]^3 -> G, six square faces."""
    block = per_point(block)

    def face(axis, value):
        if axis == 0:
            return vectorized(lambda t, s: block(value, t, s))
        if axis == 1:
            return vectorized(lambda t, s: block(t, value, s))
        return vectorized(lambda t, s: block(t, s, value))

    patches = []
    for axis in range(3):
        sign = -1 if axis % 2 == 0 else 1  # (-1)^i for the u_i = 0 face, i 1-based
        patches.append(SurfacePatch(eval=face(axis, 0.0), coefficient=sign))
        patches.append(SurfacePatch(eval=face(axis, 1.0), coefficient=-sign))
    return Surface2Chain(patches=tuple(patches))


# ---------------------------------------------------------------------------
# Boundary edge bookkeeping


@dataclass(frozen=True)
class BoundaryEdge:
    """One oriented boundary edge of a patch, as a curve [0,1] -> G that
    takes an array of parameters."""

    curve: Callable
    weight: int

    def samples(self, params: np.ndarray) -> np.ndarray:
        return np.asarray(self.curve(params), dtype=float)


def chain_boundary_edges(chain: Surface2Chain) -> List[BoundaryEdge]:
    """Signed boundary edges of every patch (square: 4, triangle: 3)."""
    edges = []
    for p in chain.patches:
        c = p.coefficient
        if c == 0:
            continue
        if p.domain == "square":
            edges.append(BoundaryEdge(lambda u, p=p: p(u, 0.0), c))
            edges.append(BoundaryEdge(lambda u, p=p: p(1.0, u), c))
            edges.append(BoundaryEdge(lambda u, p=p: p(u, 1.0), -c))
            edges.append(BoundaryEdge(lambda u, p=p: p(0.0, u), -c))
        else:
            edges.append(BoundaryEdge(lambda u, p=p: p(u, 0.0), c))
            edges.append(BoundaryEdge(lambda u, p=p: p(1.0, u), c))
            edges.append(BoundaryEdge(lambda u, p=p: p(u, u), -c))
    return edges


def cancel_boundary_edges(chain: Surface2Chain, tol: float) -> List[BoundaryEdge]:
    """Pairwise-cancel matching boundary edges; return the net leftovers.

    Edges cancel when their sampled points coincide (same or reversed
    parameterization) within tol; degenerate (constant) edges drop out.
    """
    params = np.linspace(0.0, 1.0, 33)
    edges = chain_boundary_edges(chain)
    sampled = [e.samples(params) for e in edges]
    classes: List[dict] = []
    for edge, arr in zip(edges, sampled):
        spread = float(np.max(np.abs(arr - arr[0])))
        if spread <= tol:
            continue  # constant edge carries no boundary
        placed = False
        for cls in classes:
            if np.max(np.abs(arr - cls["samples"])) <= tol:
                cls["net"] += edge.weight
                placed = True
                break
            if np.max(np.abs(arr[::-1] - cls["samples"])) <= tol:
                cls["net"] -= edge.weight
                placed = True
                break
        if not placed:
            classes.append({"samples": arr, "net": edge.weight, "edge": edge})
    return [
        BoundaryEdge(curve=cls["edge"].curve, weight=cls["net"])
        for cls in classes
        if cls["net"] != 0
    ]


def _min_distance_to_curve(point: np.ndarray, curve: Callable, coarse: int = 65) -> float:
    """Distance from a matrix to a sampled-then-refined point on a curve."""
    us = np.linspace(0.0, 1.0, coarse)
    dists = np.max(np.abs(np.asarray(curve(us)) - point), axis=(-2, -1))
    k = int(np.argmin(dists))
    lo = us[max(0, k - 1)]
    hi = us[min(coarse - 1, k + 1)]
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        d1 = float(np.max(np.abs(np.asarray(curve(m1)) - point)))
        d2 = float(np.max(np.abs(np.asarray(curve(m2)) - point)))
        if d1 < d2:
            hi = m2
        else:
            lo = m1
    u = 0.5 * (lo + hi)
    return float(np.max(np.abs(np.asarray(curve(u)) - point)))


def holonomy(
    form: EquivariantForm,
    loop: GroupPath,
    bounding: Surface2Chain,
    lattice: Optional[Lattice] = None,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Holonomy defect around a loop: the bounding-surface integral mod Gamma.

    The loop must close at the identity, and every sampled loop point must
    lie on the uncancelled boundary of the bounding chain.
    """
    group = form.group
    scale = max(1.0, float(np.max(np.abs(loop(0.0)))))
    tol = 100 * group.membership_tol * scale
    if float(np.max(np.abs(loop(1.0) - loop(0.0)))) > tol:
        raise NotALoopError("loop endpoints do not match")
    leftovers = cancel_boundary_edges(bounding, tol) if bounding.patches else []
    params = np.linspace(0.0, 1.0, 24)
    points = loop(params)
    loop_spread = float(np.max(np.abs(points - loop(0.0))))
    if loop_spread <= tol:  # constant loop: the chain must carry no boundary
        if leftovers:
            raise BoundaryMismatchError(
                "bounding chain has net boundary but the loop is constant"
            )
    else:
        if not leftovers:
            raise BoundaryMismatchError(
                "bounding chain has no net boundary but the loop is not constant"
            )
        for u, point in zip(params, points):
            best = min(
                _min_distance_to_curve(point, e.curve) for e in leftovers
            )
            if best > tol:
                raise BoundaryMismatchError(
                    f"loop point at parameter {u:.3f} is {best:.3e} away from "
                    "the chain boundary"
                )
    value = surface_integral(form, bounding, quad_order)
    return reduce_mod_lattice(lattice, value)


# ---------------------------------------------------------------------------
# Cocycle identities and derivation checks


def path_cocycle_coboundary(
    form: EquivariantForm,
    g1: GroupPath,
    g2: GroupPath,
    g3: GroupPath,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Four-term group coboundary of the path cocycle at (g1, g2, g3).

    g1 . gamma(g2, g3) - gamma(g1 g2, g3) + gamma(g1, g2 g3) - gamma(g1, g2),
    with pointwise path products; lands in the period lattice when the
    integrability condition holds.
    """
    act = form.group.mod_action.act
    g12 = pointwise_product(g1, g2)
    g23 = pointwise_product(g2, g3)
    return (
        act(g1(1.0), path_cocycle(form, g2, g3, quad_order))
        - path_cocycle(form, g12, g3, quad_order)
        + path_cocycle(form, g1, g23, quad_order)
        - path_cocycle(form, g1, g2, quad_order)
    )


def representative_independence_residuals(
    form: EquivariantForm,
    g1: GroupPath,
    g1p: GroupPath,
    g2: GroupPath,
    g2p: GroupPath,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> List[np.ndarray]:
    """The three change-of-representative combinations for the path cocycle.

    For homotopic replacements g1 -> g1p and g2 -> g2p (same endpoints),
    each returned vector lies in the period lattice when the integrability
    condition holds: replacing either factor, or both, shifts the cocycle
    by the flux through the corresponding spanning surfaces.
    """
    group = form.group
    g1g2 = pointwise_product(g1, g2)
    span = lambda a, b: spanning_chain(group, a, b)
    integ = lambda chain: surface_integral(form, chain, quad_order)
    gamma = lambda a, b: path_cocycle(form, a, b, quad_order)
    base = gamma(g1, g2)
    flux1 = integ(span(g1, g1p))
    flux2 = integ(left_translate_chain(g1(1.0), span(g2, g2p)))

    first = integ(span(g1g2, pointwise_product(g1p, g2))) - flux1 - gamma(g1p, g2) + base
    second = integ(span(g1g2, pointwise_product(g1, g2p))) - flux2 - gamma(g1, g2p) + base
    third = integ(span(g1g2, pointwise_product(g1p, g2p))) - flux1 - flux2 - gamma(g1p, g2p) + base
    return [first, second, third]


def _mixed_partial(fn: Callable, step: float) -> np.ndarray:
    """Mixed second partial at (0, 0) by central differences, with one
    Richardson extrapolation step.  The finer grid divides by step squared,
    so a step whose square underflows to a subnormal or zero is refused."""
    if not step * step >= np.finfo(float).tiny:
        raise MalformedInputError(
            f"difference step {step!r} is too small: its square underflows"
        )

    def grid(h):
        return (fn(h, h) - fn(h, -h) - fn(-h, h) + fn(-h, -h)) / (4.0 * h * h)

    with np.errstate(over="ignore", invalid="ignore"):
        value = (4.0 * grid(0.5 * step) - grid(step)) / 3.0
    if not np.all(np.isfinite(value)):
        raise LieExtError(f"the mixed difference quotient at step {step!r} is not finite")
    return value


def differentiate_group_cocycle(
    group: MatrixGroup,
    f: GroupCochain,
    x: np.ndarray,
    y: np.ndarray,
    step: float = DEFAULT_D2_STEP,
) -> np.ndarray:
    """Algebra 2-cochain value obtained by differentiating a group 2-cochain.

    Antisymmetrized mixed derivative of f along the one-parameter curves
    exp(t X), exp(s Y), with one Richardson extrapolation step.
    """
    if f.degree != 2:
        raise MalformedInputError("only degree-2 group cochains are differentiated")
    xmat = group.realize(np.asarray(x, dtype=float))
    ymat = group.realize(np.asarray(y, dtype=float))

    def fn(t, s):
        gx_t, gy_s = group.exp(t * xmat), group.exp(s * ymat)
        gy_t, gx_s = group.exp(t * ymat), group.exp(s * xmat)
        return f(gx_t, gy_s) - f(gy_t, gx_s)

    return _mixed_partial(fn, step)


def derived_cochain(
    group: MatrixGroup, f: GroupCochain, step: float = DEFAULT_D2_STEP
) -> Cochain:
    """Assemble the derived algebra 2-cochain on all basis pairs."""
    n = group.algebra.dim
    eye = np.eye(n)
    values = [
        differentiate_group_cocycle(group, f, eye[i], eye[j], step)
        for i, j in index_table(n, 2)
    ]
    return Cochain(2, n, f.coeff_dim, values)


def cocycle_recovery_residual(
    form: EquivariantForm,
    x: np.ndarray,
    y: np.ndarray,
    step: float = DEFAULT_D2_STEP,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """How far differentiating the path cocycle lands from the base cochain.

    Realizes the constant-direction path families exp(tau t X), exp(sigma s Y),
    differentiates gamma(., .) - gamma(swapped) in (tau, sigma) at 0, and
    compares with omega(X, Y).
    """
    group = form.group
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def fn(tau, sigma):
        p = exp_path(group, x, scale=tau)
        q = exp_path(group, y, scale=sigma)
        return path_cocycle(form, p, q, quad_order) - path_cocycle(form, q, p, quad_order)

    derived = _mixed_partial(fn, step)
    target = form.cochain(x, y)
    return float(np.max(np.abs(derived - target)))


def curvature_defect(
    form: EquivariantForm, x: np.ndarray, y: np.ndarray
) -> float:
    """|s* curvature at the identity on (X, Y) - omega(X, Y)|.

    Pulls the canonical connection's curvature back along the zero section
    of the extension built from the form's cochain; the value reduces to
    the antisymmetrized coefficient projection of the extension bracket.
    """
    group = form.group
    ext = build_algebra_extension(
        group.algebra, form.module(), form.cochain, force=True
    )
    xhat = ext.embed_base(np.asarray(x, dtype=float))
    yhat = ext.embed_base(np.asarray(y, dtype=float))
    forward = ext.project_coeff(algebra_bracket(ext.total, xhat, yhat))
    backward = ext.project_coeff(algebra_bracket(ext.total, yhat, xhat))
    value = 0.5 * (forward - backward)
    return float(np.max(np.abs(value - form.cochain(x, y))))
