"""Surfaces in a matrix group and integrals of the equivariant 2-form.

A degree-2 algebra cochain omega extends to a 2-form on the whole group by
left translation twisted with the coefficient action:

    form(g)(u, v) = g . omega(g^-1 u, g^-1 v),

with tangents decomposed in the realized algebra basis and omega evaluated
by its own call.  Every integral here is a tensor Gauss-Legendre rule whose
node values one node step takes (membership, tangents, cochain, action),
its tangents from one tangent step, which differences chart coordinates in
the chart and matrices as matrices, on:

* patch stencils, in one array pass over a patch's nodes;
* paths at the rule's parameters: their log-derivatives g^-1 g' give the
  product triangle sigma(t, s) = g1(t) g2(s), the path-pair cocycle's
  surface, and a product of paths composes its factors' log-derivatives;
* d_t H on the surface H(t, s) = g1(t) exp(sigma(s) L(t)), L(t) =
  log(g1(t)^-1 g2(t)), spanning two paths with the same endpoint, in
  coordinates on an additive chart (spanning_chain, the same surface
  evaluated point by point, is the reference of the matrices); the
  cocycle identities read the paths through GroupPath.

Besides: boundaries of 3-patches (Stokes checks), the edge bookkeeping of the
cycle-closure test, the finite-difference derivation of an algebra 2-cochain
from a smooth group 2-cochain, and the checks tying the path cocycle and the
extension's curvature back to omega.

A triangle patch is integrated on the square's own nodes with spectral
integration weights, so it is evaluated on the whole unit square, on both
sides of the diagonal, and must be defined there.
"""

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import ModuleAction, bracket as algebra_bracket, trivial_module
from .batch import per_point, vectorized
from .cohomology import Cochain, GroupCochain, index_table
from .errors import (
    LieExtError,
    MalformedInputError,
    MembershipError,
    NotALoopError,
    TangentDecompositionError,
    _quoted,
)
from .extensions import build_algebra_extension
from .groups import (
    DEFAULT_FD_STEP,
    CoordinateChart,
    GroupPath,
    MatrixGroup,
    exp_path,
    validate_action_compatibility,
    _coincidence_tol,
)

DEFAULT_QUAD_ORDER = 16
DEFAULT_D2_STEP = 1e-3


@vectorized
def smooth_step(u):
    """Monotone [0,1] -> [0,1] map with flat first derivative at both ends."""
    return u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)


@dataclass(frozen=True)
class EquivariantForm:
    """Left-equivariant extension of a degree-2 cochain over a matrix group,
    twisted by the coefficient module (trivial when none is given)."""

    cochain: Cochain
    group: MatrixGroup
    module: Optional[ModuleAction] = None

    def __post_init__(self):
        cochain = self.cochain
        if cochain.degree != 2:
            raise MalformedInputError("equivariant form needs a degree-2 cochain")
        if cochain.alg_dim != self.group.algebra.dim:
            raise MalformedInputError(
                "cochain algebra dimension does not match the group"
            )
        if self.module is None:
            object.__setattr__(self, "module", trivial_module(cochain.alg_dim, cochain.coeff_dim))
        mod = self.module
        if (mod.alg_dim, mod.coeff_dim) != (cochain.alg_dim, cochain.coeff_dim):
            raise MalformedInputError(
                f"module acts by {mod.alg_dim} matrices on R^{mod.coeff_dim} but the "
                f"cochain has algebra dimension {cochain.alg_dim} and values in "
                f"R^{cochain.coeff_dim}"
            )
        if mod.group_action is None and np.any(mod.rho):
            raise MalformedInputError(
                "a non-zero module.rho needs module.group_action, the group "
                "action it differentiates; the form twists by that action"
            )
        issues = validate_action_compatibility(self.group, mod)
        if issues:
            raise MalformedInputError(
                "module.group_action is not a group action with derivative module.rho: "
                + "; ".join(f"{i['identity']} at {tuple(i['indices'])}: "
                            f"residual {i['residual']:.3e}" for i in issues)
            )


def eval_equivariant(
    form: EquivariantForm, g: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Value of the form at g on tangent matrices u, v at g; on stacks of
    matrices (..., d, d) a stack of values (..., m): the cochain on the
    stacked coefficient vectors of g^-1 u and g^-1 v, acted on by g."""
    x, y = form.group.tangent_coefficients(g, np.stack([u, v]))
    return form.module.act(g, form.cochain(x, y))


@dataclass(frozen=True)
class SurfacePatch:
    """One parameterized 2-patch: map from the unit square or the triangle
    {0 <= s <= t <= 1} into the group, with an integer multiplicity.
    Called on arrays of parameters it returns the stack of matrices; with a
    chart, eval gives chart coordinates, differenced in the chart.  A
    triangle ("simplex") patch is evaluated on the whole unit square, so it
    must be defined beyond the triangle too."""

    eval: Callable
    domain: str = "square"  # "square" | "simplex"
    coefficient: int = 1
    chart: Optional[CoordinateChart] = None

    def __post_init__(self):
        if self.domain not in ("square", "simplex"):
            raise MalformedInputError(f"unknown patch domain {_quoted(self.domain)}")
        object.__setattr__(self, "eval", per_point(self.eval))

    def __call__(self, t, s) -> np.ndarray:
        values = np.asarray(self.eval(t, s), dtype=float)
        return values if self.chart is None else self.chart.from_coords(values)


@dataclass(frozen=True)
class Surface2Chain:
    """Formal integer combination of surface patches."""

    patches: Tuple[SurfacePatch, ...]

    def __post_init__(self):
        object.__setattr__(self, "patches", tuple(self.patches))


# Nodes per array pass; larger grids are integrated in slices of this many
# nodes so the stacked patch values stay a few megabytes.
_PASS_NODES = 4096
_OFF_TRIANGLE = ("a simplex patch is integrated on the whole unit square, on both sides of "
                 "the diagonal, and must be defined there: ")


def _stencil(order: int, domain: str, step: float):
    """Parameters and weights of the tensor Gauss-Legendre grid on a domain.

    Both domains use the nodes (u_i, u_j) of the square.  On the square node
    (i, j) weighs w_i w_j; on the triangle {0 <= s <= t <= 1} it weighs
    w_i S_ij, where S_ij, the integral of the j-th Lagrange basis polynomial
    of the nodes from 0 to u_i, is the spectral integration matrix.  The
    discrete orthogonality of the Legendre polynomials at the Gauss nodes x
    (weights 2 w) gives l_j = sum_k (2k + 1) w_j P_k(x_j) P_k, and
    (2k + 1) int_{-1}^x P_k = P_{k+1}(x) - P_{k-1}(x), with P_{-1} = -1, so
    S_ij = sum_k (P_{k+1} - P_{k-1})(x_i) P_k(x_j) w_j / 2.  The triangle weights
    sum to 1/2, integrate t^a s^b exactly for a, b < order, and their
    absolute values sum to at most 0.54: no cancellation.  Returns ts and
    ss of shape (5, N), the nodes followed by their central-difference
    neighbours t + h, t - h, s + h, s - h, and the N node weights.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    inner = weights  # node (i, j) weighs w_i times inner[j], or inner[i, j]
    if domain == "simplex":
        p = np.polynomial.legendre.legvander(x, order)  # P_0 .. P_order at the nodes
        primitives = p[:, 1:] - np.hstack([-np.ones((order, 1)), p[:, :-2]])
        inner = 0.25 * (primitives @ p[:, :-1].T) * w  # S
    t, s = np.repeat(nodes, order), np.tile(nodes, order)
    ts = np.stack([t, t + step, t - step, t, t])
    ss = np.stack([s, s, s, s + step, s - step])
    return ts, ss, (weights[:, None] * inner).ravel()


@lru_cache(maxsize=32)
def _passes(rules: Tuple[Tuple[int, float], ...], domain: str) -> tuple:
    """The stencils of several (order, step) rules on one domain, cut into
    array passes of at most _PASS_NODES nodes.

    Each rule's nodes are cut into slices of _PASS_NODES, and consecutive
    slices share a pass while it has room, so no slice straddles two passes
    and each rule is summed over the same slices as when it is integrated
    alone.  A pass is (ts, ss, den, weight, segments): the parameters of
    shape (5, n) as in _stencil, each node's difference denominator 2 h,
    its weight, and (rule, start, stop) for each slice it holds.
    """
    passes = [[]]
    for r, (order, step) in enumerate(rules):
        ts, ss, weight = _stencil(order, domain, step)
        for lo in range(0, weight.size, _PASS_NODES):
            part = slice(lo, lo + _PASS_NODES)
            piece = (r, ts[:, part], ss[:, part], np.full(weight[part].size, 2.0 * step), weight[part])
            if sum(p[4].size for p in passes[-1]) + piece[4].size > _PASS_NODES:
                passes.append([])
            passes[-1].append(piece)
    out = []
    for pieces in passes:
        rules_in, *arrays = zip(*pieces)
        sizes = [weight.size for weight in arrays[-1]]
        arrays = [np.concatenate(a, axis=-1) for a in arrays]
        for arr in arrays:
            arr.flags.writeable = False
        ends = np.cumsum(sizes)
        out.append((*arrays, tuple(zip(rules_in, ends - sizes, ends))))
    return tuple(out)


def _tangent_step(group: MatrixGroup, chart: Optional[CoordinateChart], rows: np.ndarray, den) -> tuple:
    """The node row and its tangent source: rows is the node row and its +h
    and -h rows per direction, of chart coordinates, else of matrices; den
    is 2 h.  The source's leading axis runs over the directions:
    chart.tangent on the coordinates and their differences, else g^-1 du."""
    x, du = rows[0], (rows[1::2] - rows[2::2]) / den
    return x, partial(group.tangent_coefficients if chart is None else chart.tangent, x, du)


def _node_values(group: MatrixGroup, chart: Optional[CoordinateChart], name: str, nodes: Optional[np.ndarray],
                 params: tuple, tangents: Callable, form: Optional[EquivariantForm] = None,
                 elements: Optional[Callable] = None, off=False):
    """The node step of every integral here.  It checks the nodes at params
    (t, or t and s, broadcasting to the nodes' leading axes), naming the
    first outside `{name} leaves the group at ...`, one on the domain first,
    and as an input error if it is off (a simplex patch's s > t): matrices
    (..., d, d) by the membership test, chart coordinates (..., k) by their
    finiteness, mapping them through the chart for the membership test only
    when one is not; nodes None had their nodes checked before (a triangle,
    through its paths).  It takes the route's tangents() under name and,
    given a form, the cochain on them, acted on by elements(), the nodes'
    group elements, for an action."""
    if nodes is not None and (chart is None or not np.all(np.isfinite(nodes))):
        g = nodes if chart is None else chart.from_coords(nodes)
        try:
            group.check_membership(g)
        except MembershipError:
            at, res = group.outside(g)
            node = lambda u: np.broadcast_to(u, g.shape[:-2]).flat[at]
            on = ~node(off)
            k = int(np.argmax(on))
            place = ", ".join(f"{node(u)[k]:.6g}" for u in params)
            where = f"t = {place}" if len(params) == 1 else f"(t, s) = ({place})"
            exc = MembershipError(f"{name} leaves the group at {where}: matrix is not in {group.name} "
                                  f"(residual {res[k]:.3e})")
            raise exc if on[k] else MalformedInputError(_OFF_TRIANGLE + str(exc)) from None
    try:
        values = tangents()
    except TangentDecompositionError as exc:
        raise TangentDecompositionError(f"{name}: {exc}") from None
    if form is None:
        return values
    values = form.cochain(*values)
    return values if form.module.group_action is None else form.module.act(elements(), values)


def surface_integrals(
    form: EquivariantForm,
    chain: Surface2Chain,
    rules: Sequence[Tuple[int, float]],
) -> np.ndarray:
    """Integrals of the form over the chain, one row per (quad_order, step)
    rule, each bit for bit what surface_integral returns for that rule.

    Each patch is one array pass over the stencils of all the rules: its
    eval is called once on every rule's nodes and their four difference
    neighbours, and the tangent step and the node step take the whole
    stack; each rule's weighted values are summed over its own nodes, in
    passes of at most _PASS_NODES.
    """
    group = form.group
    rules = tuple((int(order), float(step)) for order, step in rules)
    totals = np.zeros((len(rules), form.cochain.coeff_dim))
    for p, patch in enumerate(chain.patches):
        if patch.coefficient == 0:
            continue
        for ts, ss, den, weight, segments in _passes(rules, patch.domain):
            try:
                rows = np.asarray(patch.eval(ts.ravel(), ss.ravel()), dtype=float)
                x, tangents = _tangent_step(group, patch.chart, rows.reshape((5, -1) + rows.shape[1:]),
                                            den.reshape((-1,) + (1,) * (rows.ndim - 1)))
            except LieExtError as exc:
                if patch.domain != "simplex":
                    raise
                raise MalformedInputError(_OFF_TRIANGLE + str(exc)) from None
            elements = (lambda: x) if patch.chart is None else partial(patch.chart.from_coords, x)
            vals = weight[:, None] * _node_values(group, patch.chart, f"patches[{p}]", x, (ts[0], ss[0]), tangents,
                                                  form, elements, (ss[0] > ts[0]) & (patch.domain == "simplex"))
            for r, lo, hi in segments:
                totals[r] = totals[r] + patch.coefficient * np.sum(vals[lo:hi], axis=0)
    return totals


def surface_integral(
    form: EquivariantForm,
    chain: Surface2Chain,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Integral of the form over the chain: surface_integrals with one rule.

    Tensor Gauss-Legendre of the given order per axis, patch partials by
    central differences with step DEFAULT_FD_STEP; a triangle patch is
    evaluated on the whole unit square and must be defined there (see _stencil).
    """
    return surface_integrals(form, chain, ((quad_order, DEFAULT_FD_STEP),))[0]


# ---------------------------------------------------------------------------
# Chains built from paths


@lru_cache(maxsize=32)
def _path_rule(order: int) -> tuple:
    """_stencil's rules on path parameters: the (3, n) parameters u, u + h,
    u - h at which a path is called, and the (n, n) node weights on the
    triangle and on the square."""
    ts, _, triangle = _stencil(order, "simplex", DEFAULT_FD_STEP)
    square = _stencil(order, "square", DEFAULT_FD_STEP)[2]
    rule = ts[:3, ::order], triangle.reshape(order, order), square.reshape(order, order)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def path_samples(group: MatrixGroup, name: str, path: GroupPath, samples: np.ndarray) -> np.ndarray:
    """The path's values at the samples (GroupPath.values_at), checked by
    the node step, which names the first sample outside the group as
    `{name} leaves the group at t = ...`."""
    _node_values(group, path.chart, name, path._kept(samples), (samples,), lambda: None)
    return path.values_at(samples)


def _path_nodes(group: MatrixGroup, name: str, path: GroupPath, order: int) -> tuple:
    """The per-path step of path_cocycle at order n, on what the path keeps
    at the 3n parameters of _path_rule(n): the path checked at its n nodes
    u; g^-1 g'(u), from the tangent step; ad, whose first call computes
    ad()[j, k], the coefficients of Ad(g(u_j)^-1) e_k, which only a second
    path needs; and the name that errors give the path."""
    rows = path._kept(_path_rule(order)[0])
    x, tangents = _tangent_step(group, path.chart, rows.reshape((3, order) + rows.shape[1:]), 2.0 * DEFAULT_FD_STEP)
    # C order: the pair step's einsum sums in an order that follows the layout
    xi = _node_values(group, path.chart, name, x, (_path_rule(order)[0][0],),
                      lambda: np.ascontiguousarray(tangents()[0]))
    g = x if path.chart is None else path.chart.from_coords(x)
    ad = cache(lambda: group.decompose(group.inverse(g)[:, None] @ group.basis @ g[:, None]))
    return g, xi, ad, name


def _product_nodes(group: MatrixGroup, name: str, first: tuple, second: tuple) -> tuple:
    """The per-path step of g1 g2 from those of g1 and g2: the products
    checked, (g1 g2)^-1 (g1 g2)' = Ad(g2^-1) g1^-1 g1' + g2^-1 g2', and
    Ad((g1 g2)^-1) = Ad(g2^-1) Ad(g1^-1), which is ad1() @ ad2()."""
    (a, xi1, ad1, _), (b, xi2, ad2, _) = first, second
    g = a @ b
    xi = _node_values(group, None, name, g, (_path_rule(len(g))[0][0],),
                      lambda: np.einsum("jk,jkl->jl", xi1, ad2()) + xi2)
    return g, xi, cache(lambda: ad1() @ ad2()), name


def _triangle_integral(form: EquivariantForm, first: tuple, second: tuple) -> np.ndarray:
    """The pair step of path_cocycle on the per-path steps of g1 and g2 at one
    order n: as sigma^-1 d_t sigma = Ad(g2(s)^-1) g1^-1 g1'(t) and sigma^-1 d_s
    sigma = g2^-1 g2'(s), the n^2 nodes need no more path work, membership
    included; the products g1 g2 are formed only for a group action, _PASS_NODES at a time."""
    (a, xi1, _, _), (b, xi2, ad, name) = first, second
    n, rows = len(a), max(1, _PASS_NODES // len(a))
    vals = np.concatenate([_node_values(  # (n, n, m)
        form.group, None, name, None, (), lambda: (np.einsum("ik,jkl->ijl", xi1[lo : lo + rows], ad()), xi2),
        form, lambda: a[lo : lo + rows, None] @ b) for lo in range(0, n, rows)])
    return np.einsum("ij,ijk->k", _path_rule(n)[1], vals)


def path_cocycle(
    form: EquivariantForm,
    g1: GroupPath,
    g2: GroupPath,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Integral of the form over the triangle sigma(t, s) = g1(t) g2(s),
    0 <= s <= t <= 1, from O(n) path work: the pair step (_triangle_integral)
    on the per-path steps (_path_nodes) of g1 and g2; callers with many pairs
    take each step once."""
    group, n = form.group, int(quad_order)
    return _triangle_integral(form, _path_nodes(group, "g1", g1, n), _path_nodes(group, "g2", g2, n))


# spanning_chain's branch-guard samples of [0, 1]; the last is t = 1
_GUARD = np.linspace(0.0, 1.0, 64)
_GUARD.flags.writeable = False


def _spanning_guard(group: MatrixGroup, a: np.ndarray, b: np.ndarray):
    """spanning_chain's checks on the values a, b of its two paths at _GUARD:
    a common endpoint, read at the last sample, a fiberwise logarithm at every
    sample (a group log may refuse one), and no jump of it between samples."""
    end_gap = float(np.max(np.abs(a[-1] - b[-1])))
    if end_gap > _coincidence_tol(a[-1], b[-1]):
        raise NotALoopError(f"paths end {end_gap:.3e} apart; a spanning surface needs a common endpoint")
    try:
        logs = group.log(group.inverse(a) @ b)
    except TangentDecompositionError as exc:
        raise NotALoopError(f"no fiberwise logarithm ({exc}); the paths are too far apart for a "
                            "single-branch spanning surface") from None
    if np.max(np.abs(np.diff(logs, axis=0)), initial=0.0) > 3.0:
        raise NotALoopError("fiberwise logarithm jumps between samples; the paths are too "
                            "far apart for a single-branch spanning surface")


def spanning_chain(group: MatrixGroup, g1: GroupPath, g2: GroupPath) -> Surface2Chain:
    """Surface bounded by exactly g1 - g2, for paths sharing an endpoint; the
    reference for _spanning_integral, which the cocycle identities use.

    Fiberwise interpolation H(t, s) = g1(t) exp(smooth_step(s) L(t)) with
    L(t) = log(g1(t)^-1 g2(t)), evaluated directly at each point.  The two
    s-edges are the paths, the two t-edges are constant (identity and the
    common endpoint), so the chain is a genuine spanning surface.  Requires
    the two paths to stay within the principal branch of the group logarithm
    of each other; a sampled continuity check (_spanning_guard) guards
    against branch jumps.
    """
    _spanning_guard(group, g1(_GUARD), g2(_GUARD))

    @vectorized
    def patch(t, s):
        gt = g1(t)
        return gt @ group.exp(smooth_step(s)[..., None, None] * group.log(group.inverse(gt) @ g2(t)))

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

# Each domain's boundary as straight parameter segments (start, end, sign).
_EDGES = {
    "square": (
        ((0, 0), (1, 0), 1), ((1, 0), (1, 1), 1), ((0, 1), (1, 1), -1), ((0, 0), (0, 1), -1)
    ),
    "simplex": (((0, 0), (1, 0), 1), ((1, 0), (1, 1), 1), ((0, 0), (1, 1), -1)),
}


def _along(patch: SurfacePatch, start: np.ndarray, end: np.ndarray, u) -> np.ndarray:
    """The patch at the points start + u (end - start) of parameter segments."""
    at = start + np.asarray(u)[..., None] * (end - start)
    return patch(at[..., 0], at[..., 1])


def _edge_rule(domain: str) -> tuple:
    """A domain's edges: their parameters t and s at 33 samples each, of shape
    (edges, 33), as _along takes them, and their starts, ends and signs."""
    starts, ends, signs = (np.array(x) for x in zip(*_EDGES[domain]))
    at = starts[:, None] + np.linspace(0.0, 1.0, 33)[:, None] * (ends - starts)[:, None]
    rule = at[..., 0], at[..., 1], starts, ends, signs
    for arr in rule:
        arr.flags.writeable = False
    return rule


_EDGE_RULES = {domain: _edge_rule(domain) for domain in _EDGES}


def cancel_boundary_edges(chain: Surface2Chain) -> List[tuple]:
    """Pairwise-cancel matching boundary edges; return the net leftovers as
    segments (patch, start, end, weight), the patch's edge from parameter
    start to end (_along evaluates it).

    Each patch is evaluated once, on all of its edges at the same 33
    parameters; chart coordinates are mapped in one call when all patches
    share the chart.  An edge joins the first class it coincides with
    (groups._coincidence_tol, one unit for the whole chain), forward before
    reversed, else opens a class; constant edges drop out.  Candidate pairs
    come first, from the four entries of the edges' end samples that vary
    most over the chain, compared forward and reversed for all pairs in a
    few array operations; the 33 samples are compared only for candidates.
    A full match implies a match of those entries, so the classes are the same.
    """
    segments, weights, samples, charts = [], [], [], []
    for p in chain.patches:
        if p.coefficient == 0:
            continue
        ts, ss, starts, ends, signs = _EDGE_RULES[p.domain]
        samples.append(np.asarray(p.eval(ts, ss), dtype=float))  # (edges, 33) + (k,) or (d, d)
        charts.append(p.chart)
        segments += [(p, a, b) for a, b in zip(starts, ends)]
        weights += [int(sign) * p.coefficient for sign in signs]
    if not samples:
        return []
    if charts[0] is not None and all(c is charts[0] for c in charts):
        samples = charts[0].from_coords(np.concatenate(samples))
    else:
        samples = np.concatenate([x if c is None else c.from_coords(x) for x, c in zip(samples, charts)])
    tol = _coincidence_tol(samples)
    keep = np.flatnonzero(~(np.max(np.abs(samples - samples[:, :1]), axis=(1, 2, 3)) <= tol))
    if not keep.size:  # a constant edge carries no boundary
        return []
    samples, n = samples[keep], keep.size
    segments, weights = [segments[e] for e in keep], [weights[e] for e in keep]
    tips = samples[:, [0, -1]].reshape(n, 2, -1)
    key = tips[:, :, np.argsort(np.ptp(tips, axis=(0, 1)))[-4:]]  # (n, 2, 4)
    both = np.stack([key, key[:, ::-1]], axis=1)  # forward, reversed
    # match[i][j] = (forward, reversed), for rows of edges i at a time
    rows = max(1, 4096 // n)
    match = np.concatenate([
        np.max(np.abs(key[lo : lo + rows, None, None] - both), axis=(-2, -1)) <= tol
        for lo in range(0, n, rows)
    ]).tolist()
    classes, net = [], []  # the edge that opened each class, its net weight
    for i, arr in enumerate(samples):
        for k, j in enumerate(classes):
            forward, reverse = match[i][j]
            forward = forward and np.max(np.abs(arr - samples[j])) <= tol
            if forward or (reverse and np.max(np.abs(arr[::-1] - samples[j])) <= tol):
                net[k] += weights[i] if forward else -weights[i]
                break
        else:
            classes.append(i)
            net.append(weights[i])
    return [(*segments[j], w) for j, w in zip(classes, net) if w != 0]


# ---------------------------------------------------------------------------
# Cocycle identities and derivation checks


def _spanning_integral(
    form: EquivariantForm, a: np.ndarray, b: np.ndarray, order: int, names: Tuple[str, str],
    guards: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """surface_integral(form, spanning_chain(group, g1, g2), order) from the
    values a, b of g1, g2 at _path_rule(n)'s 3n parameters, then _GUARD, on
    which spanning_chain's checks run: matrices, or coordinates (..., k) in
    the group's chart if it is additive.  H(t, s) = g1(t) exp(sigma(s) L(t))
    is formed at the n^2 nodes and their t +- h neighbours, as on the chain's
    stencil; H^-1 d_s H = sigma'(s) L(t) needs no s +- h.  In coordinates H is
    x_a + sigma(s) l(t), l = to_coords(from_coords(x_b - x_a)) the
    coefficients of L, and a matrix only for a group action; else it takes
    3n^2 exponentials where the chain takes 5n^2.  The node step checks H and
    takes both tangents, naming the surface by its paths.  guards, if given,
    are the paths' matrices at _GUARD."""
    group, n = form.group, order
    chart = group.chart if a.ndim == 2 else None
    params, _, weights = _path_rule(n)
    if guards is None:
        guards = [v[3 * n :] if chart is None else chart.from_coords(v[3 * n :]) for v in (a, b)]
    _spanning_guard(group, *guards)
    a, b = (v[: 3 * n].reshape((3, n) + v.shape[1:]) for v in (a, b))
    u, (sigma, up, down) = params[0], smooth_step(params)
    dsigma = (up - down) / (2.0 * DEFAULT_FD_STEP)  # sigma'(s), as the chain's s-difference takes it
    if chart is None:  # L at u, u + h, u - h, as matrices
        ell = group.log(group.inverse(a) @ b)
        surface = lambda part: a[:, part, None] @ group.exp(sigma[:, None, None] * ell[:, part, None])
        along_s = lambda part: group.decompose(ell[0, part, None])
    else:
        ell = chart.to_coords(chart.from_coords(b - a))
        surface = lambda part: a[:, part, None] + sigma[:, None] * ell[:, part, None]
        along_s = lambda part: ell[0, part, None]
    name = f"the surface spanning {names[0]} and {names[1]}"
    total, rows = np.zeros(form.cochain.coeff_dim), max(1, _PASS_NODES // n)
    for lo in range(0, n, rows):  # (3, rows, n, ...): H at t, t + h, t - h on rows of t
        part = slice(lo, lo + rows)
        g, dt = _tangent_step(group, chart, surface(part), 2.0 * DEFAULT_FD_STEP)
        tangents = lambda: (*dt(), dsigma[:, None] * along_s(part))
        elements = (lambda: g) if chart is None else partial(chart.from_coords, g)
        vals = _node_values(group, chart, name, g, (u[part, None], u), tangents, form, elements)
        total = total + np.einsum("ij,ijk->k", weights[part], vals)
    return total


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
    integrability condition holds.  Each of g1, g2, g3 goes through
    _path_nodes once, and g1 g2 and g2 g3 compose their steps.
    """
    group, n = form.group, int(quad_order)
    end = [path.values_at(_path_rule(n)[0], _GUARD[-1:])[-1] for path in (g1, g2, g3)][0]
    a, b, c = (_path_nodes(group, name, path, n) for name, path in (("g1", g1), ("g2", g2), ("g3", g3)))
    ab, bc = _product_nodes(group, "g1 g2", a, b), _product_nodes(group, "g2 g3", b, c)
    gamma = partial(_triangle_integral, form)
    return form.module.act(end, gamma(b, c)) - gamma(ab, c) + gamma(a, bc) - gamma(a, b)


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
    by the flux through the corresponding spanning surfaces.  The flux
    through g1(1) times the surface spanning g2 and g2p is g1(1) acting on
    the flux through that surface, as the form is left-equivariant; so its
    9 distinct integrals (four product triangles, three spanning surfaces
    of product paths, two fluxes) are each taken once, the products and the
    spanning surfaces (_spanning_integral) from the paths' values: their
    coordinates, products by addition, when all four carry the group's
    chart and it is additive, else their matrices.
    """
    group, n = form.group, int(quad_order)
    paths = {"g1": g1, "g1p": g1p, "g2": g2, "g2p": g2p}
    additive = group.chart is not None and group.chart.additive
    chart = group.chart if additive and all(p.chart is group.chart for p in paths.values()) else None
    read = GroupPath.values_at if chart is None else GroupPath._kept
    values = {name: read(path, _path_rule(n)[0], _GUARD) for name, path in paths.items()}
    a, ap, b, bp = (_path_nodes(group, name, path, n) for name, path in paths.items())
    for p, q in (("g1", "g2"), ("g1p", "g2"), ("g1", "g2p"), ("g1p", "g2p")):
        values[f"{p} {q}"] = values[p] @ values[q] if chart is None else values[p] + values[q]
    guard = {name: v[3 * n :] if chart is None else chart.from_coords(v[3 * n :])  # mapped once
             for name, v in values.items()}
    span = lambda p, q: _spanning_integral(form, values[p], values[q], n, (p, q),
                                           guards=(guard[p], guard[q]))
    gamma = partial(_triangle_integral, form)
    base = gamma(a, b)
    flux1 = span("g1", "g1p")
    end = guard["g1"][-1]
    flux2 = form.module.act(end, span("g2", "g2p"))

    first = span("g1 g2", "g1p g2") - flux1 - gamma(ap, b) + base
    second = span("g1 g2", "g1 g2p") - flux2 - gamma(a, bp) + base
    third = span("g1 g2", "g1p g2p") - flux1 - flux2 - gamma(ap, bp) + base
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
    the a-part of the antisymmetrized bracket of (X, 0) and (Y, 0) in it.
    """
    n, pad = form.group.algebra.dim, np.zeros(form.cochain.coeff_dim)
    total = build_algebra_extension(form.group.algebra, form.module, form.cochain, force=True)
    xhat, yhat = np.concatenate([x, pad]), np.concatenate([y, pad])  # X -> (X, 0)
    value = 0.5 * (algebra_bracket(total, xhat, yhat) - algebra_bracket(total, yhat, xhat))[n:]
    return float(np.max(np.abs(value - form.cochain(x, y))))
