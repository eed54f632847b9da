"""Periods of the equivariant form against a lattice: the go/no-go test.

The extension built from a 2-cocycle exists at the group level exactly when
every period of the equivariant form over the user-supplied generators of
second homology lands in the lattice.  Periods are quadrature values, so
the lattice test (lattice_verdict, which holds the rule and says why a
vector is undecided) runs with its tolerance inflated by an error estimate.

The fiber over a non-simply-connected group is described by the restriction
of the path cocycle to loops: pairwise cocycle values, their antisymmetrized
commutators, and the commutators reduced modulo the lattice.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from .algebra import DEFAULT_TOL_LAT, Lattice, lattice_member, lattice_verdict, reduce_mod_lattice
from .batch import vectorized
from .errors import (
    MalformedInputError,
    MembershipError,
    NotALoopError,
    OpenChainError,
    TangentDecompositionError,
    _quoted,
)
from .geometry import (
    DEFAULT_QUAD_ORDER,
    EquivariantForm,
    Surface2Chain,
    _along,
    _path_nodes,
    _triangle_integral,
    cancel_boundary_edges,
    path_samples,
    surface_integral,
    surface_integrals,
)
from .groups import DEFAULT_FD_STEP, GroupPath, MatrixGroup, coordinate_path, _coincidence_tol

def assert_cycle_closed(chain: Surface2Chain, name: str = "cycle"):
    """Raise OpenChainError unless the chain's boundary edges cancel; with two
    or more left, it names how far apart the closest two are, forward or
    reversed on 33 samples, next to the tolerance at their scale."""
    leftovers = cancel_boundary_edges(chain)
    if leftovers:
        margin = ""
        if len(leftovers) > 1:
            edges = np.array([_along(p, a, b, np.linspace(0.0, 1.0, 33)) for p, a, b, _ in leftovers])
            both = np.stack([edges, edges[:, ::-1]], axis=1)  # forward, reversed
            gap = min(float(np.min(np.max(np.abs(both[i + 1 :] - e), axis=(-3, -2, -1))))
                      for i, e in enumerate(edges[:-1]))
            margin = f", the closest two {gap:.3e} apart (tolerance {_coincidence_tol(edges):.3e})"
        raise OpenChainError(
            f"{_quoted(name)} has {len(leftovers)} uncancelled boundary edge(s){margin}; "
            "it is not a 2-cycle"
        )


def period(
    form: EquivariantForm,
    cycle: Surface2Chain,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Integral of the form over a closed 2-chain (not reduced mod Gamma)."""
    assert_cycle_closed(cycle)
    return surface_integral(form, cycle, quad_order)


def _undecided(reason: str, lattice: Lattice, tol_lat: float, err: float = 0.0) -> str:
    """The end of the warning on a vector that lattice_verdict left "indeterminate" for reason."""
    if reason == "band":
        return " sits in the ambiguity band of the lattice test"
    what, size, fix = (("quadrature error estimate", err, "higher quad_order") if reason == "estimate"
                       else ("tolerance", tol_lat + err, "lower tol"))
    return (f": {what} {size:.2e} reaches half the shortest lattice vector ({lattice.half_spacing:.2e}), "
            f"so the lattice test cannot decide; try a {fix}")


def check_integrability(
    form: EquivariantForm,
    cycles: Sequence[Tuple[str, Surface2Chain]],
    lattice: Lattice,
    quad_order: int = DEFAULT_QUAD_ORDER,
    tol_lat: float = DEFAULT_TOL_LAT,
) -> dict:
    """Period-in-lattice test over every (name, 2-cycle) pair in cycles, the
    named chains the caller asserts generate H_2(G).

    The report has, in this order, overall ("integrable", "not_integrable"
    if any generator is "not_member", else "indeterminate" if any is),
    quad_order, assumption, generators and warnings; each generator has
    generator (its name), period, verdict ("member", "not_member" or
    "indeterminate"), coefficients and residual of the nearest lattice
    point, error_estimate and tolerance_used.

    The membership tolerance is inflated per generator by the difference
    between the period and a comparison value taken with half the
    quadrature order and twice the central-difference step, so the estimate
    covers both the quadrature error and the finite-difference floor.  After
    the generator's closure check, both values come from one
    surface_integrals pass, which evaluates each patch once on the stencils
    of both rules.  The verdict is lattice_verdict's at the inflated
    tolerance.  The warnings explain the verdicts: the ambiguity band first,
    when it leaves overall "indeterminate"; then one note per generator left
    "indeterminate" for another reason, or whose estimate inflated the
    tolerance.  An empty generator set (simply connected group with trivial
    H_2) is integrable for every cocycle.
    """
    if quad_order < 2:
        raise MalformedInputError(
            f"quad_order {quad_order} is below 2: the error estimate compares the "
            "period with one at half the order, which would be the same rule"
        )
    rules = ((quad_order, DEFAULT_FD_STEP), (quad_order // 2, 2 * DEFAULT_FD_STEP))
    generators, notes, reasons = [], [], []
    for name, chain in cycles:
        assert_cycle_closed(chain, name)
        try:
            value, coarse = surface_integrals(form, chain, rules)
        except (MembershipError, TangentDecompositionError) as exc:
            raise type(exc)(f"cycles[{_quoted(name)}].{exc}") from None
        err = float(np.max(np.abs(value - coarse), initial=0.0))
        member = lattice_member(lattice, value, tol_lat, err)
        reasons.append(member.pop("reason"))
        generators.append({"generator": name, "period": [float(v) for v in value], **member,
                           "error_estimate": err, "tolerance_used": tol_lat + err})
        if reasons[-1] in ("tolerance", "estimate"):
            notes.append(f"generator {_quoted(name)}" + _undecided(reasons[-1], lattice, tol_lat, err))
        elif err > tol_lat:
            notes.append(f"generator {_quoted(name)}: quadrature error estimate {err:.2e} inflated the tolerance")
    verdicts = [gen["verdict"] for gen in generators]
    overall = ("not_integrable" if "not_member" in verdicts
               else "indeterminate" if "indeterminate" in verdicts else "integrable")
    if overall == "indeterminate" and "band" in reasons:
        notes.insert(0, "some period" + _undecided("band", lattice, tol_lat))
    return {
        "overall": overall,
        "quad_order": quad_order,
        "assumption": ("the supplied generators are assumed to span H_2(G); "
                       "completeness is not verified internally"),
        "generators": generators,
        "warnings": notes,
    }


# ---------------------------------------------------------------------------
# The fiber over pi_1: restriction of the path cocycle to loops


def torus_winding_loop(group: MatrixGroup, winding: Sequence[int]) -> GroupPath:
    """Straight loop with the given integer winding numbers on a torus."""
    w = np.asarray(winding, dtype=float)
    if np.max(np.abs(w - np.round(w))) > 0:
        raise NotALoopError(f"winding numbers must be integers, got {winding}")
    return coordinate_path(group, vectorized(lambda t: np.multiply.outer(t, w)))


def pi1_cocycle_table(
    form: EquivariantForm,
    loops: Sequence[Tuple[str, GroupPath]],
    lattice: Optional[Lattice] = None,
    quad_order: int = DEFAULT_QUAD_ORDER,
    tol_lat: float = DEFAULT_TOL_LAT,
) -> dict:
    """Path-cocycle table over closed based loops.

    The table has, in this order, loops (the names), values (k x k x m: the
    cocycle value of each ordered pair of loops) and commutators
    (values[i][j] - values[j][i]); with a lattice it adds
    commutators_mod_lattice (the commutators reduced mod Gamma) and
    commutator_in_lattice (lattice_verdict's verdict on each commutator).
    Last come its warnings: one per "indeterminate" commutator, naming its
    loops and lattice_verdict's reason.

    Every loop must stay in the group, checked on 33 samples of [0, 1]
    (path_samples), which names the first sample outside, and close at the
    identity; the cocycle of a pair is path_cocycle, the product-triangle
    integral from the loops' log-derivatives, which equals the
    universal-cover computation: the form pulls back along the covering.
    path_cocycle's per-path step is taken once per loop, and its pair step
    on the k^2 pairs.
    """
    group = form.group
    names = [name for name, _ in loops]
    samples = np.linspace(0.0, 1.0, 33)
    for name, loop in loops:
        g = path_samples(group, f"loops[{_quoted(name)}]", loop, samples)
        gap, base = float(np.max(np.abs(g[-1] - g[0]))), float(np.max(np.abs(g[0] - group.identity)))
        tol = _coincidence_tol(g[[0, -1]], group.identity)
        if max(gap, base) > tol:
            raise NotALoopError(f"loop {_quoted(name)} does not close at the identity: its ends are "
                                f"{gap:.3e} apart and its start {base:.3e} away (tolerance {tol:.3e})")
    nodes = [_path_nodes(group, f"loops[{_quoted(name)}]", loop, int(quad_order)) for name, loop in loops]
    values = np.array([_triangle_integral(form, p, q) for p in nodes for q in nodes])
    values = values.reshape(len(nodes), len(nodes), form.cochain.coeff_dim)
    commutators = values - np.swapaxes(values, 0, 1)
    table, notes = {"loops": names, "values": values.tolist(), "commutators": commutators.tolist()}, []
    if lattice is not None:
        reduced = reduce_mod_lattice(lattice, commutators)
        table["commutators_mod_lattice"] = reduced.tolist()
        decided = lattice_verdict(lattice, commutators, reduced, tol_lat)
        table["commutator_in_lattice"] = decided["verdict"]
        notes = [f"commutator of loops {_quoted(a)} and {_quoted(b)}" + _undecided(reason, lattice, tol_lat)
                 for a, row in zip(names, decided["reason"]) for b, reason in zip(names, row) if reason]
    table["warnings"] = notes
    return table
