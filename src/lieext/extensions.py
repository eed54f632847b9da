"""Abelian extensions on both levels: twisted algebras and twisted group laws.

A 2-cocycle omega twists the bracket of g (+) a into

    [(X1, v1), (X2, v2)] = ([X1, X2], X1.v2 - X2.v1 + omega(X1, X2)),

and a group 2-cocycle f twists the product of G x A into

    (g1, a1)(g2, a2) = (g1 g2, a1 + g1.a2 + f(g1, g2)).

Equivalence of two algebra extensions reduces to the coboundary test:
omega1 - omega2 must lie in the image of d_1.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import (
    DEFAULT_TOL_ALG,
    Lattice,
    LieAlgebra,
    ModuleAction,
    reduce_mod_lattice,
    scale_of,
    trivial_module,
)
from .cohomology import Cochain, GroupCochain, _require_cocycles, index_table
from .errors import MalformedInputError
from .groups import MatrixGroup

DEFAULT_EQUIV_TOL = 1e-8


def build_algebra_extension(
    alg: LieAlgebra,
    mod: ModuleAction,
    omega: Cochain,
    tol: float = DEFAULT_TOL_ALG,
    force: bool = False,
) -> LieAlgebra:
    """The twisted algebra g (+)_omega a.

    Its first alg.dim basis vectors span g and the other mod.coeff_dim span
    a.  Its Jacobi identity fails exactly when d(omega) does not vanish, so
    omega must pass _require_cocycles at tol; force=True (for tests) passes
    tol = inf, building any omega of finite residual on a Lie algebra g."""
    _require_cocycles(alg, mod, {"omega": omega}, np.inf if force else tol)
    n, m = alg.dim, mod.coeff_dim
    total = np.zeros((n + m, n + m, n + m))
    total[:n, :n, :n] = alg.structure_constants
    i, j = index_table(n, 2).T
    total[i, j, n:] = omega.values
    total[j, i, n:] = -omega.values
    # [(e_i, 0), (0, f_b)] = (0, rho_i f_b): total[i, n+b, n+a] = rho[i][a, b]
    total[:n, n:, n:] = mod.rho.transpose(0, 2, 1)
    total[n:, :n, n:] = -mod.rho.transpose(2, 0, 1)
    return LieAlgebra(total)


def are_equivalent(
    alg: LieAlgebra,
    mod: ModuleAction,
    omega1: Cochain,
    omega2: Cochain,
    equiv_tol: float = DEFAULT_EQUIV_TOL,
) -> Tuple[bool, Optional[Cochain], float]:
    """Coboundary test: do the two cocycles differ by d(lambda)?

    Returns (verdict, witness 1-cochain or None, least-squares residual in omega's units, inf
    beyond the double range).  The verdict compares equiv_tol with the residual in units of
    scale_of(omega1, omega2); the witness is the minimum-norm solution of d_1 lambda = omega1 -
    omega2.  Both cochains must pass _require_cocycles, whose refusal names omega1 or omega2."""
    d1 = _require_cocycles(alg, mod, {"omega1": omega1, "omega2": omega2})
    scale = scale_of(omega1.values, omega2.values)
    unit = omega1.to_vector() / scale - omega2.to_vector() / scale
    sol, *_ = np.linalg.lstsq(d1, unit, rcond=None)
    residual = float(np.linalg.norm(d1 @ sol - unit))
    if residual < equiv_tol:
        return True, Cochain(1, alg.dim, mod.coeff_dim, scale * sol), scale * residual
    return False, None, scale * residual


@dataclass(frozen=True)
class GroupLaw:
    """Twisted product on G x R^m from a group 2-cocycle on a matrix group G,
    which acts on R^m through the module (trivial when none is given); the
    optional lattice reduces the second component modulo Gamma."""

    group: MatrixGroup
    cocycle: GroupCochain
    module: Optional[ModuleAction] = None
    lattice: Optional[Lattice] = None

    def __post_init__(self):
        if self.module is None:
            mod = trivial_module(self.group.algebra.dim, self.cocycle.coeff_dim)
            object.__setattr__(self, "module", mod)
        if self.module.coeff_dim != self.cocycle.coeff_dim:
            raise MalformedInputError(
                f"module acts on R^{self.module.coeff_dim} but the cocycle takes values "
                f"in R^{self.cocycle.coeff_dim}"
            )


def group_multiply(law: GroupLaw, p1, p2):
    """(g1, a1)(g2, a2) = (g1 g2, a1 + g1.a2 + f(g1, g2))."""
    g1, a1 = p1
    g2, a2 = p2
    a = np.asarray(a1, dtype=float) + law.module.act(g1, a2) + law.cocycle(g1, g2)
    return g1 @ g2, reduce_mod_lattice(law.lattice, a)


def group_inverse(law: GroupLaw, p):
    """(g, a)^{-1} = (g^{-1}, -g^{-1}.(a + f(g, g^{-1})))."""
    g, a = p
    ginv = law.group.inverse(g)
    val = -law.module.act(ginv, np.asarray(a, dtype=float) + law.cocycle(g, ginv))
    return ginv, reduce_mod_lattice(law.lattice, val)


def group_unit(law: GroupLaw):
    return law.group.identity, np.zeros(law.cocycle.coeff_dim)


def conjugate_coeff(law: GroupLaw, g, v: np.ndarray) -> np.ndarray:
    """Conjugation of (1, v) by (g, 0); equals (1, g.v) for a true cocycle."""
    coeff_dim = np.asarray(v).shape[0]
    left = group_multiply(law, (g, np.zeros(coeff_dim)), (law.group.identity, v))
    return group_multiply(law, left, group_inverse(law, (g, np.zeros(coeff_dim))))[1]
