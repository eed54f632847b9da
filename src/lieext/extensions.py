"""Abelian extensions on both levels: twisted algebras and twisted group laws.

A 2-cocycle omega twists the bracket of g (+) a into

    [(X1, v1), (X2, v2)] = ([X1, X2], X1.v2 - X2.v1 + omega(X1, X2)),

and a group 2-cocycle f twists the product of G x A into

    (g1, a1)(g2, a2) = (g1 g2, a1 + g1.a2 + f(g1, g2)).

Equivalence of two algebra extensions reduces to the coboundary test:
omega1 - omega2 must lie in the image of d_1.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .algebra import (
    DEFAULT_TOL_ALG,
    Lattice,
    LieAlgebra,
    ModuleAction,
    reduce_mod_lattice,
)
from .cohomology import Cochain, GroupCochain, apply_d, coboundary_matrix, index_table
from .errors import MalformedInputError, NotACocycleError

DEFAULT_EQUIV_TOL = 1e-8


@dataclass(frozen=True)
class AlgebraExtension:
    """g (+)_omega a with its assembled total algebra."""

    base: LieAlgebra
    coeff: ModuleAction
    cocycle: Cochain
    total: LieAlgebra

    @property
    def base_dim(self) -> int:
        return self.base.dim

    @property
    def coeff_dim(self) -> int:
        return self.coeff.coeff_dim

    def embed_base(self, x: np.ndarray) -> np.ndarray:
        """Section X -> (X, 0) of the projection onto g."""
        return np.concatenate([np.asarray(x, dtype=float), np.zeros(self.coeff_dim)])

    def project_base(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(w, dtype=float)[: self.base_dim]

    def project_coeff(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(w, dtype=float)[self.base_dim :]


def build_algebra_extension(
    alg: LieAlgebra,
    mod: ModuleAction,
    omega: Cochain,
    tol: float = DEFAULT_TOL_ALG,
    force: bool = False,
) -> AlgebraExtension:
    """Assemble the twisted algebra; reject non-cocycles unless force=True.

    The Jacobi identity of the total algebra fails exactly when d(omega)
    does not vanish, so non-cocycle input is refused with that residual.
    The force flag builds the broken object anyway (property tests need it).
    """
    if omega.degree != 2:
        raise MalformedInputError("extension cocycle must have degree 2")
    if omega.alg_dim != alg.dim or omega.coeff_dim != mod.coeff_dim:
        raise MalformedInputError("cocycle dimensions do not match algebra/module")
    residual = apply_d(alg, mod, omega).max_norm()
    if residual >= tol and not force:
        raise NotACocycleError(
            f"d(omega) has max norm {residual:.3e} >= tol {tol:.1e}; "
            "the twisted bracket would violate Jacobi",
            residual=residual,
        )
    n, m = alg.dim, mod.coeff_dim
    total = np.zeros((n + m, n + m, n + m))
    total[:n, :n, :n] = alg.structure_constants
    i, j = index_table(n, 2).T
    total[i, j, n:] = omega.values
    total[j, i, n:] = -omega.values
    # [(e_i, 0), (0, f_b)] = (0, rho_i f_b): total[i, n+b, n+a] = rho[i][a, b]
    total[:n, n:, n:] = mod.rho.transpose(0, 2, 1)
    total[n:, :n, n:] = -mod.rho.transpose(2, 0, 1)
    return AlgebraExtension(base=alg, coeff=mod, cocycle=omega, total=LieAlgebra(total))


def are_equivalent(
    alg: LieAlgebra,
    mod: ModuleAction,
    omega1: Cochain,
    omega2: Cochain,
    equiv_tol: float = DEFAULT_EQUIV_TOL,
) -> Tuple[bool, Optional[Cochain], float]:
    """Coboundary test: do the two cocycles differ by d(lambda)?

    Returns (verdict, witness 1-cochain or None, least-squares residual).
    The witness is the minimum-norm solution of d_1 lambda = omega1 - omega2.
    A residual beyond the double range is returned as inf.
    """
    d2 = coboundary_matrix(alg, mod, 2)
    for omega in (omega1, omega2):
        if (omega.degree, omega.alg_dim, omega.coeff_dim) != (2, alg.dim, mod.coeff_dim):
            raise MalformedInputError("cocycles must be 2-cochains on the algebra/module")
        res = float(np.max(np.abs(d2 @ omega.to_vector()), initial=0.0))
        if res >= DEFAULT_TOL_ALG:
            raise NotACocycleError(
                f"input is not a cocycle (residual {res:.3e})", residual=res
            )
    # Solve for omega1 - omega2 divided by a power of two near the largest
    # input entry, so that neither the difference nor the squares in the
    # norm overflow; dividing by a power of two is exact, so other values
    # keep every bit.
    big = max(omega1.max_norm(), omega2.max_norm())
    scale = float(np.ldexp(1.0, np.frexp(big)[1] - 1))
    unit = omega1.to_vector() / scale - omega2.to_vector() / scale
    d1 = coboundary_matrix(alg, mod, 1)
    sol, *_ = np.linalg.lstsq(d1, unit, rcond=None)
    residual = scale * float(np.linalg.norm(d1 @ sol - unit))
    if residual < equiv_tol:
        witness = Cochain.from_vector(1, alg.dim, mod.coeff_dim, scale * sol)
        return True, witness, residual
    return False, None, residual


@dataclass(frozen=True)
class GroupLaw:
    """Twisted product on G x R^m from a group 2-cocycle.

    compose/inverse/identity describe G itself (defaults: matrix group).
    The optional lattice reduces the second component modulo Gamma.
    """

    cocycle: GroupCochain
    action: Optional[Callable] = None
    compose: Callable = None
    inverse: Callable = None
    identity: object = None
    lattice: Optional[Lattice] = None

    def __post_init__(self):
        if self.compose is None:
            object.__setattr__(self, "compose", lambda a, b: a @ b)
        if self.inverse is None:
            object.__setattr__(self, "inverse", np.linalg.inv)

    def _act(self, g, v):
        return np.asarray(self.action(g, v), dtype=float) if self.action else np.asarray(v, dtype=float)


def group_multiply(law: GroupLaw, p1, p2):
    """(g1, a1)(g2, a2) = (g1 g2, a1 + g1.a2 + f(g1, g2))."""
    g1, a1 = p1
    g2, a2 = p2
    a = np.asarray(a1, dtype=float) + law._act(g1, a2) + law.cocycle(g1, g2)
    if law.lattice is not None:
        a = reduce_mod_lattice(law.lattice, a)
    return law.compose(g1, g2), a


def group_inverse(law: GroupLaw, p):
    """(g, a)^{-1} = (g^{-1}, -g^{-1}.(a + f(g, g^{-1})))."""
    g, a = p
    ginv = law.inverse(g)
    val = -law._act(ginv, np.asarray(a, dtype=float) + law.cocycle(g, ginv))
    if law.lattice is not None:
        val = reduce_mod_lattice(law.lattice, val)
    return ginv, val


def group_unit(law: GroupLaw, coeff_dim: int):
    if law.identity is None:
        raise MalformedInputError("group law has no identity element attached")
    return law.identity, np.zeros(coeff_dim)


def conjugate_coeff(law: GroupLaw, g, v: np.ndarray) -> np.ndarray:
    """Conjugation of (1, v) by (g, 0); equals (1, g.v) for a true cocycle."""
    coeff_dim = np.asarray(v).shape[0]
    left = group_multiply(law, (g, np.zeros(coeff_dim)), (law.identity, v))
    return group_multiply(law, left, group_inverse(law, (g, np.zeros(coeff_dim))))[1]
