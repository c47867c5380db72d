"""The lifted block system and the reduced forms of the splitting map.

A :class:`BlockSystem`, the one system type (``ppa.PpaSystem`` is the
same class), pairs two operators with a step size tau and an ambient
dimension n.  The splitting update, viewed in the rescaled coordinate
v = z / sqrt(tau), is the resolvent of the parallel-type composition
built from

    L = [[B^{-1}, -tau*I], [tau*I, A^{-1}]]      (2n x 2n)
    K = sqrt(tau) * [I  I]                       (n x 2n)

and can be evaluated three independent ways:

* ``reduced_resolvent_via_drs``: rescale, take one splitting step,
  rescale back.  Works for every catalog operator.
* ``reduced_resolvent_direct``: assemble K L^{-1} K^T densely and solve
  (I + K L^{-1} K^T) v+ = v.  Needs invertible linear blocks.
* ``reduced_resolvent_fukushima``: the complement form
  v - K (L + K^T K)^{-1} K^T v, algebraically identical to the direct
  path by a Woodbury rearrangement.  Same invertibility caveat.

All three must agree to near machine precision; the test suite holds
them to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drs import splitting_pass
from .errors import DimensionMismatch, NonInvertibleBlock, SingularSystem
from .operators import (
    Document,
    MonotoneOperator,
    _check_tau,
    _frozen_array,
    _integer,
    _linalg,
    _points,
    linear_matrix,
)


@dataclass(frozen=True, eq=False)
class BlockSystem(Document):
    """Two operators, a step size, and the ambient dimension they act on."""

    A: MonotoneOperator
    B: MonotoneOperator
    tau: float
    n: int
    root_tau: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_tau(self.tau))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        for name, op in (("A", self.A), ("B", self.B)):
            if op.dim is not None and op.dim != self.n:
                raise DimensionMismatch(
                    f"{name} acts on dimension {op.dim}, but the system is {self.n}-dimensional"
                )
        # computed once and shared by every path so the coordinate link
        # cannot drift between formulations
        object.__setattr__(self, "root_tau", math.sqrt(self.tau))

    def metric_factor(self):
        """The 3n x n factor D = (0, 0, (1/sqrt(tau)) I)^T with Q = D D^T."""
        n = self.n
        D = np.zeros((3 * n, n))
        D[2 * n :, :] = np.eye(n) / self.root_tau
        return D

    def metric_matrix(self):
        """The degenerate metric Q, assembled exactly as D D^T."""
        D = self.metric_factor()
        return D @ D.T

    def lifted_matrix(self):
        """Dense 3n x 3n lifted operator [[L, -E^T], [E, 0]], E = [I I], from
        ``lifted_blocks``' L; needs invertible linear blocks."""
        L, _ = lifted_blocks(self)
        E = np.hstack([np.eye(self.n)] * 2)
        return np.block([[L, -E.T], [E, np.zeros((self.n, self.n))]])


@dataclass(frozen=True, eq=False)
class EliminationPair:
    """Matrices (R1, R2) that eliminate the auxiliary block rows.

    They satisfy L R1 = K^T R2 and K R1 = (1/sqrt(tau)) I for the scaled
    K = sqrt(tau) [I I]; R1 is (2n, n), R2 is (n, n).
    """

    R1: np.ndarray
    R2: np.ndarray

    def __post_init__(self):
        R1 = _frozen_array(self.R1, 2, "R1")
        R2 = _frozen_array(self.R2, 2, "R2")
        if R2.shape[0] != R2.shape[1]:
            raise DimensionMismatch(f"R2 must be square, got {R2.shape}")
        n = R2.shape[0]
        if R1.shape != (2 * n, n):
            raise DimensionMismatch(f"R1 must be (2n, n) = {(2 * n, n)}, got {R1.shape}")
        object.__setattr__(self, "R1", R1)
        object.__setattr__(self, "R2", R2)


def _check_vec(sys, v):
    V = _points(v)
    if V.shape[-1] != sys.n:
        raise DimensionMismatch(f"expected points of dimension {sys.n}, got shape {np.shape(v)}")
    return V


def lifted_blocks(sys):
    """Assemble the dense (L, K) pair for an invertible linear system; the
    only place the two blocks are inverted.

    Raises NotLinear when a block is not linear-representable and
    NonInvertibleBlock when a block matrix is singular.
    """
    n = sys.n
    MA = linear_matrix(sys.A, n)
    MB = linear_matrix(sys.B, n)
    singular = "block {} is singular; it has no dense inverse"
    inv_a = _linalg(np.linalg.inv, NonInvertibleBlock, singular.format("A"), MA)
    inv_b = _linalg(np.linalg.inv, NonInvertibleBlock, singular.format("B"), MB)
    eye = np.eye(n)
    L = np.block([[inv_b, -sys.tau * eye], [sys.tau * eye, inv_a]])
    K = sys.root_tau * np.hstack([eye, eye])
    return L, K


def _gram(L, K):
    """K L^{-1} K^T for an assembled (L, K) pair."""
    return K @ _linalg(np.linalg.solve, SingularSystem, "lifted block matrix L is singular", L, K.T)


def coupling_gram(sys):
    """The dense n x n matrix K L^{-1} K^T."""
    return _gram(*lifted_blocks(sys))


def reduced_resolvent_via_drs(sys, v):
    """Evaluate the reduced resolvent through one splitting step.

    Computes z = sqrt(tau) * v, applies the splitting update, and
    rescales back.  This is the general-purpose path: it only needs the
    resolvents of A and B.
    """
    Z = sys.root_tau * _check_vec(sys, v)
    Z_next, _, _ = splitting_pass(sys.A, sys.B, sys.tau, Z)
    return Z_next / sys.root_tau


def reduced_resolvent_direct(sys, v):
    """Evaluate the reduced resolvent by dense assembly.

    Solves (I + K L^{-1} K^T) v+ = v.  Requires both blocks to be
    invertible linear maps; raises NonInvertibleBlock otherwise.
    """
    V = _check_vec(sys, v)
    G = np.eye(sys.n) + coupling_gram(sys)
    return _linalg(np.linalg.solve, SingularSystem, "I + K L^{-1} K^T is singular", G, V.T).T


def reduced_resolvent_fukushima(sys, v):
    """Evaluate the reduced resolvent in complement form.

    Computes v - K (L + K^T K)^{-1} K^T v, which equals the direct path
    by the Woodbury identity.  Same invertibility requirements as the
    direct path.
    """
    V = _check_vec(sys, v)
    L, K = lifted_blocks(sys)
    G = L + K.T @ K
    Y = _linalg(np.linalg.solve, SingularSystem, "L + K^T K is singular", G, K.T @ V.T)
    return V - (K @ Y).T


def moreau_complement_form(sys, v):
    """The complementary resolvent v - reduced_resolvent_via_drs(sys, v).

    Splitting v into resolvent plus complement is exact by construction;
    on linear systems the complement independently satisfies the
    inclusion v - r in (K L^{-1} K^T)^{-1} (r) checked via dense algebra.
    """
    return np.asarray(v, dtype=float) - reduced_resolvent_via_drs(sys, v)


def elimination_pair(sys):
    """Solve for the (R1, R2) elimination pair of an invertible system."""
    L, K = lifted_blocks(sys)
    W = _gram(L, K)
    message = "K L^{-1} K^T is singular; no elimination pair exists"
    R2 = _linalg(np.linalg.solve, SingularSystem, message, W, np.eye(sys.n) / sys.root_tau)
    R1 = np.linalg.solve(L, K.T @ R2)
    return EliminationPair(R1, R2)
