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
them to 1e-10.  The reduced leg of ``equivalence.formulation_trajectories``
iterates the direct kernel or, where it cannot be assembled, the one-step
kernel: the very functions the first two paths apply.

L is the catalog operator ``Block2x2(Inverse(B), Inverse(A), tau*I)`` and the
3n x 3n lifted operator of ``ppa`` is ``Block2x2(L, Zero(), [I I])``; both are
made dense by ``linear_matrix``, which raises NotLinear for a block that is
not linear or is singular.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .drs import _splitting_rows
from .errors import DimensionMismatch, SingularSystem
from .operators import (
    Block2x2,
    Document,
    Inverse,
    MonotoneOperator,
    Zero,
    _check_tau,
    _frozen_array,
    _integer,
    _linalg,
    _points,
    linear_matrix,
)


class BlockSystem(Document):
    """Two operators, a step size, and the ambient dimension they act on."""

    A: MonotoneOperator
    B: MonotoneOperator
    tau: float
    n: int

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
        """Dense 3n x 3n lifted operator [[L, -E^T], [E, 0]], E = [I I]: the
        matrix of ``Block2x2(L, Zero(), E)``; needs invertible linear blocks."""
        E = np.hstack([np.eye(self.n)] * 2)
        return linear_matrix(Block2x2(_lifted_operator(self), Zero(), E), 3 * self.n)


class EliminationPair(Document):
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


def _lifted_operator(sys):
    """L = [[B^{-1}, -tau*I], [tau*I, A^{-1}]] as a catalog operator."""
    return Block2x2(Inverse(sys.B), Inverse(sys.A), sys.tau * np.eye(sys.n))


def lifted_blocks(sys):
    """The dense (L, K) pair of an invertible linear system.

    Raises NotLinear when a block is not linear-representable or singular.
    """
    eye = np.eye(sys.n)
    L = linear_matrix(_lifted_operator(sys), 2 * sys.n)
    return L, sys.root_tau * np.hstack([eye, eye])


def _gram(L, K):
    """K L^{-1} K^T for an assembled (L, K) pair."""
    return K @ _linalg(np.linalg.solve, SingularSystem, "lifted block matrix L is singular", L, K.T)


def coupling_gram(sys):
    """The dense n x n matrix K L^{-1} K^T."""
    return _gram(*lifted_blocks(sys))


def _drs_kernel(sys):
    """v -> one unchecked splitting step at z = sqrt(tau) * v, rescaled back."""
    A, B, tau, rt = sys.A, sys.B, sys.tau, sys.root_tau
    return lambda V: _splitting_rows(A, B, tau, rt * V)[0] / rt


def _direct_kernel(sys):
    """v -> (I + K L^{-1} K^T)^{-1} v, assembled once; raises NotLinear or SingularSystem."""
    return partial(np.linalg.solve, np.eye(sys.n) + coupling_gram(sys))


def reduced_resolvent_via_drs(sys, v):
    """Evaluate the reduced resolvent through one splitting step.

    Computes z = sqrt(tau) * v, applies the splitting update, and
    rescales back.  This is the general-purpose path: it only needs the
    resolvents of A and B.
    """
    return _drs_kernel(sys)(_points(v, "v", dim=sys.n))


def reduced_resolvent_direct(sys, v):
    """Evaluate the reduced resolvent by dense assembly.

    Solves (I + K L^{-1} K^T) v+ = v.  Requires both blocks to be
    invertible linear maps; raises NotLinear otherwise.
    """
    V = _points(v, "v", dim=sys.n)
    return _linalg(_direct_kernel(sys), SingularSystem, "I + K L^{-1} K^T is singular", V.T).T


def reduced_resolvent_fukushima(sys, v):
    """Evaluate the reduced resolvent in complement form.

    Computes v - K (L + K^T K)^{-1} K^T v, which equals the direct path
    by the Woodbury identity.  Same invertibility requirements as the
    direct path.
    """
    V = _points(v, "v", dim=sys.n)
    L, K = lifted_blocks(sys)
    G = L + K.T @ K
    Y = _linalg(np.linalg.solve, SingularSystem, "L + K^T K is singular", G, K.T @ V.T)
    return V - (K @ Y).T


def elimination_pair(sys):
    """Solve for the (R1, R2) elimination pair of an invertible system."""
    L, K = lifted_blocks(sys)
    W = _gram(L, K)
    message = "K L^{-1} K^T is singular; no elimination pair exists"
    R2 = _linalg(np.linalg.solve, SingularSystem, message, W, np.eye(sys.n) / sys.root_tau)
    R1 = np.linalg.solve(L, K.T @ R2)
    return EliminationPair(R1, R2)
