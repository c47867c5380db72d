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
* ``reduced_resolvent_direct``: solve the lifted inclusion on the graphs of
  A and B, one 3n x 3n system G of their graph pairs (``graph_pair``),
  inverted once.  Works for every affine operator, singular ones included:
  a nonsingular G is a well-defined resolvent.
* ``reduced_resolvent_fukushima``: the complement form
  v - K (L + K^T K)^{-1} K^T v, equal by a Woodbury rearrangement.  Needs
  invertible linear blocks: it assembles L.

All three must agree to near machine precision; the test suite holds
them to 1e-10.  The reduced leg of ``equivalence.formulation_trajectories``
iterates the direct kernel or, for an operator with no graph pair (``L1``,
``Box``), the one-step kernel: the very functions the first two paths apply.

L is the catalog operator ``Block2x2(Inverse(B), Inverse(A), tau*I)``, built
once by the system and kept as ``system.L``; every lifted path reads it.  The
3n x 3n lifted operator of ``ppa`` is ``Block2x2(L, Zero(), [I I])``; both are
made dense by ``linear_matrix``, which raises NotLinear for a block that is
not linear or is singular.  No elimination pair is built: it exists only for
an invertible L, and G certifies the reduced resolvent without one.
"""

from __future__ import annotations

import math

import numpy as np

from .drs import _splitting_rows
from .errors import DimensionMismatch, SingularSystem
from .operators import (
    Block2x2,
    Document,
    Inverse,
    MonotoneOperator,
    Zero,
    _check_operator,
    _check_tau,
    _integer,
    _linalg,
    _points,
    graph_pair,
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
            _check_operator(op, name)
            if op.dim is not None and op.dim != self.n:
                raise DimensionMismatch(
                    f"{name} acts on dimension {op.dim}, but the system is {self.n}-dimensional"
                )
        # root_tau = sqrt(tau) and the lifted operator L are derived once and
        # shared by every path, so neither can drift between formulations
        object.__setattr__(self, "root_tau", math.sqrt(self.tau))
        object.__setattr__(self, "L", Block2x2(Inverse(self.B), Inverse(self.A), self.tau * np.eye(self.n)))

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
        return linear_matrix(Block2x2(self.L, Zero(), E), 3 * self.n)


def lifted_blocks(sys):
    """The dense (L, K) pair of an invertible linear system; NotLinear when a
    block has no matrix (not linear, or singular)."""
    eye = np.eye(sys.n)
    return linear_matrix(sys.L, 2 * sys.n), sys.root_tau * np.hstack([eye, eye])


def coupling_gram(sys):
    """The dense n x n matrix K L^{-1} K^T."""
    L, K = lifted_blocks(sys)
    return K @ _linalg(np.linalg.solve, SingularSystem, "lifted block matrix L is singular", L, K.T)


def _drs_kernel(sys):
    """v -> one unchecked splitting step at z = sqrt(tau) * v, rescaled back."""
    A, B, tau, rt = sys.A, sys.B, sys.tau, sys.root_tau
    if rt == 1.0:  # both rescalings are exact copies
        return lambda V: _splitting_rows(A, B, tau, V)[0]
    return lambda V: _splitting_rows(A, B, tau, rt * V)[0] / rt


def _direct_kernel(sys):
    """V -> v+ from one inverse of G, the lifted inclusion on the graphs in the
    unknowns (xi_B, xi_A, v+), r = sqrt(tau): its bottom n rows give R, which
    multiplies v, and the shift of the offsets.  NotLinear or SingularSystem."""
    n, tau, r, eye = sys.n, sys.tau, sys.root_tau, np.eye(sys.n)
    (PA, QA, pA, qA), (PB, QB, pB, qB) = graph_pair(sys.A, n), graph_pair(sys.B, n)
    G = np.block([[PB, -tau * QA, -r * eye], [tau * QB, PA, -r * eye], [r * QB, r * QA, eye]])
    inv = _linalg(np.linalg.inv, SingularSystem, "the reduced graph system G is singular", G)
    # only the n x 3n bottom rows are kept, not the whole inverse; R keeps the
    # strides, so the bits, of a view of it (a contiguous R moves them)
    rows = inv[2 * n :].copy()
    shift = rows.dot(np.concatenate([tau * qA - pB, -tau * qB - pA, -r * (qB + qA)]))
    R = rows[:, 2 * n :]
    return lambda V: V.dot(R.T) + shift


def reduced_resolvent_via_drs(sys, v):
    """Evaluate the reduced resolvent through one splitting step.

    Computes z = sqrt(tau) * v, applies the splitting update, and
    rescales back.  This is the general-purpose path: it only needs the
    resolvents of A and B.
    """
    return _drs_kernel(sys)(_points(v, "v", dim=sys.n))


def reduced_resolvent_direct(sys, v):
    """Evaluate the reduced resolvent on the graphs of A and B, from their graph
    pairs; NotLinear for an operator with none, SingularSystem for a singular G."""
    return _direct_kernel(sys)(_points(v, "v", dim=sys.n))


def reduced_resolvent_fukushima(sys, v):
    """Evaluate the reduced resolvent in complement form, v - K (L + K^T K)^{-1} K^T v,
    equal to the direct path by the Woodbury identity; NotLinear unless both
    blocks are invertible linear maps."""
    V = _points(v, "v", dim=sys.n)
    L, K = lifted_blocks(sys)
    G = L + K.T @ K
    Y = _linalg(np.linalg.solve, SingularSystem, "L + K^T K is singular", G, K.T @ V.T)
    return V - (K @ Y).T
