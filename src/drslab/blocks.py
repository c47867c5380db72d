"""The lifted block system and the reduced forms of the splitting map.

A :class:`BlockSystem`, the one system type (``ppa.PpaSystem`` is the
same class), pairs two operators with a step size tau and an ambient
dimension n.  The splitting update, viewed in the rescaled coordinate
v = z / sqrt(tau), is the resolvent of the parallel-type composition
built from

    L = [[B^{-1}, -tau*I], [tau*I, A^{-1}]]      (2n x 2n)
    K = sqrt(tau) * [I  I]                       (n x 2n)

and can be evaluated two independent ways:

* ``reduced_resolvent_via_drs``: rescale, take one splitting step,
  rescale back.  Works for every catalog operator.
* ``reduced_resolvent_direct``: solve the lifted inclusion on the graphs of
  A and B, one 3n x 3n system G of their graph pairs (``graph_pair``),
  inverted once.  Works for every affine operator, singular ones included:
  a nonsingular G is a well-defined resolvent.

Both must agree to near machine precision with each other and with the
test suite's complement form, v - K (L + K^T K)^{-1} K^T v, which solves on
the graph pair of L; the tests hold them to 1e-10.

L is the catalog operator ``Block2x2(Inverse(B), Inverse(A), tau*I)``, built
once by the system and kept as ``system.L``; every lifted path reads it.  No
path makes it dense: ``coupling_gram`` reads its graph pair, and the lifted
step resolves its diagonal blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .drs import _splitting_rows
from .errors import DimensionMismatch, NotLinear, SingularSystem
from .operators import (
    Block2x2,
    Document,
    Inverse,
    MonotoneOperator,
    _check_operator,
    _check_tau,
    _count,
    _linalg,
    _points,
    graph_pair,
)


class BlockSystem(Document):
    """Two operators, a step size, and the ambient dimension they act on."""

    A: MonotoneOperator
    B: MonotoneOperator
    tau: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_tau(self.tau))
        object.__setattr__(self, "n", _count(self.n, "n"))
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


def coupling_gram(sys):
    """The dense n x n matrix K L^{-1} K^T, K = sqrt(tau) [I I], from the graph
    pair (P, Q, p, q) of L: L^{-1} K^T = P xi with Q xi = K^T, so no block is
    inverted and a singular one is no obstacle.  NotLinear for an L with an
    offset, SingularSystem when L^{-1} is no map."""
    K = sys.root_tau * np.hstack([np.eye(sys.n)] * 2)
    P, Q, p, q = graph_pair(sys.L, 2 * sys.n)
    if np.any(p) or np.any(q):
        raise NotLinear("L has a nonzero offset, so K L^{-1} K^T is affine, not linear")
    xi = _linalg(np.linalg.solve, SingularSystem, "lifted block matrix L is singular", Q, K.T).T
    return K @ (xi @ P.T).T


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

