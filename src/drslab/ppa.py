"""Lifted 4-variable form of the splitting step.

One update of the lifted state b = (u, s, z) is

    u+ = J_{B^{-1}}(1/tau, z/tau)
    s+ = J_{A^{-1}}(1/tau, z/tau - 2*u+)
    z+ = z - tau*(s+ + u+)

which is a proximal-point step for the block operator

    [[B^{-1}, -tau*I, -I],
     [tau*I,  A^{-1}, -I],
     [I,      I,       0]]

under the degenerate metric Q = blockdiag(0, 0, (1/tau) I).  Only the z
component carries metric weight: Q has rank n out of 3n, u and s are
auxiliary, and z+ depends on the incoming state through z alone.

The two resolvents are those of the diagonal blocks of ``system.L``, which
the system builds once.  ``PpaSystem`` is ``blocks.BlockSystem``, the system
type of the reduced paths.

At tau = 1 the step forms neither z/tau nor tau*(s+ + u+), and the inner
resolves take their own unit-step shortcut (``operators.Inverse``): dividing
or multiplying by 1.0 is exact, so the bits are those of the formula above.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockSystem
from .errors import DimensionMismatch
from .operators import Document, _norm, _points, graph_residual


#: The lifted form runs on the one system type of the reduced paths.
PpaSystem = BlockSystem


class PpaState(Document):
    """Lifted iterate (u, s, z); u and s are the auxiliary components."""

    u: np.ndarray
    s: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("u", "s", "z"):
            arr = _points(getattr(self, name), name, ndim=1).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.u.shape == self.s.shape == self.z.shape):
            raise DimensionMismatch(
                f"u, s, z must share a dimension, got {self.u.shape}, {self.s.shape}, {self.z.shape}"
            )


def initial_state(sys, z0):
    """Lift z0 with the u = s = 0 start convention."""
    z0 = _points(z0, "z0", dim=sys.n, ndim=1)
    zero = np.zeros_like(z0)
    return PpaState(zero, zero, z0)


def _lifted_rows(L, tau, Z):
    """The lifted update, from L.A = B^{-1} and L.B = A^{-1}, on a point z or a row
    stack Z of them, without input checks; returns (u+, s+, z+) in Z's layout."""
    W = Z if tau == 1.0 else Z / tau
    U = L.A._resolve(1.0 / tau, W)
    S = L.B._resolve(1.0 / tau, W - (U + U))  # U + U: exact, the bits of 2.0*U
    step = S + U
    return U, S, Z - (step if tau == 1.0 else tau * step)


def ppa_step(sys, state):
    """One lifted update; the result depends on the input through z only."""
    Z = _points(state.z, "state.z", dim=sys.n)
    return PpaState(*_lifted_rows(sys.L, sys.tau, Z))


def ppa_inclusion_residual(sys, prev, nxt):
    """Numeric defect of the lifted step inclusion, one row at a time.

    Row 1 checks u+ in B(z - tau*u+), row 2 checks
    s+ in A(z - 2*tau*u+ - tau*s+), and row 3 checks the exact update
    z+ = z - tau*(u+ + s+), all against the previous state's z.
    Returns the largest of the three residuals.
    """
    _points(prev.z, "prev.z", dim=sys.n)
    _points(nxt.z, "nxt.z", dim=sys.n)
    tau = sys.tau
    r1 = graph_residual(sys.B, prev.z - tau * nxt.u, nxt.u)
    r2 = graph_residual(sys.A, prev.z - 2.0 * tau * nxt.u - tau * nxt.s, nxt.s)
    r3 = _norm(nxt.z - (prev.z - tau * (nxt.u + nxt.s)))
    return max(r1, r2, r3)

