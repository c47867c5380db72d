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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .operators import (
    Inverse,
    MonotoneOperator,
    _check_tau,
    graph_residual,
    linear_matrix,
)


@dataclass(frozen=True, eq=False)
class PpaSystem:
    """Operator pair plus step size, with the lifted matrices on demand."""

    A: MonotoneOperator
    B: MonotoneOperator
    tau: float
    n: int
    root_tau: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "n", int(self.n))
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        for name, op in (("A", self.A), ("B", self.B)):
            if op.dim is not None and op.dim != self.n:
                raise DimensionMismatch(
                    f"{name} acts on dimension {op.dim}, but the system is {self.n}-dimensional"
                )
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
        """Dense 3n x 3n lifted operator; needs invertible linear blocks."""
        n = self.n
        inv_a = np.linalg.inv(linear_matrix(self.A, n))
        inv_b = np.linalg.inv(linear_matrix(self.B, n))
        eye = np.eye(n)
        zero = np.zeros((n, n))
        return np.block(
            [
                [inv_b, -self.tau * eye, -eye],
                [self.tau * eye, inv_a, -eye],
                [eye, eye, zero],
            ]
        )


@dataclass(frozen=True, eq=False)
class PpaState:
    """Lifted iterate (u, s, z); u and s are the auxiliary components."""

    u: np.ndarray
    s: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("u", "s", "z"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 1:
                raise DimensionMismatch(f"{name} must be a vector, got shape {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.u.shape == self.s.shape == self.z.shape):
            raise DimensionMismatch(
                f"u, s, z must share a dimension, got {self.u.shape}, {self.s.shape}, {self.z.shape}"
            )

    @property
    def dim(self):
        return self.z.shape[0]

    def to_dict(self):
        return {"u": self.u.tolist(), "s": self.s.tolist(), "z": self.z.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(data["u"], data["s"], data["z"])


def initial_state(sys, z0):
    """Lift z0 with the u = s = 0 start convention."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    _check_state_dim(sys, z0.shape[0])
    zero = np.zeros_like(z0)
    return PpaState(zero, zero, z0)


def _check_state_dim(sys, d):
    if d != sys.n:
        raise DimensionMismatch(f"state dimension {d} does not match system dimension {sys.n}")


def _lifted_operators(sys):
    """(Inverse(A), Inverse(B)), the operators the lifted update resolves at
    1/tau, once that step size is checked."""
    _check_tau(1.0 / sys.tau)
    return Inverse(sys.A), Inverse(sys.B)


def _lifted_rows(inv_a, inv_b, tau, Z):
    """The lifted update on a row stack Z of z's, without input checks;
    returns (u+, s+, z+)."""
    W = Z / tau
    U = inv_b._resolve(1.0 / tau, W)
    S = inv_a._resolve(1.0 / tau, W - 2.0 * U)
    return U, S, Z - tau * (S + U)


def ppa_step(sys, state):
    """One lifted update; the result depends on the input through z only."""
    _check_state_dim(sys, state.dim)
    U, S, Z = _lifted_rows(*_lifted_operators(sys), sys.tau, state.z[None, :])
    return PpaState(U[0], S[0], Z[0])


def ppa_inclusion_residual(sys, prev, nxt):
    """Numeric defect of the lifted step inclusion, one row at a time.

    Row 1 checks u+ in B(z - tau*u+), row 2 checks
    s+ in A(z - 2*tau*u+ - tau*s+), and row 3 checks the exact update
    z+ = z - tau*(u+ + s+), all against the previous state's z.
    Returns the largest of the three residuals.
    """
    _check_state_dim(sys, prev.dim)
    _check_state_dim(sys, nxt.dim)
    tau = sys.tau
    r1 = graph_residual(sys.B, prev.z - tau * nxt.u, nxt.u)
    r2 = graph_residual(sys.A, prev.z - 2.0 * tau * nxt.u - tau * nxt.s, nxt.s)
    r3 = float(np.linalg.norm(nxt.z - (prev.z - tau * (nxt.u + nxt.s))))
    return max(r1, r2, r3)


def reduce_state(sys, state):
    """Project the lifted state to the reduced coordinate v = z / sqrt(tau)."""
    _check_state_dim(sys, state.dim)
    return state.z / sys.root_tau
